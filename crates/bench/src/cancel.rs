//! Cooperative cancellation for grid runs.
//!
//! A [`CancelToken`] is the one signal a frontend (the serve daemon's
//! cancel endpoint, a `deadline_secs` spec field) can use to stop a job
//! early without corrupting it. It is *cooperative*: the shard pool checks
//! the token only before it claims the next cell (the watchdog, by
//! contrast, fires inside a cell every `WATCHDOG_STRIDE` = 2,048 steps),
//! so an in-flight cell always finishes and checkpoints before the run
//! winds down. Everything already checkpointed stays on disk, which is
//! what makes a canceled run resumable (`reproduce resume`) or simply
//! inspectable.
//!
//! The default token is inert (`None` inside): checking it is a single
//! `Option` branch, so the CLI paths — which never cancel — pay nothing.
//! A live token latches the *first* cause to fire (explicit cancel vs.
//! deadline), so a job's terminal status is stable even when both race.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a token fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelKind {
    /// An explicit cancel request (`POST /jobs/:id/cancel`).
    Canceled,
    /// The job's `deadline_secs` budget elapsed.
    DeadlineExceeded,
}

impl CancelKind {
    /// The terminal status name this cause maps to.
    pub fn name(self) -> &'static str {
        match self {
            CancelKind::Canceled => "canceled",
            CancelKind::DeadlineExceeded => "deadline_exceeded",
        }
    }

    /// Parse a status name back into a kind (journal replay).
    pub fn parse(name: &str) -> Option<CancelKind> {
        match name {
            "canceled" => Some(CancelKind::Canceled),
            "deadline_exceeded" => Some(CancelKind::DeadlineExceeded),
            _ => None,
        }
    }
}

const LIVE: u8 = 0;
const CANCELED: u8 = 1;
const DEADLINE: u8 = 2;

#[derive(Debug)]
struct Inner {
    /// Latched cause: [`LIVE`] until the first cancel/deadline wins.
    fired: AtomicU8,
    /// Armed deadline; checked lazily by [`CancelToken::fired`].
    deadline: Mutex<Option<Instant>>,
}

/// A cloneable cancel handle shared between a controller (who calls
/// [`CancelToken::cancel`] / [`CancelToken::arm_deadline`]) and the grid
/// (which polls [`CancelToken::fired`] at cell boundaries).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Option<Arc<Inner>>);

impl CancelToken {
    /// A live token (the default constructor yields an inert one).
    pub fn new() -> CancelToken {
        CancelToken(Some(Arc::new(Inner {
            fired: AtomicU8::new(LIVE),
            deadline: Mutex::new(None),
        })))
    }

    /// Request cancellation. First cause to land wins; on an inert token
    /// this is a no-op.
    pub fn cancel(&self) {
        if let Some(inner) = &self.0 {
            let _ =
                inner
                    .fired
                    .compare_exchange(LIVE, CANCELED, Ordering::SeqCst, Ordering::SeqCst);
        }
    }

    /// Arm a deadline `budget` from now. Re-arming replaces the previous
    /// deadline; no-op on an inert token. A budget so large the deadline
    /// is unrepresentable (`Instant` overflow) can never elapse, so it is
    /// treated as no deadline rather than a panic.
    pub fn arm_deadline(&self, budget: Duration) {
        if let Some(inner) = &self.0 {
            let mut deadline = inner
                .deadline
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *deadline = Instant::now().checked_add(budget);
        }
    }

    /// Has the token fired, and why? Called at cell boundaries — cheap
    /// (one branch) when inert, one atomic load plus a cold mutex when
    /// live. A deadline observed as expired here is latched, so every
    /// later call reports the same cause.
    pub fn fired(&self) -> Option<CancelKind> {
        let inner = self.0.as_ref()?;
        match inner.fired.load(Ordering::SeqCst) {
            CANCELED => return Some(CancelKind::Canceled),
            DEADLINE => return Some(CancelKind::DeadlineExceeded),
            _ => {}
        }
        let expired = {
            let deadline = inner
                .deadline
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            deadline.is_some_and(|d| Instant::now() >= d)
        };
        if expired {
            let _ =
                inner
                    .fired
                    .compare_exchange(LIVE, DEADLINE, Ordering::SeqCst, Ordering::SeqCst);
            // Re-read: an explicit cancel may have won the race, and the
            // latched cause is authoritative.
            return match inner.fired.load(Ordering::SeqCst) {
                CANCELED => Some(CancelKind::Canceled),
                _ => Some(CancelKind::DeadlineExceeded),
            };
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_token_never_fires() {
        let t = CancelToken::default();
        t.cancel();
        t.arm_deadline(Duration::from_millis(0));
        assert_eq!(t.fired(), None);
    }

    #[test]
    fn cancel_latches_through_clones() {
        let t = CancelToken::new();
        assert_eq!(t.fired(), None);
        let clone = t.clone();
        clone.cancel();
        assert_eq!(t.fired(), Some(CancelKind::Canceled));
        // A later deadline cannot overwrite the latched cause.
        t.arm_deadline(Duration::from_millis(0));
        assert_eq!(t.fired(), Some(CancelKind::Canceled));
    }

    #[test]
    fn deadline_fires_once_elapsed() {
        let t = CancelToken::new();
        t.arm_deadline(Duration::from_secs(3600));
        assert_eq!(t.fired(), None, "far deadline has not fired");
        t.arm_deadline(Duration::from_millis(0));
        assert_eq!(t.fired(), Some(CancelKind::DeadlineExceeded));
        assert_eq!(t.fired(), Some(CancelKind::DeadlineExceeded), "latched");
    }

    #[test]
    fn unrepresentable_deadline_never_fires_or_panics() {
        let t = CancelToken::new();
        t.arm_deadline(Duration::MAX);
        assert_eq!(t.fired(), None, "overflowed deadline means no deadline");
        // An explicit cancel still works afterwards.
        t.cancel();
        assert_eq!(t.fired(), Some(CancelKind::Canceled));
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [CancelKind::Canceled, CancelKind::DeadlineExceeded] {
            assert_eq!(CancelKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(CancelKind::parse("done"), None);
    }
}
