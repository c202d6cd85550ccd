//! The warm cache for the expensive per-cell setup phases: workload code
//! generation and kernel boot.
//!
//! One map from a cell's `(workload, nproc, seed)`, the exact inputs of
//! [`vax_workload::rte::shard_processes`], to the [`BootImage`] those
//! processes boot into. A miss generates the processes and moves them into
//! the layout ([`vax_workload::rte::boot_image`]), so the image, 1.1–1.3 MB
//! of trimmed physical memory, is all a cell leaves behind; the specs are
//! neither copied nor kept. A hit skips both phases and rehydrates the
//! image.
//!
//! Within one run every cell has a distinct seed, so a cold run records
//! only misses. The cache pays off only when a long-lived engine executes
//! a *second* job with the same experiment definition, so only the
//! `reproduce serve` daemon's engine keeps images ([`WarmCaches::new`]).
//! A one-shot engine (`JobEngine::new`, behind every CLI run) holds a
//! cache that retains nothing ([`WarmCaches::one_shot`]): it counts every
//! lookup as a miss, as a retaining cache would in a single run, and frees
//! each image with the cell that booted it.
//!
//! Correctness leans on `SystemBuilder::build` being routed through
//! `BootImage` capture + rehydration: a cache hit replays the exact code
//! path a cold build takes, so cached and uncached runs are byte-identical
//! by construction (property-tested in `tests/warm_cache.rs`).
//!
//! The map is bounded: once it holds its capacity of images (64 for the
//! daemon), new ones are simply not retained (hit/miss accounting is
//! unaffected). Everything is `Send + Sync`; the daemon's engine holds one
//! [`WarmCaches`] for its whole life, shared by all workers of all its
//! jobs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vax780::{BootImage, ProcessSpec, System};
use vax_trace::Tracer;
use vax_workload::Workload;

/// Most boot images the daemon's cache retains: at 1.1–1.3 MB each,
/// about 80 MB.
const CACHE_CAP: usize = 64;

/// Cumulative hit/miss counts of the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run codegen and boot.
    pub misses: u64,
}

/// The shared warm cache (see module docs).
#[derive(Debug)]
pub struct WarmCaches {
    images: Mutex<HashMap<(Workload, usize, u64), Arc<BootImage>>>,
    /// Most images `images` may hold.
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for WarmCaches {
    fn default() -> WarmCaches {
        WarmCaches::new()
    }
}

impl WarmCaches {
    /// An empty cache that retains up to 64 images: the daemon's.
    pub fn new() -> WarmCaches {
        WarmCaches::with_cap(CACHE_CAP)
    }

    /// A cache for an engine that runs one job: it retains no image, so
    /// every lookup misses.
    pub fn one_shot() -> WarmCaches {
        WarmCaches::with_cap(0)
    }

    fn with_cap(cap: usize) -> WarmCaches {
        WarmCaches {
            images: Mutex::default(),
            cap,
            hits: AtomicU64::default(),
            misses: AtomicU64::default(),
        }
    }

    /// A booted [`System`] for the `nproc` processes of `workload` seeded
    /// from `seed`, and whether its image came from the cache. The
    /// lookup, and on a miss the code generation, run under a `codegen`
    /// span on track `tid`; the layout on a miss and the rehydration run
    /// under a `boot` span. Hits and misses alike rehydrate with
    /// `System::from_boot_image`, the path `SystemBuilder::build` takes,
    /// so hits cannot diverge. The map's lock is held only to look up and
    /// insert, so concurrent workers do not wait on each other's setup.
    pub fn boot(
        &self,
        workload: Workload,
        nproc: usize,
        seed: u64,
        tracer: &Tracer,
        tid: u64,
    ) -> (System, bool) {
        let key = (workload, nproc, seed);
        // Ok: the cached image; Err: a miss's freshly generated processes.
        let found: Result<Arc<BootImage>, Vec<ProcessSpec>> = {
            let _codegen = tracer.span(tid, "codegen", vec![]);
            let cached = self
                .images
                .lock()
                .expect("warm cache lock poisoned")
                .get(&key)
                .cloned();
            cached.ok_or_else(|| vax_workload::rte::shard_processes(workload, nproc, seed))
        };
        let _boot = tracer.span(tid, "boot", vec![]);
        let hit = found.is_ok();
        let img = found.unwrap_or_else(|specs| {
            let img = Arc::new(vax_workload::rte::boot_image(specs));
            let mut map = self.images.lock().expect("warm cache lock poisoned");
            if map.len() < self.cap {
                map.insert(key, Arc::clone(&img));
            }
            img
        });
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        (System::from_boot_image(&img), hit)
    }

    /// Boot images held now.
    pub fn retained(&self) -> usize {
        self.images.lock().expect("warm cache lock poisoned").len()
    }

    /// Cumulative hit/miss counts. One lookup decides both setup phases,
    /// so these are also the codegen and the boot counts.
    pub fn counts(&self) -> CacheCounts {
        CacheCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_trace::MAIN_TID;

    fn boot(caches: &WarmCaches, workload: Workload, nproc: usize, seed: u64) -> (System, bool) {
        caches.boot(workload, nproc, seed, &Tracer::disabled(), MAIN_TID)
    }

    #[test]
    fn repeat_hits_and_measures_identically_to_the_miss() {
        let caches = WarmCaches::new();
        let (mut cold, hit1) = boot(&caches, Workload::SciEng, 2, 11);
        let (mut warm, hit2) = boot(&caches, Workload::SciEng, 2, 11);
        assert!(!hit1 && hit2);
        assert_eq!(caches.counts(), CacheCounts { hits: 1, misses: 1 });
        let a = cold.measure(1_000, 5_000);
        let b = warm.measure(1_000, 5_000);
        assert_eq!(a, b, "cached boot must be indistinguishable from cold");
    }

    #[test]
    fn distinct_inputs_never_share_an_entry() {
        let caches = WarmCaches::new();
        let keys = [
            (Workload::TimesharingResearch, 2, 7),
            (Workload::TimesharingResearch, 2, 8),
            (Workload::TimesharingResearch, 3, 7),
            (Workload::Educational, 2, 7),
        ];
        for (w, n, s) in keys {
            assert!(!boot(&caches, w, n, s).1, "{w:?}/{n}/{s} must miss");
        }
        for (w, n, s) in keys {
            assert!(boot(&caches, w, n, s).1, "{w:?}/{n}/{s} must hit");
        }
        assert_eq!(caches.counts(), CacheCounts { hits: 4, misses: 4 });
    }

    #[test]
    fn a_full_cache_still_boots_and_counts_but_retains_nothing_more() {
        let caches = WarmCaches::new();
        for seed in 0..CACHE_CAP as u64 + 1 {
            assert!(!boot(&caches, Workload::Educational, 1, seed).1);
        }
        assert_eq!(caches.retained(), CACHE_CAP);
        assert!(boot(&caches, Workload::Educational, 1, 0).1, "retained");
        assert!(
            !boot(&caches, Workload::Educational, 1, CACHE_CAP as u64).1,
            "past the cap, not retained"
        );
        assert_eq!(
            caches.counts(),
            CacheCounts {
                hits: 1,
                misses: CACHE_CAP as u64 + 2
            }
        );
    }
}
