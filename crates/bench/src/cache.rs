//! The warm cache for the expensive per-cell setup phase: kernel boot.
//!
//! One map from a cell's `(workload, nproc, seed)`, the exact inputs of
//! [`vax_workload::rte::seed_boot_image`], to the [`BootImage`] it lays
//! out. The image holds the system layout (page tables, PCBs, kernel;
//! about 50 KB) plus the processes generated so far: a process is
//! generated, 170–200 KB of code and data, only when the kernel of a
//! machine rehydrated from the image first selects it, and every machine
//! sharing the image then loads that copy. A miss lays out a fresh image;
//! a hit skips the layout, and every generation some earlier machine
//! already made.
//!
//! Within one run every cell has a distinct seed, so a cold run records
//! only misses. The cache pays off only when a long-lived engine executes
//! a *second* job with the same experiment definition, so only the
//! `reproduce serve` daemon's engine keeps images ([`WarmCaches::new`]).
//! A one-shot engine (`JobEngine::new`, behind every CLI run) holds a
//! cache that retains nothing ([`WarmCaches::one_shot`]): every lookup
//! misses, as it would in a retaining cache in a single run, and each
//! image is freed with the cell that booted it. Such a machine alone holds its
//! processes, so it keeps no copy of what it generates.
//!
//! Correctness leans on `SystemBuilder::build` being routed through
//! `BootImage` capture + rehydration: a cache hit replays the exact code
//! path a cold build takes, so cached and uncached runs are byte-identical
//! by construction (property-tested in `tests/warm_cache.rs`).
//!
//! The map is bounded: once it holds its capacity of images (64 for the
//! daemon), new ones are simply not retained. The job tracer's
//! `workload_cache_*` and `boot_cache_*` counters, from the hit flag
//! [`WarmCaches::boot`] returns, are the record of hits and misses.
//! Everything is `Send + Sync`; the daemon's engine holds one
//! [`WarmCaches`] for its whole life, shared by all workers of all its
//! jobs.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use vax780::{BootImage, System};
use vax_trace::Tracer;
use vax_workload::Workload;

/// Most boot images the daemon's cache retains: with all six processes
/// generated, 1.1–1.3 MB each, so at most about 80 MB.
const CACHE_CAP: usize = 64;

/// The shared warm cache (see module docs).
#[derive(Debug)]
pub struct WarmCaches {
    images: Mutex<HashMap<(Workload, usize, u64), Arc<BootImage>>>,
    /// Most images `images` may hold.
    cap: usize,
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
        }
    }

    /// A booted [`System`] for the `nproc` processes of `workload` seeded
    /// from `seed`, and whether its image came from the cache. The lookup
    /// runs under a `codegen` span on track `tid`; the layout on a miss
    /// and the rehydration run under a `boot` span. The processes
    /// themselves are generated when the machine's kernel first selects
    /// them, inside whatever span runs the machine. Hits and misses alike
    /// rehydrate with `System::from_boot_image`, the path
    /// `SystemBuilder::build` takes, so hits cannot diverge. The map's
    /// lock is held only to look up and insert, so concurrent workers do
    /// not wait on each other's setup.
    pub fn boot(
        &self,
        workload: Workload,
        nproc: usize,
        seed: u64,
        tracer: &Tracer,
        tid: u64,
    ) -> (System, bool) {
        let key = (workload, nproc, seed);
        let cached = {
            let _codegen = tracer.span(tid, "codegen", vec![]);
            self.images
                .lock()
                .expect("warm cache lock poisoned")
                .get(&key)
                .cloned()
        };
        let _boot = tracer.span(tid, "boot", vec![]);
        let hit = cached.is_some();
        let img = cached.unwrap_or_else(|| {
            let img = Arc::new(vax_workload::rte::seed_boot_image(workload, nproc, seed));
            let mut map = self.images.lock().expect("warm cache lock poisoned");
            if map.len() < self.cap {
                map.insert(key, Arc::clone(&img));
            }
            img
        });
        (System::from_boot_image(&img), hit)
    }

    /// Boot images held now.
    pub fn retained(&self) -> usize {
        self.images.lock().expect("warm cache lock poisoned").len()
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
        assert_eq!(caches.retained(), keys.len());
    }

    #[test]
    fn a_full_cache_still_boots_but_retains_nothing_more() {
        let caches = WarmCaches::new();
        let hits = |seeds: std::ops::Range<u64>| {
            let boots = seeds.map(|seed| boot(&caches, Workload::Educational, 1, seed).1);
            boots.filter(|&hit| hit).count()
        };
        assert_eq!(hits(0..CACHE_CAP as u64 + 1), 0);
        assert_eq!(caches.retained(), CACHE_CAP);
        assert_eq!(hits(0..1), 1, "retained");
        let past_the_cap = CACHE_CAP as u64;
        assert_eq!(hits(past_the_cap..past_the_cap + 1), 0, "not retained");
    }
}
