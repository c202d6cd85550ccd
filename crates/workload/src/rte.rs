//! RTE-style experiment assembly: build a multi-user system for a
//! workload, and seed each `(workload, shard)` cell of the composite grid
//! (the engine in `vax-bench` runs the grid).

use std::sync::Arc;

use rand::SeedStream;
use vax780::{
    BootImage, DeferredProcess, ProcessShape, ProcessSpec, System, SystemBuilder, SystemConfig,
};

use crate::codegen::{generate_process, process_shape};
use crate::profile::{Workload, WorkloadProfile};

/// Number of simulated user processes per workload. The paper's RTE drove
/// 32–40 terminal users; we model the *active* subset an 8 MB machine
/// timeshares among at once.
pub const PROCESSES_PER_WORKLOAD: usize = 6;

/// The seed of process `i` of a system seeded from `seed`.
fn process_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64 + 1)
}

/// The workload-codegen phase in isolation: generate the `nproc` user
/// processes for a system seeded from `seed`, without booting anything.
/// [`boot_image`] lays them out; [`seed_boot_image`] boots the same
/// system and generates each process only when its kernel selects it.
pub fn shard_processes(workload: Workload, nproc: usize, seed: u64) -> Vec<ProcessSpec> {
    let profile = workload.profile();
    (0..nproc)
        .map(|i| generate_process(&profile, process_seed(seed, i)))
        .collect()
}

/// Run the full layout of a system of pre-generated processes (see
/// [`shard_processes`]) and return the plain-data [`BootImage`]. A warm
/// cache can hold the image (it is `Send` and cheap to clone) and stamp
/// out systems with [`System::from_boot_image`].
pub fn boot_image(processes: Vec<ProcessSpec>) -> BootImage {
    let mut builder = SystemBuilder::new(SystemConfig::default());
    for spec in processes {
        builder.add_process(spec);
    }
    builder.build_image()
}

/// One user process of a seeded system: its profile, its seed, and the
/// shape codegen declares for the profile.
#[derive(Debug)]
struct ProcessRecipe {
    profile: Arc<WorkloadProfile>,
    seed: u64,
    shape: ProcessShape,
}

impl DeferredProcess for ProcessRecipe {
    fn shape(&self) -> ProcessShape {
        self.shape
    }

    fn generate(&self) -> ProcessSpec {
        generate_process(&self.profile, self.seed)
    }
}

/// The [`BootImage`] of the system `boot_image(shard_processes(workload,
/// nproc, seed))` lays out, with every process deferred: the layout maps
/// each from its declared shape, and a machine rehydrated from the image
/// generates a process the first time its kernel selects it. The machine
/// runs byte for byte as the eagerly built one does, but a cell too short
/// to context-switch generates one program instead of `nproc`.
pub fn seed_boot_image(workload: Workload, nproc: usize, seed: u64) -> BootImage {
    let profile = Arc::new(workload.profile());
    let shape = process_shape(&profile);
    let mut builder = SystemBuilder::new(SystemConfig::default());
    for i in 0..nproc {
        builder.add_deferred(ProcessRecipe {
            profile: Arc::clone(&profile),
            seed: process_seed(seed, i),
            shape,
        });
    }
    builder.build_image()
}

/// Build a booted system running `workload` with `nproc` generated user
/// processes (seeded deterministically from `seed`), from
/// [`seed_boot_image`].
pub fn build_system(workload: Workload, nproc: usize, seed: u64) -> System {
    System::from_boot_image(&seed_boot_image(workload, nproc, seed))
}

/// The seed for replica shard `shard` of workload index `workload_index`
/// in a composite rooted at `root_seed`.
///
/// Seeds are split with [`SeedStream`] (SplitMix64), one nested stream per
/// grid axis, so every `(workload, shard)` cell gets a decorrelated seed
/// that depends only on its coordinates — never on how many shards ran,
/// in what order, or on which thread.
pub fn shard_seed(root_seed: u64, workload_index: u64, shard: u64) -> u64 {
    SeedStream::new(root_seed)
        .stream(workload_index)
        .stream(shard)
        .seed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_a_small_measurement() {
        let m = build_system(Workload::TimesharingResearch, PROCESSES_PER_WORKLOAD, 3)
            .measure(2_000, 20_000);
        // Steps include interrupt dispatches; instructions land close.
        assert!(m.instructions() >= 18_000, "{}", m.instructions());
        assert!(m.cpi() > 2.0 && m.cpi() < 40.0, "CPI {}", m.cpi());
        assert_eq!(m.hist.total_cycles(), m.cycles, "cycle conservation");
    }
}
