//! The host-speed reference: fixed kernels owned by the benchmark, timed
//! between the measured operations of a run.
//!
//! The hosts this benchmark runs on are shared, and their speed drifts by
//! more than a regression bound over seconds to minutes: the same job can
//! take three quarters longer in one minute than in the next, and a whole
//! run can land in a slow spell. The reference kernels run none of the
//! system's code, so no change to the system can move them. Timed right
//! before and right after each measured operation, they gauge the host's
//! speed at that moment, and the operation's wall time scaled by the gauge
//! is its time at a fixed host speed: the speed at which the kernels take
//! their nominal times.
//!
//! Slow spells slow different work by different factors: in the worst ones
//! the simulator's hot loop slowed by ~75%, an interpreter loop of the
//! benchmark's own by ~25%, and allocating fresh memory by ~95%. So there
//! are two kernels, each shaped like one kind of work the system does:
//!
//! - an interpreter (byte opcodes, a dispatch `match`, dependent loads from
//!   a table larger than the core's private caches, a read-write scratch
//!   area), like the simulator's hot loop;
//! - machine builds (allocate zeroed 8 MiB memories through the allocator
//!   the system uses, write their first MiB, scan them for their last
//!   nonzero byte), like `SystemBuilder` and boot-image capture.
//!
//! A job, which mostly interprets, is gauged by the interpreter; a set-up
//! unit, which generates code and builds machines, by both together.

use std::hint::black_box;
use std::time::Instant;

/// The interpreter's median time on the baseline host (a shared two-vCPU
/// 2.1 GHz Xeon VM).
pub const NOMINAL_INTERPRET_S: f64 = 0.0050;
/// The machine builds' median time on the baseline host, before any job
/// has grown the heap.
pub const NOMINAL_BUILD_S: f64 = 0.0080;

/// Words in the interpreter's read-only table (2 MiB, past the core's
/// private caches).
const TABLE_WORDS: usize = 1 << 18;
/// Words in the interpreter's read-write scratch area (256 KiB).
const SCRATCH_WORDS: usize = 1 << 15;
/// Bytes of interpreted code.
const CODE_BYTES: usize = 1 << 16;
/// Interpreted steps per pass.
const STEPS: usize = 400_000;
/// Interpreter passes per gauge; the gauge is their median.
const INTERPRET_PASSES: usize = 3;
/// Machines built per gauge, and the size of each one's memory.
const BUILDS: usize = 4;
const MEMORY_BYTES: usize = 8 << 20;
/// Bytes of each memory written before the scan.
const WRITTEN_BYTES: usize = 1 << 20;

/// What a timed operation mostly does, and so how the host's speed for it
/// is gauged.
#[derive(Debug, Clone, Copy)]
pub enum Work {
    Interpret,
    Build,
}

/// One gauge of the host's speed: seconds of each kernel.
#[derive(Debug, Clone, Copy)]
pub struct Gauge {
    pub interpret: f64,
    pub build: f64,
}

impl Gauge {
    /// The gauge for `work` and its nominal value.
    fn for_work(&self, work: Work) -> (f64, f64) {
        match work {
            Work::Interpret => (self.interpret, NOMINAL_INTERPRET_S),
            Work::Build => (
                self.interpret + self.build,
                NOMINAL_INTERPRET_S + NOMINAL_BUILD_S,
            ),
        }
    }
}

pub struct Reference {
    code: Vec<u8>,
    table: Vec<u64>,
    scratch: Vec<u64>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        Reference {
            code: (0..CODE_BYTES).map(|_| next() as u8).collect(),
            table: (0..TABLE_WORDS).map(|_| next()).collect(),
            scratch: vec![0; SCRATCH_WORDS],
        }
    }

    /// Time both kernels now. Every pass of a kernel does exactly the same
    /// work.
    pub fn gauge(&mut self) -> Gauge {
        let mut passes: Vec<f64> = (0..INTERPRET_PASSES)
            .map(|_| {
                let start = Instant::now();
                black_box(self.interpret());
                start.elapsed().as_secs_f64()
            })
            .collect();
        passes.sort_by(f64::total_cmp);
        let start = Instant::now();
        black_box(build());
        Gauge {
            interpret: passes[INTERPRET_PASSES / 2],
            build: start.elapsed().as_secs_f64(),
        }
    }

    fn interpret(&mut self) -> u64 {
        self.scratch.fill(0);
        let (code, table, scratch) = (&self.code, &self.table, &mut self.scratch);
        let mut regs = [0u64; 16];
        let mut pc = 0usize;
        for _ in 0..STEPS {
            let op = code[pc % CODE_BYTES];
            let (a, b) = ((op & 15) as usize, ((op >> 4) & 15) as usize);
            pc += 1;
            match op >> 5 {
                0 => regs[a] = regs[a].wrapping_add(regs[b] | 1),
                1 => regs[a] ^= regs[b].rotate_left(7),
                2 => regs[a] = table[(regs[b] as usize ^ pc) % TABLE_WORDS],
                3 => {
                    let at = regs[a] as usize % SCRATCH_WORDS;
                    scratch[at] = scratch[at].wrapping_add(regs[b]);
                }
                4 => regs[a] = regs[a].wrapping_mul(regs[b] | 3),
                5 if regs[a] & 1 == 1 => pc += usize::from(code[(pc + 1) % CODE_BYTES]) * 13,
                6 => regs[a] = regs[a].wrapping_sub(scratch[regs[b] as usize % SCRATCH_WORDS]),
                _ => regs[a] = regs[b] >> (op & 7),
            }
        }
        regs.iter().fold(0, |x, &r| x ^ r)
    }
}

/// Build `BUILDS` machine memories; returns the sum of their last nonzero
/// offsets.
fn build() -> usize {
    (0..BUILDS)
        .map(|_| {
            let mut memory = vec![0u8; MEMORY_BYTES];
            for page in memory[..WRITTEN_BYTES].chunks_mut(4096) {
                page[0] = 1;
            }
            memory.iter().rposition(|&b| b != 0).unwrap_or(0)
        })
        .sum()
}

/// An operation's wall time at the reference speed, from the gauges taken
/// right before and right after it.
pub fn normalize(wall: f64, work: Work, before: Gauge, after: Gauge) -> f64 {
    let (b, nominal) = before.for_work(work);
    let (a, _) = after.for_work(work);
    wall * nominal / ((b + a) / 2.0)
}

/// Times operations between gauges of the host's speed.
pub struct Normalizer {
    reference: Reference,
    gauges: Vec<Gauge>,
}

impl Normalizer {
    pub fn new() -> Normalizer {
        let mut reference = Reference::new();
        reference.gauge();
        let first = reference.gauge();
        Normalizer {
            reference,
            gauges: vec![first],
        }
    }

    /// Run `op`, which returns its own wall seconds, and gauge the host
    /// after it; returns the wall seconds and the same at the reference
    /// speed.
    pub fn time(&mut self, work: Work, op: impl FnOnce() -> f64) -> (f64, f64) {
        let wall = op();
        let before = *self.gauges.last().expect("gauged at creation");
        let after = self.reference.gauge();
        self.gauges.push(after);
        (wall, normalize(wall, work, before, after))
    }

    /// Every gauge so far, ms: the interpreter's and the builds'.
    pub fn gauges_ms(&self) -> (Vec<f64>, Vec<f64>) {
        self.gauges
            .iter()
            .map(|g| (g.interpret * 1e3, g.build * 1e3))
            .unzip()
    }
}

/// Wall times of repeated operations and the same at the reference speed
/// (equal to the wall times where the benchmark does not normalize).
#[derive(Debug, Default)]
pub struct Timings {
    pub wall: Vec<f64>,
    pub normalized: Vec<f64>,
}

impl Timings {
    pub fn push(&mut self, wall: f64, normalized: f64) {
        self.wall.push(wall);
        self.normalized.push(normalized);
    }

    /// Wall times as measured, not normalized.
    pub fn as_measured(wall: Vec<f64>) -> Timings {
        Timings {
            normalized: wall.clone(),
            wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_does_the_same_work() {
        let mut r = Reference::new();
        let first = r.interpret();
        assert_eq!(r.interpret(), first);
        assert_eq!(Reference::new().interpret(), first);
        assert_eq!(build(), BUILDS * (WRITTEN_BYTES - 4096));
    }

    #[test]
    fn a_slow_spell_scales_out() {
        let at = |interpret: f64, build: f64| Gauge {
            interpret: interpret * NOMINAL_INTERPRET_S,
            build: build * NOMINAL_BUILD_S,
        };
        // A 2 s job while the interpreter takes twice its nominal time
        // reads 1 s at the reference speed.
        assert_eq!(
            normalize(2.0, Work::Interpret, at(2.0, 1.0), at(2.0, 1.0)),
            1.0
        );
        // The gauges on both sides of the operation are averaged.
        assert_eq!(
            normalize(3.0, Work::Interpret, at(1.0, 1.0), at(2.0, 1.0)),
            2.0
        );
        // Set-up is gauged by both kernels, weighed by their nominal times;
        // jobs by the interpreter alone.
        let slow_builds = at(1.0, 3.0);
        let expected =
            (NOMINAL_INTERPRET_S + NOMINAL_BUILD_S) / (NOMINAL_INTERPRET_S + 3.0 * NOMINAL_BUILD_S);
        let got = normalize(1.0, Work::Build, slow_builds, slow_builds);
        assert!((got - expected).abs() < 1e-12, "{got}");
        assert_eq!(
            normalize(1.0, Work::Interpret, slow_builds, slow_builds),
            1.0
        );
    }
}
