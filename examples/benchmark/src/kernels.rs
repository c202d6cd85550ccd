//! Layer micro-kernels (the `benches/simulator.rs` and `benches/step.rs`
//! kernels), timed the nanoBench way: calibrate a repeat to a fixed wall
//! time, warm up, take several timed repeats, subtract the cost of the same
//! loop around an empty body, and report the median and quartiles.

use std::hint::black_box;
use std::time::{Duration, Instant};

use upc_monitor::{Histogram, MicroPc, Plane};
use vax_cpu::icache::DECODE_CACHE_SLOTS;
use vax_cpu::DecodeCache;
use vax_mem::{Cache, MemorySystem, PageTables, PhysAddr, Tb, VirtAddr};
use vax_workload::{build_system, generate_process, Workload, WorkloadProfile};

use crate::stats::{median, quartiles};

/// Wall time one timed repeat is calibrated to.
const REPEAT: Duration = Duration::from_millis(15);
/// Timed repeats per kernel (after one warm-up repeat).
const REPEATS: usize = 7;

/// One kernel's cost per operation, in ns.
#[derive(Debug, Clone)]
pub struct KernelStat {
    pub name: &'static str,
    pub median_ns: f64,
    pub q1_ns: f64,
    pub q3_ns: f64,
    pub repeats: usize,
}

/// Calls of `f` (each returning the operations it did) that fill one
/// repeat.
fn calibrate(f: &mut impl FnMut() -> u64) -> u64 {
    let mut calls = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        let t = start.elapsed();
        if t >= REPEAT / 4 || calls >= 1 << 26 {
            let per_call = t.as_nanos() as f64 / calls as f64;
            return ((REPEAT.as_nanos() as f64 / per_call.max(1.0)) as u64).max(1);
        }
        calls *= 2;
    }
}

/// `(elapsed ns, operations)` of one repeat.
fn repeat(calls: u64, f: &mut impl FnMut() -> u64) -> (f64, u64) {
    let mut ops = 0u64;
    let start = Instant::now();
    for _ in 0..calls {
        ops += black_box(f());
    }
    (start.elapsed().as_nanos() as f64, ops)
}

/// Harness cost per call: the same loop around a body that does nothing.
fn empty_call_ns() -> f64 {
    let mut empty = || black_box(1u64);
    let calls = calibrate(&mut empty);
    let per: Vec<f64> = (0..REPEATS)
        .map(|_| repeat(calls, &mut empty).0 / calls as f64)
        .collect();
    median(&per)
}

fn run(name: &'static str, empty_ns: f64, mut f: impl FnMut() -> u64) -> KernelStat {
    let calls = calibrate(&mut f);
    repeat(calls, &mut f);
    let per_op: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (ns, ops) = repeat(calls, &mut f);
            (ns - empty_ns * calls as f64).max(0.0) / ops.max(1) as f64
        })
        .collect();
    let (q1_ns, q3_ns) = quartiles(&per_op);
    KernelStat {
        name,
        median_ns: median(&per_op),
        q1_ns,
        q3_ns,
        repeats: REPEATS,
    }
}

/// Every kernel, in ledger order.
pub fn run_all() -> Vec<KernelStat> {
    let empty = empty_call_ns();
    let mut out = Vec::new();

    let spec = generate_process(&WorkloadProfile::baseline(), 99);
    let code = spec.image.bytes[..0x8000.min(spec.image.bytes.len())].to_vec();
    out.push(run("arch.decode.ns_per_insn", empty, || {
        let (mut at, mut n) = (0usize, 0u64);
        while at + 16 < code.len() {
            match vax_arch::decode(&code[at..]) {
                Ok(insn) => {
                    at += insn.len as usize;
                    n += 1;
                }
                Err(_) => at += 1,
            }
        }
        n
    }));

    let insn = vax_arch::decode(&[0xD0, 0x51, 0x52]).expect("movl r1, r2 decodes");
    let tables = PageTables {
        sbr: PhysAddr(0x10000),
        slr: 64,
        p0br: VirtAddr(0x8000_0000),
        p0lr: 16,
        p1br: VirtAddr(0x8000_0200),
        p1lr: 16,
    };
    let mut hot = DecodeCache::new();
    for pc in 0..64u32 {
        hot.lookup(0x200 + pc * 4, 0, &tables);
        hot.insert(0x200 + pc * 4, insn);
    }
    let mut pc = 0u32;
    out.push(run("cpu.icache.hit_ns", empty, || {
        pc = (pc + 1) & 63;
        u64::from(hot.lookup(0x200 + pc * 4, 0, &tables).is_some())
    }));
    let mut cold = DecodeCache::new();
    let mut va = 0x200u32;
    out.push(run("cpu.icache.miss_insert_ns", empty, || {
        va = va.wrapping_add(DECODE_CACHE_SLOTS as u32 + 4);
        black_box(cold.lookup(va, 0, &tables));
        cold.insert(va, insn);
        1
    }));

    for (name, decode_cache) in [
        ("cpu.step.ns_cached", true),
        ("cpu.step.ns_uncached", false),
    ] {
        let mut sys = build_system(Workload::TimesharingResearch, 3, 7);
        sys.cpu.config.decode_cache = decode_cache;
        sys.run_instructions(20_000);
        out.push(run(name, empty, || {
            sys.run_instructions(2_000);
            2_000
        }));
    }

    let mut tb = Tb::new_780();
    let mut tva = 0u32;
    out.push(run("mem.tb.probe_ns", empty, || {
        tva = tva.wrapping_add(512) & 0xFFFFF;
        if tb.probe(VirtAddr(tva)).is_none() {
            tb.insert(VirtAddr(tva), tva >> 9);
        }
        1
    }));
    let mut cache = Cache::new_780();
    let mut addr = 0u32;
    out.push(run("mem.cache.access_ns", empty, || {
        addr = addr.wrapping_add(68) & 0x3FFFF;
        u64::from(cache.access_read(PhysAddr(addr))) | 1
    }));
    let mut ms = MemorySystem::new_780();
    let (mut t, mut pa) = (0u64, 0u32);
    out.push(run("mem.memsys.read_cycle_ns", empty, || {
        pa = pa.wrapping_add(36) & 0xFFFF;
        t += 1;
        black_box(ms.read_cycle(PhysAddr(pa), t));
        1
    }));

    let mut hist = Histogram::new_16k();
    hist.start();
    let mut upc = 0u16;
    out.push(run("monitor.histogram.record_ns", empty, || {
        for _ in 0..256 {
            upc = upc.wrapping_add(97) & 0x3FFF;
            hist.record(MicroPc(upc), Plane::Normal);
        }
        256
    }));
    out
}
