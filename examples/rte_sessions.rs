//! Emulate the paper's Remote Terminal Emulator experiments: the same
//! machine measured under each of the five workload scripts, reported per
//! workload — showing how the instruction mix (and therefore CPI) shifts
//! with the user population.
//!
//! ```sh
//! cargo run --release --example rte_sessions
//! ```

use vax_analysis::Analysis;
use vax_arch::OpcodeGroup;
use vax_workload::{build_system, Workload};

fn main() {
    println!(
        "{:<34} {:>6} {:>8} {:>8} {:>8} {:>9}",
        "workload", "CPI", "float%", "call/ret%", "char%", "TBmiss/ki"
    );
    for (i, &w) in Workload::ALL.iter().enumerate() {
        let mut system = build_system(w, 4, 42 + i as u64);
        let m = system.measure(20_000, 200_000);
        let a = Analysis::new(system.cpu.cs, &m);
        let g = a.group_percent();
        println!(
            "{:<34} {:>6.2} {:>8.2} {:>8.2} {:>8.2} {:>9.1}",
            w.name(),
            a.cpi(),
            g[OpcodeGroup::Float.index()],
            g[OpcodeGroup::CallRet.index()],
            g[OpcodeGroup::Character.index()],
            1000.0 * m.mem_stats.total_tb_misses() as f64 / m.instructions().max(1) as f64,
        );
    }
    println!();
    println!("scientific/engineering should lead in float%, commercial in char%.");
}
