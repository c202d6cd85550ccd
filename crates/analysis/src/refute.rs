//! Counter refutation: turn the characterization probes adversarial.
//!
//! CounterPoint-style methodology: the simulator keeps two independent
//! instruments — the µPC histogram board and the CpuStats/MemStats
//! architectural counters — plus a published cycle model (a cost table
//! from [`crate::characterize`]). For each probe cell this module derives
//! *exact structural predictions* from the loop's shape (the loop is
//! strictly periodic, so a window of `iters` whole periods must contain
//! exactly `iters` copies of every instruction in it), re-runs the eight
//! conserved invariants, and optionally compares the re-attributed cost
//! against the model within a tolerance. Any disagreement is a
//! *refutation*: evidence that an instrument, the model, or the machine
//! drifted.
//!
//! A refutation is then auto-minimized — first the probe-copy count is
//! shrunk toward 1, then the addressing mode is walked toward the front
//! of [`AddressingMode::ALL`] — and serialized as a regression fixture so
//! the failing configuration is pinned forever.

use vax780::CancelToken;
use vax_arch::{AddressingMode, Opcode};
use vax_asm::probe::{mode_from_key, mode_key, probe_target, ProbeTarget, SCAFFOLD_INSNS};

use crate::characterize::{attribute, run_probe, CostTable, ProbeError, ProbeRun};
use crate::json::Json;

/// Tolerance for model-vs-measurement comparisons. A cell's measured
/// value refutes the model when it differs by more than
/// `max(abs, rel × |model|)`.
#[derive(Debug, Clone, Copy)]
pub struct RefuteTolerance {
    /// Absolute tolerance, cycles (or bytes/references) per instruction.
    pub abs: f64,
    /// Relative tolerance.
    pub rel: f64,
}

impl Default for RefuteTolerance {
    fn default() -> Self {
        // Attribution is deterministic, so only the IB-stall residue needs
        // headroom; half a cycle absorbs it at any sane reps/iters.
        RefuteTolerance {
            abs: 0.5,
            rel: 0.01,
        }
    }
}

impl RefuteTolerance {
    /// True when `actual` disagrees with `expected` beyond tolerance.
    pub fn refutes(&self, expected: f64, actual: f64) -> bool {
        (actual - expected).abs() > self.abs.max(self.rel * expected.abs())
    }
}

/// One failed cross-check.
#[derive(Debug, Clone, PartialEq)]
pub struct RefuteCheck {
    /// Which prediction failed (`invariant:…`, `structural:…`, `model:…`).
    pub name: String,
    /// The predicted value.
    pub expected: f64,
    /// The measured value.
    pub actual: f64,
}

impl std::fmt::Display for RefuteCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: expected {} got {}",
            self.name, self.expected, self.actual
        )
    }
}

/// Run every cross-check against a completed probe run.
///
/// `baseline` is the shared scaffold run (needed only for the model
/// comparison); `model` enables the cost-table comparison.
pub fn check_cell(
    target: &ProbeTarget,
    probe: &ProbeRun,
    baseline: &ProbeRun,
    model: Option<(&CostTable, RefuteTolerance)>,
) -> Vec<RefuteCheck> {
    let mut failures = Vec::new();

    // 1. The eight conserved invariants (histogram vs counters).
    for c in probe.validation.divergences() {
        failures.push(RefuteCheck {
            name: format!("invariant:{}", c.name),
            expected: c.expected as f64,
            actual: c.actual as f64,
        });
    }

    // 2. Structural predictions from the loop shape. The loop is strictly
    // periodic and the window is a whole number of periods, so these hold
    // *exactly* — any slack would hide bugs.
    let k = probe.iters;
    let reps = u64::from(probe.probe.reps);
    let nspec = target.opcode.specifier_count() as u64;
    let stats = &probe.m.cpu_stats;
    let movl = Opcode::Movl as usize;
    let brw = Opcode::Brw as usize;
    let probed = target.opcode as usize;
    let mut expect_opcode = vec![0u64; stats.opcode_counts.len()];
    expect_opcode[movl] = 3 * k;
    expect_opcode[brw] = k;
    expect_opcode[probed] += k * reps;
    let structural: Vec<(String, u64, u64)> = vec![
        (
            "structural:instructions".into(),
            k * u64::from(probe.probe.period),
            stats.instructions,
        ),
        (
            format!("structural:opcode_count:{}", target.opcode.mnemonic()),
            expect_opcode[probed],
            stats.opcode_counts[probed],
        ),
        (
            "structural:opcode_count:MOVL".into(),
            expect_opcode[movl],
            stats.opcode_counts[movl],
        ),
        (
            "structural:opcode_count:BRW".into(),
            expect_opcode[brw],
            stats.opcode_counts[brw],
        ),
        (
            "structural:spec1_count".into(),
            k * (u64::from(SCAFFOLD_INSNS) - 1 + reps),
            stats.spec1_count,
        ),
        (
            "structural:spec26_count".into(),
            k * (3 + reps * (nspec - 1)),
            stats.spec26_count,
        ),
        ("structural:branch_disps".into(), k, stats.branch_disps),
        (
            "structural:istream_bytes".into(),
            k * u64::from(probe.probe.loop_bytes),
            stats.istream_bytes,
        ),
        ("structural:hw_interrupts".into(), 0, stats.hw_interrupts),
        (
            "structural:context_switches".into(),
            0,
            stats.context_switches,
        ),
        ("structural:exceptions".into(), 0, stats.exceptions),
    ];
    for (name, expected, actual) in structural {
        if expected != actual {
            failures.push(RefuteCheck {
                name,
                expected: expected as f64,
                actual: actual as f64,
            });
        }
    }

    // 3. The published cycle model, when given. A model that simply has
    // no record for this cell is incomplete, not refuted — the comparison
    // only runs where the model makes a claim.
    if let Some((table, tol)) = model {
        if let Some(rec) = table.find(target.opcode.mnemonic(), target.mode) {
            let measured = attribute(target, probe, baseline);
            {
                let pairs = [
                    ("model:cycles", rec.cycles, measured.cycles),
                    (
                        "model:compute",
                        rec.compute_cycles(),
                        measured.compute_cycles(),
                    ),
                    ("model:stall", rec.stall_cycles(), measured.stall_cycles()),
                    (
                        "model:istream_bytes",
                        rec.istream_bytes,
                        measured.istream_bytes,
                    ),
                    ("model:d_reads", rec.d_reads, measured.d_reads),
                    ("model:d_writes", rec.d_writes, measured.d_writes),
                ];
                for (name, expected, actual) in pairs {
                    if tol.refutes(expected, actual) {
                        failures.push(RefuteCheck {
                            name: name.into(),
                            expected,
                            actual,
                        });
                    }
                }
            }
        }
    }

    failures
}

/// A confirmed, minimized refutation: the smallest probe configuration
/// this search found that still fails at least one cross-check.
#[derive(Debug, Clone)]
pub struct Refutation {
    /// Probed opcode.
    pub opcode: Opcode,
    /// Addressing mode of the minimized failing probe.
    pub mode: AddressingMode,
    /// Specifier position carrying the mode.
    pub operand: usize,
    /// Probe copies of the minimized failing probe.
    pub reps: u32,
    /// Measured iterations.
    pub iters: u64,
    /// Warmup instructions.
    pub warmup: u64,
    /// The configuration that failed first, before minimization
    /// (`(mode, reps)`).
    pub found_at: (AddressingMode, u32),
    /// The failing checks of the minimized configuration.
    pub failures: Vec<RefuteCheck>,
}

/// Minimize a failing probe cell: shrink `reps` toward 1, then walk the
/// addressing mode toward the front of [`AddressingMode::ALL`], keeping
/// each reduction only if the cell still fails. Every candidate runs as
/// many iterations as `baseline`, and its machine reads `stop`.
///
/// # Errors
/// Propagates assembler errors from re-running candidate probes, and the
/// token's cause when it stopped one.
pub fn minimize(
    target: &ProbeTarget,
    reps: u32,
    warmup: u64,
    baseline: &ProbeRun,
    model: Option<(&CostTable, RefuteTolerance)>,
    initial_failures: Vec<RefuteCheck>,
    stop: &CancelToken,
) -> Result<Refutation, ProbeError> {
    let fails = |t: &ProbeTarget, r: u32| -> Result<Vec<RefuteCheck>, ProbeError> {
        let run = run_probe(Some(t), r, baseline.iters, warmup, stop)?;
        Ok(check_cell(t, &run, baseline, model))
    };

    let mut best_target = *target;
    let mut best_reps = reps;
    let mut best_failures = initial_failures;

    // Shrink reps first: adopt the smallest count that still fails.
    for r in 1..reps {
        let f = fails(&best_target, r)?;
        if !f.is_empty() {
            best_reps = r;
            best_failures = f;
            break;
        }
    }

    // Then walk the mode toward the front of the canonical order.
    for &mode in &AddressingMode::ALL {
        if mode == best_target.mode {
            break;
        }
        let Ok(candidate) = probe_target(target.opcode, mode) else {
            continue;
        };
        let f = fails(&candidate, best_reps)?;
        if !f.is_empty() {
            best_target = candidate;
            best_failures = f;
            break;
        }
    }

    Ok(Refutation {
        opcode: best_target.opcode,
        mode: best_target.mode,
        operand: best_target.operand,
        reps: best_reps,
        iters: baseline.iters,
        warmup,
        found_at: (target.mode, reps),
        failures: best_failures,
    })
}

/// Serialize a refutation as a regression fixture
/// (`tests/fixtures/refutations/`).
pub fn refutation_json(r: &Refutation) -> String {
    let mut s = Json::obj([
        ("schema", Json::Str("vax-refutation/v1".to_string())),
        ("opcode", Json::Str(r.opcode.mnemonic().to_string())),
        ("mode", Json::Str(mode_key(r.mode).to_string())),
        ("operand", Json::Int(r.operand as i64)),
        ("reps", Json::Int(i64::from(r.reps))),
        ("iters", Json::Int(r.iters as i64)),
        ("warmup", Json::Int(r.warmup as i64)),
        (
            "found_at",
            Json::obj([
                ("mode", Json::Str(mode_key(r.found_at.0).to_string())),
                ("reps", Json::Int(i64::from(r.found_at.1))),
            ]),
        ),
        (
            "failures",
            Json::arr(r.failures.iter().map(|c| {
                Json::obj([
                    ("check", Json::Str(c.name.clone())),
                    ("expected", Json::Num(c.expected)),
                    ("actual", Json::Num(c.actual)),
                ])
            })),
        ),
    ])
    .to_string_pretty();
    s.push('\n');
    s
}

/// Parse a refutation fixture back to its probe configuration
/// (`(opcode, mode, reps)`), for replaying pinned regressions.
///
/// # Errors
/// Returns a message locating the first structural problem.
pub fn refutation_from_json(text: &str) -> Result<(Opcode, AddressingMode, u32), String> {
    let doc = Json::parse(text)?;
    let mnemonic = doc
        .get("opcode")
        .and_then(Json::as_str)
        .ok_or("missing 'opcode'")?;
    let opcode =
        Opcode::from_mnemonic(mnemonic).ok_or_else(|| format!("unknown opcode '{mnemonic}'"))?;
    let mode_s = doc
        .get("mode")
        .and_then(Json::as_str)
        .ok_or("missing 'mode'")?;
    let mode = mode_from_key(mode_s).ok_or_else(|| format!("unknown mode '{mode_s}'"))?;
    let reps = doc
        .get("reps")
        .and_then(Json::as_i64)
        .ok_or("missing 'reps'")? as u32;
    Ok((opcode, mode, reps))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ITERS: u64 = 16;
    const WARMUP: u64 = 2000;

    #[test]
    fn clean_cells_produce_no_failures() {
        let baseline = run_probe(None, 0, ITERS, WARMUP, &CancelToken::default()).unwrap();
        for (op, mode) in [
            (Opcode::Movl, AddressingMode::Register),
            (Opcode::Addl2, AddressingMode::RegisterDeferred),
            (Opcode::Clrl, AddressingMode::Autoincrement),
        ] {
            let t = probe_target(op, mode).unwrap();
            let run = run_probe(Some(&t), 4, ITERS, WARMUP, &CancelToken::default()).unwrap();
            let failures = check_cell(&t, &run, &baseline, None);
            assert!(
                failures.is_empty(),
                "{}/{}: {:?}",
                op.mnemonic(),
                mode_key(mode),
                failures
            );
        }
    }

    #[test]
    fn model_mutation_is_caught_and_minimized() {
        let baseline = run_probe(None, 0, ITERS, WARMUP, &CancelToken::default()).unwrap();
        let t = probe_target(Opcode::Movl, AddressingMode::RegisterDeferred).unwrap();
        let run = run_probe(Some(&t), 4, ITERS, WARMUP, &CancelToken::default()).unwrap();

        // An accurate model passes…
        let rec = attribute(&t, &run, &baseline);
        let mut table = CostTable {
            reps: 4,
            iters: ITERS,
            warmup: WARMUP,
            baseline_cpi: 0.0,
            baseline_loop_bytes: baseline.probe.loop_bytes,
            records: vec![rec],
            skips: vec![],
        };
        let tol = RefuteTolerance::default();
        assert!(check_cell(&t, &run, &baseline, Some((&table, tol))).is_empty());

        // …and a seeded 3-cycle error is refuted.
        table.records[0].cycles += 3.0;
        let failures = check_cell(&t, &run, &baseline, Some((&table, tol)));
        assert!(failures.iter().any(|f| f.name == "model:cycles"));

        let r = minimize(
            &t,
            4,
            WARMUP,
            &baseline,
            Some((&table, tol)),
            failures,
            &CancelToken::default(),
        )
        .unwrap();
        // The mutated record is mode-specific, so minimization keeps the
        // mode but shrinks the probe count to a single copy.
        assert_eq!(r.opcode, Opcode::Movl);
        assert_eq!(r.mode, AddressingMode::RegisterDeferred);
        assert_eq!(r.reps, 1);
        assert!(!r.failures.is_empty());

        let fixture = refutation_json(&r);
        let (op, mode, reps) = refutation_from_json(&fixture).unwrap();
        assert_eq!((op, mode, reps), (r.opcode, r.mode, r.reps));
    }

    #[test]
    fn a_fired_token_stops_minimization() {
        // Candidates run as many iterations as the baseline: here the
        // most a spec accepts, so only the token can end them.
        let mut baseline = run_probe(None, 0, ITERS, WARMUP, &CancelToken::default()).unwrap();
        baseline.iters = (1 << 53) - 1;
        let t = probe_target(Opcode::Movl, AddressingMode::RegisterDeferred).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let stopped = minimize(&t, 4, WARMUP, &baseline, None, Vec::new(), &token);
        assert_eq!(
            stopped.unwrap_err(),
            ProbeError::Canceled(vax780::CancelKind::Canceled)
        );
    }

    #[test]
    fn tolerance_bounds_behave() {
        let tol = RefuteTolerance { abs: 0.5, rel: 0.1 };
        assert!(!tol.refutes(10.0, 10.4));
        assert!(!tol.refutes(10.0, 10.9)); // within 10% relative
        assert!(tol.refutes(10.0, 11.5));
        assert!(!tol.refutes(0.0, 0.4)); // abs floor covers near-zero
        assert!(tol.refutes(0.0, 0.6));
    }
}
