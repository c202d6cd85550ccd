//! Compare mode: two sets of `--json` records, one row per (workload,
//! metric), judged by the bounds of the ledger (the same as BENCHMARK.json).
//!
//! `--compare A B` applies the bound rule; `--pairs A B` treats the runs of
//! A and B with the same seed as a pair and applies the gain rule. A and B
//! are record files or directories of them.

use std::collections::BTreeMap;
use std::path::Path;

use vax_analysis::Json;

use crate::report::END_TO_END;
use crate::stats::{median, pair_rule, rel_iqr, verdict, worse_by, Verdict};

/// One record: its workload, seed, digest, and metrics (value, better).
struct Run {
    workload: String,
    seed: i64,
    digest: Option<String>,
    metrics: BTreeMap<String, (f64, String)>,
}

fn load(path: &Path) -> Result<Vec<Run>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for e in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let p = e.map_err(|e| e.to_string())?.path();
            if p.extension().is_some_and(|x| x == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            let j = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
            let mut metrics = BTreeMap::new();
            for section in ["metrics", "extras"] {
                if let Some(Json::Obj(ms)) = j.get(section) {
                    for (name, m) in ms {
                        if let Some(v) = m.get("value").and_then(Json::as_f64) {
                            let better = m.get("better").and_then(Json::as_str).unwrap_or("none");
                            metrics.insert(name.clone(), (v, better.to_string()));
                        }
                    }
                }
            }
            Ok(Run {
                workload: j
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{}: not a benchmark record", f.display()))?
                    .to_string(),
                seed: j.get("seed").and_then(Json::as_i64).unwrap_or(0),
                digest: j.get("digest").and_then(Json::as_str).map(str::to_string),
                metrics,
            })
        })
        .collect()
}

/// `(workload, metric)` → the metric's direction and its value per seed.
type Columns = BTreeMap<(String, String), (String, BTreeMap<i64, f64>)>;

fn columns(runs: &[Run]) -> Columns {
    let mut out: Columns = BTreeMap::new();
    for r in runs {
        for (name, (v, better)) in &r.metrics {
            out.entry((r.workload.clone(), name.clone()))
                .or_insert_with(|| (better.clone(), BTreeMap::new()))
                .1
                .insert(r.seed, *v);
        }
    }
    out
}

/// The bound of an end-to-end metric; `None` for layer metrics and extras,
/// which are shown, not judged (those marked `exact` must repeat exactly
/// for every seed both sides ran).
fn bound(metric: &str) -> Option<f64> {
    END_TO_END.iter().find(|m| m.0 == metric).map(|m| m.3)
}

fn values(by_seed: &BTreeMap<i64, f64>) -> Vec<f64> {
    by_seed.values().copied().collect()
}

/// Seeds both sides ran whose values differ.
fn changed_seeds(a: &BTreeMap<i64, f64>, b: &BTreeMap<i64, f64>) -> usize {
    b.iter()
        .filter(|(s, v)| a.get(s).is_some_and(|x| x != *v))
        .count()
}

/// `--compare`: prints the table; returns whether any bounded metric got
/// worse or any exact value or digest changed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let (ca, cb) = (columns(&ra), columns(&rb));
    println!(
        "{:<15} {:<36} {:>16} {:>16} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "delta%", "spread%", "bound%"
    );
    let mut any_worse = false;
    for (key, (better, bs)) in &cb {
        let Some((_, as_)) = ca.get(key) else {
            continue;
        };
        let (av, bv) = (values(as_), values(bs));
        let lower = better == "lower";
        let (bound_txt, v) = match bound(&key.1) {
            Some(bd) => {
                let v = verdict(&av, &bv, lower, bd);
                any_worse |= v == Verdict::Worse;
                (format!("{:.1}", 100.0 * bd), v.name())
            }
            None if better == "exact" => {
                let same = changed_seeds(as_, bs) == 0;
                any_worse |= !same;
                ("exact".to_string(), if same { "same" } else { "changed" })
            }
            None => ("-".to_string(), "info"),
        };
        println!(
            "{:<15} {:<36} {:>16.6} {:>16.6} {:>8.2} {:>8.2} {bound_txt:>7}  {v}",
            key.0,
            key.1,
            median(&av),
            median(&bv),
            100.0 * worse_by(&av, &bv, lower),
            100.0 * rel_iqr(&av),
        );
    }
    let digests = |runs: &[Run]| -> BTreeMap<(String, i64), String> {
        runs.iter()
            .filter_map(|r| Some(((r.workload.clone(), r.seed), r.digest.clone()?)))
            .collect()
    };
    let (da, db) = (digests(&ra), digests(&rb));
    let mut per_workload: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (key, d) in &db {
        if let Some(x) = da.get(key) {
            let e = per_workload.entry(key.0.as_str()).or_default();
            e.0 += 1;
            e.1 += usize::from(x != d);
        }
    }
    for (workload, (common, changed)) in per_workload {
        let v = if changed == 0 { "same" } else { "changed" };
        any_worse |= changed > 0;
        println!(
            "{workload:<15} {:<36} {v} ({changed} of {common} common seed(s) differ)",
            "digest"
        );
    }
    println!("(delta% > 0 means B is worse; spread% is A's own quartile distance)");
    Ok(any_worse)
}

/// `--pairs`: the parent (A) and change (B) runs of each seed form a pair;
/// prints wins and the gain verdict per workload and metric.
pub fn pairs(a: &Path, b: &Path) -> Result<(), String> {
    let (ca, cb) = (columns(&load(a)?), columns(&load(b)?));
    println!(
        "{:<15} {:<36} {:>5} {:>5} {:>5} {:>16} {:>16} {:>12}  verdict",
        "workload",
        "metric",
        "pairs",
        "wins",
        "loss",
        "parent median",
        "change median",
        "parent IQR"
    );
    for (key, (better, bs)) in &cb {
        let Some((_, as_)) = ca.get(key) else {
            continue;
        };
        if better != "lower" && better != "higher" {
            continue;
        }
        let (av, bv): (Vec<f64>, Vec<f64>) = bs
            .iter()
            .filter_map(|(s, v)| Some((*as_.get(s)?, *v)))
            .unzip();
        let lower = better == "lower";
        let out = pair_rule(&av, &bv, lower);
        let v = if out.gain {
            "gain"
        } else if bound(&key.1).is_some_and(|bd| worse_by(&av, &bv, lower) > bd) {
            "worse"
        } else if out.pairs < 10 {
            "too few pairs"
        } else {
            "no claim"
        };
        println!(
            "{:<15} {:<36} {:>5} {:>5} {:>5} {:>16.6} {:>16.6} {:>12.6}  {v}",
            key.0,
            key.1,
            out.pairs,
            out.wins,
            out.losses,
            out.parent_median,
            out.change_median,
            out.parent_iqr
        );
    }
    Ok(())
}
