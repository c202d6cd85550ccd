//! The run-diff engine: tolerance-aware comparison of exported artifacts.
//!
//! Two runs of the simulator — a fresh run and a committed golden baseline,
//! or the same experiment before and after a change — are compared through
//! their machine-readable JSON artifacts. [`diff_json`] walks two [`Json`]
//! documents in parallel and reports every differing metric by its dotted
//! path, classifying each as within or out of tolerance, so CI can gate on
//! drift while a human reads exactly *which* table cell moved and by how
//! much.
//!
//! Tolerance semantics (documented in `docs/TELEMETRY.md`): a numeric pair
//! `(a, b)` is within tolerance iff
//!
//! ```text
//! |a - b| <= abs + rel * max(|a|, |b|)
//! ```
//!
//! so `abs` bounds noise near zero and `rel` scales with magnitude. The
//! default tolerance is exact equality — integer counters of a
//! deterministic simulator should not move at all; every loosening is an
//! explicit decision at the call site. Non-numeric leaves (strings, bools,
//! nulls) must match exactly; missing keys, extra keys, mismatched types,
//! and array-length changes are *structural* deltas and are never within
//! tolerance.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::json::Json;

/// Numeric comparison tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Absolute slack: `|a - b| <= abs` always passes.
    pub abs: f64,
    /// Relative slack, scaled by `max(|a|, |b|)`.
    pub rel: f64,
}

impl Tolerance {
    /// Exact equality (the default).
    pub const fn exact() -> Tolerance {
        Tolerance { abs: 0.0, rel: 0.0 }
    }

    /// A tolerance with the given absolute and relative slack.
    pub const fn new(abs: f64, rel: f64) -> Tolerance {
        Tolerance { abs, rel }
    }

    /// Whether `a` and `b` are within tolerance of each other.
    pub fn within(&self, a: f64, b: f64) -> bool {
        let delta = (a - b).abs();
        // NaN never passes; identical values always do (covers ±inf).
        a == b || delta <= self.abs + self.rel * a.abs().max(b.abs())
    }
}

impl Default for Tolerance {
    fn default() -> Tolerance {
        Tolerance::exact()
    }
}

/// What kind of difference a [`MetricDelta`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaKind {
    /// Both sides are numbers; carries the values.
    Numeric {
        /// Value in the first (baseline) document.
        a: f64,
        /// Value in the second (candidate) document.
        b: f64,
    },
    /// Non-numeric leaves that differ (or leaves of different types);
    /// carries both rendered values.
    Value {
        /// Rendered value in the first document.
        a: String,
        /// Rendered value in the second document.
        b: String,
    },
    /// A shape difference: missing key, extra key, array length change.
    Structure {
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

/// One differing metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Dotted path from the document root, e.g. `table8.cpi.measured`.
    pub path: String,
    /// The difference.
    pub kind: DeltaKind,
    /// True when the difference is inside the comparison tolerance (only
    /// ever true for [`DeltaKind::Numeric`]).
    pub within: bool,
}

impl MetricDelta {
    /// Absolute delta for numeric differences.
    pub fn abs_delta(&self) -> Option<f64> {
        match self.kind {
            DeltaKind::Numeric { a, b } => Some((a - b).abs()),
            _ => None,
        }
    }

    /// Relative delta (`|a-b| / max(|a|,|b|)`) for numeric differences.
    pub fn rel_delta(&self) -> Option<f64> {
        match self.kind {
            DeltaKind::Numeric { a, b } => {
                let scale = a.abs().max(b.abs());
                Some(if scale == 0.0 {
                    0.0
                } else {
                    (a - b).abs() / scale
                })
            }
            _ => None,
        }
    }
}

/// The outcome of diffing two documents.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Number of metrics compared: each pair of leaves, and each shape
    /// difference (a one-sided key, an array-length change), which is one
    /// metric out of tolerance. So `failures() <= compared`.
    pub compared: usize,
    /// Every differing metric, in document order.
    pub deltas: Vec<MetricDelta>,
}

impl DiffReport {
    /// True when nothing differs beyond tolerance.
    pub fn is_clean(&self) -> bool {
        self.deltas.iter().all(|d| d.within)
    }

    /// Number of out-of-tolerance deltas.
    pub fn failures(&self) -> usize {
        self.deltas.iter().filter(|d| !d.within).count()
    }

    /// Render the per-metric delta report. Out-of-tolerance metrics are
    /// flagged `DRIFT`; in-tolerance differences are listed as `ok` so a
    /// loosened tolerance still shows what moved.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} metrics compared, {} differ, {} out of tolerance",
            self.compared,
            self.deltas.len(),
            self.failures()
        );
        for d in &self.deltas {
            let tag = if d.within { "   ok" } else { "DRIFT" };
            match &d.kind {
                DeltaKind::Numeric { a, b } => {
                    let _ = writeln!(
                        out,
                        "  {tag}  {}: {a} -> {b}  (|Δ| {:.3e}, rel {:.3e})",
                        d.path,
                        d.abs_delta().unwrap_or(f64::NAN),
                        d.rel_delta().unwrap_or(f64::NAN)
                    );
                }
                DeltaKind::Value { a, b } => {
                    let _ = writeln!(out, "  {tag}  {}: {a} -> {b}", d.path);
                }
                DeltaKind::Structure { detail } => {
                    let _ = writeln!(out, "  {tag}  {}: {detail}", d.path);
                }
            }
        }
        out
    }
}

fn render_leaf(v: &Json) -> String {
    match v {
        Json::Arr(_) => "<array>".to_string(),
        Json::Obj(_) => "<object>".to_string(),
        other => other.to_string_compact(),
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// An object's members by key, so matching two objects' keys takes time
/// linear in their size (a [`Json::get`] per key would be quadratic). The
/// parser refuses duplicate keys; in a document built in code the first
/// occurrence wins, as it does for `get`.
fn index(members: &[(String, Json)]) -> HashMap<&str, &Json> {
    let mut map = HashMap::with_capacity(members.len());
    for (k, v) in members {
        map.entry(k.as_str()).or_insert(v);
    }
    map
}

/// Record a shape difference: one compared metric, never within tolerance.
fn shape_delta(report: &mut DiffReport, path: String, detail: String) {
    report.compared += 1;
    report.deltas.push(MetricDelta {
        path,
        kind: DeltaKind::Structure { detail },
        within: false,
    });
}

fn walk(path: &str, a: &Json, b: &Json, tol: &Tolerance, report: &mut DiffReport) {
    match (a, b) {
        // Exact integer comparison first: counters larger than 2^53 would
        // alias under f64.
        (Json::Int(x), Json::Int(y)) => {
            report.compared += 1;
            if x != y {
                let delta = (*x as i128 - *y as i128).unsigned_abs() as f64;
                let scale = x.unsigned_abs().max(y.unsigned_abs()) as f64;
                report.deltas.push(MetricDelta {
                    path: path.to_string(),
                    kind: DeltaKind::Numeric {
                        a: *x as f64,
                        b: *y as f64,
                    },
                    within: delta <= tol.abs + tol.rel * scale,
                });
            }
        }
        (Json::Int(_) | Json::Num(_), Json::Int(_) | Json::Num(_)) => {
            report.compared += 1;
            // Both sides are Int|Num by the arm's pattern, so as_f64 is
            // always Some; NAN would only flag a (reported) difference.
            let (x, y) = (
                a.as_f64().unwrap_or(f64::NAN),
                b.as_f64().unwrap_or(f64::NAN),
            );
            if x.to_bits() != y.to_bits() {
                report.deltas.push(MetricDelta {
                    path: path.to_string(),
                    kind: DeltaKind::Numeric { a: x, b: y },
                    within: tol.within(x, y),
                });
            }
        }
        (Json::Arr(xs), Json::Arr(ys)) => {
            if xs.len() != ys.len() {
                let detail = format!("array length {} -> {}", xs.len(), ys.len());
                shape_delta(report, path.to_string(), detail);
                return;
            }
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                walk(&format!("{path}[{i}]"), x, y, tol, report);
            }
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            let (in_a, in_b) = (index(xs), index(ys));
            for (k, x) in xs {
                match in_b.get(k.as_str()) {
                    Some(y) => walk(&join(path, k), x, y, tol, report),
                    None => shape_delta(report, join(path, k), "missing in candidate".into()),
                }
            }
            for (k, _) in ys {
                if !in_a.contains_key(k.as_str()) {
                    shape_delta(report, join(path, k), "missing in baseline".into());
                }
            }
        }
        _ => {
            report.compared += 1;
            if a != b {
                report.deltas.push(MetricDelta {
                    path: path.to_string(),
                    kind: DeltaKind::Value {
                        a: render_leaf(a),
                        b: render_leaf(b),
                    },
                    within: false,
                });
            }
        }
    }
}

/// Diff two JSON documents (`a` is the baseline, `b` the candidate).
pub fn diff_json(a: &Json, b: &Json, tol: &Tolerance) -> DiffReport {
    let mut report = DiffReport::default();
    walk("", a, b, tol, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cpi: f64, cycles: i64) -> Json {
        Json::obj([
            ("experiment", Json::from("all")),
            ("cpi", Json::from(cpi)),
            ("cycles", Json::from(cycles)),
            (
                "rows",
                Json::arr([Json::obj([("v", Json::from(1i64))]), Json::from(2i64)]),
            ),
        ])
    }

    #[test]
    fn identical_documents_are_clean() {
        let r = diff_json(&doc(10.6, 100), &doc(10.6, 100), &Tolerance::exact());
        assert!(r.is_clean());
        assert!(r.deltas.is_empty());
        assert_eq!(r.compared, 5, "experiment, cpi, cycles, rows[0].v, rows[1]");
    }

    #[test]
    fn exact_tolerance_flags_any_numeric_change() {
        let r = diff_json(&doc(10.6, 100), &doc(10.6000001, 100), &Tolerance::exact());
        assert!(!r.is_clean());
        assert_eq!(r.failures(), 1);
        assert_eq!(r.deltas[0].path, "cpi");
        let rendered = r.render();
        assert!(rendered.contains("DRIFT"), "{rendered}");
        assert!(rendered.contains("cpi"), "{rendered}");
    }

    #[test]
    fn tolerance_window_abs_and_rel() {
        let tol = Tolerance::new(0.0, 1e-3);
        // 0.05% relative change: within, but still reported as a delta.
        let r = diff_json(&doc(10.6, 100), &doc(10.6053, 100), &tol);
        assert!(r.is_clean());
        assert_eq!(r.deltas.len(), 1, "in-tolerance drift is still listed");
        assert!(r.render().contains("ok"), "{}", r.render());
        // 1% relative change: drift.
        let r = diff_json(&doc(10.6, 100), &doc(10.706, 100), &tol);
        assert!(!r.is_clean());
        // Absolute slack covers integer counter noise.
        let tol = Tolerance::new(5.0, 0.0);
        assert!(diff_json(&doc(10.6, 100), &doc(10.6, 104), &tol).is_clean());
        assert!(!diff_json(&doc(10.6, 100), &doc(10.6, 106), &tol).is_clean());
    }

    #[test]
    fn structural_changes_never_pass() {
        let tol = Tolerance::new(f64::INFINITY, f64::INFINITY);
        let mut b = doc(10.6, 100);
        if let Json::Obj(members) = &mut b {
            members.retain(|(k, _)| k != "cycles");
            members.push(("extra".to_string(), Json::from(1i64)));
        }
        let r = diff_json(&doc(10.6, 100), &b, &tol);
        assert!(!r.is_clean());
        let paths: Vec<&str> = r.deltas.iter().map(|d| d.path.as_str()).collect();
        assert!(paths.contains(&"cycles"), "{paths:?}");
        assert!(paths.contains(&"extra"), "{paths:?}");
        // Array length change.
        let mut c = doc(10.6, 100);
        if let Json::Obj(members) = &mut c {
            members[3].1 = Json::arr([Json::from(1i64)]);
        }
        let r = diff_json(&doc(10.6, 100), &c, &tol);
        assert!(!r.is_clean());
        assert_eq!(r.failures(), 1);
        assert_eq!(r.compared, 4, "experiment, cpi, cycles and the rows length");
        // Type change: number -> string.
        let mut d = doc(10.6, 100);
        if let Json::Obj(members) = &mut d {
            members[1].1 = Json::from("10.6");
        }
        assert!(!diff_json(&doc(10.6, 100), &d, &tol).is_clean());
    }

    #[test]
    fn value_changes_reported_with_both_sides() {
        let mut b = doc(10.6, 100);
        if let Json::Obj(members) = &mut b {
            members[0].1 = Json::from("table8");
        }
        let r = diff_json(&doc(10.6, 100), &b, &Tolerance::exact());
        assert_eq!(r.failures(), 1);
        match &r.deltas[0].kind {
            DeltaKind::Value { a, b } => {
                assert_eq!(a, "\"all\"");
                assert_eq!(b, "\"table8\"");
            }
            other => panic!("expected value delta, got {other:?}"),
        }
    }

    /// A path and what was reported there, for comparing whole reports.
    fn reported(r: &DiffReport) -> Vec<(String, String)> {
        r.deltas
            .iter()
            .map(|d| {
                let what = match &d.kind {
                    DeltaKind::Structure { detail } => detail.clone(),
                    DeltaKind::Numeric { a, b } => format!("{a} -> {b}"),
                    DeltaKind::Value { a, b } => format!("{a} -> {b}"),
                };
                (d.path.clone(), what)
            })
            .collect()
    }

    #[test]
    fn permuted_keys_and_one_sided_keys_report_in_baseline_order() {
        let int = |v: i64| Json::from(v);
        // The candidate reorders the members at both levels, drops `b`,
        // `e` and `c.q`, adds `y`, `x` and `c.s`, and changes `d`.
        let a = Json::obj([
            ("a", int(1)),
            ("b", int(2)),
            (
                "c",
                Json::obj([("p", int(1)), ("q", int(2)), ("r", int(3))]),
            ),
            ("d", Json::from(4.5)),
            ("e", Json::from("e")),
            ("f", Json::Null),
        ]);
        let b = Json::obj([
            ("y", Json::from(true)),
            ("f", Json::Null),
            ("d", Json::from(4.75)),
            (
                "c",
                Json::obj([("r", int(3)), ("s", int(9)), ("p", int(1))]),
            ),
            ("x", int(0)),
            ("a", int(1)),
        ]);
        let r = diff_json(&a, &b, &Tolerance::exact());
        let want = [
            ("b", "missing in candidate"),
            ("c.q", "missing in candidate"),
            ("c.s", "missing in baseline"),
            ("d", "4.5 -> 4.75"),
            ("e", "missing in candidate"),
            ("y", "missing in baseline"),
            ("x", "missing in baseline"),
        ];
        let want: Vec<(String, String)> = want
            .iter()
            .map(|(p, w)| (p.to_string(), w.to_string()))
            .collect();
        assert_eq!(reported(&r), want);
        // A one-sided key is one compared metric, out of tolerance.
        assert_eq!(
            r.compared, 11,
            "a, c.p, c.r, d, f and the six one-sided keys"
        );

        // Wide objects: every key found whatever the order, one delta.
        let n = 5_000;
        let wide = |keys: Vec<i64>, bumped: i64| {
            let value = |i: i64| int(if i == bumped { i + 1 } else { i });
            Json::Obj(
                keys.into_iter()
                    .map(|i| (format!("k{i}"), value(i)))
                    .collect(),
            )
        };
        let r = diff_json(
            &wide((0..n).collect(), -1),
            &wide((0..n).rev().collect(), 1234),
            &Tolerance::exact(),
        );
        assert_eq!(r.compared, n as usize);
        assert_eq!(
            reported(&r),
            [("k1234".to_string(), "1234 -> 1235".to_string())]
        );
    }

    #[test]
    fn deltas_carry_magnitudes() {
        let r = diff_json(&doc(10.0, 100), &doc(11.0, 100), &Tolerance::exact());
        let d = &r.deltas[0];
        assert!((d.abs_delta().unwrap() - 1.0).abs() < 1e-12);
        assert!((d.rel_delta().unwrap() - 1.0 / 11.0).abs() < 1e-12);
    }
}
