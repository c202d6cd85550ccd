//! Order statistics and the benchmark's regression rules.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the same values with the standard library.

/// Median of `xs` (mean of the middle pair for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, exclusive method. One value gives that value
/// twice; none gives NaN.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (s[0], s[0]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile distance as a share of the median (0 for an empty or
/// zero-median sample).
pub fn rel_iqr(xs: &[f64]) -> f64 {
    let med = median(xs);
    if xs.is_empty() || med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / med.abs()
}

/// The highest whole percentile that still has at least ten samples
/// beyond it, with its nearest-rank value: `(p, value)`. `None` with ten
/// or fewer samples, where no percentile qualifies.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let s = sorted(xs);
    let n = s.len();
    // Nearest rank of percentile p is ceil(p·n/100); the largest p that
    // leaves n − rank ≥ 10 is found by integer arithmetic, never floats.
    let rank = |p: usize| (p * n).div_ceil(100).max(1);
    let p = (0..100).rev().find(|&p| n.saturating_sub(rank(p)) >= 10)?;
    Some((p as u32, s[rank(p) - 1]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 64-bit FNV-1a, printed as the digest of an artifact's bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The outcome of comparing one metric of a parent and a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How far the change's median is worse than the parent's, as a share of
/// the parent's median (negative when better).
pub fn worse_by(parent: &[f64], change: &[f64], lower_is_better: bool) -> f64 {
    let (p, c) = (median(parent), median(change));
    let rel = if p == 0.0 {
        if c == p {
            0.0
        } else {
            (c - p).signum() * f64::INFINITY
        }
    } else {
        (c - p) / p.abs()
    };
    if lower_is_better {
        rel
    } else {
        -rel
    }
}

/// The bound rule: worse means worse than the parent's median by more than
/// `bound`; where the parent's own run-to-run spread is wider than the
/// bound the metric is unresolved, unless every change run reads better
/// than every parent run.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if rel_iqr(parent) > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let w = worse_by(parent, change, lower_is_better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Paired runs of parent and change, judged by the gain rule: the change
/// wins at least nine tenths of all pairs (ties count for neither) and the
/// medians differ by more than the parent's own quartile distance.
#[derive(Debug, Clone, PartialEq)]
pub struct PairOutcome {
    pub pairs: usize,
    pub wins: usize,
    pub losses: usize,
    pub parent_median: f64,
    pub change_median: f64,
    pub parent_iqr: f64,
    pub gain: bool,
}

pub fn pair_rule(parent: &[f64], change: &[f64], lower_is_better: bool) -> PairOutcome {
    let pairs = parent.len().min(change.len());
    let (mut wins, mut losses) = (0, 0);
    for (&p, &c) in parent.iter().zip(change) {
        let (won, lost) = if lower_is_better {
            (c < p, c > p)
        } else {
            (c > p, c < p)
        };
        wins += usize::from(won);
        losses += usize::from(lost);
    }
    let (pm, cm) = (median(&parent[..pairs]), median(&change[..pairs]));
    let (q1, q3) = quartiles(&parent[..pairs]);
    let improved = if lower_is_better { cm < pm } else { cm > pm };
    PairOutcome {
        pairs,
        wins,
        losses,
        parent_median: pm,
        change_median: cm,
        parent_iqr: q3 - q1,
        gain: pairs >= 10 && wins * 10 >= pairs * 9 && improved && (cm - pm).abs() > q3 - q1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // Two values extrapolate, as Python does: [0.75, 1.5, 2.25] for [1, 2].
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        let r = rel_iqr(&xs);
        assert!((r - 5.5 / 5.5).abs() < 1e-12, "{r}");
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: p95 is the 190th value, with 10 beyond it.
        assert_eq!(tail(&xs), Some((95, 190.0)));
        let xs: Vec<f64> = (1..=150).map(f64::from).collect();
        let (p, v) = tail(&xs).unwrap();
        assert_eq!(p, 93);
        assert!(150 - v as usize >= 10);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((9, 1.0)));
    }

    #[test]
    fn fnv_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn bound_comparison_verdicts() {
        let parent = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Lower is better: 3% slower is within a 5% bound, 8% is not.
        assert_eq!(verdict(&parent, &[103.0; 5], true, 0.05), Verdict::Same);
        assert_eq!(verdict(&parent, &[108.0; 5], true, 0.05), Verdict::Worse);
        assert_eq!(verdict(&parent, &[90.0; 5], true, 0.05), Verdict::Better);
        // Higher is better flips the sense.
        assert_eq!(verdict(&parent, &[90.0; 5], false, 0.05), Verdict::Worse);
        // A parent spread wider than the bound is unresolved ...
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            verdict(&noisy, &[101.0; 5], true, 0.05),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        assert_eq!(verdict(&noisy, &[70.0; 5], true, 0.05), Verdict::Better);
        // A bound of zero demands exact equality.
        assert_eq!(verdict(&[1.5], &[1.5], true, 0.0), Verdict::Same);
        assert_eq!(verdict(&[1.5], &[1.5000001], true, 0.0), Verdict::Worse);
    }

    #[test]
    fn pair_rule_needs_nine_of_ten_and_a_gap_beyond_the_spread() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let fast: Vec<f64> = parent.iter().map(|p| p - 10.0).collect();
        let out = pair_rule(&parent, &fast, true);
        assert_eq!((out.pairs, out.wins, out.losses), (10, 10, 0));
        assert!(out.gain);
        // Eight wins of ten is not enough.
        let mut mixed = fast.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert!(!pair_rule(&parent, &mixed, true).gain);
        // Winning every pair by less than the parent's spread is no gain.
        let barely: Vec<f64> = parent.iter().map(|p| p - 0.1).collect();
        assert!(!pair_rule(&parent, &barely, true).gain);
        // Fewer than ten pairs never claims.
        assert!(!pair_rule(&parent[..9], &fast[..9], true).gain);
    }
}
