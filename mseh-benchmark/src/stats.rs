//! Order statistics and the compare verdicts.
//!
//! Within one run, timings are summarized by nearest-rank percentiles.
//! Across runs, medians and quartiles follow Python's
//! `statistics.median` / `statistics.quantiles(values, n=4)` (the
//! exclusive method), so spreads computed here match the ones an outside
//! check computes from the same printed values.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Whether `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }

    /// How much worse `change` is than `parent`, as a share of `parent`
    /// (negative when it is better).
    pub fn worse_by(self, parent: f64, change: f64) -> f64 {
        let delta = match self {
            Better::Lower => change - parent,
            Better::Higher => parent - change,
        };
        delta / parent.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; `None` when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    Some(v[nearest_rank(v.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // Rounded to 1e-9 first so that e.g. p99.9 of 10 000 is rank 9990,
    // not 9991 from the float product's last bit.
    let x = p * n as f64 / 100.0;
    (((x * 1e9).round() / 1e9).ceil() as usize).clamp(1, n)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest reportable tail percentile for `n` samples: the highest of
/// p99.9, p99, p95, p90, p75 and p50 with at least ten samples beyond
/// it. `None` below 11 samples, where even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n >= 1 && n - nearest_rank(n, p) >= 10)
}

/// Python's `statistics.median`: the middle value, or the mean of the
/// two middle values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method):
/// `(q1, q2, q3)`. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Median, quartiles and count of a set of run values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Spread {
    /// `None` when fewer than two values exist (no quartiles).
    pub fn of(values: &[f64]) -> Option<Self> {
        let (q1, _, q3) = quartiles(values)?;
        Some(Spread {
            n: values.len(),
            median: median(values)?,
            q1,
            q3,
        })
    }

    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Interquartile distance as a share of the median.
    pub fn relative_iqr(&self) -> f64 {
        self.iqr() / self.median.abs()
    }
}

/// Outcome of comparing one metric between a parent and a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Paired wins: run `i` of the change against run `i` of the parent (the
/// runs alternate sides, so pairs share host conditions). Returns
/// `(pairs, wins)`; ties count for neither side.
pub fn paired_wins(parent: &[f64], change: &[f64], better: Better) -> (usize, usize) {
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.beats(**c, **p))
        .count();
    (pairs, wins)
}

/// The gain rule: at least ten pairs, the change wins at least nine
/// tenths of them, and the medians differ by more than the parent's own
/// interquartile distance, in the change's favour.
pub fn is_gain(parent: &[f64], change: &[f64], better: Better) -> bool {
    let (pairs, wins) = paired_wins(parent, change, better);
    let (Some(p), Some(c)) = (Spread::of(parent), Spread::of(change)) else {
        return false;
    };
    pairs >= 10
        && wins * 10 >= pairs * 9
        && better.beats(c.median, p.median)
        && (c.median - p.median).abs() > p.iqr()
}

/// Full verdict for one metric with regression bound `bound` (a share of
/// the parent's median):
/// - `Improved` when the gain rule holds;
/// - `Unresolved` when either side's relative spread exceeds the bound,
///   unless every change run beats every parent run, or when a side has
///   fewer than two runs;
/// - `Regressed` when the change's median is worse than the parent's by
///   more than the bound;
/// - `Unchanged` otherwise.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    if is_gain(parent, change, better) {
        return Verdict::Improved;
    }
    let (Some(p), Some(c)) = (Spread::of(parent), Spread::of(change)) else {
        return Verdict::Unresolved;
    };
    let all_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| better.beats(cv, pv)));
    if p.relative_iqr().max(c.relative_iqr()) > bound && !all_better {
        return Verdict::Unresolved;
    }
    if better.worse_by(p.median, c.median) > bound {
        return Verdict::Regressed;
    }
    Verdict::Unchanged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0], 50.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Ties: every rank holds the same value.
        assert_eq!(percentile(&[2.0; 7], 90.0), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        // n < 11: not even the median has ten samples beyond it.
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let s = Spread::of(&v).unwrap();
        assert_eq!((s.n, s.median, s.iqr()), (10, 5.5, 5.5));
    }

    fn runs(base: f64, step: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_spread() {
        let parent = runs(100.0, 0.1, 10);
        let faster = runs(90.0, 0.1, 10);
        assert!(is_gain(&parent, &faster, Better::Lower));
        assert_eq!(
            verdict(&parent, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        // n < 10 pairs: never a gain, however large the gap.
        assert!(!is_gain(&parent[..9], &faster[..9], Better::Lower));
        assert_eq!(
            verdict(&parent[..9], &faster[..9], Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // Ties count for neither side: 8 wins + 2 ties is below 9/10.
        let mut tied = faster.clone();
        tied[0] = parent[0];
        tied[1] = parent[1];
        assert_eq!(paired_wins(&parent, &tied, Better::Lower), (10, 8));
        assert!(!is_gain(&parent, &tied, Better::Lower));
        // A gap inside the parent's own spread is no gain.
        let wide = runs(100.0, 10.0, 10);
        let slightly = runs(99.0, 10.0, 10);
        assert!(!is_gain(&wide, &slightly, Better::Lower));
    }

    #[test]
    fn regression_beyond_the_bound() {
        let parent = runs(100.0, 0.1, 10);
        let slower = runs(120.0, 0.1, 10);
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        let within = runs(105.0, 0.1, 10);
        assert_eq!(
            verdict(&parent, &within, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // Throughput: lower is worse.
        assert_eq!(
            verdict(&parent, &runs(80.0, 0.1, 10), Better::Higher, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = vec![
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 80.0, 120.0, 100.0,
        ];
        let change = vec![
            55.0, 145.0, 65.0, 135.0, 101.0, 75.0, 125.0, 85.0, 115.0, 99.0,
        ];
        assert_eq!(
            verdict(&noisy, &change, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Unless every change run beats every parent run.
        let clear = runs(10.0, 1.0, 10);
        assert_eq!(
            verdict(&noisy, &clear, Better::Lower, 0.1),
            Verdict::Improved
        );
        // One run per side has no spread at all.
        assert_eq!(
            verdict(&[1.0], &[1.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
