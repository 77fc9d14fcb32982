//! Exact order statistics over raw samples. Every timing the benchmark
//! reports goes through here: sorted samples, nearest-rank quantiles,
//! the sample count beside each. Nothing is read from a log₂-bucketed
//! `LatencyHistogram` quantile (a test scans this crate's source for
//! that); engine histograms contribute counts and exact means only.

/// Nearest-rank quantile of ascending `sorted`: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail may be reported at, ascending.
const TAILS: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The highest of [`TAILS`] that still has at least ten of `n` samples
/// beyond it, or `None` when even the median has not.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rev()
        .find(|q| n as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// Median, supported tail and sample count of one set of timings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q99: f64,
    pub mean: f64,
    /// `(q, value)` of the highest percentile the sample supports.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// All zeros for an empty sample, so that a phase that produced no
    /// timings (a failed run) still prints.
    pub fn of(mut samples: Vec<f64>) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                median: 0.0,
                q99: 0.0,
                mean: 0.0,
                tail: None,
            };
        }
        samples.sort_unstable_by(f64::total_cmp);
        Summary {
            n: samples.len(),
            median: quantile_sorted(&samples, 0.5),
            q99: quantile_sorted(&samples, 0.99),
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            tail: tail_quantile(samples.len()).map(|q| (q, quantile_sorted(&samples, q))),
        }
    }
}

/// Median of a small set of repeated measurements.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_unstable_by(f64::total_cmp);
    let n = xs.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(xs, n=4)` gives them.
pub fn quartiles(mut xs: Vec<f64>) -> (f64, f64) {
    xs.sort_unstable_by(f64::total_cmp);
    let n = xs.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale, clamped to the ends.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        xs[j - 1] + (xs[j] - xs[j - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_distribution() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&xs, 0.5), 50.0);
        assert_eq!(quantile_sorted(&xs, 0.99), 99.0);
        assert_eq!(quantile_sorted(&xs, 1.0), 100.0);
        assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quantiles_are_samples_not_bucket_midpoints() {
        // A log2 histogram would report every value in 134–268 as one
        // midpoint; exact quantiles tell them apart.
        let a = Summary::of(vec![140.0; 99]);
        let b = Summary::of(vec![260.0; 99]);
        assert_eq!(a.median, 140.0);
        assert_eq!(b.median, 260.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(4_000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(100_000), Some(0.9999));
    }

    #[test]
    fn summary_counts_and_orders() {
        let s = Summary::of((0..2_000).rev().map(f64::from).collect());
        assert_eq!(s.n, 2_000);
        assert_eq!(s.median, 999.0);
        assert_eq!(s.q99, 1_979.0);
        assert_eq!(s.tail, Some((0.99, 1_979.0)));
        assert_eq!(Summary::of(Vec::new()).n, 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(xs.clone()), (2.75, 8.25));
        assert_eq!(median(xs), 5.5);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(vec![5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
    }

    #[test]
    fn no_reported_number_comes_from_a_histogram_quantile() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        // Built from pieces so that this file does not match itself.
        let banned = [
            [".quant", "ile("].concat(),
            [".p", "50"].concat(),
            [".p", "95"].concat(),
            [".p", "99"].concat(),
            ["update", "_e2e"].concat(),
        ];
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            for (no, line) in text.lines().enumerate() {
                let code = line.split("//").next().unwrap();
                for b in &banned {
                    assert!(
                        !code.contains(b.as_str()),
                        "{}:{}: `{b}` reads a histogram quantile",
                        path.display(),
                        no + 1
                    );
                }
            }
        }
    }
}
