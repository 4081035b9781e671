//! The benchmark's own statistics: median and quartiles (the same
//! definition Python's `statistics.quantiles(values, n=4)` uses, so the
//! spread printed here is the spread a reader recomputes), the highest
//! percentile with at least ten samples beyond it, the discarded warm-up,
//! and round-robin workload interleaving.

/// Samples a tail percentile must leave beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles tried for the tail, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
/// On an empty slice: a metric without samples is a bug in the caller.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(data, n=4)`: cut point `i` sits at
/// position `i * (n + 1) / 4` of the sorted data, interpolated linearly.
/// A single sample is its own quartiles.
///
/// # Panics
/// On an empty slice.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        // `j` is 1-based; clamp to the data as Python does for tiny `n`.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its nearest-rank position,
/// as `(percentile, value)`. `None` when even the median has fewer than
/// ten samples above it (fewer than 20 samples).
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    TAIL_LADDER.iter().rev().find_map(|&p| {
        // Nearest rank, nudged down so 99.9% of 10 000 is rank 9990
        // and not 9991 after floating-point rounding.
        let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| (p, v[rank - 1]))
    })
}

/// The samples that count: the first `warmup` repetitions are discarded
/// (cold page cache, lazy allocator growth, first-touch of the binary).
pub fn after_warmup<T>(samples: &[T], warmup: usize) -> &[T] {
    &samples[warmup.min(samples.len())..]
}

/// Round-robin run order over `rounds` rounds: round `r` starts at item
/// `r mod len`, so each item runs first, second, ... equally often and no
/// item always inherits the machine state its neighbour left behind.
pub fn interleave<'a>(items: &[&'a str], rounds: usize) -> Vec<&'a str> {
    let n = items.len();
    (0..rounds)
        .flat_map(|r| (0..n).map(move |i| items[(r + i) % n]))
        .collect()
}

/// One metric's samples, summarized for the human-readable report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median: the value the result JSON carries.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Highest percentile with at least ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `samples`.
    ///
    /// # Panics
    /// On an empty slice.
    pub fn of(samples: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(samples);
        Summary {
            n: samples.len(),
            q1,
            median,
            q3,
            tail: tail_percentile(samples),
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// `median=… q1=… q3=… spread=… p90=… n=…` (the tail only when it
    /// exists).
    pub fn render(&self) -> String {
        let tail = self
            .tail
            .map_or(String::new(), |(p, v)| format!(" p{p}={v:.4}"));
        format!(
            "median={:.4} q1={:.4} q3={:.4} spread={:.4}{tail} n={}",
            self.median,
            self.q1,
            self.q3,
            self.spread(),
            self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: with two
        // samples the outer cut points extrapolate.
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((Summary::of(&v).spread() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), None, "19 samples: p50 leaves only 9");
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((50.0, 10.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.9, 9990.0)));
    }

    #[test]
    fn warmup_is_discarded_and_never_overruns() {
        let reps = [9.0, 1.0, 2.0, 3.0];
        assert_eq!(after_warmup(&reps, 1), &[1.0, 2.0, 3.0]);
        assert_eq!(median(after_warmup(&reps, 1)), 2.0);
        assert!(after_warmup(&reps, 9).is_empty());
    }

    #[test]
    fn interleaving_rotates_the_first_workload() {
        let order = interleave(&["a", "b", "c"], 3);
        assert_eq!(order, ["a", "b", "c", "b", "c", "a", "c", "a", "b"]);
        for w in ["a", "b", "c"] {
            let firsts = order.chunks(3).filter(|r| r[0] == w).count();
            assert_eq!(firsts, 1, "{w} leads exactly one round");
        }
        assert!(interleave(&["a"], 0).is_empty());
    }

    #[test]
    fn summary_renders_tail_only_when_it_exists() {
        let small = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(small.n, 3);
        assert!(!small.render().contains(" p"));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert!(Summary::of(&v).render().contains("p75="));
    }
}
