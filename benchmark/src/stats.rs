//! Order statistics over exact samples. popbench keeps every sample it takes
//! (a few hundred thousand `u32`s per trial at most), so quantiles are read
//! off the sorted samples rather than off a bucketed histogram.

/// Quartiles and median of a metric's per-round values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// `q`-quantile by linear interpolation at position `q·(n+1)` (1-based),
/// clamped to the extremes — the "exclusive" method of Python's
/// `statistics.quantiles`, which the accepting driver uses for its spreads.
fn quantile_exclusive(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of no samples");
    let pos = q * (n as f64 + 1.0);
    if pos <= 1.0 {
        return sorted[0];
    }
    if pos >= n as f64 {
        return sorted[n - 1];
    }
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// Median and quartiles of `values` (any order). One value is its own
/// median and quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        median: quantile_exclusive(&v, 0.5),
        q1: quantile_exclusive(&v, 0.25),
        q3: quantile_exclusive(&v, 0.75),
        n: v.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// How a metric's per-round values become the one value it reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stat {
    /// The median value.
    Median,
    /// The mean of the three largest values: for a peak, the rounds in
    /// which it was worst.
    TopThree,
    /// The 95th percentile (nearest rank) — for throughput windows. On a
    /// shared host the noise is one-sided (a neighbour only ever takes
    /// cycles away) and comes in bursts, and several scheme × structure
    /// pairs are bimodal from trial to trial (see the README), so the median
    /// flips between modes from run to run while the upper tail repeats.
    P95,
}

impl Stat {
    pub fn name(self) -> &'static str {
        match self {
            Stat::Median => "median",
            Stat::TopThree => "top3_mean",
            Stat::P95 => "p95",
        }
    }

    pub fn from_name(name: &str) -> Option<Stat> {
        [Stat::Median, Stat::TopThree, Stat::P95]
            .into_iter()
            .find(|s| s.name() == name)
    }

    pub fn of(self, values: &[f64]) -> f64 {
        match self {
            Stat::Median => median(values),
            Stat::TopThree => {
                let mut v = values.to_vec();
                v.sort_by(|a, b| b.total_cmp(a));
                v.truncate(3);
                v.iter().sum::<f64>() / v.len() as f64
            }
            Stat::P95 => {
                let mut v = values.to_vec();
                v.sort_by(f64::total_cmp);
                let rank = (0.95 * v.len() as f64).ceil() as usize;
                v[rank.clamp(1, v.len()) - 1]
            }
        }
    }

    /// Quartiles of the statistic over 400 resamples (with replacement) of
    /// the rounds: how far one run's value can be trusted. Deterministic.
    pub fn bootstrap_quartiles(self, values: &[f64]) -> (f64, f64) {
        let mut rng = crate::gen::Rng::new(values.len() as u64);
        let mut resample = vec![0.0; values.len()];
        let stats: Vec<f64> = (0..400)
            .map(|_| {
                for slot in resample.iter_mut() {
                    *slot = values[rng.below(values.len() as u64) as usize];
                }
                self.of(&resample)
            })
            .collect();
        let s = summarize(&stats);
        (s.q1, s.q3)
    }
}

/// Nearest-rank percentile of latency samples: the smallest sample with at
/// least `p` of the samples at or below it. 0 when there are no samples (a
/// workload without reads has no read latency).
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Mean of the samples after dropping the top `trim` share — robust to the
/// handful of samples a preemption lands in, yet (unlike a median) keeps a
/// bimodal hit/miss cost in the figure.
pub fn trimmed_mean(sorted: &[u32], trim: f64) -> f64 {
    let keep = sorted.len() - (trim * sorted.len() as f64).floor() as usize;
    if keep == 0 {
        return 0.0;
    }
    sorted[..keep].iter().map(|&x| x as f64).sum::<f64>() / keep as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=11], n=4) == [3.0, 6.0, 9.0]
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (3.0, 6.0, 9.0, 11));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5], which
        // leaves the data; popbench clamps to the extremes instead.
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (10.0, 15.0, 20.0));
    }

    #[test]
    fn quantile_edges() {
        let one = summarize(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));

        assert_eq!(percentile(&[], 0.5), 0.0, "no samples reads 0");
        assert_eq!(percentile(&[5], 0.999), 5.0);
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.0), 1.0, "p0 is the minimum");
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.999), 999.0, "one sample beyond p99.9");
        assert_eq!(percentile(&v, 1.0), 1000.0, "p100 is the maximum");
    }

    #[test]
    fn stats_of_rounds() {
        let rounds = [0.8, 2.1, 0.9, 2.0, 0.85, 2.2, 0.8];
        assert_eq!(Stat::Median.of(&rounds), 0.9);
        assert!((Stat::TopThree.of(&rounds) - 2.1).abs() < 1e-12);
        assert_eq!(Stat::TopThree.of(&[5.0]), 5.0, "fewer than three rounds");
        assert_eq!(Stat::P95.of(&rounds), 2.2, "the 7th of 7");
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Stat::P95.of(&hundred), 95.0);
        assert_eq!(Stat::P95.of(&[4.0]), 4.0);
        for stat in [Stat::Median, Stat::TopThree, Stat::P95] {
            assert_eq!(Stat::from_name(stat.name()), Some(stat));
            let (lo, hi) = stat.bootstrap_quartiles(&rounds);
            assert!(0.8 <= lo && lo <= hi && hi <= 2.2, "{stat:?}: {lo}..{hi}");
            assert_eq!(stat.bootstrap_quartiles(&rounds), (lo, hi), "deterministic");
            assert_eq!(stat.bootstrap_quartiles(&[3.0]), (3.0, 3.0));
        }
        assert_eq!(Stat::from_name("mean"), None);
    }

    #[test]
    fn trimmed_mean_drops_the_tail_only() {
        let mut v = vec![10u32; 99];
        v.push(1_000_000);
        assert_eq!(trimmed_mean(&v, 0.01), 10.0);
        assert_eq!(trimmed_mean(&[1, 3], 0.01), 2.0, "too few to trim");
        assert_eq!(trimmed_mean(&[], 0.01), 0.0);
    }
}
