//! Sample statistics and the accounting arithmetic behind the reported
//! metrics, kept free of I/O so the unit tests pin them down.

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it; below that it is one or two unlucky samples.
pub const MIN_BEYOND: usize = 10;

/// The candidate tail percentiles in basis points, highest first.
const TAILS: [(usize, &str); 4] = [
    (9_990, "p99.9"),
    (9_900, "p99"),
    (9_000, "p90"),
    (7_500, "p75"),
];

/// The nearest-rank quantile of ascending `sorted` at `bp` basis points
/// (`5_000` is the median). Integer ranks, so `p90` of 100 samples is the
/// 90th exactly.
///
/// # Panics
///
/// On an empty sample.
#[must_use]
pub fn quantile(sorted: &[f64], bp: usize) -> f64 {
    sorted[rank(sorted.len(), bp)]
}

/// Index of the nearest-rank quantile at `bp` basis points in a sample of
/// `n`.
fn rank(n: usize, bp: usize) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    (bp * n).div_ceil(10_000).clamp(1, n) - 1
}

/// The quantile at `bp` basis points of ascending `sorted`, or `None`
/// unless at least [`MIN_BEYOND`] samples lie strictly beyond its rank.
#[must_use]
pub fn tail_quantile(sorted: &[f64], bp: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), bp);
    (sorted.len() - 1 - r >= MIN_BEYOND).then(|| sorted[r])
}

/// The highest of p99.9, p99, p90 and p75 that [`tail_quantile`] admits,
/// with its label.
#[must_use]
pub fn highest_tail(sorted: &[f64]) -> Option<(&'static str, f64)> {
    TAILS
        .iter()
        .find_map(|&(bp, label)| tail_quantile(sorted, bp).map(|v| (label, v)))
}

/// The median of an unsorted sample (the lower middle for even sizes, as
/// nearest rank gives it); 0 for an empty one, which only a run whose
/// every unit failed produces.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        quantile(&v, 5_000)
    }
}

/// `num / den`, or 0 when there is nothing to divide by — keeps
/// not-exercised layers at 0 instead of NaN in the JSON.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Documents or runs attempted and those that failed: errored, or ended
/// with a verdict other than the batch reference's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Units submitted.
    pub attempted: u64,
    /// Units that errored or disagreed with the reference.
    pub failed: u64,
}

impl Tally {
    /// Counts one unit, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Counts `n` units lost together (a transport error aborts a whole
    /// load-generation round).
    pub fn record_lost(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Failures over attempts (0 when nothing was attempted).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The in-process stage times of one document stream: every stage the
/// service runs for it, measured outside the service.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stages {
    /// Frame assembly and record decoding (binary framing).
    pub decode_ns: f64,
    /// Line splitting (text framing).
    pub split_ns: f64,
    /// `TraceLineParser::feed_line` (text) or `feed_record` (binary).
    pub parse_ns: f64,
    /// Monitor appends, frontier repair included.
    pub append_ns: f64,
    /// `prune_settled` calls.
    pub prune_ns: f64,
}

impl Stages {
    /// The stage sum.
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.decode_ns + self.split_ns + self.parse_ns + self.append_ns + self.prune_ns
    }
}

/// How a one-connection feed's wall time splits between the in-process
/// stages and everything else (sockets, reply framing, scheduling).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Coverage {
    /// Stage sum over feed time.
    pub coverage: f64,
    /// Feed time the stages do not account for, per event.
    pub overhead_ns_per_event: f64,
}

impl Coverage {
    /// Compares the stage sum of a timed replay with the feed time of the
    /// same documents. The timed replay runs `overhead_frac` slower than
    /// the untimed one because of its own clock reads, so the stage sum is
    /// deflated by that factor first.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn of(stages: &Stages, overhead_frac: f64, feed_ns: f64, events: u64) -> Coverage {
        let stage_ns = stages.total_ns() / (1.0 + overhead_frac);
        Coverage {
            coverage: ratio(stage_ns, feed_ns),
            overhead_ns_per_event: ratio(feed_ns - stage_ns, events as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f64> {
        #[allow(clippy::cast_precision_loss)]
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = sample(10);
        assert_eq!(quantile(&s, 5_000), 5.0);
        assert_eq!(quantile(&s, 9_000), 9.0);
        assert_eq!(quantile(&s, 9_900), 10.0);
        assert_eq!(quantile(&[7.0], 5_000), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: exactly 10 lie beyond it.
        assert_eq!(tail_quantile(&sample(100), 9_000), Some(90.0));
        // 99 samples: rank 90 again, but only 9 beyond.
        assert_eq!(tail_quantile(&sample(99), 9_000), None);
        // p50 needs 20 samples.
        assert_eq!(tail_quantile(&sample(20), 5_000), Some(10.0));
        assert_eq!(tail_quantile(&sample(19), 5_000), None);
        assert_eq!(tail_quantile(&[], 5_000), None);
    }

    #[test]
    fn highest_tail_steps_down_with_sample_size() {
        assert_eq!(highest_tail(&sample(1000)), Some(("p99", 990.0)));
        assert_eq!(highest_tail(&sample(999)), Some(("p90", 900.0)));
        assert_eq!(highest_tail(&sample(100)), Some(("p90", 90.0)));
        assert_eq!(highest_tail(&sample(40)), Some(("p75", 30.0)));
        assert_eq!(highest_tail(&sample(39)), None);
        assert_eq!(highest_tail(&sample(10_000)), Some(("p99.9", 9990.0)));
    }

    #[test]
    fn fail_frac_counts_mismatches_and_lost_rounds() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        t.record(true);
        t.record(true);
        t.record(false);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.fail_frac(), 0.25);
        t.record_lost(4);
        assert_eq!((t.attempted, t.failed), (8, 5));
        assert_eq!(t.fail_frac(), 0.625);
    }

    #[test]
    fn stage_coverage_and_overhead() {
        let s = Stages {
            decode_ns: 100.0,
            split_ns: 0.0,
            parse_ns: 200.0,
            append_ns: 500.0,
            prune_ns: 100.0,
        };
        assert_eq!(s.total_ns(), 900.0);
        let c = Coverage::of(&s, 0.0, 1000.0, 50);
        assert_eq!((c.coverage, c.overhead_ns_per_event), (0.9, 2.0));
        // Clock reads made the timed replay 50% slower: 600 ns of stages.
        let c = Coverage::of(&s, 0.5, 1000.0, 100);
        assert_eq!((c.coverage, c.overhead_ns_per_event), (0.6, 4.0));
        // A feed faster than the stage sum reads as coverage above 1 and a
        // negative overhead: reported as measured, not clamped.
        let c = Coverage::of(&s, 0.0, 600.0, 100);
        assert_eq!((c.coverage, c.overhead_ns_per_event), (1.5, -3.0));
        let c = Coverage::of(&s, 0.0, 0.0, 0);
        assert_eq!((c.coverage, c.overhead_ns_per_event), (0.0, 0.0));
    }
}
