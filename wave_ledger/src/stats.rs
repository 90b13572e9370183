//! Summary statistics for latency samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, together with the
//! sample count, so a tail figure is never read off a handful of points.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail rule may report, highest first.
const LADDER: [f64; 8] = [99.9, 99.0, 98.0, 97.0, 95.0, 90.0, 75.0, 50.0];

/// A percentile read off a sample set, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (may be below the one asked for).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// Nearest-rank percentile of already sorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `samples`.
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples`, or 0 for none.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile_sorted(&sorted(samples), 50.0)
}

/// Arithmetic mean of `samples`, or 0 for none.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The highest percentile at or below `wanted` that has at least
/// [`MIN_BEYOND`] samples beyond it. With fewer than `MIN_BEYOND` samples
/// in all, the median is reported.
#[must_use]
pub fn tail(samples: &[f64], wanted: f64) -> Tail {
    let n = samples.len();
    if n == 0 {
        return Tail {
            percentile: wanted,
            value: 0.0,
            n,
        };
    }
    let s = sorted(samples);
    let percentile = LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted)
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND as f64)
        .unwrap_or(50.0);
    Tail {
        percentile,
        value: percentile_sorted(&s, percentile),
        n,
    }
}

/// Samples per block in [`block_tail`]: the fewest that leave
/// [`MIN_BEYOND`] samples beyond p99.
pub const TAIL_BLOCK: usize = 1000;

/// A tail percentile that one burst of interference from other tenants
/// cannot move much: the samples (in time order) are cut into consecutive
/// blocks of at least [`TAIL_BLOCK`], [`tail`] is read in each, and the
/// median over the blocks is reported. With fewer than two whole blocks
/// this is plain [`tail`]. Returns the tail and the number of blocks.
#[must_use]
pub fn block_tail(samples: &[f64], wanted: f64) -> (Tail, usize) {
    let blocks = samples.len() / TAIL_BLOCK;
    if blocks < 2 {
        return (tail(samples, wanted), 1);
    }
    let per_block: Vec<Tail> = (0..blocks)
        .map(|b| {
            tail(
                &samples[b * samples.len() / blocks..(b + 1) * samples.len() / blocks],
                wanted,
            )
        })
        .collect();
    let values: Vec<f64> = per_block.iter().map(|t| t.value).collect();
    let percentile = per_block
        .iter()
        .map(|t| t.percentile)
        .fold(wanted, f64::min);
    (
        Tail {
            percentile,
            value: median(&values),
            n: samples.len(),
        },
        blocks,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand, 99.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.n, 1000);

        // 999 samples leave only 9.99 beyond p99: fall back to p98.
        let t = tail(&thousand[..999], 99.0);
        assert_eq!(t.percentile, 98.0);
        assert_eq!(t.n, 999);

        // 600 leave 12 beyond p98; 400 leave 12 beyond p97 but 8 beyond p98.
        assert_eq!(tail(&thousand[..600], 99.0).percentile, 98.0);
        assert_eq!(tail(&thousand[..400], 99.0).percentile, 97.0);
    }

    #[test]
    fn the_rule_never_reports_above_the_wanted_percentile() {
        let many: Vec<f64> = (0..100_000).map(f64::from).collect();
        assert_eq!(tail(&many, 99.0).percentile, 99.0);
        assert_eq!(tail(&many, 99.9).percentile, 99.9);
    }

    #[test]
    fn tiny_sets_report_the_median() {
        let t = tail(&[3.0, 1.0, 2.0], 99.0);
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 2.0);
        assert_eq!(tail(&[], 99.0).n, 0);
    }

    #[test]
    fn block_tail_takes_the_median_over_blocks() {
        // Three 1000-sample blocks; one carries a burst that lifts its p99.
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[1000..1100] {
            *x = 1e6;
        }
        let (t, blocks) = block_tail(&v, 99.0);
        assert_eq!(blocks, 3);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 989.0);
        assert_eq!(t.n, 3000);
        // Plain p99 over all samples would read the burst.
        assert_eq!(tail(&v, 99.0).value, 1e6);

        // Under two whole blocks it is the plain tail.
        let (t, blocks) = block_tail(&v[..1999], 99.0);
        assert_eq!(blocks, 1);
        assert_eq!(t, tail(&v[..1999], 99.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
