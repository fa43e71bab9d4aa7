//! Order statistics with tail honesty: a percentile is reported only when
//! enough samples lie beyond it to make it more than one outlier.

/// The fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// The nearest-rank percentile `numer/denom` of an ascending sample: the
/// smallest value with at least that share of the sample at or below it.
///
/// Returns `None` for an empty sample and whenever fewer than
/// [`MIN_TAIL`] samples lie beyond the chosen rank, so a p99 needs at
/// least 1,000 samples. The share is a ratio of integers so that the rank
/// is exact (`0.99 * 1000` is not 990 in binary floating point).
pub fn percentile(sorted: &[f64], numer: usize, denom: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || denom == 0 || numer > denom {
        return None;
    }
    let rank = (numer * n).div_ceil(denom).max(1);
    if n - rank < MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The nearest-rank percentile `numer/denom` of each consecutive block
/// of at least `block` samples. `samples` are in arrival order; the run is
/// cut into `len / block` blocks of near-equal size, and every block must
/// keep [`MIN_TAIL`] samples beyond its percentile, or the whole reading
/// is refused.
pub fn block_percentiles(
    samples: &[f64],
    numer: usize,
    denom: usize,
    block: usize,
) -> Option<Vec<f64>> {
    let blocks = samples.len() / block.max(1);
    if blocks == 0 {
        return None;
    }
    (0..blocks)
        .map(|b| {
            let mut chunk =
                samples[b * samples.len() / blocks..(b + 1) * samples.len() / blocks].to_vec();
            chunk.sort_by(f64::total_cmp);
            percentile(&chunk, numer, denom)
        })
        .collect()
}

/// The nearest-rank order statistic `numer/denom` of an unsorted sample,
/// with no tail requirement: for summarising a run's readings, not for
/// reading a tail. `None` for an empty sample or a share above one.
pub fn nearest_rank(values: &[f64], numer: usize, denom: usize) -> Option<f64> {
    if values.is_empty() || denom == 0 || numer > denom {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (numer * sorted.len()).div_ceil(denom).max(1);
    Some(sorted[rank - 1])
}

/// The median of an unsorted sample (mean of the middle pair for an even
/// count), or `None` when it is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The arithmetic mean, or `None` when the sample is empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().fold(0.0, |a, b| a + b) / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_of_a_thousand_keeps_ten_beyond() {
        assert_eq!(percentile(&ramp(1000), 99, 100), Some(990.0));
    }

    #[test]
    fn p99_refuses_a_thin_tail() {
        // Rank 990 of 999 leaves 9 samples beyond it.
        assert_eq!(percentile(&ramp(999), 99, 100), None);
        assert_eq!(percentile(&ramp(50), 99, 100), None);
    }

    #[test]
    fn nearest_rank_picks_a_sample_not_an_interpolation() {
        assert_eq!(percentile(&ramp(20), 50, 100), Some(10.0));
        assert_eq!(percentile(&ramp(21), 50, 100), Some(11.0));
        assert_eq!(percentile(&ramp(30), 0, 100), Some(1.0));
    }

    #[test]
    fn empty_and_malformed_shares_are_refused() {
        assert_eq!(percentile(&[], 50, 100), None);
        assert_eq!(percentile(&ramp(100), 101, 100), None);
        assert_eq!(percentile(&ramp(100), 1, 0), None);
    }

    #[test]
    fn block_percentiles_read_each_block_on_its_own() {
        // Three blocks of 1,000, the middle one ten times slower.
        let mut samples = ramp(1000);
        samples.extend(ramp(1000).iter().map(|v| v * 10.0));
        samples.extend(ramp(1000));
        assert_eq!(
            block_percentiles(&samples, 99, 100, 1000),
            Some(vec![990.0, 9900.0, 990.0])
        );
        // 2,500 samples make two blocks of 1,250.
        assert_eq!(
            block_percentiles(&ramp(2500), 99, 100, 1000).map(|t| t.len()),
            Some(2)
        );
        // Too few samples for one block, or a block too small for the
        // tail, is refused.
        assert_eq!(block_percentiles(&ramp(999), 99, 100, 1000), None);
        assert_eq!(block_percentiles(&ramp(2000), 99, 100, 500), None);
    }

    #[test]
    fn nearest_rank_has_no_tail_requirement() {
        let mut v = ramp(11);
        v.reverse();
        // The lower quartile of 11 is the 3rd smallest; of 3, the least.
        assert_eq!(nearest_rank(&v, 1, 4), Some(3.0));
        assert_eq!(nearest_rank(&ramp(3), 1, 4), Some(1.0));
        assert_eq!(nearest_rank(&ramp(85), 9, 10), Some(77.0));
        assert_eq!(nearest_rank(&[], 1, 10), None);
        assert_eq!(nearest_rank(&ramp(5), 11, 10), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
