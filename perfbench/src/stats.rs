//! Order statistics used by every metric: median, the tail-percentile rule,
//! and the geometric mean.

/// Minimum number of samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The tail value reported as `p99`: the nearest-rank 99th percentile, or,
/// when fewer than [`TAIL_BEYOND`] samples would lie beyond it, the highest
/// percentile that still has [`TAIL_BEYOND`] samples beyond it. Returns
/// `(percentile, value)`; `None` with fewer than `TAIL_BEYOND + 1` samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank of p99 is ceil(0.99 n), i.e. index ceil(0.99 n) - 1.
    let p99_idx = (99 * n).div_ceil(100) - 1;
    let idx = p99_idx.min(n - 1 - TAIL_BEYOND);
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

/// The [`tail`] of each group of samples taken at different times, and the
/// lowest of these tails with its percentile: the tail of the group least
/// disturbed by other tenants of a shared host. Outside load only adds time,
/// so a slowdown that spares one group does not move the result, while a
/// change to the program moves every group. `None` if any group is too
/// small for [`tail`].
pub fn best_tail(groups: &[Vec<f64>]) -> Option<(f64, f64)> {
    let tails: Vec<(f64, f64)> = groups.iter().map(|g| tail(g)).collect::<Option<_>>()?;
    tails.into_iter().min_by(|a, b| a.1.total_cmp(&b.1))
}

/// The median of each group of samples taken at different times, and the
/// lowest of these medians, for the reason given at [`best_tail`]. `None`
/// if there is no group or any group is empty.
pub fn best_median(groups: &[Vec<f64>]) -> Option<f64> {
    let medians: Vec<f64> = groups.iter().map(|g| median(g)).collect::<Option<_>>()?;
    medians.into_iter().min_by(f64::total_cmp)
}

/// Geometric mean of strictly positive values; `None` if empty or any value
/// is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty()
        || values
            .iter()
            .any(|&x| x.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater))
    {
        return None;
    }
    let log_sum: f64 = values.iter().map(|x| x.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_p99_when_the_sample_supports_it() {
        // 2000 samples: p99 is rank 1980, with 20 samples beyond it.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(pct, 99.0);
        assert_eq!(value, 1980.0);
    }

    #[test]
    fn tail_backs_off_to_keep_ten_samples_beyond() {
        // 500 samples: p99 (rank 495) would leave only 5 beyond, so the
        // rule reports rank 490, with exactly 10 beyond.
        let v: Vec<f64> = (1..=500).rev().map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(value, 490.0);
        assert_eq!(pct, 98.0);
        let beyond = v.iter().filter(|&&x| x > value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v), Some((100.0 / 11.0, 1.0)));
    }

    #[test]
    fn best_tail_ignores_groups_slowed_from_outside() {
        let steady: Vec<f64> = (1..=200).map(f64::from).collect();
        let mut burst = steady.clone();
        burst[..20].iter_mut().for_each(|x| *x += 10_000.0);
        let slow: Vec<f64> = steady.iter().map(|x| 1.5 * x).collect();
        let groups = vec![burst.clone(), slow, steady, burst];
        let (pct, value) = best_tail(&groups).unwrap();
        assert_eq!((pct, value), (95.0, 190.0));
        // The pooled sample's tail is set by the bursts.
        let pooled: Vec<f64> = groups.concat();
        assert!(tail(&pooled).unwrap().1 > 10_000.0);
        assert_eq!(best_tail(&[vec![1.0; 50], vec![1.0; 5]]), None);
    }

    #[test]
    fn best_median_ignores_groups_slowed_from_outside() {
        let steady: Vec<f64> = (1..=99).map(f64::from).collect();
        let slow: Vec<f64> = steady.iter().map(|x| 2.0 * x).collect();
        let groups = vec![slow.clone(), slow, steady.clone(), steady];
        assert_eq!(best_median(&groups), Some(50.0));
        assert!(median(&groups.concat()).unwrap() > 50.0);
        assert_eq!(best_median(&[vec![1.0], vec![]]), None);
        assert_eq!(best_median(&[]), None);
    }

    #[test]
    fn geomean_moves_twelve_percent_for_a_two_x_gain_in_one_of_six() {
        let base = geomean(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]).unwrap();
        let faster = geomean(&[0.5, 2.0, 4.0, 8.0, 16.0, 32.0]).unwrap();
        let gain = 1.0 - faster / base;
        assert!((gain - (1.0 - 0.5f64.powf(1.0 / 6.0))).abs() < 1e-12);
        assert!(gain > 0.10 && gain < 0.13);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
