//! The benchmark's arithmetic: percentiles, medians, the outage and
//! completion-gap figures, and the failed fraction. Kept free of any
//! simulation types so the unit tests pin the definitions exactly.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample such that at least `p` percent of all samples are at or below
/// it. Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of host-clock samples (the mean of the middle two for an even
/// count). Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean length of the `k` longest stretches of `[start, end]` with no
/// completion, given the ascending completion times inside it: the worst
/// stalls clients of a fault-free run observe. (The mean of several is
/// far steadier from seed to seed than the single longest.)
pub fn longest_gaps(start: u64, end: u64, completions: &[u64], k: usize) -> f64 {
    let mut prev = start;
    let mut gaps = Vec::with_capacity(completions.len() + 1);
    for &t in completions.iter().chain(std::iter::once(&end)) {
        gaps.push(t.saturating_sub(prev));
        prev = prev.max(t);
    }
    gaps.sort_unstable_by(|a, b| b.cmp(a));
    let top = &gaps[..k.min(gaps.len())];
    top.iter().sum::<u64>() as f64 / top.len().max(1) as f64
}

/// Time from `crash` to the first completion at or after `new_view`, the
/// instant the first surviving replica installed the next view. `None`
/// if no view was installed or nothing completed in it.
pub fn outage(crash: u64, new_view: Option<u64>, completions: &[u64]) -> Option<u64> {
    let nv = new_view?;
    let first = completions.iter().copied().filter(|&t| t >= nv).min()?;
    Some(first - crash)
}

/// Operations not completed (or completed wrong) over operations
/// attempted. Returns 0 when nothing was attempted.
pub fn failed_fraction(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        let v: Vec<u64> = (0..1000).collect();
        let p99 = percentile(&v, 99.0);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn longest_gaps_count_both_window_edges() {
        assert_eq!(longest_gaps(0, 100, &[10, 20, 30], 1), 70.0);
        assert_eq!(longest_gaps(0, 100, &[60, 70], 1), 60.0);
        assert_eq!(longest_gaps(0, 100, &[], 1), 100.0);
        assert_eq!(longest_gaps(50, 100, &[50, 100], 1), 50.0);
    }

    #[test]
    fn longest_gaps_average_the_top_k() {
        // Gaps 10, 10, 10, 70: the two longest average to 40.
        assert_eq!(longest_gaps(0, 100, &[10, 20, 30], 2), 40.0);
        // Asking for more gaps than exist averages them all.
        assert_eq!(longest_gaps(0, 100, &[60], 10), 50.0);
    }

    #[test]
    fn outage_runs_from_crash_to_first_completion_in_new_view() {
        // Reads completed between the crash and the view change do not
        // end the outage; the first completion after it does.
        assert_eq!(outage(100, Some(400), &[50, 150, 420, 500]), Some(320));
        assert_eq!(outage(100, Some(400), &[50, 150]), None);
        assert_eq!(outage(100, None, &[420]), None);
        assert_eq!(outage(100, Some(400), &[400]), Some(300));
    }

    #[test]
    fn failed_fraction_over_attempted() {
        assert_eq!(failed_fraction(0, 0), 0.0);
        assert_eq!(failed_fraction(200, 0), 0.0);
        assert_eq!(failed_fraction(200, 50), 0.25);
    }
}
