//! Straggler detection: deterministic, cohort-relative.
//!
//! A straggler is a running gang whose observed runtime has outgrown its
//! own estimate by more than the cluster-typical amount. Each running job
//! carries a *lateness ratio* — elapsed wall time over estimated runtime
//! for its placement — and the detector flags jobs whose ratio exceeds
//! `THRESHOLD ×` the cohort median, subject to an absolute floor (so a
//! job a few seconds late is never flagged) and a minimum cohort size
//! (so a lone job cannot be a straggler relative to itself).
//!
//! The detector is a pure function of the ratios, so the same simulated
//! state always flags the same jobs — no wall clock, no randomness. The
//! engine responds by *speculatively migrating* flagged gangs: the gang
//! is released (its progress watermark is preserved), re-enters the
//! pending queue, and is re-placed through the normal STRL path, with the
//! PR 2 generation guard invalidating the stale completion event.

use crate::job::JobId;

/// Flag a job when `ratio > THRESHOLD * cohort_median`.
const THRESHOLD: f64 = 2.0;

/// Never flag a job whose ratio is at or below this floor, regardless of
/// the median (protects against flagging in an all-healthy cohort where
/// the median is ~1).
const MIN_RATIO: f64 = 1.5;

/// Minimum number of running jobs before anyone can be flagged.
const MIN_COHORT: usize = 3;

/// Flags stragglers in a cohort of `(job, lateness_ratio)` pairs.
///
/// Flags at 2x the cohort median with a 1.5x absolute floor in cohorts of
/// 3+. Returns the flagged jobs ordered worst-first (highest ratio, ties by
/// job id) so the caller can apply a per-cycle migration cap and always
/// migrate the worst offender first.
#[expect(
    clippy::indexing_slicing,
    reason = "past the early return `ratios` holds at least `MIN_COHORT` entries, and `(len - 1) / \
              2` is below `len`"
)]
pub fn detect_stragglers(cohort: &[(JobId, f64)]) -> Vec<JobId> {
    if cohort.len() < MIN_COHORT {
        return Vec::new();
    }
    let mut ratios: Vec<f64> = cohort.iter().map(|&(_, r)| r).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    // Lower median: deterministic for even cohorts without averaging.
    let median = ratios[(ratios.len() - 1) / 2];
    let cutoff = THRESHOLD * median;
    let mut flagged: Vec<(JobId, f64)> = cohort
        .iter()
        .copied()
        .filter(|&(_, r)| r > cutoff && r > MIN_RATIO)
        .collect();
    flagged.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    flagged.into_iter().map(|(id, _)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cohort(ratios: &[f64]) -> Vec<(JobId, f64)> {
        ratios
            .iter()
            .enumerate()
            .map(|(i, &r)| (JobId(i as u64), r))
            .collect()
    }

    #[test]
    fn flags_outlier_above_median_multiple() {
        let c = cohort(&[1.0, 1.1, 0.9, 4.0]);
        let flagged = detect_stragglers(&c);
        assert_eq!(flagged, vec![JobId(3)]);
    }

    #[test]
    fn healthy_cohort_flags_nothing() {
        let c = cohort(&[0.9, 1.0, 1.1, 1.05]);
        assert!(detect_stragglers(&c).is_empty());
    }

    #[test]
    fn small_cohort_flags_nothing() {
        let c = cohort(&[1.0, 40.0]);
        assert!(detect_stragglers(&c).is_empty());
    }

    #[test]
    fn absolute_floor_guards_fast_cohorts() {
        // Median 0.2: 3x the median is still a fast job; the floor keeps
        // it unflagged.
        let c = cohort(&[0.2, 0.2, 0.2, 0.7]);
        assert!(detect_stragglers(&c).is_empty());
    }

    #[test]
    fn worst_first_with_deterministic_ties() {
        let c = vec![
            (JobId(7), 1.0),
            (JobId(3), 5.0),
            (JobId(1), 5.0),
            (JobId(0), 1.0),
            (JobId(4), 0.9),
            (JobId(9), 8.0),
        ];
        let flagged = detect_stragglers(&c);
        assert_eq!(flagged, vec![JobId(9), JobId(1), JobId(3)]);
    }

    #[test]
    fn detection_is_pure() {
        let c = cohort(&[1.0, 1.0, 1.0, 3.2, 6.0]);
        assert_eq!(detect_stragglers(&c), detect_stragglers(&c));
    }
}
