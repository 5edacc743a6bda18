//! The admission layer: per-cycle batching, backpressure, load shedding.
//!
//! Every scheduler cycle the admission layer drains a bounded batch of
//! queued arrivals off the front of the intake queue and decides each
//! job's fate:
//!
//! - **Admit** — hand the job to the scheduler's pending queue now.
//! - **Defer** — leave it queued for a later cycle (backpressure: the
//!   scheduler's pending queue is already at its depth target, or this
//!   cycle's admission budget is spent).
//! - **Shed** — reject it permanently (load shedding: the intake backlog
//!   exceeds the shed threshold, so the oldest excess is dropped rather
//!   than allowed to grow without bound).
//!
//! The policy is pure arithmetic over queue depths — no clocks, no
//! randomness — so admission decisions replay identically under the same
//! seed.

/// Backpressure and shedding thresholds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Maximum jobs admitted per cycle (admission batching).
    pub max_admissions_per_cycle: usize,
    /// Scheduler pending-queue depth target: when the pending queue holds
    /// at least this many jobs, admission stops and arrivals defer.
    pub max_scheduler_backlog: usize,
    /// Intake backlog bound: after admission, queued jobs beyond this
    /// depth are shed oldest-first. `usize::MAX` disables shedding from
    /// depth (intake overflow can still shed).
    pub shed_queue_depth: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_admissions_per_cycle: 32,
            max_scheduler_backlog: 64,
            shed_queue_depth: usize::MAX,
        }
    }
}

impl AdmissionPolicy {
    /// This cycle's admission budget given the scheduler's current pending
    /// depth: the batching cap, shrunk so admitted jobs never push the
    /// pending queue past its target depth.
    pub fn budget(&self, scheduler_backlog: usize) -> usize {
        let headroom = self.max_scheduler_backlog.saturating_sub(scheduler_backlog);
        self.max_admissions_per_cycle.min(headroom)
    }

    /// How many queued jobs must be shed once admission has taken its
    /// batch and `intake_backlog` jobs remain queued.
    pub fn excess(&self, intake_backlog: usize) -> usize {
        intake_backlog.saturating_sub(self.shed_queue_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AdmissionPolicy {
        AdmissionPolicy {
            max_admissions_per_cycle: 4,
            max_scheduler_backlog: 10,
            shed_queue_depth: 6,
        }
    }

    #[test]
    fn budget_caps_at_batch_size() {
        assert_eq!(policy().budget(0), 4);
        assert_eq!(policy().budget(5), 4);
    }

    #[test]
    fn budget_shrinks_near_backlog_target() {
        assert_eq!(policy().budget(8), 2);
        assert_eq!(policy().budget(10), 0);
        assert_eq!(policy().budget(99), 0);
    }

    #[test]
    fn excess_sheds_beyond_depth_bound() {
        assert_eq!(policy().excess(6), 0);
        assert_eq!(policy().excess(9), 3);
        let unbounded = AdmissionPolicy::default();
        assert_eq!(unbounded.excess(1_000_000), 0);
    }
}
