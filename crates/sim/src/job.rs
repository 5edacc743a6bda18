//! Job model: specs, placement-dependent runtimes, and outcomes.

use tetrisched_cluster::{Attr, Cluster, NodeId};

use crate::Time;

/// Identifier of a job, unique within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Placement-preference type (paper Sec. 6.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobType {
    /// No preference: any `k` servers are equally good.
    Unconstrained,
    /// Prefers every task on a GPU-labeled node; runs `slowdown` times
    /// slower otherwise (non-combinatorial soft constraint).
    Gpu,
    /// Prefers all tasks on one rack (any rack); runs `slowdown` times
    /// slower when the gang spans racks (combinatorial soft constraint).
    Mpi,
    /// Prefers every task on a *distinct* rack — the paper's Fig. 1
    /// "Availability" job (anti-affinity, expressed in STRL with `min`).
    /// The `slowdown` penalty models degraded service quality when
    /// replicas share a failure domain.
    Availability,
}

/// Static description of one job as submitted.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job identity.
    pub id: JobId,
    /// Submission time.
    pub submit: Time,
    /// Placement preference type.
    pub job_type: JobType,
    /// Gang width: number of nodes held simultaneously.
    pub k: u32,
    /// True runtime on a preferred placement, in seconds.
    pub base_runtime: u64,
    /// Runtime multiplier on a non-preferred placement (>= 1).
    pub slowdown: f64,
    /// Absolute completion deadline; `None` for pure best-effort jobs.
    pub deadline: Option<Time>,
    /// Relative runtime estimate error: the estimate visible to schedulers
    /// and the reservation system is `base_runtime * (1 + estimate_error)`.
    /// Positive is over-estimation (paper Sec. 6.3).
    pub estimate_error: f64,
}

impl JobSpec {
    /// The *estimated* runtime on a preferred placement — the only runtime
    /// figure schedulers may consult.
    pub fn estimated_runtime(&self) -> u64 {
        scaled(self.base_runtime, 1.0 + self.estimate_error)
    }

    /// The estimated runtime for a preferred or fallback placement.
    pub fn estimated_runtime_for(&self, preferred: bool) -> u64 {
        if preferred {
            self.estimated_runtime()
        } else {
            scaled(self.estimated_runtime(), self.slowdown)
        }
    }

    /// The *true* runtime for a placement (simulator internal).
    pub fn true_runtime_for(&self, preferred: bool) -> u64 {
        if preferred {
            self.base_runtime.max(1)
        } else {
            scaled(self.base_runtime, self.slowdown)
        }
    }

    /// Whether a concrete gang placement is "preferred" for this job type.
    pub fn placement_preferred(&self, cluster: &Cluster, nodes: &[NodeId]) -> bool {
        match self.job_type {
            JobType::Unconstrained => true,
            JobType::Gpu => {
                let gpu = Attr::gpu();
                nodes.iter().all(|&n| cluster.node(n).has_attr(&gpu))
            }
            JobType::Mpi => match nodes.first() {
                None => true,
                Some(&first) => {
                    let rack = cluster.rack_of(first);
                    nodes.iter().all(|&n| cluster.rack_of(n) == rack)
                }
            },
            JobType::Availability => {
                let racks: std::collections::BTreeSet<_> =
                    nodes.iter().map(|&n| cluster.rack_of(n)).collect();
                racks.len() == nodes.len()
            }
        }
    }

    /// Whether the job carries a deadline SLO.
    pub fn is_slo(&self) -> bool {
        self.deadline.is_some()
    }
}

fn scaled(base: u64, factor: f64) -> u64 {
    ((base as f64 * factor).round() as u64).max(1)
}

/// Job ids drive service-core tenant assignment.
impl tetrisched_service::ServiceJob for JobSpec {
    fn service_id(&self) -> u64 {
        self.id.0
    }
}

/// Terminal outcome of a job in a finished simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Completed at the given time.
    Completed {
        /// Completion time.
        at: Time,
        /// Whether the final run was on a preferred placement.
        preferred: bool,
    },
    /// Abandoned by the scheduler (e.g. an SLO job that could no longer
    /// meet its deadline).
    Abandoned {
        /// When the scheduler gave up on it.
        at: Time,
    },
    /// Still pending or running when the simulation horizon was reached.
    Incomplete,
    /// Shed by the service core under overload before ever entering the
    /// scheduler (open-loop mode only).
    Shed {
        /// When the service shed it.
        at: Time,
    },
}

impl JobOutcome {
    /// Completion time, if the job completed.
    pub fn completion(&self) -> Option<Time> {
        match self {
            JobOutcome::Completed { at, .. } => Some(*at),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(job_type: JobType, err: f64, slowdown: f64) -> JobSpec {
        JobSpec {
            id: JobId(0),
            submit: 0,
            job_type,
            k: 2,
            base_runtime: 100,
            slowdown,
            deadline: Some(500),
            estimate_error: err,
        }
    }

    #[test]
    fn estimate_error_applies() {
        assert_eq!(
            spec(JobType::Unconstrained, 0.0, 1.5).estimated_runtime(),
            100
        );
        assert_eq!(
            spec(JobType::Unconstrained, 0.5, 1.5).estimated_runtime(),
            150
        );
        assert_eq!(
            spec(JobType::Unconstrained, -0.5, 1.5).estimated_runtime(),
            50
        );
        assert_eq!(
            spec(JobType::Unconstrained, -1.0, 1.5).estimated_runtime(),
            1
        );
    }

    #[test]
    fn slowdown_applies_to_fallback_only() {
        let s = spec(JobType::Gpu, 0.0, 1.5);
        assert_eq!(s.true_runtime_for(true), 100);
        assert_eq!(s.true_runtime_for(false), 150);
        assert_eq!(s.estimated_runtime_for(false), 150);
        // Error and slowdown compose.
        let s = spec(JobType::Gpu, 0.2, 1.5);
        assert_eq!(s.estimated_runtime_for(false), 180);
        assert_eq!(s.true_runtime_for(false), 150);
    }

    #[test]
    fn gpu_preference_checks_attributes() {
        let c = Cluster::fig1_toy(); // M0, M1 have GPUs
        let s = spec(JobType::Gpu, 0.0, 1.5);
        assert!(s.placement_preferred(&c, &[NodeId(0), NodeId(1)]));
        assert!(!s.placement_preferred(&c, &[NodeId(0), NodeId(2)]));
    }

    #[test]
    fn mpi_preference_checks_rack_locality() {
        let c = Cluster::fig1_toy(); // racks {M0,M1} and {M2,M3}
        let s = spec(JobType::Mpi, 0.0, 1.5);
        assert!(s.placement_preferred(&c, &[NodeId(2), NodeId(3)]));
        assert!(!s.placement_preferred(&c, &[NodeId(1), NodeId(2)]));
    }

    #[test]
    fn availability_preference_requires_distinct_racks() {
        let c = Cluster::fig1_toy(); // racks {M0,M1} and {M2,M3}
        let s = spec(JobType::Availability, 0.0, 1.5);
        assert!(s.placement_preferred(&c, &[NodeId(0), NodeId(2)]));
        assert!(s.placement_preferred(&c, &[NodeId(1), NodeId(3)]));
        assert!(!s.placement_preferred(&c, &[NodeId(0), NodeId(1)]));
        assert!(s.placement_preferred(&c, &[]));
    }

    #[test]
    fn unconstrained_always_preferred() {
        let c = Cluster::fig1_toy();
        let s = spec(JobType::Unconstrained, 0.0, 1.0);
        assert!(s.placement_preferred(&c, &[NodeId(1), NodeId(2)]));
    }

    #[test]
    fn outcome_completion_accessor() {
        assert_eq!(
            JobOutcome::Completed {
                at: 10,
                preferred: true
            }
            .completion(),
            Some(10)
        );
        assert_eq!(JobOutcome::Incomplete.completion(), None);
        assert_eq!(JobOutcome::Abandoned { at: 5 }.completion(), None);
    }
}
