//! The scheduler plug-in interface.

use std::time::Duration;

use tetrisched_cluster::{Cluster, Ledger, NodeId};
use tetrisched_reservation::Reservation;
use tetrisched_strl::JobClass;
use tetrisched_telemetry::Telemetry;

use crate::job::{JobId, JobSpec};
use crate::Time;

/// A pending job as presented to a scheduler at cycle time.
#[derive(Debug, Clone)]
pub struct PendingJob {
    /// The job's static spec (schedulers must only consult estimates).
    pub spec: JobSpec,
    /// Value class assigned at admission (paper Sec. 6.2.2).
    pub class: JobClass,
    /// The accepted reservation, when there is one.
    pub reservation: Option<Reservation>,
    /// How many times this job has been preempted and requeued.
    pub preemptions: u32,
    /// Fair-share objective weight from the tenancy layer; exactly `1.0`
    /// when fair-share is disabled (the closed-loop default), so the STRL
    /// objective is unchanged byte-for-byte outside service mode.
    pub weight: f64,
}

/// A running job as presented to a scheduler at cycle time.
#[derive(Debug, Clone)]
pub struct RunningJob {
    /// Job identity.
    pub id: JobId,
    /// Value class.
    pub class: JobClass,
    /// When the current run started.
    pub started: Time,
    /// Nodes held by the gang.
    pub nodes: Vec<NodeId>,
    /// The scheduler-visible expected completion time (estimate-derived;
    /// revisable via [`CycleDecisions::revised_ends`]).
    pub expected_end: Time,
    /// Whether the run is on a preferred placement.
    pub preferred: bool,
    /// The job's deadline, if any.
    pub deadline: Option<Time>,
}

/// Picks preemption victims from `candidates` to free at least `needed`
/// nodes, most recently started first (minimizing lost work), job id
/// breaking ties.
///
/// Returns the chosen victims (possibly freeing more than `needed` since
/// gangs release whole node sets), or `None` when even preempting every
/// candidate cannot cover the deficit.
pub fn select_victims<'a>(
    candidates: &[&'a RunningJob],
    needed: usize,
) -> Option<Vec<&'a RunningJob>> {
    let total: usize = candidates.iter().map(|j| j.nodes.len()).sum();
    if total < needed {
        return None;
    }
    let mut by_recency: Vec<&RunningJob> = candidates.to_vec();
    by_recency.sort_by_key(|j| (std::cmp::Reverse(j.started), j.id));
    let mut out = Vec::new();
    let mut freed = 0usize;
    for j in by_recency {
        if freed >= needed {
            break;
        }
        freed += j.nodes.len();
        out.push(j);
    }
    Some(out)
}

/// Everything a scheduler may observe during one cycle.
#[derive(Debug)]
pub struct CycleContext<'a> {
    /// Current simulated time.
    pub now: Time,
    /// Cluster topology.
    pub cluster: &'a Cluster,
    /// Current allocations and expected future availability.
    pub ledger: &'a Ledger,
    /// Jobs awaiting placement, in submission order.
    pub pending: &'a [PendingJob],
    /// Currently running jobs.
    pub running: &'a [RunningJob],
    /// The engine's telemetry registry. Schedulers open phase spans and
    /// bump counters through it; a disabled registry (the default) makes
    /// every call a no-op, so instrumentation is safe to leave in place.
    pub telemetry: &'a Telemetry,
}

/// A launch decision: start `job` on `nodes` now.
#[derive(Debug, Clone)]
pub struct Launch {
    /// Job to start.
    pub job: JobId,
    /// Concrete gang placement (length must equal the job's `k`).
    pub nodes: Vec<NodeId>,
    /// Scheduler's expected completion time, recorded in the ledger and
    /// used by future plan-ahead queries.
    pub expected_end: Time,
}

/// A non-fatal error a scheduler hit during one cycle.
///
/// Cycles never panic and never silently drop work: compile or solver
/// failures degrade the cycle (skip the job, or fall back to the greedy
/// placer) and are surfaced here so the engine can count and trace them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CycleError {
    /// STRL compilation of one job (or of the cycle aggregate when no
    /// culprit could be isolated) failed.
    Compile {
        /// The offending job, when it could be isolated.
        job: Option<JobId>,
        /// Underlying error rendering.
        detail: String,
    },
    /// The MILP solver returned an error.
    Solver {
        /// Underlying error rendering.
        detail: String,
    },
    /// The solver finished without a usable incumbent (infeasible,
    /// unbounded, or timed out with no feasible point).
    NoSolution {
        /// Solver status rendering.
        detail: String,
    },
    /// Static analysis rejected a job's generated STRL expression at Error
    /// severity before it reached the compiler (the `lint_models` knob).
    Lint {
        /// The offending job.
        job: JobId,
        /// Rendered Error-severity diagnostics.
        detail: String,
    },
    /// A proof-carrying solve failed verification (the `certify_solves`
    /// knob): the solver's claimed outcome did not survive its own
    /// certificate check (`C001`–`C003`), or the decoded placement's STRL
    /// valuation disagreed with the MILP objective (`C004`).
    Certificate {
        /// The offending job for per-job solves; `None` for the cycle's
        /// global aggregate solve.
        job: Option<JobId>,
        /// Rendered certificate-failure diagnostics.
        detail: String,
    },
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CycleError::Compile {
                job: Some(j),
                detail,
            } => {
                write!(f, "compile failed for {j:?}: {detail}")
            }
            CycleError::Compile { job: None, detail } => {
                write!(f, "aggregate compile failed: {detail}")
            }
            CycleError::Solver { detail } => write!(f, "solver error: {detail}"),
            CycleError::NoSolution { detail } => write!(f, "no solution: {detail}"),
            CycleError::Lint { job, detail } => write!(f, "lint rejected {job:?}: {detail}"),
            CycleError::Certificate {
                job: Some(j),
                detail,
            } => {
                write!(f, "certificate failed for {j:?}: {detail}")
            }
            CycleError::Certificate { job: None, detail } => {
                write!(f, "certificate failed for global solve: {detail}")
            }
        }
    }
}

impl std::error::Error for CycleError {}

/// The scheduler's output for one cycle.
///
/// The engine applies preemptions first, then launches, then estimate
/// revisions, then abandons.
#[derive(Debug, Clone, Default)]
pub struct CycleDecisions {
    /// Gangs to start now.
    pub launches: Vec<Launch>,
    /// Running jobs to preempt; they lose all progress and return to the
    /// pending queue.
    pub preemptions: Vec<JobId>,
    /// Revised expected completion times for running jobs (estimate bumps
    /// when an under-estimate is observed, paper Sec. 7.1).
    pub revised_ends: Vec<(JobId, Time)>,
    /// Pending jobs the scheduler permanently gives up on (e.g. SLO jobs
    /// whose deadline can no longer be met).
    pub abandons: Vec<JobId>,
    /// Time spent inside the MILP solver this cycle (zero for schedulers
    /// without one); reported in Fig. 12-style latency metrics.
    pub solver_time: Duration,
    /// Non-fatal errors hit while producing these decisions.
    pub errors: Vec<CycleError>,
    /// Whether the cycle ran in a degraded mode: the primary placement
    /// path failed (solver error / no solution) and a fallback placer
    /// produced the decisions instead. The engine counts degraded cycles
    /// as solver fallbacks.
    pub degraded: bool,
    /// Solver and translation certificates verified this cycle (the
    /// `certify_solves` knob; zero when certification is off).
    pub certificates_verified: usize,
    /// Certificates that failed verification this cycle. Each failure is
    /// also surfaced as a [`CycleError::Certificate`].
    pub certificate_failures: usize,
    /// Solves this cycle whose warm start was accepted as the incumbent.
    pub warm_start_hits: usize,
    /// Solves this cycle that built a warm start the solver rejected (or
    /// had none to offer while warm-starting was on).
    pub warm_start_misses: usize,
    /// Degradation-ladder rung the cycle ran at (0 = full MILP; higher
    /// rungs trade solution quality for cycle budget). Schedulers without
    /// a ladder leave it 0. In the TetriSched core this is stamped by the
    /// ladder governor — never assigned directly (srclint L007).
    pub ladder_rung: u8,
    /// Solves this cycle that returned a budget-expired incumbent (with
    /// its best bound and certificate) from the anytime rung.
    pub anytime_incumbents: u64,
    /// Deterministic solver work spent this cycle, in work units
    /// (branch-and-bound nodes + simplex iterations across all solves).
    /// This — not wall-clock time — is the load signal the ladder
    /// governor consumes, so rung decisions replay identically under the
    /// same seed on any machine.
    pub solver_work_units: u64,
}

/// A pluggable cluster scheduler.
///
/// Implementations: the TetriSched core (all four configurations of
/// Table 2) and the Rayon/CapacityScheduler baseline.
pub trait Scheduler {
    /// Called when a job enters the system (after reservation admission).
    fn on_submit(&mut self, job: &PendingJob, now: Time) {
        let _ = (job, now);
    }

    /// Called when a running job completes.
    fn on_complete(&mut self, job: JobId, now: Time) {
        let _ = (job, now);
    }

    /// Called when the engine evicts a running job because a node under
    /// its gang failed. The job returns to the pending queue after a
    /// backoff (or is abandoned once its retry budget is spent); any
    /// cached per-job placement state should be invalidated.
    fn on_evict(&mut self, job: JobId, now: Time) {
        let _ = (job, now);
    }

    /// Called every scheduling cycle; returns the cycle's decisions.
    fn cycle(&mut self, ctx: &CycleContext<'_>) -> CycleDecisions;

    /// Human-readable name for reports.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial scheduler used by engine tests: FIFO onto free nodes.
    pub struct FifoScheduler;

    impl Scheduler for FifoScheduler {
        fn cycle(&mut self, ctx: &CycleContext<'_>) -> CycleDecisions {
            let mut decisions = CycleDecisions::default();
            let mut free: Vec<NodeId> = ctx.ledger.free_nodes().iter().collect();
            for p in ctx.pending {
                let k = p.spec.k as usize;
                if free.len() >= k {
                    let nodes: Vec<NodeId> = free.drain(..k).collect();
                    let preferred = p.spec.placement_preferred(ctx.cluster, &nodes);
                    decisions.launches.push(Launch {
                        job: p.spec.id,
                        nodes,
                        expected_end: ctx.now + p.spec.estimated_runtime_for(preferred),
                    });
                }
            }
            decisions
        }

        fn name(&self) -> &str {
            "fifo-test"
        }
    }

    #[test]
    fn default_hooks_are_noops() {
        // Compile-time check that default trait methods exist.
        let mut s = FifoScheduler;
        s.on_complete(JobId(0), 0);
        s.on_evict(JobId(0), 0);
    }

    #[test]
    fn victims_most_recent_first_until_the_need_is_covered() {
        let running = |id, started, width: u32| RunningJob {
            id: JobId(id),
            class: JobClass::BestEffort,
            started,
            nodes: (0..width).map(NodeId).collect(),
            expected_end: started + 100,
            preferred: true,
            deadline: None,
        };
        let ids = |picked: Option<Vec<&RunningJob>>| {
            picked.map(|p| p.iter().map(|j| j.id.0).collect::<Vec<_>>())
        };
        let (a, b, c) = (running(0, 10, 2), running(1, 30, 2), running(2, 20, 2));
        // Started at 30, then 20.
        assert_eq!(ids(select_victims(&[&a, &b, &c], 3)), Some(vec![1, 2]));
        assert_eq!(ids(select_victims(&[&a], 3)), None);
        // An exact fit stops early.
        let (wide_a, wide_b) = (running(0, 10, 4), running(1, 20, 4));
        assert_eq!(ids(select_victims(&[&wide_a, &wide_b], 4)), Some(vec![1]));
        // A tie on start breaks by id.
        let (one_a, one_b) = (running(0, 10, 1), running(1, 10, 1));
        assert_eq!(ids(select_victims(&[&one_b, &one_a], 1)), Some(vec![0]));
    }

    #[test]
    fn cycle_error_display() {
        let e = CycleError::Compile {
            job: Some(JobId(3)),
            detail: "bad expr".into(),
        };
        assert!(e.to_string().contains("JobId(3)"));
        assert!(e.to_string().contains("bad expr"));
        let e = CycleError::Compile {
            job: None,
            detail: "x".into(),
        };
        assert!(e.to_string().contains("aggregate"));
        assert!(CycleError::Solver {
            detail: "io".into()
        }
        .to_string()
        .contains("solver error"));
        assert!(CycleError::NoSolution {
            detail: "infeasible".into()
        }
        .to_string()
        .contains("no solution"));
        let e = CycleError::Lint {
            job: JobId(7),
            detail: "error[S001] empty set".into(),
        };
        assert!(e.to_string().contains("JobId(7)"));
        assert!(e.to_string().contains("S001"));
        let e = CycleError::Certificate {
            job: Some(JobId(9)),
            detail: "error[C001] primal check failed".into(),
        };
        assert!(e.to_string().contains("JobId(9)"));
        assert!(e.to_string().contains("C001"));
        let e = CycleError::Certificate {
            job: None,
            detail: "error[C004] objective mismatch".into(),
        };
        assert!(e.to_string().contains("global solve"));
    }
}
