//! The CapacityScheduler emulation (Rayon/CS stack of Sec. 6.1).

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use tetrisched_cluster::NodeId;
use tetrisched_reservation::Reservation;
use tetrisched_sim::{
    select_victims, CycleContext, CycleDecisions, JobId, Launch, PendingJob, RunningJob, Scheduler,
    Time,
};
use tetrisched_strl::JobClass;

/// Seed for the heterogeneity-oblivious placement order.
const PLACEMENT_SEED: u64 = 1;

/// The Rayon/CapacityScheduler baseline.
///
/// See the crate docs for the modelled behaviours. The scheduler is
/// deliberately ignorant of job runtime estimates, placement preferences,
/// and future availability: exactly the information TetriSched exploits.
/// Reserved jobs may preempt best-effort containers: the paper enables this
/// to give the baseline its best configuration.
pub struct CapacityScheduler {
    /// Reservations by job, recorded at submission (the scheduler needs
    /// them to know which running containers are protected).
    reservations: BTreeMap<JobId, Reservation>,
}

impl CapacityScheduler {
    /// Creates the baseline in the paper's configuration.
    pub fn paper_default() -> Self {
        CapacityScheduler {
            reservations: BTreeMap::new(),
        }
    }

    fn reservation_end(&self, job: JobId) -> Option<Time> {
        self.reservations.get(&job).map(|r| r.end)
    }

    /// Heterogeneity-oblivious free-node order: shuffled deterministically
    /// from the seed and cycle time.
    fn shuffled_free(&self, ctx: &CycleContext<'_>) -> Vec<NodeId> {
        let mut free: Vec<NodeId> = ctx.ledger.free_nodes().iter().collect();
        let seed = PLACEMENT_SEED
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(ctx.now);
        free.shuffle(&mut StdRng::seed_from_u64(seed));
        free
    }
}

impl Scheduler for CapacityScheduler {
    fn on_submit(&mut self, job: &PendingJob, _now: Time) {
        if let Some(r) = job.reservation {
            self.reservations.insert(job.spec.id, r);
        }
    }

    fn cycle(&mut self, ctx: &CycleContext<'_>) -> CycleDecisions {
        let mut d = CycleDecisions::default();
        let mut free = self.shuffled_free(ctx);
        let mut preempted: BTreeSet<JobId> = BTreeSet::new();

        // Split pending work into the production queue (live reservation
        // window) and the best-effort queue; jobs whose window has not
        // opened yet wait.
        let mut production: Vec<&PendingJob> = Vec::new();
        let mut best_effort: Vec<&PendingJob> = Vec::new();
        for p in ctx.pending {
            match (p.class, p.reservation) {
                (JobClass::SloAccepted, Some(r)) if ctx.now < r.start => {} // waits
                (JobClass::SloAccepted, Some(r)) if ctx.now < r.end => production.push(p),
                // Reservation lapsed (or inconsistent record): best effort.
                _ => best_effort.push(p),
            }
        }
        // Earlier reservations first; id breaks ties.
        production.sort_by_key(|p| (p.reservation.map(|r| r.start), p.spec.id));

        for p in &production {
            let k = p.spec.k as usize;
            if free.len() < k {
                let needed = k - free.len();
                let candidates: Vec<&RunningJob> = ctx
                    .running
                    .iter()
                    .filter(|r| {
                        !preempted.contains(&r.id)
                            && is_preemptible(self.reservation_end(r.id), ctx.now)
                    })
                    .collect();
                if let Some(victims) = select_victims(&candidates, needed) {
                    for v in victims {
                        preempted.insert(v.id);
                        d.preemptions.push(v.id);
                        free.extend(v.nodes.iter().copied());
                    }
                }
            }
            if free.len() >= k {
                let nodes: Vec<NodeId> = free.drain(..k).collect();
                let preferred = p.spec.placement_preferred(ctx.cluster, &nodes);
                d.launches.push(Launch {
                    job: p.spec.id,
                    nodes,
                    expected_end: ctx.now + p.spec.estimated_runtime_for(preferred),
                });
            }
        }

        // Best-effort FIFO (submission order) with skip: a blocked gang does
        // not stall smaller jobs behind it.
        for p in &best_effort {
            let k = p.spec.k as usize;
            if free.len() >= k {
                let nodes: Vec<NodeId> = free.drain(..k).collect();
                let preferred = p.spec.placement_preferred(ctx.cluster, &nodes);
                d.launches.push(Launch {
                    job: p.spec.id,
                    nodes,
                    expected_end: ctx.now + p.spec.estimated_runtime_for(preferred),
                });
            }
        }

        d
    }

    fn name(&self) -> &str {
        "rayon-cs"
    }
}

/// Whether a running job may be preempted to enforce a capacity guarantee.
///
/// Preemptible containers are those *not* currently protected by a live
/// reservation window: best-effort jobs, SLO jobs without reservations, and
/// formerly reserved jobs that outlived their reservation window.
fn is_preemptible(reservation_end: Option<Time>, now: Time) -> bool {
    match reservation_end {
        // Accepted-SLO job: protected while its reservation window is live.
        Some(end) => now >= end,
        // Everything else runs at best-effort priority.
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrisched_cluster::Cluster;
    use tetrisched_sim::{JobSpec, JobType, SimConfig, Simulator};

    fn be_job(id: u64, submit: Time, k: u32, runtime: u64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            submit,
            job_type: JobType::Unconstrained,
            k,
            base_runtime: runtime,
            slowdown: 1.0,
            deadline: None,
            estimate_error: 0.0,
        }
    }

    fn slo_job(id: u64, submit: Time, k: u32, runtime: u64, deadline: Time) -> JobSpec {
        JobSpec {
            deadline: Some(deadline),
            ..be_job(id, submit, k, runtime)
        }
    }

    fn run(cluster: Cluster, jobs: Vec<JobSpec>) -> tetrisched_sim::SimReport {
        Simulator::new(
            cluster,
            CapacityScheduler::paper_default(),
            SimConfig::default(),
        )
        .run(jobs)
    }

    #[test]
    fn reservation_protects_until_window_end() {
        assert!(!is_preemptible(Some(50), 10));
        assert!(is_preemptible(Some(50), 50));
        assert!(is_preemptible(None, 10));
    }

    #[test]
    fn best_effort_jobs_run_fifo() {
        let report = run(
            Cluster::uniform(1, 4, 0),
            vec![be_job(0, 0, 2, 20), be_job(1, 0, 2, 20)],
        );
        assert_eq!(report.metrics.be_completed, 2);
        assert_eq!(report.metrics.be_mean_latency(), 20.0);
    }

    #[test]
    fn reserved_job_preempts_best_effort() {
        // BE job fills the cluster; a reserved SLO job must preempt it.
        let report = run(
            Cluster::uniform(1, 4, 0),
            vec![be_job(0, 0, 4, 300), slo_job(1, 8, 4, 40, 100)],
        );
        assert!(report.metrics.preemptions >= 1);
        assert_eq!(report.metrics.accepted_slo_met, 1);
        // The BE job restarted and eventually completed.
        assert_eq!(report.metrics.be_completed, 1);
    }

    #[test]
    fn reserved_job_waits_for_window_start() {
        // Capacity 4. First SLO books [0, 50). Second books [50, 100) and
        // must not run before t=50 even though the cluster is idle at 0 —
        // wait: it is NOT idle (job 0 holds it). Use a small first job so
        // the cluster IS idle while job 1 waits for its window.
        let report = run(
            Cluster::uniform(1, 4, 0),
            vec![
                slo_job(0, 0, 4, 50, 60),
                slo_job(1, 0, 4, 40, 150), // admitted after job 0: window starts at 50
            ],
        );
        let t0 = report.outcomes[&JobId(0)].completion().unwrap();
        let t1 = report.outcomes[&JobId(1)].completion().unwrap();
        assert!(t0 <= 60);
        // Job 1 cannot start before its reservation at 50.
        assert!(t1 >= 90, "job 1 completed at {t1}");
        assert_eq!(report.metrics.accepted_slo_met, 2);
    }

    #[test]
    fn underestimated_job_becomes_preemptible() {
        // Job 0 estimates 20s but truly runs 80s: its reservation [0,20)
        // lapses mid-run. Job 1's reservation [20, 60) then preempts it.
        let mut j0 = slo_job(0, 0, 4, 80, 100);
        j0.estimate_error = -0.75; // estimate 20
        let j1 = slo_job(1, 0, 4, 30, 100);
        let report = run(Cluster::uniform(1, 4, 0), vec![j0, j1]);
        assert!(report.metrics.preemptions >= 1, "lapsed job preempted");
        // Job 1 (still protected) meets its deadline.
        let t1 = report.outcomes[&JobId(1)].completion().unwrap();
        assert!(t1 <= 100);
    }

    #[test]
    fn protected_job_is_never_preempted() {
        // Two SLO jobs with non-overlapping reservations: no preemption of
        // a job inside its window.
        let report = run(
            Cluster::uniform(1, 4, 0),
            vec![slo_job(0, 0, 4, 50, 60), slo_job(1, 4, 4, 40, 200)],
        );
        assert_eq!(report.outcomes[&JobId(0)].completion(), Some(50));
        assert_eq!(report.metrics.accepted_slo_met, 2);
    }

    #[test]
    fn oblivious_placement_slows_gpu_jobs() {
        // 2 GPU nodes out of 8; a GPU job placed randomly will often run
        // slowed. With seed 1 and a single 2-wide GPU job on an otherwise
        // empty cluster, verify the completion reflects *some* placement
        // decision (either 60 preferred or 90 slowed) and that the baseline
        // ignores preferences (it never waits for GPU nodes).
        let mut job = be_job(0, 0, 2, 60);
        job.job_type = JobType::Gpu;
        job.slowdown = 1.5;
        let report = run(Cluster::uniform(4, 2, 1), vec![job]);
        let done = report.outcomes[&JobId(0)].completion().unwrap();
        assert!(done == 60 || done == 90, "completion {done}");
    }

    #[test]
    fn deadline_info_lost_in_best_effort_queue() {
        // An SLO job without reservation competes FIFO behind earlier BE
        // work even when its deadline is urgent.
        let jobs = vec![
            be_job(0, 0, 4, 50),
            be_job(1, 0, 4, 50),
            // Rejected reservation (cluster plan full in its window).
            slo_job(2, 0, 4, 30, 35),
        ];
        let report = run(Cluster::uniform(1, 4, 0), jobs);
        // Jobs 0/1 occupy [0, 100); job 2's deadline 35 is blown.
        assert_eq!(report.metrics.nores_slo_met, 0);
    }

    #[test]
    fn name_reported() {
        assert_eq!(CapacityScheduler::paper_default().name(), "rayon-cs");
    }
}
