//! Property tests over whole simulations: for random small workloads and
//! both scheduler stacks, structural invariants must hold.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tetrisched::baseline::CapacityScheduler;
use tetrisched::cluster::{AllocHandle, Cluster, NodeId};
use tetrisched::core::{TetriSched, TetriSchedConfig};
use tetrisched::sim::{
    CycleContext, CycleDecisions, FaultConfig, FaultKind, FaultPlan, FaultScope, FaultScript,
    JobId, JobOutcome, JobSpec, JobType, PendingJob, RetryPolicy, Scheduler, SimConfig, SimReport,
    Simulator,
};

#[derive(Debug, Clone)]
struct MiniJob {
    submit: u64,
    k: u32,
    runtime: u64,
    slo_slack: Option<u32>, // deadline = submit + runtime * slack / 8
    job_type: u8,
    error_pm: i32, // estimate error in percent
}

fn arb_job() -> impl Strategy<Value = MiniJob> {
    (
        0u64..120,
        1u32..5,
        5u64..60,
        prop::option::of(10u32..40),
        0u8..3,
        -60i32..100,
    )
        .prop_map(
            |(submit, k, runtime, slo_slack, job_type, error_pm)| MiniJob {
                submit,
                k,
                runtime,
                slo_slack,
                job_type,
                error_pm,
            },
        )
}

fn to_specs(jobs: &[MiniJob]) -> Vec<JobSpec> {
    jobs.iter()
        .enumerate()
        .map(|(i, j)| JobSpec {
            id: JobId(i as u64),
            submit: j.submit,
            job_type: match j.job_type {
                0 => JobType::Unconstrained,
                1 => JobType::Gpu,
                _ => JobType::Mpi,
            },
            k: j.k,
            base_runtime: j.runtime,
            slowdown: if j.job_type == 0 { 1.0 } else { 1.5 },
            deadline: j.slo_slack.map(|s| j.submit + j.runtime * s as u64 / 8),
            estimate_error: j.error_pm as f64 / 100.0,
        })
        .collect()
}

fn check_invariants(report: &SimReport, n_jobs: usize, name: &str) -> Result<(), TestCaseError> {
    let m = &report.metrics;
    // Every job is classified and terminal (no infinite waits).
    prop_assert_eq!(
        m.accepted_slo_total + m.nores_slo_total + m.be_total,
        n_jobs,
        "{}: class totals",
        name
    );
    prop_assert_eq!(m.incomplete, 0, "{}: incomplete jobs", name);
    // Met counts never exceed totals.
    prop_assert!(m.accepted_slo_met <= m.accepted_slo_total);
    prop_assert!(m.nores_slo_met <= m.nores_slo_total);
    prop_assert!(m.be_completed <= m.be_total);
    // Physical resource accounting.
    prop_assert!(
        m.busy_node_seconds <= m.total_node_seconds,
        "{}: utilization {} > 1",
        name,
        m.utilization()
    );
    // Completed jobs finish no earlier than their true runtime allows.
    for (id, outcome) in &report.outcomes {
        if let JobOutcome::Completed { at, .. } = outcome {
            prop_assert!(*at > 0, "{}: job {:?} completed at 0", name, id);
        }
    }
    Ok(())
}

/// Delegates to `TetriSched` and asserts that every view it is handed is
/// well-formed: no job offered twice, none both pending and running, the
/// running gangs strictly ascending by id, each holding the nodes it claims.
struct ViewChecked(TetriSched);

impl Scheduler for ViewChecked {
    fn on_submit(&mut self, job: &PendingJob, now: u64) {
        self.0.on_submit(job, now);
    }

    fn on_complete(&mut self, job: JobId, now: u64) {
        self.0.on_complete(job, now);
    }

    fn on_evict(&mut self, job: JobId, now: u64) {
        self.0.on_evict(job, now);
    }

    fn cycle(&mut self, ctx: &CycleContext<'_>) -> CycleDecisions {
        let now = ctx.now;
        let mut pending = BTreeSet::new();
        for p in ctx.pending {
            assert!(
                pending.insert(p.spec.id),
                "{:?} is pending twice at t={now}",
                p.spec.id
            );
        }
        for pair in ctx.running.windows(2) {
            assert!(
                pair[0].id < pair[1].id,
                "running view out of id order at t={now}"
            );
        }
        for r in ctx.running {
            assert!(
                !pending.contains(&r.id),
                "{:?} is pending and running at t={now}",
                r.id
            );
            for &node in &r.nodes {
                assert_eq!(
                    ctx.ledger.owner_of(node),
                    Some(AllocHandle(r.id.0)),
                    "{:?} does not hold {node} at t={now}",
                    r.id
                );
            }
        }
        self.0.cycle(ctx)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

fn run_view_checked(cluster: Cluster, specs: Vec<JobSpec>, config: SimConfig) -> SimReport {
    let scheduler = ViewChecked(TetriSched::new(TetriSchedConfig::full(16)));
    Simulator::new(cluster, scheduler, config).run(specs)
}

/// The fixed case of the property below: launched at the t=0 cycle, evicted
/// at t=1 and resubmitted at t=2, all inside one cycle period. An engine
/// that leaves a launched job queued until the next cycle offers it twice
/// at t=4, whatever the random cases draw.
#[test]
fn views_are_well_formed_when_resubmit_beats_the_next_cycle() {
    let cluster = Cluster::uniform(1, 2, 0);
    let outage = FaultScript {
        at: 1,
        duration: 1,
        scope: FaultScope::Nodes(vec![NodeId(0)]),
        kind: FaultKind::Down,
        announced: false,
    };
    let config = SimConfig {
        faults: FaultPlan::from_script(&cluster, &[outage]),
        retry: RetryPolicy {
            backoff_base: 1,
            backoff_cap: 1,
            ..RetryPolicy::default()
        },
        strict_accounting: true,
        ..SimConfig::default()
    };
    let job = MiniJob {
        submit: 0,
        k: 2,
        runtime: 40,
        slo_slack: None,
        job_type: 0,
        error_pm: 0,
    };
    let report = run_view_checked(cluster, to_specs(&[job]), config);
    assert_eq!(report.metrics.evictions, 1);
    assert_eq!(report.metrics.be_completed, 1);
}

proptest! {
    // Whole-simulation properties are expensive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tetrisched_invariants(jobs in proptest::collection::vec(arb_job(), 1..10)) {
        let specs = to_specs(&jobs);
        let cluster = Cluster::uniform(2, 4, 1);
        let report = Simulator::new(
            cluster,
            TetriSched::new(TetriSchedConfig::full(16)),
            SimConfig::default(),
        )
        .run(specs);
        check_invariants(&report, jobs.len(), "tetrisched")?;
        // TetriSched never preempts (paper behaviour).
        prop_assert_eq!(report.metrics.preemptions, 0);
    }

    /// Under node churn with short retry backoffs (evictions and their
    /// resubmits landing between two cycles), every view a scheduler is
    /// handed stays well-formed and every job still ends.
    #[test]
    fn views_are_well_formed_under_churn(
        jobs in proptest::collection::vec(arb_job(), 1..10),
        seed in 0u64..10_000,
        backoff_base in 1u64..13,
    ) {
        let cluster = Cluster::uniform(2, 4, 1);
        let faults = FaultPlan::generate(
            cluster.num_nodes(),
            &FaultConfig { seed, mtbf: 150.0, mttr: 10.0, horizon: 600, slow_factor: None },
        );
        for cycle_period in [4, 10] {
            let config = SimConfig {
                cycle_period,
                faults: faults.clone(),
                retry: RetryPolicy { backoff_base, ..RetryPolicy::default() },
                strict_accounting: true,
                ..SimConfig::default()
            };
            let report = run_view_checked(cluster.clone(), to_specs(&jobs), config);
            prop_assert_eq!(report.metrics.incomplete, 0, "period {}", cycle_period);
        }
    }

    #[test]
    fn baseline_invariants(jobs in proptest::collection::vec(arb_job(), 1..10)) {
        let specs = to_specs(&jobs);
        let cluster = Cluster::uniform(2, 4, 1);
        let report = Simulator::new(
            cluster,
            CapacityScheduler::paper_default(),
            SimConfig::default(),
        )
        .run(specs);
        check_invariants(&report, jobs.len(), "rayon-cs")?;
        // The baseline never abandons jobs.
        prop_assert_eq!(report.metrics.abandoned, 0);
    }

    #[test]
    fn greedy_and_np_variants_invariants(jobs in proptest::collection::vec(arb_job(), 1..8)) {
        let specs = to_specs(&jobs);
        for cfg in [TetriSchedConfig::no_global(16), TetriSchedConfig::no_plan_ahead()] {
            let report = Simulator::new(
                Cluster::uniform(2, 4, 1),
                TetriSched::new(cfg),
                SimConfig::default(),
            )
            .run(specs.clone());
            check_invariants(&report, jobs.len(), "variant")?;
        }
    }

    #[test]
    fn completed_be_latency_at_least_runtime(
        jobs in proptest::collection::vec(arb_job(), 1..8),
    ) {
        let specs = to_specs(&jobs);
        let cluster = Cluster::uniform(2, 4, 1);
        let report = Simulator::new(
            cluster,
            TetriSched::new(TetriSchedConfig::full(16)),
            SimConfig::default(),
        )
        .run(specs.clone());
        for spec in &specs {
            if let JobOutcome::Completed { at, preferred } = report.outcomes[&spec.id] {
                let min_runtime = spec.true_runtime_for(preferred);
                prop_assert!(
                    at >= spec.submit + min_runtime,
                    "job {:?} completed at {} before submit {} + runtime {}",
                    spec.id, at, spec.submit, min_runtime
                );
            }
        }
    }
}
