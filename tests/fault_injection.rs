//! End-to-end fault-injection acceptance tests: the simulator survives
//! node churn that kills a sizable share of the cluster, every evicted
//! gang retries with bounded exponential backoff until it completes or
//! exhausts its budget, the ledger conservation invariant holds after
//! every event, and a forced global-MILP failure degrades exactly the
//! affected cycle to the greedy placer.

use std::collections::{BTreeMap, BTreeSet};

use tetrisched::cluster::Cluster;
use tetrisched::core::{TetriSched, TetriSchedConfig};
use tetrisched::sim::{
    FaultConfig, FaultPlan, JobOutcome, RetryPolicy, SimConfig, SimReport, Simulator, TraceEvent,
};
use tetrisched::workloads::{GridmixConfig, Workload, WorkloadBuilder};

fn workload(seed: u64, n: usize, cluster: &Cluster) -> Vec<tetrisched::sim::JobSpec> {
    WorkloadBuilder::new(GridmixConfig {
        seed,
        num_jobs: n,
        cluster_size: cluster.num_nodes(),
        ..GridmixConfig::default()
    })
    .with_estimate_error(Workload::GsHet, 0.0)
}

fn run_with_faults(
    cluster: &Cluster,
    cfg: TetriSchedConfig,
    jobs: Vec<tetrisched::sim::JobSpec>,
    faults: FaultPlan,
    retry: RetryPolicy,
) -> SimReport {
    let sim_config = SimConfig {
        trace: true,
        faults,
        retry,
        // Conservation (`free + allocated + down == total`) is validated
        // after every event; a violation panics and fails the test.
        strict_accounting: true,
        ..SimConfig::default()
    };
    Simulator::new(cluster.clone(), TetriSched::new(cfg), sim_config).run(jobs)
}

/// The headline robustness test: a churn plan that takes down at least
/// 10% of the nodes. No panic, every job ends terminal, every eviction is
/// followed by a backoff-delayed resubmission or retry exhaustion.
#[test]
fn churn_killing_ten_percent_of_nodes_is_survived() {
    let cluster = Cluster::uniform(4, 5, 1); // 20 nodes
    let num_nodes = cluster.num_nodes();
    // Aggressive MTBF so the plan reliably covers a good share of nodes.
    let faults = FaultPlan::generate(
        num_nodes,
        &FaultConfig {
            seed: 11,
            mtbf: 400.0,
            mttr: 40.0,
            horizon: 2_000,
            slow_factor: None,
        },
    );
    let failed: BTreeSet<_> = faults.windows().iter().map(|w| w.node).collect();
    assert!(
        failed.len() * 10 >= num_nodes,
        "fault plan too tame: only {} of {} nodes fail",
        failed.len(),
        num_nodes
    );

    let retry = RetryPolicy {
        max_retries: 3,
        backoff_base: 8,
        backoff_cap: 64,
    };
    let report = run_with_faults(
        &cluster,
        TetriSchedConfig::default(),
        workload(3, 24, &cluster),
        faults,
        retry,
    );
    let m = &report.metrics;

    // Every job reached a terminal state: completed or abandoned.
    assert_eq!(m.incomplete, 0, "jobs left hanging");
    for (id, outcome) in &report.outcomes {
        assert!(
            matches!(
                outcome,
                JobOutcome::Completed { .. } | JobOutcome::Abandoned { .. }
            ),
            "job {id:?} not terminal: {outcome:?}"
        );
    }

    // Trace-level accounting: evictions and their follow-ups match the
    // metrics, and each resubmission obeys the backoff schedule.
    let mut evicted = 0usize;
    let mut exhausted = 0usize;
    let mut pending_backoff: BTreeMap<_, _> = BTreeMap::new();
    for e in report.trace.events() {
        match e {
            TraceEvent::Evicted {
                job, retry: r, at, ..
            } => {
                evicted += 1;
                pending_backoff.insert(*job, (*r, *at));
            }
            TraceEvent::Resubmitted { job, at } => {
                let (r, evict_at) = pending_backoff
                    .remove(job)
                    .expect("resubmission without a preceding eviction");
                assert_eq!(
                    *at,
                    evict_at + retry.delay(r),
                    "job {job:?} retry {r} resubmitted off-schedule"
                );
            }
            TraceEvent::RetriesExhausted { job, .. } => {
                exhausted += 1;
                pending_backoff
                    .remove(job)
                    .expect("exhaustion without a preceding eviction");
            }
            _ => {}
        }
    }
    assert!(
        pending_backoff.is_empty(),
        "evictions with no resubmission or exhaustion: {pending_backoff:?}"
    );
    assert_eq!(m.evictions, evicted, "eviction metric vs trace");
    assert_eq!(m.abandoned_after_retries, exhausted);
    assert!(evicted > 0, "churn this heavy should evict something");
    assert!(m.down_node_seconds > 0);
    assert!(m.availability() < 1.0);
}

/// A forced failure of one global MILP solve degrades exactly that cycle
/// to the greedy placer — work still flows, and the fallback is counted.
#[test]
fn forced_global_solver_failure_degrades_one_cycle() {
    let cluster = Cluster::uniform(2, 5, 1);
    let cfg = TetriSchedConfig {
        chaos_global_solve_failures: vec![1],
        ..TetriSchedConfig::default()
    };
    let report = run_with_faults(
        &cluster,
        cfg,
        workload(7, 12, &cluster),
        FaultPlan::default(),
        RetryPolicy::default(),
    );
    let m = &report.metrics;
    assert_eq!(m.degraded_cycles, 1, "exactly one fallback");
    assert!(m.solver_errors >= 1, "chaos error surfaced");
    let degraded: Vec<_> = report
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::CycleDegraded { .. }))
        .collect();
    assert_eq!(degraded.len(), 1, "exactly one degraded cycle in trace");
    assert_eq!(m.incomplete, 0);
    for outcome in report.outcomes.values() {
        assert!(
            matches!(
                outcome,
                JobOutcome::Completed { .. } | JobOutcome::Abandoned { .. }
            ),
            "degraded cycle dropped work: {outcome:?}"
        );
    }
}

/// Churn and chaos together: failures mid-run plus a failing solve. The
/// combination must not deadlock, drop jobs, or break conservation.
#[test]
fn churn_plus_chaos_still_terminates_cleanly() {
    let cluster = Cluster::uniform(4, 5, 1);
    let faults = FaultPlan::generate(
        cluster.num_nodes(),
        &FaultConfig {
            seed: 5,
            mtbf: 600.0,
            mttr: 30.0,
            horizon: 1_500,
            slow_factor: None,
        },
    );
    let cfg = TetriSchedConfig {
        chaos_global_solve_failures: vec![2, 4],
        ..TetriSchedConfig::default()
    };
    let report = run_with_faults(
        &cluster,
        cfg,
        workload(9, 18, &cluster),
        faults,
        RetryPolicy::default(),
    );
    assert_eq!(report.metrics.incomplete, 0);
    assert_eq!(report.metrics.degraded_cycles, 2);
}
