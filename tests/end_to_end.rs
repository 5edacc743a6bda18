//! Cross-crate integration tests: full scheduler stacks on full workloads.

use tetrisched::baseline::CapacityScheduler;
use tetrisched::cluster::Cluster;
use tetrisched::core::{TetriSched, TetriSchedConfig};
use tetrisched::sim::{SimConfig, SimReport, Simulator};
use tetrisched::workloads::{GridmixConfig, Workload, WorkloadBuilder};

fn workload(
    seed: u64,
    n: usize,
    cluster: &Cluster,
    w: Workload,
    err: f64,
) -> Vec<tetrisched::sim::JobSpec> {
    WorkloadBuilder::new(GridmixConfig {
        seed,
        num_jobs: n,
        cluster_size: cluster.num_nodes(),
        ..GridmixConfig::default()
    })
    .with_estimate_error(w, err)
}

fn run_ts(
    cluster: &Cluster,
    cfg: TetriSchedConfig,
    jobs: Vec<tetrisched::sim::JobSpec>,
) -> SimReport {
    Simulator::new(cluster.clone(), TetriSched::new(cfg), SimConfig::default()).run(jobs)
}

fn run_cs(cluster: &Cluster, jobs: Vec<tetrisched::sim::JobSpec>) -> SimReport {
    Simulator::new(
        cluster.clone(),
        CapacityScheduler::paper_default(),
        SimConfig::default(),
    )
    .run(jobs)
}

/// The headline comparison: on a heterogeneous SLO mix with runtime
/// mis-estimation, Rayon/TetriSched attains more SLOs than Rayon/CS.
#[test]
fn tetrisched_beats_capacity_scheduler_on_het_mix() {
    let cluster = Cluster::uniform(4, 5, 1);
    let jobs = workload(3, 30, &cluster, Workload::GsHet, -0.2);
    let ts = run_ts(&cluster, TetriSchedConfig::default(), jobs.clone());
    let cs = run_cs(&cluster, jobs);
    assert!(
        ts.metrics.total_slo_attainment() > cs.metrics.total_slo_attainment(),
        "TetriSched {}% vs CS {}%",
        ts.metrics.total_slo_attainment(),
        cs.metrics.total_slo_attainment()
    );
}

/// Best-effort latency is lower under TetriSched as well (Fig. 6(d)).
#[test]
fn tetrisched_lowers_best_effort_latency() {
    let cluster = Cluster::uniform(4, 5, 0);
    let jobs = workload(5, 30, &cluster, Workload::GrMix, -0.2);
    let ts = run_ts(&cluster, TetriSchedConfig::default(), jobs.clone());
    let cs = run_cs(&cluster, jobs);
    assert!(ts.metrics.be_completed > 0 && cs.metrics.be_completed > 0);
    assert!(
        ts.metrics.be_mean_latency() < cs.metrics.be_mean_latency(),
        "TetriSched {}s vs CS {}s",
        ts.metrics.be_mean_latency(),
        cs.metrics.be_mean_latency()
    );
}

/// Under heavy under-estimation the baseline demotes accepted SLO jobs to
/// the best-effort queue, while TetriSched stays robust (Fig. 6(b)).
#[test]
fn robustness_to_underestimation() {
    let cluster = Cluster::uniform(4, 5, 0);
    let jobs = workload(7, 24, &cluster, Workload::GrSlo, -0.5);
    let ts = run_ts(&cluster, TetriSchedConfig::default(), jobs.clone());
    let cs = run_cs(&cluster, jobs);
    assert!(
        ts.metrics.accepted_slo_attainment() >= cs.metrics.accepted_slo_attainment(),
        "TetriSched {}% vs CS {}%",
        ts.metrics.accepted_slo_attainment(),
        cs.metrics.accepted_slo_attainment()
    );
    assert!(ts.metrics.accepted_slo_attainment() >= 80.0);
}

/// All four Table 2 configurations run the same workload to completion and
/// account for every job.
#[test]
fn all_table2_variants_complete() {
    let cluster = Cluster::uniform(4, 5, 1);
    let jobs = workload(9, 20, &cluster, Workload::GsHet, 0.0);
    for cfg in [
        TetriSchedConfig::full(48),
        TetriSchedConfig::no_heterogeneity(48),
        TetriSchedConfig::no_global(48),
        TetriSchedConfig::no_plan_ahead(),
    ] {
        let name = cfg.variant_name();
        let report = run_ts(&cluster, cfg, jobs.clone());
        let m = &report.metrics;
        assert_eq!(
            m.accepted_slo_total + m.nores_slo_total + m.be_total,
            20,
            "{name}: all jobs accounted"
        );
        assert_eq!(m.incomplete, 0, "{name}: no stuck jobs");
        assert_eq!(m.preemptions, 0, "{name}: TetriSched never preempts");
    }
}

/// Reservation admission classifies jobs identically under both stacks
/// (both use the same Rayon frontend).
#[test]
fn admission_is_stack_independent() {
    let cluster = Cluster::uniform(2, 5, 0);
    let jobs = workload(11, 20, &cluster, Workload::GsMix, 0.0);
    let ts = run_ts(&cluster, TetriSchedConfig::default(), jobs.clone());
    let cs = run_cs(&cluster, jobs);
    assert_eq!(ts.metrics.accepted_slo_total, cs.metrics.accepted_slo_total);
    assert_eq!(ts.metrics.nores_slo_total, cs.metrics.nores_slo_total);
    for (id, class) in &ts.classes {
        assert_eq!(class, &cs.classes[id], "class mismatch for {id:?}");
    }
}

/// The extension GS AVAIL mixture (with anti-affine availability services)
/// runs to completion under both stacks and TetriSched still wins.
#[test]
fn availability_mixture_end_to_end() {
    let cluster = Cluster::uniform(4, 5, 2);
    let jobs = workload(19, 24, &cluster, Workload::GsAvail, -0.2);
    assert!(jobs
        .iter()
        .any(|j| j.job_type == tetrisched::sim::JobType::Availability));
    let ts = run_ts(&cluster, TetriSchedConfig::default(), jobs.clone());
    let cs = run_cs(&cluster, jobs);
    let m = &ts.metrics;
    assert_eq!(
        m.accepted_slo_total + m.nores_slo_total + m.be_total,
        24,
        "all jobs terminal under TetriSched"
    );
    assert!(
        ts.metrics.total_slo_attainment() >= cs.metrics.total_slo_attainment(),
        "TetriSched {}% vs CS {}%",
        ts.metrics.total_slo_attainment(),
        cs.metrics.total_slo_attainment()
    );
}

/// Determinism: identical runs produce identical outcomes.
#[test]
fn simulation_is_deterministic() {
    let cluster = Cluster::uniform(4, 5, 1);
    let jobs = workload(13, 20, &cluster, Workload::GsHet, 0.1);
    // A wall-clock solver limit that bound would make the two runs differ.
    let config = TetriSchedConfig {
        solver_time_limit: std::time::Duration::from_secs(3600),
        ..TetriSchedConfig::default()
    };
    let a = run_ts(&cluster, config.clone(), jobs.clone());
    let b = run_ts(&cluster, config, jobs);
    assert_eq!(a.end_time, b.end_time);
    for (id, out) in &a.outcomes {
        assert_eq!(out, &b.outcomes[id], "outcome mismatch for {id:?}");
    }
}

/// Over-estimation wastes capacity under the baseline (early reservation
/// release, preemption churn) but TetriSched keeps utilizing it.
#[test]
fn overestimation_keeps_tetrisched_effective() {
    let cluster = Cluster::uniform(4, 5, 0);
    let jobs = workload(17, 24, &cluster, Workload::GsMix, 0.5);
    let ts = run_ts(&cluster, TetriSchedConfig::default(), jobs.clone());
    let cs = run_cs(&cluster, jobs);
    assert!(ts.metrics.total_slo_attainment() >= cs.metrics.total_slo_attainment());
}
