//! Golden digests of the simulation engine's own paths.
//!
//! The goldens beside this file pin closed-loop global runs, two greedy
//! runs and four fail-stop runs (`service_e2e`, `proptest_degraded`). What
//! they leave to same-seed self-consistency is pinned here by two small
//! runs, captured on the engine as it stood before it became one state
//! struct with one handler per event, re-captured once in PR 22, which
//! changed what `compile` emits (the open loop's decisions moved; under
//! churn only the telemetry export did), and once in PR 23, which replaced
//! the solver's root dive (both runs' plans and every `solve` span moved;
//! under the new plans churn seed 4 no longer exhausts a retry budget, so
//! `CHURN_SEED` is 7, the lowest seed that reaches every path asserted
//! below), and once in PR 25, which stopped presolving in the search (the
//! two `milp.presolve_*` counters left both exports; under churn six `solve`
//! spans take other LP iterations to the same decisions):
//!
//! - **open loop**: arrivals at 2x saturation through the service core's
//!   one bounded intake queue with fair-share weights, so admission cycles
//!   drain, defer and shed, and every pending view carries a tenancy weight;
//! - **closed loop under churn**: overlapping fail-stop outages (seeded
//!   churn merged with a scripted rack outage, so the refcount decides),
//!   seeded slow-node windows merged with one announced maintenance
//!   window, the straggler defense, and runtimes under-estimated by 20 %
//!   so the scheduler revises expected ends, under strict accounting.
//!
//! Each digest is FNV-1a over every trace event in order (node ids
//! included), outcomes and classes in id order, the decision-relevant
//! counters, the end time and the bytes of the JSONL telemetry export.
//! Both runs set a solver time limit that cannot bind, so debug and
//! release decide alike (CI runs this file under both).
//!
//! Engine paths these two runs still do not reach: scheduler-initiated
//! preemption (`TetriSched` never preempts; the engine's unit test
//! `preemption_requeues_and_restarts` covers it), a horizon that cuts a run
//! short with gangs still running (`horizon_marks_incomplete`), a bounded
//! trace ring that drops events, and a repair without a matching failure.

use std::fmt::Write as _;

use tetrisched::cluster::{Cluster, RackId};
use tetrisched::core::{TetriSched, TetriSchedConfig};
use tetrisched::service::{AdmissionPolicy, FairShareConfig, ServiceConfig};
use tetrisched::sim::{
    FaultConfig, FaultPlan, FaultScope, FaultScript, JobId, JobSpec, PerfFaultConfig,
    PerfFaultPlan, SimConfig, SimReport, Simulator, StragglerConfig, TelemetryConfig, TraceEvent,
};
use tetrisched::workloads::{
    GridmixConfig, OpenLoopConfig, OpenLoopDriver, Workload, WorkloadBuilder,
};

fn cluster() -> Cluster {
    Cluster::uniform(2, 8, 1)
}

fn gridmix(seed: u64, num_jobs: usize, target_utilization: f64) -> GridmixConfig {
    GridmixConfig {
        seed,
        num_jobs,
        cluster_size: cluster().num_nodes(),
        target_utilization,
        estimate_error: 0.0,
        error_jitter: 0.0,
        slowdown: 1.5,
    }
}

fn run(jobs: Vec<JobSpec>, config: SimConfig) -> SimReport {
    let mut cfg = TetriSchedConfig::full(16);
    // The digests were captured under this budget; the default's binds in
    // the churn run and would move `CHURN_DIGEST`.
    cfg.solver_time_limit = std::time::Duration::from_secs(3600);
    Simulator::new(cluster(), TetriSched::new(cfg), config).run(jobs)
}

fn open_loop_run() -> SimReport {
    let jobs = OpenLoopDriver::new(OpenLoopConfig::saturating(gridmix(5, 60, 1.0), 2.0))
        .generate(Workload::GsMix);
    let service = ServiceConfig::open(
        4,
        8,
        AdmissionPolicy {
            max_admissions_per_cycle: 4,
            max_scheduler_backlog: 8,
            shed_queue_depth: 16,
        },
        FairShareConfig::enabled(4),
    );
    run(
        jobs,
        SimConfig {
            horizon: Some(3000),
            trace: true,
            telemetry: TelemetryConfig::on(),
            service,
            ..SimConfig::default()
        },
    )
}

fn churn_run() -> SimReport {
    let cluster = cluster();
    let nodes = cluster.num_nodes();
    let jobs = WorkloadBuilder::new(gridmix(CHURN_SEED, 16, 1.2))
        .with_estimate_error(Workload::GsHet, -0.2);
    let faults = FaultPlan::generate(
        nodes,
        &FaultConfig {
            seed: CHURN_SEED,
            mtbf: 400.0,
            mttr: 40.0,
            horizon: 900,
        },
    )
    .merge(FaultPlan::from_script(
        &cluster,
        &[FaultScript {
            at: 200,
            duration: 80,
            scope: FaultScope::Rack(RackId(1)),
        }],
    ));
    let perf_faults = PerfFaultPlan::generate(
        nodes,
        &PerfFaultConfig {
            seed: CHURN_SEED,
            mtbf: 300.0,
            duration: 120.0,
            factor_min: 3.0,
            factor_max: 6.0,
            horizon: 900,
        },
    )
    .merge(PerfFaultPlan::maintenance(
        &cluster,
        100,
        150,
        FaultScope::Rack(RackId(0)),
    ));
    run(
        jobs,
        SimConfig {
            horizon: Some(100_000),
            trace: true,
            faults,
            perf_faults,
            stragglers: StragglerConfig::defaults(),
            strict_accounting: true,
            telemetry: TelemetryConfig::on(),
            ..SimConfig::default()
        },
    )
}

fn digest(report: &SimReport) -> u64 {
    let m = &report.metrics;
    assert_eq!(m.trace_events_dropped, 0, "trace truncated");
    let mut text = String::new();
    for event in report.trace.events() {
        write!(text, "{event:?}").unwrap();
    }
    for id in 0..report.outcomes.len() as u64 {
        let id = JobId(id);
        write!(text, "{:?}{:?}", report.outcomes[&id], report.classes[&id]).unwrap();
    }
    let lat_sum: f64 = m.be_latency.samples().iter().sum();
    write!(
        text,
        "slo={}/{} nores={}/{} be={}/{} lat={lat_sum:.3} busy={} total={} down={} pre={} ab={} \
         abr={} inc={} ev={} ret={} adm={} shed={} def={} ovf={} pf={} sd={} sm={} rung={} any={} \
         deg={} fb={} ce={} se={} cv={} cf={} end={} cycles={}",
        m.accepted_slo_met,
        m.accepted_slo_total,
        m.nores_slo_met,
        m.nores_slo_total,
        m.be_completed,
        m.be_total,
        m.busy_node_seconds,
        m.total_node_seconds,
        m.down_node_seconds,
        m.preemptions,
        m.abandoned,
        m.abandoned_after_retries,
        m.incomplete,
        m.evictions,
        m.retries,
        m.jobs_admitted,
        m.jobs_shed,
        m.jobs_deferred,
        m.intake_overflows,
        m.perf_faulted_nodes,
        m.stragglers_detected,
        m.speculative_migrations,
        m.ladder_rung,
        m.anytime_incumbents,
        m.degraded_cycles,
        m.solver_fallbacks,
        m.compile_errors,
        m.solver_errors,
        m.certificates_verified,
        m.certificate_failures,
        report.end_time,
        m.cycle_latency.count()
    )
    .unwrap();
    text.push_str(&report.telemetry.to_jsonl(false));
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn traced(report: &SimReport, what: fn(&TraceEvent) -> bool) -> bool {
    report.trace.events().iter().any(what)
}

#[test]
fn open_loop_service_path_is_pinned() {
    let report = open_loop_run();
    let m = &report.metrics;
    assert!(m.jobs_shed > 0, "2x saturation shed nothing");
    assert!(m.jobs_deferred > 0, "2x saturation deferred nothing");
    assert!(m.jobs_admitted > 0);
    assert_eq!(digest(&report), OPEN_LOOP_DIGEST);
}

#[test]
fn closed_loop_churn_path_is_pinned() {
    let report = churn_run();
    let m = &report.metrics;
    assert!(m.evictions > 0, "no eviction");
    assert!(m.retries > 0, "no retry");
    assert!(m.speculative_migrations > 0, "no straggler migrated");
    assert!(m.perf_faulted_nodes > 0, "no perf window opened");
    assert!(m.abandoned + m.preemptions > 0, "nothing abandoned");
    assert!(m.abandoned_after_retries > 0, "no retry budget ran out");
    assert!(traced(&report, |e| matches!(
        e,
        TraceEvent::GangRetimed { .. }
    )));
    assert!(traced(&report, |e| matches!(
        e,
        TraceEvent::Resubmitted { .. }
    )));
    assert!(traced(&report, |e| matches!(
        e,
        TraceEvent::StragglerMigrated { .. }
    )));
    assert!(traced(&report, |e| matches!(e, TraceEvent::NodeUp { .. })));
    assert_eq!(digest(&report), CHURN_DIGEST);
}

const CHURN_SEED: u64 = 7;
const OPEN_LOOP_DIGEST: u64 = 0xc532_65aa_0922_7001;
const CHURN_DIGEST: u64 = 0xd2b9_e27d_aa0b_9238;
