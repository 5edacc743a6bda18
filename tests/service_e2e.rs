//! End-to-end tests for the event-driven service core.
//!
//! Three guarantees, matching the refactor's acceptance criteria:
//!
//! 1. **Closed-loop equivalence** — the refactored engine (Submit routed
//!    through the service core's pass-through) reproduces the decisions of
//!    the pre-refactor batch loop bit-for-bit, pinned by golden metric
//!    digests captured from the pre-refactor engine on a small seed
//!    corpus.
//! 2. **Open-loop determinism** — in service mode, the same seed yields
//!    byte-identical telemetry exports across independent runs.
//! 3. **Backpressure engagement** — at 2× saturation the admission layer
//!    actually defers and sheds (nonzero counters), the conservation law
//!    `admitted + shed + backlog == arrivals` holds, and shed jobs carry
//!    typed outcomes.

use tetrisched::bench::{open_loop, run_spec, RunSpec, SchedulerKind, OPEN_LOOP_ARRIVALS};
use tetrisched::cluster::{Cluster, RackId};
use tetrisched::core::TetriSched;
use tetrisched::core::TetriSchedConfig;
use tetrisched::sim::{
    FaultKind, FaultPlan, FaultScope, FaultScript, JobOutcome, SimConfig, SimReport, Simulator,
    TraceEvent,
};
use tetrisched::workloads::{GridmixConfig, Workload, WorkloadBuilder};

/// A compact, fully deterministic digest of a run's decision-relevant
/// metrics. Any divergence in admission, classification, placement, or
/// timing shows up here.
fn digest(report: &SimReport) -> String {
    let m = &report.metrics;
    let lat_sum: f64 = m.be_latency.samples().iter().sum();
    format!(
        "slo={}/{} nores={}/{} be={}/{} lat={:.3} busy={} pre={} ab={} inc={} end={} cycles={}",
        m.accepted_slo_met,
        m.accepted_slo_total,
        m.nores_slo_met,
        m.nores_slo_total,
        m.be_completed,
        m.be_total,
        lat_sum,
        m.busy_node_seconds,
        m.preemptions,
        m.abandoned,
        m.incomplete,
        report.end_time,
        m.cycle_latency.count()
    )
}

fn corpus_spec(workload: Workload, seed: u64) -> RunSpec {
    RunSpec::new(
        workload,
        Cluster::uniform(2, 8, 1),
        24,
        seed,
        SchedulerKind::Tetri(TetriSchedConfig::full(16)),
    )
}

/// Golden digests of the engine's closed-loop decisions, captured before
/// the Submit path was routed through the service core, which must not
/// change them. GsMix seed 3 was re-captured in PR 17 (best-effort latency
/// sum 3408 → 3416): dual-simplex re-solves end on other optimal vertices
/// than the cold LPs they replaced; PR 22's reduced model moved it back
/// (3416 → 3408). The other three did not move either time. PR 23 replaced
/// the solver's root dive and moved three of the four (GsMix 11 held): other
/// incumbents, other plans.
#[test]
fn closed_loop_reproduces_pre_refactor_decisions() {
    let goldens = [
        (
            Workload::GsMix,
            3,
            "slo=12/12 nores=0/3 be=9/9 lat=3288.000 busy=10648 pre=0 ab=3 inc=0 end=767 cycles=192",
        ),
        (
            Workload::GsMix,
            11,
            "slo=17/17 nores=0/1 be=6/6 lat=1277.000 busy=11568 pre=0 ab=1 inc=0 end=892 cycles=223",
        ),
        (
            Workload::GsHet,
            3,
            "slo=11/12 nores=0/3 be=9/9 lat=2864.000 busy=9884 pre=0 ab=4 inc=0 end=739 cycles=185",
        ),
        (
            Workload::GsHet,
            11,
            "slo=15/17 nores=0/1 be=6/6 lat=941.000 busy=10772 pre=0 ab=2 inc=0 end=901 cycles=226",
        ),
    ];
    for (workload, seed, expected) in goldens {
        let report = run_spec(&corpus_spec(workload, seed));
        assert_eq!(
            digest(&report),
            expected,
            "closed-loop divergence for {workload:?} seed {seed}"
        );
        // Pass-through accounting: every arrival admitted, nothing shed.
        assert_eq!(
            report.metrics.jobs_admitted, 24,
            "closed-loop ingest must admit every arrival"
        );
        assert_eq!(report.metrics.jobs_shed, 0);
        assert_eq!(report.metrics.jobs_deferred, 0);
    }
}

/// A closed-loop `TetriSched-NG` run: 240 GS HET jobs at 1.15x load on 256
/// nodes with 20 % under-estimated runtimes and a batch cap of 64, so busy
/// cycles carry up to 30 deferred commitments and most cycles revise the
/// expected end of an overrunning gang. The solver limit cannot bind, so
/// debug and release decide alike.
fn greedy_run(faults: FaultPlan) -> SimReport {
    let cluster = Cluster::uniform(8, 32, 2);
    let jobs = WorkloadBuilder::new(GridmixConfig {
        seed: 42,
        num_jobs: 240,
        cluster_size: cluster.num_nodes(),
        target_utilization: 1.15,
        estimate_error: 0.0,
        error_jitter: 0.0,
        slowdown: 1.5,
    })
    .with_estimate_error(Workload::GsHet, -0.2);
    let mut cfg = TetriSchedConfig::no_global(96);
    cfg.max_batch = 64;
    Simulator::new(
        cluster,
        TetriSched::new(cfg),
        SimConfig {
            horizon: Some(1_000_000),
            trace: true,
            faults,
            ..SimConfig::default()
        },
    )
    .run(jobs)
}

/// FNV-1a over every trace event (launches with their node ids) and the
/// digest line of the metrics: one moved greedy decision moves it.
fn greedy_digest(report: &SimReport) -> u64 {
    assert_eq!(report.trace.dropped(), 0, "trace truncated");
    let mut text = digest(report);
    for event in report.trace.events() {
        text.push_str(&format!("{event:?}"));
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Greedy decisions, pinned on the code before availability became a
/// per-cycle snapshot (`Ledger::free_at` per query, commitments scanned as a
/// list) and re-captured once in PR 22: a leaf left with one partition
/// class is drawn through its indicator (`P = k * I`), and the LPs that
/// remain break ties between classes of equal value another way (first at
/// job 67's launch, t = 308). The row, bound and dead-leaf reductions of the
/// same PR leave both digests as they were. Equal in debug and release.
#[test]
fn greedy_closed_loop_reproduces_pinned_decisions() {
    let report = greedy_run(FaultPlan::default());
    assert!(report.metrics.accepted_slo_total > 0 && report.metrics.be_total > 0);
    assert_eq!(greedy_digest(&report), GREEDY_DIGEST);
}

/// The same run with rack 3 under an *announced* 4x slowdown mid-run, so
/// the announced-window branch of `free_at` decides placements.
#[test]
fn greedy_plans_around_announced_maintenance_as_pinned() {
    let cluster = Cluster::uniform(8, 32, 2);
    let window = FaultScript {
        at: 400,
        duration: 300,
        scope: FaultScope::Rack(RackId(3)),
        kind: FaultKind::SlowNode { factor: 4.0 },
        announced: true,
    };
    let report = greedy_run(FaultPlan::from_script(&cluster, &[window]));
    assert!(
        report.metrics.perf_faulted_nodes > 0,
        "the window never opened"
    );
    let digest = greedy_digest(&report);
    assert_ne!(
        digest, GREEDY_DIGEST,
        "announced maintenance decided nothing"
    );
    assert_eq!(digest, GREEDY_MAINTENANCE_DIGEST);
}

const GREEDY_DIGEST: u64 = 0x2f98_7885_4a2b_aa30;
const GREEDY_MAINTENANCE_DIGEST: u64 = 0x60ac_d742_84df_ad74;

/// `TetriSched-NG` at the greedy benchmark workload's smoke shape: 200 GS
/// HET jobs at 1.15x load on 1 000 nodes, a batch cap of 128. There a busy
/// cycle runs many units of a few leaf-set shapes, so one moved placement
/// among units that share a shape moves the digest. Captured once, on the
/// code before the greedy cycle kept one free table for all its units.
#[test]
fn greedy_closed_loop_at_a_thousand_nodes_is_pinned() {
    let cluster = Cluster::uniform(10, 100, 2);
    let jobs = WorkloadBuilder::new(GridmixConfig {
        seed: 42,
        num_jobs: 200,
        cluster_size: cluster.num_nodes(),
        target_utilization: 1.15,
        estimate_error: 0.0,
        error_jitter: 0.0,
        slowdown: 2.0,
    })
    .generate(Workload::GsHet);
    let cfg = TetriSchedConfig {
        global: false,
        max_batch: 128,
        ..TetriSchedConfig::default()
    };
    let report = Simulator::new(
        cluster,
        TetriSched::new(cfg),
        SimConfig {
            horizon: Some(1_000_000),
            trace: true,
            ..SimConfig::default()
        },
    )
    .run(jobs);
    assert!(report.metrics.accepted_slo_total > 0 && report.metrics.be_total > 0);
    assert_eq!(greedy_digest(&report), GREEDY_1000_DIGEST);
}

const GREEDY_1000_DIGEST: u64 = 0xbf1e_73b9_9913_e7cb;

#[test]
fn open_loop_same_seed_telemetry_exports_are_byte_identical() {
    let a = open_loop(5, 2.0);
    let b = open_loop(5, 2.0);
    assert_eq!(digest(&a), digest(&b), "metrics digests diverged");
    assert_eq!(
        a.telemetry.to_jsonl(false),
        b.telemetry.to_jsonl(false),
        "JSONL telemetry exports diverged"
    );
    assert_eq!(
        a.telemetry.to_chrome_trace(),
        b.telemetry.to_chrome_trace(),
        "chrome-trace exports diverged"
    );
    assert_eq!(
        a.telemetry.to_prometheus(false),
        b.telemetry.to_prometheus(false),
        "prometheus exports diverged"
    );
}

#[test]
fn backpressure_engages_at_double_saturation() {
    let report = open_loop(5, 2.0);
    let m = &report.metrics;
    assert!(
        m.jobs_deferred > 0,
        "2x saturation must defer arrivals (backpressure)"
    );
    assert!(m.jobs_shed > 0, "2x saturation must shed arrivals");
    assert!(
        m.intake_overflows <= m.jobs_shed,
        "intake overflows {} exceed total shed {}",
        m.intake_overflows,
        m.jobs_shed
    );
    let cycles = m.cycle_latency.count();
    assert!(cycles >= 50, "coverage shortfall: {cycles} cycles");
    // The audited pipeline runs in service mode too: every phase spans.
    let snap = report.telemetry.snapshot();
    for phase in [
        "collect", "strl_gen", "lint", "compile", "solve", "certify", "decode",
    ] {
        assert!(
            snap.spans.iter().any(|s| s.name == phase),
            "phase `{phase}` recorded zero spans in open mode"
        );
    }
    assert_eq!(m.lint_errors, 0);
    assert_eq!(m.certificate_failures, 0);
    // Conservation: every arrival is admitted, shed, or still queued.
    let arrivals = OPEN_LOOP_ARRIVALS as u64;
    let backlog = arrivals - m.jobs_admitted - m.jobs_shed;
    assert!(
        m.jobs_admitted + m.jobs_shed <= arrivals,
        "admitted {} + shed {} exceed arrivals",
        m.jobs_admitted,
        m.jobs_shed
    );
    // Shed jobs carry typed outcomes and trace events.
    let shed_outcomes = report
        .outcomes
        .values()
        .filter(|o| matches!(o, JobOutcome::Shed { .. }))
        .count() as u64;
    assert_eq!(shed_outcomes, m.jobs_shed, "every shed job has an outcome");
    let shed_traces = report
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Shed { .. }))
        .count() as u64;
    assert_eq!(shed_traces, m.jobs_shed, "every shed job is traced");
    // Shed jobs never enter class totals.
    assert_eq!(
        (m.accepted_slo_total + m.nores_slo_total + m.be_total) as u64 + m.jobs_shed + backlog,
        arrivals,
        "class totals + shed + leftover backlog must cover all arrivals"
    );
}

#[test]
fn moderate_load_sheds_nothing() {
    // At the calibrated rate with the same bounded queues, the admission
    // layer keeps up: shedding should not engage.
    let report = open_loop(5, 0.5);
    assert_eq!(report.metrics.jobs_shed, 0, "0.5x saturation must not shed");
    assert_eq!(report.metrics.intake_overflows, 0);
    // The horizon may cut the stretched-out arrival tail while some jobs
    // are still queued; everything that arrived in time was admitted.
    assert!(
        report.metrics.jobs_admitted >= 50,
        "admission kept up at moderate load (admitted {})",
        report.metrics.jobs_admitted
    );
}
