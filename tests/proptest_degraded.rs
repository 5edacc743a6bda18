//! Property and golden tests for the degraded-operation layer:
//!
//! - same-seed runs under performance faults are byte-identical
//!   (outcomes, metrics, and telemetry exports);
//! - the degradation-ladder governor never flaps — no two rung changes
//!   closer than its hysteresis window, under arbitrary load sequences;
//! - straggler eviction and speculative re-placement preserve the
//!   allocation ledger's conservation invariant;
//! - a pure fail-stop `FaultPlan` (no slow windows, no straggler defense,
//!   governor disabled) reproduces the pre-degraded-mode engine's golden
//!   digests byte-for-byte.

use proptest::prelude::*;
use tetrisched::bench::{run_spec, RunSpec, SchedulerKind};
use tetrisched::cluster::{Cluster, RackId};
use tetrisched::core::{Governor, GovernorConfig, TetriSched, TetriSchedConfig};
use tetrisched::sim::{
    FaultConfig, FaultKind, FaultPlan, FaultScope, FaultScript, SimConfig, SimReport, Simulator,
    TelemetryConfig,
};
use tetrisched::workloads::{GridmixConfig, Workload, WorkloadBuilder};

fn arb_perf_config() -> impl Strategy<Value = FaultConfig> {
    (
        0u64..1000,
        100.0f64..1500.0,
        20.0f64..200.0,
        1.5f64..4.0,
        300u64..1500,
    )
        .prop_map(|(seed, mtbf, mttr, factor, horizon)| FaultConfig {
            seed,
            mtbf,
            mttr,
            horizon,
            slow_factor: Some((factor, factor + 2.0)),
        })
}

/// A degraded-mode simulation: seeded perf faults, straggler defense on,
/// governor enabled with a budget small enough to exercise the ladder.
fn degraded_run(seed: u64, perf: &FaultPlan) -> SimReport {
    let cluster = Cluster::uniform(2, 4, 1);
    let jobs = WorkloadBuilder::new(GridmixConfig {
        seed,
        num_jobs: 10,
        cluster_size: cluster.num_nodes(),
        target_utilization: 1.2,
        estimate_error: 0.0,
        error_jitter: 0.0,
        slowdown: 1.5,
    })
    .with_estimate_error(Workload::GsMix, 0.0);
    let mut cfg = TetriSchedConfig::full(8);
    cfg.governor = GovernorConfig::defaults();
    cfg.governor.work_budget = 500;
    Simulator::new(
        cluster,
        TetriSched::new(cfg),
        SimConfig {
            trace: true,
            strict_accounting: true,
            faults: perf.clone(),
            stragglers: true,
            telemetry: TelemetryConfig::on(),
            horizon: Some(100_000),
            ..SimConfig::default()
        },
    )
    .run(jobs)
}

proptest! {
    // Whole simulations are costly; a handful of cases catches
    // nondeterminism just as well as a thousand.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed and perf-fault plan => byte-identical outcomes and
    /// telemetry exports, run to run.
    #[test]
    fn perf_fault_runs_are_byte_identical(cfg in arb_perf_config(), seed in 0u64..500) {
        let perf = FaultPlan::generate(8, &cfg);
        prop_assert_eq!(
            FaultPlan::generate(8, &cfg).windows(),
            perf.windows(),
            "perf-fault plan generation must be pure"
        );
        let (a, b) = (degraded_run(seed, &perf), degraded_run(seed, &perf));
        prop_assert_eq!(&a.outcomes, &b.outcomes);
        prop_assert_eq!(a.metrics.perf_faulted_nodes, b.metrics.perf_faulted_nodes);
        prop_assert_eq!(a.metrics.stragglers_detected, b.metrics.stragglers_detected);
        prop_assert_eq!(a.metrics.speculative_migrations, b.metrics.speculative_migrations);
        prop_assert_eq!(a.metrics.ladder_rung, b.metrics.ladder_rung);
        prop_assert_eq!(a.metrics.busy_node_seconds, b.metrics.busy_node_seconds);
        prop_assert_eq!(a.end_time, b.end_time);
        prop_assert_eq!(
            a.telemetry.to_jsonl(false),
            b.telemetry.to_jsonl(false),
            "telemetry exports diverged"
        );
    }

    /// Straggler detection and speculative re-placement never corrupt the
    /// ledger: strict accounting validates conservation after every event,
    /// every job still reaches a terminal state, and migrations never
    /// exceed detections.
    #[test]
    fn straggler_migration_preserves_ledger_conservation(
        cfg in arb_perf_config(),
        seed in 0u64..500,
    ) {
        let perf = FaultPlan::generate(8, &cfg);
        let report = degraded_run(seed, &perf);
        prop_assert_eq!(report.metrics.incomplete, 0, "every job terminal");
        prop_assert!(
            report.metrics.speculative_migrations <= report.metrics.stragglers_detected,
            "migrations ({}) exceed detections ({})",
            report.metrics.speculative_migrations,
            report.metrics.stragglers_detected
        );
    }
}

fn arb_governor_config() -> impl Strategy<Value = GovernorConfig> {
    (1u64..5000, 1u32..4, 1u32..8, proptest::bool::ANY).prop_map(
        |(work_budget, promote_streak, hysteresis_cycles, binary)| GovernorConfig {
            work_budget,
            promote_streak,
            hysteresis_cycles,
            binary,
            ..GovernorConfig::defaults()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under arbitrary load sequences the ladder never flaps: between any
    /// two rung changes there are at least `hysteresis_cycles`
    /// observations, and binary mode only ever visits the top and bottom
    /// rungs.
    #[test]
    fn ladder_never_flaps(
        config in arb_governor_config(),
        loads in proptest::collection::vec((0u64..10_000, proptest::bool::ANY), 1..200),
    ) {
        let binary = config.binary;
        let hysteresis = config.hysteresis_cycles;
        let mut governor = Governor::new(config);
        let mut last_change: Option<usize> = None;
        for (i, (work, failed)) in loads.iter().enumerate() {
            let before = governor.rung();
            governor.observe(*work, *failed);
            let after = governor.rung();
            if binary {
                prop_assert!(
                    after.as_u8() == 0 || after.as_u8() == 3,
                    "binary mode visited intermediate rung {}",
                    after.as_u8()
                );
            }
            if after != before {
                // One rung at a time, in either direction.
                prop_assert_eq!(
                    if binary { 3 } else { 1 },
                    after.as_u8().abs_diff(before.as_u8()),
                    "rung moved more than one step"
                );
                if let Some(prev) = last_change {
                    prop_assert!(
                        i - prev >= hysteresis as usize,
                        "rung changed at observations {prev} and {i}, inside the \
                         {hysteresis}-cycle hysteresis window"
                    );
                }
                last_change = Some(i);
            }
        }
    }
}

/// The fail-stop golden scenario from the node-churn robustness work:
/// seeded MTBF/MTTR churn merged with a scripted rack outage. The solver's
/// wall-clock time limit is raised far past what any solve here needs, so
/// truncation can only happen on the deterministic node/gap criteria and
/// the digests are identical across build profiles and machines.
fn fail_stop_spec(workload: Workload, seed: u64) -> RunSpec {
    let cluster = Cluster::uniform(2, 8, 1);
    let generated = FaultPlan::generate(
        cluster.num_nodes(),
        &FaultConfig {
            seed,
            mtbf: 400.0,
            mttr: 40.0,
            horizon: 900,
            slow_factor: None,
        },
    );
    let scripted = FaultPlan::from_script(
        &cluster,
        &[FaultScript {
            at: 200,
            duration: 80,
            scope: FaultScope::Rack(RackId(1)),
            kind: FaultKind::Down,
            announced: false,
        }],
    );
    let cfg = TetriSchedConfig::full(16);
    RunSpec {
        faults: generated.merge(scripted),
        ..RunSpec::new(workload, cluster, 24, seed, SchedulerKind::Tetri(cfg))
    }
}

fn fail_stop_digest(report: &SimReport) -> String {
    let m = &report.metrics;
    let lat_sum: f64 = m.be_latency.samples().iter().sum();
    format!(
        "slo={}/{} nores={}/{} be={}/{} lat={:.3} busy={} pre={} ab={} inc={} ev={} ret={} end={} cycles={}",
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
        m.evictions,
        m.retries,
        report.end_time,
        m.cycle_latency.count()
    )
}

/// Golden digests of the engine without the degraded-operation layer. A
/// pure fail-stop fault plan — perf faults empty, straggler defense
/// disabled, governor disabled — must reproduce them byte-for-byte: the
/// watermark/progress machinery and the ladder may not perturb healthy or
/// fail-stop-only runs. Captured before that layer landed; three of the four
/// re-captured in PR 17, whose dual-simplex re-solves end on other optimal
/// vertices than the cold LPs they replaced (GsMix 3 did not move), and the
/// two seed-11 runs again in PR 22, whose reduced model gives the 10 %-gap
/// search other LPs to end on (the two seed-3 runs did not move), and all
/// four in PR 23, whose root dive hands that search other incumbents.
#[test]
fn pure_fail_stop_plan_reproduces_pre_degraded_goldens() {
    let goldens = [
        (
            Workload::GsMix,
            3u64,
            "slo=4/12 nores=0/3 be=8/9 lat=6150.000 busy=13244 pre=0 ab=11 inc=0 ev=33 ret=32 end=1234 cycles=309",
        ),
        (
            Workload::GsMix,
            11,
            "slo=10/17 nores=0/1 be=6/6 lat=3857.000 busy=13160 pre=0 ab=8 inc=0 ev=28 ret=28 end=1268 cycles=317",
        ),
        (
            Workload::GsHet,
            3,
            "slo=2/12 nores=0/3 be=9/9 lat=6488.000 busy=13244 pre=0 ab=13 inc=0 ev=29 ret=29 end=1235 cycles=309",
        ),
        (
            Workload::GsHet,
            11,
            "slo=8/17 nores=0/1 be=6/6 lat=2057.000 busy=10568 pre=0 ab=10 inc=0 ev=28 ret=28 end=1176 cycles=294",
        ),
    ];
    for (workload, seed, expected) in goldens {
        let report = run_spec(&fail_stop_spec(workload, seed));
        assert_eq!(
            fail_stop_digest(&report),
            expected,
            "fail-stop divergence for {workload:?} seed {seed}"
        );
    }
}
