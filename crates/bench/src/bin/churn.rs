//! Robustness under node churn (beyond the paper, which evaluates healthy
//! clusters only): GS HET on RC80 while nodes fail and recover according to
//! a seeded MTBF/MTTR renewal process, plus one scripted correlated rack
//! outage scenario.
//!
//! Sweeps MTBF from rare to punishing at fixed MTTR and reports the four
//! paper metrics alongside the robustness counters (evictions, retries,
//! abandoned-after-retries, degraded cycles, availability).
//!
//! With `--perf-faults` the sweep additionally injects seeded slow-node
//! windows; `--stragglers` arms the speculative straggler defense. The
//! `--check` flag runs the deterministic degraded-mode chaos gate instead
//! of the sweep: scripted 4x slowdown on 10% of nodes at 2x saturation on
//! seven seeds, asserting the degradation ladder reaches its last rung and
//! recovers, every solve's certificate verifies, and the ladder holds the
//! binary cliff's SLO attainment to within a job per seed. Nonzero exit on
//! any violation, for CI.
//!
//! Run: `cargo run --release -p tetrisched-bench --bin churn -- \
//!       [--smoke] [--perf-faults] [--stragglers] [--check]`

use tetrisched_bench::figures::FigScale;
use tetrisched_bench::harness::{run_spec, RunSpec, SchedulerKind};
use tetrisched_bench::table::{degraded_panels, print_figure, robustness_panels, MetricsRow};
use tetrisched_cluster::NodeId;
use tetrisched_core::{GovernorConfig, TetriSched, TetriSchedConfig};
use tetrisched_sim::{
    FaultConfig, FaultPlan, FaultScope, FaultScript, PerfFaultConfig, PerfFaultKind, PerfFaultPlan,
    PerfFaultScript, SimConfig, SimReport, Simulator, StragglerConfig, TelemetryConfig, TraceEvent,
};
use tetrisched_workloads::{GridmixConfig, Workload, WorkloadBuilder};

/// Fault-plan horizon: long enough to cover any churn run at these scales.
const FAULT_HORIZON: u64 = 100_000;

fn churn_spec(
    scale: &FigScale,
    kind: SchedulerKind,
    seed: u64,
    faults: FaultPlan,
    perf_faults: PerfFaultPlan,
    stragglers: StragglerConfig,
) -> RunSpec {
    RunSpec {
        cycle_period: scale.cycle_period,
        utilization: 1.15,
        slowdown: 2.0,
        faults,
        perf_faults,
        stragglers,
        ..RunSpec::new(Workload::GsHet, scale.rc80(), scale.num_jobs, seed, kind)
    }
}

/// Seeded slow-node windows for the `--perf-faults` sweep: a node drifts
/// into a 2-4x degradation window on average every ~1500 s and stays
/// degraded for ~120 s.
fn sweep_perf_faults(num_nodes: usize, seed: u64) -> PerfFaultPlan {
    PerfFaultPlan::generate(
        num_nodes,
        &PerfFaultConfig {
            seed,
            mtbf: 1500.0,
            duration: 120.0,
            factor_min: 2.0,
            factor_max: 4.0,
            horizon: FAULT_HORIZON,
        },
    )
}

/// One deterministic chaos run for `--check`: closed-loop GS HET at 2x
/// saturation with a scripted mid-run 4x slowdown on 10% of the nodes,
/// traced so the ladder-rung trajectory is observable.
fn chaos_run(scale: &FigScale, governor: GovernorConfig) -> SimReport {
    let cluster = scale.rc80();
    let slow = cluster.num_nodes().div_ceil(10);
    let perf_faults = PerfFaultPlan::from_script(
        &cluster,
        &[PerfFaultScript {
            at: 40,
            duration: 800,
            scope: FaultScope::Nodes((0..slow).map(|i| NodeId(i as u32)).collect()),
            kind: PerfFaultKind::SlowNode { factor: 4.0 },
            announced: false,
        }],
    );
    let cfg = TetriSchedConfig {
        cycle_period: scale.cycle_period,
        certify_solves: true,
        governor,
        ..TetriSchedConfig::default()
    };
    let jobs = WorkloadBuilder::new(GridmixConfig {
        seed: scale.seed,
        num_jobs: scale.num_jobs,
        cluster_size: cluster.num_nodes(),
        target_utilization: 2.0,
        estimate_error: 0.0,
        error_jitter: 0.0,
        slowdown: 2.0,
    })
    .with_estimate_error(Workload::GsHet, 0.0);
    Simulator::new(
        cluster,
        TetriSched::new(cfg),
        SimConfig {
            cycle_period: scale.cycle_period,
            horizon: Some(1_000_000),
            trace: true,
            perf_faults,
            stragglers: StragglerConfig::defaults(),
            telemetry: TelemetryConfig::on(),
            ..SimConfig::default()
        },
    )
    .run(jobs)
}

/// The traced rung trajectory of a run: the rung after each change.
fn rung_trajectory(report: &SimReport) -> Vec<u8> {
    report
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::LadderRung { rung, .. } => Some(*rung),
            _ => None,
        })
        .collect()
}

/// Seeds the chaos gate judges over, after the scale's own.
const CHAOS_SEEDS: std::ops::RangeInclusive<u64> = 1..=6;

/// SLO jobs a run met.
fn slo_met(report: &SimReport) -> usize {
    report.metrics.accepted_slo_met + report.metrics.nores_slo_met
}

/// The degraded-mode chaos gate (`--check`). Returns the number of failed
/// assertions; prints one line per check.
fn chaos_check(scale: &FigScale) -> usize {
    // SLO attainment at the smoke job count is too coarse to separate the
    // ladder from the cliff; give the gate enough jobs that a one-job
    // difference is under 3 percentage points.
    let mut scale = scale.clone();
    scale.num_jobs = scale.num_jobs.max(36);
    let scale = &scale;
    // The defaults' work budget is sized for paper-scale MILPs; at smoke
    // scale the solves are small, so the gate tightens the budget until
    // the scripted slowdown actually pushes cycles over it: the largest
    // multiple of 100 at which the backlog drives the ladder to its last
    // rung on every gate seed ("ladder engages" below holds it to that).
    // 400 while every LP loaded cold; 300 since LPs after a solve's root
    // re-solve from the held basis (at 400, seed 2 stops at rung 2).
    let budget = if scale.full_clusters { 50_000 } else { 300 };
    let mut ladder_gov = GovernorConfig::defaults();
    ladder_gov.work_budget = budget;
    let mut binary_gov = GovernorConfig::binary_fallback();
    binary_gov.work_budget = budget;

    struct SeedRun {
        seed: u64,
        ladder: SimReport,
        binary: SimReport,
        /// The ladder run's deepest and final rung.
        deepest: u8,
        last: u8,
    }
    let runs: Vec<SeedRun> = std::iter::once(scale.seed)
        .chain(CHAOS_SEEDS)
        .map(|seed| {
            let scale = FigScale {
                seed,
                ..scale.clone()
            };
            let ladder = chaos_run(&scale, ladder_gov.clone());
            let trajectory = rung_trajectory(&ladder);
            SeedRun {
                seed,
                binary: chaos_run(&scale, binary_gov.clone()),
                deepest: trajectory.iter().copied().max().unwrap_or(0),
                last: trajectory.last().copied().unwrap_or(0),
                ladder,
            }
        })
        .collect();
    let per_seed = |f: &dyn Fn(&SeedRun) -> String| {
        let cells: Vec<String> = runs
            .iter()
            .map(|r| format!("{}: {}", r.seed, f(r)))
            .collect();
        cells.join(", ")
    };

    let mut failures = 0;
    let mut check = |name: &str, ok: bool, detail: String| {
        println!("  [{}] {name}: {detail}", if ok { "ok" } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    let cycles = |r: &SeedRun| r.ladder.metrics.cycle_latency.count();
    check(
        "coverage",
        runs.iter().all(|r| cycles(r) >= 50),
        format!(
            "scheduling cycles by seed (need >= 50) {}",
            per_seed(&|r| cycles(r).to_string())
        ),
    );
    check(
        "ladder engages",
        runs.iter().all(|r| r.deepest == 3),
        format!(
            "deepest rung by seed (need 3) {}",
            per_seed(&|r| r.deepest.to_string())
        ),
    );
    check(
        "ladder recovers",
        runs.iter().all(|r| r.last < r.deepest),
        format!("final rung by seed {}", per_seed(&|r| r.last.to_string())),
    );
    let total = |f: &dyn Fn(&SeedRun) -> usize| -> usize { runs.iter().map(f).sum() };
    let verified = total(&|r| r.ladder.metrics.certificates_verified);
    let ladder_failed = total(&|r| r.ladder.metrics.certificate_failures);
    let binary_failed = total(&|r| r.binary.metrics.certificate_failures);
    check(
        "certificates verify (ladder)",
        ladder_failed == 0 && verified > 0,
        format!("{verified} verified, {ladder_failed} failed"),
    );
    check(
        "certificates verify (binary)",
        binary_failed == 0,
        format!("{binary_failed} failed"),
    );
    // One seed decides this by a single job either way (DESIGN 4.4), so the
    // ladder is held to the cliff's total over all seeds, give or take one
    // job per seed.
    let ladder_met = total(&|r| slo_met(&r.ladder));
    let binary_met = total(&|r| slo_met(&r.binary));
    check(
        "ladder holds the binary fallback's SLO",
        ladder_met + runs.len() >= binary_met,
        format!(
            "ladder {ladder_met} vs binary {binary_met} SLO jobs met over {} seeds ({}); \
             greedy cycles {} vs {}",
            runs.len(),
            per_seed(&|r| format!("{} vs {}", slo_met(&r.ladder), slo_met(&r.binary))),
            total(&|r| r.ladder.metrics.solver_fallbacks),
            total(&|r| r.binary.metrics.solver_fallbacks),
        ),
    );
    let detected = |r: &SeedRun| r.ladder.metrics.stragglers_detected;
    check(
        "straggler defense engaged",
        runs.iter().all(|r| detected(r) > 0),
        format!(
            "detected by seed {}",
            per_seed(&|r| detected(r).to_string())
        ),
    );
    failures
}

fn main() {
    let scale = FigScale::from_args();
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--check") {
        println!("== Degraded-mode chaos gate: 4x slowdown on 10% of nodes at 2x saturation ==");
        let failures = chaos_check(&scale);
        if failures > 0 {
            eprintln!("chaos gate: {failures} check(s) failed");
            std::process::exit(1);
        }
        println!("chaos gate: all checks passed");
        return;
    }
    let with_perf = args.iter().any(|a| a == "--perf-faults");
    let with_stragglers = args.iter().any(|a| a == "--stragglers");
    let stragglers = if with_stragglers {
        StragglerConfig::defaults()
    } else {
        StragglerConfig::disabled()
    };
    let cluster = scale.rc80();
    let num_nodes = cluster.num_nodes();
    println!(
        "GS HET / {num_nodes}-node RC80, {} jobs, seed {}, MTTR 60 s\n",
        scale.num_jobs, scale.seed
    );

    // MTBF sweep: infinity (healthy), then every ~2000s down to every
    // ~250s per node. At 250 s with tens of nodes the cluster loses a
    // node every few seconds of simulated time.
    let mtbfs: &[f64] = if scale.full_clusters {
        &[0.0, 4000.0, 1000.0, 250.0]
    } else {
        &[0.0, 2000.0, 500.0]
    };

    let kinds = [
        SchedulerKind::Tetri(TetriSchedConfig::default()),
        SchedulerKind::Tetri(TetriSchedConfig::no_global(
            TetriSchedConfig::default().plan_ahead,
        )),
        SchedulerKind::RayonCs,
    ];

    let mut rows = Vec::new();
    for kind in &kinds {
        for &mtbf in mtbfs {
            let reps: Vec<MetricsRow> = (0..scale.replications.max(1))
                .map(|r| {
                    let seed = scale.seed + r as u64;
                    let faults = if mtbf == 0.0 {
                        FaultPlan::none()
                    } else {
                        FaultPlan::generate(
                            num_nodes,
                            &FaultConfig {
                                seed,
                                mtbf,
                                mttr: 60.0,
                                horizon: FAULT_HORIZON,
                            },
                        )
                    };
                    let perf = if with_perf {
                        sweep_perf_faults(num_nodes, seed)
                    } else {
                        PerfFaultPlan::none()
                    };
                    let report = run_spec(&churn_spec(
                        &scale,
                        kind.clone(),
                        seed,
                        faults,
                        perf,
                        stragglers,
                    ));
                    MetricsRow::from_report(kind.name(), mtbf, &report)
                })
                .collect();
            rows.push(MetricsRow::averaged(&reps));
        }
    }
    print_figure(
        "Churn: MTBF sweep (0 = healthy cluster)",
        "MTBF s/node",
        &rows,
        &robustness_panels(),
    );
    if with_perf || with_stragglers {
        print_figure(
            "Degraded mode: perf faults / straggler defense",
            "MTBF s/node",
            &rows,
            &degraded_panels(),
        );
    }

    // Scripted correlated outage: a whole rack goes dark mid-run for 120 s.
    println!("== Correlated outage: rack 0 down [200, 320) ==");
    println!(
        "{:<16}{:>10}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "scheduler", "SLO %", "avail %", "evicted", "retries", "abandoned", "degraded"
    );
    for kind in &kinds {
        let faults = FaultPlan::from_script(
            &cluster,
            &[FaultScript {
                at: 200,
                duration: 120,
                scope: FaultScope::Rack(tetrisched_cluster::RackId(0)),
            }],
        );
        let report = run_spec(&churn_spec(
            &scale,
            kind.clone(),
            scale.seed,
            faults,
            PerfFaultPlan::none(),
            stragglers,
        ));
        let m = &report.metrics;
        println!(
            "{:<16}{:>10.1}{:>12.1}{:>12}{:>12}{:>12}{:>10}",
            kind.name(),
            m.total_slo_attainment(),
            m.availability() * 100.0,
            m.evictions,
            m.retries,
            m.abandoned_after_retries,
            m.degraded_cycles,
        );
    }
    println!(
        "\nExpectation: attainment degrades gracefully as MTBF shrinks; no \
         run panics, every evicted gang retries with backoff, and jobs are \
         abandoned only after the retry budget is spent."
    );
}
