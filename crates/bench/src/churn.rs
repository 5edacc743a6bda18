//! Robustness under node churn (beyond the paper, which evaluates healthy
//! clusters only): GS HET on RC80 while nodes fail and recover according to
//! a seeded MTBF/MTTR renewal process, plus one scripted correlated rack
//! outage scenario.
//!
//! The sweep takes MTBF from rare to punishing at fixed MTTR and reports
//! the SLO attainment alongside the robustness counters (evictions,
//! retries, abandoned-after-retries, degraded cycles, availability). With
//! `--perf-faults` it additionally injects seeded slow-node windows;
//! `--stragglers` arms the speculative straggler defense. `--check` runs
//! the deterministic degraded-mode chaos gate instead ([`chaos_gate`]).

use std::rc::Rc;

use tetrisched_cluster::{NodeId, RackId};
use tetrisched_core::{GovernorConfig, TetriSched, TetriSchedConfig};
use tetrisched_sim::{
    FaultConfig, FaultKind, FaultPlan, FaultScope, FaultScript, Metrics, SimConfig, SimReport,
    Simulator, TelemetryConfig, TraceEvent,
};
use tetrisched_workloads::{GridmixConfig, Workload, WorkloadBuilder};

use crate::figures::{gs_het, named, sweep, FigScale};
use crate::harness::{RunSpec, SchedulerKind};
use crate::table::{panel, print_figure, print_table, Figure, Panel};
use crate::Args;

/// Fault-plan horizon: long enough to cover any churn run at these scales.
const FAULT_HORIZON: u64 = 100_000;

/// Robustness panels of the MTBF sweep.
fn robustness_panels() -> Vec<Panel> {
    vec![
        panel(
            "SLO attainment, all SLO jobs (%)",
            Metrics::total_slo_attainment,
        ),
        panel("cluster availability (%)", |m| m.availability() * 100.0),
        panel("evictions", |m| m.evictions as f64),
        panel("eviction retries", |m| m.retries as f64),
        panel("abandoned after retries", |m| {
            m.abandoned_after_retries as f64
        }),
        panel("degraded cycles (solver fallbacks)", |m| {
            m.degraded_cycles as f64
        }),
    ]
}

/// Degraded-mode panels: perf faults, straggler defense, and the anytime
/// degradation ladder.
fn degraded_panels() -> Vec<Panel> {
    vec![
        panel(
            "SLO attainment, all SLO jobs (%)",
            Metrics::total_slo_attainment,
        ),
        panel("perf-faulted nodes", |m| m.perf_faulted_nodes as f64),
        panel("stragglers detected", |m| m.stragglers_detected as f64),
        panel("speculative migrations", |m| {
            m.speculative_migrations as f64
        }),
        // The deepest rung any replication reached, not the average: a
        // single replication hitting the greedy floor is the signal.
        Panel {
            max: true,
            ..panel("deepest ladder rung", |m| m.ladder_rung as f64)
        },
        panel("anytime incumbents", |m| m.anytime_incumbents as f64),
    ]
}

/// The MTBF sweep (with its degraded-mode panels when either defense flag
/// is given) and the correlated outage, in that order.
pub(crate) fn figures(args: &Args) -> Vec<Figure> {
    let scale = &args.scale;
    let with_perf = args.has("--perf-faults");
    let stragglers = args.has("--stragglers");
    let cluster = scale.rc80();
    let num_nodes = cluster.num_nodes();
    let plan_ahead = TetriSchedConfig::default().plan_ahead;
    let kinds = named(vec![
        SchedulerKind::Tetri(TetriSchedConfig::default()),
        SchedulerKind::Tetri(TetriSchedConfig::no_global(plan_ahead)),
        SchedulerKind::RayonCs,
    ]);
    let spec = |kind: &SchedulerKind, seed, faults| RunSpec {
        faults,
        stragglers,
        ..gs_het(cluster.clone(), scale.num_jobs, seed, kind.clone())
    };

    // MTBF sweep: infinity (healthy), then every ~2000s down to every
    // ~250s per node. At 250 s with tens of nodes the cluster loses a
    // node every few seconds of simulated time.
    let mtbfs: &[f64] = scale.pick(&[0.0, 4000.0, 1000.0, 250.0], &[0.0, 2000.0, 500.0]);
    let points = sweep(scale, &kinds, mtbfs, |kind, mtbf, seed| {
        let outages = FaultConfig {
            seed,
            mtbf,
            mttr: 60.0,
            horizon: FAULT_HORIZON,
            slow_factor: None,
        };
        // Seeded slow-node windows: a node drifts into a 2-4x degradation
        // window on average every ~1500 s and stays degraded for ~120 s.
        let slow = FaultConfig {
            mtbf: 1500.0,
            mttr: 120.0,
            slow_factor: Some((2.0, 4.0)),
            ..outages
        };
        let mut faults = FaultPlan::default();
        if mtbf > 0.0 {
            faults = FaultPlan::generate(num_nodes, &outages);
        }
        if with_perf {
            faults = faults.merge(FaultPlan::generate(num_nodes, &slow));
        }
        spec(kind, seed, faults)
    });
    let sweep_figure = |title: &str, panels| Figure {
        title: title.into(),
        caption: "GS HET / RC80 under node churn",
        x_label: "MTBF s/node".into(),
        points: Rc::clone(&points),
        panels,
    };
    let mut out = vec![sweep_figure(
        "Churn: MTBF sweep (0 = healthy cluster)",
        robustness_panels(),
    )];
    if with_perf || stragglers {
        out.push(sweep_figure(
            "Degraded mode: perf faults / straggler defense",
            degraded_panels(),
        ));
    }

    // Scripted correlated outage: a whole rack goes dark mid-run for 120 s.
    let outage = FaultScript {
        at: 200,
        duration: 120,
        scope: FaultScope::Rack(RackId(0)),
        kind: FaultKind::Down,
        announced: false,
    };
    out.push(Figure {
        title: "Correlated outage: rack 0 down [200, 320)".into(),
        caption: "one run per scheduler",
        x_label: "-".into(),
        points: sweep(&scale.single(), &kinds, &[0.0], |kind, _, seed| {
            let faults = FaultPlan::from_script(&cluster, std::slice::from_ref(&outage));
            spec(kind, seed, faults)
        }),
        panels: vec![
            panel("SLO %", Metrics::total_slo_attainment),
            panel("avail %", |m| m.availability() * 100.0),
            panel("evicted", |m| m.evictions as f64),
            panel("retries", |m| m.retries as f64),
            panel("abandoned", |m| m.abandoned_after_retries as f64),
            panel("degraded", |m| m.degraded_cycles as f64),
        ],
    });
    out
}

pub(crate) fn print(args: &Args, figures: &[Figure]) {
    let scale = &args.scale;
    println!(
        "GS HET / {}-node RC80, {} jobs, seed {}, MTTR 60 s\n",
        scale.rc80().num_nodes(),
        scale.num_jobs,
        scale.seed
    );
    let (outage, sweeps) = figures.split_last().expect("churn returns its figures");
    sweeps.iter().for_each(print_figure);
    println!("== {} ==", outage.title);
    let columns = [(10, 1), (12, 1), (12, 0), (12, 0), (12, 0), (10, 0)];
    print_table(outage, "scheduler", 16, &columns);
    println!(
        "\nExpectation: attainment degrades gracefully as MTBF shrinks; no \
         run panics, every evicted gang retries with backoff, and jobs are \
         abandoned only after the retry budget is spent."
    );
}

/// One deterministic chaos run for the gate: closed-loop GS HET at 2x
/// saturation with a scripted mid-run 4x slowdown on 10% of the nodes,
/// traced so the ladder-rung trajectory is observable.
fn chaos_run(scale: &FigScale, governor: GovernorConfig) -> SimReport {
    let cluster = scale.rc80();
    let slow = cluster.num_nodes().div_ceil(10);
    let faults = FaultPlan::from_script(
        &cluster,
        &[FaultScript {
            at: 40,
            duration: 800,
            scope: FaultScope::Nodes((0..slow).map(|i| NodeId(i as u32)).collect()),
            kind: FaultKind::SlowNode { factor: 4.0 },
            announced: false,
        }],
    );
    let cfg = TetriSchedConfig {
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
            horizon: Some(1_000_000),
            trace: true,
            faults,
            stragglers: true,
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

/// The degraded-mode chaos gate (`churn --check`): scripted 4x slowdown on
/// 10% of nodes at 2x saturation on seven seeds, asserting the degradation
/// ladder reaches its last rung and recovers, every solve's certificate
/// verifies, and the ladder holds the binary cliff's SLO attainment to
/// within a job per seed. Prints one line per check; `false` on any
/// violation.
pub fn chaos_gate(scale: &FigScale) -> bool {
    println!("== Degraded-mode chaos gate: 4x slowdown on 10% of nodes at 2x saturation ==");
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
    // re-solve from the held basis (at 400, seed 2 stops at rung 2); 100
    // since the dive finds the incumbent at the root and most solves open
    // no node (at 200, seed 4 stops at rung 1; the reduced model between
    // the two was never calibrated and failed the SLO check at 300).
    let budget = scale.pick(50_000, 100);
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
            total(&|r| r.ladder.metrics.degraded_cycles),
            total(&|r| r.binary.metrics.degraded_cycles),
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
    if failures > 0 {
        eprintln!("chaos gate: {failures} check(s) failed");
    } else {
        println!("chaos gate: all checks passed");
    }
    failures == 0
}
