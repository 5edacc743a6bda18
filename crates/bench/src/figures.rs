//! The experiment pipelines: Tables 1–2, Figs. 6–12, the Markdown report,
//! the design ablations and the Sec. 7.3 cluster-size sweep.

use std::rc::Rc;

use tetrisched_cluster::Cluster;
use tetrisched_core::TetriSchedConfig;
use tetrisched_sim::Metrics;
use tetrisched_workloads::Workload;

use crate::harness::{run_spec, RunSpec, SchedulerKind};
use crate::table::{
    latency_panels, markdown, panel, print_table, slo_panels, Figure, Label, Panel, Point,
};
use crate::{Args, EXPERIMENTS};

/// Experiment sizing. The paper runs on physical 256/80-node clusters for
/// hours; the simulation reproduces the pipelines at a size a single core
/// handles in minutes (`paper`) or seconds (`smoke`, for CI and tests).
#[derive(Debug, Clone)]
pub struct FigScale {
    /// Jobs per run.
    pub num_jobs: usize,
    /// Workload seed.
    pub seed: u64,
    /// Whether to use the full-size clusters.
    pub full_clusters: bool,
    /// Number of seeds averaged per point (seed, seed+1, ...).
    pub replications: usize,
}

impl FigScale {
    /// Full-scale runs.
    pub fn paper() -> FigScale {
        FigScale {
            num_jobs: 80,
            seed: 42,
            full_clusters: true,
            replications: 2,
        }
    }

    /// Small runs for `--smoke` and tests.
    pub fn smoke() -> FigScale {
        FigScale {
            num_jobs: 14,
            seed: 42,
            full_clusters: false,
            replications: 1,
        }
    }

    /// This scale with one run per point.
    pub(crate) fn single(&self) -> FigScale {
        FigScale {
            replications: 1,
            ..self.clone()
        }
    }

    /// `paper` on the full-size clusters, `smoke` otherwise (for values that
    /// cost nothing to build both of: grids and budgets).
    pub(crate) fn pick<T>(&self, paper: T, smoke: T) -> T {
        if self.full_clusters {
            paper
        } else {
            smoke
        }
    }

    /// The RC256 testbed (8 racks x 32, two GPU racks), or a 32-node
    /// smoke-scale equivalent with the same rack structure.
    pub fn rc256(&self) -> Cluster {
        if self.full_clusters {
            Cluster::rc256(2)
        } else {
            Cluster::uniform(4, 8, 1)
        }
    }

    /// The RC80 testbed (8 racks x 10), or a 20-node smoke-scale
    /// equivalent. Half the racks are GPU-labeled so the GS HET mixture's
    /// GPU demand roughly matches GPU supply — the regime where waiting
    /// for preferred resources (plan-ahead) can actually pay off.
    pub fn rc80(&self) -> Cluster {
        if self.full_clusters {
            Cluster::rc80(4)
        } else {
            Cluster::uniform(4, 5, 2)
        }
    }
}

const ERROR_AXIS: Label = Label {
    text: "x: estimate error (%)",
    md: "error %",
};

const PLAN_AHEAD_AXIS: Label = Label {
    text: "x: plan-ahead (s)",
    md: "plan-ahead s",
};

/// The one replication loop: runs `spec(series, x, seed)` at every grid
/// point for the scale's seeds (seed, seed + 1, ...), series-major.
pub(crate) fn sweep<S>(
    scale: &FigScale,
    series: &[(String, S)],
    xs: &[f64],
    spec: impl Fn(&S, f64, u64) -> RunSpec,
) -> Rc<[Point]> {
    let mut points = Vec::new();
    for (name, s) in series {
        for &x in xs {
            points.push(Point {
                series: name.clone(),
                x,
                replications: (0..scale.replications.max(1) as u64)
                    .map(|r| run_spec(&spec(s, x, scale.seed + r)))
                    .collect(),
            });
        }
    }
    points.into()
}

/// Scheduler stacks as sweep series, named by [`SchedulerKind::name`].
pub(crate) fn named(kinds: Vec<SchedulerKind>) -> Vec<(String, SchedulerKind)> {
    kinds.into_iter().map(|k| (k.name(), k)).collect()
}

/// One estimate-error figure (Figs. 6–10): Rayon/TetriSched, optionally a
/// Table 2 ablation of it, and Rayon/CS across estimate error.
pub(crate) struct ErrorSweep {
    pub(crate) id: &'static str,
    /// `"<figure>: <what it shows>"`, split into title and caption.
    pub(crate) artifact: &'static str,
    workload: Workload,
    cluster: fn(&FigScale) -> Cluster,
    /// Estimate errors (%) at paper and at smoke scale.
    errors: [&'static [f64]; 2],
    /// The ablated variant, built from the default plan-ahead.
    ablation: Option<fn(u64) -> TetriSchedConfig>,
    utilization: f64,
    slowdown: f64,
}

const WIDE: [&[f64]; 2] = [&[-50.0, -20.0, 0.0, 20.0, 50.0, 100.0], &[-20.0, 0.0, 50.0]];
const HET: [&[f64]; 2] = [&[-50.0, -20.0, 0.0, 20.0, 50.0], &[-20.0, 0.0, 20.0]];

pub(crate) const ERROR_SWEEPS: [ErrorSweep; 5] = [
    ErrorSweep {
        id: "fig6",
        artifact: "Fig. 6: GR MIX on RC256 vs estimate error",
        workload: Workload::GrMix,
        cluster: FigScale::rc256,
        errors: WIDE,
        ablation: None,
        utilization: 1.25,
        slowdown: 1.5,
    },
    ErrorSweep {
        id: "fig7",
        artifact: "Fig. 7: GR SLO on RC256 vs estimate error",
        workload: Workload::GrSlo,
        cluster: FigScale::rc256,
        errors: [&[-20.0, -10.0, 0.0, 10.0, 20.0], &[-10.0, 0.0, 10.0]],
        ablation: None,
        utilization: 1.1,
        slowdown: 1.5,
    },
    ErrorSweep {
        id: "fig8",
        artifact: "Fig. 8: GS MIX on RC80 vs estimate error",
        workload: Workload::GsMix,
        cluster: FigScale::rc80,
        errors: WIDE,
        ablation: None,
        utilization: 1.15,
        slowdown: 1.5,
    },
    ErrorSweep {
        id: "fig9",
        artifact: "Fig. 9: GS HET soft-constraint ablation (TetriSched vs -NH vs CS)",
        workload: Workload::GsHet,
        cluster: FigScale::rc80,
        errors: HET,
        ablation: Some(TetriSchedConfig::no_heterogeneity),
        utilization: 1.15,
        slowdown: 2.0,
    },
    ErrorSweep {
        id: "fig10",
        artifact: "Fig. 10: GS HET global-scheduling ablation (TetriSched vs -NG vs CS)",
        workload: Workload::GsHet,
        cluster: FigScale::rc80,
        errors: HET,
        ablation: Some(TetriSchedConfig::no_global),
        utilization: 1.15,
        slowdown: 2.0,
    },
];

/// Runs one row of [`ERROR_SWEEPS`].
pub(crate) fn error_sweep(scale: &FigScale, row: &ErrorSweep) -> Figure {
    let base = TetriSchedConfig::default();
    let ablated = row.ablation.map(|variant| variant(base.plan_ahead));
    let kinds = [Some(base), ablated]
        .into_iter()
        .flatten()
        .map(SchedulerKind::Tetri)
        .chain([SchedulerKind::RayonCs]);
    let cluster = (row.cluster)(scale);
    let points = sweep(
        scale,
        &named(kinds.collect()),
        scale.pick(row.errors[0], row.errors[1]),
        |kind, error, seed| RunSpec {
            estimate_error: error / 100.0,
            utilization: row.utilization,
            slowdown: row.slowdown,
            ..RunSpec::new(
                row.workload,
                cluster.clone(),
                scale.num_jobs,
                seed,
                kind.clone(),
            )
        },
    );
    let (title, caption) = row.artifact.split_once(": ").expect("figure: caption");
    Figure {
        title: title.into(),
        caption,
        x_label: ERROR_AXIS,
        points,
        panels: slo_panels(),
    }
}

/// A GS HET / RC80 run at the load every plan-ahead, ablation, churn and
/// scalability experiment shares.
pub(crate) fn gs_het(cluster: Cluster, num_jobs: usize, seed: u64, kind: SchedulerKind) -> RunSpec {
    RunSpec {
        utilization: 1.15,
        slowdown: 2.0,
        ..RunSpec::new(Workload::GsHet, cluster, num_jobs, seed, kind)
    }
}

/// A scheduler stack as a function of the plan-ahead window.
type Stack = fn(u64) -> SchedulerKind;

/// The plan-ahead sweep on GS HET / RC80 at zero estimate error, over the
/// paper's grid or — for Fig. 12(c) — its largest window alone. The two
/// TetriSched labels are fixed across the sweep: the paper plots
/// "TetriSched" and "TetriSched-NG" as functions of plan-ahead, with
/// plan-ahead = 0 being the TetriSched-NP (alsched) point. Rayon/CS is the
/// horizontal reference line.
fn plan_ahead_sweep(scale: &FigScale, max_only: bool) -> Rc<[Point]> {
    let xs: &[f64] = scale.pick(&[0.0, 44.0, 96.0, 120.0, 144.0], &[0.0, 16.0, 48.0]);
    let mut series: Vec<(String, Stack)> = vec![
        ("tetrisched".into(), |pa| {
            SchedulerKind::Tetri(TetriSchedConfig::full(pa))
        }),
        ("tetrisched-ng".into(), |pa| {
            SchedulerKind::Tetri(TetriSchedConfig::no_global(pa))
        }),
    ];
    let xs = if max_only {
        &xs[xs.len() - 1..]
    } else {
        series.push(("rayon-cs".into(), |_| SchedulerKind::RayonCs));
        xs
    };
    sweep(scale, &series, xs, |stack, pa, seed| {
        gs_het(scale.rc80(), scale.num_jobs, seed, stack(pa as u64))
    })
}

/// Fig. 11: SLO attainment and best-effort latency against plan-ahead.
pub(crate) fn fig11(scale: &FigScale) -> Figure {
    Figure {
        title: "Fig. 11".into(),
        caption: "GS HET vs plan-ahead window",
        x_label: PLAN_AHEAD_AXIS,
        points: plan_ahead_sweep(scale, false),
        panels: slo_panels(),
    }
}

/// Fig. 12: (a)/(b) solver and cycle latency of the same sweep, and (c) the
/// quantiles of both latency distributions for one run per policy at the
/// largest plan-ahead.
pub(crate) fn fig12(scale: &FigScale) -> Vec<Figure> {
    vec![
        Figure {
            title: "Fig. 12(a)/(b)".into(),
            caption: "solver and cycle latency vs plan-ahead",
            x_label: PLAN_AHEAD_AXIS,
            points: plan_ahead_sweep(scale, false),
            panels: latency_panels(),
        },
        Figure {
            title: "Fig. 12(c)".into(),
            caption: "latency CDF quantiles at max plan-ahead",
            x_label: PLAN_AHEAD_AXIS,
            points: plan_ahead_sweep(&scale.single(), true),
            panels: cdf_panels(),
        },
    ]
}

/// Fig. 12(c)'s panels: both latency distributions read at three
/// quantiles each.
fn cdf_panels() -> Vec<Panel> {
    vec![
        panel("cycle latency p50 (ms)", |m| {
            m.cycle_latency.quantile(0.5) * 1e3
        }),
        panel("cycle latency p90 (ms)", |m| {
            m.cycle_latency.quantile(0.9) * 1e3
        }),
        panel("cycle latency p99 (ms)", |m| {
            m.cycle_latency.quantile(0.99) * 1e3
        }),
        panel("solver latency p50 (ms)", |m| {
            m.solver_latency.quantile(0.5) * 1e3
        }),
        panel("solver latency p90 (ms)", |m| {
            m.solver_latency.quantile(0.9) * 1e3
        }),
        panel("solver latency p99 (ms)", |m| {
            m.solver_latency.quantile(0.99) * 1e3
        }),
    ]
}

/// Prints Table 1 in the text layout or as a Markdown table.
fn table1(md: bool) {
    let line = |name: &str, c: [String; 5]| {
        if md {
            format!("| {name} | {} |", c.join(" | "))
        } else {
            format!(
                "{name:<10}{:>6}{:>6}{:>16}{:>6}{:>6}",
                c[0], c[1], c[2], c[3], c[4]
            )
        }
    };
    if md {
        println!("### Table 1: workload compositions (as generated)\n");
    } else {
        println!("== Table 1: workload compositions ==");
    }
    let header = ["SLO", "BE", "Unconstrained", "GPU", "MPI"].map(String::from);
    println!("{}", line("Workload", header));
    if md {
        println!("|---|---|---|---|---|---|");
    }
    for w in [
        Workload::GrSlo,
        Workload::GrMix,
        Workload::GsMix,
        Workload::GsHet,
    ] {
        let c = w.composition();
        let shares = [c.slo, c.be, c.unconstrained, c.gpu, c.mpi];
        let cells = shares.map(|share| format!("{:.0}%", share * 100.0));
        println!("{}", line(w.name(), cells));
    }
    println!();
}

/// Prints Tables 1 and 2 plus the Fig. 5 value-function constants.
pub(crate) fn print_tables() {
    table1(false);
    println!("== Table 2: TetriSched configurations ==");
    println!("TetriSched       all features");
    println!("TetriSched-NH    no heterogeneity (soft constraint) awareness");
    println!("TetriSched-NG    no global scheduling (greedy, 3 priority FIFOs)");
    println!("TetriSched-NP    no plan-ahead (alsched-equivalent)");
    println!();
    println!("== Fig. 5: internal value functions ==");
    println!(
        "accepted SLO: {}v until deadline; SLO w/o reservation: {}v; \
         best-effort: {}v linear decay",
        tetrisched_strl::SLO_ACCEPTED_FACTOR,
        tetrisched_strl::SLO_NO_RESERVATION_FACTOR,
        tetrisched_strl::BE_BASE_VALUE,
    );
}

/// The complete evaluation suite (Table 1, Figs. 6–12) as the Markdown of
/// `EXPERIMENTS.md`'s "Measured results": every `fig*` row of the registry,
/// rendered by the other view and dropped before the next one runs.
pub(crate) fn report(args: &Args) {
    println!("## Measured results\n");
    println!(
        "Scale: {} jobs/run, seed {}, full clusters: {}\n",
        args.scale.num_jobs, args.scale.seed, args.scale.full_clusters
    );
    table1(true);
    for experiment in EXPERIMENTS.iter().filter(|e| e.id.starts_with("fig")) {
        for figure in (experiment.run)(args) {
            print!("{}", markdown(&figure));
        }
    }
}

/// Ablations of TetriSched design choices beyond the paper's Table 2, on
/// GS HET / RC80 at -20 % estimate error:
///
/// - **warm starts** (Sec. 3.2.2: seeding each cycle's solve with the
///   previous cycle's schedule is claimed "quite effective"),
/// - **batch cap** (Sec. 5: scheduling a subset of pending jobs trades
///   quality for MILP size),
/// - **deferral tie-break** (our addition: without it, flat SLO value
///   functions leave the solver indifferent to pointless deferral),
/// - **preemption** (the paper's stated future work, implemented here).
pub(crate) fn ablations(scale: &FigScale) -> Figure {
    let with = |label: &str, edit: fn(&mut TetriSchedConfig)| {
        let mut config = TetriSchedConfig::default();
        edit(&mut config);
        (label.to_string(), config)
    };
    let series = [
        with("full (warm, batch 16)", |_| {}),
        with("no warm start", |c| c.warm_start = false),
        with("batch cap 4", |c| c.max_batch = 4),
        with("batch cap 64", |c| c.max_batch = 64),
        with("no deferral tie-break", |c| c.defer_tiebreak = 0.0),
        with("with preemption (ext)", |c| c.preemption = true),
        with("exact solves (gap 0)", |c| c.solver_gap = 0.0),
        with("3 start options", |c| c.max_start_options = 3),
        with("LP-dive heuristic backend", |c| c.solver_heuristic = true),
    ];
    let points = sweep(&scale.single(), &series, &[-20.0], |cfg, error, seed| {
        RunSpec {
            estimate_error: error / 100.0,
            ..gs_het(
                scale.rc80(),
                scale.num_jobs,
                seed,
                SchedulerKind::Tetri(cfg.clone()),
            )
        }
    });
    Figure {
        title: format!(
            "GS HET / RC80, {} jobs, seed {}; estimate error -20%",
            scale.num_jobs, scale.seed
        ),
        caption: "design-choice ablations",
        x_label: ERROR_AXIS,
        points,
        panels: vec![
            panel("SLO %", Metrics::total_slo_attainment),
            panel("BE lat (s)", Metrics::be_mean_latency),
            panel("solver avg ms", |m| m.solver_latency.mean() * 1e3),
            panel("cycle p99 ms", |m| m.cycle_latency.quantile(0.99) * 1e3),
            panel("preempt", |m| m.preemptions as f64),
        ],
    }
}

pub(crate) fn print_ablations(figures: &[Figure]) {
    println!("{}\n", figures[0].title);
    let columns = [(12, 1), (14, 1), (16, 2), (16, 2), (10, 0)];
    print_table(&figures[0], "configuration", 26, &columns);
}

/// Sec. 7.3 scalability: cycle/solver latency distribution as the
/// simulated cluster grows (the paper reports 80 → 1000 → 10000-node
/// simulations with "insignificant degradation in scheduling quality").
/// The GS HET arrival rate is scaled with the cluster for an offered load
/// of 1.15x its capacity, but the job count grows far more slowly (60 to
/// 480 jobs over 80 to 10000 nodes), so the larger runs are mostly ramp-up
/// and drain: measured utilization falls as the cluster grows (about 37% at
/// 1000 nodes, 13% at 10000), and of these points only the 256-node one
/// keeps the solver busy. `--xl` adds the 10000-node point (slower).
pub(crate) fn scalability(args: &Args) -> Figure {
    // (racks, nodes/rack, jobs)
    let mut sizes = vec![
        (8, 10, 60),    // RC80
        (8, 32, 120),   // RC256
        (10, 100, 240), // 1000-node simulated cluster
    ];
    if args.has("--xl") {
        sizes.push((20, 500, 480)); // 10000-node simulated cluster
    }
    let series: Vec<(String, (usize, usize, usize))> = sizes
        .into_iter()
        .map(|size| ((size.0 * size.1).to_string(), size))
        .collect();
    let run = |&(racks, per, jobs): &(usize, usize, usize), _: f64, seed| {
        let stack = SchedulerKind::Tetri(TetriSchedConfig::default());
        gs_het(Cluster::uniform(racks, per, racks / 4), jobs, seed, stack)
    };
    Figure {
        title: "Sec. 7.3".into(),
        caption: "cycle and solver latency vs cluster size",
        x_label: "-".into(),
        points: sweep(&args.scale.single(), &series, &[0.0], run),
        panels: vec![
            panel("jobs", |m| m.jobs_admitted as f64),
            panel("total SLO %", Metrics::total_slo_attainment),
            panel("cycle mean ms", |m| m.cycle_latency.mean() * 1e3),
            panel("cycle p99 ms", |m| m.cycle_latency.quantile(0.99) * 1e3),
            panel("solver mean ms", |m| m.solver_latency.mean() * 1e3),
            panel("util %", |m| m.utilization() * 100.0),
        ],
    }
}

pub(crate) fn print_scalability(figures: &[Figure]) {
    let columns = [(8, 0), (12, 1), (16, 2), (16, 2), (16, 2), (14, 1)];
    print_table(&figures[0], "nodes", 12, &columns);
    println!(
        "\nExpectation (paper Sec. 7.3): cycle latency distribution stays \
         similar as the cluster scales, with no significant quality loss."
    );
}
