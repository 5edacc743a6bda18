//! Ablations of TetriSched design choices beyond the paper's Table 2:
//!
//! - **warm starts** (Sec. 3.2.2: seeding each cycle's solve with the
//!   previous cycle's schedule is claimed "quite effective"),
//! - **batch cap** (Sec. 5: scheduling a subset of pending jobs trades
//!   quality for MILP size),
//! - **deferral tie-break** (our addition: without it, flat SLO value
//!   functions leave the solver indifferent to pointless deferral),
//! - **preemption** (the paper's stated future work, implemented here).
//!
//! Run: `cargo run --release -p tetrisched-bench --bin ablations [--smoke]`

use tetrisched_bench::figures::FigScale;
use tetrisched_bench::harness::{run_spec, RunSpec, SchedulerKind};
use tetrisched_core::TetriSchedConfig;
use tetrisched_workloads::Workload;

fn run(label: &str, scale: &FigScale, error: f64, cfg: TetriSchedConfig) {
    let report = run_spec(&RunSpec {
        estimate_error: error,
        cycle_period: scale.cycle_period,
        utilization: 1.15,
        slowdown: 2.0,
        ..RunSpec::new(
            Workload::GsHet,
            scale.rc80(),
            scale.num_jobs,
            scale.seed,
            SchedulerKind::Tetri(cfg),
        )
    });
    let m = &report.metrics;
    println!(
        "{:<26}{:>12.1}{:>14.1}{:>16.2}{:>16.2}{:>10}",
        label,
        m.total_slo_attainment(),
        m.be_mean_latency(),
        m.solver_latency.mean() * 1e3,
        m.cycle_latency.quantile(0.99) * 1e3,
        m.preemptions,
    );
}

fn main() {
    let scale = FigScale::from_args();
    println!(
        "GS HET / RC80, {} jobs, seed {}; estimate error -20%\n",
        scale.num_jobs, scale.seed
    );
    println!(
        "{:<26}{:>12}{:>14}{:>16}{:>16}{:>10}",
        "configuration", "SLO %", "BE lat (s)", "solver avg ms", "cycle p99 ms", "preempt"
    );

    let base = TetriSchedConfig::default;

    run("full (warm, batch 16)", &scale, -0.2, base());

    let mut c = base();
    c.warm_start = false;
    run("no warm start", &scale, -0.2, c);

    let mut c = base();
    c.max_batch = 4;
    run("batch cap 4", &scale, -0.2, c);

    let mut c = base();
    c.max_batch = 64;
    run("batch cap 64", &scale, -0.2, c);

    let mut c = base();
    c.defer_tiebreak = 0.0;
    run("no deferral tie-break", &scale, -0.2, c);

    let mut c = base();
    c.preemption = true;
    run("with preemption (ext)", &scale, -0.2, c);

    let mut c = base();
    c.solver_gap = 0.0;
    run("exact solves (gap 0)", &scale, -0.2, c);

    let mut c = base();
    c.max_start_options = 3;
    run("3 start options", &scale, -0.2, c);

    let mut c = base();
    c.solver_heuristic = true;
    run("LP-dive heuristic backend", &scale, -0.2, c);
}
