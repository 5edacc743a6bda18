//! Sec. 7.3 scalability: cycle/solver latency distribution as the
//! simulated cluster grows (the paper reports 80 → 1000 → 10000-node
//! simulations with "insignificant degradation in scheduling quality").
//!
//! The GS HET workload is scaled with the cluster so utilization stays
//! near 100%. Pass `--xl` to include the 10000-node point (slower).
//!
//! Run: `cargo run --release -p tetrisched-bench --bin scalability [--xl]`

use tetrisched_bench::harness::{run_spec, RunSpec, SchedulerKind};
use tetrisched_cluster::Cluster;
use tetrisched_core::TetriSchedConfig;
use tetrisched_workloads::Workload;

fn main() {
    let xl = std::env::args().any(|a| a == "--xl");
    let mut sizes: Vec<(usize, usize, usize)> = vec![
        // (racks, nodes/rack, jobs)
        (8, 10, 60),    // RC80
        (8, 32, 120),   // RC256
        (10, 100, 240), // 1000-node simulated cluster
    ];
    if xl {
        sizes.push((20, 500, 480)); // 10000-node simulated cluster
    }

    println!(
        "{:<12}{:>8}{:>12}{:>16}{:>16}{:>16}{:>14}",
        "nodes", "jobs", "total SLO %", "cycle mean ms", "cycle p99 ms", "solver mean ms", "util %"
    );
    for (racks, per, jobs) in sizes {
        let cluster = Cluster::uniform(racks, per, racks / 4);
        let report = run_spec(&RunSpec {
            utilization: 1.15,
            slowdown: 2.0,
            ..RunSpec::new(
                Workload::GsHet,
                cluster.clone(),
                jobs,
                42,
                SchedulerKind::Tetri(TetriSchedConfig::default()),
            )
        });
        let m = &report.metrics;
        println!(
            "{:<12}{:>8}{:>12.1}{:>16.2}{:>16.2}{:>16.2}{:>14.1}",
            cluster.num_nodes(),
            jobs,
            m.total_slo_attainment(),
            m.cycle_latency.mean() * 1e3,
            m.cycle_latency.quantile(0.99) * 1e3,
            m.solver_latency.mean() * 1e3,
            m.utilization() * 100.0,
        );
    }
    println!(
        "\nExpectation (paper Sec. 7.3): cycle latency distribution stays \
         similar as the cluster scales, with no significant quality loss."
    );
}
