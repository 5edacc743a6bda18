//! A small Fig. 11-style sweep: SLO attainment of the heterogeneous
//! GS HET workload as the plan-ahead window grows from zero (the
//! TetriSched-NP / alsched point) upward.
//!
//! Run: `cargo run --release --example plan_ahead_sweep`

#![deny(unsafe_code)]

use tetrisched::cluster::Cluster;
use tetrisched::core::{TetriSched, TetriSchedConfig};
use tetrisched::sim::{SimConfig, Simulator};
use tetrisched::workloads::{GridmixConfig, Workload, WorkloadBuilder};

fn main() {
    let cluster = Cluster::uniform(4, 5, 1); // 20 nodes, 1 GPU rack
    let builder = WorkloadBuilder::new(GridmixConfig {
        seed: 11,
        num_jobs: 25,
        cluster_size: cluster.num_nodes(),
        ..GridmixConfig::default()
    });
    let jobs = builder.generate(Workload::GsHet);
    println!(
        "GS HET: {} jobs on {} nodes (GPU + MPI SLO jobs, unconstrained BE)\n",
        jobs.len(),
        cluster.num_nodes()
    );
    println!(
        "{:<14}{:>14}{:>14}{:>16}{:>18}",
        "plan-ahead", "total SLO %", "accepted %", "BE latency (s)", "solver mean (ms)"
    );
    for plan_ahead in [0u64, 16, 32, 64, 96] {
        let report = Simulator::new(
            cluster.clone(),
            TetriSched::new(TetriSchedConfig::full(plan_ahead)),
            SimConfig::default(),
        )
        .run(jobs.clone());
        let m = &report.metrics;
        println!(
            "{:<14}{:>14.1}{:>14.1}{:>16.1}{:>18.2}",
            plan_ahead,
            m.total_slo_attainment(),
            m.accepted_slo_attainment(),
            m.be_mean_latency(),
            m.solver_latency.mean() * 1e3,
        );
    }
    println!("\nplan-ahead = 0 emulates alsched (TetriSched-NP, Sec. 6.3).");
}
