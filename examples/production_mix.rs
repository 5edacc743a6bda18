//! A miniature GR MIX experiment: a production-derived mixture of SLO and
//! best-effort jobs (Table 1) simulated under both scheduler stacks —
//! Rayon/TetriSched and Rayon/CapacityScheduler — with the paper's four
//! success metrics printed side by side (Sec. 6.3).
//!
//! Run: `cargo run --release --example production_mix`

#![deny(unsafe_code)]

use tetrisched::baseline::CapacityScheduler;
use tetrisched::cluster::Cluster;
use tetrisched::core::{TetriSched, TetriSchedConfig};
use tetrisched::sim::{SimConfig, SimReport, Simulator};
use tetrisched::workloads::{GridmixConfig, Workload, WorkloadBuilder};

fn run(name: &str, report: &SimReport) {
    let m = &report.metrics;
    println!(
        "{name:<14} accepted-SLO {:>5.1}%  total-SLO {:>5.1}%  w/o-res {:>5.1}%  \
         BE latency {:>6.1}s  util {:>4.1}%  preemptions {}",
        m.accepted_slo_attainment(),
        m.total_slo_attainment(),
        m.nores_slo_attainment(),
        m.be_mean_latency(),
        m.utilization() * 100.0,
        m.preemptions,
    );
}

fn main() {
    let cluster = Cluster::uniform(4, 8, 1); // 32 nodes, 1 GPU rack
    let builder = WorkloadBuilder::new(GridmixConfig {
        seed: 7,
        num_jobs: 40,
        cluster_size: cluster.num_nodes(),
        target_utilization: 1.0,
        estimate_error: 0.0,
        error_jitter: 0.0,
        slowdown: 1.5,
    });
    // Jobs arrive with under-estimated runtimes: the regime where the
    // baseline's static reservation plan goes wrong (Sec. 7.1).
    let jobs = builder.with_estimate_error(Workload::GrMix, -0.2);

    println!(
        "GR MIX: {} jobs on {} nodes, estimate error -20%\n",
        jobs.len(),
        cluster.num_nodes()
    );

    let ts = Simulator::new(
        cluster.clone(),
        TetriSched::new(TetriSchedConfig::default()),
        SimConfig::default(),
    )
    .run(jobs.clone());
    run("tetrisched", &ts);

    let cs = Simulator::new(
        cluster,
        CapacityScheduler::paper_default(),
        SimConfig::default(),
    )
    .run(jobs);
    run("rayon-cs", &cs);

    println!(
        "\nTetriSched re-plans every cycle and bumps under-estimates upward \
         instead of demoting jobs to the best-effort queue."
    );
}
