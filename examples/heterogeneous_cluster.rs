//! The Fig. 1 toy cluster: 2 racks x 2 servers, rack 0 GPU-enabled, and
//! three jobs with very different placement preferences:
//!
//! - an **Availability** job that wants one server on *each* rack
//!   (anti-affinity, expressed with `min`),
//! - an **MPI** job that runs faster with both servers on one rack
//!   (combinatorial soft constraint, `max` over racks),
//! - a **GPU** job that runs faster on GPU servers (`max` over a GPU
//!   option and an anywhere fallback).
//!
//! The example prints each job's STRL expression and the globally optimal
//! placement.
//!
//! Run: `cargo run --release --example heterogeneous_cluster`

#![deny(unsafe_code)]

use tetrisched::cluster::{Cluster, NodeSet, PartitionSet, RackId};
use tetrisched::core::{compile, CompileInput};
use tetrisched::milp::SolverConfig;
use tetrisched::strl::StrlExpr;

fn main() {
    let cluster = Cluster::fig1_toy();
    let rack0 = cluster.rack_nodes(RackId(0)).clone();
    let rack1 = cluster.rack_nodes(RackId(1)).clone();
    let gpus = cluster.nodes_with_attr(&tetrisched::cluster::Attr::gpu());
    let all = cluster.all_nodes();

    // Availability job: one task per rack, 3 time units either way.
    let availability = StrlExpr::min([
        StrlExpr::nck(rack0.clone(), 1, 0, 3, 3.0),
        StrlExpr::nck(rack1.clone(), 1, 0, 3, 3.0),
    ]);
    // MPI job: 2 time units rack-local, 3 spread.
    let mpi = StrlExpr::max([
        StrlExpr::nck(rack0.clone(), 2, 0, 2, 4.0),
        StrlExpr::nck(rack1.clone(), 2, 0, 2, 4.0),
        StrlExpr::nck(all.clone(), 2, 0, 3, 3.0),
    ]);
    // GPU job: 2 time units on GPUs, 3 anywhere (Fig. 3).
    let gpu = StrlExpr::max([
        StrlExpr::nck(gpus.clone(), 2, 0, 2, 4.0),
        StrlExpr::nck(all.clone(), 2, 0, 3, 3.0),
    ]);

    for (name, e) in [
        ("availability", &availability),
        ("mpi", &mpi),
        ("gpu", &gpu),
    ] {
        println!("{name}: {e}");
    }

    // Enumerate start times 0..4 for the GPU job to show space-time
    // elasticity, then schedule everything globally.
    let mut gpu_starts = Vec::new();
    for s in 0..4u64 {
        gpu_starts.push(StrlExpr::nck(gpus.clone(), 2, s, 2, 4.0 - 0.1 * s as f64));
        gpu_starts.push(StrlExpr::nck(all.clone(), 2, s, 3, 3.0 - 0.1 * s as f64));
    }
    let global = StrlExpr::sum([availability, mpi, StrlExpr::Max(gpu_starts)]);

    let sets = [rack0, rack1, gpus, all];
    let partitions = PartitionSet::refine(cluster.num_nodes(), &sets);
    println!(
        "\npartition refinement: {} classes from {} equivalence sets",
        partitions.len(),
        sets.len()
    );

    let input = CompileInput {
        expr: &global,
        partitions: &partitions,
        now: 0,
        quantum: 1,
        n_slices: 8,
    };
    let avail = |set: &NodeSet, _| set.len();
    let compiled = compile(&input, &avail).expect("compile");
    let sol = compiled.model.solve(&SolverConfig::exact()).expect("solve");

    println!(
        "MILP: {} vars, {} constraints -> objective {:.1}\n",
        compiled.model.num_vars(),
        compiled.model.num_constraints(),
        sol.objective
    );
    println!("chosen space-time allocations:");
    for c in compiled.chosen(&sol) {
        let leaf = &compiled.leaves[c.leaf];
        let counts: Vec<String> = c
            .counts
            .iter()
            .map(|&(class, n)| format!("{n} of {}", partitions.class(class)))
            .collect();
        println!(
            "  t={}..{}: {}",
            leaf.start,
            leaf.start + leaf.dur,
            counts.join(" + ")
        );
    }
}
