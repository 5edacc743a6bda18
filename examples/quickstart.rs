//! Quickstart: the paper's Sec. 5.1 example, end to end.
//!
//! Three jobs arrive on a 3-machine cluster:
//!
//! 1. a short, urgent job: 2 machines for 10 s, deadline 10 s,
//! 2. a long, small job: 1 machine for 20 s, deadline 40 s,
//! 3. a short, large job: 3 machines for 10 s, deadline 20 s.
//!
//! The only way to meet every deadline is *global* scheduling with
//! *plan-ahead*: job 1 now, job 3 at t=10, job 2 at t=20 (Fig. 4). This
//! example builds the STRL expressions, compiles them to a MILP with
//! Algorithm 1, solves with the in-repo branch-and-bound, asserts that the
//! solver found Fig. 4's plan, and prints it.
//!
//! Run: `cargo run --release --example quickstart`

#![deny(unsafe_code)]

use tetrisched::cluster::{Cluster, NodeSet, PartitionSet};
use tetrisched::core::{compile, CompileInput};
use tetrisched::milp::SolverConfig;
use tetrisched::strl::StrlExpr;

fn main() {
    let cluster = Cluster::three_machines();
    let all = cluster.all_nodes();

    // Job 1 has no start-time flexibility; jobs 2 and 3 enumerate their
    // feasible start times (deadline-culled) under a `max`.
    let job1 = StrlExpr::nck(all.clone(), 2, 0, 10, 1.0);
    let job2 = StrlExpr::max([
        StrlExpr::nck(all.clone(), 1, 0, 20, 1.0),
        StrlExpr::nck(all.clone(), 1, 10, 20, 1.0),
        StrlExpr::nck(all.clone(), 1, 20, 20, 1.0),
    ]);
    let job3 = StrlExpr::max([
        StrlExpr::nck(all.clone(), 3, 0, 10, 1.0),
        StrlExpr::nck(all.clone(), 3, 10, 10, 1.0),
    ]);

    // Leaves are numbered in pre-order, so each job owns a contiguous run
    // of leaf indices.
    let jobs = [job1, job2, job3];
    let job_of_leaf: Vec<usize> = (1..)
        .zip(&jobs)
        .flat_map(|(job, expr)| std::iter::repeat_n(job, expr.leaf_count()))
        .collect();

    // Global scheduling: batch all pending jobs under one `sum`.
    let global = StrlExpr::sum(jobs);
    println!("global STRL expression:\n  {global}\n");

    // One equivalence set (every machine is interchangeable here), so
    // partition refinement yields a single class.
    let partitions = PartitionSet::refine(cluster.num_nodes(), &[all]);
    let input = CompileInput {
        expr: &global,
        partitions: &partitions,
        now: 0,
        quantum: 10,
        n_slices: 4,
    };
    // The whole cluster is idle: 3 machines available at every slice.
    let avail = |_: &NodeSet, _| 3usize;
    let compiled = compile(&input, &avail).expect("compile");
    println!(
        "compiled MILP: {} variables ({} integer), {} constraints",
        compiled.model.num_vars(),
        compiled.model.num_integer_vars(),
        compiled.model.num_constraints()
    );

    let sol = compiled.model.solve(&SolverConfig::exact()).expect("solve");
    let mut chosen: Vec<_> = compiled
        .chosen(&sol)
        .iter()
        .map(|c| (job_of_leaf[c.leaf], &compiled.leaves[c.leaf]))
        .collect();
    chosen.sort_by_key(|&(job, _)| job);
    let starts: Vec<(usize, u64)> = chosen.iter().map(|&(job, l)| (job, l.start)).collect();
    assert!(
        (sol.objective - 3.0).abs() < 1e-9,
        "objective {} != 3: not every job is satisfied",
        sol.objective
    );
    assert_eq!(starts, [(1, 0), (2, 20), (3, 10)], "not Fig. 4's plan");

    println!("objective = {} (all three jobs satisfied)\n", sol.objective);
    println!("schedule:");
    for (job, leaf) in chosen {
        println!(
            "  job {job} -> start t={:<2} k={} dur={}s",
            leaf.start, leaf.k, leaf.dur
        );
    }
    println!("\n(matches Fig. 4: job1 @ 0, job2 @ 20, job3 @ 10)");
}
