//! High-availability service placement with combinatorial constraints.
//!
//! Sec. 4 of the paper motivates `SCALE` and `BARRIER` with exactly this
//! scenario: "a request to place up to, but no more than, k0 borgmaster
//! servers in any given failure domain totaling k servers". The encoding:
//!
//! - one `LnCk(domain, k0, ..., v = k0)` per failure domain caps the
//!   replicas per domain at `k0` and yields one unit of value per replica
//!   obtained,
//! - a `sum` aggregates the per-domain counts,
//! - a `barrier(k, ...)` requires at least `k` replicas in total.
//!
//! The solver must therefore spread `k` replicas across domains with at
//! most `k0` in any one of them — or place nothing at all.
//!
//! Run: `cargo run --release --example availability_service`

#![deny(unsafe_code)]

use tetrisched::cluster::{Cluster, NodeSet, PartitionSet, RackId};
use tetrisched::core::{compile, CompileInput};
use tetrisched::milp::SolverConfig;
use tetrisched::strl::StrlExpr;

fn place(
    cluster: &Cluster,
    k: u32,
    k0: u32,
    dead_domain: Option<RackId>,
) -> Option<Vec<(RackId, u32)>> {
    // One LnCk per failure domain (rack), worth 1 per replica placed.
    let legs: Vec<StrlExpr> = (0..cluster.num_racks() as u32)
        .map(|r| StrlExpr::lnck(cluster.rack_nodes(RackId(r)).clone(), k0, 0, 100, k0 as f64))
        .collect();
    let expr = StrlExpr::barrier(k as f64, StrlExpr::Sum(legs));

    let sets: Vec<NodeSet> = (0..cluster.num_racks() as u32)
        .map(|r| cluster.rack_nodes(RackId(r)).clone())
        .collect();
    let partitions = PartitionSet::refine(cluster.num_nodes(), &sets);
    let input = CompileInput {
        expr: &expr,
        partitions: &partitions,
        now: 0,
        quantum: 100,
        n_slices: 1,
    };
    let avail = move |class: &NodeSet, _| {
        if let Some(dead) = dead_domain {
            if !class.is_disjoint(cluster.rack_nodes(dead)) {
                return 0;
            }
        }
        class.len()
    };
    let compiled = compile(&input, &avail).expect("compile");
    let sol = compiled.model.solve(&SolverConfig::exact()).expect("solve");
    if sol.objective < k as f64 - 1e-6 {
        return None; // The barrier could not be met.
    }
    let mut out = Vec::new();
    for c in compiled.chosen(&sol) {
        for &(class, count) in &c.counts {
            // Each partition class is a subset of exactly one rack here.
            let node = partitions.class(class).iter().next().expect("non-empty");
            out.push((cluster.rack_of(node), count));
        }
    }
    out.sort_by_key(|&(r, _)| r);
    Some(out)
}

fn main() {
    // 4 failure domains of 3 machines each.
    let cluster = Cluster::uniform(4, 3, 0);
    println!("cluster: 4 failure domains x 3 servers\n");

    for (k, k0) in [(5u32, 2u32), (8, 2), (4, 1), (9, 2)] {
        print!("place k={k} replicas, at most k0={k0} per domain: ");
        match place(&cluster, k, k0, None) {
            Some(spread) => {
                let desc: Vec<String> = spread.iter().map(|(r, n)| format!("{n} in {r}")).collect();
                println!("{}", desc.join(", "));
                assert!(spread.iter().all(|&(_, n)| n <= k0));
                assert_eq!(spread.iter().map(|&(_, n)| n).sum::<u32>(), k);
            }
            None => println!("infeasible (barrier unmet) — placed nothing"),
        }
    }

    // Tolerance to a failed domain: with rack 0 down, 5 replicas at <= 2
    // per domain still fit in the remaining 3 domains.
    println!("\nwith failure domain rack0 down:");
    match place(&cluster, 5, 2, Some(RackId(0))) {
        Some(spread) => {
            assert!(spread.iter().all(|&(r, _)| r != RackId(0)));
            let desc: Vec<String> = spread.iter().map(|(r, n)| format!("{n} in {r}")).collect();
            println!("  k=5, k0=2: {}", desc.join(", "));
        }
        None => println!("  k=5, k0=2: infeasible"),
    }
    // But 7 replicas cannot respect k0=2 across only 3 live domains.
    assert!(place(&cluster, 7, 2, Some(RackId(0))).is_none());
    println!("  k=7, k0=2: infeasible (correctly placed nothing)");
}
