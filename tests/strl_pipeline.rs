//! Integration of the STRL pipeline: expression -> partition refinement ->
//! MILP compile -> solve -> extract.

use tetrisched::cluster::{NodeId, NodeSet, PartitionSet};
use tetrisched::core::{compile, CompileInput};
use tetrisched::milp::SolverConfig;
use tetrisched::strl::StrlExpr;

const UNIVERSE: usize = 4;

/// The node set `{M<id>, ...}` of the four-node universe.
fn set(ids: &[u32]) -> NodeSet {
    NodeSet::from_ids(UNIVERSE, ids.iter().map(|&i| NodeId(i)))
}

fn pipeline(expr: &StrlExpr, cap: usize) -> (f64, usize) {
    let mut sets = Vec::new();
    expr.visit(&mut |e| {
        if let StrlExpr::NCk { set, .. } | StrlExpr::LnCk { set, .. } = e {
            sets.push(set.clone());
        }
    });
    let partitions = PartitionSet::refine(UNIVERSE, &sets);
    let input = CompileInput {
        expr,
        partitions: &partitions,
        now: 0,
        quantum: 1,
        n_slices: 16,
    };
    let avail = move |_: &NodeSet, _| cap;
    let compiled = compile(&input, &avail).expect("compile");
    let sol = compiled.model.solve(&SolverConfig::exact()).expect("solve");
    (sol.objective, compiled.chosen(&sol).len())
}

#[test]
fn fig3_schedules_on_gpus() {
    let (obj, chosen) = pipeline(
        &StrlExpr::max([
            StrlExpr::nck(set(&[0, 1]), 2, 0, 2, 4.0),
            StrlExpr::nck(set(&[0, 1, 2, 3]), 2, 0, 3, 3.0),
        ]),
        4,
    );
    assert_eq!(obj, 4.0);
    assert_eq!(chosen, 1);
}

#[test]
fn global_batch() {
    // Two jobs, each 3 of 4 nodes at t=0: only one fits; the other's
    // deferred replica at t=5 carries slightly less value.
    let job = || {
        StrlExpr::max([
            StrlExpr::nck(set(&[0, 1, 2, 3]), 3, 0, 5, 2.0),
            StrlExpr::nck(set(&[0, 1, 2, 3]), 3, 5, 5, 1.9),
        ])
    };
    let (obj, chosen) = pipeline(&StrlExpr::sum([job(), job()]), 4);
    assert!((obj - 3.9).abs() < 1e-9, "one now + one deferred: {obj}");
    assert_eq!(chosen, 2);
}

#[test]
fn compile_fixes_the_unsatisfiable_leaf_dead() {
    // The second branch is infeasible (k > |set|): compile fixes that leaf
    // at zero, and the pipeline still solves the remaining branch.
    let (obj, chosen) = pipeline(
        &StrlExpr::max([
            StrlExpr::nck(set(&[0]), 1, 0, 2, 1.0),
            StrlExpr::nck(set(&[1]), 5, 0, 2, 9.0),
        ]),
        4,
    );
    assert_eq!(obj, 1.0);
    assert_eq!(chosen, 1);
}

#[test]
fn anti_affinity_with_barrier_threshold() {
    // Both rack legs must be satisfied and the total must reach the
    // barrier threshold.
    let (obj, _) = pipeline(
        &StrlExpr::barrier(
            3.0,
            StrlExpr::min([
                StrlExpr::nck(set(&[0, 1]), 1, 0, 2, 3.0),
                StrlExpr::nck(set(&[2, 3]), 1, 0, 2, 3.0),
            ]),
        ),
        4,
    );
    assert_eq!(obj, 3.0);
}

#[test]
fn scaled_linear_leaf_partial_value() {
    // LnCk over 4 nodes asking 8, scaled by 2: value 2 * (4/8) * 6 = 6.
    let (obj, chosen) = pipeline(
        &StrlExpr::scale(2.0, StrlExpr::lnck(set(&[0, 1, 2, 3]), 8, 0, 2, 6.0)),
        4,
    );
    assert!((obj - 6.0).abs() < 1e-9, "obj {obj}");
    assert_eq!(chosen, 1);
}
