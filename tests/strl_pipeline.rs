//! Integration of the STRL pipeline: text -> parse -> partition
//! refinement -> MILP compile -> solve -> extract.

use tetrisched::cluster::{NodeSet, PartitionSet};
use tetrisched::core::{compile, CompileInput};
use tetrisched::milp::SolverConfig;
use tetrisched::strl::{parse, StrlExpr};

fn pipeline(text: &str, universe: usize, cap: usize) -> (f64, usize) {
    let expr = parse(text, universe).expect("parse");
    let mut sets = Vec::new();
    expr.visit(&mut |e| {
        if let StrlExpr::NCk { set, .. } | StrlExpr::LnCk { set, .. } = e {
            sets.push(set.clone());
        }
    });
    let partitions = PartitionSet::refine(universe, &sets);
    let input = CompileInput {
        expr: &expr,
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
fn textual_fig3_schedules_on_gpus() {
    let (obj, chosen) = pipeline(
        "max(nCk({M0, M1}, k=2, s=0, dur=2, v=4), \
             nCk({M0, M1, M2, M3}, k=2, s=0, dur=3, v=3))",
        4,
        4,
    );
    assert_eq!(obj, 4.0);
    assert_eq!(chosen, 1);
}

#[test]
fn textual_global_batch() {
    // Two jobs, each 3 of 4 nodes at t=0: only one fits; the other's
    // deferred replica at t=5 carries slightly less value.
    let (obj, chosen) = pipeline(
        "sum(max(nCk({M0, M1, M2, M3}, k=3, s=0, dur=5, v=2), \
                 nCk({M0, M1, M2, M3}, k=3, s=5, dur=5, v=1.9)), \
             max(nCk({M0, M1, M2, M3}, k=3, s=0, dur=5, v=2), \
                 nCk({M0, M1, M2, M3}, k=3, s=5, dur=5, v=1.9)))",
        4,
        4,
    );
    assert!((obj - 3.9).abs() < 1e-9, "one now + one deferred: {obj}");
    assert_eq!(chosen, 2);
}

#[test]
fn compile_fixes_the_unsatisfiable_leaf_dead() {
    // The second branch is infeasible (k > |set|): compile fixes that leaf
    // at zero, and the pipeline still solves the remaining branch.
    let (obj, chosen) = pipeline(
        "max(nCk({M0}, k=1, s=0, dur=2, v=1), nCk({M1}, k=5, s=0, dur=2, v=9))",
        4,
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
        "barrier(3, min(nCk({M0, M1}, k=1, s=0, dur=2, v=3), \
                        nCk({M2, M3}, k=1, s=0, dur=2, v=3)))",
        4,
        4,
    );
    assert_eq!(obj, 3.0);
}

#[test]
fn scaled_linear_leaf_partial_value() {
    // LnCk over 4 nodes asking 8, scaled by 2: value 2 * (4/8) * 6 = 6.
    let (obj, chosen) = pipeline(
        "scale(2, LnCk({M0, M1, M2, M3}, k=8, s=0, dur=2, v=6))",
        4,
        4,
    );
    assert!((obj - 6.0).abs() < 1e-9, "obj {obj}");
    assert_eq!(chosen, 1);
}
