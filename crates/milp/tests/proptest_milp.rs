//! Property-based tests: the branch-and-bound solver must agree with
//! exhaustive enumeration on randomly generated small MILPs, and every
//! returned assignment must be feasible.

use proptest::prelude::*;
use tetrisched_milp::{
    ExactBackend, HeuristicBackend, MilpBackend, Model, Sense, SolveStatus, SolverConfig, VarKind,
};

/// A randomly generated small MILP over binary variables with `<=`
/// constraints and nonnegative right-hand sides (hence always feasible at
/// the origin).
#[derive(Debug, Clone)]
struct RandomMilp {
    n: usize,
    obj: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
}

fn random_milp() -> impl Strategy<Value = RandomMilp> {
    (2usize..7).prop_flat_map(|n| {
        let obj = proptest::collection::vec(-5.0..10.0f64, n);
        let rows = proptest::collection::vec(
            (proptest::collection::vec(-3.0..5.0f64, n), 0.0..8.0f64),
            1..5,
        );
        (Just(n), obj, rows).prop_map(|(n, obj, rows)| RandomMilp { n, obj, rows })
    })
}

/// The shape STRL compilation emits, small enough to enumerate: a valueless
/// gate binary, one to three jobs of one to three valued options each under
/// a choose-at-most-one row, one row tying every option to the gate, and one
/// to three knapsack rows the options share. The root relaxation splits jobs
/// between options and leaves the gate fractional, which is what the dive's
/// support, hold and failed-probe rules read.
fn compiled_shape() -> impl Strategy<Value = RandomMilp> {
    let jobs = proptest::collection::vec(proptest::collection::vec(1.0..10.0f64, 1..4), 1..4);
    jobs.prop_flat_map(|jobs| {
        let n = 1 + jobs.iter().map(Vec::len).sum::<usize>();
        let knapsacks =
            proptest::collection::vec((proptest::collection::vec(0u32..5, n - 1), 2u32..9), 1..4);
        (Just(jobs), knapsacks).prop_map(move |(jobs, knapsacks)| {
            let mut obj = vec![0.0];
            let mut rows = Vec::new();
            for values in &jobs {
                let mut choice = vec![0.0; n];
                choice[obj.len()..obj.len() + values.len()].fill(1.0);
                rows.push((choice, 1.0));
                obj.extend(values);
            }
            let mut gate = vec![1.0; n];
            gate[0] = -(jobs.len() as f64);
            rows.push((gate, 0.0));
            for (weights, cap) in knapsacks {
                let row = std::iter::once(0.0)
                    .chain(weights.into_iter().map(f64::from))
                    .collect();
                rows.push((row, f64::from(cap)));
            }
            RandomMilp { n, obj, rows }
        })
    })
}

fn build(m: &RandomMilp) -> Model {
    let mut model = Model::maximize();
    let vars: Vec<_> = (0..m.n)
        .map(|j| model.add_binary(format!("x{j}"), m.obj[j]))
        .collect();
    for (i, (coeffs, rhs)) in m.rows.iter().enumerate() {
        model.add_constraint(
            format!("c{i}"),
            vars.iter().cloned().zip(coeffs.iter().cloned()),
            Sense::Le,
            *rhs,
        );
    }
    model
}

/// Exhaustive optimum over all 2^n binary assignments.
fn brute_force(m: &RandomMilp) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for mask in 0u32..(1 << m.n) {
        let x: Vec<f64> = (0..m.n)
            .map(|j| if mask & (1 << j) != 0 { 1.0 } else { 0.0 })
            .collect();
        let feasible = m.rows.iter().all(|(coeffs, rhs)| {
            let lhs: f64 = coeffs.iter().zip(&x).map(|(c, v)| c * v).sum();
            lhs <= rhs + 1e-9
        });
        if feasible {
            let obj: f64 = m.obj.iter().zip(&x).map(|(c, v)| c * v).sum();
            best = best.max(obj);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn solver_matches_brute_force(m in random_milp()) {
        let model = build(&m);
        let sol = model.solve(&SolverConfig::exact()).unwrap();
        let best = brute_force(&m);
        // The origin is always feasible, so a solution must exist.
        prop_assert_eq!(sol.status, SolveStatus::Optimal);
        prop_assert!(model.is_feasible(&sol.values, 1e-6),
            "returned assignment infeasible: {:?}", sol.values);
        prop_assert!((sol.objective - best).abs() < 1e-6,
            "solver {} != brute force {}", sol.objective, best);
    }

    #[test]
    fn gap_solutions_are_within_gap(m in random_milp()) {
        let model = build(&m);
        let sol = model.solve(&SolverConfig::exact().with_rel_gap(0.25)).unwrap();
        let best = brute_force(&m);
        prop_assert!(sol.status.has_solution());
        prop_assert!(model.is_feasible(&sol.values, 1e-6));
        // Incumbent must be within 25% of the true optimum.
        prop_assert!(sol.objective >= best - 0.25 * best.abs().max(1.0) - 1e-6,
            "gap solution {} too far from optimum {}", sol.objective, best);
    }

    /// Every node budget's claims, against the oracle rather than against
    /// the solve's own certificate: a returned point is feasible and no
    /// better than the optimum, the claimed bound is no lower than it, the
    /// audit replays clean, only a finite budget may come back
    /// empty-handed, and an unlimited one returns the optimum. Half the
    /// cases have the compiled shape, where the dive's rules have
    /// something to read.
    #[test]
    fn every_budget_claims_hold_against_brute_force(
        m in prop_oneof![random_milp(), compiled_shape()],
    ) {
        let model = build(&m);
        let best = brute_force(&m);
        let cfg = SolverConfig::exact().with_rel_gap(0.0).with_audit(true);
        let budgets: [(Option<usize>, Box<dyn MilpBackend>); 4] = [
            (Some(0), Box::new(HeuristicBackend::new(cfg.clone()))),
            (Some(1), Box::new(ExactBackend::new(cfg.clone().with_node_limit(1)))),
            (Some(4), Box::new(ExactBackend::new(cfg.clone().with_node_limit(4)))),
            (None, Box::new(ExactBackend::new(cfg))),
        ];
        for (budget, backend) in budgets {
            let sol = backend.solve(&model, None).unwrap();
            prop_assert_eq!(sol.stats.certificate_failures, 0, "budget {:?}", budget);
            prop_assert!(sol.stats.certificates_verified > 0, "budget {:?}", budget);
            prop_assert!(budget.is_none_or(|b| sol.stats.nodes <= b), "budget {:?}", budget);
            if sol.status.has_solution() {
                prop_assert!(model.is_feasible(&sol.values, 1e-6), "budget {:?}", budget);
                prop_assert!(sol.objective <= best + 1e-6,
                    "budget {:?}: point {} beats the optimum {}", budget, sol.objective, best);
                prop_assert!(sol.stats.best_bound >= best - 1e-6,
                    "budget {:?}: bound {} undercuts the optimum {}",
                    budget, sol.stats.best_bound, best);
            } else {
                // The origin is feasible, so only a spent budget explains it.
                prop_assert_eq!(sol.status, SolveStatus::NoSolutionFound);
                prop_assert!(budget.is_some(), "unlimited search found nothing");
            }
            if budget.is_none() {
                prop_assert_eq!(sol.status, SolveStatus::Optimal);
                prop_assert!((sol.objective - best).abs() < 1e-6,
                    "solver {} != brute force {}", sol.objective, best);
            }
        }
    }

    #[test]
    fn warm_start_never_hurts(m in random_milp()) {
        let model = build(&m);
        let zero = vec![0.0; m.n];
        let sol = model.solve_warm(&SolverConfig::exact(), &zero).unwrap();
        let best = brute_force(&m);
        prop_assert_eq!(sol.status, SolveStatus::Optimal);
        prop_assert!((sol.objective - best).abs() < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mixed-integer instances: binaries plus one continuous variable that
    /// soaks up leftover capacity; LP-feasibility of the result is the
    /// invariant under test.
    #[test]
    fn mixed_instances_return_feasible(
        m in random_milp(),
        cap in 1.0..6.0f64,
    ) {
        let mut model = build(&m);
        let z = model.add_var("z", VarKind::Continuous, 0.0, cap, 0.5);
        model.add_constraint("zcap", [(z, 1.0)], Sense::Le, cap);
        let sol = model.solve(&SolverConfig::exact()).unwrap();
        prop_assert_eq!(sol.status, SolveStatus::Optimal);
        prop_assert!(model.is_feasible(&sol.values, 1e-6));
        // z has positive objective weight and its own slack capacity, so it
        // must sit at its upper bound.
        prop_assert!((sol.value(z) - cap).abs() < 1e-6);
    }

    /// Equality-constrained instances in the shape STRL compilation emits:
    /// P = k*I demand rows plus supply caps.
    #[test]
    fn gang_demand_shape(k in 1i64..4, cap in 0i64..6, value in 0.5..10.0f64) {
        let mut model = Model::maximize();
        let i = model.add_binary("I", value);
        let p = model.add_var("P", VarKind::Integer, 0.0, 16.0, 0.0);
        model.add_constraint("demand", [(p, 1.0), (i, -(k as f64))], Sense::Eq, 0.0);
        model.add_constraint("supply", [(p, 1.0)], Sense::Le, cap as f64);
        let sol = model.solve(&SolverConfig::exact()).unwrap();
        prop_assert_eq!(sol.status, SolveStatus::Optimal);
        if cap >= k {
            prop_assert!(sol.is_set(i));
            prop_assert_eq!(sol.int_value(p), k);
        } else {
            prop_assert!(!sol.is_set(i));
            prop_assert_eq!(sol.int_value(p), 0);
        }
    }
}
