//! Solve-level certificate properties: every terminal solver status must
//! carry a certificate that verifies, and the STRL→MILP translation must
//! round-trip exactly for trees without relaxed operators.

use proptest::prelude::*;
use tetrisched::cluster::{NodeId, NodeSet, PartitionSet};
use tetrisched::core::{compile, CompileInput};
use tetrisched::lint::validate_translation;
use tetrisched::milp::{certify_solution, Model, Sense, SolveStatus, SolverConfig, VarKind};
use tetrisched::strl::StrlExpr;

fn audited() -> SolverConfig {
    SolverConfig::exact().with_audit(true)
}

/// A random mixed-integer model. `Ge` demand rows can exceed what the box
/// admits, so both feasible and infeasible instances are generated.
#[derive(Debug, Clone)]
struct RandomMilp {
    obj: Vec<f64>,
    kinds: Vec<u8>,
    ub: Vec<f64>,
    caps: Vec<(Vec<f64>, f64)>,
    demand: Option<(Vec<f64>, f64)>,
}

fn random_milp() -> impl Strategy<Value = RandomMilp> {
    (2usize..6).prop_flat_map(|n| {
        (
            proptest::collection::vec(-3.0..6.0f64, n),
            proptest::collection::vec(0u8..3, n),
            proptest::collection::vec(1.0..4.0f64, n),
            proptest::collection::vec(
                (proptest::collection::vec(0.0..3.0f64, n), 1.0..10.0f64),
                1..4,
            ),
            proptest::option::of((proptest::collection::vec(0.0..2.0f64, n), 0.5..24.0f64)),
        )
            .prop_map(|(obj, kinds, ub, caps, demand)| RandomMilp {
                obj,
                kinds,
                ub,
                caps,
                demand,
            })
    })
}

fn build(milp: &RandomMilp) -> Model {
    let mut m = Model::maximize();
    let vars: Vec<_> = milp
        .obj
        .iter()
        .zip(&milp.kinds)
        .zip(&milp.ub)
        .enumerate()
        .map(|(j, ((&obj, &kind), &ub))| {
            let kind = match kind {
                0 => VarKind::Binary,
                1 => VarKind::Integer,
                _ => VarKind::Continuous,
            };
            m.add_var(format!("x{j}"), kind, 0.0, ub, obj)
        })
        .collect();
    for (i, (coeffs, rhs)) in milp.caps.iter().enumerate() {
        m.add_constraint(
            format!("cap{i}"),
            vars.iter().cloned().zip(coeffs.iter().cloned()),
            Sense::Le,
            *rhs,
        );
    }
    if let Some((coeffs, rhs)) = &milp.demand {
        m.add_constraint(
            "demand",
            vars.iter().cloned().zip(coeffs.iter().cloned()),
            Sense::Ge,
            *rhs,
        );
    }
    m
}

/// One placement option: `(k, start, dur, value, linear)`.
type JobOption = (u32, u64, u64, f64, bool);

/// A random relaxation-free STRL tree (`sum` of per-job `max` choices over
/// `nck`/`lnck` leaves) plus the cluster capacity it compiles against.
#[derive(Debug, Clone)]
struct RandomStrl {
    cap: usize,
    jobs: Vec<Vec<JobOption>>,
}

fn random_strl() -> impl Strategy<Value = RandomStrl> {
    (3usize..6).prop_flat_map(|cap| {
        (
            Just(cap),
            proptest::collection::vec(
                proptest::collection::vec(
                    (
                        1..cap as u32 + 1,
                        0u64..3,
                        1u64..4,
                        0.5..8.0f64,
                        proptest::bool::ANY,
                    ),
                    1..4,
                ),
                1..4,
            ),
        )
            .prop_map(|(cap, jobs)| RandomStrl { cap, jobs })
    })
}

fn build_expr(strl: &RandomStrl) -> StrlExpr {
    let all = NodeSet::from_ids(strl.cap, (0..strl.cap as u32).map(NodeId));
    StrlExpr::sum(strl.jobs.iter().map(|options| {
        StrlExpr::max(options.iter().map(|&(k, start, dur, value, linear)| {
            if linear {
                StrlExpr::lnck(all.clone(), k, start, dur, value)
            } else {
                StrlExpr::nck(all.clone(), k, start, dur, value)
            }
        }))
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever the terminal status, an audited solve self-certifies and
    /// re-verifies independently: Optimal and Infeasible claims both carry
    /// checkable proofs.
    #[test]
    fn every_terminal_status_certifies(milp in random_milp()) {
        let m = build(&milp);
        let sol = m.solve(&audited()).unwrap();
        prop_assert!(
            matches!(sol.status, SolveStatus::Optimal | SolveStatus::Infeasible),
            "exact solve must settle: {:?}", sol.status
        );
        prop_assert!(sol.stats.certificates_verified > 0, "solver did not self-certify");
        prop_assert_eq!(sol.stats.certificate_failures, 0, "self-certification failed");
        let report = certify_solution(&m, &sol);
        prop_assert!(
            report.passed(),
            "independent re-verification failed: {:?}", report.diagnostics
        );
    }

    /// Compiling a relaxation-free STRL tree and decoding the solution
    /// back yields a placement whose STRL valuation equals the MILP
    /// objective, under the proven bound.
    #[test]
    fn translation_round_trips_exactly(strl in random_strl()) {
        let expr = build_expr(&strl);
        let all = NodeSet::from_ids(strl.cap, (0..strl.cap as u32).map(NodeId));
        let partitions = PartitionSet::refine(strl.cap, std::slice::from_ref(&all));
        let input = CompileInput {
            expr: &expr,
            partitions: &partitions,
            now: 0,
            quantum: 1,
            n_slices: 8,
        };
        let cap = strl.cap;
        let compiled = compile(&input, &move |_, _| cap).unwrap();
        let sol = compiled.model.solve(&audited()).unwrap();
        prop_assert_eq!(sol.status, SolveStatus::Optimal, "free root: always feasible");
        let granted = compiled.granted(&sol);
        let valuation = validate_translation(&expr, &granted, sol.objective, sol.stats.best_bound)
            .map_err(|d| TestCaseError::fail(format!("translation validation: {d}")))?;
        prop_assert!(
            (valuation - sol.objective).abs() <= 1e-6 * (1.0 + valuation.abs()),
            "valuation {} vs objective {}", valuation, sol.objective
        );
    }
}
