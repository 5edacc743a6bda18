//! LP-level property tests: the simplex optimum must dominate every
//! randomly sampled feasible point, returned solutions must satisfy all
//! constraints, and a re-solve from the held basis must agree with a cold
//! solve of the same bounds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tetrisched_milp::certify::bounded_model;
use tetrisched_milp::{
    dual_bound, verify_farkas, LpOutcome, Model, Sense, Simplex, VarId, VarKind,
};

#[derive(Debug, Clone)]
struct RandomLp {
    n: usize,
    obj: Vec<f64>,
    ub: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
    seed: u64,
}

fn random_lp() -> impl Strategy<Value = RandomLp> {
    (2usize..8).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(-4.0..8.0f64, n),
            proptest::collection::vec(0.5..6.0f64, n),
            proptest::collection::vec(
                (proptest::collection::vec(0.0..4.0f64, n), 1.0..20.0f64),
                1..6,
            ),
            0u64..1000,
        )
            .prop_map(|(n, obj, ub, rows, seed)| RandomLp {
                n,
                obj,
                ub,
                rows,
                seed,
            })
    })
}

fn build(lp: &RandomLp) -> Model {
    let mut m = Model::maximize();
    let vars: Vec<_> = (0..lp.n)
        .map(|j| {
            m.add_var(
                format!("x{j}"),
                VarKind::Continuous,
                0.0,
                lp.ub[j],
                lp.obj[j],
            )
        })
        .collect();
    for (i, (coeffs, rhs)) in lp.rows.iter().enumerate() {
        m.add_constraint(
            format!("c{i}"),
            vars.iter().cloned().zip(coeffs.iter().cloned()),
            Sense::Le,
            *rhs,
        );
    }
    m
}

/// Samples a feasible point by drawing inside the box and scaling down
/// until all rows hold (coefficients are nonnegative, so scaling toward
/// the origin preserves feasibility).
fn sample_feasible(lp: &RandomLp, rng: &mut StdRng) -> Vec<f64> {
    let mut x: Vec<f64> = (0..lp.n).map(|j| rng.random::<f64>() * lp.ub[j]).collect();
    for (coeffs, rhs) in &lp.rows {
        let lhs: f64 = coeffs.iter().zip(&x).map(|(c, v)| c * v).sum();
        if lhs > *rhs {
            let scale = rhs / lhs;
            for v in x.iter_mut() {
                *v *= scale;
            }
        }
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn lp_optimum_dominates_random_feasible_points(lp in random_lp()) {
        let model = build(&lp);
        let out = Simplex::default().solve(&model).unwrap();
        // Nonnegative coefficients + finite upper bounds: always feasible
        // (origin) and bounded.
        let LpOutcome::Optimal { objective, values, .. } = out else {
            return Err(TestCaseError::fail("expected optimal"));
        };
        prop_assert!(model.is_feasible(&values, 1e-6),
            "optimum not feasible: {:?}", values);
        let mut rng = StdRng::seed_from_u64(lp.seed);
        for _ in 0..50 {
            let x = sample_feasible(&lp, &mut rng);
            let obj: f64 = lp.obj.iter().zip(&x).map(|(c, v)| c * v).sum();
            prop_assert!(obj <= objective + 1e-6,
                "sampled point {obj} beats 'optimum' {objective}");
        }
    }

    #[test]
    fn lp_objective_consistent_with_values(lp in random_lp()) {
        let model = build(&lp);
        if let LpOutcome::Optimal { objective, values, .. } =
            Simplex::default().solve(&model).unwrap()
        {
            let recomputed = model.objective_value(&values);
            prop_assert!((objective - recomputed).abs() < 1e-6,
                "reported {objective} vs recomputed {recomputed}");
        }
    }

    #[test]
    fn tightening_bounds_never_improves(lp in random_lp()) {
        let model = build(&lp);
        let base = match Simplex::default().solve(&model).unwrap() {
            LpOutcome::Optimal { objective, .. } => objective,
            _ => return Err(TestCaseError::fail("expected optimal")),
        };
        // Halve every upper bound: the optimum cannot increase.
        let lb: Vec<f64> = vec![0.0; lp.n];
        let ub: Vec<f64> = lp.ub.iter().map(|u| u / 2.0).collect();
        if let LpOutcome::Optimal { objective, .. } =
            Simplex::default().solve_with_bounds(&model, &lb, &ub).unwrap()
        {
            prop_assert!(objective <= base + 1e-6,
                "tightened {objective} > base {base}");
        }
    }
}

// ---------------------------------------------------------------------
// Re-solve against cold solve.
//
// `Simplex::resolve_with_bounds` starts from the basis the previous LP left
// in the workspace; `Simplex::solve_with_bounds` on a fresh instance knows
// nothing of it. Over one reused instance and a random walk of bound
// changes they must tell the same story at every step. Three hand mutations
// of `simplex.rs`, each of which fails `resolve_agrees_with_cold_solve`:
//
// 1. `reoptimize` rests the leaving variable on the wrong side
//    (`below` -> `AtUpper`): statuses and objectives diverge.
// 2. `install` skips the basic-value update of a moved nonbasic column:
//    the re-solve works from a stale point and the statuses diverge.
// 3. `reoptimize` drops the `sign` of the Farkas vector (`y = +row` on
//    both sides): `verify_farkas` rejects every above-upper refutation.
// ---------------------------------------------------------------------

/// Steps of bound changes per generated LP.
const STEPS: usize = 16;

/// A boxed LP with Le, Ge and Eq rows over small integer data (so ties,
/// degenerate vertices and exact 0.5 values are common), written around an
/// interior point so that most bound sets stay feasible.
fn boxed_lp(n: usize, rows: usize, rng: &mut StdRng) -> Model {
    let mut m = Model::maximize();
    let mut inner = Vec::with_capacity(n);
    let vars: Vec<VarId> = (0..n)
        .map(|j| {
            let lb = [0.0, 0.0, 1.0, -2.0][rng.random_below(4) as usize];
            let ub = lb + 1.0 + rng.random_below(3) as f64;
            inner.push(lb + (ub - lb) * rng.random::<f64>());
            let obj = rng.random_below(8) as f64 - 3.0;
            m.add_var(format!("x{j}"), VarKind::Continuous, lb, ub, obj)
        })
        .collect();
    for r in 0..rows {
        let terms: Vec<(VarId, f64)> = vars
            .iter()
            .filter_map(|&v| {
                let a = rng.random_below(6) as f64 - 2.0;
                (a != 0.0 && rng.random::<bool>()).then_some((v, a))
            })
            .collect();
        let at_inner: f64 = terms.iter().map(|&(v, a)| a * inner[v.index()]).sum();
        let slack = rng.random_below(3) as f64 * 0.5;
        let (sense, rhs) = match rng.random_below(5) {
            0 | 1 => (Sense::Le, (at_inner + slack).ceil()),
            2 | 3 => (Sense::Ge, (at_inner - slack).floor()),
            _ => (Sense::Eq, (at_inner * 2.0).round() / 2.0),
        };
        m.add_constraint(format!("r{r}"), terms, sense, rhs);
    }
    m
}

/// The next bound change of the walk, on a random column: fix it (from an
/// optimum, as the dive does: the most fractional column to its nearest
/// integer), tighten it by one (possibly past the other bound), give it its
/// box back, or flip it to the far end of its box. After an infeasible
/// step, half the walks relax or flip `prev`, the column that step changed,
/// which is the dive's fix-then-flip. Returns the column changed.
fn next_bounds(
    model: &Model,
    lb: &mut [f64],
    ub: &mut [f64],
    last: Result<&[f64], usize>,
    rng: &mut StdRng,
) -> usize {
    let mut j = rng.random_below(model.num_vars() as u64) as usize;
    let mut choice = rng.random_below(8);
    if let Err(prev) = last {
        if rng.random::<bool>() {
            (j, choice) = (prev, 7 - rng.random_below(2));
        }
    }
    match (choice, last) {
        (0 | 1, Ok(x)) => {
            let frac = |v: f64| (v - v.round()).abs();
            j = (0..x.len())
                .max_by(|&a, &b| frac(x[a]).total_cmp(&frac(x[b])))
                .unwrap_or(j);
            lb[j] = x[j].round();
            ub[j] = lb[j];
        }
        (0..=2, _) => {
            let v = &model.vars()[j];
            lb[j] = v.lb + rng.random_below((v.ub - v.lb) as u64 + 1) as f64;
            ub[j] = lb[j];
        }
        (3, _) => lb[j] += 1.0,
        (4, _) => ub[j] -= 1.0,
        (5 | 6, _) => (lb[j], ub[j]) = (model.vars()[j].lb, model.vars()[j].ub),
        _ => {
            // Flip: the far end of the box from where the column sits.
            let v = &model.vars()[j];
            lb[j] = if lb[j] - v.lb < v.ub - ub[j] {
                v.ub
            } else {
                v.lb
            };
            ub[j] = lb[j];
        }
    }
    j
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn resolve_agrees_with_cold_solve(
        n in 3usize..20,
        rows in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = boxed_lp(n, rows, &mut rng);
        let (mut lb, mut ub): (Vec<f64>, Vec<f64>) =
            model.vars().iter().map(|v| (v.lb, v.ub)).unzip();
        let warm = Simplex::default();
        // Whether `warm` holds a basis, and the re-solves that implies.
        let (mut held, mut resolves) = (false, 0);
        // The column changed last.
        let mut prev = 0;
        for step in 0..STEPS {
            let crossed = lb.iter().zip(&ub).any(|(l, u)| l > u);
            let got = warm.resolve_with_bounds(&model, &lb, &ub).unwrap();
            let want = Simplex::default().solve_with_bounds(&model, &lb, &ub).unwrap();
            resolves += usize::from(held && !crossed);
            // Every column is boxed, so a held basis always serves.
            prop_assert_eq!(warm.resolves(), resolves, "step {}: silent cold load", step);
            // The optimum to dive from, or the column whose change broke it.
            let ended: Result<&[f64], usize> = match (&got, &want) {
                (
                    LpOutcome::Optimal { objective, values, duals },
                    LpOutcome::Optimal { objective: cold, .. },
                ) => {
                    prop_assert!(close(*objective, *cold),
                        "step {step}: re-solve {objective} vs cold {cold}");
                    prop_assert!(bounded_model(&model, &lb, &ub).is_feasible(values, 1e-6),
                        "step {step}: re-solved values infeasible: {values:?}");
                    let bound = dual_bound(&model, &lb, &ub, duals);
                    prop_assert!(matches!(bound, Ok(u) if close(u, *objective)),
                        "step {step}: duals certify {bound:?}, not {objective}");
                    held = true;
                    Ok(values)
                }
                (LpOutcome::Infeasible { farkas }, LpOutcome::Infeasible { .. }) => {
                    prop_assert_eq!(farkas.is_none(), crossed);
                    if let Some(y) = farkas {
                        let verdict = verify_farkas(&model, &lb, &ub, y);
                        prop_assert!(verdict.is_ok(), "step {step}: {verdict:?}");
                    }
                    // `held` stays: crossed bounds touch nothing, a re-solve
                    // keeps its basis, a cold load had none and leaves none.
                    Err(prev)
                }
                _ => {
                    return Err(TestCaseError::fail(format!(
                        "step {step}: re-solve {got:?} vs cold {want:?}"
                    )))
                }
            };
            prev = next_bounds(&model, &mut lb, &mut ub, ended, &mut rng);
        }
    }
}
