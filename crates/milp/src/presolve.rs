//! Presolve: cheap model reductions, as a library pass.
//!
//! No solve calls it: branch-and-bound runs on the caller's model, since on
//! compiled models presolve decided nothing and cost a copy of the model.
//! It stays for the benchmark's `milp.presolve_us` probe and for
//! `model_build_golden`, which pin what it finds on compiled models;
//! deleting it waits for ROADMAP 1(a) to unpin it. The reductions:
//!
//! - **bound tightening** propagates row activity bounds into variable
//!   bounds (and rounds integer bounds inward) via [`crate::lint::propagate_bounds`],
//!   the same pass the lint layer uses for its diagnostics,
//! - **null rows** (no terms) are checked against their sense and dropped,
//! - **redundant `<=`/`>=` rows** — those satisfied by every point inside
//!   the tightened variable bounds — are dropped,
//! - obvious **infeasibility** (a row whose best achievable activity still
//!   violates it, or crossed bounds) is detected without invoking the
//!   solver, and is returned with the lint layer's machine-checkable
//!   [`Certificate`] so callers can audit the rejection.
//!
//! Variables are never removed or reindexed, so a solution of the presolved
//! model is directly a solution of the original.

use crate::lint::{propagate_bounds, row_activity, Certificate};
use crate::model::{Model, Sense};

/// Outcome of presolving a model.
#[derive(Debug)]
pub enum PresolveOutcome {
    /// A reduced (or unchanged) model, same variable indexing.
    Reduced {
        /// The model to hand to the solver.
        model: Model,
        /// Rows dropped by the reductions.
        rows_dropped: usize,
        /// Variable bounds tightened.
        bounds_tightened: usize,
    },
    /// The model is infeasible; no solve needed.
    Infeasible {
        /// Machine-checkable refutation, when bound propagation produced
        /// one (`None` only for defensive fallback paths).
        certificate: Option<Certificate>,
    },
}

/// Presolves a model. `passes` bound-tightening sweeps are applied (two is
/// usually enough for STRL-shaped models). The input is copied once: into
/// the reduced model, variable by variable under its propagated bounds and
/// row by surviving row.
pub fn presolve(model: &Model, passes: usize) -> PresolveOutcome {
    const TOL: f64 = 1e-9;

    let prop = propagate_bounds(model, passes.max(1));
    if let Some(cert) = prop.certificates.into_iter().next() {
        return PresolveOutcome::Infeasible {
            certificate: Some(cert),
        };
    }

    // Variables under the propagated bounds, counting changed bound sides
    // (a variable neither side of which moved keeps its bounds to the bit).
    let mut kept = Model::maximize();
    kept.objective_offset = model.objective_offset;
    let mut bounds_tightened = 0usize;
    for (v, &(lb, ub)) in model.vars().iter().zip(&prop.bounds) {
        let lb_changed = (lb - v.lb).abs() > TOL || (lb.is_finite() != v.lb.is_finite());
        let ub_changed = (ub - v.ub).abs() > TOL || (ub.is_finite() != v.ub.is_finite());
        bounds_tightened += usize::from(lb_changed) + usize::from(ub_changed);
        let (lb, ub) = if lb_changed || ub_changed {
            (lb, ub)
        } else {
            (v.lb, v.ub)
        };
        kept.add_var(v.name.clone(), v.kind, lb, ub, v.obj);
    }

    // Row filtering over the tightened bounds.
    let mut rows_dropped = 0usize;
    for c in model.constraints() {
        if c.terms.is_empty() {
            let ok = match c.sense {
                Sense::Le => 0.0 <= c.rhs + TOL,
                Sense::Ge => 0.0 >= c.rhs - TOL,
                Sense::Eq => c.rhs.abs() <= TOL,
            };
            if !ok {
                // Unreachable in practice: propagation certifies violated
                // null rows. Kept as a defensive guard.
                return PresolveOutcome::Infeasible { certificate: None };
            }
            rows_dropped += 1;
            continue;
        }
        let (act_lo, act_hi) = row_activity(c.terms.iter().map(|&(v, a)| {
            let var = kept.var(v);
            (a, var.lb, var.ub)
        }));
        let (redundant, infeasible) = match c.sense {
            Sense::Le => (act_hi <= c.rhs + TOL, act_lo > c.rhs + 1e-7),
            Sense::Ge => (act_lo >= c.rhs - TOL, act_hi < c.rhs - 1e-7),
            Sense::Eq => (
                (act_lo - c.rhs).abs() <= TOL && (act_hi - c.rhs).abs() <= TOL,
                act_lo > c.rhs + 1e-7 || act_hi < c.rhs - 1e-7,
            ),
        };
        if infeasible {
            // Also unreachable: propagation checks rows against the same
            // final bounds. Defensive guard only.
            return PresolveOutcome::Infeasible { certificate: None };
        }
        if redundant {
            rows_dropped += 1;
            continue;
        }
        kept.add_constraint(c.name.clone(), c.terms.iter().copied(), c.sense, c.rhs);
    }

    PresolveOutcome::Reduced {
        model: kept,
        rows_dropped,
        bounds_tightened,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::model::{Model, Sense, VarKind};

    #[test]
    fn singleton_like_row_tightens_bound() {
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, 100.0, 1.0);
        m.add_constraint("cap", [(x, 2.0)], Sense::Le, 10.0);
        let PresolveOutcome::Reduced {
            model,
            rows_dropped,
            bounds_tightened,
        } = presolve(&m, 2)
        else {
            panic!("expected reduced");
        };
        assert_eq!(bounds_tightened, 1);
        assert_eq!(model.var(x).ub, 5.0);
        // The row is now redundant and dropped.
        assert_eq!(rows_dropped, 1);
        assert_eq!(model.num_constraints(), 0);
    }

    #[test]
    fn integer_bounds_round_inward() {
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Integer, 0.0, 100.0, 1.0);
        m.add_constraint("cap", [(x, 3.0)], Sense::Le, 10.0);
        let PresolveOutcome::Reduced { model, .. } = presolve(&m, 1) else {
            panic!("expected reduced");
        };
        assert_eq!(model.var(x).ub, 3.0);
    }

    #[test]
    fn infeasible_row_detected() {
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 1.0, 1.0);
        m.add_constraint("impossible", [(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        let PresolveOutcome::Infeasible { certificate } = presolve(&m, 1) else {
            panic!("expected infeasible");
        };
        certificate
            .expect("propagation produces a certificate")
            .verify(&m)
            .expect("certificate verifies against the original model");
    }

    #[test]
    fn null_rows_checked_and_dropped() {
        let mut m = Model::maximize();
        m.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
        m.add_constraint("trivial", [], Sense::Le, 5.0);
        let PresolveOutcome::Reduced { rows_dropped, .. } = presolve(&m, 1) else {
            panic!("expected reduced");
        };
        assert_eq!(rows_dropped, 1);

        let mut m = Model::maximize();
        m.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
        m.add_constraint("broken", [], Sense::Ge, 5.0);
        assert!(matches!(
            presolve(&m, 1),
            PresolveOutcome::Infeasible { .. }
        ));
    }

    #[test]
    fn presolved_model_has_same_optimum() {
        // A STRL-shaped model: demand equality plus supply cap.
        let mut m = Model::maximize();
        let i = m.add_binary("I", 5.0);
        let p = m.add_var("P", VarKind::Integer, 0.0, 10.0, 0.0);
        m.add_constraint("demand", [(p, 1.0), (i, -3.0)], Sense::Eq, 0.0);
        m.add_constraint("supply", [(p, 1.0)], Sense::Le, 4.0);
        let original = m.solve(&SolverConfig::exact()).unwrap();

        let PresolveOutcome::Reduced { model, .. } = presolve(&m, 2) else {
            panic!("expected reduced");
        };
        let reduced = model.solve(&SolverConfig::exact()).unwrap();
        assert!((original.objective - reduced.objective).abs() < 1e-9);
        // P's bound was tightened to 3 (from the demand row) or 4 (supply).
        assert!(model.var(p).ub <= 4.0);
    }

    #[test]
    fn crossed_input_bounds_infeasible() {
        let mut m = Model::maximize();
        m.add_var("x", VarKind::Continuous, 2.0, 1.0, 1.0);
        let PresolveOutcome::Infeasible { certificate } = presolve(&m, 1) else {
            panic!("expected infeasible");
        };
        assert!(matches!(
            certificate,
            Some(Certificate::CrossedBounds { .. })
        ));
    }
}
