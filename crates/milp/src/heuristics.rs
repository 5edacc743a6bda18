//! Primal heuristics: diving from the root relaxation.

use crate::branch_bound::{most_fractional, snap_integers};
use crate::model::Model;
use crate::simplex::{LpOutcome, Simplex};
use crate::status::SolverStats;

/// Most fixings one dive makes before giving up.
const DIVE_DEPTH: usize = 256;

/// Dives from an LP-relaxation solution toward an integer-feasible point by
/// repeatedly fixing the most fractional integer variable to its nearest
/// integer and re-solving the relaxation from the basis `simplex` holds (the
/// root's, then each step's). On infeasibility the most recent fixing is
/// flipped once to the other side before giving up.
///
/// Returns the objective and assignment of an integer-feasible point, or
/// `None` when the dive dead-ends.
// srclint: checked-indexing: j comes from most_fractional, which only
// returns column indices of the same model; lb/ub/values/snapped are
// per-variable vectors of num_vars entries.
pub(crate) fn dive(
    model: &Model,
    simplex: &Simplex,
    base_lb: &[f64],
    base_ub: &[f64],
    root_values: &[f64],
    stats: &mut SolverStats,
) -> Option<(f64, Vec<f64>)> {
    let mut lb = base_lb.to_vec();
    let mut ub = base_ub.to_vec();
    let mut values = root_values.to_vec();

    for _ in 0..DIVE_DEPTH {
        let Some((j, x)) = most_fractional(model, &values) else {
            // Integral within tolerance: snap and validate.
            let snapped = snap_integers(model, values);
            if model.is_feasible(&snapped, 1e-6) {
                return Some((model.objective_value(&snapped), snapped));
            }
            return None;
        };
        // The nearest integer first, then once the other side of x.
        let rounded = x.round().clamp(lb[j], ub[j]);
        let other = if rounded > x { x.floor() } else { x.ceil() }.clamp(lb[j], ub[j]);
        let mut sides = [rounded, other]
            .into_iter()
            .take(1 + usize::from(other != rounded));
        values = loop {
            let side = sides.next()?;
            lb[j] = side;
            ub[j] = side;
            stats.lp_solves += 1;
            match simplex.resolve_with_bounds(model, &lb, &ub).ok()? {
                LpOutcome::Optimal { values, .. } => break values,
                LpOutcome::Infeasible { .. } => {}
                LpOutcome::Unbounded { .. } => return None,
            }
        };
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    #[test]
    fn dive_finds_feasible_point_on_knapsack() {
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..8)
            .map(|i| m.add_binary(format!("x{i}"), 1.0 + i as f64))
            .collect();
        m.add_constraint(
            "w",
            vars.iter().map(|&v| (v, 2.0)).collect::<Vec<_>>(),
            Sense::Le,
            7.0,
        );
        let simplex = Simplex::default();
        let lb: Vec<f64> = m.vars().iter().map(|v| v.lb).collect();
        let ub: Vec<f64> = m.vars().iter().map(|v| v.ub).collect();
        let LpOutcome::Optimal { values, .. } = simplex.solve_with_bounds(&m, &lb, &ub).unwrap()
        else {
            panic!("root LP should be optimal");
        };
        let mut stats = SolverStats::default();
        let found = dive(&m, &simplex, &lb, &ub, &values, &mut stats);
        let (obj, point) = found.expect("dive should find a feasible point");
        assert!(m.is_feasible(&point, 1e-6));
        assert!(obj > 0.0);
    }

    #[test]
    fn dive_on_integral_root_returns_it() {
        let mut m = Model::maximize();
        let x = m.add_binary("x", 1.0);
        m.add_constraint("c", [(x, 1.0)], Sense::Le, 1.0);
        let simplex = Simplex::default();
        let mut stats = SolverStats::default();
        let found = dive(&m, &simplex, &[0.0], &[1.0], &[1.0], &mut stats);
        assert_eq!(found.unwrap().0, 1.0);
    }
}
