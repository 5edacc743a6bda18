//! Primal heuristics: diving from the root relaxation.

use crate::branch_bound::{most_fractional, snap_integers, INT_TOL};
use crate::kernels::exact_eq;
use crate::model::{Model, VarKind};
use crate::simplex::{LpOutcome, Simplex};
use crate::status::SolverStats;

/// Most steps (probes and LPs) one dive makes before giving up.
const DIVE_DEPTH: usize = 256;

/// Dives from the root relaxation toward an integer-feasible point, re-solving
/// from the basis `simplex` holds (the root's, then each step's). Four rules:
///
/// 1. *Support.* A binary with a positive objective coefficient that the root
///    left at 0 is fixed at 0: the dive searches where the relaxation put the
///    value, so a dropped option cannot slide to the next one LP by LP.
/// 2. *Hold.* After the root and after every LP, a binary at 1 has its lower
///    bound raised to 1: what the relaxation decided stays decided, at no LP.
/// 3. *Order and direction.* The unfixed fractional binary with the largest
///    `obj * x` is probed up. An infeasible probe fixes it at 0 and the next
///    candidate is taken from the same relaxation point; an LP is solved when
///    a probe succeeds, or when no candidate is left and a zero is not yet in
///    the point. General integers come last, to the nearest integer and then
///    once to the other side.
/// 4. *End.* An integral point is snapped and checked against the model.
///
/// Returns the objective and assignment of an integer-feasible point, or
/// `None` when the dive dead-ends.
#[expect(
    clippy::indexing_slicing,
    reason = "j comes from largest_share or most_fractional, which only return column indices of \
              the same model; lb/ub/values/snapped are per-variable vectors of num_vars entries, \
              as model.vars() is"
)]
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
    for (j, v) in model.vars().iter().enumerate() {
        if v.kind == VarKind::Binary && v.obj > 0.0 && values[j] <= INT_TOL {
            ub[j] = 0.0;
        }
    }
    // Whether a probe failed since `values` was solved: its zero is in the
    // bounds and not yet in the point.
    let mut zero_unsolved = false;

    for _ in 0..DIVE_DEPTH {
        for (j, v) in model.vars().iter().enumerate() {
            if v.kind == VarKind::Binary && values[j] >= 1.0 - INT_TOL {
                lb[j] = 1.0;
            }
        }
        let solved = if let Some(j) = largest_share(model, &values, &lb, &ub) {
            lb[j] = 1.0;
            let up = relax(model, simplex, &lb, &ub, stats)?;
            if up.is_none() {
                // `values` stands: the next candidate comes from it.
                (lb[j], ub[j]) = (0.0, 0.0);
                zero_unsolved = true;
                continue;
            }
            up
        } else if zero_unsolved {
            relax(model, simplex, &lb, &ub, stats)?
        } else if let Some((j, x)) = most_fractional(model, &values) {
            // The nearest integer first, then once the other side of x.
            let rounded = x.round().clamp(lb[j], ub[j]);
            let other = if rounded > x { x.floor() } else { x.ceil() }.clamp(lb[j], ub[j]);
            let mut sides = [rounded, other]
                .into_iter()
                .take(1 + usize::from(!exact_eq(other, rounded)));
            loop {
                let side = sides.next()?;
                (lb[j], ub[j]) = (side, side);
                if let Some(values) = relax(model, simplex, &lb, &ub, stats)? {
                    break Some(values);
                }
            }
        } else {
            let snapped = snap_integers(model, values);
            if model.is_feasible(&snapped, 1e-6) {
                return Some((model.objective_value(&snapped), snapped));
            }
            return None;
        };
        values = solved?;
        zero_unsolved = false;
    }
    None
}

/// One LP of the dive under `lb` / `ub`: its point, `Some(None)` when it is
/// infeasible, `None` when the dive cannot go on.
fn relax(
    model: &Model,
    simplex: &Simplex,
    lb: &[f64],
    ub: &[f64],
    stats: &mut SolverStats,
) -> Option<Option<Vec<f64>>> {
    stats.lp_solves += 1;
    stats.dive_lp_solves += 1;
    match simplex.resolve_with_bounds(model, lb, ub).ok()? {
        LpOutcome::Optimal { values, .. } => Some(Some(values)),
        LpOutcome::Infeasible { .. } => Some(None),
        LpOutcome::Unbounded { .. } => None,
    }
}

/// The unfixed binary fractional in `values` that carries the largest share
/// of the objective, `obj * x`; the lowest index among equals.
#[expect(
    clippy::indexing_slicing,
    reason = "values, lb and ub are per-variable vectors zipped with model.vars() of the same \
              length"
)]
fn largest_share(model: &Model, values: &[f64], lb: &[f64], ub: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (j, v) in model.vars().iter().enumerate() {
        let x = values[j];
        if v.kind != VarKind::Binary || lb[j] >= ub[j] || (x - x.round()).abs() <= INT_TOL {
            continue;
        }
        let share = v.obj * x;
        if best.is_none_or(|(_, s)| share > s) {
            best = Some((j, share));
        }
    }
    best.map(|(j, _)| j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    /// Solves the root of `m` and dives from it.
    fn root_dive(m: &Model) -> (Option<(f64, Vec<f64>)>, SolverStats) {
        let simplex = Simplex::default();
        let lb: Vec<f64> = m.vars().iter().map(|v| v.lb).collect();
        let ub: Vec<f64> = m.vars().iter().map(|v| v.ub).collect();
        let LpOutcome::Optimal { values, .. } = simplex.solve_with_bounds(m, &lb, &ub).unwrap()
        else {
            panic!("root LP should be optimal");
        };
        let mut stats = SolverStats::default();
        let found = dive(m, &simplex, &lb, &ub, &values, &mut stats);
        (found, stats)
    }

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
        let (obj, point) = root_dive(&m).0.expect("dive should find a feasible point");
        assert!(m.is_feasible(&point, 1e-6));
        assert!(obj > 0.0);
    }

    /// One job at 1 in the root and a second split 0.75 / 0.25 between an
    /// option that cannot run beside the first and one that can.
    fn two_jobs(second_option: f64, shares_the_rack: bool) -> Model {
        let mut m = Model::maximize();
        let a = m.add_binary("a", 936.0);
        let b1 = m.add_binary("b1", 802.0);
        let b2 = m.add_binary("b2", second_option);
        m.add_constraint("choice", [(b1, 1.0), (b2, 1.0)], Sense::Le, 1.0);
        let rack = [(a, 4.0), (b1, 4.0), (b2, 4.0)];
        let users = 2 + usize::from(shares_the_rack);
        m.add_constraint("rack", rack.into_iter().take(users), Sense::Le, 7.0);
        m
    }

    #[test]
    fn dive_holds_the_root_and_probes_up() {
        // Rounding b1 = 0.75 to the nearest integer would push `a` out; held
        // at 1, `a` makes the probe infeasible and b2 is next from the same
        // point: two LPs, none for b1's zero.
        let (found, stats) = root_dive(&two_jobs(782.0, false));
        assert_eq!(found.expect("a and b2 fit").0, 936.0 + 782.0);
        assert_eq!(stats.dive_lp_solves, 2);
    }

    #[test]
    fn dive_stays_inside_the_root_support() {
        // b2 conflicts with `a` too and is worth less than b1, so the root
        // leaves it at 0 and the dive keeps it there: after b1's failed probe
        // one LP solves the zero and the point is integral. Left free, the
        // dropped 0.75 would slide to b2 and cost a probe and an LP more.
        let (found, stats) = root_dive(&two_jobs(796.0, true));
        assert_eq!(found.expect("a alone fits").0, 936.0);
        assert_eq!(stats.dive_lp_solves, 2);
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
