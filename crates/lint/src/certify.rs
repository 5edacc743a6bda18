//! Proof-carrying solve verification, workspace-level layer.
//!
//! The solver-side machinery (primal checks, dual/bound-tree audits,
//! Farkas/ray certificates, codes `C001`–`C003`) lives in
//! [`tetrisched_milp::certify`]. This module adds the piece the MILP crate
//! cannot see: **translation validation** of the
//! STRL→MILP compilation (code `C004`). The MILP solution is decoded back
//! into STRL space (granted resources per leaf), the *original* expression
//! is evaluated under that placement with
//! [`StrlExpr::placement_value`], and the valuation is compared against
//! the solver's claimed objective — catching compiler bugs end-to-end, in
//! the spirit of translation validation for compilers.

// This pass runs inside the audited cycle: panic sources are denied as in its crates.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]
#![deny(clippy::unimplemented, clippy::allow_attributes_without_reason)]

use tetrisched_milp::lint::{Diagnostic, Severity};
use tetrisched_strl::StrlExpr;

/// Tolerance for objective/valuation agreement, scaled by magnitude.
pub const TRANSLATION_TOL: f64 = 1e-6;

/// Validates the STRL→MILP translation for one solved expression.
///
/// `granted[i]` is the number of resources the MILP solution awards to
/// the `i`-th leaf of `expr` in pre-order, `objective` is the solver's
/// claimed objective for the compiled model, and `best_bound` its proven
/// dual bound. Invariants checked:
///
/// - the claimed objective never exceeds the STRL valuation of the chosen
///   placement (value cannot appear out of thin air),
/// - for trees without relaxed encodings (`min`/`barrier`), the two agree
///   exactly — the compiled objective *is* the STRL valuation — and the
///   valuation never exceeds the proven dual bound (the same placement
///   re-encoded is a feasible MILP point, so the bound dominates it).
///   Under a relaxed encoding the bound only dominates the *MILP*
///   objective, which may legitimately undervalue the STRL tree, so the
///   bound check is skipped.
///
/// Returns the STRL valuation on success, a `C004` diagnostic on failure.
pub fn validate_translation(
    expr: &StrlExpr,
    granted: &[u32],
    objective: f64,
    best_bound: f64,
) -> Result<f64, Box<Diagnostic>> {
    let valuation = expr.placement_value(granted);
    let tol = TRANSLATION_TOL * (1.0 + valuation.abs().max(objective.abs()));
    let fail = |message: String| {
        Err(Box::new(Diagnostic::new(
            "C004",
            Severity::Error,
            message,
            format!("translation validation over {} leaves", granted.len()),
        )))
    };
    if objective > valuation + tol {
        return fail(format!(
            "MILP objective {objective} exceeds the STRL valuation {valuation} \
             of the chosen placement"
        ));
    }
    if !expr.has_relaxed_encoding() {
        if (objective - valuation).abs() > tol {
            return fail(format!(
                "MILP objective {objective} does not equal the STRL valuation {valuation} \
                 (tree has no relaxed operators)"
            ));
        }
        if valuation > best_bound + tol {
            return fail(format!(
                "STRL valuation {valuation} exceeds the proven solver bound {best_bound}"
            ));
        }
    }
    Ok(valuation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrisched_cluster::{NodeId, NodeSet};

    fn set(ids: &[u32]) -> NodeSet {
        NodeSet::from_ids(8, ids.iter().map(|&i| NodeId(i)))
    }

    fn choice() -> StrlExpr {
        StrlExpr::max([
            StrlExpr::nck(set(&[0, 1]), 2, 0, 2, 4.0),
            StrlExpr::nck(set(&[0, 1, 2, 3]), 2, 0, 3, 3.0),
        ])
    }

    #[test]
    fn faithful_translation_validates() {
        let v = validate_translation(&choice(), &[2, 0], 4.0, 4.0).unwrap();
        assert_eq!(v, 4.0);
    }

    #[test]
    fn inflated_objective_rejected() {
        let err = validate_translation(&choice(), &[0, 2], 4.0, 4.0).unwrap_err();
        assert_eq!(err.code, "C004");
        assert!(err.message.contains("exceeds the STRL valuation"));
    }

    #[test]
    fn deflated_objective_rejected_without_relaxed_ops() {
        let err = validate_translation(&choice(), &[2, 0], 1.0, 4.0).unwrap_err();
        assert_eq!(err.code, "C004");
        assert!(err.message.contains("does not equal"));
    }

    #[test]
    fn deflated_objective_tolerated_under_min() {
        // A min tree may legitimately leave value on the table in the MILP
        // encoding; only the <= direction is enforced.
        let e = StrlExpr::min([choice()]);
        assert!(validate_translation(&e, &[2, 0], 1.0, 4.0).is_ok());
        assert!(validate_translation(&e, &[2, 0], 5.0, 5.0).is_err());
    }

    #[test]
    fn valuation_above_bound_rejected() {
        let err = validate_translation(&choice(), &[2, 0], 4.0, 2.0).unwrap_err();
        assert!(err.message.contains("proven solver bound"));
    }

    #[test]
    fn valuation_above_bound_tolerated_under_min() {
        // The relaxed encoding undervalues the tree, so the solver's bound
        // only dominates the MILP objective, not the STRL valuation.
        let e = StrlExpr::min([choice()]);
        assert!(validate_translation(&e, &[2, 0], 2.0, 2.0).is_ok());
    }

    #[test]
    fn zero_placement_validates_trivially() {
        let v = validate_translation(&choice(), &[0, 0], 0.0, 7.0).unwrap();
        assert_eq!(v, 0.0);
    }
}
