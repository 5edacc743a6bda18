//! Semantic lints over STRL expression trees (codes `S001`–`S009`).
//!
//! These passes catch requests that are structurally valid but semantically
//! dead before they are compiled: leaves that can never be satisfied, dead
//! `max`/`min` branches, starts outside the plan-ahead window, and value
//! plumbing (scale/barrier) that zeroes the upward flow of value.

// This pass runs inside the audited cycle: panic sources are denied as in its crates.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]
#![deny(clippy::unimplemented, clippy::allow_attributes_without_reason)]

use tetrisched_milp::lint::{Diagnostic, Severity};
use tetrisched_strl::{StrlExpr, Time};

/// Scheduling-cycle facts the STRL passes check leaves against.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrlLintContext {
    /// Current simulated time; leaf starts must not be in the past.
    pub now: Time,
    /// Exclusive end of the plan-ahead window, when known; leaf starts at
    /// or beyond it can never be chosen by the compiler
    /// (`CompileError::StartBeyondWindow`).
    pub window_end: Option<Time>,
}

/// Render a node for diagnostic context, truncated to keep output readable.
fn node_context(e: &StrlExpr) -> String {
    let s = e.to_string();
    if s.len() > 96 {
        let head: String = s.chars().take(93).collect();
        format!("{head}…")
    } else {
        s
    }
}

/// Runs every STRL analysis pass over `expr` and returns the findings.
///
/// Codes emitted here (severity in parentheses):
///
/// - `S001` (Error) — leaf with an empty equivalence set,
/// - `S002` (Error for `nCk`, Warning for `LnCk`) — over-subscribed set,
///   `k > |set|` (`LnCk` still awards partial value),
/// - `S003` (Warning) — zero-duration leaf (holds resources for no time),
/// - `S004` (Error) — leaf start in the past or at/beyond the plan-ahead
///   window end,
/// - `S005` (Warning) — dead `max`/`min` branch: a child whose value upper
///   bound is non-positive,
/// - `S006` (Warning) — non-positive leaf value or `scale` factor,
/// - `S007` (Warning) — barrier misuse: non-positive threshold, or a
///   threshold the child's value can never reach,
/// - `S008` (Warning) — empty `max`/`min`/`sum` operator,
/// - `S009` (Error) — leaf with `k = 0` (awards value for zero resources).
pub fn lint_expr(expr: &StrlExpr, ctx: &StrlLintContext) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    expr.visit(&mut |e| lint_node(e, ctx, &mut diags));
    diags
}

fn lint_node(e: &StrlExpr, ctx: &StrlLintContext, diags: &mut Vec<Diagnostic>) {
    match e {
        StrlExpr::NCk {
            set,
            k,
            start,
            dur,
            value,
        }
        | StrlExpr::LnCk {
            set,
            k,
            start,
            dur,
            value,
        } => {
            let linear = matches!(e, StrlExpr::LnCk { .. });
            if *k == 0 {
                diags.push(Diagnostic::new(
                    "S009",
                    Severity::Error,
                    "leaf requests k = 0 resources; it would award value for nothing",
                    node_context(e),
                ));
            }
            if set.is_empty() {
                diags.push(Diagnostic::new(
                    "S001",
                    Severity::Error,
                    "leaf has an empty equivalence set; it can never be satisfied",
                    node_context(e),
                ));
            } else if (set.len() as u32) < *k {
                // nCk is all-or-nothing, so an over-subscribed set is dead;
                // LnCk still awards value per resource obtained.
                diags.push(Diagnostic::new(
                    "S002",
                    if linear {
                        Severity::Warning
                    } else {
                        Severity::Error
                    },
                    format!(
                        "over-subscribed set: k = {k} exceeds the {} nodes available",
                        set.len()
                    ),
                    node_context(e),
                ));
            }
            if *dur == 0 {
                diags.push(Diagnostic::new(
                    "S003",
                    Severity::Warning,
                    "zero-duration leaf holds resources for no time",
                    node_context(e),
                ));
            }
            if *start < ctx.now {
                diags.push(Diagnostic::new(
                    "S004",
                    Severity::Error,
                    format!("leaf starts in the past ({start} < now {})", ctx.now),
                    node_context(e),
                ));
            } else if let Some(end) = ctx.window_end {
                if *start >= end {
                    diags.push(Diagnostic::new(
                        "S004",
                        Severity::Error,
                        format!(
                            "leaf starts at {start}, beyond the plan-ahead window \
                             ending at {end}"
                        ),
                        node_context(e),
                    ));
                }
            }
            if *value <= 0.0 {
                diags.push(Diagnostic::new(
                    "S006",
                    Severity::Warning,
                    format!("non-positive leaf value {value}; it adds no objective weight"),
                    node_context(e),
                ));
            }
        }
        StrlExpr::Max(children) | StrlExpr::Min(children) => {
            let op = if matches!(e, StrlExpr::Max(_)) {
                "max"
            } else {
                "min"
            };
            if children.is_empty() {
                diags.push(Diagnostic::new(
                    "S008",
                    Severity::Warning,
                    format!("empty `{op}` operator yields no value"),
                    node_context(e),
                ));
            }
            for c in children {
                if c.value_upper_bound() <= 0.0 {
                    diags.push(Diagnostic::new(
                        "S005",
                        Severity::Warning,
                        format!(
                            "dead `{op}` branch: the child's value upper bound is \
                             non-positive, so it can never be chosen usefully"
                        ),
                        node_context(c),
                    ));
                }
            }
        }
        StrlExpr::Sum(children) => {
            if children.is_empty() {
                diags.push(Diagnostic::new(
                    "S008",
                    Severity::Warning,
                    "empty `sum` operator yields no value",
                    node_context(e),
                ));
            }
        }
        StrlExpr::Scale { factor, .. } => {
            if *factor <= 0.0 {
                diags.push(Diagnostic::new(
                    "S006",
                    Severity::Warning,
                    format!("non-positive scale factor {factor} zeroes the child's value"),
                    node_context(e),
                ));
            }
        }
        StrlExpr::Barrier { value, child } => {
            if *value <= 0.0 {
                diags.push(Diagnostic::new(
                    "S007",
                    Severity::Warning,
                    format!("barrier threshold {value} is non-positive"),
                    node_context(e),
                ));
            } else if child.value_upper_bound() < *value {
                diags.push(Diagnostic::new(
                    "S007",
                    Severity::Warning,
                    format!(
                        "unreachable barrier: threshold {value} exceeds the child's \
                         value upper bound {}",
                        child.value_upper_bound()
                    ),
                    node_context(e),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrisched_cluster::{NodeId, NodeSet};

    fn set(ids: &[u32]) -> NodeSet {
        NodeSet::from_ids(8, ids.iter().map(|&i| NodeId(i)))
    }

    fn ctx() -> StrlLintContext {
        StrlLintContext {
            now: 10,
            window_end: Some(100),
        }
    }

    #[test]
    fn healthy_expr_is_clean() {
        let e = StrlExpr::max([
            StrlExpr::nck(set(&[0, 1]), 2, 10, 5, 4.0),
            StrlExpr::nck(set(&[0, 1, 2, 3]), 2, 12, 6, 3.0),
        ]);
        assert!(lint_expr(&e, &ctx()).is_empty());
    }

    #[test]
    fn lnck_oversubscription_is_warning_not_error() {
        let e = StrlExpr::lnck(set(&[0, 1]), 4, 10, 5, 4.0);
        let diags = lint_expr(&e, &ctx());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "S002");
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn long_context_is_truncated() {
        let leaves: Vec<StrlExpr> = (0..20)
            .map(|i| StrlExpr::nck(set(&[0, 1, 2, 3, 4, 5]), 7, 10 + i, 5, 4.0))
            .collect();
        let diags = lint_expr(&StrlExpr::sum(leaves), &ctx());
        assert!(!diags.is_empty());
        for d in &diags {
            assert!(d.context.chars().count() <= 97);
        }
    }
}
