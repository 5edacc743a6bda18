//! Expression analysis and simplification passes.
//!
//! The STRL Generator "performs many possible optimizations, such as culling
//! the expression growth" (paper Sec. 3.2.1); this module hosts the generic
//! tree-level ones: flattening nested operators, dropping provably worthless
//! branches, and collapsing trivial operators. Smaller expressions compile
//! to smaller MILP problems (Sec. 7.3).

use crate::expr::StrlExpr;

/// Aggregate statistics of an expression tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExprStats {
    /// Total nodes.
    pub nodes: usize,
    /// Leaf primitives (`nCk` / `LnCk`).
    pub leaves: usize,
    /// Tree depth.
    pub depth: usize,
    /// `max` operator nodes.
    pub max_ops: usize,
    /// `min` operator nodes.
    pub min_ops: usize,
    /// `sum` operator nodes.
    pub sum_ops: usize,
}

impl ExprStats {
    /// Computes statistics for an expression.
    pub fn of(expr: &StrlExpr) -> ExprStats {
        let mut s = ExprStats {
            depth: expr.depth(),
            ..Default::default()
        };
        expr.visit(&mut |e| {
            s.nodes += 1;
            match e {
                StrlExpr::NCk { .. } | StrlExpr::LnCk { .. } => s.leaves += 1,
                StrlExpr::Max(_) => s.max_ops += 1,
                StrlExpr::Min(_) => s.min_ops += 1,
                StrlExpr::Sum(_) => s.sum_ops += 1,
                _ => {}
            }
        });
        s
    }
}

/// Simplifies an expression without changing its value semantics:
///
/// - nested `sum`/`max` operators are flattened into their parent,
/// - branches that can never yield positive value are dropped (`max`/`sum`)
///   or poison their parent (`min`),
/// - single-child `max`/`min`/`sum` collapse to the child,
/// - `scale(1, e)` collapses to `e`; non-positive scales drop the branch,
/// - unsatisfiable subtrees normalize to the empty `max()`.
pub fn simplify(expr: StrlExpr) -> StrlExpr {
    match expr {
        // A leaf asking for nothing or worth nothing is worthless; an `nCk`
        // asking for more nodes than the set holds, or a linear leaf over
        // an empty set, is unsatisfiable.
        StrlExpr::NCk { set, k, value, .. } if k == 0 || value <= 0.0 || (set.len() as u32) < k => {
            StrlExpr::Max(Vec::new())
        }
        StrlExpr::LnCk { set, k, value, .. } if k == 0 || value <= 0.0 || set.is_empty() => {
            StrlExpr::Max(Vec::new())
        }
        leaf @ (StrlExpr::NCk { .. } | StrlExpr::LnCk { .. }) => leaf,
        StrlExpr::Max(children) => {
            let mut out = Vec::with_capacity(children.len());
            for c in children {
                match simplify(c) {
                    StrlExpr::Max(inner) => out.extend(inner),
                    e if e.value_upper_bound() <= 0.0 => {}
                    e => out.push(e),
                }
            }
            collapse(StrlExpr::Max(out))
        }
        StrlExpr::Sum(children) => {
            let mut out = Vec::with_capacity(children.len());
            for c in children {
                match simplify(c) {
                    StrlExpr::Sum(inner) => out.extend(inner),
                    e if e.value_upper_bound() <= 0.0 => {}
                    e => out.push(e),
                }
            }
            collapse(StrlExpr::Sum(out))
        }
        StrlExpr::Min(children) => {
            let mut out = Vec::with_capacity(children.len());
            for c in children {
                let s = simplify(c);
                if s.value_upper_bound() <= 0.0 {
                    // One unsatisfiable conjunct poisons the whole `min`.
                    return StrlExpr::Max(Vec::new());
                }
                out.push(s);
            }
            collapse(StrlExpr::Min(out))
        }
        StrlExpr::Scale { factor, child } => {
            if factor <= 0.0 {
                return StrlExpr::Max(Vec::new());
            }
            let child = simplify(*child);
            if child.value_upper_bound() <= 0.0 {
                StrlExpr::Max(Vec::new())
            } else if factor == 1.0 {
                child
            } else {
                StrlExpr::scale(factor, child)
            }
        }
        StrlExpr::Barrier { value, child } => {
            let child = simplify(*child);
            if child.value_upper_bound() < value || value <= 0.0 {
                StrlExpr::Max(Vec::new())
            } else {
                StrlExpr::barrier(value, child)
            }
        }
    }
}

/// Collapses a single-child operator to its child; empty `min` (vacuous
/// truth has no value here) normalizes to empty `max`.
// srclint: expect-boundary: the arm's guard holds the operator at exactly
// one child, so `pop` returns it.
fn collapse(expr: StrlExpr) -> StrlExpr {
    match expr {
        StrlExpr::Max(mut c) | StrlExpr::Min(mut c) | StrlExpr::Sum(mut c) if c.len() == 1 => {
            c.pop().expect("length checked")
        }
        StrlExpr::Min(c) if c.is_empty() => StrlExpr::Max(Vec::new()),
        StrlExpr::Sum(c) if c.is_empty() => StrlExpr::Max(Vec::new()),
        e => e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrisched_cluster::{NodeId, NodeSet};

    fn set(ids: &[u32]) -> NodeSet {
        NodeSet::from_ids(8, ids.iter().map(|&i| NodeId(i)))
    }

    fn leaf(v: f64) -> StrlExpr {
        StrlExpr::nck(set(&[0, 1]), 1, 0, 1, v)
    }

    #[test]
    fn stats_count_everything() {
        let e = StrlExpr::sum([
            StrlExpr::max([leaf(1.0), leaf(2.0)]),
            StrlExpr::min([leaf(1.0), leaf(1.0)]),
        ]);
        let s = ExprStats::of(&e);
        assert_eq!(s.nodes, 7);
        assert_eq!(s.leaves, 4);
        assert_eq!(s.depth, 3);
        assert_eq!(s.max_ops, 1);
        assert_eq!(s.min_ops, 1);
        assert_eq!(s.sum_ops, 1);
    }

    #[test]
    fn flatten_nested_sum_and_max() {
        let e = StrlExpr::sum([StrlExpr::sum([leaf(1.0), leaf(2.0)]), leaf(3.0)]);
        let s = simplify(e);
        assert!(matches!(&s, StrlExpr::Sum(c) if c.len() == 3));

        let e = StrlExpr::max([StrlExpr::max([leaf(1.0), leaf(2.0)]), leaf(3.0)]);
        let s = simplify(e);
        assert!(matches!(&s, StrlExpr::Max(c) if c.len() == 3));
    }

    #[test]
    fn worthless_branches_dropped() {
        let e = StrlExpr::max([leaf(0.0), leaf(2.0), leaf(-1.0)]);
        // Two worthless options drop; single survivor collapses.
        assert_eq!(simplify(e), leaf(2.0));
    }

    #[test]
    fn infeasible_k_drops() {
        // Ask for 5 nodes out of a 2-node set.
        let e = StrlExpr::nck(set(&[0, 1]), 5, 0, 1, 3.0);
        assert!(matches!(simplify(e), StrlExpr::Max(c) if c.is_empty()));
    }

    #[test]
    fn min_poisoned_by_worthless_child() {
        let e = StrlExpr::min([leaf(1.0), leaf(0.0)]);
        assert!(matches!(simplify(e), StrlExpr::Max(c) if c.is_empty()));
    }

    #[test]
    fn scale_one_collapses() {
        assert_eq!(simplify(StrlExpr::scale(1.0, leaf(2.0))), leaf(2.0));
    }

    #[test]
    fn scale_nonpositive_drops() {
        assert!(matches!(
            simplify(StrlExpr::scale(0.0, leaf(2.0))),
            StrlExpr::Max(c) if c.is_empty()
        ));
    }

    #[test]
    fn barrier_unreachable_drops() {
        assert!(matches!(
            simplify(StrlExpr::barrier(5.0, leaf(2.0))),
            StrlExpr::Max(c) if c.is_empty()
        ));
        // Reachable barrier survives.
        assert!(matches!(
            simplify(StrlExpr::barrier(2.0, leaf(2.0))),
            StrlExpr::Barrier { .. }
        ));
    }

    #[test]
    fn simplify_preserves_upper_bound() {
        let e = StrlExpr::sum([
            StrlExpr::max([leaf(4.0), leaf(3.0), leaf(0.0)]),
            StrlExpr::min([leaf(2.0), leaf(5.0)]),
            StrlExpr::scale(2.0, leaf(1.5)),
        ]);
        let before = e.value_upper_bound();
        let after = simplify(e).value_upper_bound();
        assert_eq!(before, after);
    }
}
