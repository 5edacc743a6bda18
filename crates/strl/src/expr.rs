//! The STRL expression tree (paper Sec. 4.1).

use std::fmt;

use tetrisched_cluster::NodeSet;

use crate::Time;

/// A STRL expression.
///
/// Expression trees compose leaves that initiate "the upward flow of value"
/// with operator nodes that multiplex (`max`), enforce uniformity (`min`),
/// cap (`barrier`), scale, or aggregate (`sum`) that flow.
#[derive(Debug, Clone, PartialEq)]
pub enum StrlExpr {
    /// `nCk(equivalence set, k, start, dur, v)`: any `k` resources from
    /// `set`, held from `start` for `dur` seconds, worth `v` when satisfied.
    NCk {
        /// Equivalence set to choose from.
        set: NodeSet,
        /// Number of resources required.
        k: u32,
        /// Allocation start time (absolute).
        start: Time,
        /// Allocation duration in seconds.
        dur: u64,
        /// Value when satisfied.
        value: f64,
    },
    /// Linear `nCk`: up to `k` resources, each contributing `value / k`.
    /// Suppresses enumerating the same option at every quantity (Sec. 4.1).
    LnCk {
        /// Equivalence set to choose from.
        set: NodeSet,
        /// Maximum number of resources.
        k: u32,
        /// Allocation start time (absolute).
        start: Time,
        /// Allocation duration in seconds.
        dur: u64,
        /// Value when all `k` are obtained (scales linearly below that).
        value: f64,
    },
    /// Satisfied if at least one child is; chooses the child of maximum
    /// value ("OR" semantics; soft constraints).
    Max(Vec<StrlExpr>),
    /// Satisfied only if all children are ("AND" semantics; anti-affinity
    /// and gang constraints). Its value is the minimum child value.
    Min(Vec<StrlExpr>),
    /// Aggregates children; the batching operator for global scheduling.
    Sum(Vec<StrlExpr>),
    /// Amplifies the child's value by a scalar.
    Scale {
        /// Multiplier applied to the child's value.
        factor: f64,
        /// Scaled subexpression.
        child: Box<StrlExpr>,
    },
    /// Satisfied if the child is valued at least `value`; returns `value`.
    Barrier {
        /// Threshold (and returned) value.
        value: f64,
        /// Thresholded subexpression.
        child: Box<StrlExpr>,
    },
}

impl StrlExpr {
    /// Builds an `nCk` leaf.
    pub fn nck(set: NodeSet, k: u32, start: Time, dur: u64, value: f64) -> StrlExpr {
        StrlExpr::NCk {
            set,
            k,
            start,
            dur,
            value,
        }
    }

    /// Builds a linear `nCk` leaf.
    pub fn lnck(set: NodeSet, k: u32, start: Time, dur: u64, value: f64) -> StrlExpr {
        StrlExpr::LnCk {
            set,
            k,
            start,
            dur,
            value,
        }
    }

    /// Builds a `max` over children.
    pub fn max(children: impl IntoIterator<Item = StrlExpr>) -> StrlExpr {
        StrlExpr::Max(children.into_iter().collect())
    }

    /// Builds a `min` over children.
    pub fn min(children: impl IntoIterator<Item = StrlExpr>) -> StrlExpr {
        StrlExpr::Min(children.into_iter().collect())
    }

    /// Builds a `sum` over children.
    pub fn sum(children: impl IntoIterator<Item = StrlExpr>) -> StrlExpr {
        StrlExpr::Sum(children.into_iter().collect())
    }

    /// Builds a `scale` node.
    pub fn scale(factor: f64, child: StrlExpr) -> StrlExpr {
        StrlExpr::Scale {
            factor,
            child: Box::new(child),
        }
    }

    /// Builds a `barrier` node.
    pub fn barrier(value: f64, child: StrlExpr) -> StrlExpr {
        StrlExpr::Barrier {
            value,
            child: Box::new(child),
        }
    }

    /// Immediate children of an operator node (empty for leaves).
    pub fn children(&self) -> &[StrlExpr] {
        match self {
            StrlExpr::Max(c) | StrlExpr::Min(c) | StrlExpr::Sum(c) => c,
            StrlExpr::Scale { child, .. } | StrlExpr::Barrier { child, .. } => {
                std::slice::from_ref(child)
            }
            _ => &[],
        }
    }

    /// Whether this node is a leaf primitive.
    pub fn is_leaf(&self) -> bool {
        matches!(self, StrlExpr::NCk { .. } | StrlExpr::LnCk { .. })
    }

    /// Visits every node in the tree, parents before children.
    pub fn visit(&self, f: &mut impl FnMut(&StrlExpr)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Number of leaf primitives.
    pub fn leaf_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |e| {
            if e.is_leaf() {
                n += 1;
            }
        });
        n
    }

    /// Evaluates the expression under a concrete placement: `granted[i]`
    /// is the number of resources awarded to the `i`-th leaf in pre-order
    /// walk order (the order [`StrlExpr::visit`] uses, and the order the
    /// MILP compiler assigns leaf slots in).
    ///
    /// Semantics (paper Sec. 4.1): an `nCk` leaf yields its value iff at
    /// least `k` resources are granted; `LnCk` yields
    /// `value * min(granted, k) / k`; `max`/`min`/`sum` fold their
    /// children; `scale` multiplies; `barrier` yields its value iff the
    /// child valuation reaches the threshold. Missing trailing entries
    /// count as zero grants.
    ///
    /// This is the STRL side of solve certification: the MILP solution,
    /// decoded back to granted-per-leaf counts, must evaluate here to the
    /// claimed objective (exactly when [`StrlExpr::has_relaxed_encoding`]
    /// is false, as a lower bound otherwise).
    pub fn placement_value(&self, granted: &[u32]) -> f64 {
        let mut ix = 0;
        self.placement_value_at(granted, &mut ix)
    }

    fn placement_value_at(&self, granted: &[u32], ix: &mut usize) -> f64 {
        match self {
            StrlExpr::NCk { k, value, .. } => {
                let g = granted.get(*ix).copied().unwrap_or(0);
                *ix += 1;
                if g >= *k {
                    *value
                } else {
                    0.0
                }
            }
            StrlExpr::LnCk { k, value, .. } => {
                let g = granted.get(*ix).copied().unwrap_or(0);
                *ix += 1;
                if *k == 0 {
                    0.0
                } else {
                    value * (g.min(*k) as f64) / (*k as f64)
                }
            }
            StrlExpr::Max(c) => c
                .iter()
                .map(|e| e.placement_value_at(granted, ix))
                .fold(0.0, f64::max),
            StrlExpr::Min(c) => {
                if c.is_empty() {
                    0.0
                } else {
                    c.iter()
                        .map(|e| e.placement_value_at(granted, ix))
                        .fold(f64::INFINITY, f64::min)
                }
            }
            StrlExpr::Sum(c) => c.iter().map(|e| e.placement_value_at(granted, ix)).sum(),
            StrlExpr::Scale { factor, child } => factor * child.placement_value_at(granted, ix),
            StrlExpr::Barrier { value, child } => {
                let v = child.placement_value_at(granted, ix);
                if v >= value - 1e-9 {
                    *value
                } else {
                    0.0
                }
            }
        }
    }

    /// Whether the tree contains operators whose MILP encoding is an
    /// inequality relaxation (`min`, `barrier`). For such trees the
    /// compiled objective under-approximates the STRL valuation of a
    /// placement (the solver is free to leave the coupling variable below
    /// its implied value), so translation validation checks a `<=` bound
    /// instead of exact equality.
    pub fn has_relaxed_encoding(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, StrlExpr::Min(_) | StrlExpr::Barrier { .. }) {
                found = true;
            }
        });
        found
    }

    /// An optimistic upper bound on the value this expression can yield.
    ///
    /// Used for culling: an expression whose bound is not positive can never
    /// be satisfied usefully.
    pub fn value_upper_bound(&self) -> f64 {
        match self {
            // A degenerate leaf (k = 0, or k larger than its set) can never
            // yield useful value: the demand constraint either awards value
            // for zero resources or is unsatisfiable.
            StrlExpr::NCk { set, k, value, .. } => {
                if *k == 0 || (set.len() as u32) < *k {
                    0.0
                } else {
                    value.max(0.0)
                }
            }
            // Linear nCk awards value per resource obtained, so an
            // undersized set caps the achievable fraction.
            StrlExpr::LnCk { set, k, value, .. } => {
                if *k == 0 {
                    0.0
                } else {
                    let frac = (set.len() as f64 / *k as f64).min(1.0);
                    (value * frac).max(0.0)
                }
            }
            StrlExpr::Max(c) => c
                .iter()
                .map(StrlExpr::value_upper_bound)
                .fold(0.0, f64::max),
            StrlExpr::Min(c) => c
                .iter()
                .map(StrlExpr::value_upper_bound)
                .fold(f64::INFINITY, f64::min)
                .max(0.0),
            StrlExpr::Sum(c) => c.iter().map(StrlExpr::value_upper_bound).sum(),
            StrlExpr::Scale { factor, child } => (factor * child.value_upper_bound()).max(0.0),
            StrlExpr::Barrier { value, child } => {
                if child.value_upper_bound() >= *value {
                    value.max(0.0)
                } else {
                    0.0
                }
            }
        }
    }
}

impl fmt::Display for StrlExpr {
    /// Formats in the paper's syntax, e.g.
    /// `nCk({M0, M1}, k=2, s=0, dur=2, v=4)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrlExpr::NCk {
                set,
                k,
                start,
                dur,
                value,
            } => write!(f, "nCk({set}, k={k}, s={start}, dur={dur}, v={value})"),
            StrlExpr::LnCk {
                set,
                k,
                start,
                dur,
                value,
            } => write!(f, "LnCk({set}, k={k}, s={start}, dur={dur}, v={value})"),
            StrlExpr::Max(c) => write_op(f, "max", c),
            StrlExpr::Min(c) => write_op(f, "min", c),
            StrlExpr::Sum(c) => write_op(f, "sum", c),
            StrlExpr::Scale { factor, child } => write!(f, "scale({factor}, {child})"),
            StrlExpr::Barrier { value, child } => write!(f, "barrier({value}, {child})"),
        }
    }
}

fn write_op(f: &mut fmt::Formatter<'_>, name: &str, children: &[StrlExpr]) -> fmt::Result {
    write!(f, "{name}(")?;
    for (i, c) in children.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{c}")?;
    }
    write!(f, ")")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrisched_cluster::NodeId;

    fn set(ids: &[u32]) -> NodeSet {
        NodeSet::from_ids(8, ids.iter().map(|&i| NodeId(i)))
    }

    /// The paper's Fig. 3 soft-constraint example.
    fn gpu_choice() -> StrlExpr {
        StrlExpr::max([
            StrlExpr::nck(set(&[0, 1]), 2, 0, 2, 4.0),
            StrlExpr::nck(set(&[0, 1, 2, 3]), 2, 0, 3, 3.0),
        ])
    }

    #[test]
    fn display_matches_paper_syntax() {
        let e = StrlExpr::nck(set(&[0, 1]), 2, 0, 2, 4.0);
        assert_eq!(e.to_string(), "nCk({M0, M1}, k=2, s=0, dur=2, v=4)");
    }

    #[test]
    fn display_nested() {
        let e = gpu_choice();
        assert!(e.to_string().starts_with("max(nCk("));
    }

    #[test]
    fn leaf_count() {
        let e = gpu_choice();
        assert_eq!(e.leaf_count(), 2);
        assert_eq!(StrlExpr::scale(2.0, e.clone()).leaf_count(), 2);
    }

    #[test]
    fn value_upper_bound_max() {
        assert_eq!(gpu_choice().value_upper_bound(), 4.0);
    }

    #[test]
    fn value_upper_bound_min_takes_smallest() {
        let e = StrlExpr::min([
            StrlExpr::nck(set(&[0]), 1, 0, 1, 5.0),
            StrlExpr::nck(set(&[1]), 1, 0, 1, 2.0),
        ]);
        assert_eq!(e.value_upper_bound(), 2.0);
    }

    #[test]
    fn value_upper_bound_barrier() {
        let child = StrlExpr::nck(set(&[0]), 1, 0, 1, 5.0);
        assert_eq!(
            StrlExpr::barrier(3.0, child.clone()).value_upper_bound(),
            3.0
        );
        assert_eq!(StrlExpr::barrier(9.0, child).value_upper_bound(), 0.0);
    }

    #[test]
    fn value_upper_bound_scale_and_sum() {
        let leaf = StrlExpr::nck(set(&[0]), 1, 0, 1, 2.0);
        let e = StrlExpr::sum([StrlExpr::scale(3.0, leaf.clone()), leaf]);
        assert_eq!(e.value_upper_bound(), 8.0);
    }

    #[test]
    fn placement_value_nck_threshold() {
        let e = StrlExpr::nck(set(&[0, 1]), 2, 0, 2, 4.0);
        assert_eq!(e.placement_value(&[2]), 4.0);
        assert_eq!(e.placement_value(&[1]), 0.0);
        assert_eq!(e.placement_value(&[]), 0.0);
    }

    #[test]
    fn placement_value_lnck_scales_linearly() {
        let e = StrlExpr::lnck(set(&[0, 1, 2, 3]), 4, 0, 2, 8.0);
        assert_eq!(e.placement_value(&[4]), 8.0);
        assert_eq!(e.placement_value(&[2]), 4.0);
        assert_eq!(e.placement_value(&[6]), 8.0); // capped at k
    }

    #[test]
    fn placement_value_operators() {
        // max(nCk(.., k=2, v=4), nCk(.., k=2, v=3)): leaves consume grant
        // slots in pre-order.
        let e = gpu_choice();
        assert_eq!(e.placement_value(&[2, 0]), 4.0);
        assert_eq!(e.placement_value(&[0, 2]), 3.0);
        assert_eq!(e.placement_value(&[0, 0]), 0.0);
        let s = StrlExpr::sum([gpu_choice(), gpu_choice()]);
        assert_eq!(s.placement_value(&[2, 0, 0, 2]), 7.0);
        let m = StrlExpr::min([
            StrlExpr::nck(set(&[0]), 1, 0, 1, 5.0),
            StrlExpr::nck(set(&[1]), 1, 0, 1, 2.0),
        ]);
        assert_eq!(m.placement_value(&[1, 1]), 2.0);
        assert_eq!(m.placement_value(&[1, 0]), 0.0);
        assert_eq!(StrlExpr::Min(vec![]).placement_value(&[]), 0.0);
    }

    #[test]
    fn placement_value_scale_and_barrier() {
        let leaf = StrlExpr::nck(set(&[0]), 1, 0, 1, 2.0);
        assert_eq!(
            StrlExpr::scale(3.0, leaf.clone()).placement_value(&[1]),
            6.0
        );
        assert_eq!(
            StrlExpr::barrier(2.0, leaf.clone()).placement_value(&[1]),
            2.0
        );
        assert_eq!(StrlExpr::barrier(5.0, leaf).placement_value(&[1]), 0.0);
    }

    #[test]
    fn relaxed_encoding_detection() {
        assert!(!gpu_choice().has_relaxed_encoding());
        assert!(StrlExpr::min([gpu_choice()]).has_relaxed_encoding());
        assert!(StrlExpr::barrier(1.0, gpu_choice()).has_relaxed_encoding());
    }

    #[test]
    fn visit_reaches_all_nodes() {
        let mut count = 0;
        StrlExpr::scale(1.0, gpu_choice()).visit(&mut |_| count += 1);
        assert_eq!(count, 4); // scale, max, two leaves
    }
}
