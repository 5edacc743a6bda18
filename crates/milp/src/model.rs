//! Model representation: variables, linear expressions, and constraints.
//!
//! Two invariants keep building a model at the cost of its arithmetic.
//! **Labels are values, not strings**: a [`Name`] is rendered only when a
//! diagnostic prints it. **Rows are canonical from insertion**:
//! [`Model::add_constraint`] stores a row's terms in ascending variable
//! order, duplicates merged, exact zeros dropped, so no reader (simplex
//! load, bound propagation, presolve, lint, certificates) sorts or copies a
//! row again. The order is established by a *stable* sort, so duplicates of
//! a variable sum in their insertion order: every merged coefficient — and
//! with it every tableau cell — has the bits it would have had if the row
//! had been accumulated term by term as given.

use std::fmt;

use crate::branch_bound::BranchBound;
use crate::config::SolverConfig;
use crate::error::{MilpError, Result};
use crate::kernels::{fixed_dot, is_nonzero};
use crate::status::Solution;

/// Identifier of a decision variable within a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Raw index of the variable in the model's column order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a constraint within a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintId(pub(crate) usize);

impl ConstraintId {
    /// Raw index of the constraint in the model's row order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Domain of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued variable.
    Continuous,
    /// Integer-valued variable.
    Integer,
    /// Integer variable implicitly clamped to `[0, 1]`.
    Binary,
}

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `lhs <= rhs`.
    Le,
    /// `lhs >= rhs`.
    Ge,
    /// `lhs == rhs`.
    Eq,
}

/// Label of a variable or row. Only diagnostics read it, through
/// [`fmt::Display`]; the indexed forms let a generator label what it emits
/// without formatting (or allocating) anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Name {
    /// A literal: `max_choice`.
    Fixed(&'static str),
    /// Prefix and index: `I_max3`.
    Idx(&'static str, u64),
    /// Two prefixed indices: `supply_c2_s7`.
    Idx2(&'static str, u64, &'static str, u64),
    /// Anything else, rendered by the caller.
    Owned(Box<str>),
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Name::Fixed(s) => f.write_str(s),
            Name::Idx(p, i) => write!(f, "{p}{i}"),
            Name::Idx2(p0, i0, p1, i1) => write!(f, "{p0}{i0}{p1}{i1}"),
            Name::Owned(s) => f.write_str(s),
        }
    }
}

impl From<&'static str> for Name {
    fn from(s: &'static str) -> Self {
        Name::Fixed(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name::Owned(s.into_boxed_str())
    }
}

/// A decision variable's static description.
#[derive(Debug, Clone)]
pub struct Variable {
    /// Label (rendered by diagnostics only).
    pub name: Name,
    /// Variable domain.
    pub kind: VarKind,
    /// Lower bound (may be `-inf`).
    pub lb: f64,
    /// Upper bound (may be `+inf`).
    pub ub: f64,
    /// Objective coefficient.
    pub obj: f64,
}

/// A linear constraint `sum(coeff * var) sense rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Label (rendered by diagnostics only).
    pub name: Name,
    /// Sparse terms `(variable, coefficient)` in canonical form (see the
    /// module documentation).
    pub terms: Vec<(VarId, f64)>,
    /// Constraint direction.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A sparse linear expression, used to build objectives and constraints.
///
/// Repeated variables are allowed; they are merged when the expression is
/// installed into a model.
#[derive(Debug, Clone, Default)]
pub struct LinExpr {
    /// Sparse terms `(variable, coefficient)`.
    pub terms: Vec<(VarId, f64)>,
    /// Constant offset (meaningful for objectives; ignored by constraints,
    /// where it should be folded into the right-hand side by the caller).
    pub constant: f64,
}

impl LinExpr {
    /// Creates an empty expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an expression holding a single constant.
    pub fn constant(c: f64) -> Self {
        Self {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// Creates an expression holding a single `coeff * var` term.
    pub fn term(var: VarId, coeff: f64) -> Self {
        Self {
            terms: vec![(var, coeff)],
            constant: 0.0,
        }
    }

    /// Adds another expression to this one.
    pub fn add_expr(&mut self, other: &LinExpr) -> &mut Self {
        self.terms.extend_from_slice(&other.terms);
        self.constant += other.constant;
        self
    }

    /// Returns this expression scaled by `s`.
    pub fn scaled(&self, s: f64) -> LinExpr {
        LinExpr {
            terms: self.terms.iter().map(|&(v, c)| (v, c * s)).collect(),
            constant: self.constant * s,
        }
    }

    /// Merges duplicate variables and drops zero coefficients.
    pub fn compact(&self) -> LinExpr {
        let mut terms = self.terms.clone();
        canonicalize(&mut terms);
        LinExpr {
            terms,
            constant: self.constant,
        }
    }
}

/// Puts a row's terms in canonical form, in place: ascending variable order
/// by stable sort, duplicates summed in insertion order, exact zeros dropped.
/// Terms already in that form (what the compiler emits for most rows) are
/// left untouched.
fn canonicalize(terms: &mut Vec<(VarId, f64)>) {
    if terms.is_sorted_by(|a, b| a.0 < b.0) && terms.iter().all(|&(_, c)| is_nonzero(c)) {
        return;
    }
    terms.sort_by_key(|&(v, _)| v);
    // A later duplicate folds into the first of its run, in order.
    terms.dedup_by(|later, first| {
        let same = later.0 == first.0;
        if same {
            first.1 += later.1;
        }
        same
    });
    terms.retain(|&(_, c)| is_nonzero(c));
}

/// A MILP model: maximize a linear objective subject to linear constraints
/// over bounded continuous/integer/binary variables.
#[derive(Debug, Clone, Default)]
pub struct Model {
    vars: Vec<Variable>,
    constraints: Vec<Constraint>,
    /// Constant added to the objective (STRL compilation never needs it, but
    /// callers composing objectives may).
    pub objective_offset: f64,
}

impl Model {
    /// Creates an empty maximization model.
    pub fn maximize() -> Self {
        Self::default()
    }

    /// [`Model::maximize`] with room for `vars` variables and `constraints`
    /// rows, for a builder that knows about how large its model will be.
    pub fn maximize_with_capacity(vars: usize, constraints: usize) -> Self {
        Model {
            vars: Vec::with_capacity(vars),
            constraints: Vec::with_capacity(constraints),
            objective_offset: 0.0,
        }
    }

    /// Adds a variable and returns its id.
    ///
    /// Binary variables have their bounds clamped to `[0, 1]`.
    pub fn add_var(
        &mut self,
        name: impl Into<Name>,
        kind: VarKind,
        lb: f64,
        ub: f64,
        obj: f64,
    ) -> VarId {
        let (lb, ub) = match kind {
            VarKind::Binary => (lb.max(0.0), ub.min(1.0)),
            _ => (lb, ub),
        };
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            name: name.into(),
            kind,
            lb,
            ub,
            obj,
        });
        id
    }

    /// Convenience: adds a binary variable with the given objective weight.
    pub fn add_binary(&mut self, name: impl Into<Name>, obj: f64) -> VarId {
        self.add_var(name, VarKind::Binary, 0.0, 1.0, obj)
    }

    /// Installs a whole expression into the objective.
    #[expect(
        clippy::indexing_slicing,
        reason = "VarIds are only minted by this model's add_var and always index `vars`"
    )]
    pub fn add_objective_expr(&mut self, expr: &LinExpr) {
        for &(v, c) in &expr.terms {
            self.vars[v.0].obj += c;
        }
        self.objective_offset += expr.constant;
    }

    /// Adds a constraint and returns its id. The terms are stored in
    /// canonical form (see the module documentation).
    pub fn add_constraint(
        &mut self,
        name: impl Into<Name>,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        sense: Sense,
        rhs: f64,
    ) -> ConstraintId {
        let mut terms: Vec<(VarId, f64)> = terms.into_iter().collect();
        canonicalize(&mut terms);
        let id = ConstraintId(self.constraints.len());
        self.constraints.push(Constraint {
            name: name.into(),
            terms,
            sense,
            rhs,
        });
        id
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Number of integer-constrained (integer or binary) variables.
    pub fn num_integer_vars(&self) -> usize {
        self.vars
            .iter()
            .filter(|v| v.kind != VarKind::Continuous)
            .count()
    }

    /// Read access to a variable description.
    #[expect(
        clippy::indexing_slicing,
        reason = "VarIds are only minted by this model's add_var and always index `vars`"
    )]
    pub fn var(&self, id: VarId) -> &Variable {
        &self.vars[id.0]
    }

    /// Read access to all variables in column order.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// Read access to a constraint.
    #[expect(
        clippy::indexing_slicing,
        reason = "ConstraintIds are only minted by this model's add_constraint and always index \
                  `constraints`"
    )]
    pub fn constraint(&self, id: ConstraintId) -> &Constraint {
        &self.constraints[id.0]
    }

    /// Read access to all constraints in row order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Mutably overrides the bounds of a variable (used by branch-and-bound).
    #[expect(
        clippy::indexing_slicing,
        reason = "VarIds are only minted by this model's add_var and always index `vars`"
    )]
    pub fn set_bounds(&mut self, var: VarId, lb: f64, ub: f64) {
        self.vars[var.0].lb = lb;
        self.vars[var.0].ub = ub;
    }

    /// Checks the model for structural problems: reversed bounds, non-finite
    /// coefficients, and dangling variable references.
    pub fn validate(&self) -> Result<()> {
        for v in &self.vars {
            if v.lb > v.ub {
                return Err(MilpError::InvalidBounds {
                    name: v.name.to_string(),
                    lb: v.lb,
                    ub: v.ub,
                });
            }
            if v.obj.is_nan() || v.obj.is_infinite() {
                return Err(MilpError::NonFiniteCoefficient {
                    context: format!("objective of `{}`", v.name),
                });
            }
        }
        for c in &self.constraints {
            if !c.rhs.is_finite() {
                return Err(MilpError::NonFiniteCoefficient {
                    context: format!("rhs of `{}`", c.name),
                });
            }
            for &(v, coeff) in &c.terms {
                if v.0 >= self.vars.len() {
                    return Err(MilpError::UnknownVariable(v.0));
                }
                if !coeff.is_finite() {
                    return Err(MilpError::NonFiniteCoefficient {
                        context: format!("constraint `{}`", c.name),
                    });
                }
            }
        }
        Ok(())
    }

    /// Evaluates the objective for a dense assignment.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective_offset + fixed_dot(self.vars.iter().zip(values).map(|(v, &x)| (v.obj, x)))
    }

    /// Checks whether a dense assignment satisfies every constraint, bound,
    /// and integrality requirement within tolerance `tol`.
    #[expect(
        clippy::indexing_slicing,
        reason = "the assignment length is checked against num_vars at entry, and every term VarId \
                  indexes this model"
    )]
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (v, &x) in self.vars.iter().zip(values) {
            if x < v.lb - tol || x > v.ub + tol {
                return false;
            }
            if v.kind != VarKind::Continuous && (x - x.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs = fixed_dot(c.terms.iter().map(|&(v, coeff)| (coeff, values[v.0])));
            let ok = match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Ge => lhs >= c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Solves the model with branch-and-bound.
    ///
    /// This is the primary entry point; see [`BranchBound`] for warm-start
    /// support.
    pub fn solve(&self, config: &SolverConfig) -> Result<Solution> {
        BranchBound::new(config.clone()).solve(self, None)
    }

    /// Solves the model, seeding branch-and-bound with a candidate solution
    /// (used for cross-cycle warm starts, paper Sec. 3.2.2).
    pub fn solve_warm(&self, config: &SolverConfig, warm: &[f64]) -> Result<Solution> {
        BranchBound::new(config.clone()).solve(self, Some(warm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linexpr_compact_merges_terms() {
        let a = VarId(0);
        let b = VarId(1);
        let e = LinExpr {
            terms: vec![(a, 1.0), (b, 2.0), (a, 3.0)],
            constant: 0.0,
        };
        let c = e.compact();
        assert_eq!(c.terms, vec![(a, 4.0), (b, 2.0)]);
    }

    #[test]
    fn linexpr_compact_drops_zeros() {
        let a = VarId(0);
        let e = LinExpr {
            terms: vec![(a, 1.0), (a, -1.0)],
            constant: 0.0,
        };
        assert!(e.compact().terms.is_empty());
    }

    #[test]
    fn linexpr_scaled() {
        let a = VarId(0);
        let e = LinExpr::term(a, 2.0).scaled(3.0);
        assert_eq!(e.terms, vec![(a, 6.0)]);
    }

    #[test]
    fn binary_bounds_clamped() {
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Binary, -5.0, 5.0, 1.0);
        assert_eq!(m.var(x).lb, 0.0);
        assert_eq!(m.var(x).ub, 1.0);
    }

    #[test]
    fn validate_rejects_reversed_bounds() {
        let mut m = Model::maximize();
        m.add_var("x", VarKind::Continuous, 1.0, 0.0, 0.0);
        assert!(matches!(m.validate(), Err(MilpError::InvalidBounds { .. })));
    }

    #[test]
    fn validate_rejects_nan_coeff() {
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 0.0);
        m.add_constraint("bad", [(x, f64::NAN)], Sense::Le, 1.0);
        assert!(matches!(
            m.validate(),
            Err(MilpError::NonFiniteCoefficient { .. })
        ));
    }

    #[test]
    fn feasibility_check_covers_integrality() {
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, 1.0);
        m.add_constraint("c", [(x, 1.0)], Sense::Le, 5.0);
        assert!(m.is_feasible(&[3.0], 1e-6));
        assert!(!m.is_feasible(&[3.5], 1e-6));
        assert!(!m.is_feasible(&[6.0], 1e-6));
    }
}
