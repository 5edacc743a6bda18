//! Structural diagnostics over MILP models — the model half of the
//! `tetrisched-lint` static-analysis layer.
//!
//! The STRL → MILP compiler is trusted to emit well-formed models every
//! cycle, but unlike CPLEX our in-repo simplex/branch-and-bound has no
//! decades of presolve hardening to silently absorb a malformed model.
//! This module provides a pass pipeline that inspects a [`Model`] *before*
//! it reaches the solver:
//!
//! - structural smells (dangling variables, vacuous or duplicate rows,
//!   big-M-style coefficient conditioning) become Warning diagnostics,
//! - trivial infeasibility (crossed bounds, empty integer domains, rows
//!   violated by every point inside the variable bounds) becomes an Error
//!   diagnostic carrying a machine-checkable [`Certificate`],
//! - the same interval bound propagation that powers the certificates is
//!   exported ([`propagate_bounds`]) and reused by [`crate::presolve()`], so
//!   certified-infeasible models never enter simplex.
//!
//! The shared [`Diagnostic`] type is also what the workspace `lint` crate
//! emits from the STRL-expression and source-tree analyses it adds on top.

use std::collections::BTreeMap;
use std::fmt;

use crate::model::{Model, Sense, VarId, VarKind};

/// Numeric slack shared with presolve's infeasibility checks.
const FEAS_TOL: f64 = 1e-7;
/// Tolerance for bound-tightening arithmetic.
const TIGHTEN_TOL: f64 = 1e-9;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious structure; the model still solves correctly.
    Warning,
    /// The model is malformed or provably infeasible.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding of an analysis pass.
///
/// `code` is a stable machine identifier (`M...` for model passes, `S...`
/// for STRL passes, `L...` for source lints — see DESIGN.md for the full
/// table); `context` locates the finding (a row/variable name, an
/// expression rendering, or a `path:line`).
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable diagnostic code, e.g. `M007`.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// Where the finding is anchored (row name, variable, `path:line`, …).
    pub context: String,
    /// Machine-checkable refutation, for infeasibility findings.
    pub certificate: Option<Certificate>,
}

impl Diagnostic {
    /// Builds a diagnostic without a certificate.
    pub fn new(
        code: &'static str,
        severity: Severity,
        message: impl Into<String>,
        context: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            context: context.into(),
            certificate: None,
        }
    }

    /// Attaches a certificate.
    pub fn with_certificate(mut self, certificate: Certificate) -> Self {
        self.certificate = Some(certificate);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {} ({})",
            self.severity, self.code, self.message, self.context
        )
    }
}

/// One `(variable, coefficient, bounds-used)` entry of a row certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct CertTerm {
    /// Column index of the variable.
    pub var: usize,
    /// Coefficient of the variable in the refuted row.
    pub coeff: f64,
    /// Lower bound used when computing the activity interval.
    pub lb: f64,
    /// Upper bound used when computing the activity interval.
    pub ub: f64,
}

/// A machine-checkable refutation of a model's feasibility.
///
/// [`Certificate::verify`] re-derives the refutation from the model alone:
/// it replays the (deterministic) interval bound propagation, checks the
/// certificate's stated bounds are implied by it, and recomputes the
/// violated arithmetic from scratch. A certificate that verifies proves the
/// model has no feasible point, so the solver can report
/// `SolveStatus::Infeasible` without running simplex.
#[derive(Debug, Clone, PartialEq)]
pub enum Certificate {
    /// A variable whose (possibly propagated) bounds crossed: `lb > ub`.
    CrossedBounds {
        /// Column index of the variable.
        var: usize,
        /// Propagated lower bound.
        lb: f64,
        /// Propagated upper bound.
        ub: f64,
    },
    /// An integer variable whose propagated bounds admit no integer point.
    EmptyIntegerDomain {
        /// Column index of the variable.
        var: usize,
        /// Propagated (inward-rounded) lower bound.
        lb: f64,
        /// Propagated (inward-rounded) upper bound.
        ub: f64,
    },
    /// A row whose best achievable activity under the stated variable
    /// bounds still violates it.
    Row {
        /// Row index of the refuted constraint.
        row: usize,
        /// The row's terms with the bounds used for the activity interval.
        terms: Vec<CertTerm>,
        /// The row's sense.
        sense: Sense,
        /// The row's right-hand side.
        rhs: f64,
        /// Achievable `[min, max]` activity under the stated bounds.
        activity: (f64, f64),
    },
}

impl Certificate {
    /// Checks the certificate against `model`.
    ///
    /// Returns `Err` with a description when the certificate does not
    /// actually refute the model (wrong model, stale bounds, or arithmetic
    /// that does not reproduce).
    pub fn verify(&self, model: &Model) -> Result<(), String> {
        let prop = propagate_bounds(model, PROPAGATION_PASSES);
        match self {
            Certificate::CrossedBounds { var, lb, ub }
            | Certificate::EmptyIntegerDomain { var, lb, ub } => {
                let Some(&(plb, pub_)) = prop.bounds.get(*var) else {
                    return Err(format!("variable index {var} out of range"));
                };
                if lb <= ub {
                    return Err(format!("stated bounds [{lb}, {ub}] are not crossed"));
                }
                // The refutation is re-derived, not trusted: propagation on
                // the model itself must reproduce the crossed domain.
                if plb > pub_ + FEAS_TOL {
                    Ok(())
                } else {
                    Err(format!("propagated bounds [{plb}, {pub_}] are not crossed"))
                }
            }
            Certificate::Row {
                row,
                terms,
                sense,
                rhs,
                activity,
            } => {
                let Some(c) = model.constraints().get(*row) else {
                    return Err(format!("row index {row} out of range"));
                };
                if c.sense != *sense || (c.rhs - rhs).abs() > 1e-9 {
                    return Err("row sense/rhs do not match the model".into());
                }
                // Every stated bound must be implied by propagation: the
                // stated interval must contain the propagated one, so it
                // contains every feasible point.
                for t in terms {
                    let Some(&(plb, pub_)) = prop.bounds.get(t.var) else {
                        return Err(format!("variable index {} out of range", t.var));
                    };
                    if t.lb > plb + 1e-6 || t.ub < pub_ - 1e-6 {
                        return Err(format!(
                            "stated bounds [{}, {}] for column {} are tighter than \
                             the propagated [{plb}, {pub_}]",
                            t.lb, t.ub, t.var
                        ));
                    }
                }
                // Recompute the activity interval from the stated terms.
                let (lo, hi) = row_activity(terms.iter().map(|t| (t.coeff, t.lb, t.ub)));
                if (lo - activity.0).abs() > 1e-6 || (hi - activity.1).abs() > 1e-6 {
                    return Err(format!(
                        "stated activity {activity:?} does not reproduce ({lo}, {hi})"
                    ));
                }
                let violated = match sense {
                    Sense::Le => lo > rhs + FEAS_TOL,
                    Sense::Ge => hi < rhs - FEAS_TOL,
                    Sense::Eq => lo > rhs + FEAS_TOL || hi < rhs - FEAS_TOL,
                };
                if violated {
                    Ok(())
                } else {
                    Err(format!(
                        "activity interval ({lo}, {hi}) does not violate rhs {rhs}"
                    ))
                }
            }
        }
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Certificate::CrossedBounds { var, lb, ub } => {
                write!(f, "column {var}: propagated bounds crossed ({lb} > {ub})")
            }
            Certificate::EmptyIntegerDomain { var, lb, ub } => {
                write!(f, "column {var}: no integer point in [{lb}, {ub}]")
            }
            Certificate::Row {
                row,
                sense,
                rhs,
                activity,
                ..
            } => {
                let op = match sense {
                    Sense::Le => "<=",
                    Sense::Ge => ">=",
                    Sense::Eq => "==",
                };
                write!(
                    f,
                    "row {row}: achievable activity [{}, {}] cannot satisfy {op} {rhs}",
                    activity.0, activity.1
                )
            }
        }
    }
}

/// Number of tightening sweeps used everywhere certificates are produced or
/// verified (two is enough for STRL-shaped models; the count must match
/// between prover and verifier so the replay is exact).
pub const PROPAGATION_PASSES: usize = 2;

/// Result of interval bound propagation over a model.
#[derive(Debug, Clone)]
pub struct Propagation {
    /// Final `(lb, ub)` per column. Integer bounds are rounded inward.
    pub bounds: Vec<(f64, f64)>,
    /// Infeasibility certificates found (empty when none was proven).
    pub certificates: Vec<Certificate>,
}

/// Achievable `[min, max]` activity of a row given `(coefficient, lb, ub)`
/// per term, accumulated in term order. The one activity loop: propagation,
/// presolve's redundancy test and certificate verification all read it.
pub(crate) fn row_activity(terms: impl IntoIterator<Item = (f64, f64, f64)>) -> (f64, f64) {
    let (mut lo, mut hi) = (0.0f64, 0.0f64);
    for (c, lb, ub) in terms {
        let (a, b) = if c >= 0.0 {
            (c * lb, c * ub)
        } else {
            (c * ub, c * lb)
        };
        lo += a;
        hi += b;
    }
    (lo, hi)
}

/// Interval bound propagation: `passes` Gauss-Seidel sweeps of row-activity
/// tightening (each row caps every variable's contribution by the row's
/// right-hand side minus the extreme contribution of the other terms),
/// with integer bounds rounded inward.
///
/// Always returns the final bounds; any trivial infeasibility found —
/// crossed bounds, an empty integer domain, a row violated by every point
/// inside the final bounds — is reported as a [`Certificate`].
#[expect(
    clippy::indexing_slicing,
    reason = "lb/ub are collected from model.vars() and every index is a VarId of the same model \
              or an enumeration bounded by num_vars"
)]
pub fn propagate_bounds(model: &Model, passes: usize) -> Propagation {
    let mut lb: Vec<f64> = model.vars().iter().map(|v| v.lb).collect();
    let mut ub: Vec<f64> = model.vars().iter().map(|v| v.ub).collect();

    // Inward-round integer bounds up front (sound: no integer point lives
    // in the shaved fraction).
    for (j, v) in model.vars().iter().enumerate() {
        if v.kind != VarKind::Continuous {
            if lb[j].is_finite() {
                lb[j] = (lb[j] - TIGHTEN_TOL).ceil();
            }
            if ub[j].is_finite() {
                ub[j] = (ub[j] + TIGHTEN_TOL).floor();
            }
        }
    }

    let activity = |terms: &[(VarId, f64)], lb: &[f64], ub: &[f64]| {
        row_activity(
            terms
                .iter()
                .map(|&(v, c)| (c, lb[v.index()], ub[v.index()])),
        )
    };

    for _ in 0..passes.max(1) {
        for c in model.constraints() {
            let (terms, sense, rhs) = (&c.terms, c.sense, c.rhs);
            if terms.is_empty() {
                continue;
            }
            let (act_lo, act_hi) = activity(terms, &lb, &ub);
            let tighten_le = matches!(sense, Sense::Le | Sense::Eq);
            let tighten_ge = matches!(sense, Sense::Ge | Sense::Eq);
            for &(v, coeff) in terms {
                if coeff.abs() < TIGHTEN_TOL {
                    continue;
                }
                let j = v.index();
                let integral = model.var(v).kind != VarKind::Continuous;
                let (self_lo, self_hi) = if coeff >= 0.0 {
                    (coeff * lb[j], coeff * ub[j])
                } else {
                    (coeff * ub[j], coeff * lb[j])
                };
                if tighten_le {
                    let rest_lo = act_lo - self_lo;
                    if rest_lo.is_finite() {
                        // coeff * x <= rhs - rest_lo.
                        let cap = rhs - rest_lo;
                        if coeff > 0.0 {
                            let mut new_ub = cap / coeff;
                            if integral {
                                new_ub = (new_ub + TIGHTEN_TOL).floor();
                            }
                            if new_ub < ub[j] - TIGHTEN_TOL {
                                ub[j] = new_ub;
                            }
                        } else {
                            let mut new_lb = cap / coeff;
                            if integral {
                                new_lb = (new_lb - TIGHTEN_TOL).ceil();
                            }
                            if new_lb > lb[j] + TIGHTEN_TOL {
                                lb[j] = new_lb;
                            }
                        }
                    }
                }
                if tighten_ge {
                    let rest_hi = act_hi - self_hi;
                    if rest_hi.is_finite() {
                        // coeff * x >= rhs - rest_hi.
                        let floor_val = rhs - rest_hi;
                        if coeff > 0.0 {
                            let mut new_lb = floor_val / coeff;
                            if integral {
                                new_lb = (new_lb - TIGHTEN_TOL).ceil();
                            }
                            if new_lb > lb[j] + TIGHTEN_TOL {
                                lb[j] = new_lb;
                            }
                        } else {
                            let mut new_ub = floor_val / coeff;
                            if integral {
                                new_ub = (new_ub + TIGHTEN_TOL).floor();
                            }
                            if new_ub < ub[j] - TIGHTEN_TOL {
                                ub[j] = new_ub;
                            }
                        }
                    }
                }
            }
        }
    }

    let mut certificates = Vec::new();
    for (j, v) in model.vars().iter().enumerate() {
        if lb[j] > ub[j] + FEAS_TOL {
            certificates.push(if v.kind != VarKind::Continuous {
                Certificate::EmptyIntegerDomain {
                    var: j,
                    lb: lb[j],
                    ub: ub[j],
                }
            } else {
                Certificate::CrossedBounds {
                    var: j,
                    lb: lb[j],
                    ub: ub[j],
                }
            });
        }
    }
    for (row, c) in model.constraints().iter().enumerate() {
        let (terms, sense, rhs) = (&c.terms, c.sense, c.rhs);
        let (act_lo, act_hi) = activity(terms, &lb, &ub);
        let violated = match sense {
            Sense::Le => act_lo > rhs + FEAS_TOL,
            Sense::Ge => act_hi < rhs - FEAS_TOL,
            Sense::Eq => act_lo > rhs + FEAS_TOL || act_hi < rhs - FEAS_TOL,
        };
        if violated {
            certificates.push(Certificate::Row {
                row,
                terms: terms
                    .iter()
                    .map(|&(v, c)| CertTerm {
                        var: v.index(),
                        coeff: c,
                        lb: lb[v.index()],
                        ub: ub[v.index()],
                    })
                    .collect(),
                sense,
                rhs,
                activity: (act_lo, act_hi),
            });
        }
    }

    Propagation {
        bounds: lb.into_iter().zip(ub).collect(),
        certificates,
    }
}

/// Per-row coefficient ratio above which a big-M-style conditioning
/// warning is emitted.
const COEFF_RATIO_WARN: f64 = 1e6;

/// Runs every model analysis pass over `model` and returns the findings.
///
/// Codes emitted here (severity in parentheses):
///
/// - `M001` (Warning) — dangling variable: appears in no constraint and
///   carries a zero objective coefficient,
/// - `M002` (Warning) — vacuous row: no terms after compaction (a violated
///   empty row surfaces as `M007` instead),
/// - `M003` (Warning) — duplicate parallel rows: identical compacted terms
///   and sense; the tighter right-hand side dominates,
/// - `M004` (Error + certificate) — crossed bounds on a continuous
///   variable, directly or via bound propagation,
/// - `M005` (Error + certificate) — integer variable whose tight bounds
///   admit no integer point; (Warning) merely fractional integer bounds,
/// - `M006` (Warning) — big-M-style coefficient conditioning: a row whose
///   magnitude ratio exceeds 1e6,
/// - `M007` (Error + certificate) — a row violated by every point inside
///   the propagated variable bounds.
#[expect(
    clippy::indexing_slicing,
    reason = "`referenced` is allocated to num_vars, VarId accesses are explicitly range-guarded, \
              and certificate var/row indices come from propagate_bounds over the same model"
)]
pub fn lint_model(model: &Model) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // M001: dangling variables.
    let mut referenced = vec![false; model.num_vars()];
    for c in model.constraints() {
        for &(v, _) in &c.terms {
            if v.index() < referenced.len() {
                referenced[v.index()] = true;
            }
        }
    }
    for (j, v) in model.vars().iter().enumerate() {
        if !referenced[j] && crate::kernels::is_zero(v.obj) {
            diags.push(Diagnostic::new(
                "M001",
                Severity::Warning,
                "variable appears in no constraint and has zero objective",
                format!("variable `{}` (column {j})", v.name),
            ));
        }
    }

    // M002 vacuous rows / M003 duplicate rows share the compacted terms.
    let mut seen: BTreeMap<(Vec<(usize, u64)>, u8), usize> = BTreeMap::new();
    for (i, c) in model.constraints().iter().enumerate() {
        let terms = &c.terms;
        if terms.is_empty() {
            let satisfied = match c.sense {
                Sense::Le => 0.0 <= c.rhs + TIGHTEN_TOL,
                Sense::Ge => 0.0 >= c.rhs - TIGHTEN_TOL,
                Sense::Eq => c.rhs.abs() <= TIGHTEN_TOL,
            };
            if satisfied {
                diags.push(Diagnostic::new(
                    "M002",
                    Severity::Warning,
                    "row has no terms after compaction",
                    format!("row `{}` (index {i})", c.name),
                ));
            }
            continue;
        }
        let key: (Vec<(usize, u64)>, u8) = (
            terms
                .iter()
                .map(|&(v, coeff)| (v.index(), coeff.to_bits()))
                .collect(),
            match c.sense {
                Sense::Le => 0,
                Sense::Ge => 1,
                Sense::Eq => 2,
            },
        );
        if let Some(&first) = seen.get(&key) {
            diags.push(Diagnostic::new(
                "M003",
                Severity::Warning,
                format!(
                    "row duplicates row `{}`; the tighter right-hand side dominates",
                    model.constraints()[first].name
                ),
                format!("row `{}` (index {i})", c.name),
            ));
        } else {
            seen.insert(key, i);
        }

        // M006: per-row coefficient conditioning.
        let mags: Vec<f64> = terms
            .iter()
            .map(|&(_, coeff)| coeff.abs())
            .filter(|m| *m > 0.0)
            .collect();
        if let (Some(&min), Some(&max)) = (
            mags.iter()
                .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)),
            mags.iter()
                .max_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)),
        ) {
            if max / min > COEFF_RATIO_WARN {
                diags.push(Diagnostic::new(
                    "M006",
                    Severity::Warning,
                    format!(
                        "big-M-style conditioning: coefficient magnitudes span \
                         {min:e} to {max:e}"
                    ),
                    format!("row `{}` (index {i})", c.name),
                ));
            }
        }
    }

    // M005 (Warning): fractional but non-empty integer bounds.
    for (j, v) in model.vars().iter().enumerate() {
        if v.kind == VarKind::Continuous {
            continue;
        }
        let frac = |x: f64| x.is_finite() && (x - x.round()).abs() > 1e-9;
        if (frac(v.lb) || frac(v.ub)) && (v.lb - TIGHTEN_TOL).ceil() <= (v.ub + TIGHTEN_TOL).floor()
        {
            diags.push(Diagnostic::new(
                "M005",
                Severity::Warning,
                format!(
                    "integer variable has fractional bounds [{}, {}]; the solver \
                     rounds them inward",
                    v.lb, v.ub
                ),
                format!("variable `{}` (column {j})", v.name),
            ));
        }
    }

    // M004 / M005 / M007: the Error-severity findings, each with its
    // propagation-backed certificate.
    for cert in propagate_bounds(model, PROPAGATION_PASSES).certificates {
        let diag = match &cert {
            Certificate::CrossedBounds { var, lb, ub } => Diagnostic::new(
                "M004",
                Severity::Error,
                format!("bounds crossed after propagation: {lb} > {ub}"),
                format!("variable `{}` (column {var})", model.vars()[*var].name),
            ),
            Certificate::EmptyIntegerDomain { var, lb, ub } => Diagnostic::new(
                "M005",
                Severity::Error,
                format!("no integer point in propagated bounds [{lb}, {ub}]"),
                format!("variable `{}` (column {var})", model.vars()[*var].name),
            ),
            Certificate::Row { row, activity, .. } => Diagnostic::new(
                "M007",
                Severity::Error,
                format!(
                    "row is violated by every point inside the propagated bounds \
                     (achievable activity [{}, {}])",
                    activity.0, activity.1
                ),
                format!("row `{}` (index {row})", model.constraints()[*row].name),
            ),
        };
        diags.push(diag.with_certificate(cert));
    }

    diags
}

/// Whether any diagnostic is Error-severity.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Debug-mode pre-check run by the solver entry points: every certificate
/// the linter emits for this model must re-verify against it. Compiled away
/// in release builds; panics (in debug) when the lint layer contradicts
/// itself, because a bogus certificate would let presolve reject a feasible
/// model.
pub fn debug_precheck(model: &Model) {
    if cfg!(debug_assertions) {
        for d in lint_model(model) {
            if let Some(cert) = &d.certificate {
                let verdict = cert.verify(model);
                debug_assert!(
                    verdict.is_ok(),
                    "lint certificate failed verification for {} ({}): {verdict:?}",
                    d.code,
                    d.message
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense, VarKind};

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_model_is_clean() {
        let mut m = Model::maximize();
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 2.0);
        m.add_constraint("cap", [(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
        assert!(lint_model(&m).is_empty());
    }

    #[test]
    fn dangling_variable_warned() {
        let mut m = Model::maximize();
        m.add_var("orphan", VarKind::Continuous, 0.0, 1.0, 0.0);
        let x = m.add_binary("x", 1.0);
        m.add_constraint("c", [(x, 1.0)], Sense::Le, 1.0);
        let diags = lint_model(&m);
        assert_eq!(codes(&diags), vec!["M001"]);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn vacuous_row_warned() {
        let mut m = Model::maximize();
        m.add_binary("x", 1.0);
        m.add_constraint("empty", [], Sense::Le, 5.0);
        let diags = lint_model(&m);
        assert_eq!(codes(&diags), vec!["M002"]);
    }

    #[test]
    fn violated_empty_row_is_certified_infeasible() {
        let mut m = Model::maximize();
        m.add_binary("x", 1.0);
        m.add_constraint("broken", [], Sense::Ge, 5.0);
        let diags = lint_model(&m);
        assert_eq!(codes(&diags), vec!["M007"]);
        assert_eq!(diags[0].severity, Severity::Error);
        diags[0]
            .certificate
            .as_ref()
            .expect("M007 carries a certificate")
            .verify(&m)
            .expect("certificate verifies");
    }

    #[test]
    fn duplicate_rows_warned() {
        let mut m = Model::maximize();
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint("a", [(x, 1.0), (y, 2.0)], Sense::Le, 3.0);
        m.add_constraint("b", [(y, 2.0), (x, 1.0)], Sense::Le, 2.0);
        let diags = lint_model(&m);
        assert_eq!(codes(&diags), vec!["M003"]);
        assert!(diags[0].message.contains('a'));
    }

    #[test]
    fn crossed_bounds_certified() {
        let mut m = Model::maximize();
        m.add_var("x", VarKind::Continuous, 2.0, 1.0, 1.0);
        let diags = lint_model(&m);
        assert_eq!(codes(&diags), vec!["M004"]);
        diags[0]
            .certificate
            .as_ref()
            .expect("certificate")
            .verify(&m)
            .expect("verifies");
    }

    #[test]
    fn empty_integer_domain_certified() {
        let mut m = Model::maximize();
        m.add_var("x", VarKind::Integer, 0.4, 0.6, 1.0);
        let diags = lint_model(&m);
        assert_eq!(codes(&diags), vec!["M005"]);
        assert_eq!(diags[0].severity, Severity::Error);
        diags[0]
            .certificate
            .as_ref()
            .expect("certificate")
            .verify(&m)
            .expect("verifies");
    }

    #[test]
    fn fractional_integer_bounds_warned() {
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Integer, 0.5, 4.5, 1.0);
        m.add_constraint("c", [(x, 1.0)], Sense::Le, 4.0);
        let diags = lint_model(&m);
        assert_eq!(codes(&diags), vec!["M005"]);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn coefficient_range_warned() {
        let mut m = Model::maximize();
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint("bigm", [(x, 1.0), (y, 1e9)], Sense::Le, 1e9);
        let diags = lint_model(&m);
        assert_eq!(codes(&diags), vec!["M006"]);
    }

    #[test]
    fn directly_infeasible_row_certified() {
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 1.0, 1.0);
        m.add_constraint("impossible", [(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        let diags = lint_model(&m);
        assert!(codes(&diags).contains(&"M007"));
        let d = diags.iter().find(|d| d.code == "M007").expect("M007");
        d.certificate
            .as_ref()
            .expect("certificate")
            .verify(&m)
            .expect("verifies");
    }

    #[test]
    fn propagation_derived_infeasibility_certified() {
        // 2x <= 5 tightens integer x to <= 2; x >= 3 is then refutable even
        // though it is satisfiable under the raw bounds.
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, 1.0);
        m.add_constraint("cap", [(x, 2.0)], Sense::Le, 5.0);
        m.add_constraint("need", [(x, 1.0)], Sense::Ge, 3.0);
        let prop = propagate_bounds(&m, 2);
        assert_eq!(prop.bounds[0], (3.0, 2.0));
        let diags = lint_model(&m);
        assert!(codes(&diags).contains(&"M005") || codes(&diags).contains(&"M007"));
        for d in &diags {
            if let Some(cert) = &d.certificate {
                cert.verify(&m).expect("every certificate verifies");
            }
        }
    }

    #[test]
    fn certificate_rejects_wrong_model() {
        let mut bad = Model::maximize();
        let x = bad.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
        bad.add_constraint("impossible", [(x, 1.0)], Sense::Ge, 3.0);
        let cert = lint_model(&bad)
            .into_iter()
            .find_map(|d| d.certificate)
            .expect("certificate");

        // A relaxed model that IS feasible: the certificate must not verify.
        let mut ok = Model::maximize();
        let x = ok.add_var("x", VarKind::Continuous, 0.0, 5.0, 1.0);
        ok.add_constraint("impossible", [(x, 1.0)], Sense::Ge, 3.0);
        assert!(cert.verify(&ok).is_err());
    }

    #[test]
    fn propagation_tightens_like_presolve() {
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, 100.0, 1.0);
        m.add_constraint("cap", [(x, 2.0)], Sense::Le, 10.0);
        let prop = propagate_bounds(&m, 2);
        assert_eq!(prop.bounds[x.index()], (0.0, 5.0));
        assert!(prop.certificates.is_empty());
    }

    #[test]
    fn debug_precheck_accepts_infeasible_models() {
        // The pre-check validates certificates; it must NOT reject models
        // that are legitimately infeasible (solvers report that status).
        let mut m = Model::maximize();
        let x = m.add_binary("x", 1.0);
        m.add_constraint("no", [(x, 1.0)], Sense::Ge, 2.0);
        debug_precheck(&m);
    }
}
