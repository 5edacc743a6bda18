//! Proof-carrying solves: independently checkable certificates for every
//! solver outcome.
//!
//! The solver is the least auditable component in the scheduling pipeline:
//! a wrong incumbent, a wrong "infeasible", or an inflated bound silently
//! becomes a wrong placement decision. This module closes that gap in the
//! spirit of translation validation — instead of trusting simplex and
//! branch-and-bound, every [`Solution`] can carry a [`SolveAudit`] whose
//! claims are re-verified here from the model alone:
//!
//! - [`check_solution`] re-checks primal feasibility of every row,
//!   integrality of integer variables, and the claimed objective value,
//!   independent of simplex internals (`C001` on failure),
//! - LP-optimal nodes ship their final row duals; [`certify_solution`]
//!   re-derives reduced costs, checks dual feasibility, and confirms the
//!   strong-duality bound, then replays the branch-and-bound audit tree
//!   (branch coverage, prune justifications, bound monotonicity, gap
//!   claims) and checks complementary slackness at the incumbent's node
//!   (`C002` on failure),
//! - infeasible and unbounded claims are backed by Farkas duals,
//!   bound-propagation certificates (the PR 3 machinery), or an improving
//!   ray, completing the Farkas trio (`C003` on failure).
//!
//! Verification never consults tableau state: every check is arithmetic
//! over the [`Model`] the caller names and the shipped certificate data, so
//! a certificate vouches for that model and no other.

use crate::kernels::{fixed_dot, fixed_max, is_nonzero};
use crate::lint::{propagate_bounds, Certificate, Diagnostic, Severity, PROPAGATION_PASSES};
use crate::model::{Model, Sense, VarKind};
use crate::status::{Solution, SolveStatus};

/// Tolerance for primal feasibility / objective reproduction checks.
pub const PRIMAL_TOL: f64 = 1e-6;
/// Tolerance for dual sign conditions and reduced-cost classification.
pub const DUAL_TOL: f64 = 1e-5;
/// Tolerance for complementary-slackness checks (looser: the incumbent is
/// the *snapped* LP point, so activities moved by up to the snap distance).
const CS_TOL: f64 = 1e-4;
/// Tolerance below which a ray component counts as zero.
const RAY_TOL: f64 = 1e-7;

/// Scale-aware tolerance: `tol * (1 + |reference|)`.
fn scaled(tol: f64, reference: f64) -> f64 {
    tol * (1.0 + reference.abs())
}

/// Why a (sub)problem was claimed infeasible.
#[derive(Debug, Clone)]
pub enum InfeasibilityProof {
    /// Farkas dual vector `y` (one entry per row): under the sign
    /// conditions, `min over the box of (yᵀA)x > yᵀb`, so no feasible
    /// point exists.
    Farkas {
        /// Row multipliers.
        y: Vec<f64>,
    },
    /// A PR 3 bound-propagation certificate over the bounded model.
    Propagation {
        /// Machine-checkable refutation.
        certificate: Certificate,
    },
}

/// Dual certificate for one LP-optimal relaxation.
#[derive(Debug, Clone)]
pub struct LpCertificate {
    /// Claimed LP objective, *including* the model's objective offset.
    pub objective: f64,
    /// Row dual values at the optimum.
    pub duals: Vec<f64>,
}

/// What happened to one branch-and-bound node.
#[derive(Debug, Clone)]
pub enum NodeStatus {
    /// Pushed but never processed (left on the frontier at termination).
    Open,
    /// LP solved; branched on `var` at `floor`/`floor + 1`.
    Branched {
        /// Branching variable (column index).
        var: usize,
        /// Floor of the fractional relaxation value.
        floor: f64,
    },
    /// Node relaxation was infeasible.
    PrunedInfeasible {
        /// Refutation of the node's bounded relaxation (`None` when no
        /// proof could be produced — a certification failure).
        proof: Option<InfeasibilityProof>,
    },
    /// LP bound could not beat the incumbent (within the gap slack).
    PrunedByBound {
        /// Incumbent objective the prune was justified against.
        incumbent: f64,
    },
    /// The relaxation was integral: a candidate incumbent.
    IntegerFeasible {
        /// Objective of the snapped integral point.
        objective: f64,
    },
}

/// One node of the branch-and-bound audit log.
#[derive(Debug, Clone)]
pub struct AuditNode {
    /// Index of the parent node (`None` for the root).
    pub parent: Option<usize>,
    /// Cumulative bound patches `(var, lb, ub)` from the root.
    pub patches: Vec<(usize, f64, f64)>,
    /// Optimistic bound inherited from the parent relaxation (with offset).
    pub bound: f64,
    /// Outcome of processing the node.
    pub status: NodeStatus,
    /// Dual certificate, when the node's LP solved to optimality.
    pub lp: Option<LpCertificate>,
}

/// Where the returned incumbent came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncumbentSource {
    /// No incumbent was returned.
    None,
    /// The caller-provided warm start survived as the best point.
    WarmStart,
    /// The root diving heuristic produced it.
    Dive,
    /// An integral branch-and-bound node (index into the audit log).
    Node(usize),
}

/// The top-level claim the audit backs.
#[derive(Debug, Clone)]
pub enum SolveProof {
    /// The audit tree justifies the status/bound/gap claims.
    Tree,
    /// The root relaxation was infeasible.
    RootInfeasible {
        /// Refutation under the root bounds.
        proof: Option<InfeasibilityProof>,
    },
    /// A relaxation was unbounded, hence so is the model.
    UnboundedRay {
        /// Bound patches active when the ray was found (empty at the root).
        patches: Vec<(usize, f64, f64)>,
        /// Improving feasible ray over the structural variables.
        ray: Option<Vec<f64>>,
    },
}

/// Audit log emitted by a solve when [`crate::SolverConfig::audit`] is set.
///
/// It carries no model: node duals, bound patches, refutations and rays
/// replay against the model handed to [`certify_solution`], so they certify
/// a solve of that model only.
#[derive(Debug, Clone)]
pub struct SolveAudit {
    /// Relative gap the solve was configured with.
    pub rel_gap: f64,
    /// Whether a time/node limit interrupted the search.
    pub limit_hit: bool,
    /// The branch-and-bound node log (node 0 is the root).
    pub nodes: Vec<AuditNode>,
    /// Provenance of the returned incumbent.
    pub incumbent_source: IncumbentSource,
    /// The claim the log backs.
    pub proof: SolveProof,
}

/// Outcome of certifying one solution.
#[derive(Debug, Clone, Default)]
pub struct CertifyReport {
    /// Number of certificate checks that passed.
    pub verified: usize,
    /// Failures, as renderable diagnostics (`C001`–`C003`).
    pub diagnostics: Vec<Diagnostic>,
}

impl CertifyReport {
    /// Whether every attempted check passed.
    pub fn passed(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Re-verifies the primal claims of a solution against `model`,
/// independent of solver internals: assignment length, variable bounds,
/// integrality, every constraint row, and the claimed objective value.
///
/// Statuses without an assignment have no primal claim and pass trivially.
#[expect(
    clippy::indexing_slicing,
    reason = "x.len() == num_vars is checked at entry, and every constraint term's VarId indexes a \
              model variable by construction"
)]
pub fn check_solution(model: &Model, sol: &Solution) -> Result<(), String> {
    if !sol.status.has_solution() {
        return Ok(());
    }
    let x = &sol.values;
    if x.len() != model.num_vars() {
        return Err(format!(
            "assignment has {} values, model has {} variables",
            x.len(),
            model.num_vars()
        ));
    }
    for (j, (v, &xj)) in model.vars().iter().zip(x.iter()).enumerate() {
        if !xj.is_finite() {
            return Err(format!("column {j} (`{}`) is not finite: {xj}", v.name));
        }
        if xj < v.lb - PRIMAL_TOL || xj > v.ub + PRIMAL_TOL {
            return Err(format!(
                "column {j} (`{}`) = {xj} violates bounds [{}, {}]",
                v.name, v.lb, v.ub
            ));
        }
        if v.kind != VarKind::Continuous && (xj - xj.round()).abs() > PRIMAL_TOL {
            return Err(format!(
                "integer column {j} (`{}`) has fractional value {xj}",
                v.name
            ));
        }
    }
    for (i, c) in model.constraints().iter().enumerate() {
        let lhs = fixed_dot(c.terms.iter().map(|&(v, a)| (a, x[v.index()])));
        let tol = scaled(PRIMAL_TOL, c.rhs);
        let ok = match c.sense {
            Sense::Le => lhs <= c.rhs + tol,
            Sense::Ge => lhs >= c.rhs - tol,
            Sense::Eq => (lhs - c.rhs).abs() <= tol,
        };
        if !ok {
            return Err(format!(
                "row {i} (`{}`): activity {lhs} violates {:?} {}",
                c.name, c.sense, c.rhs
            ));
        }
    }
    let obj = model.objective_value(x);
    if (obj - sol.objective).abs() > scaled(PRIMAL_TOL, sol.objective) {
        return Err(format!(
            "claimed objective {} does not reproduce (recomputed {obj})",
            sol.objective
        ));
    }
    Ok(())
}

/// Checks dual feasibility of `y` for the (maximization) model under the
/// given bounds and returns the certified dual upper bound
/// `yᵀb + Σ_j max over [lb_j, ub_j] of d_j x_j` where `d = c - yᵀA`.
#[expect(
    clippy::indexing_slicing,
    reason = "y.len() is checked against num_constraints at entry; yta/lb/ub are per-variable \
              vectors the callers build from model.vars(), indexed by VarId / 0..num_vars"
)]
pub fn dual_bound(model: &Model, lb: &[f64], ub: &[f64], y: &[f64]) -> Result<f64, String> {
    if y.len() != model.num_constraints() {
        return Err(format!(
            "dual vector has {} entries, model has {} rows",
            y.len(),
            model.num_constraints()
        ));
    }
    let mut yta = vec![0.0; model.num_vars()];
    let mut ytb = 0.0;
    for (i, c) in model.constraints().iter().enumerate() {
        let yi = y[i];
        match c.sense {
            Sense::Le if yi < -DUAL_TOL => {
                return Err(format!("row {i} (<=) has negative dual {yi}"));
            }
            Sense::Ge if yi > DUAL_TOL => {
                return Err(format!("row {i} (>=) has positive dual {yi}"));
            }
            _ => {}
        }
        if is_nonzero(yi) {
            for &(v, a) in &c.terms {
                yta[v.index()] += yi * a;
            }
            ytb += yi * c.rhs;
        }
    }
    let mut bound = ytb;
    for (j, v) in model.vars().iter().enumerate() {
        let d = v.obj - yta[j];
        if d > DUAL_TOL {
            if !ub[j].is_finite() {
                return Err(format!(
                    "column {j} has positive reduced cost {d} with infinite upper bound"
                ));
            }
            bound += d * ub[j];
        } else if d < -DUAL_TOL {
            if !lb[j].is_finite() {
                return Err(format!(
                    "column {j} has negative reduced cost {d} with infinite lower bound"
                ));
            }
            bound += d * lb[j];
        } else {
            // Numerically zero reduced cost: the exact max contribution over
            // the finite endpoints (the drift is O(|d| * bound), negligible).
            let contrib = fixed_max(
                [lb[j], ub[j]]
                    .into_iter()
                    .filter(|b| b.is_finite())
                    .map(|b| d * b),
            );
            if contrib.is_finite() {
                bound += contrib;
            }
        }
    }
    Ok(bound)
}

/// Verifies a Farkas infeasibility certificate: under the dual sign
/// conditions, the minimum of `(yᵀA)x` over the variable box must strictly
/// exceed `yᵀb`, so no point in the box satisfies all rows.
#[expect(
    clippy::indexing_slicing,
    reason = "y.len() is checked against num_constraints at entry; w/lb/ub are per-variable \
              vectors indexed by VarId / 0..num_vars"
)]
pub fn verify_farkas(model: &Model, lb: &[f64], ub: &[f64], y: &[f64]) -> Result<(), String> {
    if y.len() != model.num_constraints() {
        return Err(format!(
            "Farkas vector has {} entries, model has {} rows",
            y.len(),
            model.num_constraints()
        ));
    }
    let mut w = vec![0.0; model.num_vars()];
    let mut ytb = 0.0;
    for (i, c) in model.constraints().iter().enumerate() {
        let yi = y[i];
        match c.sense {
            Sense::Le if yi < -DUAL_TOL => {
                return Err(format!("row {i} (<=) has negative multiplier {yi}"));
            }
            Sense::Ge if yi > DUAL_TOL => {
                return Err(format!("row {i} (>=) has positive multiplier {yi}"));
            }
            _ => {}
        }
        if is_nonzero(yi) {
            for &(v, a) in &c.terms {
                w[v.index()] += yi * a;
            }
            ytb += yi * c.rhs;
        }
    }
    let mut min_activity = 0.0;
    for (j, &wj) in w.iter().enumerate() {
        if wj > RAY_TOL {
            if !lb[j].is_finite() {
                return Err(format!(
                    "column {j}: positive combined coefficient {wj} with infinite lower bound"
                ));
            }
            min_activity += wj * lb[j];
        } else if wj < -RAY_TOL {
            if !ub[j].is_finite() {
                return Err(format!(
                    "column {j}: negative combined coefficient {wj} with infinite upper bound"
                ));
            }
            min_activity += wj * ub[j];
        }
    }
    if min_activity > ytb + scaled(1e-9, ytb) {
        Ok(())
    } else {
        Err(format!(
            "combination does not refute: min activity {min_activity} vs rhs {ytb}"
        ))
    }
}

/// Verifies an unboundedness ray: every component growing toward an
/// infinite bound, every row's activity moving in a feasible direction,
/// and a strictly positive objective rate.
#[expect(
    clippy::indexing_slicing,
    reason = "ray.len() is checked against num_vars at entry; lb/ub are per-variable vectors from \
              the same callers"
)]
pub fn verify_ray(model: &Model, lb: &[f64], ub: &[f64], ray: &[f64]) -> Result<(), String> {
    if ray.len() != model.num_vars() {
        return Err(format!(
            "ray has {} entries, model has {} variables",
            ray.len(),
            model.num_vars()
        ));
    }
    for (j, &r) in ray.iter().enumerate() {
        if r > RAY_TOL && ub[j].is_finite() {
            return Err(format!(
                "column {j} grows (+{r}) against finite upper bound"
            ));
        }
        if r < -RAY_TOL && lb[j].is_finite() {
            return Err(format!(
                "column {j} shrinks ({r}) against finite lower bound"
            ));
        }
    }
    for (i, c) in model.constraints().iter().enumerate() {
        let mut rate = 0.0;
        let mut mag = 0.0;
        for &(v, a) in &c.terms {
            rate += a * ray[v.index()];
            mag += (a * ray[v.index()]).abs();
        }
        let tol = scaled(RAY_TOL, mag);
        let ok = match c.sense {
            Sense::Le => rate <= tol,
            Sense::Ge => rate >= -tol,
            Sense::Eq => rate.abs() <= tol,
        };
        if !ok {
            return Err(format!(
                "row {i} (`{}`): activity rate {rate} leaves the feasible side",
                c.name
            ));
        }
    }
    let growth = fixed_dot(model.vars().iter().zip(ray).map(|(v, &r)| (v.obj, r)));
    if growth > RAY_TOL {
        Ok(())
    } else {
        Err(format!("objective rate {growth} is not positive"))
    }
}

/// Clones `model` with the given bound overrides installed.
#[expect(
    clippy::indexing_slicing,
    reason = "lb/ub are per-variable vectors of length num_vars at every call site (base_bounds / \
              node_bounds products)"
)]
pub fn bounded_model(model: &Model, lb: &[f64], ub: &[f64]) -> Model {
    let mut m = model.clone();
    for j in 0..m.num_vars() {
        m.set_bounds(crate::model::VarId(j), lb[j], ub[j]);
    }
    m
}

/// Verifies an [`InfeasibilityProof`] against the bounded model.
pub fn verify_infeasibility_proof(
    model: &Model,
    lb: &[f64],
    ub: &[f64],
    proof: &InfeasibilityProof,
) -> Result<(), String> {
    match proof {
        InfeasibilityProof::Farkas { y } => verify_farkas(model, lb, ub, y),
        InfeasibilityProof::Propagation { certificate } => {
            certificate.verify(&bounded_model(model, lb, ub))
        }
    }
}

/// Mints an [`InfeasibilityProof`] for a bounded relaxation the LP reported
/// infeasible: the simplex Farkas candidate if it verifies, else a
/// bound-propagation certificate (PR 3 machinery), else `None`.
pub fn mint_infeasibility_proof(
    model: &Model,
    lb: &[f64],
    ub: &[f64],
    farkas: Option<Vec<f64>>,
) -> Option<InfeasibilityProof> {
    if let Some(y) = farkas {
        if verify_farkas(model, lb, ub, &y).is_ok() {
            return Some(InfeasibilityProof::Farkas { y });
        }
    }
    let bounded = bounded_model(model, lb, ub);
    propagate_bounds(&bounded, PROPAGATION_PASSES)
        .certificates
        .into_iter()
        .next()
        .map(|certificate| InfeasibilityProof::Propagation { certificate })
}

/// Base (integer-rounded) bounds of a model: the root box of every search,
/// and so of every replay.
#[expect(
    clippy::indexing_slicing,
    reason = "lb/ub are allocated to num_vars and indexed by the enumeration over model.vars() of \
              the same length"
)]
pub(crate) fn base_bounds(model: &Model) -> (Vec<f64>, Vec<f64>) {
    let n = model.num_vars();
    let mut lb = vec![0.0; n];
    let mut ub = vec![0.0; n];
    for (j, v) in model.vars().iter().enumerate() {
        let (mut lo, mut hi) = (v.lb, v.ub);
        if v.kind != VarKind::Continuous {
            if lo.is_finite() {
                lo = lo.ceil();
            }
            if hi.is_finite() {
                hi = hi.floor();
            }
        }
        lb[j] = lo;
        ub[j] = hi;
    }
    (lb, ub)
}

/// Materializes a node's bounds from the base bounds plus its patches.
#[expect(
    clippy::indexing_slicing,
    reason = "patch indices are range-checked against lb.len() right before use; an out-of-range \
              patch returns Err"
)]
fn node_bounds(
    base_lb: &[f64],
    base_ub: &[f64],
    patches: &[(usize, f64, f64)],
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut lb = base_lb.to_vec();
    let mut ub = base_ub.to_vec();
    for &(j, lo, hi) in patches {
        if j >= lb.len() {
            return Err(format!("patch variable {j} out of range"));
        }
        lb[j] = lo;
        ub[j] = hi;
    }
    Ok((lb, ub))
}

fn c002(message: String, context: String) -> Diagnostic {
    Diagnostic::new("C002", Severity::Error, message, context)
}

fn c003(message: String, context: String) -> Diagnostic {
    Diagnostic::new("C003", Severity::Error, message, context)
}

/// Complementary slackness of the incumbent against its node's duals:
/// active duals imply tight rows, decisive reduced costs imply the
/// variable rests at the matching bound.
#[expect(
    clippy::indexing_slicing,
    reason = "duals has one entry per constraint and yta/lb/ub/x one per variable; the caller \
              (certify_tree) validates both lengths before invoking this check"
)]
fn check_complementary_slackness(
    model: &Model,
    lb: &[f64],
    ub: &[f64],
    duals: &[f64],
    x: &[f64],
) -> Result<(), String> {
    let mut yta = vec![0.0; model.num_vars()];
    for (i, c) in model.constraints().iter().enumerate() {
        let yi = duals[i];
        if is_nonzero(yi) {
            for &(v, a) in &c.terms {
                yta[v.index()] += yi * a;
            }
        }
        if matches!(c.sense, Sense::Eq) {
            continue;
        }
        if yi.abs() > CS_TOL {
            let lhs = fixed_dot(c.terms.iter().map(|&(v, a)| (a, x[v.index()])));
            if (lhs - c.rhs).abs() > scaled(CS_TOL, c.rhs) {
                return Err(format!(
                    "row {i} (`{}`) has dual {yi} but slack {}",
                    c.name,
                    c.rhs - lhs
                ));
            }
        }
    }
    for (j, v) in model.vars().iter().enumerate() {
        let d = v.obj - yta[j];
        if d > CS_TOL && ub[j].is_finite() && x[j] < ub[j] - CS_TOL {
            return Err(format!(
                "column {j} (`{}`): reduced cost {d} but value {} below upper bound {}",
                v.name, x[j], ub[j]
            ));
        }
        if d < -CS_TOL && lb[j].is_finite() && x[j] > lb[j] + CS_TOL {
            return Err(format!(
                "column {j} (`{}`): reduced cost {d} but value {} above lower bound {}",
                v.name, x[j], lb[j]
            ));
        }
    }
    Ok(())
}

/// Replays a branch-and-bound audit tree against `m` and validates every
/// claim in it.
#[expect(
    clippy::indexing_slicing,
    reason = "node/parent indices are range-checked against nodes.len() as the tree is walked \
              (out-of-range indices become C002 diagnostics, not accesses); per-variable vectors \
              come from base_bounds"
)]
fn certify_tree(m: &Model, sol: &Solution, audit: &SolveAudit, diags: &mut Vec<Diagnostic>) {
    let (base_lb, base_ub) = base_bounds(m);
    let nodes = &audit.nodes;
    if nodes.is_empty() {
        diags.push(c002("audit tree has no nodes".into(), "solve audit".into()));
        return;
    }
    if nodes[0].parent.is_some() || !nodes[0].patches.is_empty() {
        diags.push(c002(
            "audit root must have no parent and no patches".into(),
            "solve audit node 0".into(),
        ));
    }
    // Every bound a tree claims descends from the root relaxation's, so the
    // root's dual certificate is what backs a solve that ends at the root.
    if nodes[0].lp.is_none() {
        diags.push(c002(
            "audit root carries no LP certificate".into(),
            "solve audit node 0".into(),
        ));
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (ix, n) in nodes.iter().enumerate() {
        if let Some(p) = n.parent {
            if p >= nodes.len() {
                diags.push(c002(
                    format!("parent index {p} out of range"),
                    format!("solve audit node {ix}"),
                ));
            } else {
                children[p].push(ix);
            }
        }
    }

    let inc_obj = sol.status.has_solution().then_some(sol.objective);
    for (ix, n) in nodes.iter().enumerate() {
        let ctx = format!("solve audit node {ix}");
        let (lb, ub) = match node_bounds(&base_lb, &base_ub, &n.patches) {
            Ok(b) => b,
            Err(e) => {
                diags.push(c002(e, ctx));
                continue;
            }
        };
        if let Some(lp) = &n.lp {
            match dual_bound(m, &lb, &ub, &lp.duals) {
                Ok(u) => {
                    let u = u + m.objective_offset;
                    if (u - lp.objective).abs() > scaled(DUAL_TOL, lp.objective) {
                        diags.push(c002(
                            format!(
                                "dual bound {u} does not certify claimed LP objective {}",
                                lp.objective
                            ),
                            ctx.clone(),
                        ));
                    }
                }
                Err(e) => diags.push(c002(format!("dual certificate rejected: {e}"), ctx.clone())),
            }
            if lp.objective > n.bound + scaled(DUAL_TOL, n.bound) {
                diags.push(c002(
                    format!(
                        "LP objective {} exceeds inherited bound {}",
                        lp.objective, n.bound
                    ),
                    ctx.clone(),
                ));
            }
        }
        match &n.status {
            NodeStatus::Open => {}
            NodeStatus::Branched { var, floor } => {
                let Some(lp) = &n.lp else {
                    diags.push(c002("branched node carries no LP certificate".into(), ctx));
                    continue;
                };
                if *var >= m.num_vars() || m.vars()[*var].kind == VarKind::Continuous {
                    diags.push(c002(
                        format!("branching variable {var} is not integer-constrained"),
                        ctx.clone(),
                    ));
                    continue;
                }
                let down = (*var, lb[*var], floor.min(ub[*var]));
                let up = (*var, (floor + 1.0).max(lb[*var]), ub[*var]);
                let mut expect = vec![down, up];
                if children[ix].len() != 2 {
                    diags.push(c002(
                        format!(
                            "branched node has {} recorded children, expected 2",
                            children[ix].len()
                        ),
                        ctx.clone(),
                    ));
                    continue;
                }
                for &cix in &children[ix] {
                    let child = &nodes[cix];
                    let Some(&last) = child.patches.last() else {
                        diags.push(c002(
                            format!("child {cix} has no branching patch"),
                            ctx.clone(),
                        ));
                        continue;
                    };
                    if child.patches[..child.patches.len() - 1] != n.patches[..] {
                        diags.push(c002(
                            format!("child {cix} does not extend this node's patches"),
                            ctx.clone(),
                        ));
                    }
                    match expect.iter().position(|&(j, lo, hi)| {
                        j == last.0 && (lo - last.1).abs() <= 1e-9 && (hi - last.2).abs() <= 1e-9
                    }) {
                        Some(k) => {
                            expect.remove(k);
                        }
                        None => diags.push(c002(
                            format!("child {cix} patch {last:?} does not match the branch"),
                            ctx.clone(),
                        )),
                    }
                    if (child.bound - lp.objective).abs() > scaled(1e-9, lp.objective) {
                        diags.push(c002(
                            format!(
                                "child {cix} bound {} is not the parent LP objective {}",
                                child.bound, lp.objective
                            ),
                            ctx.clone(),
                        ));
                    }
                }
                if !expect.is_empty() {
                    diags.push(c002(
                        format!("children do not cover the branched domain: missing {expect:?}"),
                        ctx.clone(),
                    ));
                }
            }
            NodeStatus::PrunedInfeasible { proof } => match proof {
                None => diags.push(c003(
                    "infeasible node carries no refutation".into(),
                    ctx.clone(),
                )),
                Some(p) => {
                    if let Err(e) = verify_infeasibility_proof(m, &lb, &ub, p) {
                        diags.push(c003(format!("node refutation rejected: {e}"), ctx.clone()));
                    }
                }
            },
            NodeStatus::PrunedByBound { incumbent } => {
                let Some(lp) = &n.lp else {
                    diags.push(c002("pruned node carries no LP certificate".into(), ctx));
                    continue;
                };
                let slack = audit.rel_gap * incumbent.abs().max(1.0);
                if lp.objective > incumbent + slack + scaled(DUAL_TOL, *incumbent) {
                    diags.push(c002(
                        format!(
                            "prune not justified: LP objective {} beats incumbent {incumbent} \
                             beyond the gap slack",
                            lp.objective
                        ),
                        ctx.clone(),
                    ));
                }
                if let Some(best) = inc_obj {
                    if *incumbent > best + scaled(PRIMAL_TOL, best) {
                        diags.push(c002(
                            format!(
                                "prune incumbent {incumbent} exceeds the final objective {best}"
                            ),
                            ctx.clone(),
                        ));
                    }
                }
            }
            NodeStatus::IntegerFeasible { objective } => {
                if let Some(best) = inc_obj {
                    if *objective > best + scaled(PRIMAL_TOL, best) {
                        diags.push(c002(
                            format!(
                                "integral node objective {objective} exceeds the final \
                                 objective {best}"
                            ),
                            ctx.clone(),
                        ));
                    }
                }
            }
        }
    }

    // Incumbent provenance.
    match audit.incumbent_source {
        IncumbentSource::None => {
            if sol.status.has_solution() {
                diags.push(c002(
                    "solution returned but incumbent source is None".into(),
                    "solve audit".into(),
                ));
            }
        }
        IncumbentSource::WarmStart | IncumbentSource::Dive => {}
        IncumbentSource::Node(ix) => {
            let ok = nodes.get(ix).is_some_and(|n| {
                matches!(&n.status, NodeStatus::IntegerFeasible { objective }
                    if (objective - sol.objective).abs() <= scaled(PRIMAL_TOL, sol.objective))
            });
            if !ok {
                diags.push(c002(
                    format!("incumbent node {ix} is not an integral node at the final objective"),
                    "solve audit".into(),
                ));
            } else if let Some(n) = nodes.get(ix) {
                // Complementary slackness of the incumbent at its node.
                if let (Some(lp), Ok((lb, ub))) =
                    (&n.lp, node_bounds(&base_lb, &base_ub, &n.patches))
                {
                    if sol.values.len() == m.num_vars() {
                        if let Err(e) =
                            check_complementary_slackness(m, &lb, &ub, &lp.duals, &sol.values)
                        {
                            diags.push(c002(
                                format!("complementary slackness violated: {e}"),
                                format!("solve audit node {ix}"),
                            ));
                        }
                    }
                }
            }
        }
    }

    // Status-level claims over the frontier.
    let open_bounds = nodes
        .iter()
        .filter(|n| matches!(n.status, NodeStatus::Open))
        .map(|n| n.bound);
    match sol.status {
        SolveStatus::Optimal | SolveStatus::Feasible => {
            let (best, best_bound) = (sol.objective, sol.stats.best_bound);
            if best_bound < best - scaled(PRIMAL_TOL, best) {
                diags.push(c002(
                    format!("claimed bound {best_bound} is below the incumbent {best}"),
                    "solve audit".into(),
                ));
            }
            let gap = ((best_bound - best) / best.abs().max(1.0)).max(0.0);
            if (gap - sol.stats.final_gap).abs() > 1e-6 {
                diags.push(c002(
                    format!(
                        "claimed final gap {} does not reproduce ({gap})",
                        sol.stats.final_gap
                    ),
                    "solve audit".into(),
                ));
            }
            // Proven optimal means every open bound is within the gap of
            // the incumbent; either way none may exceed the claimed bound.
            let slack = audit.rel_gap * best.abs().max(1.0);
            for b in open_bounds {
                if b > best_bound + scaled(DUAL_TOL, best_bound) {
                    diags.push(c002(
                        format!("open node bound {b} exceeds the claimed bound {best_bound}"),
                        "solve audit".into(),
                    ));
                    break;
                }
                if sol.status == SolveStatus::Optimal && b > best + slack + scaled(DUAL_TOL, best) {
                    diags.push(c002(
                        format!(
                            "open node bound {b} contradicts the optimality claim \
                             (incumbent {best}, gap {})",
                            audit.rel_gap
                        ),
                        "solve audit".into(),
                    ));
                    break;
                }
            }
        }
        SolveStatus::Infeasible => {
            if audit.limit_hit {
                diags.push(c002(
                    "infeasibility claimed although a limit interrupted the search".into(),
                    "solve audit".into(),
                ));
            }
            for (ix, n) in nodes.iter().enumerate() {
                if matches!(
                    n.status,
                    NodeStatus::Open | NodeStatus::IntegerFeasible { .. }
                ) {
                    diags.push(c002(
                        "infeasibility claimed with unexplored or integral nodes".into(),
                        format!("solve audit node {ix}"),
                    ));
                    break;
                }
            }
        }
        SolveStatus::NoSolutionFound => {
            if !audit.limit_hit {
                diags.push(c002(
                    "no-solution claimed without a limit interrupting the search".into(),
                    "solve audit".into(),
                ));
            }
        }
        SolveStatus::Unbounded => diags.push(c002(
            "tree proof cannot back an unboundedness claim".into(),
            "solve audit".into(),
        )),
    }
}

/// Certifies a solution against `model`: the primal check always runs;
/// when the solution carries a [`SolveAudit`], the audited claim (tree
/// replay, infeasibility refutation, or unbounded ray) is replayed against
/// `model` too.
pub fn certify_solution(model: &Model, sol: &Solution) -> CertifyReport {
    let mut report = CertifyReport::default();

    // Check 1: primal claims.
    match check_solution(model, sol) {
        Ok(()) => report.verified += 1,
        Err(e) => report.diagnostics.push(Diagnostic::new(
            "C001",
            Severity::Error,
            e,
            "primal assignment",
        )),
    }

    // Check 2: the audited outcome claim.
    let Some(audit) = sol.audit.as_deref() else {
        return report;
    };
    let before = report.diagnostics.len();
    let diags = &mut report.diagnostics;
    match &audit.proof {
        SolveProof::Tree => certify_tree(model, sol, audit, diags),
        SolveProof::RootInfeasible { proof } => {
            if sol.status != SolveStatus::Infeasible {
                diags.push(c003(
                    format!("root refutation attached to status {:?}", sol.status),
                    "solve audit".into(),
                ));
            }
            let (lb, ub) = base_bounds(model);
            match proof {
                None => diags.push(c003(
                    "root relaxation claimed infeasible without a refutation".into(),
                    "solve audit".into(),
                )),
                Some(p) => {
                    if let Err(e) = verify_infeasibility_proof(model, &lb, &ub, p) {
                        diags.push(c003(
                            format!("root refutation rejected: {e}"),
                            "solve audit".into(),
                        ));
                    }
                }
            }
        }
        SolveProof::UnboundedRay { patches, ray } => {
            if sol.status != SolveStatus::Unbounded {
                diags.push(c003(
                    format!("unbounded ray attached to status {:?}", sol.status),
                    "solve audit".into(),
                ));
            }
            let (base_lb, base_ub) = base_bounds(model);
            match (ray, node_bounds(&base_lb, &base_ub, patches)) {
                (None, _) => diags.push(c003(
                    "unboundedness claimed without a ray".into(),
                    "solve audit".into(),
                )),
                (Some(r), Ok((lb, ub))) => {
                    if let Err(e) = verify_ray(model, &lb, &ub, r) {
                        diags.push(c003(
                            format!("unbounded ray rejected: {e}"),
                            "solve audit".into(),
                        ));
                    }
                }
                (_, Err(e)) => diags.push(c003(e, "solve audit".into())),
            }
        }
    }
    if report.diagnostics.len() == before {
        report.verified += 1;
    }
    report
}

/// Debug-build post-check run by the solver entry points: the returned
/// assignment must re-verify against the model it claims to solve.
/// Compiled away in release builds.
pub fn debug_postcheck(model: &Model, sol: &Solution) {
    if cfg!(debug_assertions) {
        let check = check_solution(model, sol);
        debug_assert!(
            check.is_ok(),
            "solver returned an uncertifiable solution: {check:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{HeuristicBackend, MilpBackend};
    use crate::config::SolverConfig;
    use crate::model::{Sense, VarKind};
    use crate::status::SolverStats;

    fn audited() -> SolverConfig {
        SolverConfig::exact().with_audit(true)
    }

    fn knapsack() -> Model {
        let mut m = Model::maximize();
        let a = m.add_binary("a", 8.0);
        let b = m.add_binary("b", 11.0);
        let c = m.add_binary("c", 6.0);
        let d = m.add_binary("d", 4.0);
        m.add_constraint(
            "w",
            [(a, 5.0), (b, 7.0), (c, 4.0), (d, 3.0)],
            Sense::Le,
            14.0,
        );
        m
    }

    #[test]
    fn optimal_solve_certifies() {
        let m = knapsack();
        let sol = m.solve(&audited()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(sol.audit.is_some(), "audit requested but not attached");
        let report = certify_solution(&m, &sol);
        assert!(report.passed(), "diagnostics: {:?}", report.diagnostics);
        assert_eq!(report.verified, 2);
        assert_eq!(sol.stats.certificates_verified, 2);
        assert_eq!(sol.stats.certificate_failures, 0);
    }

    #[test]
    fn root_refutation_certifies() {
        // x + y >= 3 over two unit boxes, binary and continuous: the root
        // LP refutes both.
        for kind in [VarKind::Binary, VarKind::Continuous] {
            let mut m = Model::maximize();
            let x = m.add_var("x", kind, 0.0, 1.0, 1.0);
            let y = m.add_var("y", kind, 0.0, 1.0, 1.0);
            m.add_constraint("hi", [(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
            let sol = m.solve(&audited()).unwrap();
            assert_eq!(sol.status, SolveStatus::Infeasible);
            let audit = sol.audit.as_deref().expect("audit");
            assert!(matches!(
                audit.proof,
                SolveProof::RootInfeasible { proof: Some(_) }
            ));
            let report = certify_solution(&m, &sol);
            assert!(report.passed(), "diagnostics: {:?}", report.diagnostics);
        }
    }

    #[test]
    fn unbounded_ray_certifies() {
        let mut m = Model::maximize();
        m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
        m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY, 0.0);
        let sol = m.solve(&audited()).unwrap();
        assert_eq!(sol.status, SolveStatus::Unbounded);
        let report = certify_solution(&m, &sol);
        assert!(report.passed(), "diagnostics: {:?}", report.diagnostics);
    }

    #[test]
    fn corrupted_integer_flip_rejected() {
        let m = knapsack();
        let mut sol = m.solve(&audited()).unwrap();
        // Flip the most valuable selected item off: objective no longer
        // reproduces.
        sol.values[1] = 1.0 - sol.values[1];
        assert!(check_solution(&m, &sol).is_err());
        let report = certify_solution(&m, &sol);
        assert!(report.diagnostics.iter().any(|d| d.code == "C001"));
    }

    #[test]
    fn corrupted_continuous_past_binding_row_rejected() {
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0, 1.0);
        m.add_constraint("cap", [(x, 1.0)], Sense::Le, 4.0);
        let mut sol = m.solve(&audited()).unwrap();
        sol.values[x.index()] += 0.5;
        sol.objective += 0.5;
        assert!(check_solution(&m, &sol).is_err());
    }

    #[test]
    fn corrupted_objective_rejected() {
        let m = knapsack();
        let mut sol = m.solve(&audited()).unwrap();
        sol.objective += 1.0;
        let report = certify_solution(&m, &sol);
        assert!(report.diagnostics.iter().any(|d| d.code == "C001"));
    }

    #[test]
    fn bound_below_incumbent_rejected() {
        let m = knapsack();
        let mut sol = m.solve(&audited()).unwrap();
        sol.stats.best_bound = sol.objective - 1.0;
        let report = certify_solution(&m, &sol);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "C002" && d.message.contains("below the incumbent")));
    }

    #[test]
    fn corrupted_dual_certificate_rejected() {
        let m = knapsack();
        let mut sol = m.solve(&audited()).unwrap();
        let audit = sol.audit.as_deref_mut().expect("audit");
        let mut tampered = false;
        for n in &mut audit.nodes {
            if let Some(lp) = &mut n.lp {
                lp.objective += 5.0;
                tampered = true;
            }
        }
        assert!(tampered, "expected at least one LP-certified node");
        let report = certify_solution(&m, &sol);
        assert!(report.diagnostics.iter().any(|d| d.code == "C002"));
    }

    #[test]
    fn fake_infeasibility_claim_rejected() {
        // A feasible model with a forged infeasibility status and no
        // refutation must not certify.
        let m = knapsack();
        let mut sol = Solution::empty(SolveStatus::Infeasible);
        sol.audit = Some(Box::new(SolveAudit {
            rel_gap: 0.0,
            limit_hit: false,
            nodes: Vec::new(),
            incumbent_source: IncumbentSource::None,
            proof: SolveProof::RootInfeasible { proof: None },
        }));
        let report = certify_solution(&m, &sol);
        assert!(report.diagnostics.iter().any(|d| d.code == "C003"));
    }

    #[test]
    fn solve_of_another_model_rejected() {
        // max x over [0, 10] with x <= 4 solves to an optimal 4. The same
        // audit replayed against x <= 6 must not vouch for 4 there: the
        // root's duals bound that model at 6, not at the claimed 4.
        let model = |cap: f64| {
            let mut m = Model::maximize();
            let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0, 1.0);
            m.add_constraint("cap", [(x, 1.0)], Sense::Le, cap);
            m
        };
        let sol = model(4.0).solve(&audited()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(certify_solution(&model(4.0), &sol).passed());
        let report = certify_solution(&model(6.0), &sol);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == "C002" && d.message.starts_with("dual bound 6 ")),
            "diagnostics: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn farkas_verifier_rejects_wrong_sign() {
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
        m.add_constraint("le", [(x, 1.0)], Sense::Le, 1.0);
        let lb = [0.0];
        let ub = [1.0];
        assert!(verify_farkas(&m, &lb, &ub, &[-1.0]).is_err());
    }

    #[test]
    fn dual_bound_certifies_textbook_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY, 5.0);
        m.add_constraint("c1", [(x, 1.0)], Sense::Le, 4.0);
        m.add_constraint("c2", [(y, 2.0)], Sense::Le, 12.0);
        m.add_constraint("c3", [(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        // Known dual optimum: y = (0, 3/2, 1), dual objective 36.
        let lb = [0.0, 0.0];
        let ub = [f64::INFINITY, f64::INFINITY];
        let u = dual_bound(&m, &lb, &ub, &[0.0, 1.5, 1.0]).unwrap();
        assert!((u - 36.0).abs() < 1e-9);
    }

    #[test]
    fn ray_verifier_demands_positive_growth() {
        let mut m = Model::maximize();
        m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY, 0.0);
        let lb = [0.0];
        let ub = [f64::INFINITY];
        assert!(verify_ray(&m, &lb, &ub, &[1.0]).is_err());
    }

    #[test]
    fn warm_start_incumbent_certifies() {
        let mut m = Model::maximize();
        let x = m.add_binary("x", 5.0);
        let y = m.add_binary("y", 4.0);
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
        let sol = m.solve_warm(&audited(), &[0.0, 1.0]).unwrap();
        let report = certify_solution(&m, &sol);
        assert!(report.passed(), "diagnostics: {:?}", report.diagnostics);
    }

    #[test]
    fn gap_terminated_solve_certifies() {
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..12)
            .map(|i| m.add_binary(format!("x{i}"), 1.0 + (i % 3) as f64))
            .collect();
        m.add_constraint(
            "c",
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            Sense::Le,
            6.0,
        );
        let sol = m.solve(&audited().with_rel_gap(0.5)).unwrap();
        assert!(sol.status.has_solution());
        let report = certify_solution(&m, &sol);
        assert!(report.passed(), "diagnostics: {:?}", report.diagnostics);
    }

    #[test]
    fn forged_bound_on_a_root_closed_solve_rejected() {
        // Root bound 22, dive incumbent 21: closed at the root by the gap.
        let m = knapsack();
        let sol = m.solve(&audited().with_rel_gap(0.5)).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.stats.nodes, 0);
        assert!(sol.stats.best_bound > sol.objective + 0.5);
        assert!(certify_solution(&m, &sol).passed());
        let rejects = |forge: &dyn Fn(&mut Solution)| {
            let mut forged = sol.clone();
            forge(&mut forged);
            !certify_solution(&m, &forged).passed()
        };
        // The incumbent passed off as the proven bound, in the claim alone
        // and in the claim and the log both; and the log without its backing.
        assert!(rejects(&|f| f.stats.best_bound = f.objective));
        assert!(rejects(&|f| {
            f.stats.best_bound = f.objective;
            f.stats.final_gap = 0.0;
            f.audit.as_deref_mut().expect("audit").nodes[0].bound = f.objective;
        }));
        assert!(rejects(&|f| {
            f.audit.as_deref_mut().expect("audit").nodes[0].lp = None
        }));
    }

    #[test]
    fn forged_gap_on_a_zero_node_solve_rejected() {
        let m = knapsack();
        let mut sol = HeuristicBackend::new(audited()).solve(&m, None).unwrap();
        assert_eq!(sol.status, SolveStatus::Feasible);
        assert_eq!(sol.stats.nodes, 0);
        assert!(sol.stats.final_gap > 0.01);
        assert_eq!(sol.stats.certificate_failures, 0);
        sol.stats.final_gap = 0.0;
        let report = certify_solution(&m, &sol);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "C002" && d.message.contains("final gap")));
    }

    #[test]
    fn empty_report_without_audit_still_checks_primal() {
        let m = knapsack();
        let sol = m.solve(&SolverConfig::exact()).unwrap();
        assert!(sol.audit.is_none());
        let report = certify_solution(&m, &sol);
        assert!(report.passed());
        assert_eq!(report.verified, 1);
    }

    #[test]
    fn check_solution_rejects_wrong_length() {
        let m = knapsack();
        let sol = Solution {
            status: SolveStatus::Optimal,
            objective: 0.0,
            values: vec![0.0; 2],
            stats: SolverStats::default(),
            audit: None,
        };
        assert!(check_solution(&m, &sol).is_err());
    }
}
