//! Best-first branch-and-bound over the simplex relaxation: the one search
//! every backend runs.
//!
//! A solve prepares its root (warm-start incumbent, root LP, dive) on the
//! caller's model and then explores nodes until the gap closes, the frontier
//! empties or a budget is spent; what a backend chooses is the budget (see
//! [`crate::backend`]). Nodes carry bound *patches* (per-variable bound
//! tightenings accumulated from the root), the frontier is a max-heap ordered
//! by the parent relaxation bound, and branching is on the most fractional
//! integer-constrained variable. Termination follows the paper's CPLEX
//! configuration: a relative optimality gap, a work budget (no clock), and a
//! node limit — the best incumbent found so far is returned when a limit fires.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::certify::{
    base_bounds, mint_infeasibility_proof, AuditNode, IncumbentSource, LpCertificate, NodeStatus,
    SolveAudit, SolveProof,
};
use crate::config::SolverConfig;
use crate::error::{MilpError, Result};
use crate::heuristics::dive;
use crate::model::{Model, VarKind};
use crate::simplex::{LpOutcome, Simplex};
use crate::status::{Solution, SolveStatus, SolverStats};

/// Tolerance within which a relaxation value counts as integral.
pub(crate) const INT_TOL: f64 = 1e-6;

/// A branch-and-bound search node.
#[derive(Debug, Clone)]
struct Node {
    /// Optimistic objective bound inherited from the parent relaxation.
    bound: f64,
    /// Bound tightenings `(var index, lb, ub)` accumulated from the root.
    patches: Vec<(usize, f64, f64)>,
    /// Tie-break sequence number (later nodes explored first on ties, which
    /// approximates depth-first descent among equals).
    seq: u64,
    /// Index of this node's entry in the audit log (meaningful only when
    /// [`SolverConfig::audit`] is set).
    aid: usize,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        // Defined via the total order below so the frontier's equality and
        // ordering always agree (and no raw float `==` is involved).
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .partial_cmp(&other.bound)
            .unwrap_or(Ordering::Equal)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Why the node loop stopped.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// The best open bound is within the gap of the incumbent.
    GapClosed,
    /// The node or work budget was spent with nodes still open.
    Limit,
    /// No node is left open.
    Exhausted,
}

/// What a solve carries from its root to wherever it ends.
struct Search<'a> {
    cfg: &'a SolverConfig,
    stats: SolverStats,
    /// Best integer-feasible point so far, with its objective.
    incumbent: Option<(f64, Vec<f64>)>,
    inc_source: IncumbentSource,
    /// The node log (recorded only when auditing; node 0 is the root).
    log: Vec<AuditNode>,
}

impl Search<'_> {
    /// Keeps `values` as the incumbent if it beats the one held.
    fn offer_incumbent(&mut self, obj: f64, values: Vec<f64>, source: IncumbentSource) {
        if self.incumbent.as_ref().is_none_or(|(o, _)| obj > *o) {
            self.incumbent = Some((obj, values));
            self.inc_source = source;
        }
    }

    /// The one way a solve ends: returns the incumbent when `status` has a
    /// solution, and when auditing attaches the node log with `proof`.
    fn conclude(
        self,
        status: SolveStatus,
        limit_hit: bool,
        proof: impl FnOnce() -> SolveProof,
    ) -> Solution {
        let incumbent = self.incumbent.filter(|_| status.has_solution());
        let audit = self.cfg.audit.then(|| {
            Box::new(SolveAudit {
                rel_gap: self.cfg.rel_gap,
                limit_hit,
                nodes: self.log,
                incumbent_source: match incumbent {
                    Some(_) => self.inc_source,
                    None => IncumbentSource::None,
                },
                proof: proof(),
            })
        });
        let (objective, values) = incumbent.unwrap_or_else(|| {
            let sign = if status == SolveStatus::Unbounded {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
            (sign, Vec::new())
        });
        Solution {
            status,
            objective,
            values,
            stats: self.stats,
            audit,
        }
    }
}

/// Branch-and-bound MILP solver.
#[derive(Debug, Clone)]
pub struct BranchBound {
    config: SolverConfig,
}

impl BranchBound {
    /// Creates a solver with the given configuration.
    pub fn new(config: SolverConfig) -> Self {
        Self { config }
    }

    /// Solves `model`, optionally seeded with a warm-start assignment.
    ///
    /// The warm start is validated against the model (integer variables are
    /// snapped to the nearest integer first); an infeasible warm start is
    /// silently ignored, matching MILP-solver convention.
    ///
    /// With [`SolverConfig::audit`] set, the returned solution carries a
    /// [`SolveAudit`] that [`crate::certify::certify_solution`] can replay,
    /// and `stats.certificates_verified` / `stats.certificate_failures`
    /// report the result of the solver's own replay.
    pub fn solve(&self, model: &Model, warm: Option<&[f64]>) -> Result<Solution> {
        let simplex = Simplex::new(self.config.max_lp_iterations);
        let mut sol = self.solve_from_root(model, warm, &simplex)?;
        // LP work counters accumulate on the Simplex instance across the
        // root solve, dives, and node relaxations; surface them once here.
        sol.stats.lp_iterations = simplex.iterations();
        sol.stats.refactorizations = simplex.refactorizations();
        sol.stats.lp_resolves = simplex.resolves();
        // Debug builds re-verify the returned assignment against the
        // original model; compiled out in release builds.
        crate::certify::debug_postcheck(model, &sol);
        if self.config.audit {
            let report = crate::certify::certify_solution(model, &sol);
            sol.stats.certificates_verified = report.verified;
            sol.stats.certificate_failures = report.diagnostics.len();
        }
        Ok(sol)
    }

    /// Root preparation: everything a solve does before its first node, and
    /// every way it can end there.
    fn solve_from_root(
        &self,
        model: &Model,
        warm: Option<&[f64]>,
        simplex: &Simplex,
    ) -> Result<Solution> {
        model.validate()?;
        // Debug builds cross-check every lint infeasibility certificate
        // against the model; compiled out in release builds.
        crate::lint::debug_precheck(model);
        let cfg = &self.config;
        let mut search = Search {
            cfg,
            stats: SolverStats::default(),
            incumbent: None,
            inc_source: IncumbentSource::None,
            log: Vec::new(),
        };

        let (base_lb, base_ub) = base_bounds(model);

        // Incumbent from the warm start, if it checks out.
        if let Some(w) = warm {
            if w.len() != model.num_vars() {
                return Err(MilpError::WarmStartLength {
                    expected: model.num_vars(),
                    got: w.len(),
                });
            }
            let snapped = snap_integers(model, w.to_vec());
            if model.is_feasible(&snapped, 1e-6) {
                search.stats.warm_start_used = true;
                let obj = model.objective_value(&snapped);
                search.offer_incumbent(obj, snapped, IncumbentSource::WarmStart);
            }
        }

        // Root relaxation. A feasible warm start contradicting an infeasible
        // relaxation cannot happen; report infeasible.
        search.stats.lp_solves += 1;
        let (root_obj, root_values, root_duals) =
            match simplex.solve_with_bounds(model, &base_lb, &base_ub)? {
                LpOutcome::Optimal {
                    objective,
                    values,
                    duals,
                } => (objective + model.objective_offset, values, duals),
                LpOutcome::Infeasible { farkas } => {
                    return Ok(search.conclude(SolveStatus::Infeasible, false, || {
                        let proof = mint_infeasibility_proof(model, &base_lb, &base_ub, farkas);
                        SolveProof::RootInfeasible { proof }
                    }));
                }
                LpOutcome::Unbounded { ray } => {
                    return Ok(search.conclude(SolveStatus::Unbounded, false, || {
                        SolveProof::UnboundedRay {
                            patches: Vec::new(),
                            ray,
                        }
                    }));
                }
            };
        search.stats.best_bound = root_obj;
        if cfg.audit {
            // Node 0 is certified from the moment the root is solved: a
            // solve that ends before the loop reaches it (gap closed at the
            // root, no node budget) still claims this bound.
            search.log.push(AuditNode {
                parent: None,
                patches: Vec::new(),
                bound: root_obj,
                status: NodeStatus::Open,
                lp: Some(LpCertificate {
                    objective: root_obj,
                    duals: root_duals,
                }),
            });
        }

        // Root diving heuristic for an early incumbent.
        let stats = &mut search.stats;
        if let Some((obj, values)) = dive(model, simplex, &base_lb, &base_ub, &root_values, stats) {
            search.offer_incumbent(obj, values, IncumbentSource::Dive);
        }
        explore_nodes(search, model, simplex, &base_lb, &base_ub, root_values)
    }
}

/// The node loop: pops the best open node until the gap closes, a budget is
/// spent or none is left, and concludes with what the tree then proves.
// srclint: checked-indexing: all per-variable vectors (bounds, values) are
// built from model.vars() and indexed by patch and branch columns from
// most_fractional over the same model; audit ids index the log they were
// pushed to.
fn explore_nodes(
    mut search: Search<'_>,
    model: &Model,
    simplex: &Simplex,
    base_lb: &[f64],
    base_ub: &[f64],
    root_values: Vec<f64>,
) -> Result<Solution> {
    let cfg = search.cfg;
    let auditing = cfg.audit;
    let mut heap: BinaryHeap<Node> = BinaryHeap::new();
    let mut seq = 0u64;
    heap.push(Node {
        bound: search.stats.best_bound,
        patches: Vec::new(),
        seq,
        aid: 0,
    });
    // Node 0 is the root relaxation, solved (and certified) before the
    // loop; every later node re-solves from whatever basis the LP before it
    // left.
    let mut root = Some(root_values);
    // Sized by the first node materialized: a node budget of zero (the
    // LP-dive backend) stops before one and allocates neither.
    let (mut lb_buf, mut ub_buf) = (Vec::new(), Vec::new());

    let stop = loop {
        let Some(node) = heap.pop() else {
            break Stop::Exhausted;
        };
        search.stats.best_bound = node.bound;
        // Optimality-gap termination: the best open bound cannot improve
        // on the incumbent by more than the configured gap.
        if let Some((inc_obj, _)) = &search.incumbent {
            if (node.bound - inc_obj) / inc_obj.abs().max(1.0) <= cfg.rel_gap {
                search.stats.root_closed = search.stats.nodes == 0;
                break Stop::GapClosed;
            }
        }
        search.stats.lp_iterations = simplex.iterations();
        if search.stats.nodes >= cfg.node_limit || search.stats.work_units() >= cfg.work_limit {
            break Stop::Limit;
        }
        search.stats.nodes += 1;

        // Materialize this node's bounds.
        lb_buf.clear();
        lb_buf.extend_from_slice(base_lb);
        ub_buf.clear();
        ub_buf.extend_from_slice(base_ub);
        for &(j, lo, hi) in &node.patches {
            lb_buf[j] = lo;
            ub_buf[j] = hi;
        }

        let (obj, values) = match root.take() {
            Some(values) => (node.bound, values),
            None => {
                search.stats.lp_solves += 1;
                match simplex.resolve_with_bounds(model, &lb_buf, &ub_buf)? {
                    LpOutcome::Optimal {
                        objective,
                        values,
                        duals,
                    } => {
                        let obj = objective + model.objective_offset;
                        if auditing {
                            search.log[node.aid].lp = Some(LpCertificate {
                                objective: obj,
                                duals,
                            });
                        }
                        (obj, values)
                    }
                    LpOutcome::Infeasible { farkas } => {
                        search.stats.nodes_pruned += 1;
                        if auditing {
                            let proof = mint_infeasibility_proof(model, &lb_buf, &ub_buf, farkas);
                            search.log[node.aid].status = NodeStatus::PrunedInfeasible { proof };
                        }
                        continue;
                    }
                    LpOutcome::Unbounded { ray } => {
                        return Ok(search.conclude(SolveStatus::Unbounded, false, || {
                            SolveProof::UnboundedRay {
                                patches: node.patches,
                                ray,
                            }
                        }));
                    }
                }
            }
        };

        // Prune against the incumbent (with gap slack: a subtree that
        // cannot beat the incumbent by more than the gap is not worth
        // exploring).
        if let Some((inc_obj, _)) = &search.incumbent {
            if obj <= inc_obj + cfg.rel_gap * inc_obj.abs().max(1.0) {
                search.stats.nodes_pruned += 1;
                if auditing {
                    search.log[node.aid].status = NodeStatus::PrunedByBound {
                        incumbent: *inc_obj,
                    };
                }
                continue;
            }
        }

        match most_fractional(model, &values) {
            None => {
                // Integer feasible: snap and record.
                let snapped = snap_integers(model, values);
                let obj = model.objective_value(&snapped);
                if auditing {
                    search.log[node.aid].status = NodeStatus::IntegerFeasible { objective: obj };
                }
                search.offer_incumbent(obj, snapped, IncumbentSource::Node(node.aid));
            }
            Some((j, x)) => {
                let floor = x.floor();
                if auditing {
                    search.log[node.aid].status = NodeStatus::Branched { var: j, floor };
                }
                // Down child: x_j <= floor. Up child: x_j >= floor + 1.
                let mut down = node.patches.clone();
                down.push((j, lb_buf[j], floor.min(ub_buf[j])));
                let mut up = node.patches;
                up.push((j, (floor + 1.0).max(lb_buf[j]), ub_buf[j]));
                for patches in [down, up] {
                    seq += 1;
                    let aid = search.log.len();
                    if auditing {
                        search.log.push(AuditNode {
                            parent: Some(node.aid),
                            patches: patches.clone(),
                            bound: obj,
                            status: NodeStatus::Open,
                            lp: None,
                        });
                    }
                    heap.push(Node {
                        bound: obj,
                        patches,
                        seq,
                        aid,
                    });
                }
            }
        }
    };

    let status = match &search.incumbent {
        Some((obj, _)) => {
            // An exhausted frontier proves the incumbent optimal; otherwise
            // the last bound popped is the best one open. The incumbent is
            // itself a valid primal bound, so the proven bound never sits
            // below it (the frontier can fall under the incumbent when the
            // gap is negative).
            let bound = match stop {
                Stop::Exhausted => *obj,
                Stop::GapClosed | Stop::Limit => search.stats.best_bound.max(*obj),
            };
            search.stats.best_bound = bound;
            search.stats.final_gap = ((bound - obj) / obj.abs().max(1.0)).max(0.0);
            if stop == Stop::Limit && search.stats.final_gap > cfg.rel_gap {
                SolveStatus::Feasible
            } else {
                SolveStatus::Optimal
            }
        }
        None if stop == Stop::Limit => SolveStatus::NoSolutionFound,
        None => SolveStatus::Infeasible,
    };
    Ok(search.conclude(status, stop == Stop::Limit, || SolveProof::Tree))
}

/// Rounds every integer-constrained entry of `values` to the nearest integer.
pub(crate) fn snap_integers(model: &Model, mut values: Vec<f64>) -> Vec<f64> {
    for (x, v) in values.iter_mut().zip(model.vars()) {
        if v.kind != VarKind::Continuous {
            *x = x.round();
        }
    }
    values
}

/// Finds the integer-constrained variable whose relaxation value is farthest
/// from integral (closest to `0.5` fractionality). Returns `None` when the
/// assignment is integral within [`INT_TOL`].
// srclint: checked-indexing: values is a per-variable vector zipped with
// model.vars() of the same length.
pub(crate) fn most_fractional(model: &Model, values: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64)> = None; // (index, value, score)
    for (j, v) in model.vars().iter().enumerate() {
        if v.kind == VarKind::Continuous {
            continue;
        }
        let x = values[j];
        let frac = (x - x.round()).abs();
        if frac <= INT_TOL {
            continue;
        }
        let score = 0.5 - (x - x.floor() - 0.5).abs();
        match best {
            Some((_, _, s)) if s >= score => {}
            _ => best = Some((j, x, score)),
        }
    }
    best.map(|(j, x, _)| (j, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense, VarKind};
    use std::time::Duration;

    fn exact() -> SolverConfig {
        SolverConfig::exact()
    }

    #[test]
    fn integer_knapsack() {
        // max 8a + 11b + 6c + 4d, weights 5,7,4,3 <= 14, binary.
        // Optimum: b + c + d = 21 (weight 14).
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
        let sol = m.solve(&exact()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 21.0).abs() < 1e-6);
        assert!(!sol.is_set(a) && sol.is_set(b) && sol.is_set(c) && sol.is_set(d));
    }

    #[test]
    fn integer_rounding_is_not_lp_rounding() {
        // max y s.t. -x + y <= 0.5, x + y <= 3.5, integer.
        // LP optimum y = 2.0 at x=1.5; best integer y = 1 (x in {1,2}).
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, 0.0);
        let y = m.add_var("y", VarKind::Integer, 0.0, 10.0, 1.0);
        m.add_constraint("c1", [(x, -1.0), (y, 1.0)], Sense::Le, 0.5);
        m.add_constraint("c2", [(x, 1.0), (y, 1.0)], Sense::Le, 3.5);
        let sol = m.solve(&exact()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.int_value(y), 1);
    }

    #[test]
    fn tree_solves_the_root_once_and_re_solves_every_other_lp() {
        // The model above: the dive lands on y = 1 under a root bound of 2,
        // so the tree has to close the gap.
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, 0.0);
        let y = m.add_var("y", VarKind::Integer, 0.0, 10.0, 1.0);
        m.add_constraint("c1", [(x, -1.0), (y, 1.0)], Sense::Le, 0.5);
        m.add_constraint("c2", [(x, 1.0), (y, 1.0)], Sense::Le, 3.5);
        let sol = m.solve(&exact().with_audit(true)).unwrap();
        let s = &sol.stats;
        assert!(s.nodes > 1, "the root is fractional");
        assert!(!s.root_closed && s.dive_lp_solves > 0);
        // Node 0 is the root relaxation itself, solved cold once; every
        // other LP, the dive's included, starts from a basis.
        assert_eq!(s.lp_solves, s.nodes + s.dive_lp_solves);
        assert_eq!(s.lp_resolves, s.lp_solves - 1);
        let audit = sol.audit.as_ref().expect("audited");
        let root = audit.nodes[0].lp.as_ref().expect("node 0 is certified");
        assert_eq!(root.objective, audit.nodes[0].bound);
        assert!(s.certificates_verified > 0);
        assert_eq!(s.certificate_failures, 0);
    }

    #[test]
    fn infeasible_milp() {
        let mut m = Model::maximize();
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint("lo", [(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        let sol = m.solve(&exact().with_audit(true)).unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
        // The root LP refutes it, and the refutation certifies.
        let audit = sol.audit.as_deref().expect("audited");
        assert!(matches!(
            audit.proof,
            SolveProof::RootInfeasible { proof: Some(_) }
        ));
        assert!(sol.stats.certificates_verified > 0);
        assert_eq!(sol.stats.certificate_failures, 0);
    }

    #[test]
    fn unbounded_milp() {
        let mut m = Model::maximize();
        m.add_var("x", VarKind::Integer, 0.0, f64::INFINITY, 1.0);
        let sol = m.solve(&exact()).unwrap();
        assert_eq!(sol.status, SolveStatus::Unbounded);
    }

    #[test]
    fn warm_start_accepted_as_incumbent() {
        let mut m = Model::maximize();
        let x = m.add_binary("x", 5.0);
        let y = m.add_binary("y", 4.0);
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
        // Warm start with the suboptimal y=1; solver should still find x=1.
        let sol = m.solve_warm(&exact(), &[0.0, 1.0]).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(sol.stats.warm_start_used);
        assert!((sol.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_warm_start_ignored() {
        let mut m = Model::maximize();
        let x = m.add_binary("x", 5.0);
        m.add_constraint("c", [(x, 1.0)], Sense::Le, 1.0);
        let sol = m.solve_warm(&exact(), &[7.0]).unwrap();
        assert!(!sol.stats.warm_start_used);
        assert_eq!(sol.status, SolveStatus::Optimal);
    }

    #[test]
    fn warm_start_length_checked() {
        let mut m = Model::maximize();
        m.add_binary("x", 5.0);
        let err = m.solve_warm(&exact(), &[1.0, 0.0]).unwrap_err();
        assert!(matches!(err, MilpError::WarmStartLength { .. }));
    }

    #[test]
    fn gap_termination_returns_feasible_quality() {
        // With a huge gap tolerance, any incumbent within 50% is "optimal".
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..12)
            .map(|i| m.add_binary(format!("x{i}"), 1.0))
            .collect();
        m.add_constraint(
            "c",
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            Sense::Le,
            6.0,
        );
        let sol = m.solve(&SolverConfig::exact().with_rel_gap(0.5)).unwrap();
        assert!(sol.status.has_solution());
        assert!(sol.objective >= 4.0); // within 50% of 6
    }

    #[test]
    fn node_limit_returns_best_so_far() {
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..20)
            .map(|i| m.add_binary(format!("x{i}"), 1.0 + (i % 3) as f64))
            .collect();
        m.add_constraint(
            "c",
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            Sense::Le,
            10.0,
        );
        let sol = m.solve(&SolverConfig::exact().with_node_limit(1)).unwrap();
        // The diving heuristic should still deliver an incumbent.
        assert!(sol.status.has_solution());
        assert!(m.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn anytime_budget_expiry_returns_certified_incumbent_with_bound() {
        // The degradation ladder's anytime rung: a one-node budget stops
        // the search almost immediately, yet the solve must still return
        // a feasible incumbent together with its dual bound and — under
        // audit — a verified proof-carrying certificate.
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..20)
            .map(|i| m.add_binary(format!("x{i}"), 1.0 + (i % 3) as f64))
            .collect();
        m.add_constraint(
            "c",
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            Sense::Le,
            10.0,
        );
        let cfg = SolverConfig::online(Duration::from_millis(50))
            .with_node_limit(1)
            .with_audit(true);
        let sol = m.solve(&cfg).unwrap();
        assert!(sol.status.has_solution());
        assert!(m.is_feasible(&sol.values, 1e-6));
        assert!(
            sol.stats.best_bound >= sol.objective - 1e-6,
            "incumbent {} must carry a dominating bound {}",
            sol.objective,
            sol.stats.best_bound
        );
        assert!(sol.stats.certificates_verified > 0);
        assert_eq!(sol.stats.certificate_failures, 0);
    }

    #[test]
    fn work_limit_zero_with_dive_incumbent() {
        let mut m = Model::maximize();
        let x = m.add_binary("x", 1.0);
        m.add_constraint("c", [(x, 1.0)], Sense::Le, 1.0);
        let cfg = SolverConfig {
            work_limit: 0,
            ..SolverConfig::exact()
        };
        let sol = m.solve(&cfg).unwrap();
        // Root LP + dive still run; search loop then stops immediately, on
        // the closed gap: the root is integral and the dive returns it.
        assert!(sol.status.has_solution());
        assert!(sol.stats.root_closed && sol.stats.nodes == 0);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2x + 3y, x integer in [0,4], y continuous in [0, 2.5],
        // x + 2y <= 6 -> x=4, y=1 -> 11.
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Integer, 0.0, 4.0, 2.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 2.5, 3.0);
        m.add_constraint("c", [(x, 1.0), (y, 2.0)], Sense::Le, 6.0);
        let sol = m.solve(&exact()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.int_value(x), 4);
        assert!((sol.value(y) - 1.0).abs() < 1e-6);
        assert!((sol.objective - 11.0).abs() < 1e-6);
    }

    #[test]
    fn equality_gang_structure() {
        // Mimics a STRL demand constraint: P = 2*I with supply P <= 1.
        // I must be 0.
        let mut m = Model::maximize();
        let i = m.add_binary("I", 10.0);
        let p = m.add_var("P", VarKind::Integer, 0.0, 2.0, 0.0);
        m.add_constraint("demand", [(p, 1.0), (i, -2.0)], Sense::Eq, 0.0);
        m.add_constraint("supply", [(p, 1.0)], Sense::Le, 1.0);
        let sol = m.solve(&exact()).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(!sol.is_set(i));
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn fractional_objective_coeffs() {
        let mut m = Model::maximize();
        let x = m.add_binary("x", 0.3);
        let y = m.add_binary("y", 0.7);
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
        let sol = m.solve(&exact()).unwrap();
        assert!(sol.is_set(y));
        assert!((sol.objective - 0.7).abs() < 1e-9);
    }

    #[test]
    fn most_fractional_picks_middle() {
        let mut m = Model::maximize();
        m.add_var("a", VarKind::Integer, 0.0, 5.0, 0.0);
        m.add_var("b", VarKind::Integer, 0.0, 5.0, 0.0);
        m.add_var("c", VarKind::Continuous, 0.0, 5.0, 0.0);
        let pick = most_fractional(&m, &[1.1, 2.5, 3.3]).unwrap();
        assert_eq!(pick.0, 1);
        assert!(most_fractional(&m, &[1.0, 2.0, 3.3]).is_none());
    }
}
