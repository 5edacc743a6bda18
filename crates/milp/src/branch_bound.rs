//! Best-first branch-and-bound over the simplex relaxation.
//!
//! Nodes carry bound *patches* (per-variable bound tightenings accumulated
//! from the root), the frontier is a max-heap ordered by the parent
//! relaxation bound, and branching is on the most fractional
//! integer-constrained variable. Termination follows the paper's CPLEX
//! configuration: a relative optimality gap, a wall-clock budget, and a node
//! limit — the best incumbent found so far is returned when a limit fires.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::certify::{
    mint_infeasibility_proof, AuditNode, IncumbentSource, LpCertificate, NodeStatus, SolveAudit,
    SolveProof,
};
use crate::config::SolverConfig;
use crate::error::{MilpError, Result};
use crate::heuristics::dive;
use crate::model::{Model, VarKind};
use crate::simplex::{LpOutcome, Simplex};
use crate::status::{Solution, SolveStatus, SolverStats};

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

/// Assembles the audit attached to a finished solve, draining the recorded
/// node log.
fn make_audit(
    model: &Model,
    cfg: &SolverConfig,
    limit_hit: bool,
    nodes: &mut Vec<AuditNode>,
    incumbent_source: IncumbentSource,
    proof: SolveProof,
) -> Box<SolveAudit> {
    Box::new(SolveAudit {
        solved_model: model.clone(),
        rel_gap: cfg.rel_gap,
        limit_hit,
        nodes: std::mem::take(nodes),
        incumbent_source,
        proof,
    })
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
        let mut sol = self.solve_inner(model, warm)?;
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

    fn solve_inner(&self, model: &Model, warm: Option<&[f64]>) -> Result<Solution> {
        let simplex = Simplex::new(self.config.max_lp_iterations);
        let mut sol = self.solve_with_simplex(model, warm, &simplex)?;
        // LP work counters accumulate on the Simplex instance across the
        // root solve, dives, and node relaxations; surface them once here.
        sol.stats.lp_iterations = simplex.iterations();
        sol.stats.refactorizations = simplex.refactorizations();
        sol.stats.lp_resolves = simplex.resolves();
        Ok(sol)
    }

    // srclint: checked-indexing: all per-variable vectors (bounds, warm
    // starts, incumbents) are built from model.vars() and indexed by
    // branch columns from most_fractional over the same model; warm-start
    // length is validated before use.
    // srclint: expect-boundary: gap termination is only reached inside
    // `if let Some(..) = &incumbent`, so the incumbent provably exists;
    // its absence would be control-flow corruption, not bad input.
    fn solve_with_simplex(
        &self,
        model: &Model,
        warm: Option<&[f64]>,
        simplex: &Simplex,
    ) -> Result<Solution> {
        model.validate()?;
        // Debug builds cross-check every lint infeasibility certificate
        // against the model; compiled out in release builds.
        crate::lint::debug_precheck(model);
        let start = Instant::now();
        let cfg = &self.config;
        let auditing = cfg.audit;
        let n = model.num_vars();
        let mut stats = SolverStats::default();

        // Presolve keeps variable indexing intact, so its reductions are
        // transparent to the caller; implied-bound tightening preserves the
        // feasible set, so warm starts stay valid too.
        let original = model;
        let presolved;
        let model: &Model = if cfg.enable_presolve {
            match crate::presolve::presolve(model, 2) {
                crate::presolve::PresolveOutcome::Infeasible { certificate } => {
                    stats.presolve_certified = certificate.is_some();
                    stats.wall_secs = start.elapsed().as_secs_f64();
                    let audit = auditing.then(|| {
                        Box::new(SolveAudit {
                            solved_model: original.clone(),
                            rel_gap: cfg.rel_gap,
                            limit_hit: false,
                            nodes: Vec::new(),
                            incumbent_source: IncumbentSource::None,
                            proof: SolveProof::PresolveInfeasible { certificate },
                        })
                    });
                    return Ok(Solution {
                        status: SolveStatus::Infeasible,
                        objective: f64::NEG_INFINITY,
                        values: Vec::new(),
                        stats,
                        audit,
                    });
                }
                crate::presolve::PresolveOutcome::Reduced {
                    model: m,
                    rows_dropped,
                    bounds_tightened,
                } => {
                    stats.presolve_rows_dropped = rows_dropped;
                    stats.presolve_bounds_tightened = bounds_tightened;
                    presolved = m;
                    &presolved
                }
            }
        } else {
            model
        };

        // Base bounds, with integer bounds pre-tightened to integral values.
        let mut base_lb = vec![0.0; n];
        let mut base_ub = vec![0.0; n];
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
            base_lb[j] = lo;
            base_ub[j] = hi;
        }

        // Audit node log and incumbent provenance (recorded only when
        // auditing).
        let mut audit_nodes: Vec<AuditNode> = Vec::new();
        let mut inc_source = IncumbentSource::None;

        // Incumbent from the warm start, if it checks out.
        let mut incumbent: Option<(f64, Vec<f64>)> = None;
        if let Some(w) = warm {
            if w.len() != n {
                return Err(MilpError::WarmStartLength {
                    expected: n,
                    got: w.len(),
                });
            }
            let mut snapped = w.to_vec();
            for (j, v) in model.vars().iter().enumerate() {
                if v.kind != VarKind::Continuous {
                    snapped[j] = snapped[j].round();
                }
            }
            if model.is_feasible(&snapped, 1e-6) {
                let obj = model.objective_value(&snapped);
                incumbent = Some((obj, snapped));
                stats.warm_start_used = true;
                inc_source = IncumbentSource::WarmStart;
            }
        }

        // Root relaxation.
        stats.lp_solves += 1;
        let root = simplex.solve_with_bounds(model, &base_lb, &base_ub)?;
        let (root_obj, root_values, root_duals) = match root {
            LpOutcome::Optimal {
                objective,
                values,
                duals,
            } => (objective, values, duals),
            LpOutcome::Infeasible { farkas } => {
                // A feasible warm start contradicting an infeasible
                // relaxation cannot happen; report infeasible.
                stats.wall_secs = start.elapsed().as_secs_f64();
                let audit = auditing.then(|| {
                    let proof = mint_infeasibility_proof(model, &base_lb, &base_ub, farkas);
                    make_audit(
                        model,
                        cfg,
                        false,
                        &mut audit_nodes,
                        IncumbentSource::None,
                        SolveProof::RootInfeasible { proof },
                    )
                });
                return Ok(Solution {
                    status: SolveStatus::Infeasible,
                    objective: f64::NEG_INFINITY,
                    values: Vec::new(),
                    stats,
                    audit,
                });
            }
            LpOutcome::Unbounded { ray } => {
                stats.wall_secs = start.elapsed().as_secs_f64();
                let audit = auditing.then(|| {
                    make_audit(
                        model,
                        cfg,
                        false,
                        &mut audit_nodes,
                        IncumbentSource::None,
                        SolveProof::UnboundedRay {
                            patches: Vec::new(),
                            ray,
                        },
                    )
                });
                return Ok(Solution {
                    status: SolveStatus::Unbounded,
                    objective: f64::INFINITY,
                    values: Vec::new(),
                    stats,
                    audit,
                });
            }
        };
        stats.best_bound = root_obj + model.objective_offset;

        // Root diving heuristic for an early incumbent.
        if cfg.enable_diving {
            if let Some((obj, values)) = dive(
                model,
                simplex,
                &base_lb,
                &base_ub,
                &root_values,
                cfg,
                &mut stats,
            ) {
                if incumbent.as_ref().map(|(o, _)| obj > *o).unwrap_or(true) {
                    incumbent = Some((obj, values));
                    inc_source = IncumbentSource::Dive;
                }
            }
        }

        let mut heap: BinaryHeap<Node> = BinaryHeap::new();
        let mut seq = 0u64;
        if auditing {
            audit_nodes.push(AuditNode {
                parent: None,
                patches: Vec::new(),
                bound: stats.best_bound,
                status: NodeStatus::Open,
                lp: None,
            });
        }
        heap.push(Node {
            bound: stats.best_bound,
            patches: Vec::new(),
            seq,
            aid: 0,
        });
        // Node 0 is the root relaxation, solved above; every later node
        // re-solves from whatever basis the LP before it left.
        let mut root_lp = Some(LpOutcome::Optimal {
            objective: root_obj,
            values: root_values,
            duals: root_duals,
        });

        let mut limit_hit = false;
        let mut lb_buf = vec![0.0; n];
        let mut ub_buf = vec![0.0; n];

        while let Some(node) = heap.pop() {
            stats.best_bound = node.bound;
            // Optimality-gap termination: the best open bound cannot improve
            // on the incumbent by more than the configured gap.
            if let Some((inc_obj, _)) = &incumbent {
                let gap = (node.bound - inc_obj) / inc_obj.abs().max(1.0);
                if gap <= cfg.rel_gap {
                    stats.final_gap = gap.max(0.0);
                    // The incumbent is itself a valid primal bound, so the
                    // proven bound never sits below it (the frontier can
                    // fall under the incumbent when the gap is negative).
                    stats.best_bound = stats.best_bound.max(*inc_obj);
                    stats.wall_secs = start.elapsed().as_secs_f64();
                    let (obj, values) = incumbent.expect("gap termination requires an incumbent");
                    let audit = auditing.then(|| {
                        make_audit(
                            model,
                            cfg,
                            false,
                            &mut audit_nodes,
                            inc_source,
                            SolveProof::Tree,
                        )
                    });
                    return Ok(Solution {
                        status: SolveStatus::Optimal,
                        objective: obj,
                        values,
                        stats,
                        audit,
                    });
                }
            }
            if start.elapsed() >= cfg.time_limit || stats.nodes >= cfg.node_limit {
                limit_hit = true;
                break;
            }
            stats.nodes += 1;

            // Materialize this node's bounds.
            lb_buf.copy_from_slice(&base_lb);
            ub_buf.copy_from_slice(&base_ub);
            for &(j, lo, hi) in &node.patches {
                lb_buf[j] = lo;
                ub_buf[j] = hi;
            }

            let out = match root_lp.take() {
                Some(root) => root,
                None => {
                    stats.lp_solves += 1;
                    simplex.resolve_with_bounds(model, &lb_buf, &ub_buf)?
                }
            };
            let (obj, values) = match out {
                LpOutcome::Optimal {
                    objective,
                    values,
                    duals,
                } => {
                    let obj = objective + model.objective_offset;
                    if auditing {
                        audit_nodes[node.aid].lp = Some(LpCertificate {
                            objective: obj,
                            duals,
                        });
                    }
                    (obj, values)
                }
                LpOutcome::Infeasible { farkas } => {
                    stats.nodes_pruned += 1;
                    if auditing {
                        let proof = mint_infeasibility_proof(model, &lb_buf, &ub_buf, farkas);
                        audit_nodes[node.aid].status = NodeStatus::PrunedInfeasible { proof };
                    }
                    continue;
                }
                LpOutcome::Unbounded { ray } => {
                    stats.wall_secs = start.elapsed().as_secs_f64();
                    let audit = auditing.then(|| {
                        make_audit(
                            model,
                            cfg,
                            false,
                            &mut audit_nodes,
                            IncumbentSource::None,
                            SolveProof::UnboundedRay {
                                patches: node.patches.clone(),
                                ray,
                            },
                        )
                    });
                    return Ok(Solution {
                        status: SolveStatus::Unbounded,
                        objective: f64::INFINITY,
                        values: Vec::new(),
                        stats,
                        audit,
                    });
                }
            };

            // Prune against the incumbent (with gap slack: a subtree that
            // cannot beat the incumbent by more than the gap is not worth
            // exploring).
            if let Some((inc_obj, _)) = &incumbent {
                if obj <= inc_obj + cfg.rel_gap * inc_obj.abs().max(1.0) {
                    stats.nodes_pruned += 1;
                    if auditing {
                        audit_nodes[node.aid].status = NodeStatus::PrunedByBound {
                            incumbent: *inc_obj,
                        };
                    }
                    continue;
                }
            }

            match most_fractional(model, &values, cfg.int_tol) {
                None => {
                    // Integer feasible: snap and record.
                    let mut snapped = values;
                    for (j, v) in model.vars().iter().enumerate() {
                        if v.kind != VarKind::Continuous {
                            snapped[j] = snapped[j].round();
                        }
                    }
                    let obj = model.objective_value(&snapped);
                    if auditing {
                        audit_nodes[node.aid].status =
                            NodeStatus::IntegerFeasible { objective: obj };
                    }
                    if incumbent.as_ref().map(|(o, _)| obj > *o).unwrap_or(true) {
                        incumbent = Some((obj, snapped));
                        inc_source = IncumbentSource::Node(node.aid);
                    }
                }
                Some((j, x)) => {
                    let floor = x.floor();
                    if auditing {
                        audit_nodes[node.aid].status = NodeStatus::Branched { var: j, floor };
                    }
                    // Down child: x_j <= floor.
                    let mut down = node.patches.clone();
                    down.push((j, lb_buf[j], floor.min(ub_buf[j])));
                    seq += 1;
                    let down_aid = if auditing {
                        audit_nodes.push(AuditNode {
                            parent: Some(node.aid),
                            patches: down.clone(),
                            bound: obj,
                            status: NodeStatus::Open,
                            lp: None,
                        });
                        audit_nodes.len() - 1
                    } else {
                        0
                    };
                    heap.push(Node {
                        bound: obj,
                        patches: down,
                        seq,
                        aid: down_aid,
                    });
                    // Up child: x_j >= floor + 1.
                    let mut up = node.patches;
                    up.push((j, (floor + 1.0).max(lb_buf[j]), ub_buf[j]));
                    seq += 1;
                    let up_aid = if auditing {
                        audit_nodes.push(AuditNode {
                            parent: Some(node.aid),
                            patches: up.clone(),
                            bound: obj,
                            status: NodeStatus::Open,
                            lp: None,
                        });
                        audit_nodes.len() - 1
                    } else {
                        0
                    };
                    heap.push(Node {
                        bound: obj,
                        patches: up,
                        seq,
                        aid: up_aid,
                    });
                }
            }
        }

        stats.wall_secs = start.elapsed().as_secs_f64();
        match incumbent {
            Some((obj, values)) => {
                let bound = if limit_hit {
                    stats.best_bound
                } else {
                    // The frontier is exhausted: the incumbent is optimal.
                    obj
                };
                stats.best_bound = bound.max(obj);
                stats.final_gap = ((stats.best_bound - obj) / obj.abs().max(1.0)).max(0.0);
                let status = if limit_hit && stats.final_gap > cfg.rel_gap {
                    SolveStatus::Feasible
                } else {
                    SolveStatus::Optimal
                };
                let audit = auditing.then(|| {
                    make_audit(
                        model,
                        cfg,
                        limit_hit,
                        &mut audit_nodes,
                        inc_source,
                        SolveProof::Tree,
                    )
                });
                Ok(Solution {
                    status,
                    objective: obj,
                    values,
                    stats,
                    audit,
                })
            }
            None => {
                let status = if limit_hit {
                    SolveStatus::NoSolutionFound
                } else {
                    SolveStatus::Infeasible
                };
                let audit = auditing.then(|| {
                    make_audit(
                        model,
                        cfg,
                        limit_hit,
                        &mut audit_nodes,
                        IncumbentSource::None,
                        SolveProof::Tree,
                    )
                });
                Ok(Solution {
                    status,
                    objective: f64::NEG_INFINITY,
                    values: Vec::new(),
                    stats,
                    audit,
                })
            }
        }
    }
}

/// Finds the integer-constrained variable whose relaxation value is farthest
/// from integral (closest to `0.5` fractionality). Returns `None` when the
/// assignment is integral within `tol`.
// srclint: checked-indexing: values is a per-variable vector zipped with
// model.vars() of the same length.
pub(crate) fn most_fractional(model: &Model, values: &[f64], tol: f64) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64)> = None; // (index, value, score)
    for (j, v) in model.vars().iter().enumerate() {
        if v.kind == VarKind::Continuous {
            continue;
        }
        let x = values[j];
        let frac = (x - x.round()).abs();
        if frac <= tol {
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
        // The model above, without the dive: every LP is a node's.
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, 0.0);
        let y = m.add_var("y", VarKind::Integer, 0.0, 10.0, 1.0);
        m.add_constraint("c1", [(x, -1.0), (y, 1.0)], Sense::Le, 0.5);
        m.add_constraint("c2", [(x, 1.0), (y, 1.0)], Sense::Le, 3.5);
        let mut cfg = exact().with_audit(true);
        cfg.enable_diving = false;
        let sol = m.solve(&cfg).unwrap();
        let s = &sol.stats;
        assert!(s.nodes > 1, "the root is fractional");
        // Node 0 is the root relaxation itself; all others start from a basis.
        assert_eq!(s.lp_solves, s.nodes);
        assert_eq!(s.lp_resolves, s.nodes - 1);
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
        let sol = m.solve(&exact()).unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
        // Presolve's bound propagation certifies this without simplex.
        assert!(sol.stats.presolve_certified);
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
        let cfg = SolverConfig::anytime(Duration::from_millis(50), 1).with_audit(true);
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
    fn time_limit_zero_with_dive_incumbent() {
        let mut m = Model::maximize();
        let x = m.add_binary("x", 1.0);
        m.add_constraint("c", [(x, 1.0)], Sense::Le, 1.0);
        let sol = m
            .solve(&SolverConfig::exact().with_time_limit(Duration::ZERO))
            .unwrap();
        // Root LP + dive still run; search loop then stops immediately.
        assert!(sol.status.has_solution());
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
        let pick = most_fractional(&m, &[1.1, 2.5, 3.3], 1e-6).unwrap();
        assert_eq!(pick.0, 1);
        assert!(most_fractional(&m, &[1.0, 2.0, 3.3], 1e-6).is_none());
    }
}
