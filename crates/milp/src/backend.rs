//! Pluggable MILP backends.
//!
//! The paper notes that "the internal MILP model can be translated to any
//! MILP backend" (Sec. 3.2.2) and closes with the observation that "even
//! greater scale and complexity may require exploring solver heuristics to
//! address the quality-scale tradeoff" (Sec. 7.3). This module provides
//! both: a backend abstraction over the model, and a pure-heuristic backend
//! that skips branch-and-bound entirely — one LP relaxation plus a rounding
//! dive — trading bounded optimality loss for near-constant solve time.

use crate::branch_bound::BranchBound;
use crate::certify::{
    mint_infeasibility_proof, AuditNode, IncumbentSource, LpCertificate, NodeStatus, SolveAudit,
    SolveProof,
};
use crate::config::SolverConfig;
use crate::error::{MilpError, Result};
use crate::heuristics;
use crate::model::Model;
use crate::simplex::{LpOutcome, Simplex};
use crate::status::{Solution, SolveStatus, SolverStats};

/// A MILP solving strategy.
pub trait MilpBackend {
    /// Solves `model`, optionally seeded with a warm start.
    fn solve(&self, model: &Model, warm: Option<&[f64]>) -> Result<Solution>;

    /// Backend name for reports.
    fn name(&self) -> &'static str;
}

/// The exact backend: presolve + branch-and-bound (the default).
#[derive(Debug, Clone)]
pub struct ExactBackend {
    config: SolverConfig,
}

impl ExactBackend {
    /// Creates the exact backend.
    pub fn new(config: SolverConfig) -> Self {
        ExactBackend { config }
    }
}

impl MilpBackend for ExactBackend {
    fn solve(&self, model: &Model, warm: Option<&[f64]>) -> Result<Solution> {
        BranchBound::new(self.config.clone()).solve(model, warm)
    }

    fn name(&self) -> &'static str {
        "branch-and-bound"
    }
}

/// The heuristic backend: root LP relaxation + diving, no tree search.
///
/// Quality: whatever the dive lands on (often optimal on loosely coupled
/// scheduling batches, never proven). Speed: a handful of LP solves,
/// independent of how hard the integer program is. A feasible warm start
/// that beats the dive is kept instead.
#[derive(Debug, Clone)]
pub struct HeuristicBackend {
    config: SolverConfig,
}

impl HeuristicBackend {
    /// Creates the heuristic backend.
    pub fn new(config: SolverConfig) -> Self {
        HeuristicBackend { config }
    }
}

impl HeuristicBackend {
    /// Assembles a heuristic-path audit over the unreduced model.
    fn audit(
        &self,
        model: &Model,
        nodes: Vec<AuditNode>,
        incumbent_source: IncumbentSource,
        proof: SolveProof,
    ) -> Box<SolveAudit> {
        Box::new(SolveAudit {
            solved_model: model.clone(),
            rel_gap: self.config.rel_gap,
            limit_hit: false,
            nodes,
            incumbent_source,
            proof,
        })
    }

    fn solve_inner(&self, model: &Model, warm: Option<&[f64]>) -> Result<Solution> {
        let simplex = Simplex::new(self.config.max_lp_iterations);
        let mut sol = self.solve_with_simplex(model, warm, &simplex)?;
        // LP work counters accumulate on the Simplex across root solve and
        // dive; surface them once here.
        sol.stats.lp_iterations = simplex.iterations();
        sol.stats.refactorizations = simplex.refactorizations();
        sol.stats.lp_resolves = simplex.resolves();
        Ok(sol)
    }

    // srclint: checked-indexing: the warm-start vector's length is checked
    // against num_vars before the per-variable snap loop indexes it.
    fn solve_with_simplex(
        &self,
        model: &Model,
        warm: Option<&[f64]>,
        simplex: &Simplex,
    ) -> Result<Solution> {
        model.validate()?;
        // Same certificate cross-check as the exact path (debug builds only).
        crate::lint::debug_precheck(model);
        let start = std::time::Instant::now();
        let mut stats = SolverStats::default();

        // Warm-start incumbent, as in the exact path.
        let mut incumbent: Option<(f64, Vec<f64>)> = None;
        let mut inc_source = IncumbentSource::None;
        if let Some(w) = warm {
            if w.len() != model.num_vars() {
                return Err(MilpError::WarmStartLength {
                    expected: model.num_vars(),
                    got: w.len(),
                });
            }
            let mut snapped = w.to_vec();
            for (j, v) in model.vars().iter().enumerate() {
                if v.kind != crate::model::VarKind::Continuous {
                    snapped[j] = snapped[j].round();
                }
            }
            if model.is_feasible(&snapped, 1e-6) {
                incumbent = Some((model.objective_value(&snapped), snapped));
                stats.warm_start_used = true;
                inc_source = IncumbentSource::WarmStart;
            }
        }

        let lb: Vec<f64> = model.vars().iter().map(|v| v.lb).collect();
        let ub: Vec<f64> = model.vars().iter().map(|v| v.ub).collect();
        stats.lp_solves += 1;
        let root = simplex.solve_with_bounds(model, &lb, &ub)?;
        let (root_obj, root_values, root_duals) = match root {
            LpOutcome::Optimal {
                objective,
                values,
                duals,
            } => (objective, values, duals),
            LpOutcome::Infeasible { farkas } => {
                stats.wall_secs = start.elapsed().as_secs_f64();
                let audit = self.config.audit.then(|| {
                    let proof = mint_infeasibility_proof(model, &lb, &ub, farkas);
                    self.audit(
                        model,
                        Vec::new(),
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
                let audit = self.config.audit.then(|| {
                    self.audit(
                        model,
                        Vec::new(),
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

        if let Some((obj, values)) = heuristics::dive(
            model,
            simplex,
            &lb,
            &ub,
            &root_values,
            &self.config,
            &mut stats,
        ) {
            if incumbent.as_ref().map(|(o, _)| obj > *o).unwrap_or(true) {
                incumbent = Some((obj, values));
                inc_source = IncumbentSource::Dive;
            }
        }

        stats.wall_secs = start.elapsed().as_secs_f64();
        let audit = |source: IncumbentSource| {
            self.config.audit.then(|| {
                let root_node = AuditNode {
                    parent: None,
                    patches: Vec::new(),
                    bound: stats.best_bound,
                    status: NodeStatus::Open,
                    lp: Some(LpCertificate {
                        objective: stats.best_bound,
                        duals: root_duals.clone(),
                    }),
                };
                self.audit(model, vec![root_node], source, SolveProof::HeuristicBound)
            })
        };
        match incumbent {
            Some((obj, values)) => {
                stats.final_gap = ((stats.best_bound - obj) / obj.abs().max(1.0)).max(0.0);
                let audit = audit(inc_source);
                Ok(Solution {
                    // Never proven optimal: always reported as feasible.
                    status: SolveStatus::Feasible,
                    objective: obj,
                    values,
                    stats,
                    audit,
                })
            }
            None => {
                let audit = audit(IncumbentSource::None);
                Ok(Solution {
                    status: SolveStatus::NoSolutionFound,
                    objective: f64::NEG_INFINITY,
                    values: Vec::new(),
                    stats,
                    audit,
                })
            }
        }
    }
}

impl MilpBackend for HeuristicBackend {
    fn solve(&self, model: &Model, warm: Option<&[f64]>) -> Result<Solution> {
        let mut sol = self.solve_inner(model, warm)?;
        // Debug builds re-verify the returned assignment; compiled out in
        // release builds.
        crate::certify::debug_postcheck(model, &sol);
        if self.config.audit {
            let report = crate::certify::certify_solution(model, &sol);
            sol.stats.certificates_verified = report.verified;
            sol.stats.certificate_failures = report.diagnostics.len();
        }
        Ok(sol)
    }

    fn name(&self) -> &'static str {
        "lp-dive-heuristic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Sense, VarKind};

    fn knapsack(n: usize) -> Model {
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_binary(format!("x{i}"), 1.0 + (i % 5) as f64))
            .collect();
        m.add_constraint(
            "w",
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i % 3) as f64)),
            Sense::Le,
            n as f64,
        );
        m
    }

    #[test]
    fn heuristic_returns_feasible_close_to_exact() {
        let m = knapsack(14);
        let exact = ExactBackend::new(SolverConfig::exact())
            .solve(&m, None)
            .unwrap();
        let heur = HeuristicBackend::new(SolverConfig::exact())
            .solve(&m, None)
            .unwrap();
        assert_eq!(exact.status, SolveStatus::Optimal);
        assert_eq!(heur.status, SolveStatus::Feasible);
        assert!(m.is_feasible(&heur.values, 1e-6));
        // The dive must reach at least 70% of optimal on this easy family.
        assert!(
            heur.objective >= 0.7 * exact.objective,
            "heuristic {} vs exact {}",
            heur.objective,
            exact.objective
        );
        // And never beat it.
        assert!(heur.objective <= exact.objective + 1e-9);
    }

    #[test]
    fn heuristic_detects_infeasible() {
        let mut m = Model::maximize();
        let x = m.add_binary("x", 1.0);
        m.add_constraint("no", [(x, 1.0)], Sense::Ge, 2.0);
        let sol = HeuristicBackend::new(SolverConfig::exact())
            .solve(&m, None)
            .unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn heuristic_detects_unbounded() {
        let mut m = Model::maximize();
        m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
        let sol = HeuristicBackend::new(SolverConfig::exact())
            .solve(&m, None)
            .unwrap();
        assert_eq!(sol.status, SolveStatus::Unbounded);
    }

    #[test]
    fn warm_start_kept_when_dive_is_worse() {
        // Construct a model where the dive can fail: an equality-coupled
        // pair. The warm start supplies the good answer.
        let mut m = Model::maximize();
        let a = m.add_binary("a", 3.0);
        let b = m.add_binary("b", 2.0);
        m.add_constraint("pick", [(a, 1.0), (b, 1.0)], Sense::Le, 1.0);
        let warm = vec![1.0, 0.0];
        let sol = HeuristicBackend::new(SolverConfig::exact())
            .solve(&m, Some(&warm))
            .unwrap();
        assert!(sol.objective >= 3.0 - 1e-9);
    }

    #[test]
    fn wrong_length_warm_start_is_the_same_error_under_both_backends() {
        let m = knapsack(4);
        let short = [1.0, 0.0];
        let backends: [Box<dyn MilpBackend>; 2] = [
            Box::new(ExactBackend::new(SolverConfig::exact())),
            Box::new(HeuristicBackend::new(SolverConfig::exact())),
        ];
        for backend in backends {
            assert!(
                matches!(
                    backend.solve(&m, Some(&short)),
                    Err(MilpError::WarmStartLength {
                        expected: 4,
                        got: 2
                    })
                ),
                "{}",
                backend.name()
            );
        }
    }

    #[test]
    fn backend_names() {
        assert_eq!(
            ExactBackend::new(SolverConfig::exact()).name(),
            "branch-and-bound"
        );
        assert_eq!(
            HeuristicBackend::new(SolverConfig::exact()).name(),
            "lp-dive-heuristic"
        );
    }
}
