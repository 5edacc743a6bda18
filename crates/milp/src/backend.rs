//! Pluggable MILP backends.
//!
//! The paper notes that "the internal MILP model can be translated to any
//! MILP backend" (Sec. 3.2.2) and closes with the observation that "even
//! greater scale and complexity may require exploring solver heuristics to
//! address the quality-scale tradeoff" (Sec. 7.3). This module provides
//! both: a backend abstraction over the model, and two backends that are one
//! search ([`BranchBound`]) under two node budgets — the configured one, or
//! none at all: one LP relaxation plus a rounding dive, trading bounded
//! optimality loss for near-constant solve time.

use crate::branch_bound::BranchBound;
use crate::config::SolverConfig;
use crate::error::Result;
use crate::model::Model;
use crate::status::Solution;

/// A MILP solving strategy.
pub trait MilpBackend {
    /// Solves `model`, optionally seeded with a warm start.
    fn solve(&self, model: &Model, warm: Option<&[f64]>) -> Result<Solution>;

    /// Backend name for reports.
    fn name(&self) -> &'static str;
}

/// The exact backend: branch-and-bound under the configured node budget
/// (the default).
#[derive(Debug, Clone)]
pub struct ExactBackend {
    search: BranchBound,
}

impl ExactBackend {
    /// Creates the exact backend.
    pub fn new(config: SolverConfig) -> Self {
        ExactBackend {
            search: BranchBound::new(config),
        }
    }
}

impl MilpBackend for ExactBackend {
    fn solve(&self, model: &Model, warm: Option<&[f64]>) -> Result<Solution> {
        self.search.solve(model, warm)
    }

    fn name(&self) -> &'static str {
        "branch-and-bound"
    }
}

/// The heuristic backend: root LP relaxation + diving, no tree search.
///
/// Quality: whatever the dive lands on (often optimal on loosely coupled
/// scheduling batches; proven so only when the root bound is already within
/// the gap). Speed: a handful of LP solves, independent of how hard the
/// integer program is. A feasible warm start that beats the dive is kept
/// instead.
#[derive(Debug, Clone)]
pub struct HeuristicBackend {
    search: BranchBound,
}

impl HeuristicBackend {
    /// Creates the heuristic backend: `config`'s gap, limits and audit
    /// setting at a node budget of zero.
    pub fn new(config: SolverConfig) -> Self {
        HeuristicBackend {
            search: BranchBound::new(config.with_node_limit(0)),
        }
    }
}

impl MilpBackend for HeuristicBackend {
    fn solve(&self, model: &Model, warm: Option<&[f64]>) -> Result<Solution> {
        self.search.solve(model, warm)
    }

    fn name(&self) -> &'static str {
        "lp-dive-heuristic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MilpError;
    use crate::model::{Sense, VarKind};
    use crate::status::SolveStatus;

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
        // Proven only where the root bound happens to meet the dive's point.
        assert!(heur.status.has_solution());
        assert_eq!(
            heur.status == SolveStatus::Optimal,
            heur.stats.final_gap <= 1e-6
        );
        assert_eq!(heur.stats.nodes, 0);
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
