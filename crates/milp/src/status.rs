//! Solve outcomes: status, solution, and statistics.

use crate::model::VarId;

/// Final status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Proven optimal within the configured gap tolerance.
    Optimal,
    /// A feasible incumbent was found, but a limit (work/node) stopped the
    /// proof of optimality.
    Feasible,
    /// The model has no feasible assignment.
    Infeasible,
    /// The relaxation (and hence the model) is unbounded above.
    Unbounded,
    /// A limit was hit before any feasible solution was found.
    NoSolutionFound,
}

impl SolveStatus {
    /// Whether a usable assignment is attached to the solution.
    pub fn has_solution(self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::Feasible)
    }
}

/// Counters describing the work a solve performed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Branch-and-bound nodes pruned without an LP solve being useful:
    /// infeasible children plus nodes cut off by the incumbent bound.
    pub nodes_pruned: usize,
    /// Total simplex iterations across all LP solves.
    pub lp_iterations: usize,
    /// Basis refactorizations performed across all LP solves.
    pub refactorizations: usize,
    /// Number of LP relaxations solved.
    pub lp_solves: usize,
    /// LPs among them that started from the basis the previous LP held;
    /// `lp_solves - lp_resolves` loaded cold (every root, and any fallback).
    pub lp_resolves: usize,
    /// LPs among `lp_solves` that the root dive solved, infeasible probes
    /// included.
    pub dive_lp_solves: usize,
    /// Whether the gap closed before the first node: the root bound and the
    /// incumbent held after the dive were already within it.
    pub root_closed: bool,
    /// Best dual (upper) bound proven.
    pub best_bound: f64,
    /// Relative gap at termination.
    pub final_gap: f64,
    /// Whether the incumbent came from the warm start.
    pub warm_start_used: bool,
    /// Certificate checks that passed when the solve ran with
    /// [`crate::SolverConfig::audit`] (see [`crate::certify`]).
    pub certificates_verified: usize,
    /// Certificate checks that failed under audit (always 0 for a sound
    /// solver; any nonzero value is a bug surfaced to the caller).
    pub certificate_failures: usize,
}

impl SolverStats {
    /// The solver's unit of work, nodes + simplex iterations: what
    /// [`crate::SolverConfig::work_limit`] counts and the governor reads.
    pub fn work_units(&self) -> u64 {
        (self.nodes + self.lp_iterations) as u64
    }
}

/// Result of solving a [`crate::Model`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Termination status.
    pub status: SolveStatus,
    /// Objective value of the assignment (meaningful when
    /// `status.has_solution()`).
    pub objective: f64,
    /// Dense variable assignment in column order (empty when no solution).
    pub values: Vec<f64>,
    /// Work counters.
    pub stats: SolverStats,
    /// Proof-carrying audit log, attached when the solve ran with
    /// [`crate::SolverConfig::audit`]; replayable by
    /// [`crate::certify::certify_solution`]. Boxed: most solves do not
    /// carry one and `Solution` stays cheap to move.
    pub audit: Option<Box<crate::certify::SolveAudit>>,
}

impl Solution {
    /// Builds an empty solution carrying only a status.
    pub fn empty(status: SolveStatus) -> Self {
        Self {
            status,
            objective: f64::NEG_INFINITY,
            values: Vec::new(),
            stats: SolverStats::default(),
            audit: None,
        }
    }

    /// Value of a variable in the assignment.
    ///
    /// # Panics
    ///
    /// Panics if the solution carries no assignment.
    // srclint: checked-indexing: documented panic contract — callers gate
    // on status.has_solution(), and VarIds index the solved model's
    // num_vars-length assignment.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Value of a binary/integer variable rounded to the nearest integer.
    pub fn int_value(&self, var: VarId) -> i64 {
        self.value(var).round() as i64
    }

    /// Whether a binary indicator is set in the assignment.
    pub fn is_set(&self, var: VarId) -> bool {
        self.value(var) > 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_has_solution() {
        assert!(SolveStatus::Optimal.has_solution());
        assert!(SolveStatus::Feasible.has_solution());
        assert!(!SolveStatus::Infeasible.has_solution());
        assert!(!SolveStatus::Unbounded.has_solution());
        assert!(!SolveStatus::NoSolutionFound.has_solution());
    }

    #[test]
    fn accessors_round_and_test() {
        let sol = Solution {
            status: SolveStatus::Optimal,
            objective: 3.0,
            values: vec![0.9999999, 0.2, 2.0000001],
            stats: SolverStats::default(),
            audit: None,
        };
        assert!(sol.is_set(VarId(0)));
        assert!(!sol.is_set(VarId(1)));
        assert_eq!(sol.int_value(VarId(2)), 2);
    }
}
