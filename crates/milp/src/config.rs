//! Solver configuration knobs.

use std::time::Duration;

/// Tunable parameters for the MILP solver.
///
/// The defaults mirror the paper's CPLEX configuration (Sec. 3.2.2): return
/// "good enough" solutions within 10% of optimal, bounded wall-clock time.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Relative MIP gap at which the search stops: terminate once
    /// `(best_bound - incumbent) <= rel_gap * max(|incumbent|, 1)`.
    pub rel_gap: f64,
    /// Wall-clock budget for branch-and-bound. The best incumbent found so
    /// far is returned when the budget expires.
    pub time_limit: Duration,
    /// Maximum number of branch-and-bound nodes to explore. A backend is
    /// this budget: 0 ends the search after the root LP and the dive
    /// ([`crate::HeuristicBackend`]), a handful is the ladder's anytime
    /// rung, the default is the exact solver.
    pub node_limit: usize,
    /// Maximum simplex iterations per LP solve (safety valve).
    pub max_lp_iterations: usize,
    /// Whether to record a proof-carrying [`crate::certify::SolveAudit`]
    /// on the returned solution and self-certify it (filling
    /// `stats.certificates_verified` / `stats.certificate_failures`).
    pub audit: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            rel_gap: 1e-6,
            time_limit: Duration::from_secs(60),
            node_limit: 200_000,
            max_lp_iterations: 200_000,
            audit: false,
        }
    }
}

impl SolverConfig {
    /// The configuration the TetriSched scheduler uses online: 10% relative
    /// gap and a bounded per-cycle solve time, as in the paper.
    pub fn online(time_limit: Duration) -> Self {
        Self {
            rel_gap: 0.10,
            time_limit,
            ..Self::default()
        }
    }

    /// Exact configuration for tests: zero gap, generous limits.
    pub fn exact() -> Self {
        Self::default()
    }

    /// The online configuration under a tight node budget (at least one
    /// node), so the solver almost always stops on its budget and returns
    /// the dive's or the tree's best incumbent *with* its `best_bound` (and,
    /// under audit, its certificate). Used by the degradation ladder's
    /// anytime rung: the caller trades the optimality proof for a bounded,
    /// predictable amount of solver work.
    pub fn anytime(time_limit: Duration, node_limit: usize) -> Self {
        Self::online(time_limit).with_node_limit(node_limit.max(1))
    }

    /// Builder-style setter for the relative gap.
    pub fn with_rel_gap(mut self, gap: f64) -> Self {
        self.rel_gap = gap;
        self
    }

    /// Builder-style setter for the time limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = limit;
        self
    }

    /// Builder-style setter for the node limit.
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit;
        self
    }

    /// Builder-style setter for proof-carrying solve audits.
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_config_matches_paper() {
        let c = SolverConfig::online(Duration::from_secs(2));
        assert_eq!(c.rel_gap, 0.10);
        assert_eq!(c.time_limit, Duration::from_secs(2));
    }

    #[test]
    fn anytime_config_is_tightly_budgeted() {
        let c = SolverConfig::anytime(Duration::from_millis(50), 64);
        assert_eq!(c.node_limit, 64);
        assert_eq!(c.rel_gap, 0.10);
        // A zero node budget is clamped so the root node always runs.
        assert_eq!(SolverConfig::anytime(Duration::ZERO, 0).node_limit, 1);
    }

    #[test]
    fn builders_apply() {
        let c = SolverConfig::default()
            .with_rel_gap(0.5)
            .with_node_limit(7)
            .with_time_limit(Duration::from_millis(5));
        assert_eq!(c.rel_gap, 0.5);
        assert_eq!(c.node_limit, 7);
        assert_eq!(c.time_limit, Duration::from_millis(5));
    }
}
