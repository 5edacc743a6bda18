//! Solver configuration knobs.

use std::time::Duration;

/// Work units a second of a duration budget buys ([`SolverConfig::online`]).
/// Calibration: the median work of the solves a 300 ms wall-clock limit
/// stopped (`tetrisched-bench scalability` plus `churn --smoke --check`,
/// release, 2-core x86-64: 8 292 and 8 564 in two runs of 45 solves) over
/// 0.3 s, to two significant figures. A unit's wall cost grows with the
/// model: those 300 ms held 4.2–43 k units on RC256 and 15–58 k on the chaos
/// gate's RC16. So the budget bounds work, not time.
pub const WORK_UNITS_PER_SEC: u64 = 28_000;

/// Tunable parameters for the MILP solver.
///
/// The defaults mirror the paper's CPLEX configuration (Sec. 3.2.2): return
/// "good enough" solutions within 10% of optimal from a bounded amount of
/// solver work; no solve reads a clock.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Relative MIP gap at which the search stops: terminate once
    /// `(best_bound - incumbent) <= rel_gap * max(|incumbent|, 1)`.
    pub rel_gap: f64,
    /// Work budget in [`crate::SolverStats::work_units`], root LP and dive
    /// included; the best incumbent so far is returned once it is spent.
    pub work_limit: u64,
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
            work_limit: work_budget(Duration::from_secs(60)),
            node_limit: 200_000,
            max_lp_iterations: 200_000,
            audit: false,
        }
    }
}

/// `limit` read as a work budget at [`WORK_UNITS_PER_SEC`], saturating.
fn work_budget(limit: Duration) -> u64 {
    let units = limit.as_nanos() * u128::from(WORK_UNITS_PER_SEC) / 1_000_000_000;
    u64::try_from(units).unwrap_or(u64::MAX)
}

impl SolverConfig {
    /// The configuration the TetriSched scheduler uses online: 10% relative
    /// gap and a bounded per-cycle solve, as in the paper; `limit` is read
    /// as a work budget at [`WORK_UNITS_PER_SEC`].
    pub fn online(limit: Duration) -> Self {
        Self {
            rel_gap: 0.10,
            work_limit: work_budget(limit),
            ..Self::default()
        }
    }

    /// Exact configuration for tests: [`Self::default`] (relative gap
    /// 1e-6, generous limits).
    pub fn exact() -> Self {
        Self::default()
    }

    /// Builder-style setter for the relative gap.
    pub fn with_rel_gap(mut self, gap: f64) -> Self {
        self.rel_gap = gap;
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
        assert_eq!(c.work_limit, 2 * WORK_UNITS_PER_SEC);
    }

    #[test]
    fn durations_convert_to_work_exactly_and_saturate() {
        let budget = |ms| SolverConfig::online(Duration::from_millis(ms)).work_limit;
        assert_eq!(budget(300), 8_400);
        assert_eq!(budget(0), 0);
        assert_eq!(SolverConfig::default().work_limit, 60 * WORK_UNITS_PER_SEC);
        assert_eq!(SolverConfig::online(Duration::MAX).work_limit, u64::MAX);
    }

    #[test]
    fn builders_apply() {
        let c = SolverConfig::default()
            .with_rel_gap(0.5)
            .with_node_limit(7)
            .with_audit(true);
        assert_eq!(c.rel_gap, 0.5);
        assert_eq!(c.node_limit, 7);
        assert!(c.audit);
    }
}
