//! TetriSched configuration, including the Table 2 ablation variants.

use std::time::Duration;

use crate::governor::GovernorConfig;

/// Tunable parameters of the TetriSched scheduler.
#[derive(Debug, Clone)]
pub struct TetriSchedConfig {
    /// Plan-ahead window in seconds: how far into the future deferred
    /// placements are considered (paper Sec. 3.2.1; swept in Fig. 11).
    /// Zero disables plan-ahead (the `TetriSched-NP` / alsched behaviour).
    pub plan_ahead: u64,
    /// Scheduling cycle period in seconds (paper: 4 s); also the
    /// time-slice quantum for supply constraints.
    pub cycle_period: u64,
    /// Maximum number of candidate start times per placement option. Start
    /// times are spread over the plan-ahead window at multiples of the
    /// quantum; capping them caps MILP growth (a STRL Generator culling
    /// optimization, Sec. 3.2.1).
    pub max_start_options: usize,
    /// Global scheduling: batch all pending jobs into one MILP. When false
    /// the scheduler runs the greedy `TetriSched-NG` policy — same MILP
    /// machinery, one job at a time from three priority FIFOs (Sec. 6.3).
    pub global: bool,
    /// Heterogeneity (soft-constraint) awareness. When false, the
    /// `TetriSched-NH` policy: every job draws from the whole cluster and
    /// its runtime is conservatively estimated with the slowdown applied.
    pub heterogeneity: bool,
    /// Cap on jobs considered per cycle (the paper notes TetriSched "has
    /// the flexibility of aggregating a subset of the pending jobs to
    /// reduce the scheduling complexity", Sec. 5). Excess jobs wait.
    pub max_batch: usize,
    /// Budget of each MILP solve (Sec. 3.2.2): a duration read as a work
    /// budget (`SolverConfig::online`), so no solve reads a clock.
    pub solver_time_limit: Duration,
    /// Relative MILP optimality gap (paper: 10%).
    pub solver_gap: f64,
    /// Per-quantum-of-deferral multiplicative value penalty used to break
    /// ties among equally valued start times in favour of starting earlier.
    pub defer_tiebreak: f64,
    /// Warm-start each solve from the previous cycle's choices
    /// (Sec. 3.2.2).
    pub warm_start: bool,
    /// Use the LP-dive heuristic MILP backend — branch-and-bound at a node
    /// budget of zero — the quality-scale tradeoff the paper's Sec. 7.3
    /// closes on. Near-constant solve time, no search for optimality.
    pub solver_heuristic: bool,
    /// Preemption of best-effort gangs for urgent accepted-SLO jobs. The
    /// paper's TetriSched never preempts and names this as future work
    /// (Sec. 7.2); this implements it as an opt-in extension. Victims lose
    /// all progress, exactly as under the baseline.
    pub preemption: bool,
    /// Chaos knob for robustness testing: 1-based indices of global MILP
    /// solves that are forced to fail (as if the solver errored). The
    /// affected cycle must degrade to the greedy placer rather than drop
    /// work. Empty in production configurations.
    pub chaos_global_solve_failures: Vec<u64>,
    /// Run the `tetrisched-lint` STRL analyses (the `S` codes) inside every
    /// cycle: a generated expression with an Error-severity diagnostic is
    /// struck before it reaches the compiler, and its job takes a
    /// quarantine strike. Compiled models are not linted: each is feasible
    /// at x = 0, so no propagation can refute one. Off by default: the
    /// generator is expected to emit lint-clean expressions, and the sweep
    /// costs a pass over every request.
    pub lint_models: bool,
    /// Proof-carrying solves: make every MILP backend emit and self-verify
    /// optimality/feasibility certificates (primal re-check, dual bounds,
    /// bound-tree audit replay — codes `C001`–`C003`), and validate the
    /// STRL→MILP translation by re-evaluating the original expression
    /// under the chosen placement (`C004`). A failed certificate is
    /// treated like a solver error: the global cycle degrades to greedy,
    /// and a greedy job is skipped with a quarantine strike. Off by
    /// default: certification replays the whole solve audit.
    pub certify_solves: bool,
    /// The anytime degradation ladder and its cycle-budget governor
    /// ([`crate::governor`]). Disabled by default, which pins the ladder at
    /// its top rung: the pre-ladder global-or-greedy fallback.
    pub governor: GovernorConfig,
}

impl Default for TetriSchedConfig {
    fn default() -> Self {
        TetriSchedConfig {
            plan_ahead: 96,
            cycle_period: 4,
            max_start_options: 8,
            global: true,
            heterogeneity: true,
            max_batch: 16,
            solver_time_limit: Duration::from_millis(300),
            solver_gap: 0.10,
            defer_tiebreak: 0.002,
            warm_start: true,
            solver_heuristic: false,
            preemption: false,
            chaos_global_solve_failures: Vec::new(),
            lint_models: false,
            certify_solves: false,
            governor: GovernorConfig::disabled(),
        }
    }
}

impl TetriSchedConfig {
    /// Full TetriSched with the given plan-ahead window (Table 2, row 1).
    pub fn full(plan_ahead: u64) -> Self {
        TetriSchedConfig {
            plan_ahead,
            ..Self::default()
        }
    }

    /// `TetriSched-NH`: soft-constraint awareness disabled (Table 2).
    pub fn no_heterogeneity(plan_ahead: u64) -> Self {
        TetriSchedConfig {
            heterogeneity: false,
            ..Self::full(plan_ahead)
        }
    }

    /// `TetriSched-NG`: greedy job-at-a-time scheduling (Table 2).
    pub fn no_global(plan_ahead: u64) -> Self {
        TetriSchedConfig {
            global: false,
            ..Self::full(plan_ahead)
        }
    }

    /// `TetriSched-NP`: plan-ahead disabled; emulates alsched (Table 2,
    /// Sec. 7.2).
    pub fn no_plan_ahead() -> Self {
        Self::full(0)
    }

    /// Number of discrete time slices in the plan-ahead window (always at
    /// least one: the current cycle).
    pub fn n_slices(&self) -> usize {
        (self.plan_ahead / self.cycle_period.max(1)) as usize + 1
    }

    /// The candidate start offsets (relative to now) implied by the window
    /// and the start-option cap: always includes 0, spread across the
    /// window at quantum multiples.
    pub fn start_offsets(&self) -> Vec<u64> {
        let q = self.cycle_period.max(1);
        let slices = (self.plan_ahead / q) as usize;
        if slices == 0 || self.max_start_options <= 1 {
            return vec![0];
        }
        let take = self.max_start_options.min(slices + 1);
        // Spread `take` offsets over [0, plan_ahead], snapped to quanta.
        (0..take)
            .map(|i| {
                let frac = i as f64 / (take - 1) as f64;
                let t = (frac * self.plan_ahead as f64).round() as u64;
                (t / q) * q
            })
            .collect()
    }

    /// Configuration name for reports, Table 2 style.
    pub fn variant_name(&self) -> &'static str {
        match (self.global, self.heterogeneity, self.plan_ahead) {
            (_, _, 0) => "tetrisched-np",
            (false, _, _) => "tetrisched-ng",
            (_, false, _) => "tetrisched-nh",
            _ => "tetrisched",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_match_table2() {
        assert_eq!(TetriSchedConfig::full(96).variant_name(), "tetrisched");
        assert_eq!(
            TetriSchedConfig::no_heterogeneity(96).variant_name(),
            "tetrisched-nh"
        );
        assert_eq!(
            TetriSchedConfig::no_global(96).variant_name(),
            "tetrisched-ng"
        );
        assert_eq!(
            TetriSchedConfig::no_plan_ahead().variant_name(),
            "tetrisched-np"
        );
    }

    #[test]
    fn slices_cover_window() {
        let c = TetriSchedConfig {
            plan_ahead: 96,
            cycle_period: 4,
            ..Default::default()
        };
        assert_eq!(c.n_slices(), 25);
        assert_eq!(TetriSchedConfig::no_plan_ahead().n_slices(), 1);
    }

    #[test]
    fn start_offsets_include_now_and_respect_cap() {
        let c = TetriSchedConfig {
            plan_ahead: 96,
            cycle_period: 4,
            max_start_options: 8,
            ..Default::default()
        };
        let offs = c.start_offsets();
        assert_eq!(offs.len(), 8);
        assert_eq!(offs[0], 0);
        assert_eq!(*offs.last().unwrap(), 96);
        // Snapped to quanta and strictly increasing.
        for w in offs.windows(2) {
            assert!(w[0] < w[1]);
            assert_eq!(w[1] % 4, 0);
        }
    }

    #[test]
    fn zero_plan_ahead_single_start() {
        assert_eq!(TetriSchedConfig::no_plan_ahead().start_offsets(), vec![0]);
    }

    #[test]
    fn small_window_fewer_options_than_cap() {
        let c = TetriSchedConfig {
            plan_ahead: 8,
            cycle_period: 4,
            max_start_options: 8,
            ..Default::default()
        };
        assert_eq!(c.start_offsets(), vec![0, 4, 8]);
    }
}
