//! The anytime degradation ladder and its cycle-budget governor.
//!
//! Pre-ladder TetriSched had a binary failure response: when the global
//! MILP path failed, the whole cycle fell back to the greedy placer —
//! losing both global optimization and plan-ahead in one step. The ladder
//! replaces that cliff with four rungs of graceful degradation:
//!
//! | rung | mode             | what is traded away                      |
//! |------|------------------|------------------------------------------|
//! | 0    | full MILP        | nothing                                  |
//! | 1    | reduced horizon  | plan-ahead depth (smaller model)         |
//! | 2    | anytime solve    | optimality proof (budget-expired         |
//! |      |                  | incumbent returned with its `best_bound` |
//! |      |                  | and certificate)                         |
//! | 3    | greedy           | global optimization                      |
//!
//! Rung changes are driven by a **cycle-budget governor**. Its load signal
//! is deliberately *not* wall-clock time: the same seed must produce the
//! same schedule on a fast and a slow machine, so the governor consumes
//! deterministic **solver work units** — branch-and-bound nodes plus
//! simplex iterations — which are pure functions of the model and the
//! solver configuration. (The PR 5 phase histograms remain the operator's
//! view of real latency; the governor is the control loop's view.) The
//! greedy floor does no solver work: it evaluates each job's request
//! directly, so a cycle on it reports only the work of a global solve that
//! failed before it.
//!
//! Transitions are hysteresis-governed so the ladder cannot flap:
//!
//! - **Demote** one rung when a cycle overruns its work budget or the
//!   primary solve path fails outright.
//! - **Promote** one rung only after `promote_streak` consecutive cycles
//!   comfortably under budget (below `PROMOTE_FRACTION` of it).
//! - Either way, at most **one rung change per `hysteresis_cycles`
//!   window** — a change starts a cooldown during which the rung is
//!   pinned, no matter what the load signal does.
//!
//! The governor is the *only* writer of the cycle's ladder rung: srclint
//! L007 rejects any other mention of the field inside `crates/core`, so
//! every transition is forced through [`Governor::observe`] and every
//! stamp through [`Governor::stamp`].

use tetrisched_sim::CycleDecisions;

/// One rung of the degradation ladder, cheapest-to-run last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderRung {
    /// Full global MILP over the whole plan-ahead window.
    Full,
    /// Global MILP over a reduced plan-ahead horizon (smaller model).
    ReducedHorizon,
    /// Incumbent-only anytime solve: tight node budget; the budget-expired
    /// incumbent is returned with its bound + certificate.
    Anytime,
    /// Greedy job-at-a-time placement (the old fallback, now the floor),
    /// evaluated without a solver.
    Greedy,
}

impl LadderRung {
    /// Numeric encoding used in metrics and telemetry (0 = full MILP).
    pub fn as_u8(self) -> u8 {
        match self {
            LadderRung::Full => 0,
            LadderRung::ReducedHorizon => 1,
            LadderRung::Anytime => 2,
            LadderRung::Greedy => 3,
        }
    }

    /// The next-cheaper rung (saturating at greedy).
    fn demoted(self, binary: bool) -> LadderRung {
        if binary {
            return LadderRung::Greedy;
        }
        match self {
            LadderRung::Full => LadderRung::ReducedHorizon,
            LadderRung::ReducedHorizon => LadderRung::Anytime,
            LadderRung::Anytime | LadderRung::Greedy => LadderRung::Greedy,
        }
    }

    /// The next-richer rung (saturating at the full MILP).
    fn promoted(self, binary: bool) -> LadderRung {
        if binary {
            return LadderRung::Full;
        }
        match self {
            LadderRung::Greedy => LadderRung::Anytime,
            LadderRung::Anytime => LadderRung::ReducedHorizon,
            LadderRung::ReducedHorizon | LadderRung::Full => LadderRung::Full,
        }
    }
}

/// A cycle below this fraction of `work_budget` votes to promote; between
/// the two thresholds the governor holds its rung.
const PROMOTE_FRACTION: f64 = 0.5;

/// Fraction of the full plan-ahead window used on the reduced-horizon rung
/// (floored to a multiple of the cycle period).
const REDUCED_HORIZON_FRACTION: f64 = 0.25;

/// Knobs of the cycle-budget governor. Disabled by default: with the
/// governor off the scheduler keeps the pre-ladder binary
/// global-or-greedy behavior byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorConfig {
    /// Master switch for the ladder.
    pub enabled: bool,
    /// Per-cycle solver work budget in deterministic work units
    /// (branch-and-bound nodes + simplex iterations across the cycle's
    /// solves). A cycle above this budget votes to demote.
    pub work_budget: u64,
    /// Consecutive promote votes required before actually promoting.
    pub promote_streak: u32,
    /// Minimum cycles between any two rung changes (the anti-flap
    /// window). A change — in either direction, forced or not — pins the
    /// rung for this many cycles.
    pub hysteresis_cycles: u32,
    /// Binary mode: the ladder collapses to {full, greedy}, reproducing
    /// the pre-ladder cliff under the *same* governor signal. Kept so the
    /// ladder-vs-binary comparison differs only in the intermediate rungs.
    pub binary: bool,
}

impl GovernorConfig {
    /// The ladder off; scheduling behaves exactly as before the ladder.
    pub fn disabled() -> Self {
        GovernorConfig {
            enabled: false,
            ..Self::defaults()
        }
    }

    /// The ladder on with default thresholds.
    pub fn defaults() -> Self {
        GovernorConfig {
            enabled: true,
            work_budget: 50_000,
            promote_streak: 3,
            hysteresis_cycles: 4,
            binary: false,
        }
    }

    /// Binary-cliff mode under the default governor signal (comparison
    /// baseline for the ladder).
    pub fn binary_fallback() -> Self {
        GovernorConfig {
            binary: true,
            ..Self::defaults()
        }
    }
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig::disabled()
    }
}

/// The governor's mutable state: current rung, anti-flap cooldown, and
/// the promote streak. Pure state machine — no clocks, no randomness.
#[derive(Debug, Clone)]
pub struct Governor {
    config: GovernorConfig,
    rung: LadderRung,
    /// Cycles since the last rung change (saturating).
    since_change: u32,
    /// Consecutive under-budget cycles observed.
    streak: u32,
    /// Total rung changes performed (telemetry).
    changes: u64,
}

impl Governor {
    /// A governor at the top rung.
    pub fn new(config: GovernorConfig) -> Self {
        Governor {
            config,
            rung: LadderRung::Full,
            // A fresh governor may demote immediately: the anti-flap
            // window constrains the spacing *between* changes.
            since_change: u32::MAX,
            streak: 0,
            changes: 0,
        }
    }

    /// The rung the next cycle should run at.
    pub fn rung(&self) -> LadderRung {
        if self.config.enabled {
            self.rung
        } else {
            LadderRung::Full
        }
    }

    /// Total rung changes performed so far.
    pub fn changes(&self) -> u64 {
        self.changes
    }

    /// The plan-ahead horizon for the reduced-horizon rung, given the
    /// configured full horizon and the cycle quantum.
    pub fn reduced_horizon(&self, plan_ahead: u64, cycle_period: u64) -> u64 {
        let reduced = (plan_ahead as f64 * REDUCED_HORIZON_FRACTION).floor() as u64;
        let q = cycle_period.max(1);
        (reduced / q) * q
    }

    /// Feeds one cycle's outcome into the state machine: the cycle's
    /// deterministic solver work units and whether the primary (non-greedy)
    /// path failed outright. At most one rung change per hysteresis
    /// window, in either direction.
    pub fn observe(&mut self, work_units: u64, primary_failed: bool) {
        if !self.config.enabled {
            return;
        }
        self.since_change = self.since_change.saturating_add(1);
        let over_budget = primary_failed || work_units > self.config.work_budget;
        let promote_cut = (self.config.work_budget as f64 * PROMOTE_FRACTION) as u64;
        if over_budget {
            self.streak = 0;
            let next = self.rung.demoted(self.config.binary);
            if next != self.rung && self.since_change >= self.config.hysteresis_cycles {
                self.rung = next;
                self.since_change = 0;
                self.changes += 1;
            }
        } else if work_units <= promote_cut {
            self.streak = self.streak.saturating_add(1);
            let next = self.rung.promoted(self.config.binary);
            if next != self.rung
                && self.streak >= self.config.promote_streak
                && self.since_change >= self.config.hysteresis_cycles
            {
                self.rung = next;
                self.since_change = 0;
                self.streak = 0;
                self.changes += 1;
            }
        } else {
            self.streak = 0;
        }
    }

    /// Stamps the cycle's decisions with the rung they ran at. This is
    /// the single authorized write of the rung field (srclint L007).
    pub fn stamp(&self, d: &mut CycleDecisions) {
        d.ladder_rung = self.rung().as_u8();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov(overrides: impl FnOnce(&mut GovernorConfig)) -> Governor {
        let mut cfg = GovernorConfig::defaults();
        cfg.work_budget = 100;
        cfg.promote_streak = 2;
        cfg.hysteresis_cycles = 3;
        overrides(&mut cfg);
        Governor::new(cfg)
    }

    #[test]
    fn disabled_governor_is_pinned_to_full() {
        let mut g = Governor::new(GovernorConfig::disabled());
        for _ in 0..10 {
            g.observe(u64::MAX, true);
        }
        assert_eq!(g.rung(), LadderRung::Full);
        assert_eq!(g.changes(), 0);
    }

    #[test]
    fn over_budget_demotes_one_rung_at_a_time() {
        let mut g = gov(|_| {});
        g.observe(200, false);
        assert_eq!(g.rung(), LadderRung::ReducedHorizon);
        // Cooldown: further overruns are absorbed for the window.
        g.observe(200, false);
        g.observe(200, false);
        assert_eq!(g.rung(), LadderRung::ReducedHorizon);
        g.observe(200, false);
        assert_eq!(g.rung(), LadderRung::Anytime);
    }

    #[test]
    fn primary_failure_forces_a_demotion_vote() {
        let mut g = gov(|_| {});
        g.observe(1, true);
        assert_eq!(g.rung(), LadderRung::ReducedHorizon);
    }

    #[test]
    fn recovery_requires_a_streak_and_respects_cooldown() {
        let mut g = gov(|_| {});
        g.observe(200, false); // -> reduced horizon, cooldown starts
        g.observe(10, false); // streak 1, cooling down
        g.observe(10, false); // streak 2, cooling down
        assert_eq!(g.rung(), LadderRung::ReducedHorizon);
        g.observe(10, false); // streak 3 and window elapsed -> promote
        assert_eq!(g.rung(), LadderRung::Full);
    }

    #[test]
    fn mid_band_cycles_reset_the_promote_streak() {
        let mut g = gov(|_| {});
        g.observe(200, false); // -> reduced horizon
        g.observe(10, false);
        g.observe(10, false);
        g.observe(80, false); // between cut and budget: hold, reset streak
        g.observe(10, false);
        assert_eq!(g.rung(), LadderRung::ReducedHorizon);
        g.observe(10, false);
        assert_eq!(g.rung(), LadderRung::Full);
    }

    #[test]
    fn ladder_never_flaps_within_the_hysteresis_window() {
        // Adversarial alternating load: changes must still be spaced by
        // at least the window.
        let mut g = gov(|c| c.hysteresis_cycles = 5);
        let mut last_change_at: Option<usize> = None;
        let mut prev = g.rung();
        for i in 0..200 {
            let work = if i % 2 == 0 { 1_000 } else { 0 };
            g.observe(work, false);
            if g.rung() != prev {
                if let Some(at) = last_change_at {
                    assert!(i - at >= 5, "changes at {at} and {i} are too close");
                }
                last_change_at = Some(i);
                prev = g.rung();
            }
        }
    }

    #[test]
    fn binary_mode_jumps_straight_to_greedy_and_back() {
        let mut g = gov(|c| c.binary = true);
        g.observe(200, false);
        assert_eq!(g.rung(), LadderRung::Greedy);
        g.observe(10, false);
        g.observe(10, false);
        g.observe(10, false);
        assert_eq!(g.rung(), LadderRung::Full);
    }

    #[test]
    fn greedy_is_the_floor_full_is_the_ceiling() {
        let mut g = gov(|c| c.hysteresis_cycles = 0);
        for _ in 0..10 {
            g.observe(1_000, false);
        }
        assert_eq!(g.rung(), LadderRung::Greedy);
        for _ in 0..20 {
            g.observe(0, false);
        }
        assert_eq!(g.rung(), LadderRung::Full);
    }

    #[test]
    fn reduced_horizon_is_quantized() {
        let g = gov(|_| {});
        assert_eq!(g.reduced_horizon(96, 4), 24);
        assert_eq!(g.reduced_horizon(10, 4), 0); // floors to a quantum multiple
        assert_eq!(g.reduced_horizon(0, 4), 0);
    }

    #[test]
    fn stamp_writes_the_current_rung() {
        let mut g = gov(|_| {});
        let mut d = CycleDecisions::default();
        g.stamp(&mut d);
        assert_eq!(d.ladder_rung, 0);
        g.observe(200, false);
        g.stamp(&mut d);
        assert_eq!(d.ladder_rung, 1);
    }

    #[test]
    fn rung_encoding_is_stable() {
        assert_eq!(LadderRung::Full.as_u8(), 0);
        assert_eq!(LadderRung::ReducedHorizon.as_u8(), 1);
        assert_eq!(LadderRung::Anytime.as_u8(), 2);
        assert_eq!(LadderRung::Greedy.as_u8(), 3);
    }
}
