//! The tenancy layer: per-tenant fair-share weights.
//!
//! In open-loop service mode tenants compete in an ongoing arrival stream,
//! so the scheduler's objective should favour tenants running below their
//! fair fraction of the cluster and damp tenants running above it. The
//! book tracks each tenant's held capacity and outstanding demand and
//! produces a multiplicative weight
//!
//! ```text
//! weight(t) = clamp(fair_fraction / actual_fraction(t), MIN_WEIGHT, MAX_WEIGHT)
//! ```
//!
//! where `fair_fraction` splits the cluster evenly across tenants with
//! demand and `actual_fraction(t)` is the share of currently-held nodes.
//! A tenant holding exactly its fair share gets weight 1.0; starved
//! tenants are boosted toward `MAX_WEIGHT`, hogs damped toward
//! `MIN_WEIGHT`. The accounting is plain integer tallies over a dense
//! `Vec` keyed by tenant index, so weights replay identically for the
//! same seed.

/// A tenant identity. Tenants are dense small integers; jobs map to
/// tenants by `service_id % tenants`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

/// Lower clamp on the weight of an over-served tenant.
const MIN_WEIGHT: f64 = 0.25;
/// Upper clamp on the weight of a starved tenant.
const MAX_WEIGHT: f64 = 4.0;

/// Fair-share configuration.
#[derive(Debug, Clone)]
pub struct FairShareConfig {
    /// Number of tenants. `0` disables fair-share weighting entirely
    /// (every job gets weight exactly 1.0 — the closed-loop default).
    pub tenants: u32,
}

impl FairShareConfig {
    /// Fair-share disabled: every job weighs exactly 1.0.
    pub fn disabled() -> Self {
        FairShareConfig { tenants: 0 }
    }

    /// Fair-share across `tenants` tenants.
    pub fn enabled(tenants: u32) -> Self {
        FairShareConfig { tenants }
    }

    /// Whether weighting is active.
    pub fn is_enabled(&self) -> bool {
        self.tenants > 0
    }

    /// The tenant a job id maps to, or `None` when disabled.
    pub fn tenant_of(&self, service_id: u64) -> Option<TenantId> {
        if self.tenants == 0 {
            None
        } else {
            Some(TenantId((service_id % u64::from(self.tenants)) as u32))
        }
    }
}

/// Per-tenant running totals.
#[derive(Debug, Clone, Copy, Default)]
struct TenantLedger {
    /// Nodes currently held by running jobs of this tenant.
    held_nodes: u64,
    /// Nodes requested by this tenant's pending jobs.
    demand_nodes: u64,
}

/// Fair-fraction accounting across tenants.
#[derive(Debug, Clone)]
pub struct FairShareBook {
    config: FairShareConfig,
    ledgers: Vec<TenantLedger>,
}

impl FairShareBook {
    pub fn new(config: FairShareConfig) -> Self {
        let n = config.tenants as usize;
        FairShareBook {
            config,
            ledgers: vec![TenantLedger::default(); n],
        }
    }

    pub fn config(&self) -> &FairShareConfig {
        &self.config
    }

    /// Resets the per-cycle snapshot. The book is rebuilt from the
    /// scheduler's views each cycle rather than updated incrementally, so
    /// it can never drift from the engine's ground truth.
    pub fn begin_cycle(&mut self) {
        for ledger in &mut self.ledgers {
            *ledger = TenantLedger::default();
        }
    }

    /// Records `nodes` held by a running job of the tenant owning
    /// `service_id`.
    // srclint: checked-indexing: `tenant_of` reduces the id modulo
    // `config.tenants`, the count `new` sized `ledgers` with.
    pub fn observe_held(&mut self, service_id: u64, nodes: u64) {
        if let Some(TenantId(t)) = self.config.tenant_of(service_id) {
            self.ledgers[t as usize].held_nodes += nodes;
        }
    }

    /// Records `nodes` demanded by a pending job of the tenant owning
    /// `service_id`.
    // srclint: checked-indexing: `tenant_of` reduces the id modulo
    // `config.tenants`, the count `new` sized `ledgers` with.
    pub fn observe_demand(&mut self, service_id: u64, nodes: u64) {
        if let Some(TenantId(t)) = self.config.tenant_of(service_id) {
            self.ledgers[t as usize].demand_nodes += nodes;
        }
    }

    /// The objective weight for a job of the tenant owning `service_id`.
    ///
    /// Exactly `1.0` when fair-share is disabled, when no tenant holds
    /// anything yet, or when the tenant sits at its fair fraction — so the
    /// closed-loop path multiplies by literal 1.0 and stays byte-identical.
    // srclint: checked-indexing: `tenant_of` reduces the id modulo
    // `config.tenants`, the count `new` sized `ledgers` with.
    pub fn weight(&self, service_id: u64) -> f64 {
        let Some(TenantId(t)) = self.config.tenant_of(service_id) else {
            return 1.0;
        };
        let active = self
            .ledgers
            .iter()
            .filter(|l| l.held_nodes > 0 || l.demand_nodes > 0)
            .count();
        let total_held: u64 = self.ledgers.iter().map(|l| l.held_nodes).sum();
        if active == 0 || total_held == 0 {
            return 1.0;
        }
        let fair = 1.0 / active as f64;
        let held = self.ledgers[t as usize].held_nodes;
        if held == 0 {
            // Starved tenant with demand: maximum boost.
            return MAX_WEIGHT;
        }
        let actual = held as f64 / total_held as f64;
        (fair / actual).clamp(MIN_WEIGHT, MAX_WEIGHT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_book_always_weighs_one() {
        let mut book = FairShareBook::new(FairShareConfig::disabled());
        book.observe_held(0, 100);
        for id in 0..10u64 {
            assert_eq!(book.weight(id), 1.0);
        }
    }

    #[test]
    fn empty_cluster_weighs_one() {
        let book = FairShareBook::new(FairShareConfig::enabled(4));
        assert_eq!(book.weight(0), 1.0);
    }

    #[test]
    fn tenant_at_fair_share_weighs_one() {
        let mut book = FairShareBook::new(FairShareConfig::enabled(2));
        book.observe_held(0, 4); // tenant 0
        book.observe_held(1, 4); // tenant 1
        assert_eq!(book.weight(0), 1.0);
        assert_eq!(book.weight(1), 1.0);
    }

    #[test]
    fn starved_tenant_is_boosted_and_hog_is_damped() {
        let mut book = FairShareBook::new(FairShareConfig::enabled(2));
        book.observe_held(0, 6); // tenant 0 hogs
        book.observe_held(1, 2); // tenant 1 starved
                                 // fair = 0.5; tenant 0 actual = 0.75 -> weight 2/3; tenant 1
                                 // actual = 0.25 -> weight 2.
        assert!(book.weight(0) < 1.0);
        assert!(book.weight(1) > 1.0);
        assert!((book.weight(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((book.weight(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_held_with_demand_gets_max_weight() {
        let mut book = FairShareBook::new(FairShareConfig::enabled(2));
        book.observe_held(0, 8); // tenant 0 holds everything
        book.observe_demand(1, 2); // tenant 1 only has demand
        assert_eq!(book.weight(1), MAX_WEIGHT);
    }

    #[test]
    fn weights_are_clamped() {
        // Eight active tenants, one holding the whole cluster: fair is
        // 0.125, the hog's raw weight 0.125 clamps up to `MIN_WEIGHT` and
        // the starved tenants clamp down to `MAX_WEIGHT`.
        let mut book = FairShareBook::new(FairShareConfig::enabled(8));
        book.observe_held(0, 100);
        for t in 1..8u64 {
            book.observe_demand(t, 1);
        }
        assert_eq!(book.weight(0), MIN_WEIGHT);
        assert_eq!(book.weight(1), MAX_WEIGHT);
    }

    #[test]
    fn begin_cycle_clears_the_snapshot() {
        let mut book = FairShareBook::new(FairShareConfig::enabled(2));
        book.observe_held(0, 10);
        book.begin_cycle();
        assert_eq!(book.weight(1), 1.0);
    }
}
