//! Deterministic fault injection: node failure/repair plans.
//!
//! The paper's evaluation assumes a static, healthy cluster; real deployments
//! see node churn. This module produces a [`FaultPlan`] — a fully
//! pre-computed, seeded sequence of node down/up transitions — that the
//! simulator replays as [`EventKind::NodeDown`](crate::event::EventKind) /
//! `NodeUp` events. Pre-computing the plan (rather than sampling online)
//! keeps runs bit-for-bit reproducible regardless of how the engine
//! interleaves other events, and lets tests assert on the exact transition
//! sequence.
//!
//! Two sources compose:
//!
//! - **Stochastic churn**: per-node alternating up/down renewal process with
//!   exponentially distributed time-between-failures (MTBF) and
//!   time-to-repair (MTTR), seeded; and
//! - **Scripted outages**: explicit windows taking down a node, a whole
//!   rack, or an arbitrary node set at a fixed time — the correlated-failure
//!   cases (top-of-rack switch loss) stochastic churn cannot express.
//!
//! The module is dependency-free: it carries its own splitmix64 generator so
//! the sim crate's non-test builds stay free of a `rand` dependency.

use tetrisched_cluster::{Cluster, NodeId, RackId};

use crate::Time;

/// One node state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the transition fires.
    pub at: Time,
    /// The node changing state.
    pub node: NodeId,
    /// `true` for repair (node up), `false` for failure (node down).
    pub up: bool,
}

/// Parameters for stochastic per-node churn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// RNG seed; equal seeds yield identical plans.
    pub seed: u64,
    /// Mean time between failures per node, in seconds.
    pub mtbf: f64,
    /// Mean time to repair, in seconds.
    pub mttr: f64,
    /// Transitions are generated in `[0, horizon)`.
    pub horizon: Time,
}

/// Which nodes a scripted outage takes down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultScope {
    /// A single node.
    Node(NodeId),
    /// Every node in a rack (correlated failure, e.g. ToR switch loss).
    Rack(RackId),
    /// An explicit node list.
    Nodes(Vec<NodeId>),
}

impl FaultScope {
    /// The nodes of `cluster` the scope covers.
    fn nodes(&self, cluster: &Cluster) -> Vec<NodeId> {
        match self {
            FaultScope::Node(n) => vec![*n],
            FaultScope::Rack(r) => cluster.rack_nodes(*r).iter().collect(),
            FaultScope::Nodes(ns) => ns.clone(),
        }
    }
}

/// One scripted outage window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultScript {
    /// Outage start.
    pub at: Time,
    /// Outage length; the repair fires at `at + duration`. A zero duration
    /// is dropped (it would be a no-op: `NodeUp` sorts before `NodeDown` at
    /// equal times).
    pub duration: Time,
    /// Affected nodes.
    pub scope: FaultScope,
}

/// A pre-computed, deterministic sequence of node transitions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: a perfectly healthy cluster.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Samples stochastic churn for every node of a `num_nodes` cluster.
    ///
    /// Each node runs an independent renewal process — up for
    /// `Exp(1/mtbf)`, down for `max(1, Exp(1/mttr))` — with its own RNG
    /// stream derived from `config.seed` and the node id, so the plan for
    /// node `k` does not depend on how many other nodes exist.
    pub fn generate(num_nodes: usize, config: &FaultConfig) -> Self {
        let mut events = Vec::new();
        for ix in 0..num_nodes {
            let node = NodeId(ix as u32);
            let mut rng = SplitMix64::new(config.seed ^ splitmix_scramble(ix as u64 + 1));
            let mut t = rng.sample_exp(config.mtbf);
            while t < config.horizon as f64 {
                let down_at = t as Time;
                let repair_at = down_at + (rng.sample_exp(config.mttr) as Time).max(1);
                events.push(FaultEvent {
                    at: down_at,
                    node,
                    up: false,
                });
                if repair_at < config.horizon {
                    events.push(FaultEvent {
                        at: repair_at,
                        node,
                        up: true,
                    });
                }
                t = repair_at as f64 + rng.sample_exp(config.mtbf);
            }
        }
        let mut plan = FaultPlan { events };
        plan.normalize();
        plan
    }

    /// Expands scripted outage windows against a concrete cluster topology.
    pub fn from_script(cluster: &Cluster, scripts: &[FaultScript]) -> Self {
        let mut events = Vec::new();
        for s in scripts {
            if s.duration == 0 {
                continue;
            }
            for node in s.scope.nodes(cluster) {
                events.push(FaultEvent {
                    at: s.at,
                    node,
                    up: false,
                });
                events.push(FaultEvent {
                    at: s.at + s.duration,
                    node,
                    up: true,
                });
            }
        }
        let mut plan = FaultPlan { events };
        plan.normalize();
        plan
    }

    /// Merges another plan into this one. Overlapping outages of the same
    /// node are legal; the engine refcounts down transitions so a node
    /// only rejoins the free pool once every overlapping outage has ended.
    pub fn merge(mut self, other: FaultPlan) -> Self {
        self.events.extend(other.events);
        self.normalize();
        self
    }

    /// The transitions in deterministic firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan contains no transitions.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Highest node index the plan touches, if any (used to validate a plan
    /// against the cluster it is replayed on).
    pub fn max_node(&self) -> Option<NodeId> {
        self.events.iter().map(|e| e.node).max()
    }

    fn normalize(&mut self) {
        // Repairs sort before failures at equal (time, node) so a
        // back-to-back outage pair nets to a state change, matching the
        // event-queue priority order.
        self.events.sort_by_key(|e| (e.at, e.node, !e.up as u8));
    }
}

/// What a performance fault does to its node while the window is active.
///
/// Unlike the fail-stop transitions above, a performance fault leaves the
/// node *up* but degraded: work placed on it proceeds slower. Both kinds
/// reduce to a single deterministic runtime multiplier so the engine can
/// rebase in-flight progress exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerfFaultKind {
    /// Task runtimes on the node stretch by `factor` (slow disk, thermal
    /// throttling, noisy neighbor). Factors below 1 are clamped to 1.
    SlowNode { factor: f64 },
    /// The node's effective capacity shrinks to `fraction` of nominal
    /// (0 < fraction <= 1): work proceeds at `fraction` speed, i.e. a
    /// runtime multiplier of `1 / fraction`.
    DegradedCapacity { fraction: f64 },
}

impl PerfFaultKind {
    /// The runtime multiplier this fault imposes while active (>= 1).
    pub fn slow_factor(&self) -> f64 {
        match *self {
            PerfFaultKind::SlowNode { factor } => factor.max(1.0),
            PerfFaultKind::DegradedCapacity { fraction } => 1.0 / fraction.clamp(0.01, 1.0),
        }
    }
}

/// One performance-degradation window on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfFaultWindow {
    /// Degradation start.
    pub start: Time,
    /// Degradation end (exclusive); the node recovers at `end`.
    pub end: Time,
    /// The affected node.
    pub node: NodeId,
    /// What the fault does while active.
    pub kind: PerfFaultKind,
    /// Whether the window is announced in advance (scripted maintenance):
    /// announced windows are registered in the ledger's [`NodeHealth`]
    /// before the run starts so plan-ahead can schedule around them.
    /// Stochastic degradation is unannounced — the scheduler only sees its
    /// effects.
    ///
    /// [`NodeHealth`]: tetrisched_cluster::NodeHealth
    pub announced: bool,
}

/// Parameters for stochastic per-node performance degradation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfFaultConfig {
    /// RNG seed; equal seeds yield identical plans. The stream is salted
    /// differently from [`FaultConfig`] so perf and fail-stop plans built
    /// from the same seed do not correlate.
    pub seed: u64,
    /// Mean time between degradation windows per node, in seconds.
    pub mtbf: f64,
    /// Mean window length, in seconds.
    pub duration: f64,
    /// Sampled slowdown factors are uniform in `[factor_min, factor_max]`.
    pub factor_min: f64,
    pub factor_max: f64,
    /// Windows are generated in `[0, horizon)`.
    pub horizon: Time,
}

/// One scripted degradation window (performance analogue of
/// [`FaultScript`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PerfFaultScript {
    /// Window start.
    pub at: Time,
    /// Window length; the node recovers at `at + duration`. Zero-length
    /// windows are dropped.
    pub duration: Time,
    /// Affected nodes.
    pub scope: FaultScope,
    /// What the fault does while active.
    pub kind: PerfFaultKind,
    /// Whether plan-ahead is told about the window in advance (maintenance
    /// announcements); see [`PerfFaultWindow::announced`].
    pub announced: bool,
}

/// A pre-computed, deterministic set of performance-degradation windows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfFaultPlan {
    windows: Vec<PerfFaultWindow>,
}

/// Salt mixed into the per-node stream key so a perf plan and a fail-stop
/// plan generated from the same seed stay independent.
const PERF_STREAM_SALT: u64 = 0x05ca_1ab1_e0dd_ba11;

impl PerfFaultPlan {
    /// The empty plan: every node at full speed.
    pub fn none() -> Self {
        PerfFaultPlan::default()
    }

    /// Samples stochastic slow-node windows for every node of a
    /// `num_nodes` cluster. Each node runs an independent renewal process
    /// (healthy for `Exp(mtbf)`, degraded for `max(1, Exp(duration))`)
    /// with its own RNG stream derived from the seed and node id, so node
    /// `k`'s windows do not depend on cluster size.
    pub fn generate(num_nodes: usize, config: &PerfFaultConfig) -> Self {
        let mut windows = Vec::new();
        for ix in 0..num_nodes {
            let node = NodeId(ix as u32);
            let mut rng =
                SplitMix64::new(config.seed ^ splitmix_scramble(ix as u64 + 1) ^ PERF_STREAM_SALT);
            let mut t = rng.sample_exp(config.mtbf);
            while t < config.horizon as f64 {
                let start = t as Time;
                let end = start + (rng.sample_exp(config.duration) as Time).max(1);
                let unit = rng.next_unit();
                let factor =
                    config.factor_min + (config.factor_max - config.factor_min) * (1.0 - unit);
                windows.push(PerfFaultWindow {
                    start,
                    end: end.min(config.horizon),
                    node,
                    kind: PerfFaultKind::SlowNode { factor },
                    announced: false,
                });
                t = end as f64 + rng.sample_exp(config.mtbf);
            }
        }
        let mut plan = PerfFaultPlan { windows };
        plan.normalize();
        plan
    }

    /// Expands scripted degradation windows against a cluster topology.
    pub fn from_script(cluster: &Cluster, scripts: &[PerfFaultScript]) -> Self {
        let mut windows = Vec::new();
        for s in scripts {
            if s.duration == 0 {
                continue;
            }
            for node in s.scope.nodes(cluster) {
                windows.push(PerfFaultWindow {
                    start: s.at,
                    end: s.at + s.duration,
                    node,
                    kind: s.kind,
                    announced: s.announced,
                });
            }
        }
        let mut plan = PerfFaultPlan { windows };
        plan.normalize();
        plan
    }

    /// An announced maintenance window: the nodes run at `fraction`
    /// capacity during `[at, at + duration)` and plan-ahead is told in
    /// advance (the window lands in the ledger's `NodeHealth`).
    pub fn maintenance(cluster: &Cluster, at: Time, duration: Time, scope: FaultScope) -> Self {
        PerfFaultPlan::from_script(
            cluster,
            &[PerfFaultScript {
                at,
                duration,
                scope,
                kind: PerfFaultKind::DegradedCapacity { fraction: 0.25 },
                announced: true,
            }],
        )
    }

    /// Merges another plan into this one. Overlapping windows on the same
    /// node are legal; the engine applies the *maximum* active slowdown.
    pub fn merge(mut self, other: PerfFaultPlan) -> Self {
        self.windows.extend(other.windows);
        self.normalize();
        self
    }

    /// The windows in deterministic order.
    pub fn windows(&self) -> &[PerfFaultWindow] {
        &self.windows
    }

    /// Whether the plan contains no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Highest node index the plan touches, if any.
    pub fn max_node(&self) -> Option<NodeId> {
        self.windows.iter().map(|w| w.node).max()
    }

    fn normalize(&mut self) {
        self.windows.retain(|w| w.end > w.start);
        self.windows.sort_by_key(|w| (w.start, w.node, w.end));
    }
}

/// One node's fault state: how overlapping entries of the two plans
/// compose while the engine replays them.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeFaults {
    /// Fail-stop outages in force. Overlapping outages of one node
    /// (stochastic churn merged with a scripted rack outage) are
    /// refcounted: the node rejoins the free pool only when every one of
    /// them has ended.
    down_depth: u32,
    /// Plan indices of the perf-fault windows in force.
    active_perf: Vec<usize>,
    /// Whether a perf-fault window ever opened on the node.
    pub(crate) perf_faulted: bool,
}

impl NodeFaults {
    /// An outage begins; true when it is the one that takes the node down.
    pub(crate) fn fail(&mut self) -> bool {
        self.down_depth += 1;
        self.down_depth == 1
    }

    /// An outage ends; true when it was the last in force, false while
    /// another holds the node down or when no failure preceded the repair.
    pub(crate) fn repair(&mut self) -> bool {
        if self.down_depth == 0 {
            return false;
        }
        self.down_depth -= 1;
        self.down_depth == 0
    }

    /// Window `ix` of `plan` opens or closes; the node's runtime multiplier
    /// from here on. Overlapping windows compose by max (the node runs at
    /// the worst active factor), 1.0 when none is left.
    // srclint: checked-indexing: every `ix` in `active_perf` arrived through
    // this function from the engine's perf-fault events, which are made by
    // enumerating the same `plan`.
    pub(crate) fn perf_window(&mut self, ix: usize, opens: bool, plan: &[PerfFaultWindow]) -> f64 {
        if opens {
            self.active_perf.push(ix);
            self.perf_faulted = true;
        } else {
            self.active_perf.retain(|&other| other != ix);
        }
        self.active_perf
            .iter()
            .map(|&ix| plan[ix].kind.slow_factor())
            .fold(1.0, f64::max)
    }
}

/// Capped exponential backoff for evicted jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Evictions a job may survive before it is abandoned. The first
    /// eviction consumes retry 1; a job is abandoned when it would need
    /// retry `max_retries + 1`.
    pub max_retries: u32,
    /// Delay before the first retry, in seconds.
    pub backoff_base: Time,
    /// Upper bound on any retry delay, in seconds.
    pub backoff_cap: Time,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            backoff_base: 10,
            backoff_cap: 300,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `attempt` (1-based): `base * 2^(attempt-1)`
    /// capped at `backoff_cap`, saturating on overflow.
    pub fn delay(&self, attempt: u32) -> Time {
        let shifted = self
            .backoff_base
            .checked_shl(attempt.saturating_sub(1))
            .unwrap_or(Time::MAX);
        shifted.min(self.backoff_cap).max(1)
    }
}

/// splitmix64: tiny, high-quality, dependency-free PRNG (public domain
/// reference algorithm by Sebastiano Vigna).
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

fn splitmix_scramble(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix_scramble(self.state.wrapping_sub(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform in (0, 1]: never zero, so `ln` below is finite.
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (inverse-CDF sampling).
    fn sample_exp(&mut self, mean: f64) -> f64 {
        -mean * self.next_unit().ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            mtbf: 500.0,
            mttr: 60.0,
            horizon: 10_000,
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let a = FaultPlan::generate(16, &cfg(7));
        let b = FaultPlan::generate(16, &cfg(7));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn distinct_seeds_differ() {
        let a = FaultPlan::generate(16, &cfg(7));
        let b = FaultPlan::generate(16, &cfg(8));
        assert_ne!(a, b);
    }

    #[test]
    fn node_stream_independent_of_cluster_size() {
        // Node 3's transitions must be identical in an 8- and a 64-node
        // cluster: streams are keyed by node id, not sampled in sequence.
        let small = FaultPlan::generate(8, &cfg(3));
        let big = FaultPlan::generate(64, &cfg(3));
        let pick = |p: &FaultPlan| -> Vec<FaultEvent> {
            p.events()
                .iter()
                .copied()
                .filter(|e| e.node == NodeId(3))
                .collect()
        };
        assert_eq!(pick(&small), pick(&big));
    }

    #[test]
    fn transitions_alternate_per_node() {
        let plan = FaultPlan::generate(8, &cfg(11));
        for ix in 0..8u32 {
            let mut down = false;
            let mut last_at = 0;
            for e in plan.events().iter().filter(|e| e.node == NodeId(ix)) {
                assert_eq!(e.up, down, "node {ix} transition does not alternate");
                assert!(e.at >= last_at);
                down = !e.up;
                last_at = e.at;
            }
        }
    }

    #[test]
    fn events_sorted_and_within_horizon() {
        let plan = FaultPlan::generate(32, &cfg(5));
        let mut prev = 0;
        for e in plan.events() {
            assert!(e.at >= prev);
            assert!(e.at < 10_000);
            prev = e.at;
        }
    }

    #[test]
    fn script_expands_rack_scope() {
        let c = Cluster::uniform(2, 4, 0);
        let plan = FaultPlan::from_script(
            &c,
            &[FaultScript {
                at: 100,
                duration: 50,
                scope: FaultScope::Rack(RackId(1)),
            }],
        );
        // 4 nodes down at 100, 4 back up at 150.
        assert_eq!(plan.events().len(), 8);
        let downs: Vec<_> = plan.events().iter().filter(|e| !e.up).collect();
        assert_eq!(downs.len(), 4);
        assert!(downs.iter().all(|e| e.at == 100));
        assert!(downs.iter().all(|e| c.rack_of(e.node) == RackId(1)));
        assert_eq!(plan.max_node(), Some(NodeId(7)));
    }

    #[test]
    fn zero_duration_script_dropped() {
        let c = Cluster::uniform(1, 2, 0);
        let plan = FaultPlan::from_script(
            &c,
            &[FaultScript {
                at: 5,
                duration: 0,
                scope: FaultScope::Node(NodeId(0)),
            }],
        );
        assert!(plan.is_empty());
    }

    #[test]
    fn merge_interleaves_sorted() {
        let c = Cluster::uniform(1, 4, 0);
        let scripted = FaultPlan::from_script(
            &c,
            &[FaultScript {
                at: 0,
                duration: 10,
                scope: FaultScope::Node(NodeId(2)),
            }],
        );
        let random = FaultPlan::generate(4, &cfg(9));
        let merged = random.clone().merge(scripted.clone());
        assert_eq!(
            merged.events().len(),
            random.events().len() + scripted.events().len()
        );
        let mut prev = 0;
        for e in merged.events() {
            assert!(e.at >= prev);
            prev = e.at;
        }
    }

    #[test]
    fn up_sorts_before_down_at_equal_time() {
        let c = Cluster::uniform(1, 1, 0);
        // Outage [5, 10) followed immediately by outage [10, 20): at t=10
        // the repair must come first so the second failure finds the node
        // up.
        let plan = FaultPlan::from_script(
            &c,
            &[
                FaultScript {
                    at: 5,
                    duration: 5,
                    scope: FaultScope::Node(NodeId(0)),
                },
                FaultScript {
                    at: 10,
                    duration: 10,
                    scope: FaultScope::Node(NodeId(0)),
                },
            ],
        );
        let at_10: Vec<_> = plan.events().iter().filter(|e| e.at == 10).collect();
        assert_eq!(at_10.len(), 2);
        assert!(at_10[0].up && !at_10[1].up);
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy {
            max_retries: 6,
            backoff_base: 10,
            backoff_cap: 100,
        };
        assert_eq!(p.delay(1), 10);
        assert_eq!(p.delay(2), 20);
        assert_eq!(p.delay(3), 40);
        assert_eq!(p.delay(4), 80);
        assert_eq!(p.delay(5), 100);
        assert_eq!(p.delay(200), 100); // saturates, no overflow panic
    }

    #[test]
    fn backoff_never_zero() {
        let p = RetryPolicy {
            max_retries: 1,
            backoff_base: 0,
            backoff_cap: 0,
        };
        assert_eq!(p.delay(1), 1);
    }

    fn perf_cfg(seed: u64) -> PerfFaultConfig {
        PerfFaultConfig {
            seed,
            mtbf: 400.0,
            duration: 80.0,
            factor_min: 2.0,
            factor_max: 6.0,
            horizon: 10_000,
        }
    }

    #[test]
    fn perf_generate_is_deterministic() {
        let a = PerfFaultPlan::generate(16, &perf_cfg(7));
        let b = PerfFaultPlan::generate(16, &perf_cfg(7));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn perf_plan_independent_of_fail_stop_plan() {
        // Same seed must not produce correlated timelines: the perf stream
        // is salted. (If the salts matched, node 0's first perf window and
        // first outage would start at the same instant.)
        let perf = PerfFaultPlan::generate(8, &perf_cfg(7));
        let stop = FaultPlan::generate(8, &cfg(7));
        let first_perf = perf.windows().iter().find(|w| w.node == NodeId(0));
        let first_stop = stop.events().iter().find(|e| e.node == NodeId(0));
        if let (Some(w), Some(e)) = (first_perf, first_stop) {
            assert_ne!(w.start, e.at);
        }
    }

    #[test]
    fn perf_windows_sorted_sane_and_within_horizon() {
        let plan = PerfFaultPlan::generate(32, &perf_cfg(5));
        let mut prev = 0;
        for w in plan.windows() {
            assert!(w.start >= prev);
            assert!(w.end > w.start);
            assert!(w.end <= 10_000);
            assert!(w.kind.slow_factor() >= 2.0 && w.kind.slow_factor() <= 6.0);
            prev = w.start;
        }
    }

    #[test]
    fn perf_stream_independent_of_cluster_size() {
        let small = PerfFaultPlan::generate(8, &perf_cfg(3));
        let big = PerfFaultPlan::generate(64, &perf_cfg(3));
        let pick = |p: &PerfFaultPlan| -> Vec<PerfFaultWindow> {
            p.windows()
                .iter()
                .copied()
                .filter(|w| w.node == NodeId(3))
                .collect()
        };
        assert_eq!(pick(&small), pick(&big));
    }

    #[test]
    fn perf_script_expands_rack_and_keeps_announcement() {
        let c = Cluster::uniform(2, 4, 0);
        let plan = PerfFaultPlan::from_script(
            &c,
            &[PerfFaultScript {
                at: 100,
                duration: 50,
                scope: FaultScope::Rack(RackId(0)),
                kind: PerfFaultKind::SlowNode { factor: 4.0 },
                announced: true,
            }],
        );
        assert_eq!(plan.windows().len(), 4);
        assert!(plan.windows().iter().all(|w| w.announced));
        assert!(plan
            .windows()
            .iter()
            .all(|w| w.start == 100 && w.end == 150));
    }

    #[test]
    fn perf_zero_duration_script_dropped() {
        let c = Cluster::uniform(1, 2, 0);
        let plan = PerfFaultPlan::from_script(
            &c,
            &[PerfFaultScript {
                at: 5,
                duration: 0,
                scope: FaultScope::Node(NodeId(0)),
                kind: PerfFaultKind::SlowNode { factor: 2.0 },
                announced: false,
            }],
        );
        assert!(plan.is_empty());
    }

    #[test]
    fn node_faults_refcount_outages_and_take_the_worst_factor() {
        let mut node = NodeFaults::default();
        assert!(!node.repair(), "a repair without a failure changes nothing");
        assert!(node.fail());
        assert!(!node.fail(), "nested outage: already down");
        assert!(!node.repair(), "the outer outage still holds the node down");
        assert!(node.repair());

        let window = |factor| PerfFaultWindow {
            start: 0,
            end: 100,
            node: NodeId(0),
            kind: PerfFaultKind::SlowNode { factor },
            announced: false,
        };
        let plan = [window(2.0), window(4.0)];
        assert_eq!(node.perf_window(0, true, &plan), 2.0);
        assert_eq!(node.perf_window(1, true, &plan), 4.0);
        assert_eq!(node.perf_window(1, false, &plan), 2.0);
        assert_eq!(node.perf_window(0, false, &plan), 1.0);
        assert!(node.perf_faulted);
    }

    #[test]
    fn slow_factor_clamps() {
        assert_eq!(PerfFaultKind::SlowNode { factor: 0.5 }.slow_factor(), 1.0);
        assert_eq!(PerfFaultKind::SlowNode { factor: 3.0 }.slow_factor(), 3.0);
        assert_eq!(
            PerfFaultKind::DegradedCapacity { fraction: 0.5 }.slow_factor(),
            2.0
        );
        // A zero fraction clamps instead of dividing by zero.
        assert!(PerfFaultKind::DegradedCapacity { fraction: 0.0 }
            .slow_factor()
            .is_finite());
    }

    #[test]
    fn maintenance_is_announced_capacity_window() {
        let c = Cluster::uniform(1, 4, 0);
        let plan = PerfFaultPlan::maintenance(&c, 200, 100, FaultScope::Node(NodeId(1)));
        assert_eq!(plan.windows().len(), 1);
        let w = plan.windows()[0];
        assert!(w.announced);
        assert!(matches!(w.kind, PerfFaultKind::DegradedCapacity { .. }));
        assert_eq!((w.start, w.end), (200, 300));
    }
}
