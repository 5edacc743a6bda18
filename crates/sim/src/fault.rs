//! Deterministic fault injection: one plan of node fault windows.
//!
//! The paper's evaluation assumes a static, healthy cluster; real deployments
//! see node churn and slow nodes. This module produces a [`FaultPlan`] — a
//! fully pre-computed, seeded list of [`FaultWindow`]s — that the simulator
//! replays as events: a [`FaultKind::Down`] window as
//! [`EventKind::NodeDown`](crate::event::EventKind) / `NodeUp`, a slow one
//! as `PerfFaultStart` / `PerfFaultEnd`. Pre-computing the plan (rather than
//! sampling online) keeps runs bit-for-bit reproducible regardless of how
//! the engine interleaves other events, and lets tests assert on the exact
//! windows.
//!
//! Two sources compose, for every kind:
//!
//! - **Stochastic**: a per-node alternating renewal process, healthy for an
//!   exponentially distributed time (MTBF) and faulty for another (MTTR),
//!   seeded; and
//! - **Scripted**: explicit windows on a node, a whole rack, or an arbitrary
//!   node set at a fixed time — the correlated cases (top-of-rack switch
//!   loss, announced maintenance) stochastic churn cannot express.
//!
//! The module is dependency-free: it carries its own splitmix64 generator so
//! the sim crate's non-test builds stay free of a `rand` dependency.

use tetrisched_cluster::{Cluster, NodeId, RackId};

use crate::Time;

/// What a fault window does to its node while it is in force.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail-stop: the node leaves the cluster, evicting any gang on it,
    /// and rejoins when the window ends.
    Down,
    /// The node stays up, but task runtimes on it stretch by `factor`
    /// (slow disk, thermal throttling, noisy neighbor). Factors below 1 are
    /// clamped to 1.
    SlowNode { factor: f64 },
}

impl FaultKind {
    /// The runtime multiplier a slow window imposes while in force (>= 1),
    /// so the engine can rebase in-flight progress exactly; `None` for
    /// [`FaultKind::Down`].
    pub fn slow_factor(&self) -> Option<f64> {
        match *self {
            FaultKind::Down => None,
            FaultKind::SlowNode { factor } => Some(factor.max(1.0)),
        }
    }
}

/// One fault window on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// The fault starts.
    pub start: Time,
    /// The node recovers (exclusive end). `Time::MAX` for an outage that
    /// never ends: generated churn whose repair falls at or after the
    /// config's horizon leaves its node down for the rest of the run.
    pub end: Time,
    /// The affected node.
    pub node: NodeId,
    /// What the fault does while in force.
    pub kind: FaultKind,
    /// Whether the window is announced in advance (scripted maintenance):
    /// announced windows are registered with the ledger
    /// ([`Ledger::announce`]) before the run starts so plan-ahead can
    /// schedule around them. Stochastic faults are unannounced — the
    /// scheduler only sees their effects.
    ///
    /// [`Ledger::announce`]: tetrisched_cluster::Ledger::announce
    pub announced: bool,
}

/// Parameters for stochastic per-node faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// RNG seed; equal seeds yield identical plans. Slow windows draw from
    /// a differently salted stream, so an outage plan and a slow-window
    /// plan built from the same seed do not correlate.
    pub seed: u64,
    /// Mean time between faults per node, in seconds.
    pub mtbf: f64,
    /// Mean fault length (time to repair or recover), in seconds.
    pub mttr: f64,
    /// Faults start in `[0, horizon)`.
    pub horizon: Time,
    /// `None` draws fail-stop outages. `Some((min, max))` draws slow-node
    /// windows instead, with factors uniform in `[min, max]` and ends
    /// clamped to `horizon`.
    pub slow_factor: Option<(f64, f64)>,
}

/// Which nodes a scripted fault covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultScope {
    /// Every node in a rack (correlated failure, e.g. ToR switch loss).
    Rack(RackId),
    /// An explicit node list.
    Nodes(Vec<NodeId>),
}

impl FaultScope {
    /// The nodes of `cluster` the scope covers.
    fn nodes(&self, cluster: &Cluster) -> Vec<NodeId> {
        match self {
            FaultScope::Rack(r) => cluster.rack_nodes(*r).iter().collect(),
            FaultScope::Nodes(ns) => ns.clone(),
        }
    }
}

/// One scripted fault window, expanded to every node of its scope.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScript {
    /// The fault starts.
    pub at: Time,
    /// Fault length; the nodes recover at `at + duration`. A zero duration
    /// is dropped.
    pub duration: Time,
    /// Affected nodes.
    pub scope: FaultScope,
    /// What the fault does while in force.
    pub kind: FaultKind,
    /// Whether plan-ahead is told about the window in advance; see
    /// [`FaultWindow::announced`].
    pub announced: bool,
}

/// A pre-computed, deterministic list of fault windows, sorted by
/// `(start, node, end)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

/// Salt mixed into the per-node stream key of slow windows so they stay
/// independent of outages generated from the same seed.
const PERF_STREAM_SALT: u64 = 0x05ca_1ab1_e0dd_ba11;

impl FaultPlan {
    /// Samples stochastic faults for every node of a `num_nodes` cluster.
    ///
    /// Each node runs an independent renewal process — healthy for
    /// `Exp(mtbf)`, faulty for `max(1, Exp(mttr))` — with its own RNG
    /// stream derived from `config.seed` and the node id, so the plan for
    /// node `k` does not depend on how many other nodes exist. A slow
    /// window draws one more uniform for its factor.
    pub fn generate(num_nodes: usize, config: &FaultConfig) -> Self {
        let salt = match config.slow_factor {
            None => 0,
            Some(_) => PERF_STREAM_SALT,
        };
        let mut windows = Vec::new();
        for ix in 0..num_nodes {
            let node = NodeId(ix as u32);
            let mut rng = SplitMix64::new(config.seed ^ splitmix_scramble(ix as u64 + 1) ^ salt);
            let mut t = rng.sample_exp(config.mtbf);
            while t < config.horizon as f64 {
                let start = t as Time;
                let end = start + (rng.sample_exp(config.mttr) as Time).max(1);
                let (kind, until) = match config.slow_factor {
                    None if end < config.horizon => (FaultKind::Down, end),
                    None => (FaultKind::Down, Time::MAX),
                    Some((min, max)) => {
                        let factor = min + (max - min) * (1.0 - rng.next_unit());
                        (FaultKind::SlowNode { factor }, end.min(config.horizon))
                    }
                };
                windows.push(FaultWindow {
                    start,
                    end: until,
                    node,
                    kind,
                    announced: false,
                });
                t = end as f64 + rng.sample_exp(config.mtbf);
            }
        }
        FaultPlan::sorted(windows)
    }

    /// Expands scripted fault windows against a concrete cluster topology.
    pub fn from_script(cluster: &Cluster, scripts: &[FaultScript]) -> Self {
        let mut windows = Vec::new();
        for s in scripts.iter().filter(|s| s.duration > 0) {
            for node in s.scope.nodes(cluster) {
                windows.push(FaultWindow {
                    start: s.at,
                    end: s.at + s.duration,
                    node,
                    kind: s.kind,
                    announced: s.announced,
                });
            }
        }
        FaultPlan::sorted(windows)
    }

    /// An announced maintenance window: the nodes run at a quarter of
    /// their capacity (a 4x slowdown) during `[at, at + duration)` and
    /// plan-ahead is told in advance (the window is announced to the
    /// ledger).
    pub fn maintenance(cluster: &Cluster, at: Time, duration: Time, scope: FaultScope) -> Self {
        FaultPlan::from_script(
            cluster,
            &[FaultScript {
                at,
                duration,
                scope,
                kind: FaultKind::SlowNode { factor: 4.0 },
                announced: true,
            }],
        )
    }

    /// Merges another plan into this one; windows with equal sort keys
    /// keep `self`'s before `other`'s. Overlapping windows on one node are
    /// legal: the engine refcounts outages, so a node rejoins the free pool
    /// only once every one has ended, and applies the *maximum* slowdown in
    /// force.
    pub fn merge(mut self, other: FaultPlan) -> Self {
        self.windows.extend(other.windows);
        FaultPlan::sorted(self.windows)
    }

    /// The windows in `(start, node, end)` order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Highest node index the plan touches, if any (used to validate a plan
    /// against the cluster it is replayed on).
    pub fn max_node(&self) -> Option<NodeId> {
        self.windows.iter().map(|w| w.node).max()
    }

    /// A stable sort, so windows with equal keys keep their order.
    fn sorted(mut windows: Vec<FaultWindow>) -> Self {
        windows.sort_by_key(|w| (w.start, w.node, w.end));
        FaultPlan { windows }
    }
}

/// One node's fault state: how overlapping windows compose while the
/// engine replays them.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeFaults {
    /// Outages in force. Overlapping outages of one node (stochastic churn
    /// merged with a scripted rack outage) are refcounted: the node rejoins
    /// the free pool only when every one of them has ended.
    down_depth: u32,
    /// Plan indices of the slow windows in force.
    active_perf: Vec<usize>,
    /// The node's runtime multiplier as `perf_window` last computed it;
    /// 0.0 until a slow window touches the node, which a reader folding
    /// from 1.0 (`gang_mult`) reads as full speed.
    pub(crate) factor: f64,
    /// Whether a slow window ever opened on the node.
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

    /// Slow window `ix` of `plan` opens or closes; the node's runtime
    /// multiplier from here on, also kept in `factor`. Overlapping windows
    /// compose by max (the node runs at the worst active factor), 1.0 when
    /// none is left.
    #[expect(
        clippy::indexing_slicing,
        reason = "every `ix` in `active_perf` arrived through this function from the engine's \
                  perf-fault events, which are made by enumerating the same `plan`"
    )]
    pub(crate) fn perf_window(&mut self, ix: usize, opens: bool, plan: &[FaultWindow]) -> f64 {
        if opens {
            self.active_perf.push(ix);
            self.perf_faulted = true;
        } else {
            self.active_perf.retain(|&other| other != ix);
        }
        self.factor = self
            .active_perf
            .iter()
            .filter_map(|&ix| plan[ix].kind.slow_factor())
            .fold(1.0, f64::max);
        self.factor
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

    /// Outages (`slow_factor: None`) or 2-6x slow windows.
    fn cfg(seed: u64, slow: bool) -> FaultConfig {
        FaultConfig {
            seed,
            mtbf: 500.0,
            mttr: 60.0,
            horizon: 10_000,
            slow_factor: slow.then_some((2.0, 6.0)),
        }
    }

    fn script(at: Time, duration: Time, scope: FaultScope, kind: FaultKind) -> FaultScript {
        FaultScript {
            at,
            duration,
            scope,
            kind,
            announced: false,
        }
    }

    fn on_node(plan: &FaultPlan, node: u32) -> Vec<FaultWindow> {
        let windows = plan.windows().iter().copied();
        windows.filter(|w| w.node == NodeId(node)).collect()
    }

    #[test]
    fn generate_is_deterministic_per_seed() {
        for slow in [false, true] {
            let a = FaultPlan::generate(16, &cfg(7, slow));
            assert_eq!(a, FaultPlan::generate(16, &cfg(7, slow)));
            assert_ne!(a, FaultPlan::generate(16, &cfg(8, slow)));
            assert!(!a.windows().is_empty());
        }
    }

    #[test]
    fn node_stream_independent_of_cluster_size() {
        // Node 3's windows must be identical in an 8- and a 64-node
        // cluster: streams are keyed by node id, not sampled in sequence.
        for slow in [false, true] {
            let small = FaultPlan::generate(8, &cfg(3, slow));
            let big = FaultPlan::generate(64, &cfg(3, slow));
            assert_eq!(on_node(&small, 3), on_node(&big, 3));
        }
    }

    #[test]
    fn slow_windows_draw_from_their_own_stream() {
        // Same seed must not produce correlated timelines: the slow stream
        // is salted. (If the salts matched, node 0's first slow window and
        // first outage would start at the same instant.)
        let down = FaultPlan::generate(8, &cfg(7, false));
        let slow = FaultPlan::generate(8, &cfg(7, true));
        assert_ne!(on_node(&down, 0)[0].start, on_node(&slow, 0)[0].start);
    }

    #[test]
    fn generated_windows_are_sorted_disjoint_per_node_and_start_before_the_horizon() {
        for slow in [false, true] {
            let plan = FaultPlan::generate(32, &cfg(5, slow));
            for pair in plan.windows().windows(2) {
                assert!(pair[0].start <= pair[1].start);
            }
            for node in 0..32 {
                let windows = on_node(&plan, node);
                for pair in windows.windows(2) {
                    assert!(pair[0].end <= pair[1].start, "node {node}: {pair:?}");
                }
                for w in windows {
                    assert!(w.start < w.end && w.start < 10_000);
                    match w.kind.slow_factor() {
                        None => assert!(!slow && (w.end < 10_000 || w.end == Time::MAX)),
                        Some(f) => assert!(slow && (2.0..=6.0).contains(&f) && w.end <= 10_000),
                    }
                }
            }
        }
    }

    #[test]
    fn horizon_leaves_outages_open_and_clamps_slow_windows() {
        let past = |slow| {
            let config = FaultConfig {
                horizon: 700,
                mttr: 400.0,
                ..cfg(1, slow)
            };
            let plan = FaultPlan::generate(16, &config);
            let ends = plan.windows().iter().map(|w| w.end);
            ends.filter(|&end| end >= 700).collect::<Vec<_>>()
        };
        let open = past(false);
        assert!(!open.is_empty() && open.iter().all(|&end| end == Time::MAX));
        let clamped = past(true);
        assert!(!clamped.is_empty() && clamped.iter().all(|&end| end == 700));
    }

    #[test]
    fn script_expands_scope_and_keeps_kind_and_announcement() {
        let c = Cluster::uniform(2, 4, 0);
        let slow = FaultKind::SlowNode { factor: 4.0 };
        let plan = FaultPlan::from_script(
            &c,
            &[
                script(100, 50, FaultScope::Rack(RackId(1)), FaultKind::Down),
                FaultScript {
                    announced: true,
                    ..script(0, 10, FaultScope::Nodes(vec![NodeId(0), NodeId(2)]), slow)
                },
            ],
        );
        let windows = plan.windows();
        assert_eq!(windows.len(), 6);
        assert!(windows[..2].iter().all(|w| w.kind == slow && w.announced));
        assert!(windows[2..]
            .iter()
            .all(|w| w.kind == FaultKind::Down && !w.announced));
        assert!(windows[2..].iter().all(|w| (w.start, w.end) == (100, 150)));
        assert!(windows[2..].iter().all(|w| c.rack_of(w.node) == RackId(1)));
        assert_eq!(plan.max_node(), Some(NodeId(7)));
    }

    #[test]
    fn zero_duration_script_dropped() {
        let c = Cluster::uniform(1, 2, 0);
        let node = || FaultScope::Nodes(vec![NodeId(0)]);
        let plan = FaultPlan::from_script(
            &c,
            &[
                script(5, 0, node(), FaultKind::Down),
                script(5, 0, node(), FaultKind::SlowNode { factor: 2.0 }),
            ],
        );
        assert!(plan.windows().is_empty());
    }

    #[test]
    fn merge_interleaves_sorted_and_keeps_ties_in_order() {
        let c = Cluster::uniform(1, 4, 0);
        let node = || FaultScope::Nodes(vec![NodeId(2)]);
        let outage = FaultPlan::from_script(&c, &[script(0, 10, node(), FaultKind::Down)]);
        let slow = FaultPlan::from_script(
            &c,
            &[script(0, 10, node(), FaultKind::SlowNode { factor: 3.0 })],
        );
        let random = FaultPlan::generate(4, &cfg(9, false));
        let merged = random.clone().merge(outage).merge(slow);
        assert_eq!(merged.windows().len(), random.windows().len() + 2);
        for pair in merged.windows().windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
        let ties: Vec<_> = on_node(&merged, 2)
            .into_iter()
            .filter(|w| w.start == 0)
            .collect();
        assert_eq!(ties[0].kind, FaultKind::Down);
        assert_eq!(ties[1].kind, FaultKind::SlowNode { factor: 3.0 });
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

    #[test]
    fn node_faults_refcount_outages_and_take_the_worst_factor() {
        let mut node = NodeFaults::default();
        assert!(!node.repair(), "a repair without a failure changes nothing");
        assert!(node.fail());
        assert!(!node.fail(), "nested outage: already down");
        assert!(!node.repair(), "the outer outage still holds the node down");
        assert!(node.repair());

        let window = |kind| FaultWindow {
            start: 0,
            end: 100,
            node: NodeId(0),
            kind,
            announced: false,
        };
        let slow = |factor| window(FaultKind::SlowNode { factor });
        let plan = [slow(2.0), window(FaultKind::Down), slow(4.0)];
        assert_eq!(node.perf_window(0, true, &plan), 2.0);
        assert_eq!(node.perf_window(2, true, &plan), 4.0);
        assert_eq!(node.perf_window(2, false, &plan), 2.0);
        assert_eq!(node.perf_window(0, false, &plan), 1.0);
        assert_eq!(node.factor, 1.0);
        assert!(node.perf_faulted);
    }

    #[test]
    fn slow_factor_clamps() {
        assert_eq!(FaultKind::Down.slow_factor(), None);
        assert_eq!(FaultKind::SlowNode { factor: 0.5 }.slow_factor(), Some(1.0));
        assert_eq!(FaultKind::SlowNode { factor: 3.0 }.slow_factor(), Some(3.0));
    }

    #[test]
    fn maintenance_is_announced_capacity_window() {
        let c = Cluster::uniform(1, 4, 0);
        let plan = FaultPlan::maintenance(&c, 200, 100, FaultScope::Nodes(vec![NodeId(1)]));
        assert_eq!(plan.windows().len(), 1);
        let w = plan.windows()[0];
        assert!(w.announced);
        assert_eq!(w.kind.slow_factor(), Some(4.0));
        assert_eq!((w.start, w.end), (200, 300));
    }
}
