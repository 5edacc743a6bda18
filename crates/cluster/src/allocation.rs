//! Space-time allocation ledger.
//!
//! The ledger records which nodes each running job holds and when those
//! nodes are *expected* to free up (from the job's runtime estimate, which
//! the scheduler may revise as mis-estimates are observed, paper Sec. 7.1).
//! Plan-ahead (Sec. 2.3.2) queries the ledger for availability at future
//! time slices: a node busy until `e` is available for any slice `t >= e`.
//!
//! [`Ledger::free_at`] is the definition: a step function of `t` with one
//! step per distinct expected end, which a scheduler cycle snapshots once
//! ([`Availability`]). The contract, for every `within` and `t`:
//! `ledger.availability(revised).free_at(within, t)` equals `free_at(within,
//! t)` on a ledger with each `revised` pair applied by `set_expected_end`,
//! errors ignored; likewise `avail_at`. [`Claims`] holds a greedy cycle's
//! commitments in the same representation.

use std::collections::BTreeMap;

use crate::node::NodeId;
use crate::nodeset::NodeSet;
use crate::Time;

/// Opaque handle naming one gang allocation (typically a job id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocHandle(pub u64);

/// One announced maintenance window: the node is best avoided during
/// `[start, end)`, so availability queries leave it out there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceWindow {
    pub node: NodeId,
    pub start: Time,
    pub end: Time,
}

/// One live allocation.
#[derive(Debug, Clone)]
struct Alloc {
    nodes: NodeSet,
    expected_end: Time,
}

/// Errors from ledger operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// A requested node is already held by another allocation.
    NodeBusy(crate::NodeId),
    /// A requested node is marked down (failed / unavailable).
    NodeDown(crate::NodeId),
    /// A node cannot be marked down while an allocation still holds it
    /// (the caller must evict the owning gang first).
    NodeAllocated(crate::NodeId, AllocHandle),
    /// The handle is already in use.
    DuplicateHandle(AllocHandle),
    /// The handle does not name a live allocation.
    UnknownHandle(AllocHandle),
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::NodeBusy(n) => write!(f, "node {n} is already allocated"),
            LedgerError::NodeDown(n) => write!(f, "node {n} is down"),
            LedgerError::NodeAllocated(n, h) => {
                write!(f, "node {n} still held by {h:?}; evict before marking down")
            }
            LedgerError::DuplicateHandle(h) => write!(f, "allocation handle {h:?} already live"),
            LedgerError::UnknownHandle(h) => write!(f, "no live allocation {h:?}"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// Tracks current node ownership and expected future availability.
///
/// Every node is in exactly one of three states — **free**, **allocated**
/// (owned by a live [`AllocHandle`]), or **down** (failed / drained) — and
/// the conservation invariant `free + allocated + down == total` holds
/// after every operation. Down nodes are invisible to every availability
/// query, so plan-ahead never counts capacity that a fault has removed.
#[derive(Debug, Clone)]
pub struct Ledger {
    num_nodes: usize,
    free: NodeSet,
    down: NodeSet,
    owner: Vec<Option<AllocHandle>>,
    allocs: BTreeMap<AllocHandle, Alloc>,
    /// Announced maintenance windows, kept sorted by (start, node, end).
    windows: Vec<MaintenanceWindow>,
}

impl Ledger {
    /// Creates a ledger for a cluster of `num_nodes` nodes, all free.
    pub fn new(num_nodes: usize) -> Self {
        Ledger {
            num_nodes,
            free: NodeSet::full(num_nodes),
            down: NodeSet::empty(num_nodes),
            owner: vec![None; num_nodes],
            allocs: BTreeMap::new(),
            windows: Vec::new(),
        }
    }

    /// Registers an announced maintenance window. Zero-length windows are
    /// dropped.
    pub fn announce(&mut self, node: NodeId, start: Time, end: Time) {
        if end <= start {
            return;
        }
        self.windows.push(MaintenanceWindow { node, start, end });
        self.windows.sort_by_key(|w| (w.start, w.node, w.end));
    }

    /// Universe size.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The currently free nodes (excludes down nodes).
    pub fn free_nodes(&self) -> &NodeSet {
        &self.free
    }

    /// The currently down (failed / unavailable) nodes.
    pub fn down_nodes(&self) -> &NodeSet {
        &self.down
    }

    /// Number of nodes currently held by allocations.
    pub fn busy_count(&self) -> usize {
        self.num_nodes - self.free.len() - self.down.len()
    }

    /// Number of nodes currently down.
    pub fn down_count(&self) -> usize {
        self.down.len()
    }

    /// Marks a node down. The node must not be held by an allocation (the
    /// caller evicts the owning gang first); marking an already-down node
    /// is a no-op so repeated fault reports are harmless.
    #[expect(
        clippy::indexing_slicing,
        reason = "`owner` holds one entry per node of the universe the ledger was built over, and \
                  the fault replay that calls this names only nodes of that cluster"
    )]
    pub fn mark_down(&mut self, node: crate::NodeId) -> Result<(), LedgerError> {
        if self.down.contains(node) {
            return Ok(());
        }
        if let Some(h) = self.owner[node.index()] {
            return Err(LedgerError::NodeAllocated(node, h));
        }
        self.free.remove(node);
        self.down.insert(node);
        Ok(())
    }

    /// Marks a node repaired, returning it to the free pool. A no-op for
    /// nodes that are not down.
    pub fn mark_up(&mut self, node: crate::NodeId) {
        if self.down.contains(node) {
            self.down.remove(node);
            self.free.insert(node);
        }
    }

    /// Verifies the internal consistency of the ledger: partition of the
    /// node universe into free/allocated/down, and agreement between the
    /// owner index and the allocation table. Returns a description of the
    /// first violation found.
    #[expect(
        clippy::indexing_slicing,
        reason = "ix ranges over 0..num_nodes and `owner` is allocated with exactly num_nodes \
                  entries at construction"
    )]
    pub fn validate(&self) -> Result<(), String> {
        let mut allocated = 0usize;
        for ix in 0..self.num_nodes {
            let node = crate::NodeId(ix as u32);
            let f = self.free.contains(node);
            let d = self.down.contains(node);
            let o = self.owner[ix].is_some();
            if (f as u8) + (d as u8) + (o as u8) != 1 {
                return Err(format!(
                    "node {node} state not exclusive: free={f} down={d} owned={o}"
                ));
            }
            if let Some(h) = self.owner[ix] {
                allocated += 1;
                match self.allocs.get(&h) {
                    Some(a) if a.nodes.contains(node) => {}
                    _ => return Err(format!("owner index for {node} disagrees with {h:?}")),
                }
            }
        }
        let alloc_total: usize = self.allocs.values().map(|a| a.nodes.len()).sum();
        if alloc_total != allocated {
            return Err(format!(
                "allocation table holds {alloc_total} nodes but owner index has {allocated}"
            ));
        }
        if self.free.len() + allocated + self.down.len() != self.num_nodes {
            return Err(format!(
                "conservation violated: {} free + {} allocated + {} down != {} total",
                self.free.len(),
                allocated,
                self.down.len(),
                self.num_nodes
            ));
        }
        Ok(())
    }

    /// The handle holding a node, if any.
    #[expect(
        clippy::indexing_slicing,
        reason = "`owner` holds one entry per node of the universe, and callers ask about nodes of \
                  the same cluster"
    )]
    pub fn owner_of(&self, node: crate::NodeId) -> Option<AllocHandle> {
        self.owner[node.index()]
    }

    /// Whether a handle names a live allocation.
    pub fn is_live(&self, handle: AllocHandle) -> bool {
        self.allocs.contains_key(&handle)
    }

    /// Nodes held by a live allocation.
    pub fn nodes_of(&self, handle: AllocHandle) -> Option<&NodeSet> {
        self.allocs.get(&handle).map(|a| &a.nodes)
    }

    /// Expected completion time of a live allocation.
    pub fn expected_end(&self, handle: AllocHandle) -> Option<Time> {
        self.allocs.get(&handle).map(|a| a.expected_end)
    }

    /// Grants `nodes` to `handle` until roughly `expected_end`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`owner` holds one entry per node of the universe, and a `NodeSet` over any other \
                  universe is the caller's bug (sets are built from `free_nodes()` of this ledger)"
    )]
    pub fn allocate(
        &mut self,
        handle: AllocHandle,
        nodes: NodeSet,
        expected_end: Time,
    ) -> Result<(), LedgerError> {
        if self.allocs.contains_key(&handle) {
            return Err(LedgerError::DuplicateHandle(handle));
        }
        for n in nodes.iter() {
            if self.owner[n.index()].is_some() {
                return Err(LedgerError::NodeBusy(n));
            }
            if self.down.contains(n) {
                return Err(LedgerError::NodeDown(n));
            }
        }
        for n in nodes.iter() {
            self.owner[n.index()] = Some(handle);
            self.free.remove(n);
        }
        self.allocs.insert(
            handle,
            Alloc {
                nodes,
                expected_end,
            },
        );
        Ok(())
    }

    /// Releases an allocation, returning the freed nodes.
    #[expect(
        clippy::indexing_slicing,
        reason = "the nodes come out of `allocs`, where `allocate` put them after indexing `owner` \
                  with every one"
    )]
    pub fn release(&mut self, handle: AllocHandle) -> Result<NodeSet, LedgerError> {
        let alloc = self
            .allocs
            .remove(&handle)
            .ok_or(LedgerError::UnknownHandle(handle))?;
        for n in alloc.nodes.iter() {
            self.owner[n.index()] = None;
            self.free.insert(n);
        }
        Ok(alloc.nodes)
    }

    /// Revises the expected completion time of a running allocation (used
    /// when a runtime under-estimate is detected and bumped upward).
    pub fn set_expected_end(
        &mut self,
        handle: AllocHandle,
        expected_end: Time,
    ) -> Result<(), LedgerError> {
        self.allocs
            .get_mut(&handle)
            .map(|a| a.expected_end = expected_end)
            .ok_or(LedgerError::UnknownHandle(handle))
    }

    /// The subset of `within` expected to be free at time `t`: nodes free
    /// now, plus busy nodes whose expected end is at or before `t` —
    /// minus nodes inside an announced maintenance window at `t`, so
    /// plan-ahead schedules around degradation it has been told about.
    pub fn free_at(&self, within: &NodeSet, t: Time) -> NodeSet {
        let mut out = self.free.clone();
        for alloc in self.allocs.values() {
            if alloc.expected_end <= t {
                out.or_with(&alloc.nodes);
            }
        }
        let mut out = out.and(within);
        for w in &self.windows {
            if w.start <= t && t < w.end {
                out.remove(w.node);
            }
        }
        out
    }

    /// Count of nodes in `within` expected to be free at time `t`.
    pub fn avail_at(&self, within: &NodeSet, t: Time) -> usize {
        self.free_at(within, t).len()
    }

    /// All live allocation handles, in ascending handle order.
    pub fn handles(&self) -> impl Iterator<Item = AllocHandle> + '_ {
        self.allocs.keys().copied()
    }

    /// Snapshots expected availability with the ends in `revised` overriding
    /// the ledger's (the last pair for a handle wins; a handle that is not
    /// live is a no-op, its gang having no end left to revise).
    pub fn availability(&self, revised: &[(AllocHandle, Time)]) -> Availability {
        let end_of = |h: &AllocHandle, alloc: &Alloc| {
            let revised = revised.iter().rev().find(|r| r.0 == *h);
            revised.map_or(alloc.expected_end, |r| r.1)
        };
        let ends = self.allocs.iter().map(|(h, a)| (end_of(h, a), &a.nodes));
        let mut ends: Vec<(Time, &NodeSet)> = ends.collect();
        ends.sort_by_key(|&(end, _)| end);
        let mut steps = Vec::with_capacity(ends.len() + 1);
        let (mut at, mut free) = (0, self.free.clone());
        for (end, nodes) in ends {
            if end > at {
                steps.push((at, free.clone()));
                at = end;
            }
            free.or_with(nodes);
        }
        steps.push((at, free));
        Availability {
            steps,
            windows: self.windows.clone(),
        }
    }
}

/// The set in force at `t`. Both step functions below keep `(from, set)`
/// pairs in ascending `from`, each set in force until the next pair's
/// `from`, and the first pair at `from = 0`, so every `t` has a step.
#[expect(
    clippy::indexing_slicing,
    reason = "a non-empty slice whose first `from` is 0 has at least one pair at or before any \
              `t`, so the subtraction cannot wrap"
)]
fn set_at(steps: &[(Time, NodeSet)], t: Time) -> &NodeSet {
    &steps[steps.partition_point(|&(from, _)| from <= t) - 1].1
}

/// Expected availability as a step function of time: one cumulative free set
/// per distinct expected end, plus the announced maintenance windows. Built
/// once per cycle by [`Ledger::availability`]; a query costs a binary search
/// and one pass over the set's words however many gangs are running.
#[derive(Debug)]
pub struct Availability {
    steps: Vec<(Time, NodeSet)>,
    windows: Vec<MaintenanceWindow>,
}

impl Availability {
    /// [`Ledger::free_at`] of the snapshotted ledger.
    pub fn free_at(&self, within: &NodeSet, t: Time) -> NodeSet {
        let mut out = set_at(&self.steps, t).and(within);
        for w in self.windows.iter().filter(|w| w.start <= t && t < w.end) {
            out.remove(w.node);
        }
        out
    }

    /// [`Ledger::avail_at`] of the snapshotted ledger. Allocates nothing
    /// unless an announced window holds `t`.
    pub fn avail_at(&self, within: &NodeSet, t: Time) -> usize {
        if self.windows.iter().any(|w| w.start <= t && t < w.end) {
            return self.free_at(within, t).len();
        }
        set_at(&self.steps, t).and_len(within)
    }
}

/// Node sets claimed over time intervals, as a step function: at `t` the
/// union of the claims whose `[start, end)` holds `t`.
#[derive(Debug)]
pub struct Claims(Vec<(Time, NodeSet)>);

impl Claims {
    /// No claims over a universe of `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Claims(vec![(0, NodeSet::empty(num_nodes))])
    }

    /// Claims `nodes` over `[start, end)`. Claims that overlap in time must
    /// be node-disjoint — each drawn from a free set without the others —
    /// so that `held_at(t) ∩ set` counts what the claims hold one by one.
    pub fn claim(&mut self, nodes: &NodeSet, start: Time, end: Time) {
        for t in [start, end] {
            // A step begins at `t`: split the one in force unless one does.
            let ix = self.0.partition_point(|&(from, _)| from < t);
            if self.0.get(ix).is_none_or(|&(from, _)| from != t) {
                self.0.insert(ix, (t, set_at(&self.0, t).clone()));
            }
        }
        for (_, held) in (self.0.iter_mut()).filter(|s| start <= s.0 && s.0 < end) {
            debug_assert!(held.is_disjoint(nodes), "overlapping claims share a node");
            held.or_with(nodes);
        }
    }

    /// The nodes claimed at `t`.
    pub fn held_at(&self, t: Time) -> &NodeSet {
        set_at(&self.0, t)
    }

    /// The nodes claimed at any time in `[start, end)`.
    pub fn held_over(&self, start: Time, end: Time) -> NodeSet {
        let mut out = self.held_at(start).clone();
        for (_, held) in (self.0.iter()).filter(|s| start < s.0 && s.0 < end) {
            out.or_with(held);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(cap: usize, ids: &[u32]) -> NodeSet {
        NodeSet::from_ids(cap, ids.iter().map(|&i| NodeId(i)))
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut l = Ledger::new(8);
        let h = AllocHandle(1);
        l.allocate(h, set(8, &[0, 1, 2]), 100)
            .expect("nodes are free and the handle is fresh; allocate must succeed");
        assert_eq!(l.busy_count(), 3);
        assert_eq!(l.owner_of(NodeId(1)), Some(h));
        assert_eq!(
            l.nodes_of(h).expect("handle is live in the ledger").len(),
            3
        );
        let freed = l.release(h).expect("handle is live; release must succeed");
        assert_eq!(freed.len(), 3);
        assert_eq!(l.busy_count(), 0);
        assert_eq!(l.owner_of(NodeId(1)), None);
    }

    #[test]
    fn double_allocation_rejected() {
        let mut l = Ledger::new(8);
        l.allocate(AllocHandle(1), set(8, &[0, 1]), 10)
            .expect("nodes are free and the handle is fresh; allocate must succeed");
        let err = l.allocate(AllocHandle(2), set(8, &[1, 2]), 10).unwrap_err();
        assert_eq!(err, LedgerError::NodeBusy(NodeId(1)));
        // The failed allocation must not have taken node 2.
        assert!(l.free_nodes().contains(NodeId(2)));
    }

    #[test]
    fn duplicate_handle_rejected() {
        let mut l = Ledger::new(8);
        l.allocate(AllocHandle(1), set(8, &[0]), 10)
            .expect("nodes are free and the handle is fresh; allocate must succeed");
        let err = l.allocate(AllocHandle(1), set(8, &[1]), 10).unwrap_err();
        assert_eq!(err, LedgerError::DuplicateHandle(AllocHandle(1)));
    }

    #[test]
    fn unknown_handle_release() {
        let mut l = Ledger::new(4);
        assert!(matches!(
            l.release(AllocHandle(9)),
            Err(LedgerError::UnknownHandle(_))
        ));
    }

    #[test]
    fn future_availability_honors_expected_end() {
        let mut l = Ledger::new(4);
        l.allocate(AllocHandle(1), set(4, &[0, 1]), 50)
            .expect("nodes are free and the handle is fresh; allocate must succeed");
        l.allocate(AllocHandle(2), set(4, &[2]), 20)
            .expect("nodes are free and the handle is fresh; allocate must succeed");
        let all = NodeSet::full(4);
        assert_eq!(l.avail_at(&all, 0), 1); // only node 3 free now
        assert_eq!(l.avail_at(&all, 20), 2); // node 2 frees at 20
        assert_eq!(l.avail_at(&all, 49), 2);
        assert_eq!(l.avail_at(&all, 50), 4);
    }

    #[test]
    fn bumped_estimate_moves_availability() {
        let mut l = Ledger::new(2);
        l.allocate(AllocHandle(1), set(2, &[0]), 10)
            .expect("nodes are free and the handle is fresh; allocate must succeed");
        assert_eq!(l.avail_at(&NodeSet::full(2), 10), 2);
        l.set_expected_end(AllocHandle(1), 30)
            .expect("handle is live; estimate update must succeed");
        assert_eq!(l.avail_at(&NodeSet::full(2), 10), 1);
        assert_eq!(l.avail_at(&NodeSet::full(2), 30), 2);
    }

    #[test]
    fn free_at_respects_subset() {
        let mut l = Ledger::new(6);
        l.allocate(AllocHandle(1), set(6, &[0, 1]), 10)
            .expect("nodes are free and the handle is fresh; allocate must succeed");
        let rack = set(6, &[0, 1, 2]);
        assert_eq!(l.avail_at(&rack, 0), 1);
        assert_eq!(l.avail_at(&rack, 10), 3);
    }

    #[test]
    fn down_node_lifecycle() {
        let mut l = Ledger::new(4);
        l.mark_down(NodeId(1))
            .expect("node is free; mark_down must succeed");
        assert_eq!(l.down_count(), 1);
        assert!(!l.free_nodes().contains(NodeId(1)));
        assert!(l.down_nodes().contains(NodeId(1)));
        // Idempotent re-report.
        l.mark_down(NodeId(1))
            .expect("node is free; mark_down must succeed");
        assert_eq!(l.down_count(), 1);
        l.validate().expect("ledger invariants must hold");
        l.mark_up(NodeId(1));
        assert_eq!(l.down_count(), 0);
        assert!(l.free_nodes().contains(NodeId(1)));
        // mark_up of a healthy node is a no-op.
        l.mark_up(NodeId(2));
        l.validate().expect("ledger invariants must hold");
    }

    #[test]
    fn allocate_rejects_down_node() {
        let mut l = Ledger::new(4);
        l.mark_down(NodeId(2))
            .expect("node is free; mark_down must succeed");
        let err = l.allocate(AllocHandle(1), set(4, &[1, 2]), 10).unwrap_err();
        assert_eq!(err, LedgerError::NodeDown(NodeId(2)));
        // The failed allocation must not have taken node 1.
        assert!(l.free_nodes().contains(NodeId(1)));
        l.validate().expect("ledger invariants must hold");
    }

    #[test]
    fn mark_down_rejects_allocated_node() {
        let mut l = Ledger::new(4);
        l.allocate(AllocHandle(7), set(4, &[0, 1]), 10)
            .expect("nodes are free and the handle is fresh; allocate must succeed");
        let err = l.mark_down(NodeId(0)).unwrap_err();
        assert_eq!(err, LedgerError::NodeAllocated(NodeId(0), AllocHandle(7)));
        // After eviction the node can go down.
        l.release(AllocHandle(7))
            .expect("handle is live; release must succeed");
        l.mark_down(NodeId(0))
            .expect("node is free; mark_down must succeed");
        l.validate().expect("ledger invariants must hold");
    }

    #[test]
    fn down_nodes_excluded_from_future_availability() {
        let mut l = Ledger::new(4);
        l.allocate(AllocHandle(1), set(4, &[0]), 10)
            .expect("nodes are free and the handle is fresh; allocate must succeed");
        l.mark_down(NodeId(3))
            .expect("node is free; mark_down must succeed");
        let all = NodeSet::full(4);
        // Now: nodes 1, 2 free; node 0 busy until 10; node 3 down.
        assert_eq!(l.avail_at(&all, 0), 2);
        // At 10 the allocation frees, but the down node stays excluded.
        assert_eq!(l.avail_at(&all, 10), 3);
        assert_eq!(l.busy_count(), 1);
        l.validate().expect("ledger invariants must hold");
    }

    #[test]
    fn announced_maintenance_excluded_from_future_availability() {
        let mut l = Ledger::new(4);
        l.announce(NodeId(2), 10, 30);
        let all = NodeSet::full(4);
        // Before and after the window the node counts; inside it does not.
        assert_eq!(l.avail_at(&all, 0), 4);
        assert_eq!(l.avail_at(&all, 10), 3);
        assert_eq!(l.avail_at(&all, 29), 3);
        assert_eq!(l.avail_at(&all, 30), 4);
        assert!(!l.free_at(&all, 15).contains(NodeId(2)));
        l.validate().expect("ledger invariants must hold");
    }

    #[test]
    fn zero_length_announcement_dropped() {
        let mut l = Ledger::new(2);
        l.announce(NodeId(0), 10, 10);
        assert!(l.windows.is_empty());
    }

    #[test]
    fn announcements_sort_deterministically() {
        let mut l = Ledger::new(4);
        l.announce(NodeId(3), 50, 60);
        l.announce(NodeId(1), 10, 20);
        l.announce(NodeId(2), 10, 30);
        let starts: Vec<Time> = l.windows.iter().map(|w| w.start).collect();
        assert_eq!(starts, vec![10, 10, 50]);
        assert_eq!(l.windows[0].node, NodeId(1));
    }

    #[test]
    fn validate_accepts_mixed_states() {
        let mut l = Ledger::new(8);
        l.allocate(AllocHandle(1), set(8, &[0, 1, 2]), 100)
            .expect("nodes are free and the handle is fresh; allocate must succeed");
        l.mark_down(NodeId(5))
            .expect("node is free; mark_down must succeed");
        l.mark_down(NodeId(6))
            .expect("node is free; mark_down must succeed");
        l.validate().expect("ledger invariants must hold");
        l.release(AllocHandle(1))
            .expect("handle is live; release must succeed");
        l.mark_up(NodeId(5));
        l.validate().expect("ledger invariants must hold");
        assert_eq!(l.busy_count(), 0);
        assert_eq!(l.down_count(), 1);
    }
}
