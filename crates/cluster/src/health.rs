//! Node performance health: live slowdown factors and announced
//! maintenance windows.
//!
//! Fail-stop state (up/down) lives in the [`Ledger`](crate::Ledger)'s
//! free/down partition; this module tracks the *continuous* degradation
//! dimension the paper's model omits: nodes that are up but slow (thermal
//! throttling, noisy neighbors, draining disks) and maintenance windows
//! announced in advance. The ledger consults the announced windows in its
//! availability queries so plan-ahead schedules around a window it knows
//! is coming instead of placing work that will straddle it.
//!
//! Unannounced degradation is deliberately *not* part of availability:
//! the scheduler only observes its effects (stretched runtimes,
//! stragglers), which is what the straggler defense reacts to.

use crate::node::NodeId;
use crate::Time;

/// One announced maintenance window: the node runs degraded (or is best
/// avoided) during `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceWindow {
    pub node: NodeId,
    pub start: Time,
    pub end: Time,
}

/// Per-node performance health, owned by the ledger.
#[derive(Debug, Clone)]
pub struct NodeHealth {
    /// Current runtime multiplier per node; 1.0 means healthy, 4.0 means
    /// work on the node takes 4x as long.
    factor: Vec<f64>,
    /// Announced windows, kept sorted by (start, node, end).
    windows: Vec<MaintenanceWindow>,
}

impl NodeHealth {
    /// All nodes healthy, nothing announced.
    pub fn new(num_nodes: usize) -> Self {
        NodeHealth {
            factor: vec![1.0; num_nodes],
            windows: Vec::new(),
        }
    }

    /// The node's current runtime multiplier (>= 1).
    // srclint: checked-indexing: `factor` holds one entry per node of the
    // ledger's universe (`new(num_nodes)`), and node ids come from it.
    pub fn factor(&self, node: NodeId) -> f64 {
        self.factor[node.index()]
    }

    /// Sets the node's current runtime multiplier. Values below 1 clamp
    /// to 1 (a perf fault never speeds a node up).
    // srclint: checked-indexing: one `factor` entry per node of the universe;
    // the fault plan that calls this is drawn over the same cluster's ids.
    pub fn set_factor(&mut self, node: NodeId, factor: f64) {
        self.factor[node.index()] = factor.max(1.0);
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

    /// The announced windows, in deterministic order.
    pub fn announced(&self) -> &[MaintenanceWindow] {
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_healthy() {
        let h = NodeHealth::new(4);
        assert_eq!(h.factor(NodeId(2)), 1.0);
        assert!(h.announced().is_empty());
    }

    #[test]
    fn factor_clamps_below_one() {
        let mut h = NodeHealth::new(2);
        h.set_factor(NodeId(0), 0.25);
        assert_eq!(h.factor(NodeId(0)), 1.0);
        h.set_factor(NodeId(0), 3.5);
        assert_eq!(h.factor(NodeId(0)), 3.5);
    }

    #[test]
    fn zero_length_announcement_dropped() {
        let mut h = NodeHealth::new(2);
        h.announce(NodeId(0), 10, 10);
        assert!(h.announced().is_empty());
    }

    #[test]
    fn announcements_sort_deterministically() {
        let mut h = NodeHealth::new(4);
        h.announce(NodeId(3), 50, 60);
        h.announce(NodeId(1), 10, 20);
        h.announce(NodeId(2), 10, 30);
        let starts: Vec<Time> = h.announced().iter().map(|w| w.start).collect();
        assert_eq!(starts, vec![10, 10, 50]);
        assert_eq!(h.announced()[0].node, NodeId(1));
    }
}
