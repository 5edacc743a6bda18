//! Fixture: the event loop — code nothing reachable from `cycle` calls,
//! so the retired call graph never looked at it. Crate scope does.

pub struct Run {
    faults: Vec<u32>,
}

impl Run {
    fn on_node_down(&mut self, node: usize) {
        // L008 twice: an index and an abort, neither vouched for.
        if self.faults[node] > 3 {
            panic!("fixture: nested outage");
        }
    }

    // srclint: checked-indexing: fixture golden — one entry per node.
    // srclint: expect-boundary: fixture golden — the abort is fault detection.
    fn on_node_down_vouched(&mut self, node: usize) {
        if self.faults[node] > 3 {
            panic!("fixture: nested outage");
        }
    }

    // srclint: checked-indexing:
    // srclint: expect-boundary
    fn on_node_down_unreasoned(&mut self, node: usize) {
        // L008 twice: a marker without a reason vouches for nothing.
        if self.faults[node] > 3 {
            panic!("fixture: nested outage");
        }
    }
}
