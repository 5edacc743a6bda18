//! Cluster topology: construction and queries.

use crate::node::{Attr, Node, NodeId, RackId};
use crate::nodeset::NodeSet;

/// An immutable cluster description: nodes grouped into racks, each node
/// carrying static attributes.
///
/// The full set, each rack's set and each attribute's set are built once,
/// at [`ClusterBuilder::build`]; the queries hand out shared clones of them.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<Node>,
    racks: Vec<NodeSet>,
    all: NodeSet,
    /// Every attribute some node carries, with its set.
    by_attr: Vec<(Attr, NodeSet)>,
}

impl Cluster {
    /// Starts building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// The paper's RC256 testbed: 256 slaves in 8 equal racks. `gpu_racks`
    /// racks (from the front) are GPU-labeled, mirroring the paper's
    /// GPU-enabled-rack heterogeneity.
    pub fn rc256(gpu_racks: usize) -> Cluster {
        Self::uniform(8, 32, gpu_racks)
    }

    /// The paper's RC80 testbed: an 80-node subset of RC256, similarly
    /// configured (8 racks of 10 here, preserving the rack count).
    pub fn rc80(gpu_racks: usize) -> Cluster {
        Self::uniform(8, 10, gpu_racks)
    }

    /// The 4-node toy cluster of Fig. 1: 2 racks of 2 nodes, rack 0
    /// GPU-enabled.
    pub fn fig1_toy() -> Cluster {
        Self::uniform(2, 2, 1)
    }

    /// The 3-machine single-rack cluster of the Sec. 5.1 MILP example.
    pub fn three_machines() -> Cluster {
        Self::uniform(1, 3, 0)
    }

    /// A uniform cluster of `racks` racks with `nodes_per_rack` nodes; the
    /// first `gpu_racks` racks carry the `gpu` attribute.
    pub fn uniform(racks: usize, nodes_per_rack: usize, gpu_racks: usize) -> Cluster {
        let mut b = Cluster::builder();
        for r in 0..racks {
            let attrs = if r < gpu_racks {
                vec![Attr::gpu()]
            } else {
                Vec::new()
            };
            b.add_rack(nodes_per_rack, attrs);
        }
        b.build()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of racks.
    pub fn num_racks(&self) -> usize {
        self.racks.len()
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A single node.
    #[expect(
        clippy::indexing_slicing,
        reason = "NodeIds are minted by this cluster's builder as 0..nodes.len(), so every id a \
                  caller holds is in range"
    )]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The rack a node belongs to.
    #[expect(
        clippy::indexing_slicing,
        reason = "NodeIds are minted by this cluster's builder as 0..nodes.len(), as in `node`"
    )]
    pub fn rack_of(&self, id: NodeId) -> RackId {
        self.nodes[id.index()].rack
    }

    /// The set of nodes in a rack.
    #[expect(
        clippy::indexing_slicing,
        reason = "RackIds are minted by this cluster's builder and always index the racks vector"
    )]
    pub fn rack_nodes(&self, rack: RackId) -> &NodeSet {
        &self.racks[rack.index()]
    }

    /// The full node set.
    pub fn all_nodes(&self) -> NodeSet {
        self.all.clone()
    }

    /// The set of nodes carrying an attribute.
    pub fn nodes_with_attr(&self, attr: &Attr) -> NodeSet {
        match self.by_attr.iter().find(|(a, _)| a == attr) {
            Some((_, set)) => set.clone(),
            None => self.empty_set(),
        }
    }

    /// An empty node set sized to this cluster.
    pub fn empty_set(&self) -> NodeSet {
        NodeSet::empty(self.num_nodes())
    }
}

/// Incremental cluster construction.
#[derive(Debug, Default)]
pub struct ClusterBuilder {
    nodes: Vec<Node>,
    rack_sizes: Vec<usize>,
}

impl ClusterBuilder {
    /// Adds a rack of `n` nodes, each carrying `attrs`.
    pub fn add_rack(&mut self, n: usize, attrs: Vec<Attr>) -> RackId {
        let rack = RackId(self.rack_sizes.len() as u32);
        for _ in 0..n {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(Node {
                id,
                rack,
                attrs: attrs.clone(),
            });
        }
        self.rack_sizes.push(n);
        rack
    }

    /// Adds a single node with its own attributes to the most recent rack.
    ///
    /// # Panics
    ///
    /// Panics if no rack exists yet.
    #[expect(
        clippy::expect_used,
        reason = "documented construction-time panic (see `# Panics`): a node needs a rack, and no \
                  cluster exists yet to harm"
    )]
    pub fn add_node(&mut self, attrs: Vec<Attr>) -> NodeId {
        let rack = RackId((self.rack_sizes.len() - 1) as u32);
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { id, rack, attrs });
        *self.rack_sizes.last_mut().expect("add_rack first") += 1;
        id
    }

    /// Finalizes the cluster.
    #[expect(
        clippy::indexing_slicing,
        reason = "every node's `rack` was minted by `add_rack` as an index into `rack_sizes`, \
                  which sizes `racks`"
    )]
    pub fn build(self) -> Cluster {
        let n = self.nodes.len();
        let mut racks: Vec<NodeSet> = self.rack_sizes.iter().map(|_| NodeSet::empty(n)).collect();
        let mut by_attr: Vec<(Attr, NodeSet)> = Vec::new();
        for node in &self.nodes {
            racks[node.rack.index()].insert(node.id);
            for attr in &node.attrs {
                match by_attr.iter_mut().find(|(a, _)| a == attr) {
                    Some((_, set)) => set.insert(node.id),
                    None => by_attr.push((attr.clone(), NodeSet::from_ids(n, [node.id]))),
                }
            }
        }
        Cluster {
            nodes: self.nodes,
            racks,
            all: NodeSet::full(n),
            by_attr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc256_shape() {
        let c = Cluster::rc256(2);
        assert_eq!(c.num_nodes(), 256);
        assert_eq!(c.num_racks(), 8);
        assert_eq!(c.rack_nodes(RackId(0)).len(), 32);
        assert_eq!(c.nodes_with_attr(&Attr::gpu()).len(), 64);
    }

    #[test]
    fn rc80_shape() {
        let c = Cluster::rc80(2);
        assert_eq!(c.num_nodes(), 80);
        assert_eq!(c.num_racks(), 8);
        assert_eq!(c.nodes_with_attr(&Attr::gpu()).len(), 20);
    }

    #[test]
    fn fig1_topology_matches_paper() {
        // 2 racks x 2 servers, rack 1 (our rack 0) GPU-enabled.
        let c = Cluster::fig1_toy();
        assert_eq!(c.num_nodes(), 4);
        let gpus = c.nodes_with_attr(&Attr::gpu());
        assert_eq!(gpus.len(), 2);
        assert!(gpus.contains(NodeId(0)) && gpus.contains(NodeId(1)));
        assert_eq!(c.rack_of(NodeId(0)), c.rack_of(NodeId(1)));
        assert_ne!(c.rack_of(NodeId(0)), c.rack_of(NodeId(2)));
    }

    #[test]
    fn rack_membership_is_partition() {
        let c = Cluster::rc80(1);
        let mut seen = c.empty_set();
        for r in 0..c.num_racks() {
            let rack = c.rack_nodes(RackId(r as u32));
            assert!(seen.is_disjoint(rack));
            seen = seen.or(rack);
        }
        assert_eq!(seen.len(), c.num_nodes());
    }

    #[test]
    fn builder_mixed_racks() {
        let mut b = Cluster::builder();
        b.add_rack(2, vec![Attr::new("ssd")]);
        b.add_rack(3, vec![]);
        b.add_node(vec![Attr::gpu()]);
        let c = b.build();
        assert_eq!(c.num_nodes(), 6);
        assert_eq!(c.rack_nodes(RackId(1)).len(), 4);
        assert_eq!(c.nodes_with_attr(&Attr::gpu()).len(), 1);
        assert_eq!(c.nodes_with_attr(&Attr::new("ssd")).len(), 2);
        assert!(c.nodes_with_attr(&Attr::new("fpga")).is_empty());
    }

    #[test]
    fn queries_share_the_sets_built_once() {
        let c = Cluster::rc80(2);
        let gpus = c.nodes_with_attr(&Attr::gpu());
        assert!(gpus.shares_storage(&c.nodes_with_attr(&Attr::gpu())));
        assert!(c.all_nodes().shares_storage(&c.all_nodes()));
        assert_eq!(c.all_nodes(), NodeSet::full(80));
        let scanned = c.nodes().iter().filter(|n| n.has_attr(&Attr::gpu()));
        assert_eq!(gpus, NodeSet::from_ids(80, scanned.map(|n| n.id)));
    }
}
