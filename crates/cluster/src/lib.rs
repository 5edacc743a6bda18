//! Cluster model for TetriSched: nodes, racks, static attributes,
//! equivalence sets, and the space-time allocation ledger.
//!
//! The TetriSched paper (EuroSys 2016) evaluates on two physical testbeds —
//! RC256 (256 slaves in 8 racks) and RC80 (an 80-node subset) — with static
//! heterogeneity expressed as node attributes (e.g. GPU-enabled racks). This
//! crate models those topologies and provides the two machine-set facilities
//! the scheduler core depends on:
//!
//! - **equivalence sets** ([`NodeSet`]) and their **partition refinement**
//!   ([`partition::PartitionSet`]) — the optimization the paper credits with
//!   "dynamically partitioning cluster resources at the beginning of each
//!   cycle to minimize the number of partition variables" (Sec. 7.3),
//! - the **allocation ledger** ([`allocation::Ledger`]) tracking which nodes
//!   each running job holds and when they are expected to free up, which is
//!   what gives plan-ahead its visibility into future availability
//!   (Sec. 2.3.2).
//!
//! # Examples
//!
//! ```
//! use tetrisched_cluster::{AllocHandle, Attr, Cluster, Ledger, PartitionSet};
//!
//! // The Fig. 1 toy cluster: 2 racks x 2 servers, rack 0 GPU-enabled.
//! let cluster = Cluster::fig1_toy();
//! let gpus = cluster.nodes_with_attr(&Attr::gpu());
//! assert_eq!(gpus.len(), 2);
//!
//! // Refine the cluster against the GPU equivalence set: 2 classes.
//! let parts = PartitionSet::refine(cluster.num_nodes(), &[gpus.clone()]);
//! assert_eq!(parts.len(), 2);
//!
//! // A job holds both GPU nodes until t=20; plan-ahead sees them free at 20.
//! let mut ledger = Ledger::new(cluster.num_nodes());
//! ledger.allocate(AllocHandle(1), gpus.clone(), 20).unwrap();
//! assert_eq!(ledger.avail_at(&gpus, 10), 0);
//! assert_eq!(ledger.avail_at(&gpus, 20), 2);
//! ```

#![deny(unsafe_code)]
// A panic here kills the run: a function that keeps one says why in an `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]
#![deny(clippy::unimplemented, clippy::allow_attributes_without_reason)]
#![deny(clippy::float_cmp)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests pin exact values"))]

pub mod allocation;
pub mod node;
pub mod nodeset;
pub mod partition;
pub mod topology;

pub use allocation::{AllocHandle, Availability, Claims, Ledger, MaintenanceWindow};
pub use node::{Attr, Node, NodeId, RackId};
pub use nodeset::NodeSet;
pub use partition::PartitionSet;
pub use topology::Cluster;

/// Simulated wall-clock time in seconds.
pub type Time = u64;
