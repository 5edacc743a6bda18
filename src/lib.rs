//! TetriSched — a Rust reproduction of "TetriSched: global rescheduling with
//! adaptive plan-ahead in dynamic heterogeneous clusters" (EuroSys 2016).
//!
//! This facade crate re-exports every workspace crate under one roof:
//!
//! - [`milp`] — the MILP solver substrate (replaces IBM CPLEX),
//! - [`strl`] — the Space-Time Request Language,
//! - [`cluster`] — cluster topology, equivalence sets, allocation ledger,
//! - [`reservation`] — Rayon-like reservation/admission control,
//! - [`sim`] — the discrete-event cluster simulator,
//! - [`baseline`] — the YARN CapacityScheduler baseline,
//! - [`core`] — the TetriSched scheduler itself (STRL generation,
//!   STRL-to-MILP compilation, plan-ahead, global scheduling),
//! - [`workloads`] — trace-derived and synthetic workload generators,
//! - [`mod@bench`] — the experiment harness regenerating the paper's figures,
//! - [`mod@lint`] — STRL/MILP semantic diagnostics and the workspace
//!   invariant linter (`srclint`).
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! # Examples
//!
//! Schedule the paper's Fig. 3 soft-constraint request on the Fig. 1 toy
//! cluster, end to end:
//!
//! ```
//! use tetrisched::cluster::{Attr, Cluster, NodeSet, PartitionSet};
//! use tetrisched::core::{compile, CompileInput};
//! use tetrisched::milp::SolverConfig;
//! use tetrisched::strl::StrlExpr;
//!
//! let cluster = Cluster::fig1_toy();
//! let gpus = cluster.nodes_with_attr(&Attr::gpu());
//! let all = cluster.all_nodes();
//! // 2 GPU nodes for 2s (worth 4) or any 2 nodes for 3s (worth 3).
//! let expr = StrlExpr::max([
//!     StrlExpr::nck(gpus.clone(), 2, 0, 2, 4.0),
//!     StrlExpr::nck(all.clone(), 2, 0, 3, 3.0),
//! ]);
//! let partitions = PartitionSet::refine(cluster.num_nodes(), &[gpus, all]);
//! let input = CompileInput {
//!     expr: &expr,
//!     partitions: &partitions,
//!     now: 0,
//!     quantum: 1,
//!     n_slices: 4,
//! };
//! let compiled = compile(&input, &|set: &NodeSet, _| set.len()).unwrap();
//! let sol = compiled.model.solve(&SolverConfig::exact()).unwrap();
//! assert_eq!(sol.objective, 4.0); // the GPU option wins
//! ```

#![deny(unsafe_code)]

pub use lint;
pub use tetrisched_baseline as baseline;
pub use tetrisched_bench as bench;
pub use tetrisched_cluster as cluster;
pub use tetrisched_core as core;
pub use tetrisched_milp as milp;
pub use tetrisched_reservation as reservation;
pub use tetrisched_service as service;
pub use tetrisched_sim as sim;
pub use tetrisched_strl as strl;
pub use tetrisched_workloads as workloads;
