//! Workload generation for the TetriSched evaluation.
//!
//! The paper drives its experiments with a Gridmix-3-based synthetic
//! generator "that respects the runtime parameter distributions for arrival
//! time, job count, size, deadline, and task runtime" (Sec. 6.4), derived
//! from the SWIM project's published characterizations of Cloudera,
//! Facebook, and Yahoo production clusters. The original trace files are not
//! redistributable, so this crate encodes the published *shapes* — many
//! small jobs, heavy-tailed sizes and runtimes, near-100% offered load — and
//! reproduces the four Table 1 compositions:
//!
//! | Workload | SLO | BE  | Unconstrained | GPU | MPI |
//! |----------|-----|-----|---------------|-----|-----|
//! | GR SLO   | 100%| 0%  | 100%          | 0%  | 0%  |
//! | GR MIX   | 52% | 48% | 100%          | 0%  | 0%  |
//! | GS MIX   | 70% | 30% | 100%          | 0%  | 0%  |
//! | GS HET   | 75% | 25% | 0%            | 50% | 50% |
//!
//! (type fractions apply to SLO jobs; best-effort jobs are unconstrained,
//! matching Sec. 6.4's description of GS HET).
//!
//! All sampling is deterministic under a caller-provided seed, and the
//! offered load is scaled to a target cluster utilization as in the paper
//! ("we adjust the load to utilize near 100% of the available cluster
//! capacity").

#![deny(unsafe_code)]

pub mod compositions;
pub mod distributions;
pub mod gridmix;
pub mod openloop;
pub mod swim;

pub use compositions::{Composition, Workload};
pub use distributions::{BoundedPareto, Empirical, Exp, LogNormal, Sample};
pub use gridmix::{GridmixConfig, WorkloadBuilder};
pub use openloop::{OpenLoopConfig, OpenLoopDriver};
pub use swim::JobClassParams;
