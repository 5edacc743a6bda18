//! Space-Time Request Language (STRL).
//!
//! STRL is the algebraic language TetriSched uses to declare job placement
//! preferences over resource *space-time* (paper Sec. 4). An expression is a
//! function mapping space-time resource shapes to scalar value; positive
//! value means the request is satisfied. The language is built from:
//!
//! - the `nCk` leaf primitive — "any `k` resources out of this equivalence
//!   set, starting at `s` for `dur`, worth `v`" (\[R1\] space-time
//!   constraints, \[R3\] combinatorial constraints via equivalence sets),
//! - `LnCk`, the linear variant that awards partial value per resource
//!   obtained,
//! - `max` — choice among options, i.e. soft constraints (\[R2\]),
//! - `min` — all children must be satisfied (gang/anti-affinity, \[R4\]),
//! - `scale` and `barrier` — value amplification and thresholds,
//! - `sum` — batching all pending jobs for global scheduling (\[R5\]).
//!
//! The crate also provides the paper's value functions (Fig. 5), the RDL
//! reservation types STRL is generated from (Sec. 4.4), and a printed text
//! form (`Display`) for diagnostics. Culling is not done here: the
//! generator drops worthless replicas and the compiler fixes dead leaves
//! at zero.
//!
//! # Examples
//!
//! The Fig. 3 soft constraint — 2 GPU nodes for 2 time units (worth 4), or
//! any 2 nodes for 3 time units (worth 3):
//!
//! ```
//! use tetrisched_cluster::{NodeId, NodeSet};
//! use tetrisched_strl::StrlExpr;
//!
//! let gpus = NodeSet::from_ids(4, [NodeId(0), NodeId(1)]);
//! let all = NodeSet::full(4);
//! let expr = StrlExpr::max([
//!     StrlExpr::nck(gpus, 2, 0, 2, 4.0),
//!     StrlExpr::nck(all, 2, 0, 3, 3.0),
//! ]);
//! assert_eq!(expr.value_upper_bound(), 4.0);
//! ```

#![deny(unsafe_code)]
// A panic here kills the run: a function that keeps one says why in an `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]
#![deny(clippy::unimplemented, clippy::allow_attributes_without_reason)]

pub mod expr;
pub mod rdl;
pub mod value;

pub use expr::StrlExpr;
pub use rdl::{Atom, Window};
pub use value::{JobClass, ValueFn, BE_BASE_VALUE, SLO_ACCEPTED_FACTOR, SLO_NO_RESERVATION_FACTOR};

/// Simulated wall-clock time in seconds (re-exported convention).
pub type Time = tetrisched_cluster::Time;
