//! Rayon-like reservation system (admission control).
//!
//! The paper runs TetriSched "in tandem" with Rayon (Curino et al., SoCC
//! 2014), YARN's reservation system (Sec. 2.1): Rayon guarantees future
//! resource capacity in the long term and acts as an admission-control
//! frontend, while the runtime scheduler makes short-term placement and
//! ordering decisions. This crate reproduces the slice of Rayon both
//! scheduler stacks depend on:
//!
//! - a **capacity plan** — a step function of committed capacity over future
//!   time ([`plan::CapacityPlan`]),
//! - **admission**: an RDL `Window(s, f, Atom(k, dur))` request is accepted
//!   at the earliest start where `k` containers fit under the plan for the
//!   atom's (estimated!) duration, and rejected otherwise
//!   ([`admission::ReservationSystem`]). Rejected SLO jobs become "SLO jobs
//!   without reservation" (Sec. 6.2.2).
//!
//! Because the plan is built from *estimated* durations, runtime
//! mis-estimation flows through admission exactly as in the paper:
//! under-estimates let reservations expire before their jobs finish;
//! over-estimates admit fewer jobs and release capacity early.

#![deny(unsafe_code)]

pub mod admission;
pub mod plan;

pub use admission::{Reservation, ReservationId, ReservationSystem};
pub use plan::CapacityPlan;

/// Simulated wall-clock time in seconds (re-exported convention).
pub type Time = tetrisched_cluster::Time;
