//! The Rayon/CapacityScheduler baseline stack.
//!
//! The paper compares TetriSched against "the best-configured YARN
//! reservation and CapacityScheduler stack" (Sec. 6.1): the Rayon
//! reservation system is enabled, and container preemption is turned on so
//! the CapacityScheduler can enforce Rayon's capacity guarantees. This crate
//! emulates that stack's scheduling behaviour:
//!
//! - jobs with accepted reservations are served from a **production queue**
//!   once their reservation window opens, with guaranteed capacity obtained
//!   by **preempting** best-effort containers when necessary,
//! - a job that outlives its reservation (runtime under-estimate) keeps its
//!   containers but becomes preemptible, competing as best effort — the
//!   contention cascade the paper analyzes in Sec. 7.1,
//! - SLO jobs without reservations and best-effort jobs share a FIFO
//!   **best-effort queue**; their deadline information is invisible to the
//!   scheduler (Sec. 7.1: "the deadline information for any SLO jobs in the
//!   best-effort queue is lost"),
//! - placement is **heterogeneity-oblivious**: free nodes are picked
//!   pseudo-randomly, so GPU/MPI jobs frequently land on slow placements,
//! - there is no plan-ahead and no estimate use at scheduling time.

#![deny(unsafe_code)]

pub mod capacity_scheduler;

pub use capacity_scheduler::CapacityScheduler;
