//! The TetriSched scheduler core — the paper's primary contribution.
//!
//! On every scheduling cycle TetriSched:
//!
//! 1. observes running jobs and **bumps under-estimated completion times**
//!    upward (Sec. 7.1), keeping its availability view honest,
//! 2. expands every pending job into a STRL expression — a `max` over
//!    placement options × candidate start times within the **plan-ahead
//!    window** (Sec. 3.2.1), valued by the job's class value function
//!    (Fig. 5) and culled against its deadline,
//! 3. aggregates the batch with a STRL `sum` for **global scheduling**
//!    (Sec. 2.4), refines the referenced equivalence sets into the minimal
//!    **partition** classes (Sec. 7.3), and compiles the whole thing into a
//!    MILP via Algorithm 1 ([`compiler`]),
//! 4. solves with a bounded, gap-tolerant branch-and-bound seeded by the
//!    **previous cycle's choices** (Sec. 3.2.2), and
//! 5. launches exactly the gangs chosen to start *now*; deferred placements
//!    are only plans and are re-evaluated from scratch next cycle
//!    (**adaptive re-planning**, Sec. 2.3.3).
//!
//! The ablation configurations of Table 2 — `TetriSched-NH` (no
//! heterogeneity awareness), `TetriSched-NG` (greedy job-at-a-time instead
//! of global), and `TetriSched-NP` (no plan-ahead, ≙ alsched) — are all
//! expressible through [`TetriSchedConfig`].

#![deny(unsafe_code)]
// A panic here kills the run: a function that keeps one says why in an `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]
#![deny(clippy::unimplemented, clippy::allow_attributes_without_reason)]
#![deny(clippy::float_cmp)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests pin exact values"))]

pub mod compiler;
pub mod config;
pub mod generator;
pub mod governor;
pub mod scheduler;

pub use compiler::{compile, evaluate, ChosenAlloc, CompileInput, CompiledModel, Evaluation};
pub use config::TetriSchedConfig;
pub use generator::{JobRequest, PlacementOption, StrlGenerator};
pub use governor::{Governor, GovernorConfig, LadderRung};
pub use scheduler::TetriSched;
