//! Discrete-event cluster simulator.
//!
//! The paper evaluates TetriSched on real 256- and 80-node clusters; this
//! crate is the simulation substitute. It reproduces everything the
//! evaluation metrics depend on:
//!
//! - gang job execution with **placement-dependent runtimes** (a GPU job
//!   slows down off GPU nodes; an MPI job slows down when its gang spans
//!   racks — paper Sec. 6.2.1),
//! - **runtime mis-estimation**: jobs carry a true base runtime and an
//!   estimate-error knob, and schedulers only ever see the estimate
//!   (Sec. 6.3),
//! - Rayon **reservation admission** at submission time, classifying SLO
//!   jobs into accepted / without-reservation (Sec. 6.2.2),
//! - **preemption** with lost work, and scheduler-driven estimate revision,
//! - the paper's four success metrics plus cycle/solver latency samples
//!   (Sec. 6.3, Fig. 12).
//!
//! Schedulers plug in through the [`Scheduler`] trait; both the TetriSched
//! core and the YARN CapacityScheduler baseline implement it.

#![deny(unsafe_code)]
// A panic here kills the run: a function that keeps one says why in an `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]
#![deny(clippy::unimplemented, clippy::allow_attributes_without_reason)]

pub mod engine;
pub mod event;
pub mod fault;
pub mod job;
pub mod metrics;
pub mod scheduler;
pub mod straggler;
pub mod trace;

pub use engine::{SimConfig, SimReport, Simulator};
pub use fault::{
    FaultConfig, FaultKind, FaultPlan, FaultScope, FaultScript, FaultWindow, RetryPolicy,
};
pub use job::{JobId, JobOutcome, JobSpec, JobType};
pub use metrics::{LatencyStats, Metrics};
pub use scheduler::{
    select_victims, CycleContext, CycleDecisions, CycleError, Launch, PendingJob, RunningJob,
    Scheduler,
};
pub use straggler::detect_stragglers;
pub use trace::{TraceEvent, TraceLog, DEFAULT_TRACE_CAPACITY};
// Re-exported so engine embedders can configure and read telemetry without
// naming the telemetry crate directly.
pub use tetrisched_telemetry::{
    HistogramSketch, SpanGuard, SpanRecord, Telemetry, TelemetryConfig, TelemetrySnapshot,
};

/// Simulated wall-clock time in seconds (re-exported convention).
pub type Time = tetrisched_cluster::Time;
