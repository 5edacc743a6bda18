//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Sec. 6–7).
//!
//! Each `fig*` function in [`figures`] reruns the corresponding experiment
//! pipeline — workload generation, reservation admission, full simulation
//! under each scheduler — and returns structured rows that the binaries in
//! `src/bin/` print in the paper's series layout. A [`figures::FigScale`]
//! selects between paper-sized runs (the `fig*` binaries) and smoke-sized
//! runs (`--smoke`, CI tests).
//!
//! Absolute numbers are not expected to match a 2016 physical testbed; the
//! *shapes* are the reproduction target (see `EXPERIMENTS.md`): who wins,
//! by roughly what factor, and where the crossovers fall.

pub mod figures;
pub mod harness;
pub mod table;

pub use figures::FigScale;
pub use harness::{run_spec, RunSpec, SchedulerKind};
pub use table::{print_figure, MetricsRow};
