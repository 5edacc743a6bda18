//! The open-loop service scenario, defined once: `observe open` shows it and
//! `tests/service_e2e.rs` asserts over it.

use tetrisched_cluster::Cluster;
use tetrisched_core::{TetriSched, TetriSchedConfig};
use tetrisched_service::{AdmissionPolicy, FairShareConfig, ServiceConfig};
use tetrisched_sim::{SimConfig, SimReport, Simulator, TelemetryConfig};
use tetrisched_workloads::{GridmixConfig, OpenLoopConfig, OpenLoopDriver, Workload};

/// Arrivals [`open_loop`] offers.
pub const OPEN_LOOP_ARRIVALS: usize = 60;

/// An open-loop service-mode run on 16 nodes: GS MIX arrivals at
/// `rate_multiplier` times the calibrated saturation rate into the
/// event-driven service core (sharded intake, admission batching,
/// backpressure, fair-share weighting), traced, with telemetry and both
/// audit knobs on. The bounded queues are small enough that 2x saturation
/// visibly defers and sheds. The wall-clock solver limit cannot bind, so
/// same-seed runs export the same bytes in debug and release.
pub fn open_loop(seed: u64, rate_multiplier: f64) -> SimReport {
    let jobs = OpenLoopDriver::new(OpenLoopConfig::saturating(
        GridmixConfig {
            seed,
            num_jobs: OPEN_LOOP_ARRIVALS,
            cluster_size: 16,
            target_utilization: 1.0,
            estimate_error: 0.0,
            error_jitter: 0.0,
            slowdown: 1.5,
        },
        rate_multiplier,
    ))
    .generate(Workload::GsMix);
    let service = ServiceConfig::open(
        4,
        8,
        AdmissionPolicy {
            max_admissions_per_cycle: 4,
            max_scheduler_backlog: 8,
            shed_queue_depth: 16,
        },
        FairShareConfig::enabled(4),
    );
    let config = TetriSchedConfig {
        lint_models: true,
        certify_solves: true,
        solver_time_limit: std::time::Duration::from_secs(3600),
        ..TetriSchedConfig::full(16)
    };
    Simulator::new(
        Cluster::uniform(2, 8, 1),
        TetriSched::new(config),
        SimConfig {
            horizon: Some(3000),
            trace: true,
            telemetry: TelemetryConfig::on(),
            service,
            ..SimConfig::default()
        },
    )
    .run(jobs)
}
