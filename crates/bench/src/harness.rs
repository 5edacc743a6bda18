//! Single-run experiment execution.

use tetrisched_baseline::CapacityScheduler;
use tetrisched_cluster::Cluster;
use tetrisched_core::{TetriSched, TetriSchedConfig};
use tetrisched_sim::{FaultPlan, SimConfig, SimReport, Simulator, TelemetryConfig};
use tetrisched_workloads::{GridmixConfig, Workload, WorkloadBuilder};

/// Which scheduler stack to run.
#[derive(Debug, Clone)]
pub enum SchedulerKind {
    /// Rayon/TetriSched in some Table 2 configuration.
    Tetri(TetriSchedConfig),
    /// The Rayon/CapacityScheduler baseline.
    RayonCs,
}

impl SchedulerKind {
    /// Display name for result rows.
    pub fn name(&self) -> String {
        match self {
            SchedulerKind::Tetri(c) => c.variant_name().to_string(),
            SchedulerKind::RayonCs => "rayon-cs".to_string(),
        }
    }
}

/// A fully specified experiment run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Table 1 workload.
    pub workload: Workload,
    /// Cluster topology.
    pub cluster: Cluster,
    /// Number of jobs.
    pub num_jobs: usize,
    /// Workload seed.
    pub seed: u64,
    /// Runtime estimate error applied to every job.
    pub estimate_error: f64,
    /// Scheduler under test.
    pub kind: SchedulerKind,
    /// Scheduler cycle period (paper: 4 s).
    pub cycle_period: u64,
    /// Offered load as a fraction of cluster capacity (the paper runs
    /// "near 100%"; values above 1.0 create sustained queueing pressure).
    pub utilization: f64,
    /// Slowdown multiplier on non-preferred placements for GPU/MPI jobs.
    pub slowdown: f64,
    /// Fault plan injected into the run: outages and slow-node windows,
    /// scripted or seeded (empty for a healthy, full-speed cluster, as in
    /// all paper experiments).
    pub faults: FaultPlan,
    /// Straggler detection and speculative migration (`false` reproduces
    /// pre-defense behavior).
    pub stragglers: bool,
}

impl RunSpec {
    /// A run with the settings every paper experiment shares: exact
    /// estimates, the paper's 4 s cycle, saturated load, Fig. 1's 1.5x
    /// slowdown, a healthy full-speed cluster and no straggler defense.
    /// Experiments override what they vary with struct-update syntax.
    pub fn new(
        workload: Workload,
        cluster: Cluster,
        num_jobs: usize,
        seed: u64,
        kind: SchedulerKind,
    ) -> Self {
        RunSpec {
            workload,
            cluster,
            num_jobs,
            seed,
            estimate_error: 0.0,
            kind,
            cycle_period: 4,
            utilization: 1.0,
            slowdown: 1.5,
            faults: FaultPlan::default(),
            stragglers: false,
        }
    }
}

/// Runs one experiment to completion and returns the report.
pub fn run_spec(spec: &RunSpec) -> SimReport {
    let builder = WorkloadBuilder::new(GridmixConfig {
        seed: spec.seed,
        num_jobs: spec.num_jobs,
        cluster_size: spec.cluster.num_nodes(),
        target_utilization: spec.utilization,
        estimate_error: 0.0,
        error_jitter: 0.0,
        slowdown: spec.slowdown,
    });
    let jobs = builder.with_estimate_error(spec.workload, spec.estimate_error);
    let sim_config = SimConfig {
        cycle_period: spec.cycle_period,
        // Generous hard stop so a pathological configuration cannot hang a
        // sweep; ordinary runs finish long before this.
        horizon: Some(1_000_000),
        trace: false,
        faults: spec.faults.clone(),
        stragglers: spec.stragglers,
        // Spans, counters, and phase wall histograms for the telemetry
        // columns of the result tables (Fig. 12-style forensics).
        telemetry: TelemetryConfig::on(),
        ..SimConfig::default()
    };
    match &spec.kind {
        SchedulerKind::Tetri(cfg) => {
            let mut cfg = cfg.clone();
            cfg.cycle_period = spec.cycle_period;
            Simulator::new(spec.cluster.clone(), TetriSched::new(cfg), sim_config).run(jobs)
        }
        SchedulerKind::RayonCs => Simulator::new(
            spec.cluster.clone(),
            CapacityScheduler::paper_default(),
            sim_config,
        )
        .run(jobs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_both_stacks() {
        for kind in [
            SchedulerKind::Tetri(TetriSchedConfig::full(16)),
            SchedulerKind::RayonCs,
        ] {
            let report = run_spec(&RunSpec::new(
                Workload::GsMix,
                Cluster::uniform(2, 8, 1),
                12,
                3,
                kind,
            ));
            let m = &report.metrics;
            let terminal = m.accepted_slo_total + m.nores_slo_total + m.be_total;
            assert_eq!(terminal, 12, "all jobs accounted for");
            assert_eq!(m.incomplete, 0, "everything terminal");
        }
    }

    #[test]
    fn scheduler_kind_names() {
        assert_eq!(SchedulerKind::RayonCs.name(), "rayon-cs");
        assert_eq!(
            SchedulerKind::Tetri(TetriSchedConfig::no_plan_ahead()).name(),
            "tetrisched-np"
        );
    }
}
