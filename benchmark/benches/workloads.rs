//! The four workloads: what each one runs, how it is set up from a seed,
//! and what one measured pass over it yields.
//!
//! Every workload gives the solver one hour per solve, so no wall clock
//! ever decides anything: same seed, same schedule, same work units.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tetrisched_baseline::CapacityScheduler;
use tetrisched_cluster::Cluster;
use tetrisched_core::{TetriSched, TetriSchedConfig};
use tetrisched_milp::{
    certify_solution, lint_model, presolve, ExactBackend, HeuristicBackend, MilpBackend,
    PresolveOutcome, Simplex, SolverConfig,
};
use tetrisched_service::{AdmissionPolicy, FairShareConfig, ServiceConfig, ServiceCore};
use tetrisched_sim::{
    JobSpec, Scheduler, SimConfig, SimReport, Simulator, Telemetry, TelemetryConfig,
};
use tetrisched_workloads::{
    GridmixConfig, OpenLoopConfig, OpenLoopDriver, Workload, WorkloadBuilder,
};

use crate::snapshot::{self, Replan, Snapshot, SnapshotShape};
use crate::stats::{mean, ratio};
use crate::timing::{shared_log, CycleSample, Timed, Tracer};

/// No solve may come near this; a cycle whose solver time reaches it fails
/// the run.
const SOLVER_TIME_LIMIT: Duration = Duration::from_secs(3600);
/// Hard stop of a simulation, far beyond any run here.
const SIM_HORIZON: u64 = 1_000_000;
const CYCLE_PERIOD: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Rc80ReplanExact,
    Rc256GshetDive,
    N1000GshetGreedy,
    Rc80Open2xAudited,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub kind: Kind,
    pub default_seed: u64,
    /// One line: what runs, and what it is there to show.
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "rc80_replan_exact",
        kind: Kind::Rc80ReplanExact,
        default_seed: 42,
        why: "520 fixed RC80 queue snapshots (2 GPU, 2 MPI, 2 best-effort jobs each) re-planned by exact branch-and-bound under a 15-node budget: search and node-LP cost",
    },
    WorkloadDef {
        name: "rc256_gshet_dive",
        kind: Kind::Rc256GshetDive,
        default_seed: 42,
        why: "380 fixed RC256 queue snapshots (2 GPU, 2 MPI, 2 best-effort jobs each) re-planned by the LP-dive backend: simplex-bound on the largest cluster, zero branch-and-bound",
    },
    WorkloadDef {
        name: "n1000_gshet_greedy",
        kind: Kind::N1000GshetGreedy,
        default_seed: 42,
        why: "closed loop of 3000 jobs at 1.15x load on 1000 nodes, greedy job-at-a-time: generator, refine, compile and ledger dominate, the solver does little",
    },
    WorkloadDef {
        name: "rc80_open2x_audited",
        kind: Kind::Rc80Open2xAudited,
        default_seed: 5,
        why: "open loop of 4000 arrivals at 2x saturation on RC80, lint and certificates on: thousands of small audited solves behind a shedding service",
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A workload's inputs, generated from the seed and ready to run.
pub struct Prepared {
    pub kind: Kind,
    pub cluster: Cluster,
    pub sched: TetriSchedConfig,
    pub service: ServiceConfig,
    /// The job stream: simulated whole, or cut into snapshots.
    pub jobs: Vec<JobSpec>,
    /// Set for the two snapshot workloads.
    pub snapshots: Option<SnapshotPlan>,
}

/// What a snapshot workload re-plans, and with what.
pub struct SnapshotPlan {
    pub snapshots: Vec<Snapshot>,
    pub backend: Box<dyn MilpBackend>,
    /// Branch-and-bound nodes one re-plan may explore.
    pub node_budget: usize,
    /// Whether the traced run also puts the head of the stream through the
    /// simulator, closed loop, for simulated quality.
    pub closed_loop: bool,
}

impl Prepared {
    /// The jobs a simulator run of this workload takes: all of them, or for
    /// a snapshot workload the head of its stream.
    fn simulated_jobs(&self) -> &[JobSpec] {
        match self.snapshots {
            Some(_) => &self.jobs[..SIMULATED_HEAD_JOBS.min(self.jobs.len())],
            None => &self.jobs,
        }
    }
}

fn gshet_stream(seed: u64, num_jobs: usize, cluster_size: usize, utilization: f64) -> Vec<JobSpec> {
    WorkloadBuilder::new(GridmixConfig {
        seed,
        num_jobs,
        cluster_size,
        target_utilization: utilization,
        estimate_error: 0.0,
        error_jitter: 0.0,
        slowdown: 2.0,
    })
    .generate(Workload::GsHet)
}

fn sched_config(overrides: impl FnOnce(&mut TetriSchedConfig)) -> TetriSchedConfig {
    let mut c = TetriSchedConfig {
        solver_time_limit: SOLVER_TIME_LIMIT,
        cycle_period: CYCLE_PERIOD,
        ..TetriSchedConfig::default()
    };
    overrides(&mut c);
    c
}

/// Branch-and-bound nodes one exact re-plan may explore. Every solve stops
/// on a count, never on a clock, so the work repeats exactly.
const REPLAN_NODE_BUDGET: usize = 15;
/// Jobs from the head of a snapshot workload's stream that the traced run
/// puts through the simulator (closed loop under the workload's scheduler
/// where asked, and under the baseline scheduler). At RC256 the closed loop
/// of 60 takes 1 to 11 s by seed, of 120 it took 11 to 25 s.
const SIMULATED_HEAD_JOBS: usize = 60;
/// A simulated workload's warm-up run takes a stream this many times
/// shorter than the measured one.
const WARMUP_SHARE: usize = 20;
/// Warm-up inputs come from this seed whatever `--seed` says. A warm-up is
/// there to page in code and settle the allocator, and a single solve costs
/// anything from 2 ms to 1 s by seed: warmed on the measured inputs, set-up
/// time would say more about the seed than about set-up.
const WARMUP_SEED: u64 = 0x7e71;

/// The snapshots of a workload: queue depth x ledger fill x windows.
///
/// The median of a few hundred solve times is only as steady as those times
/// are alike, and they are not: inside any one (depth, fill) cell the
/// logarithm of a solve time has a standard deviation of 0.8 to 1.4. Over a
/// grid of depth 8 to 16 and fill 30 to 85 % the median moved by 23 % from
/// seed to seed, over single cells of depth 8 to 10 by 12 to 23 %, because
/// twelve seconds hold only a hundred or two of their solves. So each
/// workload takes one cell of six-job queues over a mostly full ledger
/// (270 and 340 variables a model; on RC80 three solves in four need the
/// tree), and as many windows of it as let a 25-second run pass over them
/// twice: the second pass is what takes a slow stretch of the host out of
/// the cycle times.
fn snapshot_shape(kind: Kind, smoke: bool) -> SnapshotShape {
    let (depth, fill_pct, windows) = match kind {
        Kind::Rc256GshetDive => (6, 75, 380),
        _ => (6, 85, 520),
    };
    SnapshotShape {
        depths: vec![depth],
        fills_pct: vec![fill_pct],
        // A smoke run keeps the twenty samples a median needs.
        windows_per_cell: if smoke {
            (windows / 20).max(20)
        } else {
            windows
        },
    }
}

/// The scheduler's own solver settings (`TetriSched::solver_config`).
fn online_solver(sched: &TetriSchedConfig) -> SolverConfig {
    SolverConfig::online(sched.solver_time_limit).with_rel_gap(sched.solver_gap)
}

fn dive_backend(sched: &TetriSchedConfig) -> HeuristicBackend {
    HeuristicBackend::new(online_solver(sched))
}

fn exact_backend(sched: &TetriSchedConfig) -> ExactBackend {
    ExactBackend::new(online_solver(sched).with_node_limit(REPLAN_NODE_BUDGET))
}

/// Inputs of a snapshot workload: the GS HET stream at 1.15 x capacity cut
/// into the shape's windows, and a warm-up.
fn replan_inputs(kind: Kind, seed: u64, smoke: bool) -> (Prepared, f64) {
    let (cluster, sched, backend, node_budget): (_, _, Box<dyn MilpBackend>, _) = match kind {
        Kind::Rc256GshetDive => {
            let sched = sched_config(|c| c.solver_heuristic = true);
            let backend = Box::new(dive_backend(&sched));
            // The dive explores no tree, so it has no budget to hit.
            (Cluster::uniform(8, 32, 2), sched, backend, usize::MAX)
        }
        _ => {
            let sched = sched_config(|_| {});
            let backend = Box::new(exact_backend(&sched));
            (Cluster::rc80(2), sched, backend, REPLAN_NODE_BUDGET)
        }
    };
    let shape = snapshot_shape(kind, smoke);
    let t0 = Instant::now();
    let stream = gshet_stream(seed, shape.jobs_needed(), cluster.num_nodes(), 1.15);
    let generate_s = t0.elapsed().as_secs_f64();
    let snapshots = snapshot::generate(&cluster, &stream, seed, &shape, CYCLE_PERIOD);
    // Warm-up: ten untimed re-plans through the workload's own backend,
    // on snapshots of the same shape cut from the warm-up seed's stream.
    let warm_shape = SnapshotShape {
        windows_per_cell: 10,
        ..shape.clone()
    };
    let warm_stream = gshet_stream(
        WARMUP_SEED,
        warm_shape.jobs_needed(),
        cluster.num_nodes(),
        1.15,
    );
    for snap in snapshot::generate(
        &cluster,
        &warm_stream,
        WARMUP_SEED,
        &warm_shape,
        CYCLE_PERIOD,
    ) {
        snapshot::replan(
            &cluster,
            &snap,
            &sched,
            backend.as_ref(),
            &mut Tracer::new(false),
        );
    }
    let prepared = Prepared {
        kind,
        cluster,
        sched,
        service: ServiceConfig::closed_loop(),
        jobs: stream,
        snapshots: Some(SnapshotPlan {
            snapshots,
            backend,
            node_budget,
            // Simulated quality at RC256 comes from a closed loop of the
            // stream's head in the traced run; an exact closed loop at
            // RC80 does not end in useful time (README).
            closed_loop: kind == Kind::Rc256GshetDive,
        }),
    };
    (prepared, generate_s)
}

/// Generates the workload's inputs and warms the code paths it will use.
/// Returns the inputs and the seconds spent generating the job stream.
pub fn prepare(def: &WorkloadDef, seed: u64, smoke: bool) -> (Prepared, f64) {
    match def.kind {
        Kind::Rc80ReplanExact | Kind::Rc256GshetDive => replan_inputs(def.kind, seed, smoke),
        Kind::N1000GshetGreedy => {
            let cluster = Cluster::uniform(10, 100, 2);
            let sched = sched_config(|c| {
                c.global = false;
                c.max_batch = 128;
            });
            // Offered load above capacity, so that the queue sits at the
            // batch cap for most of the run whatever the seed: at 1.0 it
            // does in seven seeds of ten, and in the other three the median
            // cycle is half as long.
            let nodes = cluster.num_nodes();
            sim_inputs(
                def.kind,
                cluster,
                if smoke { 200 } else { 3000 },
                &|seed, n| gshet_stream(seed, n, nodes, 1.15),
                seed,
                sched,
                ServiceConfig::closed_loop(),
            )
        }
        Kind::Rc80Open2xAudited => {
            let cluster = Cluster::rc80(2);
            let sched = sched_config(|c| {
                c.lint_models = true;
                c.certify_solves = true;
            });
            let service = ServiceConfig::open(
                4,
                64,
                AdmissionPolicy {
                    max_admissions_per_cycle: 2,
                    max_scheduler_backlog: 4,
                    shed_queue_depth: 16,
                },
                FairShareConfig::enabled(4),
            );
            let nodes = cluster.num_nodes();
            let arrivals = |seed, n| {
                OpenLoopDriver::new(OpenLoopConfig::saturating(
                    GridmixConfig {
                        seed,
                        num_jobs: n,
                        cluster_size: nodes,
                        target_utilization: 1.0,
                        estimate_error: 0.0,
                        error_jitter: 0.0,
                        slowdown: 2.0,
                    },
                    2.0,
                ))
                .generate(Workload::GsHet)
            };
            sim_inputs(
                def.kind,
                cluster,
                if smoke { 200 } else { 4000 },
                &arrivals,
                seed,
                sched,
                service,
            )
        }
    }
}

/// Inputs of a simulated workload: `num_jobs` jobs from `stream(seed, n)`,
/// and a warm-up run of a stream a twentieth as long.
fn sim_inputs(
    kind: Kind,
    cluster: Cluster,
    num_jobs: usize,
    stream: &dyn Fn(u64, usize) -> Vec<JobSpec>,
    seed: u64,
    sched: TetriSchedConfig,
    service: ServiceConfig,
) -> (Prepared, f64) {
    let t0 = Instant::now();
    let jobs = stream(seed, num_jobs);
    let generate_s = t0.elapsed().as_secs_f64();
    let prepared = Prepared {
        kind,
        cluster,
        sched,
        service,
        jobs,
        snapshots: None,
    };
    run_sim(
        &prepared,
        stream(WARMUP_SEED, (num_jobs / WARMUP_SHARE).max(20)),
        TetriSched::new(prepared.sched.clone()),
        false,
    );
    (prepared, generate_s)
}

/// Named values; `BTreeMap` so that output order never depends on a hasher.
pub type Values = BTreeMap<&'static str, f64>;

/// One measured pass over a workload's inputs.
pub struct Pass {
    /// Wall time of the whole measured run, engine and service included.
    pub wall_s: f64,
    /// Wall time of each busy cycle (at least one pending job), in order.
    pub busy_walls_s: Vec<f64>,
    /// Simulated and counted results. They must repeat exactly from pass
    /// to pass and between the untraced and the traced run.
    pub exact: Values,
    /// Cycles and jobs attempted, and what failed among them: how many,
    /// and why.
    pub attempted: u64,
    pub failures: Vec<(u64, String)>,
    /// Per-layer values (traced passes fill in the telemetry-sourced ones).
    pub layers: Values,
    /// The bench's own spans (traced passes only).
    pub tracer: Tracer,
}

pub fn run_pass(prepared: &Prepared, traced: bool) -> Pass {
    match &prepared.snapshots {
        Some(plan) => replan_pass(prepared, plan, traced),
        None => sim_pass(prepared, prepared.jobs.clone(), traced),
    }
}

fn telemetry_config(traced: bool) -> TelemetryConfig {
    if traced {
        TelemetryConfig::on()
    } else {
        TelemetryConfig::default()
    }
}

fn replan_pass(inputs: &Prepared, plan: &SnapshotPlan, traced: bool) -> Pass {
    let mut tracer = Tracer::new(traced);
    // The traced pass publishes solver counters under the names the
    // scheduler uses, so one reader serves all four workloads.
    let telemetry = Telemetry::new(telemetry_config(traced));
    let mut replans: Vec<Replan> = Vec::with_capacity(plan.snapshots.len());

    let run_span = tracer.begin("sim.run");
    let t0 = Instant::now();
    for (i, snap) in plan.snapshots.iter().enumerate() {
        tracer.set_cycle(i as u64);
        telemetry.advance(snap.now);
        let span = telemetry.span("bench", "replan");
        let (r, _) = snapshot::replan(
            &inputs.cluster,
            snap,
            &inputs.sched,
            plan.backend.as_ref(),
            &mut tracer,
        );
        span.arg("vars", r.vars as u64);
        span.arg("constraints", r.rows as u64);
        drop(span);
        telemetry.counter_add("milp.lp_iterations", r.stats.lp_iterations as u64);
        telemetry.counter_add("milp.lp_solves", r.stats.lp_solves as u64);
        telemetry.counter_add("milp.refactorizations", r.stats.refactorizations as u64);
        telemetry.counter_add("milp.bb_nodes", r.stats.nodes as u64);
        telemetry.counter_add("milp.bb_nodes_pruned", r.stats.nodes_pruned as u64);
        replans.push(r);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    tracer.end(run_span);

    let n = replans.len() as f64;
    let mut failures = Vec::new();
    for (i, r) in replans.iter().enumerate() {
        if let Err(e) = &r.check {
            failures.push((1, format!("snapshot {i}: {e}")));
        }
    }
    let work_units: usize = replans
        .iter()
        .map(|r| r.stats.nodes + r.stats.lp_iterations)
        .sum();
    let slo_jobs: usize = replans.iter().map(|r| r.slo_jobs).sum();
    let slo_planned: usize = replans.iter().map(|r| r.slo_planned).sum();
    let gap_closed = replans
        .iter()
        .filter(|r| r.status.has_solution() && r.stats.final_gap <= inputs.sched.solver_gap)
        .count();
    let budget_hit = replans
        .iter()
        .filter(|r| r.stats.nodes >= plan.node_budget)
        .count();
    let jobs: usize = plan.snapshots.iter().map(|s| s.pending.len()).sum();

    let mut exact = Values::new();
    exact.insert(
        "slo_attainment_pct",
        100.0 * ratio(slo_planned as f64, slo_jobs as f64),
    );
    exact.insert(
        "quality.objective_sum",
        replans.iter().map(|r| r.objective).sum(),
    );
    exact.insert("quality.gap_closed_share", gap_closed as f64 / n);
    exact.insert("milp.work_units", work_units as f64);
    exact.insert("milp.node_budget_hit_share", budget_hit as f64 / n);
    exact.insert("sim.cycles", n);
    exact.insert("sim.busy_cycles", n);
    exact.insert("launches", replans.iter().map(|r| r.launches as f64).sum());

    let mut layers = Values::new();
    let cycle_s: f64 = replans.iter().map(|r| r.wall_s).sum();
    layers.insert("core.cycle_s", cycle_s);
    if traced {
        let solve_s = tracer.total_secs("milp.solve");
        layers.insert("milp.solve_s", solve_s);
        layers.insert("core.self_s", cycle_s - solve_s);
        for (name, span) in [
            ("core.strl_gen_share", "core.strl_gen"),
            ("core.compile_share", "core.compile"),
            ("core.decode_share", "core.decode"),
        ] {
            layers.insert(name, ratio(tracer.total_secs(span), cycle_s));
        }
        read_telemetry(&telemetry, &mut layers);
    }

    Pass {
        wall_s,
        busy_walls_s: replans.iter().map(|r| r.wall_s).collect(),
        exact,
        attempted: replans.len() as u64 + jobs as u64,
        failures,
        layers,
        tracer,
    }
}

/// Runs `jobs` through the simulator under `scheduler`, timed from outside.
fn run_sim<S: Scheduler>(
    inputs: &Prepared,
    jobs: Vec<JobSpec>,
    scheduler: S,
    traced: bool,
) -> (SimReport, Vec<CycleSample>, Tracer, f64) {
    let log = shared_log(traced);
    let config = SimConfig {
        cycle_period: CYCLE_PERIOD,
        horizon: Some(SIM_HORIZON),
        strict_accounting: traced,
        telemetry: telemetry_config(traced),
        service: inputs.service.clone(),
        ..SimConfig::default()
    };
    let simulator = Simulator::new(
        inputs.cluster.clone(),
        Timed::new(scheduler, log.clone()),
        config,
    );
    let run_span = log.borrow_mut().tracer.begin("sim.run");
    let t0 = Instant::now();
    let report = simulator.run(jobs);
    let wall_s = t0.elapsed().as_secs_f64();
    log.borrow_mut().tracer.end(run_span);
    // The simulator owned the only other handle and is gone.
    let log = std::rc::Rc::try_unwrap(log)
        .expect("the run is over, nothing else holds the log")
        .into_inner();
    (report, log.samples, log.tracer, wall_s)
}

/// One simulator run of `jobs` under the workload's scheduler and service.
fn sim_pass(inputs: &Prepared, jobs: Vec<JobSpec>, traced: bool) -> Pass {
    let arrivals = jobs.len() as u64;
    let (report, samples, tracer, wall_s) =
        run_sim(inputs, jobs, TetriSched::new(inputs.sched.clone()), traced);
    let m = &report.metrics;

    let bad_cycles = samples
        .iter()
        .filter(|s| s.errors > 0 || s.degraded)
        .count() as u64;
    let classed = (m.accepted_slo_total + m.nores_slo_total + m.be_total) as u64;
    let limit_reached = samples
        .iter()
        .any(|s| s.solver_s >= SOLVER_TIME_LIMIT.as_secs_f64());
    // How many operations failed each check, and what the check was.
    let failures: Vec<(u64, String)> = [
        (
            bad_cycles,
            format!("{bad_cycles} cycles had a CycleError or ran degraded"),
        ),
        (
            m.incomplete as u64,
            format!("{} jobs incomplete", m.incomplete),
        ),
        (
            m.certificate_failures as u64,
            format!("{} certificate failures", m.certificate_failures),
        ),
        (
            u64::from(classed + m.jobs_shed != arrivals),
            format!(
                "class totals {classed} + shed {} != arrivals {arrivals}",
                m.jobs_shed
            ),
        ),
        (
            u64::from(m.jobs_admitted + m.jobs_shed != arrivals),
            format!(
                "admitted {} + shed {} != arrivals {arrivals} with an empty backlog",
                m.jobs_admitted, m.jobs_shed
            ),
        ),
        (
            u64::from(limit_reached),
            "a cycle's solver time reached the configured limit".to_string(),
        ),
    ]
    .into_iter()
    .filter(|(failed, _)| *failed > 0)
    .collect();

    let busy: Vec<&CycleSample> = samples.iter().filter(|s| s.busy).collect();
    let warm_hits: usize = samples.iter().map(|s| s.warm_hits).sum();
    let warm_misses: usize = samples.iter().map(|s| s.warm_misses).sum();

    let mut exact = Values::new();
    exact.insert("slo_attainment_pct", m.total_slo_attainment());
    exact.insert("quality.slo_attainment_pct", m.total_slo_attainment());
    exact.insert("quality.be_latency_mean_s", m.be_mean_latency());
    exact.insert("quality.utilization_pct", 100.0 * m.utilization());
    exact.insert(
        "quality.shed_share",
        ratio(m.jobs_shed as f64, arrivals as f64),
    );
    exact.insert(
        "milp.work_units",
        samples.iter().map(|s| s.work_units as f64).sum(),
    );
    exact.insert("sim.cycles", samples.len() as f64);
    exact.insert("sim.busy_cycles", busy.len() as f64);
    exact.insert("sim.end_time", report.end_time as f64);
    exact.insert("service.admitted", m.jobs_admitted as f64);
    exact.insert("service.shed", m.jobs_shed as f64);
    exact.insert("service.deferred", m.jobs_deferred as f64);
    exact.insert("core.degraded_cycles", m.degraded_cycles as f64);
    exact.insert(
        "core.warm_start_hit_share",
        ratio(warm_hits as f64, (warm_hits + warm_misses) as f64),
    );
    exact.insert("lint.certificates_verified", m.certificates_verified as f64);

    let mut layers = Values::new();
    let cycle_s: f64 = samples.iter().map(|s| s.wall_s).sum();
    let solve_s: f64 = samples.iter().map(|s| s.solver_s).sum();
    layers.insert("core.cycle_s", cycle_s);
    layers.insert("milp.solve_s", solve_s);
    layers.insert("core.self_s", cycle_s - solve_s);
    if traced {
        let t = &report.telemetry;
        let phase = |name: &str| t.wall_hist(name).map_or(0.0, |h| h.sum());
        for (name, hist) in [
            ("core.collect_share", "phase.collect_secs"),
            ("core.strl_gen_share", "phase.strl_gen_secs"),
            ("core.compile_share", "phase.compile_secs"),
            ("core.decode_share", "phase.decode_secs"),
            ("lint.phase_share", "phase.lint_secs"),
            ("lint.certify_phase_share", "phase.certify_secs"),
        ] {
            layers.insert(name, ratio(phase(hist), cycle_s));
        }
        // The greedy placer's phase timer wraps its per-job solves; its own
        // share is what is left after them.
        let greedy_s = phase("phase.greedy_secs");
        let greedy_own = if greedy_s > 0.0 {
            greedy_s - solve_s
        } else {
            0.0
        };
        layers.insert("core.greedy_share", ratio(greedy_own.max(0.0), cycle_s));
        read_telemetry(t, &mut layers);
    }

    Pass {
        wall_s,
        busy_walls_s: busy.iter().map(|s| s.wall_s).collect(),
        exact,
        attempted: samples.len() as u64 + arrivals,
        failures,
        layers,
        tracer,
    }
}

/// Reads what the program exports after a traced run: `milp.*` counters,
/// model sizes on compile spans, and the cost of the three exporters.
fn read_telemetry(t: &Telemetry, layers: &mut Values) {
    for name in [
        "milp.bb_nodes",
        "milp.bb_nodes_pruned",
        "milp.lp_solves",
        "milp.lp_iterations",
        "milp.refactorizations",
    ] {
        layers.insert(name, t.counter(name) as f64);
    }
    let snapshot = t.snapshot();
    let arg = |span: &tetrisched_sim::SpanRecord, key: &str| {
        span.args
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v as f64)
    };
    let sized: Vec<_> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == "compile" || s.name == "replan")
        .collect();
    let vars: Vec<f64> = sized.iter().filter_map(|s| arg(s, "vars")).collect();
    let rows: Vec<f64> = sized.iter().filter_map(|s| arg(s, "constraints")).collect();
    layers.insert("milp.model_vars_mean", mean(&vars));
    layers.insert("milp.model_rows_mean", mean(&rows));
    layers.insert("telemetry.spans", t.span_count() as f64);

    let t0 = Instant::now();
    let exported = t.to_jsonl(true).len() + t.to_chrome_trace().len() + t.to_prometheus(true).len();
    layers.insert("telemetry.export_ms", t0.elapsed().as_secs_f64() * 1e3);
    std::hint::black_box(exported);
}

/// The paper's comparison point on the same cluster and job stream:
/// `CapacityScheduler::paper_default()` through the same timing wrapper.
pub fn baseline(prepared: &Prepared, layers: &mut Values) {
    let (report, samples, _, _) = run_sim(
        prepared,
        prepared.simulated_jobs().to_vec(),
        CapacityScheduler::paper_default(),
        false,
    );
    let walls: Vec<f64> = samples
        .iter()
        .filter(|s| s.busy)
        .map(|s| s.wall_s * 1e6)
        .collect();
    layers.insert(
        "baseline.slo_attainment_pct",
        report.metrics.total_slo_attainment(),
    );
    layers.insert("baseline.cycle_us_mean", mean(&walls));
}

/// Simulated quality at paper scale for a snapshot workload that asks for
/// it: the head of its stream through the simulator, closed loop, under the
/// workload's own scheduler configuration.
pub fn closed_loop_quality(prepared: &Prepared, layers: &mut Values) {
    if !prepared
        .snapshots
        .as_ref()
        .is_some_and(|plan| plan.closed_loop)
    {
        return;
    }
    let pass = sim_pass(prepared, prepared.simulated_jobs().to_vec(), false);
    for (&name, &value) in &pass.exact {
        if name.starts_with("quality.") {
            layers.insert(name, value);
        }
    }
}

/// Intake cost alone: 100 000 jobs through `ServiceCore::ingest` and
/// `drain_cycle` with admission wide open, so nothing is shed.
pub fn intake(layers: &mut Values) {
    const JOBS: u64 = 100_000;
    const PER_CYCLE: usize = 1000;
    let template = gshet_stream(1, 1, 80, 1.0).remove(0);
    let jobs: Vec<JobSpec> = (0..JOBS)
        .map(|i| JobSpec {
            id: tetrisched_sim::JobId(i),
            ..template.clone()
        })
        .collect();
    let mut core: ServiceCore<JobSpec> = ServiceCore::new(ServiceConfig::open(
        4,
        PER_CYCLE,
        AdmissionPolicy {
            max_admissions_per_cycle: PER_CYCLE,
            max_scheduler_backlog: usize::MAX,
            shed_queue_depth: usize::MAX,
        },
        FairShareConfig::disabled(),
    ));
    let mut admitted = 0usize;
    let t0 = Instant::now();
    for (i, job) in jobs.into_iter().enumerate() {
        std::hint::black_box(core.ingest(job));
        if (i + 1) % PER_CYCLE == 0 {
            admitted += core.drain_cycle(0).admitted.len();
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(admitted as u64, JOBS, "wide-open admission sheds nothing");
    layers.insert("service.intake_ns_per_job", elapsed * 1e9 / JOBS as f64);
}

/// Layer timers the closed loops cannot give: six snapshots of the
/// workload's shape (the RC80 one for a simulated workload) on the
/// workload's own cluster, each re-planned under the exact backend with
/// every stage under its own span, then its compiled model handed to
/// `presolve`, `Simplex::solve`, `lint_model` and, after an audited
/// re-solve, `certify_solution`, each timed alone. Values are means per
/// model.
pub fn probe_layers(prepared: &Prepared, seed: u64, layers: &mut Values) {
    let cluster = &prepared.cluster;
    let shape = SnapshotShape {
        windows_per_cell: 6,
        ..snapshot_shape(prepared.kind, true)
    };
    let stream = gshet_stream(seed, shape.jobs_needed(), cluster.num_nodes(), 1.15);
    let snapshots = snapshot::generate(cluster, &stream, seed, &shape, CYCLE_PERIOD);
    let global = TetriSchedConfig {
        global: true,
        ..prepared.sched.clone()
    };
    let exact = exact_backend(&global);
    let solver = online_solver(&global).with_node_limit(REPLAN_NODE_BUDGET);
    let audited_exact = ExactBackend::new(solver.clone().with_audit(true));
    let mut tracer = Tracer::new(true);
    let (mut leaves, mut partitions, mut reductions, mut root_iters) = (0.0, 0.0, 0.0, 0.0);
    let (mut presolve_s, mut root_lp_s, mut lint_s, mut certify_s) = (0.0, 0.0, 0.0, 0.0);
    for snap in &snapshots {
        let (r, model) = snapshot::replan(cluster, snap, &global, &exact, &mut tracer);
        let model = &model;
        leaves += r.leaves as f64;
        partitions += r.partitions as f64;

        let t0 = Instant::now();
        let outcome = presolve(model, 2);
        presolve_s += t0.elapsed().as_secs_f64();
        if let PresolveOutcome::Reduced {
            rows_dropped,
            bounds_tightened,
            ..
        } = outcome
        {
            reductions += (rows_dropped + bounds_tightened) as f64;
        }

        let simplex = Simplex::new(solver.max_lp_iterations);
        let t0 = Instant::now();
        let lp = simplex.solve(model);
        root_lp_s += t0.elapsed().as_secs_f64();
        std::hint::black_box(lp.is_ok());
        root_iters += simplex.iterations() as f64;

        let t0 = Instant::now();
        std::hint::black_box(lint_model(model).len());
        lint_s += t0.elapsed().as_secs_f64();

        let audited = audited_exact
            .solve(model, None)
            .expect("compiled models are well formed");
        let t0 = Instant::now();
        let report = certify_solution(model, &audited);
        certify_s += t0.elapsed().as_secs_f64();
        assert!(
            report.passed(),
            "probe certificate failed: {:?}",
            report.diagnostics
        );
    }
    let n = snapshots.len() as f64;
    layers.insert("strl.leaves_mean", leaves / n);
    layers.insert("cluster.partitions_mean", partitions / n);
    layers.insert(
        "cluster.refine_us",
        tracer.total_secs("cluster.refine") * 1e6 / n,
    );
    layers.insert("milp.presolve_us", presolve_s * 1e6 / n);
    layers.insert("milp.presolve_reductions", reductions / n);
    layers.insert("milp.root_lp_us", root_lp_s * 1e6 / n);
    layers.insert("milp.root_lp_iters", root_iters / n);
    layers.insert("lint.model_lint_us", lint_s * 1e6 / n);
    layers.insert("milp.certify_us", certify_s * 1e6 / n);
}
