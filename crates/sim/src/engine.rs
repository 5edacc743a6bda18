//! The discrete-event simulation engine.
//!
//! Drives submissions, scheduler cycles, completions, preemptions, fault
//! transitions and reservation admission; collects the paper's evaluation
//! metrics. One private `Run` owns everything that changes during a run,
//! with one handler per [`EventKind`] and each job lifecycle transition
//! written once.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use tetrisched_cluster::{AllocHandle, Cluster, Ledger, NodeId, NodeSet};
use tetrisched_reservation::{Reservation, ReservationSystem};
use tetrisched_service::{Ingest, ServiceConfig, ServiceCore, ServiceMode};
use tetrisched_strl::{Atom, JobClass, Window};

use tetrisched_telemetry::{Telemetry, TelemetryConfig};

use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultKind, FaultPlan, NodeFaults, RetryPolicy};
use crate::job::{JobId, JobOutcome, JobSpec};
use crate::metrics::Metrics;
use crate::scheduler::{
    CycleContext, CycleDecisions, CycleError, Launch, PendingJob, RunningJob, Scheduler,
};
use crate::straggler::detect_stragglers;
use crate::trace::{TraceEvent, TraceLog, DEFAULT_TRACE_CAPACITY};
use crate::Time;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Scheduler cycle period in simulated seconds (the paper uses 4 s).
    pub cycle_period: u64,
    /// Optional hard stop; jobs not terminal by then count as incomplete.
    pub horizon: Option<Time>,
    /// Whether to record a full event trace.
    pub trace: bool,
    /// Fault windows to replay (empty = a healthy, full-speed run): down
    /// windows take nodes out of the cluster, slow ones leave them up but
    /// stretch in-flight work deterministically. Announced windows
    /// (scripted maintenance) are announced to the ledger
    /// ([`Ledger::announce`]) so plan-ahead schedules around them.
    pub faults: FaultPlan,
    /// Straggler detection and speculative migration (off by default;
    /// off reproduces pre-straggler runs byte-for-byte).
    pub stragglers: bool,
    /// Backoff and budget applied to jobs evicted by node failures.
    pub retry: RetryPolicy,
    /// When set, the ledger conservation invariant
    /// (`free + allocated + down == total`) is checked after **every**
    /// event even in release builds; debug builds always check.
    pub strict_accounting: bool,
    /// Maximum trace events retained (ring-buffer semantics); older events
    /// are evicted and counted in [`TraceLog::dropped`].
    pub trace_capacity: usize,
    /// Telemetry registry options (disabled by default). Enabling records
    /// spans, counters, and histograms into `SimReport::telemetry` without
    /// changing any scheduling decision.
    pub telemetry: TelemetryConfig,
    /// Service-core configuration. The default ([`ServiceConfig::closed_loop`])
    /// is a pass-through that reproduces the pre-service engine
    /// byte-for-byte; [`tetrisched_service::ServiceMode::Open`] enables
    /// a bounded intake, admission batching with backpressure/shedding, and
    /// fair-share tenancy weights.
    pub service: ServiceConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cycle_period: 4,
            horizon: None,
            trace: false,
            faults: FaultPlan::default(),
            stragglers: false,
            retry: RetryPolicy::default(),
            strict_accounting: false,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            telemetry: TelemetryConfig::default(),
            service: ServiceConfig::closed_loop(),
        }
    }
}

/// Final report of one simulation run.
#[derive(Debug)]
pub struct SimReport {
    /// Aggregate metrics (Sec. 6.3).
    pub metrics: Metrics,
    /// Per-job outcomes.
    pub outcomes: HashMap<JobId, JobOutcome>,
    /// Per-job assigned classes.
    pub classes: HashMap<JobId, JobClass>,
    /// Event trace (empty unless enabled).
    pub trace: TraceLog,
    /// Scheduler that produced the run.
    pub scheduler_name: String,
    /// Simulated time at which the run ended.
    pub end_time: Time,
    /// Telemetry recorded during the run (empty unless enabled via
    /// [`SimConfig::telemetry`]); export with
    /// [`Telemetry::to_jsonl`] / [`Telemetry::to_chrome_trace`] /
    /// [`Telemetry::to_prometheus`].
    pub telemetry: Telemetry,
}

/// A gang's current run: when and where it started.
#[derive(Debug, Clone)]
struct Gang {
    started: Time,
    nodes: Vec<NodeId>,
    preferred: bool,
}

#[derive(Debug, Clone)]
enum JobState {
    NotArrived,
    Pending,
    Running(Gang),
    /// Evicted by a node failure; waiting out the retry backoff before
    /// rejoining the pending queue.
    Backoff,
    Terminal(JobOutcome),
}

/// Speculative straggler migrations performed per scheduling cycle (the
/// rest of the flagged jobs wait for the next cycle).
const MAX_MIGRATIONS_PER_CYCLE: usize = 1;

/// Lifetime migration budget per job; past it the job is left to finish
/// where it runs.
const MAX_MIGRATIONS_PER_JOB: u32 = 2;

#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    class: JobClass,
    reservation: Option<Reservation>,
    state: JobState,
    preemptions: u32,
    generation: u32,
    /// Fault-eviction retries consumed so far.
    retries: u32,
    /// Fraction of the job's total work completed so far (the gang's
    /// progress watermark). Preserved across speculative migrations;
    /// reset to 0 by fail-stop evictions and preemptions, which lose all
    /// progress.
    watermark: f64,
    /// Simulated time of the last watermark rebase (work between
    /// `progress_at` and now accrued at rate `1 / (run_total * run_mult)`
    /// per second).
    progress_at: Time,
    /// Runtime multiplier of the current run: the max slowdown factor
    /// over the gang (a gang is as slow as its slowest member). 1.0 on a
    /// healthy placement.
    run_mult: f64,
    /// True runtime of the current placement at nominal speed, as f64 for
    /// watermark arithmetic.
    run_total: f64,
    /// Speculative migrations consumed so far (bounded by
    /// [`MAX_MIGRATIONS_PER_JOB`]).
    migrations: u32,
}

impl JobRecord {
    fn new(spec: JobSpec) -> Self {
        JobRecord {
            spec,
            class: JobClass::BestEffort,
            reservation: None,
            state: JobState::NotArrived,
            preemptions: 0,
            generation: 0,
            retries: 0,
            watermark: 0.0,
            progress_at: 0,
            run_mult: 1.0,
            run_total: 0.0,
            migrations: 0,
        }
    }
}

/// The simulator: the cluster, the scheduler under test and the run's
/// configuration. What changes during a run is a private `Run`.
pub struct Simulator<S: Scheduler> {
    cluster: Cluster,
    scheduler: S,
    config: SimConfig,
}

impl<S: Scheduler> Simulator<S> {
    /// Creates a simulator.
    pub fn new(cluster: Cluster, scheduler: S, config: SimConfig) -> Self {
        Simulator {
            cluster,
            scheduler,
            config,
        }
    }

    /// Runs the workload to completion (or the horizon) and reports.
    pub fn run(self, jobs: Vec<JobSpec>) -> SimReport {
        let telemetry = Telemetry::new(self.config.telemetry.clone());
        let mut run = Run::prepare(self, jobs, &telemetry);
        run.play_events();
        // The run's borrow of the registry ends with it.
        let report = run.into_report();
        SimReport {
            telemetry,
            ..report
        }
    }
}

/// The state of one simulation run. One handler per [`EventKind`]; each
/// job lifecycle transition (`enqueue`, `start_run` / `stop_run`, `retire`)
/// is written once and owns its bookkeeping.
struct Run<'t, S: Scheduler> {
    sim: Simulator<S>,
    now: Time,
    events: EventQueue,
    ledger: Ledger,
    rs: ReservationSystem,
    service: ServiceCore<JobSpec>,
    /// Every job of the run (all are known before the first event); scans
    /// read them in id order.
    jobs: BTreeMap<JobId, JobRecord>,
    /// Exactly the `Pending` jobs, each once, in the order they became
    /// pending, at every point between events.
    pending: Vec<JobId>,
    /// Jobs not yet terminal.
    remaining: usize,
    faults: Vec<NodeFaults>,
    /// Ladder rung reported by the previous cycle, for change tracking.
    last_rung: u8,
    trace: TraceLog,
    metrics: Metrics,
    /// Borrowed from `Simulator::run`, so the cycle span can hold the
    /// registry across `&mut self` calls.
    telemetry: &'t Telemetry,
}

impl<'t, S: Scheduler> Run<'t, S> {
    fn prepare(sim: Simulator<S>, jobs: Vec<JobSpec>, telemetry: &'t Telemetry) -> Self {
        let config = &sim.config;
        let num_nodes = sim.cluster.num_nodes();
        // The plan is validated up front so one generated for the wrong
        // cluster fails loudly instead of corrupting state mid-run.
        if let Some(max) = config.faults.max_node() {
            assert!(
                max.index() < num_nodes,
                "a fault plan touches node {max} but the cluster has {num_nodes} nodes"
            );
        }
        let mut events = EventQueue::new();
        for spec in &jobs {
            events.push(spec.submit, EventKind::Submit { job: spec.id });
        }
        events.push(0, EventKind::CycleTick);
        // A slow window becomes a start/end event pair, pushed in window
        // order. An outage fails in window order too, but its repair is
        // pushed after every failure, in `(end, node)` order, and an open
        // outage (`end == Time::MAX`) has none. Announced windows (scripted
        // maintenance) are registered with the ledger up front so plan-ahead
        // anticipates them.
        let mut ledger = Ledger::new(num_nodes);
        let mut repairs = Vec::new();
        for (ix, w) in config.faults.windows().iter().enumerate() {
            match w.kind {
                FaultKind::Down => {
                    events.push(w.start, EventKind::NodeDown { node: w.node });
                    if w.end < Time::MAX {
                        repairs.push((w.end, w.node));
                    }
                }
                FaultKind::SlowNode { .. } => {
                    events.push(w.start, EventKind::PerfFaultStart { ix });
                    events.push(w.end, EventKind::PerfFaultEnd { ix });
                }
            }
            if w.announced {
                ledger.announce(w.node, w.start, w.end);
            }
        }
        repairs.sort_unstable();
        for (at, node) in repairs {
            events.push(at, EventKind::NodeUp { node });
        }
        Run {
            now: 0,
            events,
            ledger,
            rs: ReservationSystem::new(num_nodes as u32),
            service: ServiceCore::new(config.service.clone()),
            remaining: jobs.len(),
            jobs: jobs
                .into_iter()
                .map(|j| (j.id, JobRecord::new(j)))
                .collect(),
            pending: Vec::new(),
            faults: vec![NodeFaults::default(); num_nodes],
            last_rung: 0,
            trace: TraceLog::with_capacity(config.trace, config.trace_capacity),
            metrics: Metrics::default(),
            telemetry,
            sim,
        }
    }

    #[expect(
        clippy::panic,
        reason = "the conservation check after every event is the run's fault detector. A ledger \
                  that fails it must stop the run there, not be scheduled on"
    )]
    fn play_events(&mut self) {
        let horizon = self.sim.config.horizon.unwrap_or(Time::MAX);
        while let Some(ev) = self.events.pop() {
            // Node-seconds are the ledger's counts integrated over simulated
            // time: allocations and outages only change inside handlers.
            let at = ev.at.min(horizon);
            self.metrics.busy_node_seconds += (at - self.now) * self.ledger.busy_count() as u64;
            self.metrics.down_node_seconds += (at - self.now) * self.ledger.down_count() as u64;
            self.now = at;
            if ev.at > horizon {
                break;
            }
            let (_, counter) = ev.kind.priority_and_counter();
            self.telemetry.advance(self.now);
            self.telemetry.counter_add(counter, 1);
            match ev.kind {
                EventKind::Submit { job } => self.on_submit(job),
                EventKind::Complete { job, generation } => self.on_complete(job, generation),
                EventKind::NodeDown { node } => self.on_node_down(node),
                EventKind::NodeUp { node } => self.on_node_up(node),
                EventKind::PerfFaultStart { ix } => self.on_perf_fault(ix, true),
                EventKind::PerfFaultEnd { ix } => self.on_perf_fault(ix, false),
                EventKind::Resubmit { job } => self.on_resubmit(job),
                EventKind::CycleTick => self.on_cycle_tick(),
            }
            // Conservation invariant after every event:
            // free + allocated + down == total. Debug builds always check;
            // strict_accounting extends the check to release builds.
            if self.sim.config.strict_accounting || cfg!(debug_assertions) {
                if let Err(e) = self.ledger.validate() {
                    panic!("ledger invariant violated at t={}: {e}", self.now);
                }
            }
            if self.remaining == 0 {
                // All jobs terminal: stop instead of draining whatever
                // fault-plan events remain past the workload's end.
                break;
            }
        }
    }

    /// *Enqueue*: `job` becomes `Pending` and joins the back of the queue.
    fn enqueue(&mut self, job: JobId) {
        record(&mut self.jobs, job).state = JobState::Pending;
        self.pending.push(job);
    }

    /// A job that stops being `Pending` (launched or abandoned) leaves the
    /// queue there and then, so one resubmitted before the next cycle is
    /// not offered to the scheduler twice.
    #[expect(
        clippy::expect_used,
        reason = "`pending` holds exactly the `Pending` jobs (its field doc), and both callers \
                  check the state first; a miss is a broken queue invariant and must not pass \
                  silently"
    )]
    fn dequeue(&mut self, job: JobId) {
        let at = self.pending.iter().position(|&id| id == job);
        self.pending.remove(at.expect("pending jobs are queued"));
    }

    /// *Start*: a pending job starts running on the gang the scheduler
    /// chose. `start_run` and `stop_run` are the only code that touches the
    /// ledger's allocations.
    #[expect(
        clippy::panic,
        reason = "a launch onto held or down nodes is a scheduler bug caught at the one place \
                  allocations are made; the asserts beside it abort on the same class of fault"
    )]
    fn start_run(&mut self, launch: Launch) {
        let job = launch.job;
        let now = self.now;
        let rec = record(&mut self.jobs, job);
        assert!(
            matches!(rec.state, JobState::Pending),
            "scheduler launched non-pending job {job:?}"
        );
        assert_eq!(
            launch.nodes.len(),
            rec.spec.k as usize,
            "gang size mismatch for {job:?}"
        );
        let set = NodeSet::from_ids(self.sim.cluster.num_nodes(), launch.nodes.iter().copied());
        assert_eq!(
            set.len(),
            launch.nodes.len(),
            "duplicate nodes in launch of {job:?}"
        );
        self.ledger
            .allocate(AllocHandle(job.0), set, launch.expected_end.max(now + 1))
            .unwrap_or_else(|e| panic!("scheduler double-booked nodes: {e}"));
        let preferred = rec
            .spec
            .placement_preferred(&self.sim.cluster, &launch.nodes);
        // The gang runs at its slowest member's rate; a migrated job
        // resumes from its preserved watermark. On the healthy,
        // from-scratch path (watermark 0, factor 1) the completion lands
        // after exactly the integer runtime.
        rec.run_total = rec.spec.true_runtime_for(preferred) as f64;
        rec.run_mult = gang_mult(&self.faults, &launch.nodes);
        rec.progress_at = now;
        rec.state = JobState::Running(Gang {
            started: now,
            nodes: launch.nodes.clone(),
            preferred,
        });
        self.dequeue(job);
        self.queue_completion(job);
        self.trace.record(TraceEvent::Launched {
            job,
            nodes: launch.nodes,
            preferred,
            at: now,
        });
    }

    /// Queues the `Complete` of `job`'s run at its current rate.
    #[expect(
        clippy::indexing_slicing,
        reason = "both callers hold `job` from `record`, which has already found it in `jobs`"
    )]
    fn queue_completion(&mut self, job: JobId) {
        let rec = &self.jobs[&job];
        let generation = rec.generation;
        self.events.push(
            self.now + remaining_runtime(rec),
            EventKind::Complete { job, generation },
        );
    }

    /// *Stop*: the gang of `job` stops running. Its nodes go back to the
    /// ledger, and the generation bump turns its queued `Complete` stale.
    /// The caller moves the job on (`enqueue`, `Backoff` or `retire`) before
    /// its handler returns.
    #[expect(
        clippy::expect_used,
        reason = "`start_run` allocates under `AllocHandle(job.0)` whenever it sets `Running`, \
                  which the assert above has just checked"
    )]
    fn stop_run(&mut self, job: JobId, keep_progress: bool) {
        let rec = record(&mut self.jobs, job);
        assert!(
            matches!(rec.state, JobState::Running(_)),
            "stopping {job:?}, which is not running"
        );
        self.ledger
            .release(AllocHandle(job.0))
            .expect("a running job holds its allocation");
        if keep_progress {
            rebase_progress(rec, self.now);
        } else {
            rec.watermark = 0.0;
            rec.run_mult = 1.0;
        }
        rec.generation += 1;
    }

    /// Re-times the gang holding `node` (if any) onto the node rates
    /// in effect from now on: a stop and start in place. Progress to date
    /// is preserved via the watermark, the queued completion is invalidated
    /// through the generation guard, and a fresh completion is queued at
    /// the re-derived end time.
    fn retime_gang_on(&mut self, node: NodeId) {
        let Some(handle) = self.ledger.owner_of(node) else {
            return;
        };
        let job = JobId(handle.0);
        let rec = record(&mut self.jobs, job);
        let mult = match rec.state {
            JobState::Running(ref gang) => gang_mult(&self.faults, &gang.nodes),
            _ => return,
        };
        if mult == rec.run_mult {
            return;
        }
        rebase_progress(rec, self.now);
        rec.run_mult = mult;
        rec.generation += 1;
        self.queue_completion(job);
        self.trace.record(TraceEvent::GangRetimed {
            job,
            factor_pct: percent(mult),
            at: self.now,
        });
    }

    /// *Retire*: `job` becomes terminal with `outcome`, traced as `event`.
    /// The only code that sets `Terminal` or counts `remaining` down. Its
    /// reservation is not touched: only completion gives one back
    /// (`on_complete`), so an abandoned job's window stays in the plan.
    fn retire(&mut self, job: JobId, outcome: JobOutcome, event: TraceEvent) {
        let state = &mut record(&mut self.jobs, job).state;
        let was_pending = matches!(state, JobState::Pending);
        *state = JobState::Terminal(outcome);
        if was_pending {
            self.dequeue(job);
        }
        self.remaining -= 1;
        self.trace.record(event);
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`prepare` queues one `Submit` per record of `jobs`, keyed by the same id"
    )]
    fn on_submit(&mut self, job: JobId) {
        let spec = self.jobs[&job].spec.clone();
        match self.service.ingest(spec) {
            // Closed-loop pass-through: admit inline, exactly as the
            // pre-service engine did.
            Ingest::Admitted(_) => self.admit(job),
            // Open-loop: queued on the intake; reservation admission and
            // classification happen when a later admission cycle drains it.
            Ingest::Queued => {}
            // Open-loop: the intake queue was full.
            Ingest::Shed(_) => self.shed(job),
        }
    }

    /// Admits one job into the scheduler: every SLO job asks Rayon for a
    /// window `[submit, deadline]` sized by its *estimate*, and is classed
    /// by the answer. The closed-loop Submit path and the open-loop
    /// admission-cycle path share this seam so both classify identically.
    #[expect(
        clippy::indexing_slicing,
        reason = "`record` above has already found `job` in `jobs`, and nothing is ever removed \
                  from the map"
    )]
    fn admit(&mut self, job: JobId) {
        let now = self.now;
        let rec = record(&mut self.jobs, job);
        rec.class = match rec.spec.deadline {
            None => JobClass::BestEffort,
            Some(deadline) => {
                let gang = Atom::gang(rec.spec.k, rec.spec.estimated_runtime());
                let window = Window::new(rec.spec.submit, deadline, gang);
                rec.reservation = self.rs.request(&window, now);
                match rec.reservation {
                    Some(_) => JobClass::SloAccepted,
                    None => JobClass::SloNoReservation,
                }
            }
        };
        // Class totals cover every job that entered the system, which is
        // here. Shed jobs never do, so they carry no class.
        let class = rec.class;
        match class {
            JobClass::SloAccepted => self.metrics.accepted_slo_total += 1,
            JobClass::SloNoReservation => self.metrics.nores_slo_total += 1,
            JobClass::BestEffort => self.metrics.be_total += 1,
        }
        self.enqueue(job);
        self.trace.record(TraceEvent::Submitted {
            job,
            class,
            at: now,
        });
        let weight = self.service.fair_share().weight(job.0);
        let view = pending_view(&self.jobs[&job], weight);
        self.sim.scheduler.on_submit(&view, now);
    }

    fn shed(&mut self, job: JobId) {
        let at = self.now;
        self.retire(job, JobOutcome::Shed { at }, TraceEvent::Shed { job, at });
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "only `queue_completion` queues a `Complete`, for a job it has just read out of \
                  `jobs`; nothing is ever removed"
    )]
    fn on_complete(&mut self, job: JobId, generation: u32) {
        let now = self.now;
        let rec = &self.jobs[&job];
        // A stale completion: the run it was queued for has been stopped or
        // re-timed since, and the generation moved on.
        if rec.generation != generation {
            return;
        }
        let JobState::Running(ref gang) = rec.state else {
            return;
        };
        let preferred = gang.preferred;
        self.stop_run(job, true);
        let rec = &self.jobs[&job];
        if let Some(r) = rec.reservation {
            self.rs.release_from(r.id, now);
        }
        let met_deadline = rec.spec.deadline.map(|d| now <= d);
        match (rec.class, met_deadline) {
            (JobClass::SloAccepted, Some(true)) => self.metrics.accepted_slo_met += 1,
            (JobClass::SloNoReservation, Some(true)) => self.metrics.nores_slo_met += 1,
            (JobClass::BestEffort, _) => {
                self.metrics.be_completed += 1;
                self.metrics.be_latency.push((now - rec.spec.submit) as f64);
            }
            _ => {}
        }
        self.retire(
            job,
            JobOutcome::Completed { at: now, preferred },
            TraceEvent::Completed {
                job,
                met_deadline,
                at: now,
            },
        );
        self.sim.scheduler.on_complete(job, now);
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`faults` has one entry per cluster node, and `prepare` asserts that the fault \
                  plans name no node beyond them"
    )]
    #[expect(
        clippy::expect_used,
        reason = "`mark_down` fails only on a node that is still allocated, and the branch above \
                  has just evicted its owner"
    )]
    fn on_node_down(&mut self, node: NodeId) {
        let now = self.now;
        if !self.faults[node.index()].fail() {
            return; // Nested outage; the node is already down.
        }
        if let Some(handle) = self.ledger.owner_of(node) {
            // Evict the gang holding the failed node: the run's progress
            // is lost, and the job backs off for a retry or, its budget
            // spent, is abandoned.
            let job = JobId(handle.0);
            let policy = self.sim.config.retry;
            self.stop_run(job, false);
            let rec = record(&mut self.jobs, job);
            rec.retries += 1;
            let retry = rec.retries;
            self.metrics.evictions += 1;
            self.trace.record(TraceEvent::Evicted {
                job,
                node,
                retry,
                at: now,
            });
            self.sim.scheduler.on_evict(job, now);
            if retry > policy.max_retries {
                self.metrics.abandoned_after_retries += 1;
                self.retire(
                    job,
                    JobOutcome::Abandoned { at: now },
                    TraceEvent::RetriesExhausted { job, at: now },
                );
            } else {
                rec.state = JobState::Backoff;
                self.metrics.retries += 1;
                self.events
                    .push(now + policy.delay(retry), EventKind::Resubmit { job });
            }
        }
        self.ledger
            .mark_down(node)
            .expect("mark_down after owner eviction");
        self.trace.record(TraceEvent::NodeDown { node, at: now });
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`faults` has one entry per cluster node, and `prepare` asserts that the fault \
                  plans name no node beyond them"
    )]
    fn on_node_up(&mut self, node: NodeId) {
        if self.faults[node.index()].repair() {
            self.ledger.mark_up(node);
            self.trace.record(TraceEvent::NodeUp { node, at: self.now });
        }
    }

    /// A slow window opens or closes: the node stays up at a new rate, and
    /// the gang on it (if any) is re-timed.
    #[expect(
        clippy::indexing_slicing,
        reason = "`prepare` makes the perf-fault events by enumerating this same `windows()` slice \
                  and asserts its nodes are in the cluster, which sizes `faults`"
    )]
    fn on_perf_fault(&mut self, ix: usize, opens: bool) {
        let at = self.now;
        let plan = self.sim.config.faults.windows();
        let node = plan[ix].node;
        let factor = self.faults[node.index()].perf_window(ix, opens, plan);
        if opens {
            self.telemetry.counter_add("degraded.perf_fault_windows", 1);
            self.trace.record(TraceEvent::PerfDegraded {
                node,
                factor_pct: percent(factor),
                at,
            });
        } else if factor <= 1.0 {
            self.trace.record(TraceEvent::PerfRecovered { node, at });
        }
        self.retime_gang_on(node);
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`on_node_down` queues a `Resubmit` only for a job it has just found through \
                  `record`"
    )]
    fn on_resubmit(&mut self, job: JobId) {
        // A Resubmit can only find the job in Backoff: evictions out of
        // Backoff are impossible (the job holds no nodes).
        if matches!(self.jobs[&job].state, JobState::Backoff) {
            self.enqueue(job);
            self.trace
                .record(TraceEvent::Resubmitted { job, at: self.now });
        }
    }

    fn on_cycle_tick(&mut self) {
        if self.service.mode() == ServiceMode::Open {
            self.admit_batch();
        }
        // The cycle span wraps straggler migration, view building, the
        // scheduler call (whose phase spans nest under it), and decision
        // application.
        let telemetry = self.telemetry;
        let span = telemetry.span("sim", "cycle");
        span.arg("cycle", self.metrics.cycle_latency.count() as u64);
        if self.sim.config.stragglers {
            self.migrate_stragglers();
        }
        let (pending, running) = self.views();
        let wall = Instant::now();
        let decisions = self.sim.scheduler.cycle(&CycleContext {
            now: self.now,
            cluster: &self.sim.cluster,
            ledger: &self.ledger,
            pending: &pending,
            running: &running,
            telemetry,
        });
        let cycle_secs = wall.elapsed().as_secs_f64();
        telemetry.observe_sim("sched.pending_jobs", pending.len() as f64);
        telemetry.observe_sim("sched.running_jobs", running.len() as f64);
        span.arg("pending", pending.len() as u64);
        span.arg("running", running.len() as u64);
        span.arg("launches", decisions.launches.len() as u64);
        span.arg("preemptions", decisions.preemptions.len() as u64);
        span.arg("errors", decisions.errors.len() as u64);
        span.arg("degraded", u64::from(decisions.degraded));
        self.account(&decisions, cycle_secs);
        self.apply(decisions);
        drop(span);
        if self.remaining > 0 {
            self.events.push(
                self.now + self.sim.config.cycle_period,
                EventKind::CycleTick,
            );
        }
    }

    /// Open-mode admission cycle: drain a batch of queued arrivals under
    /// backpressure, then shed the excess past the queue-depth bound. The
    /// scheduler's backlog is the queue's length.
    #[expect(
        clippy::panic,
        reason = "the service core's conservation check (admitted + shed + backlog == arrivals) is \
                  fault detection, like the ledger's; a run that fails it stops"
    )]
    fn admit_batch(&mut self) {
        let batch = self.service.drain_cycle(self.pending.len());
        for spec in batch.admitted {
            self.admit(spec.id);
        }
        for spec in batch.shed {
            self.shed(spec.id);
        }
        self.telemetry
            .observe_sim("service.intake_backlog", batch.deferred as f64);
        if let Err(e) = self.service.validate() {
            panic!("at t={}: {e}", self.now);
        }
    }

    /// Straggler defense (see [`crate::straggler`]): flag the running gangs
    /// that have outgrown the cohort median and speculatively migrate the
    /// worst offenders back through the normal placement path.
    #[expect(
        clippy::indexing_slicing,
        reason = "`flagged` is a subset of `cohort`, which was collected from `jobs` just above"
    )]
    fn migrate_stragglers(&mut self) {
        let now = self.now;
        let lateness = |rec: &JobRecord| match rec.state {
            JobState::Running(ref gang) => {
                let est = rec.spec.estimated_runtime_for(gang.preferred).max(1) as f64;
                Some((rec.spec.id, now.saturating_sub(gang.started) as f64 / est))
            }
            _ => None,
        };
        let cohort: Vec<(JobId, f64)> = self.jobs.values().filter_map(lateness).collect();
        let flagged = detect_stragglers(&cohort);
        self.metrics.stragglers_detected += flagged.len() as u64;
        self.telemetry
            .counter_add("degraded.stragglers_detected", flagged.len() as u64);
        let movers: Vec<JobId> = flagged
            .into_iter()
            .filter(|job| self.jobs[job].migrations < MAX_MIGRATIONS_PER_JOB)
            .take(MAX_MIGRATIONS_PER_CYCLE)
            .collect();
        for job in movers {
            self.stop_run(job, true);
            self.enqueue(job);
            let rec = record(&mut self.jobs, job);
            rec.migrations += 1;
            self.metrics.speculative_migrations += 1;
            self.telemetry
                .counter_add("degraded.speculative_migrations", 1);
            self.trace.record(TraceEvent::StragglerMigrated {
                job,
                watermark_pct: percent(rec.watermark),
                at: now,
            });
            self.sim.scheduler.on_evict(job, now);
        }
    }

    /// The views a scheduler is handed: the queue in its own order, the
    /// running gangs in the records' order, ascending by id.
    #[expect(
        clippy::indexing_slicing,
        reason = "`pending` holds ids `enqueue` put there after finding each in `jobs` through \
                  `record`"
    )]
    fn views(&mut self) -> (Vec<PendingJob>, Vec<RunningJob>) {
        let now = self.now;
        let ledger = &self.ledger;
        let gang = |rec: &JobRecord| match rec.state {
            JobState::Running(ref gang) => Some(RunningJob {
                id: rec.spec.id,
                class: rec.class,
                started: gang.started,
                nodes: gang.nodes.clone(),
                expected_end: ledger
                    .expected_end(AllocHandle(rec.spec.id.0))
                    .unwrap_or(now),
                preferred: gang.preferred,
                deadline: rec.spec.deadline,
            }),
            _ => None,
        };
        let running: Vec<RunningJob> = self.jobs.values().filter_map(gang).collect();
        // Rebuild the fair-share book from ground truth each cycle (held
        // nodes of running gangs, demand of pending gangs) so tenancy
        // weights can never drift from engine state. With fair-share
        // disabled — the closed-loop default — `weight()` returns literal
        // 1.0 and the STRL objective is unchanged.
        if self.service.fair_share().config().is_enabled() {
            let book = self.service.fair_share_mut();
            book.begin_cycle();
            for r in &running {
                book.observe_held(r.id.0, r.nodes.len() as u64);
            }
            for id in &self.pending {
                book.observe_demand(id.0, u64::from(self.jobs[id].spec.k));
            }
        }
        let book = self.service.fair_share();
        let view = |id: &JobId| pending_view(&self.jobs[id], book.weight(id.0));
        (self.pending.iter().map(view).collect(), running)
    }

    fn account(&mut self, decisions: &CycleDecisions, cycle_secs: f64) {
        let telemetry = &self.telemetry;
        let metrics = &mut self.metrics;
        let solver_secs = decisions.solver_time.as_secs_f64();
        metrics.cycle_latency.push(cycle_secs);
        metrics.solver_latency.push(solver_secs);
        // Wall durations are measured in this file (it is on the srclint
        // L001 allowlist) and enter telemetry only as wall-domain
        // observations, which default exports exclude.
        telemetry.observe_wall("cycle.wall_secs", cycle_secs);
        telemetry.observe_wall("solver.wall_secs", solver_secs);
        telemetry.counter_add("sim.launches", decisions.launches.len() as u64);
        telemetry.counter_add("sim.preemptions", decisions.preemptions.len() as u64);
        telemetry.counter_add("sim.abandons", decisions.abandons.len() as u64);
        if decisions.degraded {
            telemetry.counter_add("sim.degraded_cycles", 1);
        }
        metrics.warm_start_hits += decisions.warm_start_hits;
        metrics.warm_start_misses += decisions.warm_start_misses;
        // Ladder accounting: rung changes are governed (and rate-limited)
        // inside the scheduler; the engine only observes and records them.
        metrics.ladder_rung = metrics.ladder_rung.max(u64::from(decisions.ladder_rung));
        metrics.anytime_incumbents += decisions.anytime_incumbents;
        telemetry.observe_sim("degraded.ladder_rung", f64::from(decisions.ladder_rung));
        if decisions.anytime_incumbents > 0 {
            telemetry.counter_add("degraded.anytime_incumbents", decisions.anytime_incumbents);
        }
        if decisions.ladder_rung != self.last_rung {
            self.last_rung = decisions.ladder_rung;
            telemetry.counter_add("degraded.ladder_rung_changes", 1);
            self.trace.record(TraceEvent::LadderRung {
                rung: decisions.ladder_rung,
                at: self.now,
            });
        }
        // Surface degraded-mode signals: cycles report non-fatal errors
        // instead of panicking or silently dropping work.
        for err in &decisions.errors {
            match err {
                CycleError::Compile { .. } => metrics.compile_errors += 1,
                CycleError::Solver { .. } | CycleError::NoSolution { .. } => {
                    metrics.solver_errors += 1
                }
                CycleError::Lint { .. } => metrics.lint_errors += 1,
                // Counted below via `decisions.certificate_failures`.
                CycleError::Certificate { .. } => {}
            }
        }
        metrics.certificates_verified += decisions.certificates_verified;
        metrics.certificate_failures += decisions.certificate_failures;
        if decisions.degraded {
            metrics.degraded_cycles += 1;
            self.trace.record(TraceEvent::CycleDegraded {
                errors: decisions.errors.iter().map(|e| e.to_string()).collect(),
                at: self.now,
            });
        }
    }

    /// Applies a cycle's decisions in the order a scheduler assumes:
    /// preemptions free the nodes its launches may use.
    #[expect(
        clippy::expect_used,
        reason = "`set_expected_end` fails only on a dead handle, and a `Running` job holds its \
                  allocation (`start_run` / `stop_run`)"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "the scheduler is only ever shown jobs of this run, the contract `record` states \
                  and aborts on"
    )]
    fn apply(&mut self, decisions: CycleDecisions) {
        let at = self.now;
        // Victims lose all progress and requeue.
        for job in decisions.preemptions {
            let rec = record(&mut self.jobs, job);
            if !matches!(rec.state, JobState::Running(_)) {
                continue;
            }
            rec.preemptions += 1;
            self.stop_run(job, false);
            self.enqueue(job);
            self.metrics.preemptions += 1;
            self.trace.record(TraceEvent::Preempted { job, at });
        }
        for launch in decisions.launches {
            self.start_run(launch);
        }
        for (job, end) in decisions.revised_ends {
            let state = self.jobs.get(&job).map(|rec| &rec.state);
            if matches!(state, Some(JobState::Running(_))) {
                self.ledger
                    .set_expected_end(AllocHandle(job.0), end)
                    .expect("a running job's allocation is live in the ledger");
            }
        }
        // Only a pending job can be given up on.
        for job in decisions.abandons {
            if matches!(self.jobs[&job].state, JobState::Pending) {
                self.metrics.abandoned += 1;
                self.retire(
                    job,
                    JobOutcome::Abandoned { at },
                    TraceEvent::Abandoned { job, at },
                );
            }
        }
    }

    /// The report of the run, with its end-of-run counters added to the
    /// borrowed registry; `Simulator::run` moves the registry in.
    #[expect(
        clippy::panic,
        reason = "the end-of-run service check is fault detection, as in `admit_batch`"
    )]
    fn into_report(mut self) -> SimReport {
        let now = self.now;
        let metrics = &mut self.metrics;
        let outcome = |rec: &JobRecord| match rec.state {
            JobState::Terminal(outcome) => outcome,
            _ => JobOutcome::Incomplete,
        };
        metrics.incomplete = self.remaining;
        metrics.total_node_seconds = self.sim.cluster.num_nodes() as u64 * now;
        let perf_faulted = self.faults.iter().filter(|node| node.perf_faulted);
        metrics.perf_faulted_nodes = perf_faulted.count() as u64;
        let telemetry = self.telemetry;
        telemetry.counter_add("sim.trace_events_dropped", self.trace.dropped());
        telemetry.counter_add("degraded.perf_faulted_nodes", metrics.perf_faulted_nodes);
        // Service-core accounting: conserved (admitted + shed + backlog ==
        // arrivals) by construction; surfaced in metrics and telemetry so
        // open-loop overload behavior is observable.
        let service_stats = self.service.stats();
        metrics.jobs_admitted = service_stats.admitted;
        metrics.jobs_shed = service_stats.shed;
        metrics.jobs_deferred = service_stats.deferred;
        metrics.intake_overflows = service_stats.intake_overflows;
        telemetry.counter_add("service.jobs_admitted", service_stats.admitted);
        telemetry.counter_add("service.jobs_shed", service_stats.shed);
        telemetry.counter_add("service.jobs_deferred", service_stats.deferred);
        telemetry.counter_add("service.intake_overflows", service_stats.intake_overflows);
        if let Err(e) = self.service.validate() {
            panic!("at end of run: {e}");
        }
        SimReport {
            outcomes: self.jobs.iter().map(|(id, r)| (*id, outcome(r))).collect(),
            classes: self.jobs.iter().map(|(id, r)| (*id, r.class)).collect(),
            metrics: self.metrics,
            trace: self.trace,
            scheduler_name: self.sim.scheduler.name().to_string(),
            end_time: now,
            // `Simulator::run` puts the run's registry here.
            telemetry: Telemetry::default(),
        }
    }
}

/// The record of `job`. Ids reach the engine from its own event queue and
/// from the scheduler, which is only ever shown jobs of this run.
#[expect(
    clippy::panic,
    reason = "a decision about a job the scheduler was never shown is a scheduler bug, and this is \
              where every such id is caught"
)]
fn record(jobs: &mut BTreeMap<JobId, JobRecord>, job: JobId) -> &mut JobRecord {
    jobs.get_mut(&job)
        .unwrap_or_else(|| panic!("{job:?} is not a job of this run"))
}

fn pending_view(rec: &JobRecord, weight: f64) -> PendingJob {
    PendingJob {
        spec: rec.spec.clone(),
        class: rec.class,
        reservation: rec.reservation,
        preemptions: rec.preemptions,
        weight,
    }
}

fn percent(x: f64) -> u32 {
    (x * 100.0).round() as u32
}

/// The runtime multiplier a gang experiences on `nodes`: gang semantics
/// make it as slow as its slowest member.
#[expect(
    clippy::indexing_slicing,
    reason = "`faults` holds one entry per cluster node, and a gang's node ids come from that \
              cluster's ledger"
)]
fn gang_mult(faults: &[NodeFaults], nodes: &[NodeId]) -> f64 {
    nodes
        .iter()
        .map(|&n| faults[n.index()].factor)
        .fold(1.0, f64::max)
}

/// Accrues progress earned since the last rebase into the watermark at the
/// run's current rate, and moves the rebase point to `now`.
fn rebase_progress(rec: &mut JobRecord, now: Time) {
    if matches!(rec.state, JobState::Running(_)) && rec.run_total > 0.0 {
        let elapsed = now.saturating_sub(rec.progress_at) as f64;
        rec.watermark = (rec.watermark + elapsed / (rec.run_total * rec.run_mult)).min(1.0);
        rec.progress_at = now;
    }
}

/// Simulated seconds the current run still needs at its current rate
/// (always at least 1 so a re-derived completion lands strictly in the
/// future).
fn remaining_runtime(rec: &JobRecord) -> u64 {
    let remaining = (1.0 - rec.watermark).max(0.0) * rec.run_total * rec.run_mult;
    (remaining.ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultScope, FaultScript};
    use crate::job::JobType;
    use crate::scheduler::{CycleDecisions, Launch};

    /// FIFO-onto-free-nodes scheduler for engine tests.
    struct Fifo;

    impl Scheduler for Fifo {
        fn cycle(&mut self, ctx: &CycleContext<'_>) -> CycleDecisions {
            let mut d = CycleDecisions::default();
            let mut free: Vec<NodeId> = ctx.ledger.free_nodes().iter().collect();
            for p in ctx.pending {
                let k = p.spec.k as usize;
                if free.len() >= k {
                    let nodes: Vec<NodeId> = free.drain(..k).collect();
                    let preferred = p.spec.placement_preferred(ctx.cluster, &nodes);
                    d.launches.push(Launch {
                        job: p.spec.id,
                        nodes,
                        expected_end: ctx.now + p.spec.estimated_runtime_for(preferred),
                    });
                }
            }
            d
        }

        fn name(&self) -> &str {
            "fifo"
        }
    }

    fn be_job(id: u64, submit: Time, k: u32, runtime: u64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            submit,
            job_type: JobType::Unconstrained,
            k,
            base_runtime: runtime,
            slowdown: 1.0,
            deadline: None,
            estimate_error: 0.0,
        }
    }

    fn slo_job(id: u64, submit: Time, k: u32, runtime: u64, deadline: Time) -> JobSpec {
        JobSpec {
            deadline: Some(deadline),
            ..be_job(id, submit, k, runtime)
        }
    }

    fn run_fifo(jobs: Vec<JobSpec>) -> SimReport {
        Simulator::new(
            Cluster::uniform(1, 4, 0),
            Fifo,
            SimConfig {
                trace: true,
                ..SimConfig::default()
            },
        )
        .run(jobs)
    }

    #[test]
    fn single_job_lifecycle() {
        let report = run_fifo(vec![be_job(0, 0, 2, 40)]);
        assert_eq!(report.metrics.be_total, 1);
        assert_eq!(report.metrics.be_completed, 1);
        // Launched at the t=0 cycle, runs 40s.
        assert_eq!(
            report.outcomes[&JobId(0)],
            JobOutcome::Completed {
                at: 40,
                preferred: true
            }
        );
        assert_eq!(report.metrics.be_mean_latency(), 40.0);
        assert_eq!(report.metrics.busy_node_seconds, 80);
        assert_eq!(report.end_time, 40);
    }

    #[test]
    fn queueing_when_cluster_full() {
        // Two 3-wide jobs on 4 nodes: the second waits for the first.
        let report = run_fifo(vec![be_job(0, 0, 3, 40), be_job(1, 0, 3, 40)]);
        let c0 = report.outcomes[&JobId(0)].completion().unwrap();
        let c1 = report.outcomes[&JobId(1)].completion().unwrap();
        assert_eq!(c0, 40);
        // Job 1 launches at the first cycle tick at/after 40.
        assert_eq!(c1, 80);
    }

    #[test]
    fn slo_classification_via_reservation() {
        // Cluster capacity 4; two SLO jobs each needing all 4 nodes with a
        // window wide enough for one only.
        let jobs = vec![
            slo_job(0, 0, 4, 50, 60),
            slo_job(1, 0, 4, 50, 60), // cannot fit after job 0's reservation
        ];
        let report = run_fifo(jobs);
        assert_eq!(report.metrics.accepted_slo_total, 1);
        assert_eq!(report.metrics.nores_slo_total, 1);
        assert_eq!(report.classes[&JobId(0)], JobClass::SloAccepted);
        assert_eq!(report.classes[&JobId(1)], JobClass::SloNoReservation);
    }

    #[test]
    fn deadline_attainment_counted() {
        let jobs = vec![
            slo_job(0, 0, 2, 20, 100), // easily met
            slo_job(1, 0, 4, 200, 50), // impossible deadline
        ];
        let report = run_fifo(jobs);
        assert_eq!(report.metrics.accepted_slo_met, 1);
        assert!(report.metrics.total_slo_attainment() < 100.0);
    }

    #[test]
    fn horizon_marks_incomplete() {
        let report = Simulator::new(
            Cluster::uniform(1, 4, 0),
            Fifo,
            SimConfig {
                horizon: Some(10),
                ..SimConfig::default()
            },
        )
        .run(vec![be_job(0, 0, 2, 100)]);
        assert_eq!(report.outcomes[&JobId(0)], JobOutcome::Incomplete);
        assert_eq!(report.metrics.incomplete, 1);
        // Busy time up to the horizon is still accounted.
        assert_eq!(report.metrics.busy_node_seconds, 20);
    }

    #[test]
    fn trace_records_lifecycle() {
        let report = run_fifo(vec![be_job(0, 0, 1, 10)]);
        let events = report.trace.for_job(JobId(0));
        assert!(matches!(events[0], TraceEvent::Submitted { .. }));
        assert!(matches!(events[1], TraceEvent::Launched { .. }));
        assert!(matches!(events[2], TraceEvent::Completed { .. }));
    }

    #[test]
    fn utilization_is_sane() {
        let report = run_fifo(vec![be_job(0, 0, 4, 100)]);
        // 4 nodes busy 100s of a 100s run over 4 nodes: 100%.
        assert!((report.metrics.utilization() - 1.0).abs() < 1e-9);
    }

    /// A scheduler that preempts any running best-effort job whenever an
    /// SLO job is pending, then launches FIFO.
    struct PreemptingFifo;

    impl Scheduler for PreemptingFifo {
        fn cycle(&mut self, ctx: &CycleContext<'_>) -> CycleDecisions {
            let mut d = CycleDecisions::default();
            let slo_pending = ctx.pending.iter().any(|p| p.class.is_slo());
            let mut freed = 0usize;
            if slo_pending {
                for r in ctx.running {
                    if !r.class.is_slo() {
                        d.preemptions.push(r.id);
                        freed += r.nodes.len();
                    }
                }
            }
            let mut free: Vec<NodeId> = ctx.ledger.free_nodes().iter().collect();
            // Nodes freed by preemption this cycle are also usable.
            for r in ctx.running {
                if d.preemptions.contains(&r.id) {
                    free.extend(r.nodes.iter().copied());
                }
            }
            let _ = freed;
            let mut order: Vec<&PendingJob> = ctx.pending.iter().collect();
            order.sort_by_key(|p| !p.class.is_slo()); // SLO first
            for p in order {
                let k = p.spec.k as usize;
                if free.len() >= k {
                    let nodes: Vec<NodeId> = free.drain(..k).collect();
                    d.launches.push(Launch {
                        job: p.spec.id,
                        nodes,
                        expected_end: ctx.now + p.spec.estimated_runtime(),
                    });
                }
            }
            d
        }

        fn name(&self) -> &str {
            "preempting-fifo"
        }
    }

    #[test]
    fn preemption_requeues_and_restarts() {
        // BE job takes the whole cluster; an SLO job arrives and preempts.
        let jobs = vec![be_job(0, 0, 4, 100), slo_job(1, 10, 4, 20, 80)];
        let report = Simulator::new(
            Cluster::uniform(1, 4, 0),
            PreemptingFifo,
            SimConfig::default(),
        )
        .run(jobs);
        assert_eq!(report.metrics.preemptions, 1);
        // SLO met.
        assert_eq!(report.metrics.accepted_slo_met, 1);
        // BE job restarted after preemption and completed eventually.
        assert_eq!(report.metrics.be_completed, 1);
        let be_done = report.outcomes[&JobId(0)].completion().unwrap();
        let slo_done = report.outcomes[&JobId(1)].completion().unwrap();
        assert!(slo_done < be_done, "BE restarted after the SLO job");
        // BE lost its first 12s of progress: completion >= 32 + 100.
        assert!(be_done >= 120);
    }

    fn script(at: Time, duration: Time, nodes: &[u32], kind: FaultKind) -> FaultScript {
        FaultScript {
            at,
            duration,
            scope: FaultScope::Nodes(nodes.iter().map(|&n| NodeId(n)).collect()),
            kind,
            announced: false,
        }
    }

    fn one_node_outage(at: Time, duration: Time, node: u32) -> FaultPlan {
        let outage = script(at, duration, &[node], FaultKind::Down);
        FaultPlan::from_script(&Cluster::uniform(1, 4, 0), &[outage])
    }

    #[test]
    fn eviction_retries_then_completes() {
        // Job 0 runs on nodes 0-1 for 100s; node 0 fails at t=30 and heals
        // at t=40. The job is evicted, backs off, and restarts from scratch.
        let config = SimConfig {
            faults: one_node_outage(30, 10, 0),
            retry: RetryPolicy {
                max_retries: 3,
                backoff_base: 8,
                backoff_cap: 64,
            },
            strict_accounting: true,
            trace: true,
            ..SimConfig::default()
        };
        let report =
            Simulator::new(Cluster::uniform(1, 4, 0), Fifo, config).run(vec![be_job(0, 0, 2, 100)]);
        assert_eq!(report.metrics.evictions, 1);
        assert_eq!(report.metrics.retries, 1);
        assert_eq!(report.metrics.abandoned_after_retries, 0);
        let done = report.outcomes[&JobId(0)].completion().unwrap();
        // Evicted at 30, resubmitted at 38, relaunched at the next cycle
        // tick, then a full 100s re-run: strictly later than the fault-free
        // completion at 100.
        assert!(done > 100, "restart must lose progress (done at {done})");
        let events = report.trace.for_job(JobId(0));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Evicted { retry: 1, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Resubmitted { at: 38, .. })));
        // Node-level fault trace is present too.
        assert!(report.trace.events().iter().any(|e| matches!(
            e,
            TraceEvent::NodeDown {
                node: NodeId(0),
                at: 30
            }
        )));
        assert_eq!(report.metrics.down_node_seconds, 10);
    }

    #[test]
    fn stale_complete_after_eviction_is_ignored() {
        // The generation guard: job 0's original Complete event (queued for
        // t=100 at launch) fires after the job was evicted at t=30 and must
        // not complete generation 1. The job completes only via its re-run.
        let config = SimConfig {
            faults: one_node_outage(30, 5, 1),
            retry: RetryPolicy {
                max_retries: 3,
                backoff_base: 100,
                backoff_cap: 100,
            },
            strict_accounting: true,
            trace: true,
            ..SimConfig::default()
        };
        let report =
            Simulator::new(Cluster::uniform(1, 4, 0), Fifo, config).run(vec![be_job(0, 0, 2, 100)]);
        // Backoff of 100s spans the stale Complete at t=100; had the stale
        // event been honored the job would report completion at 100 while
        // holding zero nodes.
        let done = report.outcomes[&JobId(0)].completion().unwrap();
        assert!(
            done > 200,
            "stale completion must be ignored (done at {done})"
        );
        assert_eq!(report.metrics.be_completed, 1);
        let completions = report
            .trace
            .for_job(JobId(0))
            .iter()
            .filter(|e| matches!(e, TraceEvent::Completed { .. }))
            .count();
        assert_eq!(completions, 1);
    }

    #[test]
    fn retry_budget_exhaustion_abandons() {
        // Every retry lands the job back on a cluster whose nodes keep
        // failing; with max_retries=2 the third eviction abandons it.
        let cluster = Cluster::uniform(1, 2, 0);
        let outages = (0..6)
            .map(|i| script(10 + i * 20, 5, &[(i % 2) as u32], FaultKind::Down))
            .collect::<Vec<_>>();
        let config = SimConfig {
            faults: FaultPlan::from_script(&cluster, &outages),
            retry: RetryPolicy {
                max_retries: 2,
                backoff_base: 1,
                backoff_cap: 1,
            },
            strict_accounting: true,
            trace: true,
            ..SimConfig::default()
        };
        let report = Simulator::new(cluster, Fifo, config).run(vec![be_job(0, 0, 2, 1000)]);
        assert_eq!(report.outcomes[&JobId(0)], JobOutcome::Abandoned { at: 50 });
        assert_eq!(report.metrics.evictions, 3);
        assert_eq!(report.metrics.retries, 2);
        assert_eq!(report.metrics.abandoned_after_retries, 1);
        // Scheduler-initiated abandons are counted separately.
        assert_eq!(report.metrics.abandoned, 0);
        assert!(report
            .trace
            .for_job(JobId(0))
            .iter()
            .any(|e| matches!(e, TraceEvent::RetriesExhausted { at: 50, .. })));
    }

    #[test]
    fn resubmit_before_the_next_cycle_is_offered_once() {
        // Launched at the t=0 cycle, evicted at t=1, resubmitted at t=2:
        // all inside one cycle period. The job left the queue when it was
        // launched, so the t=4 cycle is offered it once (a second queue
        // entry would make FIFO launch it twice).
        let config = SimConfig {
            faults: one_node_outage(1, 1, 0),
            retry: RetryPolicy {
                backoff_base: 1,
                backoff_cap: 1,
                ..RetryPolicy::default()
            },
            strict_accounting: true,
            ..SimConfig::default()
        };
        let report =
            Simulator::new(Cluster::uniform(1, 4, 0), Fifo, config).run(vec![be_job(0, 0, 2, 40)]);
        assert_eq!(report.metrics.evictions, 1);
        assert_eq!(report.metrics.be_completed, 1);
        assert_eq!(report.outcomes[&JobId(0)].completion(), Some(44));
    }

    #[test]
    fn down_nodes_are_not_scheduled() {
        // 2 of 4 nodes down from t=0 to t=50; a 3-wide job cannot launch
        // until the repair.
        let cluster = Cluster::uniform(1, 4, 0);
        let config = SimConfig {
            faults: FaultPlan::from_script(&cluster, &[script(0, 50, &[0, 1], FaultKind::Down)]),
            strict_accounting: true,
            ..SimConfig::default()
        };
        let report = Simulator::new(cluster, Fifo, config).run(vec![be_job(0, 0, 3, 10)]);
        let done = report.outcomes[&JobId(0)].completion().unwrap();
        assert!(done >= 60, "launch had to wait for repair (done at {done})");
        assert_eq!(report.metrics.evictions, 0);
        assert_eq!(report.metrics.down_node_seconds, 100);
    }

    #[test]
    fn open_outage_keeps_its_node_down() {
        // Churn generated up to t=300 leaves node 1's last outage open: its
        // repair falls past the plan's horizon, so the node never returns.
        // A 4-wide job submitted after that cannot launch, and the run goes
        // on to its own horizon.
        let faults = FaultPlan::generate(
            4,
            &FaultConfig {
                seed: 0,
                mtbf: 200.0,
                mttr: 150.0,
                horizon: 300,
                slow_factor: None,
            },
        );
        let config = SimConfig {
            horizon: Some(1000),
            faults: faults.clone(),
            strict_accounting: true,
            trace: true,
            ..SimConfig::default()
        };
        let report = Simulator::new(Cluster::uniform(1, 4, 0), Fifo, config)
            .run(vec![be_job(0, 400, 4, 10)]);
        let end = report.end_time;
        assert_eq!(end, 1000);
        let last = report.trace.events().iter().rev().find(|e| {
            matches!(e, TraceEvent::NodeDown { node, .. } | TraceEvent::NodeUp { node, .. }
                if *node == NodeId(1))
        });
        assert!(matches!(last, Some(TraceEvent::NodeDown { .. })));
        // Each outage counts until its repair; the open one until the end.
        let down = faults.windows().iter().map(|w| w.end.min(end) - w.start);
        assert_eq!(report.metrics.down_node_seconds, down.sum::<u64>());
    }

    #[test]
    fn back_to_back_outages_repair_before_failing_again() {
        // Outages [5, 10) and [10, 20) of node 0: at t=10 the repair lands
        // first, so the second failure finds the node up and takes it down.
        let cluster = Cluster::uniform(1, 4, 0);
        let outages = [
            script(5, 5, &[0], FaultKind::Down),
            script(10, 10, &[0], FaultKind::Down),
        ];
        let config = SimConfig {
            faults: FaultPlan::from_script(&cluster, &outages),
            strict_accounting: true,
            trace: true,
            ..SimConfig::default()
        };
        let report = Simulator::new(cluster, Fifo, config).run(vec![be_job(0, 30, 1, 10)]);
        let at_10: Vec<_> = report
            .trace
            .events()
            .iter()
            .filter(|e| e.at() == 10)
            .collect();
        assert!(matches!(
            at_10[..],
            [TraceEvent::NodeUp { .. }, TraceEvent::NodeDown { .. }]
        ));
        assert_eq!(report.metrics.down_node_seconds, 15);
    }

    #[test]
    fn degraded_cycles_are_counted() {
        /// Reports a degraded cycle (with errors) before behaving like FIFO.
        struct DegradedFifo {
            cycles: u32,
        }
        impl Scheduler for DegradedFifo {
            fn cycle(&mut self, ctx: &CycleContext<'_>) -> CycleDecisions {
                let mut d = Fifo.cycle(ctx);
                self.cycles += 1;
                if self.cycles == 1 {
                    d.errors.push(crate::scheduler::CycleError::Solver {
                        detail: "injected".into(),
                    });
                    d.errors.push(crate::scheduler::CycleError::Compile {
                        job: Some(JobId(0)),
                        detail: "injected".into(),
                    });
                    d.degraded = true;
                }
                d
            }
            fn name(&self) -> &str {
                "degraded-fifo"
            }
        }
        let report = Simulator::new(
            Cluster::uniform(1, 4, 0),
            DegradedFifo { cycles: 0 },
            SimConfig {
                trace: true,
                ..SimConfig::default()
            },
        )
        .run(vec![be_job(0, 0, 1, 10)]);
        assert_eq!(report.metrics.degraded_cycles, 1);
        assert_eq!(report.metrics.solver_errors, 1);
        assert_eq!(report.metrics.compile_errors, 1);
        assert!(report
            .trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::CycleDegraded { .. })));
    }

    fn slow_node_window(node: u32, at: Time, duration: Time, factor: f64) -> FaultPlan {
        let window = script(at, duration, &[node], FaultKind::SlowNode { factor });
        FaultPlan::from_script(&Cluster::uniform(1, 4, 0), &[window])
    }

    #[test]
    fn perf_fault_stretches_runtime_from_launch() {
        // Node 0 runs 2x slow for the whole run; a 1-wide 40s job launched
        // on it takes 80s. Healthy runs of the same job take 40s.
        let config = SimConfig {
            faults: slow_node_window(0, 0, 1000, 2.0),
            strict_accounting: true,
            trace: true,
            ..SimConfig::default()
        };
        let report =
            Simulator::new(Cluster::uniform(1, 4, 0), Fifo, config).run(vec![be_job(0, 0, 1, 40)]);
        assert_eq!(report.outcomes[&JobId(0)].completion().unwrap(), 80);
        assert_eq!(report.metrics.perf_faulted_nodes, 1);
        assert!(report.trace.events().iter().any(|e| matches!(
            e,
            TraceEvent::PerfDegraded {
                factor_pct: 200,
                ..
            }
        )));
    }

    #[test]
    fn mid_run_perf_fault_rebases_progress() {
        // A 40s job starts healthy; at t=20 (half done) its node drops to
        // half speed until t=1000. The remaining half takes 40s: done at 60.
        let config = SimConfig {
            faults: slow_node_window(0, 20, 980, 2.0),
            strict_accounting: true,
            trace: true,
            ..SimConfig::default()
        };
        let report =
            Simulator::new(Cluster::uniform(1, 4, 0), Fifo, config).run(vec![be_job(0, 0, 1, 40)]);
        assert_eq!(report.outcomes[&JobId(0)].completion().unwrap(), 60);
        assert!(report
            .trace
            .for_job(JobId(0))
            .iter()
            .any(|e| matches!(e, TraceEvent::GangRetimed { at: 20, .. })));
    }

    #[test]
    fn perf_fault_recovery_rebases_again() {
        // 40s job; node half-speed over [20, 40): 20s fast (half the work),
        // 20s slow (a quarter), then the last quarter at full speed (10s).
        let config = SimConfig {
            faults: slow_node_window(0, 20, 20, 2.0),
            strict_accounting: true,
            trace: true,
            ..SimConfig::default()
        };
        let report =
            Simulator::new(Cluster::uniform(1, 4, 0), Fifo, config).run(vec![be_job(0, 0, 1, 40)]);
        assert_eq!(report.outcomes[&JobId(0)].completion().unwrap(), 50);
        assert!(report.trace.events().iter().any(|e| matches!(
            e,
            TraceEvent::PerfRecovered {
                node: NodeId(0),
                at: 40
            }
        )));
        // The stale completions queued before each rebase must not fire.
        let completions = report
            .trace
            .for_job(JobId(0))
            .iter()
            .filter(|e| matches!(e, TraceEvent::Completed { .. }))
            .count();
        assert_eq!(completions, 1);
    }

    #[test]
    fn overlapping_perf_windows_compose_by_max() {
        // Two windows on node 0: 2x over [0, 200) and 4x over [16, 48).
        // A 32s job: 16s at 2x (8 units), 32s at 4x (8 units), then 2x
        // again for the remaining 16 units -> 32s -> done at 80.
        let cluster = Cluster::uniform(1, 4, 0);
        let plan = slow_node_window(0, 0, 200, 2.0).merge(slow_node_window(0, 16, 32, 4.0));
        let config = SimConfig {
            faults: plan,
            strict_accounting: true,
            ..SimConfig::default()
        };
        let report = Simulator::new(cluster, Fifo, config).run(vec![be_job(0, 0, 1, 32)]);
        assert_eq!(report.outcomes[&JobId(0)].completion().unwrap(), 80);
        assert_eq!(report.metrics.perf_faulted_nodes, 1);
    }

    #[test]
    fn gang_runs_at_slowest_member_rate() {
        // A 2-wide gang with one member on the slow node is slowed whole.
        let config = SimConfig {
            faults: slow_node_window(1, 0, 1000, 3.0),
            strict_accounting: true,
            ..SimConfig::default()
        };
        let report =
            Simulator::new(Cluster::uniform(1, 4, 0), Fifo, config).run(vec![be_job(0, 0, 2, 20)]);
        assert_eq!(report.outcomes[&JobId(0)].completion().unwrap(), 60);
    }

    #[test]
    fn straggler_is_detected_and_migrated_with_progress_preserved() {
        // Four 1-wide jobs; node 0 is 4x slow (unannounced), so job 0
        // stretches from 20s to 80s while jobs 1-3 (100s) progress
        // normally. Once job 0's lateness ratio crosses the detector
        // threshold it is speculatively migrated. The only free node is
        // node 0 again, so the migration is placement-neutral — which is
        // exactly what makes it a progress-preservation test: completion
        // stays at 80 (a progress-losing restart at t=32 would finish at
        // 112).
        let config = SimConfig {
            faults: slow_node_window(0, 0, 10_000, 4.0),
            stragglers: true,
            strict_accounting: true,
            trace: true,
            ..SimConfig::default()
        };
        let jobs = vec![
            be_job(0, 0, 1, 20),
            be_job(1, 0, 1, 100),
            be_job(2, 0, 1, 100),
            be_job(3, 0, 1, 100),
        ];
        let report = Simulator::new(Cluster::uniform(1, 4, 0), Fifo, config).run(jobs);
        assert_eq!(report.outcomes[&JobId(0)].completion().unwrap(), 80);
        assert!(report.metrics.stragglers_detected >= 1);
        assert!(report.metrics.speculative_migrations >= 1);
        // The per-job budget bounds migrations.
        assert!(report.metrics.speculative_migrations <= 2);
        assert!(report
            .trace
            .for_job(JobId(0))
            .iter()
            .any(|e| matches!(e, TraceEvent::StragglerMigrated { .. })));
        // Healthy cohort members were never flagged.
        for id in 1..4 {
            assert!(report
                .trace
                .for_job(JobId(id))
                .iter()
                .all(|e| !matches!(e, TraceEvent::StragglerMigrated { .. })));
        }
    }

    #[test]
    fn disabled_straggler_defense_never_migrates() {
        let config = SimConfig {
            faults: slow_node_window(0, 0, 10_000, 4.0),
            strict_accounting: true,
            ..SimConfig::default()
        };
        let jobs = vec![
            be_job(0, 0, 1, 20),
            be_job(1, 0, 1, 100),
            be_job(2, 0, 1, 100),
            be_job(3, 0, 1, 100),
        ];
        let report = Simulator::new(Cluster::uniform(1, 4, 0), Fifo, config).run(jobs);
        assert_eq!(report.metrics.stragglers_detected, 0);
        assert_eq!(report.metrics.speculative_migrations, 0);
        assert_eq!(report.outcomes[&JobId(0)].completion().unwrap(), 80);
    }

    #[test]
    fn perf_fault_on_down_node_is_harmless() {
        // Node 0 is down over [10, 50) and perf-degraded over [20, 30):
        // the perf window finds no owner and the run proceeds normally.
        let config = SimConfig {
            faults: one_node_outage(10, 40, 0).merge(slow_node_window(0, 20, 10, 8.0)),
            strict_accounting: true,
            trace: true,
            ..SimConfig::default()
        };
        let report =
            Simulator::new(Cluster::uniform(1, 4, 0), Fifo, config).run(vec![be_job(0, 0, 2, 100)]);
        assert_eq!(report.metrics.be_completed, 1);
        assert_eq!(report.metrics.perf_faulted_nodes, 1);
    }

    #[test]
    fn announced_maintenance_registers_with_ledger() {
        // An announced window is registered before the run starts; the
        // ledger excludes the node from future availability (covered by
        // cluster tests) and the engine still degrades it while active.
        let cluster = Cluster::uniform(1, 4, 0);
        let plan = FaultPlan::maintenance(&cluster, 50, 30, FaultScope::Nodes(vec![NodeId(2)]));
        let config = SimConfig {
            faults: plan,
            strict_accounting: true,
            trace: true,
            ..SimConfig::default()
        };
        let report = Simulator::new(cluster, Fifo, config).run(vec![be_job(0, 0, 1, 200)]);
        assert_eq!(report.metrics.be_completed, 1);
        assert_eq!(report.metrics.perf_faulted_nodes, 1);
        assert!(report.trace.events().iter().any(|e| matches!(
            e,
            TraceEvent::PerfDegraded {
                node: NodeId(2),
                at: 50,
                ..
            }
        )));
    }

    #[test]
    fn ladder_rung_reports_thread_into_metrics_and_trace() {
        /// Reports a rung sequence 0,2,2,1,... through CycleDecisions.
        struct RungFifo {
            cycles: u32,
        }
        impl Scheduler for RungFifo {
            fn cycle(&mut self, ctx: &CycleContext<'_>) -> CycleDecisions {
                let mut d = Fifo.cycle(ctx);
                self.cycles += 1;
                d.ladder_rung = match self.cycles {
                    1 => 0,
                    2 | 3 => 2,
                    _ => 1,
                };
                if d.ladder_rung == 2 {
                    d.anytime_incumbents = 1;
                }
                d
            }
            fn name(&self) -> &str {
                "rung-fifo"
            }
        }
        let report = Simulator::new(
            Cluster::uniform(1, 4, 0),
            RungFifo { cycles: 0 },
            SimConfig {
                trace: true,
                ..SimConfig::default()
            },
        )
        .run(vec![be_job(0, 0, 1, 20)]);
        assert_eq!(report.metrics.ladder_rung, 2);
        assert_eq!(report.metrics.anytime_incumbents, 2);
        // Rung changes (0->2 at cycle 2, 2->1 at cycle 4) are traced.
        let rung_events: Vec<u8> = report
            .trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::LadderRung { rung, .. } => Some(*rung),
                _ => None,
            })
            .collect();
        assert_eq!(rung_events, vec![2, 1]);
    }

    #[test]
    fn abandon_terminates_pending_job() {
        /// Abandons every pending SLO job immediately.
        struct Abandoner;
        impl Scheduler for Abandoner {
            fn cycle(&mut self, ctx: &CycleContext<'_>) -> CycleDecisions {
                CycleDecisions {
                    abandons: ctx.pending.iter().map(|p| p.spec.id).collect(),
                    ..Default::default()
                }
            }
            fn name(&self) -> &str {
                "abandoner"
            }
        }
        let report = Simulator::new(Cluster::uniform(1, 4, 0), Abandoner, SimConfig::default())
            .run(vec![slo_job(0, 0, 2, 10, 100)]);
        assert_eq!(report.metrics.abandoned, 1);
        assert_eq!(report.outcomes[&JobId(0)], JobOutcome::Abandoned { at: 0 });
        assert_eq!(report.metrics.accepted_slo_attainment(), 0.0);
    }
}
