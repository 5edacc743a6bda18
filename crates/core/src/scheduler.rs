//! The TetriSched scheduler: global re-planning with adaptive plan-ahead.
//!
//! Every cycle runs *units* of pending jobs. Global scheduling (Sec. 5) is
//! one unit holding the whole batch: generate → compile → solve → certify →
//! decode. Greedy `TetriSched-NG` (Sec. 6.3) is one unit per job with claims
//! committed between units: generate → evaluate → materialize, where
//! [`evaluate`] reads the job's `max` directly and no model is built, over
//! one free table a cycle that refines each leaf-set shape once.
//! A degradation-ladder rung is the parameter set a unit runs under
//! (`Pipeline::at`).

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use lint::{lint_expr, validate_translation, StrlLintContext};
use tetrisched_cluster::{AllocHandle, Availability, Claims, NodeId, NodeSet, PartitionSet, Time};
use tetrisched_milp::lint::has_errors;
use tetrisched_milp::{
    Diagnostic, ExactBackend, HeuristicBackend, MilpBackend, Severity, Solution, SolveStatus,
    SolverConfig,
};
use tetrisched_sim::{
    select_victims, CycleContext, CycleDecisions, CycleError, JobId, Launch, PendingJob,
    RunningJob, Scheduler, SpanGuard, Telemetry,
};
use tetrisched_strl::{JobClass, StrlExpr};

use crate::compiler::{compile, evaluate, ChosenAlloc, CompileInput, CompiledModel, Evaluation};
use crate::config::TetriSchedConfig;
use crate::generator::{JobRequest, LeafTag, OptionKey, StrlGenerator};
use crate::governor::{Governor, LadderRung};

/// The TetriSched scheduler (all Table 2 configurations).
pub struct TetriSched {
    config: TetriSchedConfig,
    memory: JobMemory,
    /// Global MILP solves attempted so far (drives the chaos knob).
    global_solves: u64,
    /// The degradation-ladder governor; disabled by default, which pins
    /// the ladder at its top rung (global MILP, greedy on failure).
    governor: Governor,
}

/// What the scheduler remembers about pending jobs between cycles.
#[derive(Default)]
struct JobMemory {
    /// Last cycle's chosen option per job, for warm starting (Sec. 3.2.2).
    choices: BTreeMap<JobId, (OptionKey, Time)>,
    /// Consecutive structural failures per job, for quarantine.
    strikes: BTreeMap<JobId, u32>,
}

/// Quarantine threshold: a job whose request fails structurally this many
/// cycles in a row is abandoned.
const MAX_JOB_FAILURES: u32 = 8;

impl JobMemory {
    fn abandon(&mut self, job: JobId, d: &mut CycleDecisions) {
        d.abandons.push(job);
        self.choices.remove(&job);
    }

    /// Records a cycle error. A *structural* failure pinned on one job —
    /// its request does not compile, lint or certify — also takes a
    /// quarantine strike, and at [`MAX_JOB_FAILURES`] the job is abandoned
    /// so it cannot poison every future cycle. Solver errors and missing
    /// incumbents say nothing about the job and take none.
    fn record_job_failure(&mut self, err: CycleError, d: &mut CycleDecisions) {
        let culprit = match &err {
            CycleError::Compile { job, .. } | CycleError::Certificate { job, .. } => *job,
            CycleError::Lint { job, .. } => Some(*job),
            CycleError::Solver { .. } | CycleError::NoSolution { .. } => None,
        };
        d.errors.push(err);
        let Some(job) = culprit else { return };
        let strikes = self.strikes.entry(job).or_insert(0);
        *strikes += 1;
        if *strikes >= MAX_JOB_FAILURES {
            self.strikes.remove(&job);
            self.abandon(job, d);
        }
    }

    /// Builds a warm-start vector reactivating last cycle's choices that
    /// are still present in this cycle's model.
    #[expect(
        clippy::indexing_slicing,
        reason = "ix enumerates tags, which the caller builds with exactly one tag per compiled \
                  leaf"
    )]
    fn warm_start(
        &self,
        compiled: &CompiledModel,
        tags: &[&LeafTag],
        partitions: &PartitionSet,
        view: &Availability,
    ) -> Option<Vec<f64>> {
        let mut picks: Vec<(usize, Vec<(usize, u32)>)> = Vec::new();
        for (ix, tag) in tags.iter().enumerate() {
            if self.choices.get(&tag.job) != Some(&(tag.key, tag.start)) {
                continue;
            }
            // Greedily distribute k over the leaf's classes by availability.
            let leaf = &compiled.leaves[ix];
            let mut classes: Vec<(usize, usize)> = compiled
                .draws(leaf)
                .iter()
                .map(|&(c, _, _)| (view.avail_at(partitions.class(c), tag.start), c))
                .collect();
            classes.sort_by_key(|&(a, c)| (std::cmp::Reverse(a), c));
            let mut remaining = leaf.k;
            let mut counts = Vec::new();
            for (avail, class) in classes {
                if remaining == 0 {
                    break;
                }
                let take = remaining.min(avail as u32);
                if take > 0 {
                    counts.push((class, take));
                    remaining -= take;
                }
            }
            if remaining == 0 {
                picks.push((ix, counts));
            }
        }
        (!picks.is_empty()).then(|| compiled.warm_vector(&picks))
    }
}

/// One open pipeline phase: its telemetry span plus — only when telemetry
/// is enabled, so a disabled registry costs no clock read — the
/// `phase.*_secs` wall-clock histogram, both closed on drop.
struct Phase<'t> {
    span: SpanGuard<'t>,
    timer: Option<(&'t Telemetry, &'static str, Instant)>,
}

impl<'t> Phase<'t> {
    #[expect(
        clippy::disallowed_methods,
        reason = "measurement site: a phase's wall time feeds only its `phase.*_secs` histogram"
    )]
    fn open(telemetry: &'t Telemetry, name: &'static str, hist: &'static str) -> Self {
        Phase {
            span: telemetry.span("sched", name),
            timer: telemetry
                .is_enabled()
                .then(|| (telemetry, hist, Instant::now())),
        }
    }
}

impl Drop for Phase<'_> {
    #[expect(
        clippy::disallowed_methods,
        reason = "measurement site: a phase's wall time feeds only its `phase.*_secs` histogram"
    )]
    fn drop(&mut self) {
        if let Some((telemetry, hist, started)) = self.timer.take() {
            telemetry.observe_wall(hist, started.elapsed().as_secs_f64());
        }
    }
}

/// Relative bump applied to a running job's remaining-time estimate when
/// it overruns its expected completion (Sec. 7.1); at least one cycle.
const ESTIMATE_BUMP: f64 = 0.10;

/// Cap on best-effort gangs preempted per cycle for one urgent SLO job.
const MAX_PREEMPTIONS_PER_CYCLE: usize = 4;

/// Branch-and-bound node budget of the anytime rung's solves.
const ANYTIME_NODE_LIMIT: usize = 64;

impl TetriSched {
    /// Creates a scheduler with the given configuration.
    pub fn new(config: TetriSchedConfig) -> Self {
        TetriSched {
            governor: Governor::new(config.governor.clone()),
            config,
            memory: JobMemory::default(),
            global_solves: 0,
        }
    }

    /// Revises the expected completion of running jobs that overran their
    /// estimate (Sec. 7.1) and returns the cycle's availability snapshot
    /// with those ends applied.
    fn adjust_estimates(&self, ctx: &CycleContext<'_>, d: &mut CycleDecisions) -> Availability {
        let mut revised = Vec::new();
        for r in ctx.running {
            if r.expected_end <= ctx.now {
                let span = r.expected_end.saturating_sub(r.started).max(1);
                let bump =
                    ((span as f64 * ESTIMATE_BUMP).ceil() as u64).max(self.config.cycle_period);
                let new_end = ctx.now + bump;
                d.revised_ends.push((r.id, new_end));
                revised.push((AllocHandle(r.id.0), new_end));
            }
        }
        ctx.ledger.availability(&revised)
    }

    /// Selects the cycle's batch in priority order, abandoning SLO jobs
    /// that can no longer meet their deadline even in the best case.
    fn select_batch<'p>(
        &mut self,
        ctx: &CycleContext<'p>,
        d: &mut CycleDecisions,
    ) -> Vec<&'p PendingJob> {
        let mut batch: Vec<&PendingJob> = Vec::new();
        for p in ctx.pending {
            if let Some(deadline) = p.spec.deadline {
                // Estimates can be wrong in either direction (Sec. 7.1), so
                // a job is only abandoned once even a *heavily
                // over-estimated* runtime (2x the truth) could not fit its
                // deadline. Between the estimate not fitting and this
                // point, the generator emits a low-value "last chance"
                // replica instead of dropping the job.
                let best_dur = p.spec.estimated_runtime_for(self.config.heterogeneity);
                if ctx.now + best_dur.div_ceil(2) > deadline {
                    self.memory.abandon(p.spec.id, d);
                    continue;
                }
            }
            batch.push(p);
        }
        // The paper's three priority FIFOs (Sec. 6.3).
        batch.sort_by_key(|p| match p.class {
            JobClass::SloAccepted => 0,
            JobClass::SloNoReservation => 1,
            JobClass::BestEffort => 2,
        });
        batch.truncate(self.config.max_batch);
        batch
    }

    /// Runs one cycle at the governor's current ladder rung: the global
    /// unit at that rung's parameters ([`Pipeline::at`]), or — on the
    /// Greedy floor rung, degraded by design — job-at-a-time placement.
    /// A rung whose global unit fails still falls through to greedy
    /// *within* the cycle, so the cluster keeps moving, and the failure
    /// votes for a demotion. The governor is fed the cycle's deterministic
    /// solver work, never wall-clock time, so rung trajectories replay
    /// under the same seed. A disabled governor pins the rung at Full:
    /// the pre-ladder global-or-greedy fallback.
    fn cycle_ladder(
        &mut self,
        ctx: &CycleContext<'_>,
        view: &Availability,
        batch: &[&PendingJob],
        d: &mut CycleDecisions,
    ) {
        let (config, memory) = (&self.config, &mut self.memory);
        let full = Pipeline::at(LadderRung::Full, config, &self.governor, ctx, view);
        if !config.global {
            // `TetriSched-NG`: greedy by configuration, not by degradation.
            return full.cycle_greedy(batch, memory, d);
        }
        let rung = self.governor.rung();
        self.governor.stamp(d);
        let failed = rung != LadderRung::Greedy
            && !Pipeline::at(rung, config, &self.governor, ctx, view).cycle_global(
                batch,
                memory,
                &mut self.global_solves,
                d,
            );
        if failed || rung == LadderRung::Greedy {
            d.degraded = true;
            full.cycle_greedy(batch, memory, d);
        }
        self.governor.observe(d.solver_work_units, failed);
    }

    /// Opt-in extension (the paper's stated future work, Sec. 7.2):
    /// preempt best-effort gangs when an *urgent* accepted-SLO job — one
    /// that must start within the next cycle to meet its deadline — was
    /// left unscheduled for lack of capacity. Victims lose their progress
    /// and requeue; the freed nodes serve the urgent job at the next
    /// cycle's re-plan.
    fn maybe_preempt(&self, ctx: &CycleContext<'_>, batch: &[&PendingJob], d: &mut CycleDecisions) {
        let launched: BTreeSet<JobId> = d.launches.iter().map(|l| l.job).collect();
        let launched_nodes: usize = d.launches.iter().map(|l| l.nodes.len()).sum();
        let free_remaining = ctx.ledger.free_nodes().len().saturating_sub(launched_nodes);

        // The most urgent unscheduled accepted-SLO job, if any.
        let cycle = self.config.cycle_period;
        let urgent = batch
            .iter()
            .filter(|p| {
                p.class == JobClass::SloAccepted
                    && !launched.contains(&p.spec.id)
                    && !d.abandons.contains(&p.spec.id)
            })
            .filter(|p| {
                let deadline = p.spec.deadline.unwrap_or(Time::MAX);
                let dur = p.spec.estimated_runtime_for(self.config.heterogeneity);
                let latest_start = deadline.saturating_sub(dur);
                // Urgent: waiting two more cycles would blow the deadline —
                // but a launch at the *next* cycle (after this cycle's
                // preemption frees nodes) still makes it.
                latest_start <= ctx.now + 2 * cycle && ctx.now + cycle + dur <= deadline
            })
            .min_by_key(|p| p.spec.deadline);
        let Some(job) = urgent else { return };
        let need = (job.spec.k as usize).saturating_sub(free_remaining);
        if need == 0 {
            return;
        }

        // Victims: best-effort gangs, most recently started first.
        let candidates: Vec<&RunningJob> = ctx
            .running
            .iter()
            .filter(|r| r.class == JobClass::BestEffort && !d.preemptions.contains(&r.id))
            .collect();
        let victims = select_victims(&candidates, need);
        if let Some(victims) = victims.filter(|v| v.len() <= MAX_PREEMPTIONS_PER_CYCLE) {
            d.preemptions.extend(victims.iter().map(|v| v.id));
        }
    }
}

/// One cycle's pipeline: what its four steps read — the cycle context, the
/// estimate-adjusted availability view and the three parameters a ladder
/// rung sets. The state they write (job memory, decisions) is passed in.
struct Pipeline<'a> {
    /// The configuration as given, except for `plan_ahead` on the
    /// reduced-horizon rung.
    config: Cow<'a, TetriSchedConfig>,
    /// Budget, gap and audit settings of every solve.
    solver: SolverConfig,
    /// The anytime rung's contract: a budget-expired incumbent is used
    /// with its dual bound (and, under audit, its certificate) and counted.
    anytime: bool,
    ctx: &'a CycleContext<'a>,
    view: &'a Availability,
}

impl<'a> Pipeline<'a> {
    /// The pipeline as run at `rung`. A rung is a parameter set, not a code
    /// path: reduced horizon shrinks the plan-ahead window (a smaller model
    /// for less foresight), anytime swaps in an incumbent-only solver
    /// budget, and the other rungs run the configuration as given. The
    /// scheduler's own configuration is never written.
    fn at(
        rung: LadderRung,
        config: &'a TetriSchedConfig,
        governor: &Governor,
        ctx: &'a CycleContext<'a>,
        view: &'a Availability,
    ) -> Self {
        let anytime = rung == LadderRung::Anytime;
        let mut solver = SolverConfig::online(config.solver_time_limit)
            .with_rel_gap(config.solver_gap)
            .with_audit(config.certify_solves);
        if anytime {
            solver = solver.with_node_limit(ANYTIME_NODE_LIMIT);
        }
        let config = if rung == LadderRung::ReducedHorizon {
            let plan_ahead = governor.reduced_horizon(config.plan_ahead, config.cycle_period);
            Cow::Owned(TetriSchedConfig {
                plan_ahead,
                ..config.clone()
            })
        } else {
            Cow::Borrowed(config)
        };
        Pipeline {
            config,
            solver,
            anytime,
            ctx,
            view,
        }
    }

    fn phase(&self, name: &'static str, hist: &'static str) -> Phase<'a> {
        Phase::open(self.ctx.telemetry, name, hist)
    }

    /// Step 1 — generate: expands a unit's pending jobs into STRL
    /// requests, abandoning SLO jobs left with no satisfiable replica,
    /// then (under `lint_models`) rejects and strikes every request whose
    /// expression fails semantic analysis, so a bad expression never
    /// reaches the compiler or solver.
    fn request(
        &self,
        jobs: &[&PendingJob],
        memory: &mut JobMemory,
        d: &mut CycleDecisions,
    ) -> Vec<JobRequest> {
        let now = self.ctx.now;
        let generator = StrlGenerator::new(&self.config, self.ctx.cluster);
        let rack_avail = |s: &NodeSet| self.view.avail_at(s, now);
        let gen = self.phase("strl_gen", "phase.strl_gen_secs");
        let mut requests = Vec::new();
        for p in jobs {
            let req = generator.job_expr(p, now, &rack_avail);
            if req.is_schedulable() {
                requests.push(req);
            } else if p.spec.deadline.is_some() {
                memory.abandon(p.spec.id, d);
            }
        }
        gen.span.arg("requests", requests.len() as u64);
        drop(gen);
        if self.config.lint_models {
            let _lint = self.phase("lint", "phase.lint_secs");
            // Leaves must start inside the window the compiler discretizes.
            let window = StrlLintContext {
                now,
                window_end: Some(now + self.config.n_slices() as u64 * self.config.cycle_period),
            };
            requests.retain(|r| {
                let gate = lint_gate(&lint_expr(&r.expr, &window), r.job);
                gate.map_err(|e| memory.record_job_failure(e, d)).is_ok()
            });
        }
        requests
    }

    /// Step 2 — compile: refines the leaf equivalence sets of `expr` (the
    /// `sum` of a batch, or one request compiled alone to find a culprit)
    /// into partition classes and compiles it against `avail`
    /// (Algorithm 1). A failure is pinned on `job` when the expression is
    /// that job's alone.
    fn compile_requests(
        &self,
        expr: &StrlExpr,
        job: Option<JobId>,
        avail: &dyn Fn(&NodeSet, Time) -> usize,
    ) -> Result<(CompiledModel, PartitionSet), CycleError> {
        let phase = self.phase("compile", "phase.compile_secs");
        let mut leaf_sets = Vec::new();
        expr.visit(&mut |node| {
            if let StrlExpr::NCk { set, .. } | StrlExpr::LnCk { set, .. } = node {
                leaf_sets.push(set.clone());
            }
        });
        let partitions = PartitionSet::refine(self.ctx.cluster.num_nodes(), &leaf_sets);
        let input = CompileInput {
            expr,
            partitions: &partitions,
            now: self.ctx.now,
            quantum: self.config.cycle_period,
            n_slices: self.config.n_slices(),
        };
        let compiled = compile(&input, avail).map_err(|e| CycleError::Compile {
            job,
            detail: e.to_string(),
        })?;
        phase.span.arg("vars", compiled.model.num_vars() as u64);
        phase
            .span
            .arg("constraints", compiled.model.num_constraints() as u64);
        phase.span.arg("leaves_dead", compiled.leaves_dead as u64);
        phase
            .span
            .arg("supply_rows_dropped", compiled.supply_rows_dropped as u64);
        Ok((compiled, partitions))
    }

    /// Step 3 — solve and certify the global unit: solves the compiled
    /// model, accounts the solver's statistics and self-certificates, and
    /// validates the translation (C004) by re-evaluating `expr` under the
    /// decoded placement. No model lint runs first: a compiled model is
    /// feasible at x = 0, so no propagation can refute it (were one
    /// infeasible, the solve would refute it). An `Err` means no
    /// trustworthy schedule; what happens next is the caller's policy.
    /// `warm` is `Some` when the unit warm starts (holding the warm point,
    /// if one survived), so hits and misses count only then.
    #[expect(
        clippy::disallowed_methods,
        reason = "measurement site: `solver_time` is reported, and the solve stops on work units"
    )]
    fn solve_compiled(
        &self,
        expr: &StrlExpr,
        compiled: &CompiledModel,
        warm: Option<Option<&[f64]>>,
        d: &mut CycleDecisions,
    ) -> Result<Solution, CycleError> {
        let phase = self.phase("solve", "phase.solve_secs");
        let backend: Box<dyn MilpBackend> = if self.config.solver_heuristic {
            Box::new(HeuristicBackend::new(self.solver.clone()))
        } else {
            Box::new(ExactBackend::new(self.solver.clone()))
        };
        let started = Instant::now();
        let sol = backend.solve(&compiled.model, warm.flatten());
        d.solver_time += started.elapsed();
        let sol = sol.map_err(|e| CycleError::Solver {
            detail: e.to_string(),
        })?;
        let stats = &sol.stats;
        phase.span.arg("lp_iterations", stats.lp_iterations as u64);
        phase.span.arg("lp_resolves", stats.lp_resolves as u64);
        phase.span.arg("dive_lps", stats.dive_lp_solves as u64);
        phase.span.arg("bb_nodes", stats.nodes as u64);
        phase.span.arg("bb_nodes_pruned", stats.nodes_pruned as u64);
        drop(phase);
        // The ladder governor's deterministic load signal: the unit the
        // solver's own work budget counts (never wall-clock).
        d.solver_work_units += stats.work_units();
        let telemetry = self.ctx.telemetry;
        for (counter, n) in [
            ("milp.lp_iterations", stats.lp_iterations),
            ("milp.lp_solves", stats.lp_solves),
            ("milp.lp_resolves", stats.lp_resolves),
            ("milp.dive_lp_solves", stats.dive_lp_solves),
            ("milp.root_closed", usize::from(stats.root_closed)),
            ("milp.refactorizations", stats.refactorizations),
            ("milp.bb_nodes", stats.nodes),
            ("milp.bb_nodes_pruned", stats.nodes_pruned),
        ] {
            telemetry.counter_add(counter, n as u64);
        }
        // A hit: the solver accepted the warm incumbent. A miss: warm
        // starting was on but no warm point survived.
        if warm.is_some() && stats.warm_start_used {
            d.warm_start_hits += 1;
            telemetry.counter_add("sched.warm_start_hits", 1);
        } else if warm.is_some() {
            d.warm_start_misses += 1;
            telemetry.counter_add("sched.warm_start_misses", 1);
        }
        if self.anytime && sol.status == SolveStatus::Feasible {
            d.anytime_incumbents += 1;
        }
        // Proof-carrying solves: the backend self-certified its outcome
        // (primal check + bound-tree audit replay). A failed certificate
        // means the claimed schedule cannot be trusted.
        d.certificates_verified += stats.certificates_verified;
        if stats.certificate_failures > 0 {
            d.certificate_failures += stats.certificate_failures;
            let n = stats.certificate_failures;
            return Err(CycleError::Certificate {
                job: None,
                detail: format!("global solve failed {n} certificate check(s)"),
            });
        }
        if !sol.status.has_solution() {
            return Err(CycleError::NoSolution {
                detail: format!("{:?}", sol.status),
            });
        }
        let granted = || compiled.granted(&sol);
        self.certify(expr, granted, sol.objective, stats.best_bound, None, d)?;
        Ok(sol)
    }

    /// Translation validation (C004) under `certify_solves`: `expr`, valued
    /// under the per-leaf grants `granted` yields, must match the claimed
    /// `objective` and stay under `bound`. A failure is pinned on `job` when
    /// the expression is that job's alone.
    fn certify(
        &self,
        expr: &StrlExpr,
        granted: impl FnOnce() -> Vec<u32>,
        objective: f64,
        bound: f64,
        job: Option<JobId>,
        d: &mut CycleDecisions,
    ) -> Result<(), CycleError> {
        if !self.config.certify_solves {
            return Ok(());
        }
        let _certify = self.phase("certify", "phase.certify_secs");
        match validate_translation(expr, &granted(), objective, bound) {
            Ok(_) => {
                d.certificates_verified += 1;
                Ok(())
            }
            Err(diag) => {
                d.certificate_failures += 1;
                let detail = diag.to_string();
                Err(CycleError::Certificate { job, detail })
            }
        }
    }

    /// Step 4 — decode: turns one gang's chosen per-class counts into
    /// concrete nodes drawn (lowest id first) from `free`, the caller's
    /// view of what may be claimed; picked nodes leave `free`. `None` when
    /// `free` cannot supply the whole gang.
    fn materialize(
        allocs: &[ChosenAlloc],
        partitions: &PartitionSet,
        free: &mut NodeSet,
    ) -> Option<Vec<NodeId>> {
        let mut nodes = Vec::new();
        let mut gang = 0usize;
        for &(class, count) in allocs.iter().flat_map(|c| &c.counts) {
            gang += count as usize;
            let picked = free.and(partitions.class(class)).take(count as usize);
            for n in &picked {
                free.remove(*n);
            }
            nodes.extend(picked);
        }
        (nodes.len() == gang).then_some(nodes)
    }

    /// Global scheduling (Sec. 5): the whole batch is one unit — the `sum`
    /// of its requests in one MILP, warm-started from last cycle's choices
    /// — and only gangs chosen to start *now* launch; deferred placements
    /// are plans, re-evaluated next cycle. Failure policy: jobs whose
    /// requests fail to compile are isolated (by compiling each alone),
    /// struck and dropped, and the rest retry; any other failure returns
    /// `false` and the caller degrades the cycle. Nothing to place succeeds.
    #[expect(
        clippy::indexing_slicing,
        reason = "leaf indices in ChosenAlloc come from the compiler's own leaves vector, tags is \
                  built leaf-for-leaf with it, and by_job groups are non-empty by construction"
    )]
    fn cycle_global(
        &self,
        batch: &[&PendingJob],
        memory: &mut JobMemory,
        solves: &mut u64,
        d: &mut CycleDecisions,
    ) -> bool {
        let now = self.ctx.now;
        let mut active = self.request(batch, memory, d);
        if active.is_empty() {
            return true;
        }
        let avail = |set: &NodeSet, t: Time| self.view.avail_at(set, t);
        let (aggregate, compiled, partitions) = loop {
            let aggregate = StrlExpr::Sum(active.iter().map(|r| r.expr.clone()).collect());
            let agg_err = match self.compile_requests(&aggregate, None, &avail) {
                Ok((compiled, partitions)) => break (aggregate, compiled, partitions),
                Err(e) => e,
            };
            let before = active.len();
            active.retain(|r| {
                let alone = self.compile_requests(&r.expr, Some(r.job), &avail);
                alone.map_err(|e| memory.record_job_failure(e, d)).is_ok()
            });
            if active.len() == before {
                d.errors.push(agg_err); // All compile alone: nobody to quarantine.
            }
            if active.len() == before || active.is_empty() {
                return false;
            }
        };
        // Every surviving job compiled: clear its quarantine strikes.
        for r in &active {
            memory.strikes.remove(&r.job);
        }
        let tags: Vec<&LeafTag> = active.iter().flat_map(|r| &r.tags).collect();
        let warm = (self.config.warm_start)
            .then(|| memory.warm_start(&compiled, &tags, &partitions, self.view));
        *solves += 1;
        let solved = if self.config.chaos_global_solve_failures.contains(solves) {
            // The chaos knob: this solve fails as if the solver had errored.
            let detail = format!("chaos-injected failure of global solve #{solves}");
            Err(CycleError::Solver { detail })
        } else {
            let warm = warm.as_ref().map(|w| w.as_deref());
            self.solve_compiled(&aggregate, &compiled, warm, d)
        };
        let sol = match solved {
            Ok(sol) => sol,
            Err(e) => {
                d.errors.push(e);
                return false;
            }
        };

        let decode = self.phase("decode", "phase.decode_secs");
        // Stale cache entries for batch jobs die; chosen ones re-enter.
        for tag in &tags {
            memory.choices.remove(&tag.job);
        }
        // Group chosen leaves by job: a `min`-encoded option (availability
        // legs) satisfies several leaves that together form one gang.
        let mut by_job: BTreeMap<JobId, Vec<ChosenAlloc>> = BTreeMap::new();
        for c in compiled.chosen(&sol) {
            by_job.entry(tags[c.leaf].job).or_default().push(c);
        }
        let mut free = self.ctx.ledger.free_nodes().clone();
        for (job, allocs) in by_job {
            let tag = tags[allocs[0].leaf];
            debug_assert!(
                allocs.iter().all(|c| tags[c.leaf].start == tag.start),
                "legs of one option must share a start"
            );
            memory.choices.insert(job, (tag.key, tag.start));
            if tag.start != now {
                continue; // A deferred plan, re-evaluated next cycle.
            }
            // The slice-0 supply constraints guarantee the per-class
            // counts fit the currently free nodes.
            let nodes = Self::materialize(&allocs, &partitions, &mut free);
            debug_assert!(nodes.is_some(), "supply violated");
            if let Some(nodes) = nodes {
                d.launches.push(Launch {
                    job,
                    nodes,
                    expected_end: now + tag.dur,
                });
            }
        }
        decode.span.arg("launches", d.launches.len() as u64);
        true
    }

    /// Greedy (`TetriSched-NG`) scheduling (Sec. 6.3): one unit per job in
    /// priority order, all reading one [`FreeTable`]: the cycle's
    /// availability minus the space-time claims committed by earlier units,
    /// deferred ones included — saturating, because a node claimed now and
    /// inside a later announced window is missing from the view and still
    /// counted in the claims. Units of one leaf-set shape share its refined
    /// classes and its counts. Failure policy: an `Err` costs only that job
    /// its turn (and, when structural, a strike); the rest of the batch
    /// still schedules. The unit builds no model, so the floor rung adds no
    /// solver work.
    #[expect(
        clippy::indexing_slicing,
        reason = "the chosen leaf indexes the tags of the request it was evaluated from"
    )]
    fn cycle_greedy(&self, batch: &[&PendingJob], memory: &mut JobMemory, d: &mut CycleDecisions) {
        let (now, cluster) = (self.ctx.now, self.ctx.cluster);
        let greedy = self.phase("greedy", "phase.greedy_secs");
        greedy.span.arg("batch", batch.len() as u64);
        let mut table = FreeTable::new(
            self.view,
            cluster.num_nodes(),
            now,
            self.config.cycle_period,
            self.config.n_slices(),
        );
        let (all_nodes, mut assigned_now) = (cluster.all_nodes(), cluster.empty_set());
        for p in batch {
            let job = p.spec.id;
            let Some(req) = self.request(std::slice::from_ref(p), memory, d).pop() else {
                continue;
            };
            let phase = self.phase("evaluate", "phase.evaluate_secs");
            phase.span.arg("leaves", req.tags.len() as u64);
            let shape = table.shape(&req.expr);
            let avail = |set: &NodeSet, t: Time| table.avail(shape, set, t);
            let partitions = table.partitions(shape);
            let evaluation = match self.evaluate_request(&req, partitions, &avail, d) {
                Ok(evaluation) => evaluation,
                Err(e) => {
                    memory.record_job_failure(e, d);
                    continue;
                }
            };
            phase.span.arg("dead", evaluation.leaves_dead as u64);
            let chosen = evaluation.chosen;
            memory.strikes.remove(&job);
            memory.choices.remove(&job);

            let launched = 'place: {
                // All chosen leaves belong to this one job (possibly several
                // `min` legs of an anti-affine option sharing one start).
                let Some(first) = chosen.first() else {
                    break 'place false;
                };
                let tag = &req.tags[first.leaf];
                let end = tag.start + tag.dur;
                memory.choices.insert(job, (tag.key, tag.start));
                let mut free = self
                    .view
                    .free_at(&all_nodes, tag.start)
                    .minus(&assigned_now)
                    .minus(&table.claims.held_over(tag.start, end));
                let Some(nodes) = Self::materialize(&chosen, partitions, &mut free) else {
                    break 'place false; // Not materialized; re-plan next cycle.
                };
                let held = NodeSet::from_ids(cluster.num_nodes(), nodes.iter().copied());
                table.claim(&held, tag.start, end);
                if tag.start != now {
                    break 'place false;
                }
                assigned_now.or_with(&held);
                d.launches.push(Launch {
                    job,
                    nodes,
                    expected_end: end,
                });
                true
            };
            phase.span.arg("launched", u64::from(launched));
        }
    }

    /// The greedy unit's choice: evaluates the request's `max` over its
    /// shape's `partitions` against `avail` without a model ([`evaluate`]).
    /// Under `certify_solves` the choice is translation-validated (C004),
    /// its value both objective and bound. Every failure is the job's own.
    fn evaluate_request(
        &self,
        req: &JobRequest,
        partitions: &PartitionSet,
        avail: &dyn Fn(&NodeSet, Time) -> usize,
        d: &mut CycleDecisions,
    ) -> Result<Evaluation, CycleError> {
        let input = CompileInput {
            expr: &req.expr,
            partitions,
            now: self.ctx.now,
            quantum: self.config.cycle_period,
            n_slices: self.config.n_slices(),
        };
        let job = Some(req.job);
        let evaluation = evaluate(&input, avail).map_err(|e| CycleError::Compile {
            job,
            detail: e.to_string(),
        })?;
        let granted = || {
            let mut granted = vec![0; req.tags.len()];
            for c in &evaluation.chosen {
                if let Some(g) = granted.get_mut(c.leaf) {
                    *g = c.counts.iter().map(|&(_, n)| n).sum();
                }
            }
            granted
        };
        let value = evaluation.value;
        self.certify(&req.expr, granted, value, value, job, d)?;
        Ok(evaluation)
    }
}

/// The greedy cycle's free table: what each (class, slice) cell of a leaf-set
/// shape has free, net of the claims the cycle's units have made, read once
/// per cycle rather than once per unit.
///
/// A *shape* is a request's distinct leaf-set storages in visit order. It is
/// refined once, when a unit first brings it, and every later unit of that
/// shape borrows the same [`PartitionSet`]; refine is deterministic, so the
/// classes and their order are what refining per unit gave. A cell holds two
/// counts, both read when a unit first asks for it: `A`, the view's
/// availability of the class at the slice's time, and `C`, the nodes of the
/// class claimed then. A claim adds its share of each class to `C` in every
/// cell already read whose time it holds. The sum is exact because claims
/// that overlap in time are node-disjoint ([`Claims::claim`]). A unit reads
/// `A − C`, saturating, which is `avail_at` minus `held_at` as of that read.
struct FreeTable<'a> {
    view: &'a Availability,
    /// Every claim of the cycle, for the first read of a cell and for the
    /// nodes a gang may take (`held_over`).
    claims: Claims,
    num_nodes: usize,
    now: Time,
    quantum: u64,
    n_slices: usize,
    shapes: Vec<Shape>,
    /// The distinct leaf sets of the request being matched, kept for reuse.
    sets: Vec<NodeSet>,
}

/// One leaf-set shape of a [`FreeTable`]: its sets (clones sharing their
/// storage), their refinement and its cells.
struct Shape {
    sets: Vec<NodeSet>,
    partitions: PartitionSet,
    /// `(A, C)` of class `c` in slice `s` at `c * n_slices + s`, `None`
    /// until read.
    cells: Vec<Cell<Option<(usize, usize)>>>,
}

impl<'a> FreeTable<'a> {
    fn new(
        view: &'a Availability,
        num_nodes: usize,
        now: Time,
        quantum: u64,
        n_slices: usize,
    ) -> Self {
        FreeTable {
            view,
            claims: Claims::new(num_nodes),
            num_nodes,
            now,
            quantum: quantum.max(1),
            n_slices: n_slices.max(1),
            shapes: Vec::new(),
            sets: Vec::new(),
        }
    }

    /// The shape of `expr`: its distinct leaf-set storages, in visit order,
    /// found among the shapes met so far or refined now.
    fn shape(&mut self, expr: &StrlExpr) -> usize {
        let sets = &mut self.sets;
        sets.clear();
        expr.visit(&mut |node| {
            if let StrlExpr::NCk { set, .. } | StrlExpr::LnCk { set, .. } = node {
                if !sets.iter().any(|s| s.shares_storage(set)) {
                    sets.push(set.clone());
                }
            }
        });
        let same = |shape: &Shape| {
            shape.sets.len() == sets.len()
                && shape
                    .sets
                    .iter()
                    .zip(sets.iter())
                    .all(|(a, b)| a.shares_storage(b))
        };
        if let Some(at) = self.shapes.iter().position(same) {
            return at;
        }
        let partitions = PartitionSet::refine(self.num_nodes, sets);
        let cells = vec![Cell::new(None); partitions.len() * self.n_slices];
        self.shapes.push(Shape {
            sets: std::mem::take(sets),
            partitions,
            cells,
        });
        self.shapes.len() - 1
    }

    /// The classes every unit of `shape` reads and draws from.
    #[expect(
        clippy::indexing_slicing,
        reason = "`shape` comes from `FreeTable::shape`"
    )]
    fn partitions(&self, shape: usize) -> &PartitionSet {
        &self.shapes[shape].partitions
    }

    /// Expected free nodes of `set` at `t` for a unit of `shape`: from the
    /// table when `set` is one of its classes and `t` a slice's time, as
    /// every read of `evaluate` is; read directly otherwise.
    #[expect(
        clippy::indexing_slicing,
        reason = "`shape` comes from `FreeTable::shape`, and the cell of a class of it at a slice \
                  below n_slices is in `cells`"
    )]
    fn avail(&self, shape: usize, set: &NodeSet, t: Time) -> usize {
        let shape = &self.shapes[shape];
        let class = shape
            .partitions
            .classes()
            .iter()
            .position(|c| c.shares_storage(set));
        let slice = t.checked_sub(self.now).and_then(|rel| {
            let slice = rel / self.quantum;
            let on_grid = slice * self.quantum == rel && slice < self.n_slices as u64;
            on_grid.then_some(slice as usize)
        });
        let (avail, claimed) = match (class, slice) {
            (Some(class), Some(slice)) => {
                let cell = &shape.cells[class * self.n_slices + slice];
                let counts = cell.get().unwrap_or_else(|| self.read(set, t));
                cell.set(Some(counts));
                counts
            }
            _ => self.read(set, t),
        };
        avail.saturating_sub(claimed)
    }

    /// `A` and `C` of `set` at `t`, read from the view and the claims.
    fn read(&self, set: &NodeSet, t: Time) -> (usize, usize) {
        (
            self.view.avail_at(set, t),
            self.claims.held_at(t).and_len(set),
        )
    }

    /// Claims `held` over `[start, end)` and adds its share of each class
    /// to the cells already read at a time in that span.
    fn claim(&mut self, held: &NodeSet, start: Time, end: Time) {
        self.claims.claim(held, start, end);
        let slice_at = |t: Time| t.saturating_sub(self.now).div_ceil(self.quantum) as usize;
        let slices = slice_at(start)..slice_at(end).min(self.n_slices);
        for shape in &self.shapes {
            let rows = shape.cells.chunks_exact(self.n_slices);
            for (row, nodes) in rows.zip(shape.partitions.classes()) {
                let share = held.and_len(nodes);
                if share == 0 {
                    continue;
                }
                for cell in row.get(slices.clone()).into_iter().flatten() {
                    if let Some((avail, claimed)) = cell.get() {
                        cell.set(Some((avail, claimed + share)));
                    }
                }
            }
        }
    }
}

impl Scheduler for TetriSched {
    fn on_complete(&mut self, job: JobId, _now: Time) {
        self.memory.choices.remove(&job);
        self.memory.strikes.remove(&job);
    }

    fn on_evict(&mut self, job: JobId, _now: Time) {
        // The cached choice may point at nodes that are now down; force a
        // fresh plan when the job returns from backoff.
        self.memory.choices.remove(&job);
    }

    fn cycle(&mut self, ctx: &CycleContext<'_>) -> CycleDecisions {
        let mut d = CycleDecisions::default();
        let collect = Phase::open(ctx.telemetry, "collect", "phase.collect_secs");
        let view = self.adjust_estimates(ctx, &mut d);
        let batch = self.select_batch(ctx, &mut d);
        collect.span.arg("batch", batch.len() as u64);
        drop(collect);
        if batch.is_empty() {
            if self.config.global {
                // An idle cycle is a vote of confidence: zero solver work
                // lets the governor climb back toward the full MILP.
                self.governor.stamp(&mut d);
                self.governor.observe(0, false);
            }
            return d;
        }
        self.cycle_ladder(ctx, &view, &batch, &mut d);
        if self.config.preemption {
            self.maybe_preempt(ctx, &batch, &mut d);
        }
        d
    }

    fn name(&self) -> &str {
        self.config.variant_name()
    }
}

/// The STRL lint gate: `Err`, pinned on `job`, iff `diags` (the findings on
/// that job's expression) holds an Error-severity diagnostic, rendered on
/// one line.
fn lint_gate(diags: &[Diagnostic], job: JobId) -> Result<(), CycleError> {
    if !has_errors(diags) {
        return Ok(());
    }
    let errors = diags.iter().filter(|d| d.severity >= Severity::Error);
    let detail = errors.map(|d| d.to_string()).collect::<Vec<_>>().join("; ");
    Err(CycleError::Lint { job, detail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrisched_cluster::{Cluster, Ledger};
    use tetrisched_sim::{JobOutcome, JobSpec, JobType, SimConfig, Simulator};

    fn job(
        id: u64,
        submit: Time,
        job_type: JobType,
        k: u32,
        runtime: u64,
        slowdown: f64,
        deadline: Option<Time>,
    ) -> JobSpec {
        JobSpec {
            id: JobId(id),
            submit,
            job_type,
            k,
            base_runtime: runtime,
            slowdown,
            deadline,
            estimate_error: 0.0,
        }
    }

    fn run(
        cluster: Cluster,
        config: TetriSchedConfig,
        jobs: Vec<JobSpec>,
    ) -> tetrisched_sim::SimReport {
        let cycle_period = config.cycle_period;
        Simulator::new(
            cluster,
            TetriSched::new(config),
            SimConfig {
                cycle_period,
                trace: true,
                ..SimConfig::default()
            },
        )
        .run(jobs)
    }

    #[test]
    fn single_unconstrained_job_runs_immediately() {
        let report = run(
            Cluster::uniform(1, 4, 0),
            TetriSchedConfig::full(16),
            vec![job(0, 0, JobType::Unconstrained, 2, 20, 1.0, None)],
        );
        assert_eq!(
            report.outcomes[&JobId(0)],
            JobOutcome::Completed {
                at: 20,
                preferred: true
            }
        );
    }

    #[test]
    fn gpu_job_lands_on_gpu_nodes() {
        // 2 GPU nodes among 8; heterogeneity-aware placement must pick them.
        let report = run(
            Cluster::uniform(4, 2, 1),
            TetriSchedConfig::full(16),
            vec![job(0, 0, JobType::Gpu, 2, 30, 2.0, Some(200))],
        );
        assert_eq!(
            report.outcomes[&JobId(0)],
            JobOutcome::Completed {
                at: 30,
                preferred: true
            }
        );
    }

    #[test]
    fn mpi_job_lands_rack_local() {
        let report = run(
            Cluster::uniform(4, 4, 0),
            TetriSchedConfig::full(16),
            vec![job(0, 0, JobType::Mpi, 3, 30, 2.0, Some(200))],
        );
        assert_eq!(
            report.outcomes[&JobId(0)],
            JobOutcome::Completed {
                at: 30,
                preferred: true
            }
        );
    }

    #[test]
    fn availability_job_spreads_across_racks() {
        // 4 racks x 2; a 3-replica availability job must land on three
        // distinct racks (the `min`-compiled anti-affine option).
        let report = run(
            Cluster::uniform(4, 2, 0),
            TetriSchedConfig::full(16),
            vec![job(0, 0, JobType::Availability, 3, 30, 2.0, Some(200))],
        );
        assert_eq!(
            report.outcomes[&JobId(0)],
            JobOutcome::Completed {
                at: 30,
                preferred: true
            }
        );
    }

    #[test]
    fn availability_job_colocates_when_racks_busy() {
        // Only 2 racks: a 3-replica spread is impossible, so the job falls
        // back to the slowed anywhere-placement.
        let report = run(
            Cluster::uniform(2, 4, 0),
            TetriSchedConfig::full(16),
            vec![job(0, 0, JobType::Availability, 3, 30, 2.0, Some(200))],
        );
        assert_eq!(
            report.outcomes[&JobId(0)],
            JobOutcome::Completed {
                at: 60,
                preferred: false
            }
        );
    }

    #[test]
    fn availability_greedy_variant_also_spreads() {
        let report = run(
            Cluster::uniform(4, 2, 0),
            TetriSchedConfig::no_global(16),
            vec![job(0, 0, JobType::Availability, 3, 30, 2.0, Some(200))],
        );
        assert_eq!(
            report.outcomes[&JobId(0)],
            JobOutcome::Completed {
                at: 30,
                preferred: true
            }
        );
    }

    #[test]
    fn nh_config_ignores_preferences() {
        // Under NH the GPU job draws from the whole cluster with the
        // conservative slowed estimate; with only 2 GPU nodes in 8 and the
        // deterministic lowest-id node pick, the job may or may not land on
        // GPUs, but its *expected* duration is always the slowed one. Here
        // we only assert it completes (placement-agnostic).
        let report = run(
            Cluster::uniform(4, 2, 1),
            TetriSchedConfig::no_heterogeneity(16),
            vec![job(0, 0, JobType::Gpu, 4, 30, 2.0, Some(500))],
        );
        assert!(report.outcomes[&JobId(0)].completion().is_some());
    }

    /// The paper's Sec. 5.1 scenario end-to-end: global + plan-ahead meets
    /// all three deadlines; disabling plan-ahead (NP) misses one.
    #[test]
    fn plan_ahead_meets_sec51_deadlines() {
        let jobs = || {
            vec![
                job(1, 0, JobType::Unconstrained, 2, 10, 1.0, Some(10)),
                job(2, 0, JobType::Unconstrained, 1, 20, 1.0, Some(40)),
                job(3, 0, JobType::Unconstrained, 3, 10, 1.0, Some(20)),
            ]
        };
        let config = TetriSchedConfig {
            plan_ahead: 30,
            cycle_period: 10,
            max_start_options: 4,
            defer_tiebreak: 0.002,
            ..TetriSchedConfig::default()
        };
        let report = run(Cluster::three_machines(), config, jobs());
        assert_eq!(
            report.metrics.accepted_slo_met + report.metrics.nores_slo_met,
            3,
            "global + plan-ahead meets all deadlines: {:?}",
            report.outcomes
        );

        // TetriSched-NP (plan-ahead disabled) cannot satisfy all three.
        let mut np = TetriSchedConfig::no_plan_ahead();
        np.cycle_period = 10;
        let report = run(Cluster::three_machines(), np, jobs());
        assert!(
            report.metrics.accepted_slo_met + report.metrics.nores_slo_met < 3,
            "NP should miss at least one deadline"
        );
    }

    #[test]
    fn hopeless_slo_jobs_are_abandoned() {
        // Deadline 40 < half the 100 s estimate: even a 2x over-estimate
        // cannot explain success, so the job is dropped.
        let report = run(
            Cluster::uniform(1, 2, 0),
            TetriSchedConfig::full(16),
            vec![job(0, 0, JobType::Unconstrained, 2, 100, 1.0, Some(40))],
        );
        assert_eq!(report.metrics.abandoned, 1);
        assert!(matches!(
            report.outcomes[&JobId(0)],
            JobOutcome::Abandoned { .. }
        ));
    }

    #[test]
    fn estimate_infeasible_job_still_runs_last_chance() {
        // Deadline 60: the 100 s estimate cannot fit, but a 2x
        // over-estimate could, so the job runs at low value instead of
        // being abandoned. (Here the estimate was right: it misses.)
        let report = run(
            Cluster::uniform(1, 2, 0),
            TetriSchedConfig::full(16),
            vec![job(0, 0, JobType::Unconstrained, 2, 100, 1.0, Some(60))],
        );
        assert_eq!(report.metrics.abandoned, 0);
        assert_eq!(
            report.outcomes[&JobId(0)],
            JobOutcome::Completed {
                at: 100,
                preferred: true
            }
        );
        assert_eq!(report.metrics.accepted_slo_met, 0);

        // With a genuine 2x over-estimate, the last chance pays off. (The
        // inflated estimate also makes Rayon reject the reservation, so the
        // job counts as SLO-without-reservation.)
        let mut j = job(1, 0, JobType::Unconstrained, 2, 30, 1.0, Some(45));
        j.estimate_error = 1.0; // estimate 60, deadline 45, true 30
        let report = run(
            Cluster::uniform(1, 2, 0),
            TetriSchedConfig::full(16),
            vec![j],
        );
        assert_eq!(report.metrics.nores_slo_met, 1, "{:?}", report.outcomes);
        assert_eq!(report.metrics.total_slo_attainment(), 100.0);
    }

    #[test]
    fn greedy_variant_schedules_work() {
        let report = run(
            Cluster::uniform(1, 4, 0),
            TetriSchedConfig::no_global(16),
            vec![
                job(0, 0, JobType::Unconstrained, 2, 20, 1.0, Some(100)),
                job(1, 0, JobType::Unconstrained, 2, 20, 1.0, None),
            ],
        );
        assert_eq!(report.metrics.accepted_slo_met, 1);
        assert_eq!(report.metrics.be_completed, 1);
    }

    #[test]
    fn underestimated_job_estimate_is_bumped_not_killed() {
        // Estimate 10s, true 40s: TetriSched lets it finish (no preemption)
        // and bumps its expected end so plan-ahead stays honest.
        let mut j = job(0, 0, JobType::Unconstrained, 2, 40, 1.0, Some(200));
        j.estimate_error = -0.75;
        let report = run(
            Cluster::uniform(1, 4, 0),
            TetriSchedConfig::full(16),
            vec![j],
        );
        assert_eq!(report.metrics.preemptions, 0);
        assert_eq!(
            report.outcomes[&JobId(0)],
            JobOutcome::Completed {
                at: 40,
                preferred: true
            }
        );
        assert_eq!(report.metrics.accepted_slo_met, 1);
    }

    #[test]
    fn best_effort_jobs_eventually_run() {
        let report = run(
            Cluster::uniform(1, 2, 0),
            TetriSchedConfig::full(16),
            vec![
                job(0, 0, JobType::Unconstrained, 2, 30, 1.0, None),
                job(1, 0, JobType::Unconstrained, 2, 30, 1.0, None),
                job(2, 0, JobType::Unconstrained, 2, 30, 1.0, None),
            ],
        );
        assert_eq!(report.metrics.be_completed, 3);
    }

    #[test]
    fn preemption_extension_rescues_urgent_slo() {
        // A long BE job holds the whole cluster; an urgent accepted-SLO
        // job arrives. Without preemption the SLO is missed; with the
        // future-work preemption extension it is met.
        let jobs = || {
            vec![
                job(0, 0, JobType::Unconstrained, 4, 300, 1.0, None),
                job(1, 8, JobType::Unconstrained, 4, 30, 1.0, Some(60)),
            ]
        };
        let report = run(
            Cluster::uniform(1, 4, 0),
            TetriSchedConfig::full(16),
            jobs(),
        );
        assert_eq!(
            report.metrics.accepted_slo_met, 0,
            "baseline TetriSched waits"
        );
        assert_eq!(report.metrics.preemptions, 0);

        let mut cfg = TetriSchedConfig::full(16);
        cfg.preemption = true;
        let report = run(Cluster::uniform(1, 4, 0), cfg, jobs());
        assert!(report.metrics.preemptions >= 1);
        assert_eq!(report.metrics.accepted_slo_met, 1, "{:?}", report.outcomes);
        // The preempted BE job restarts and still completes.
        assert_eq!(report.metrics.be_completed, 1);
    }

    #[test]
    fn heuristic_backend_schedules_comparably() {
        let jobs = || {
            vec![
                job(0, 0, JobType::Gpu, 2, 30, 2.0, Some(200)),
                job(1, 0, JobType::Mpi, 3, 30, 2.0, Some(200)),
                job(2, 0, JobType::Unconstrained, 2, 30, 1.0, None),
            ]
        };
        let mut cfg = TetriSchedConfig::full(16);
        cfg.solver_heuristic = true;
        let report = run(Cluster::uniform(4, 4, 1), cfg, jobs());
        // All jobs complete; the heterogeneous SLO jobs land preferred.
        assert_eq!(report.metrics.accepted_slo_met, 2);
        assert_eq!(report.metrics.be_completed, 1);
        assert_eq!(
            report.outcomes[&JobId(0)],
            JobOutcome::Completed {
                at: 30,
                preferred: true
            }
        );
    }

    #[test]
    fn chaos_solver_failure_degrades_single_cycle_to_greedy() {
        // Force the first global MILP solve to fail: that cycle (and only
        // that cycle) must degrade to the greedy placer, the work must
        // still be placed, and the fallback must be counted.
        let mut cfg = TetriSchedConfig::full(16);
        cfg.chaos_global_solve_failures = vec![1];
        let report = run(
            Cluster::uniform(1, 4, 0),
            cfg,
            vec![
                job(0, 0, JobType::Unconstrained, 2, 20, 1.0, Some(100)),
                job(1, 0, JobType::Unconstrained, 2, 20, 1.0, None),
            ],
        );
        assert_eq!(report.metrics.degraded_cycles, 1);
        assert_eq!(report.metrics.solver_errors, 1);
        // The degraded cycle still scheduled everything: both jobs finish
        // as if the failure never happened (greedy places them the same).
        assert_eq!(report.metrics.accepted_slo_met, 1);
        assert_eq!(report.metrics.be_completed, 1);
        assert!(report
            .trace
            .events()
            .iter()
            .any(|e| matches!(e, tetrisched_sim::TraceEvent::CycleDegraded { at: 0, .. })));
    }

    #[test]
    fn chaos_failure_of_later_solve_only_degrades_that_cycle() {
        // Jobs arriving over several cycles; failing solve #2 must not
        // affect cycle 1 or cycles after 2.
        let mut cfg = TetriSchedConfig::full(16);
        cfg.chaos_global_solve_failures = vec![2];
        let report = run(
            Cluster::uniform(1, 4, 0),
            cfg,
            vec![
                job(0, 0, JobType::Unconstrained, 4, 10, 1.0, None),
                job(1, 12, JobType::Unconstrained, 4, 10, 1.0, None),
                job(2, 24, JobType::Unconstrained, 4, 10, 1.0, None),
            ],
        );
        assert_eq!(report.metrics.degraded_cycles, 1);
        assert_eq!(report.metrics.be_completed, 3);
    }

    #[test]
    fn eviction_invalidates_warm_start_cache() {
        // A fault under a running TetriSched gang: on_evict must clear the
        // stale cached choice and the job must complete via its retry.
        use tetrisched_sim::{FaultKind, FaultPlan, FaultScope, FaultScript, RetryPolicy};
        let cluster = Cluster::uniform(1, 4, 0);
        let sim_cfg = SimConfig {
            cycle_period: 4,
            trace: true,
            strict_accounting: true,
            faults: FaultPlan::from_script(
                &cluster,
                &[FaultScript {
                    at: 10,
                    duration: 6,
                    scope: FaultScope::Nodes(vec![tetrisched_cluster::NodeId(0)]),
                    kind: FaultKind::Down,
                    announced: false,
                }],
            ),
            retry: RetryPolicy {
                max_retries: 3,
                backoff_base: 4,
                backoff_cap: 16,
            },
            ..SimConfig::default()
        };
        let report = Simulator::new(
            cluster,
            TetriSched::new(TetriSchedConfig::full(16)),
            sim_cfg,
        )
        .run(vec![job(0, 0, JobType::Unconstrained, 4, 50, 1.0, None)]);
        assert_eq!(report.metrics.evictions, 1);
        assert_eq!(report.metrics.be_completed, 1);
        let done = report.outcomes[&JobId(0)].completion().unwrap();
        assert!(done > 50, "restart must lose progress (done at {done})");
    }

    #[test]
    fn lint_models_knob_is_clean_on_generated_work() {
        // With the on-cycle linter enabled, generator-emitted expressions
        // and compiler-emitted models must pass at Error severity: the run
        // behaves exactly as with the knob off and counts zero rejections.
        let jobs = || {
            vec![
                job(0, 0, JobType::Gpu, 2, 30, 2.0, Some(200)),
                job(1, 0, JobType::Mpi, 3, 30, 2.0, Some(200)),
                job(2, 0, JobType::Unconstrained, 2, 30, 1.0, None),
            ]
        };
        for cfg in [TetriSchedConfig::full(16), TetriSchedConfig::no_global(16)] {
            let lint_cfg = TetriSchedConfig {
                lint_models: true,
                ..cfg
            };
            let report = run(Cluster::uniform(4, 4, 1), lint_cfg, jobs());
            assert_eq!(report.metrics.lint_errors, 0);
            assert_eq!(report.metrics.accepted_slo_met, 2);
            assert_eq!(report.metrics.be_completed, 1);
        }
    }

    #[test]
    fn certify_solves_knob_verifies_every_solve() {
        // With proof-carrying solves enabled, every MILP outcome across
        // the run must carry a verified certificate (primal + audit
        // replay) plus a validated STRL→MILP translation, with zero
        // failures — and scheduling behaves exactly as with the knob off.
        let jobs = || {
            vec![
                job(0, 0, JobType::Gpu, 2, 30, 2.0, Some(200)),
                job(1, 0, JobType::Mpi, 3, 30, 2.0, Some(200)),
                job(2, 0, JobType::Unconstrained, 2, 30, 1.0, None),
            ]
        };
        let heuristic = TetriSchedConfig {
            solver_heuristic: true,
            ..TetriSchedConfig::full(16)
        };
        for cfg in [
            TetriSchedConfig::full(16),
            TetriSchedConfig::no_global(16),
            heuristic,
        ] {
            let certify_cfg = TetriSchedConfig {
                certify_solves: true,
                ..cfg
            };
            let report = run(Cluster::uniform(4, 4, 1), certify_cfg, jobs());
            assert!(
                report.metrics.certificates_verified > 0,
                "certification must have run"
            );
            assert_eq!(report.metrics.certificate_failures, 0);
            assert_eq!(report.metrics.accepted_slo_met, 2);
            assert_eq!(report.metrics.be_completed, 1);
        }
    }

    #[test]
    fn certification_off_reports_no_certificates() {
        let report = run(
            Cluster::uniform(1, 4, 0),
            TetriSchedConfig::full(16),
            vec![job(0, 0, JobType::Unconstrained, 2, 20, 1.0, None)],
        );
        assert_eq!(report.metrics.certificates_verified, 0);
        assert_eq!(report.metrics.certificate_failures, 0);
    }

    #[test]
    fn ladder_demotes_under_chaos_and_recovers() {
        // The ladder replaces the binary cliff: a chaos-failed global
        // solve degrades that one cycle to greedy *and* votes the
        // governor down one rung (reduced horizon, not straight to
        // greedy). Idle under-budget cycles then promote back to Full.
        use crate::governor::GovernorConfig;
        let mut cfg = TetriSchedConfig::full(16);
        cfg.chaos_global_solve_failures = vec![1];
        cfg.governor = GovernorConfig {
            work_budget: 1_000_000,
            promote_streak: 2,
            hysteresis_cycles: 2,
            ..GovernorConfig::defaults()
        };
        let report = run(
            Cluster::uniform(1, 4, 0),
            cfg,
            vec![
                job(0, 0, JobType::Unconstrained, 4, 10, 1.0, None),
                job(1, 24, JobType::Unconstrained, 4, 10, 1.0, None),
                job(2, 48, JobType::Unconstrained, 4, 10, 1.0, None),
            ],
        );
        assert_eq!(report.metrics.be_completed, 3);
        assert_eq!(report.metrics.degraded_cycles, 1, "only the chaos cycle");
        assert_eq!(
            report.metrics.ladder_rung, 1,
            "demotion stops at reduced horizon, not greedy"
        );
        // The rung trajectory is visible in the trace: down to 1, back to 0.
        let rungs: Vec<u8> = report
            .trace
            .events()
            .iter()
            .filter_map(|e| match e {
                tetrisched_sim::TraceEvent::LadderRung { rung, .. } => Some(*rung),
                _ => None,
            })
            .collect();
        assert_eq!(rungs, vec![1, 0], "engage then recover");
    }

    #[test]
    fn ladder_descends_to_greedy_floor_under_zero_budget() {
        // A zero work budget makes every non-idle cycle over budget: the
        // ladder must walk down one rung at a time — full, reduced
        // horizon, anytime, greedy — with every non-greedy solve still
        // carrying a verified certificate, and no work lost on the way.
        use crate::governor::GovernorConfig;
        let mut cfg = TetriSchedConfig::full(16);
        cfg.certify_solves = true;
        cfg.governor = GovernorConfig {
            work_budget: 0,
            promote_streak: 100, // never recover in this test
            hysteresis_cycles: 0,
            ..GovernorConfig::defaults()
        };
        let report = run(
            Cluster::uniform(1, 4, 0),
            cfg,
            vec![
                job(0, 0, JobType::Unconstrained, 4, 10, 1.0, None),
                job(1, 12, JobType::Unconstrained, 4, 10, 1.0, None),
                job(2, 24, JobType::Unconstrained, 4, 10, 1.0, None),
                job(3, 36, JobType::Unconstrained, 4, 10, 1.0, None),
            ],
        );
        assert_eq!(report.metrics.be_completed, 4, "{:?}", report.outcomes);
        assert_eq!(report.metrics.ladder_rung, 3, "reached the greedy floor");
        assert_eq!(report.metrics.certificate_failures, 0);
        assert!(report.metrics.certificates_verified > 0);
        // The greedy-floor cycles are degraded by design; the anytime and
        // reduced-horizon cycles are not.
        assert!(report.metrics.degraded_cycles >= 1);
    }

    #[test]
    fn ladder_binary_mode_reproduces_the_cliff() {
        // Binary mode under the same governor signal collapses the ladder
        // to {full, greedy}: the first demotion lands on the floor.
        use crate::governor::GovernorConfig;
        let mut cfg = TetriSchedConfig::full(16);
        cfg.governor = GovernorConfig {
            work_budget: 0,
            promote_streak: 100,
            hysteresis_cycles: 0,
            binary: true,
            ..GovernorConfig::defaults()
        };
        let report = run(
            Cluster::uniform(1, 4, 0),
            cfg,
            vec![
                job(0, 0, JobType::Unconstrained, 4, 10, 1.0, None),
                job(1, 12, JobType::Unconstrained, 4, 10, 1.0, None),
            ],
        );
        assert_eq!(report.metrics.be_completed, 2);
        assert_eq!(report.metrics.ladder_rung, 3);
        // No intermediate rung ever appears in the trace.
        assert!(report.trace.events().iter().all(|e| !matches!(
            e,
            tetrisched_sim::TraceEvent::LadderRung { rung: 1 | 2, .. }
        )));
    }

    #[test]
    fn batching_cap_defers_excess_jobs() {
        let mut config = TetriSchedConfig::full(16);
        config.max_batch = 1;
        let report = run(
            Cluster::uniform(1, 4, 0),
            config,
            vec![
                job(0, 0, JobType::Unconstrained, 1, 10, 1.0, None),
                job(1, 0, JobType::Unconstrained, 1, 10, 1.0, None),
            ],
        );
        // Both finish; the second just waits an extra cycle.
        assert_eq!(report.metrics.be_completed, 2);
    }

    #[test]
    fn batch_of_one_is_the_same_under_global_and_greedy() {
        // Greedy is the global pipeline on batches of one (Table 2,
        // Sec. 6.3): a single pending job must launch the same gang on the
        // same nodes with the same expected end under either policy.
        for (job_type, k, cluster) in [
            (JobType::Unconstrained, 2, Cluster::uniform(1, 4, 0)),
            (JobType::Gpu, 2, Cluster::uniform(4, 2, 1)),
            (JobType::Mpi, 3, Cluster::uniform(4, 4, 0)),
            (JobType::Availability, 3, Cluster::uniform(4, 2, 0)),
        ] {
            // Node 0 is busy, so placement is not just "the first k nodes".
            let mut ledger = Ledger::new(cluster.num_nodes());
            let busy = NodeSet::from_ids(cluster.num_nodes(), [NodeId(0)]);
            ledger.allocate(AllocHandle(99), busy, 1_000).unwrap();
            let pending = [PendingJob {
                spec: job(0, 0, job_type, k, 30, 2.0, Some(200)),
                class: JobClass::SloAccepted,
                reservation: None,
                preemptions: 0,
                weight: 1.0,
            }];
            let telemetry = Telemetry::disabled();
            let ctx = CycleContext {
                now: 0,
                cluster: &cluster,
                ledger: &ledger,
                pending: &pending,
                running: &[],
                telemetry: &telemetry,
            };
            let launches = |config: TetriSchedConfig| -> Vec<(JobId, Vec<NodeId>, Time)> {
                let d = TetriSched::new(config).cycle(&ctx);
                assert!(d.errors.is_empty(), "{:?}", d.errors);
                d.launches
                    .into_iter()
                    .map(|l| (l.job, l.nodes, l.expected_end))
                    .collect()
            };
            let global = launches(TetriSchedConfig::full(16));
            assert_eq!(global.len(), 1, "{job_type:?} must launch now");
            assert_eq!(global[0].1.len(), k as usize);
            assert_eq!(
                global,
                launches(TetriSchedConfig::no_global(16)),
                "{job_type:?}: global and greedy diverge on a batch of one"
            );
        }
    }

    #[test]
    fn lint_rejections_quarantine_only_the_job_they_are_pinned_on() {
        // The generator never emits a request the expression lints reject,
        // so hand the gate one (k = 0, S009) and feed what it returns to
        // the failure policy, as a greedy unit does: a per-job rejection is
        // structural, so the job is abandoned at the threshold instead of
        // being retried and reported forever.
        let all = NodeSet::from_ids(4, (0..4).map(NodeId));
        let request = StrlExpr::max([StrlExpr::nck(all, 0, 0, 4, 1.0)]);
        let window = StrlLintContext {
            now: 0,
            window_end: Some(64),
        };
        let (mut memory, mut d) = (JobMemory::default(), CycleDecisions::default());
        for strike in 1..=MAX_JOB_FAILURES {
            assert!(d.abandons.is_empty(), "abandoned before strike {strike}");
            let err = lint_gate(&lint_expr(&request, &window), JobId(7))
                .expect_err("the expression lint must reject k = 0");
            assert!(
                matches!(&err, CycleError::Lint { job: JobId(7), detail } if detail.contains("S009")),
                "{err:?}"
            );
            memory.record_job_failure(err, &mut d);
        }
        assert_eq!(d.abandons, vec![JobId(7)]);
        assert_eq!(d.errors.len(), MAX_JOB_FAILURES as usize);

        // Failures that say nothing about the job never quarantine it.
        d.abandons.clear();
        for _ in 0..2 * MAX_JOB_FAILURES {
            let detail = String::from("x");
            memory.record_job_failure(CycleError::NoSolution { detail }, &mut d);
            let detail = String::from("x");
            let err = CycleError::Certificate { job: None, detail };
            memory.record_job_failure(err, &mut d);
        }
        assert!(d.abandons.is_empty());
    }
}

#[cfg(test)]
mod free_table_tests {
    use super::*;
    use proptest::prelude::*;
    use tetrisched_cluster::{Attr, Cluster, Ledger, RackId};

    const NOW: Time = 40;
    const QUANTUM: u64 = 4;
    const N_SLICES: usize = 7;
    const NODES: u32 = 32;

    /// One greedy unit: the palette sets its leaves draw from, the
    /// (class, slice) cells it reads, and its claim — `k` nodes from
    /// `start_slice` (0 = now, later = deferred) for `dur` seconds.
    type Unit = (Vec<usize>, Vec<(usize, usize)>, usize, u64, usize);

    fn arb_unit() -> impl Strategy<Value = Unit> {
        (
            proptest::collection::vec(0usize..7, 1..5),
            proptest::collection::vec((0usize..16, 0usize..N_SLICES), 1..8),
            0usize..N_SLICES,
            1u64..20,
            0usize..6,
        )
    }

    /// A request over `sets`, one leaf per set, each set visited twice.
    fn request(sets: &[NodeSet], k: u32) -> StrlExpr {
        let leaf = |s: &NodeSet| StrlExpr::nck(s.clone(), k, NOW, QUANTUM, 1.0);
        StrlExpr::max(sets.iter().chain(sets).map(leaf))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Units of random shapes over a racked cluster with GPUs read the
        /// table between node-disjoint claims (some deferred past now) and
        /// under announced maintenance: every read is the view minus the
        /// claims at that moment, and every unit of one shape gets the
        /// partition refined for its first.
        #[test]
        fn table_reads_are_the_view_minus_the_claims(
            busy in proptest::collection::vec((0u32..NODES, 1u64..40), 0..24),
            windows in proptest::collection::vec((0u32..NODES, 0u64..30, 1u64..20), 0..3),
            units in proptest::collection::vec(arb_unit(), 1..12),
        ) {
            let cluster = Cluster::uniform(4, NODES as usize / 4, 2);
            let n = cluster.num_nodes();
            let mut ledger = Ledger::new(n);
            for (h, &(node, end)) in busy.iter().enumerate() {
                let nodes = NodeSet::from_ids(n, [NodeId(node)]);
                // A node drawn twice stays with its first gang.
                let _ = ledger.allocate(AllocHandle(h as u64), nodes, NOW + end);
            }
            for &(node, from, dur) in &windows {
                ledger.announce(NodeId(node), NOW + from, NOW + from + dur);
            }
            let view = ledger.availability(&[]);
            let evens = NodeSet::from_ids(n, (0..NODES).step_by(2).map(NodeId));
            let palette = [
                cluster.all_nodes(),
                cluster.nodes_with_attr(&Attr::gpu()),
                cluster.rack_nodes(RackId(0)).clone(),
                cluster.rack_nodes(RackId(1)).clone(),
                cluster.rack_nodes(RackId(2)).clone(),
                cluster.rack_nodes(RackId(3)).clone(),
                evens,
            ];
            let all = cluster.all_nodes();

            let mut table = FreeTable::new(&view, n, NOW, QUANTUM, N_SLICES);
            let mut claims = Claims::new(n);
            for (picks, reads, start_slice, dur, k) in units {
                let mut sets: Vec<NodeSet> = Vec::new();
                for &p in &picks {
                    if !sets.iter().any(|s| s.shares_storage(&palette[p])) {
                        sets.push(palette[p].clone());
                    }
                }
                let shape = table.shape(&request(&sets, 1));
                let first = table.partitions(shape).clone();
                prop_assert_eq!(first.classes(), PartitionSet::refine(n, &sets).classes());
                // A second unit of the shape, other leaves: the same classes.
                let again = table.shape(&request(&sets, 2));
                let again = table.partitions(again);
                prop_assert_eq!(again.len(), first.len());
                let mut pairs = first.classes().iter().zip(again.classes());
                prop_assert!(pairs.all(|(a, b)| a.shares_storage(b)));

                let check = |table: &FreeTable<'_>, claims: &Claims| {
                    let partitions = table.partitions(shape);
                    for &(c, slice) in &reads {
                        let class = partitions.class(c % partitions.len());
                        let t = NOW + slice as u64 * QUANTUM;
                        let expected = |set: &NodeSet, t: Time| {
                            let claimed = claims.held_at(t).and_len(set);
                            view.avail_at(set, t).saturating_sub(claimed)
                        };
                        prop_assert_eq!(table.avail(shape, class, t), expected(class, t));
                        // Off the slice grid, or not a class: read directly.
                        prop_assert_eq!(table.avail(shape, class, t + 1), expected(class, t + 1));
                        let set = &sets[c % sets.len()];
                        prop_assert_eq!(table.avail(shape, set, t), expected(set, t));
                    }
                    Ok(())
                };
                check(&table, &claims)?;
                let start = NOW + start_slice as u64 * QUANTUM;
                let free = view.free_at(&all, start).minus(&claims.held_over(start, start + dur));
                let held = NodeSet::from_ids(n, free.take(k));
                table.claim(&held, start, start + dur);
                claims.claim(&held, start, start + dur);
                check(&table, &claims)?;
            }
        }
    }
}
