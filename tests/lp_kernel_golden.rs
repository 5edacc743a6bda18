//! Pins the simplex kernel's pivot sequence.
//!
//! A fixed corpus of seeded models — RC80 queue windows built through the
//! public pipeline (`StrlGenerator::job_expr` → `PartitionSet::refine` →
//! `compile`) plus the hand-made infeasible / unbounded / degenerate /
//! free-variable / Eq-row shapes — is solved by `Simplex::solve`, walked
//! through a fixed sequence of bound changes by
//! `Simplex::resolve_with_bounds`, and solved by `ExactBackend` under a
//! 15-node budget and by `HeuristicBackend`. Every status, objective, value
//! and dual (bit for bit, `-0.0` read as `0.0`) and every work counter is
//! folded into one FNV-1a digest per solver. A kernel change that keeps the
//! digests performed the same pivots on the same numbers; one that moves a
//! digest changed a vertex somewhere and is a behaviour change, not a
//! refactor. Every digest must hold in debug and in release.
//!
//! `LP_DIGEST` pins the cold path (load, two-phase primal) and dates from
//! the `Vec<Vec<f64>>` tableau of PR 13's `simplex.rs`. The other three
//! were captured in PR 17, which made every LP after a solve's root a dual
//! simplex re-solve from the held basis: `RESOLVE_DIGEST` is new there, and
//! `EXACT_DIGEST` / `DIVE_DIGEST` were re-captured once because a re-solve
//! ends on another optimal vertex than a cold solve of the same bounds (and
//! the tree's node 0 no longer solves the root LP a second time). PR 18
//! made the two backends one search and re-captured those two once more,
//! for two folded words: node 0 now carries the root LP's certificate on
//! exact solves that close at the root, and a dive whose root bound is
//! within the gap of its point says `Optimal`, not `Feasible`. With those
//! two words left out of the fold both digests are the parent's, and
//! `EXACT_DECISIONS` / `DIVE_DECISIONS`, pinned on the parent first, fold
//! neither and did not move. PR 22 re-captured all six with no kernel
//! change: the queue windows are built by `compile`, which since then emits
//! the reduced model (22 to 86 rows a window, from 65 to 238). PR 23
//! re-captured the two backend pairs and nothing else: it replaced the root
//! dive (`milp/src/heuristics.rs`), so incumbents, node and LP counts moved
//! on unchanged models and an unchanged kernel — `LP_DIGEST`,
//! `RESOLVE_DIGEST` and all of `model_build_golden` held. PR 25 re-captured
//! the exact pair alone: the search stopped presolving, which moved six of
//! the hand-made shapes (two infeasible ones are now refuted by the root LP)
//! while the fourteen windows fold to the parent's decisions.
//! `BUDGET_DECISIONS` folds the windows at gap 0 under the scheduler's
//! default work budget, which stops one of them. `CYCLING_LP`,
//! `FREE_ENTERS` and `DUAL_BLAND` pin the scan arms no other LP reaches:
//! Bland's rule in either simplex and a free column entering a re-solve.

use std::time::Duration;

use tetrisched::cluster::{AllocHandle, Cluster, Ledger, NodeId, NodeSet, PartitionSet, Time};
use tetrisched::core::{compile, CompileInput, StrlGenerator, TetriSchedConfig};
use tetrisched::milp::{
    ExactBackend, HeuristicBackend, LpOutcome, MilpBackend, Model, Sense, Simplex, Solution,
    SolveStatus, SolverConfig, VarKind,
};
use tetrisched::sim::{JobSpec, JobType, PendingJob};
use tetrisched::strl::{JobClass, StrlExpr};
use tetrisched::workloads::{GridmixConfig, Workload, WorkloadBuilder};

const LP_DIGEST: u64 = 0x1141_0c75_7a99_2733;
const RESOLVE_DIGEST: u64 = 0x4dd2_31d8_447e_af01;
const EXACT_DIGEST: u64 = 0x7711_b8a1_3c15_e91c;
const DIVE_DIGEST: u64 = 0xb3db_27c4_aa7d_f2fd;
/// What a caller can act on, without the status word and the audit log:
/// captured on PR 17's two solvers, before PR 18 made them one search, and
/// not edited until PR 22 changed the corpus under them, PR 23 the dive and
/// PR 25 the exact backend's presolve.
const EXACT_DECISIONS: u64 = 0xbacb_f5f0_cea1_a176;
const DIVE_DECISIONS: u64 = 0x3d85_b786_9b22_1a06;
/// The windows' decisions at gap 0 under the scheduler's default budget,
/// where it binds; equal in debug, release and at opt-level 0.
const BUDGET_DECISIONS: u64 = 0x4e5e_690e_2e13_8235;
/// Kuhn's cycling LP, the primal simplex's only way into Bland's rule.
const CYCLING_LP: u64 = 0x7923_4980_b80d_4700;
/// Re-solves in which a free column enters through the dual ratio test.
const FREE_ENTERS: u64 = 0x8082_9600_f350_049b;
/// A zero-cost re-solve, the dual simplex's only way into Bland's rule.
const DUAL_BLAND: u64 = 0x076d_80df_c18a_2277;

/// RC80 queue windows in the corpus (the hand-made shapes come on top).
const WINDOWS: usize = 14;
const CYCLE_PERIOD: u64 = 4;

/// FNV-1a over the little-endian bytes of what is folded in.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    /// A float by its bits, the two zeros as one.
    fn f64(&mut self, x: f64) {
        self.u64(if x == 0.0 { 0 } else { x.to_bits() });
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.usize(xs.len());
        for &x in xs {
            self.f64(x);
        }
    }
}

/// SplitMix64, for what the corpus draws itself (queueing delays, classes,
/// the ledger's pre-fill).
struct SplitMix64(u64);

impl SplitMix64 {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// One RC80 scheduling cycle's model: the window's jobs as pending, a
/// ledger `fill_pct` % busy with gangs of 1 to 8 nodes ending over the next
/// 300 s, compiled the way `TetriSched::cycle_global` compiles it.
fn window_model(
    cluster: &Cluster,
    window: &[JobSpec],
    fill_pct: usize,
    rng: &mut SplitMix64,
) -> Model {
    let q = CYCLE_PERIOD;
    let last_submit = window.iter().map(|j| j.submit).max().unwrap_or(0);
    let now: Time = last_submit.div_ceil(q) * q + q;
    let pending: Vec<PendingJob> = window
        .iter()
        .map(|spec| {
            let submit = now - q * rng.below(4);
            let class = match spec.deadline {
                None => JobClass::BestEffort,
                Some(_) if rng.below(4) == 0 => JobClass::SloNoReservation,
                Some(_) => JobClass::SloAccepted,
            };
            PendingJob {
                spec: JobSpec {
                    submit,
                    deadline: spec.deadline.map(|d| submit + (d - spec.submit)),
                    ..spec.clone()
                },
                class,
                reservation: None,
                preemptions: 0,
                weight: 1.0,
            }
        })
        .collect();

    let n = cluster.num_nodes();
    let mut ledger = Ledger::new(n);
    let target_busy = n * fill_pct / 100;
    let mut free: Vec<NodeId> = ledger.free_nodes().iter().collect();
    let mut gang = 0u64;
    while ledger.busy_count() < target_busy {
        let k = (1 + rng.below(8) as usize).min(target_busy - ledger.busy_count());
        let nodes: Vec<NodeId> = (0..k)
            .map(|_| free.swap_remove(rng.below(free.len() as u64) as usize))
            .collect();
        let end = now + 4 + rng.below(301);
        ledger
            .allocate(
                AllocHandle((1 << 40) + gang),
                NodeSet::from_ids(n, nodes),
                end,
            )
            .expect("pre-fill gangs take free nodes under fresh handles");
        gang += 1;
    }

    let sched = TetriSchedConfig {
        cycle_period: CYCLE_PERIOD,
        ..TetriSchedConfig::default()
    };
    let generator = StrlGenerator::new(&sched, cluster);
    let rack_avail = |s: &NodeSet| ledger.avail_at(s, now);
    let aggregate = StrlExpr::Sum(
        pending
            .iter()
            .map(|p| generator.job_expr(p, now, &rack_avail))
            .filter(|r| r.is_schedulable())
            .map(|r| r.expr)
            .collect(),
    );
    let mut leaf_sets = Vec::new();
    aggregate.visit(&mut |e| {
        if let StrlExpr::NCk { set, .. } | StrlExpr::LnCk { set, .. } = e {
            leaf_sets.push(set.clone());
        }
    });
    let partitions = PartitionSet::refine(n, &leaf_sets);
    let input = CompileInput {
        expr: &aggregate,
        partitions: &partitions,
        now,
        quantum: sched.cycle_period,
        n_slices: sched.n_slices(),
    };
    let avail = |set: &NodeSet, t: Time| ledger.avail_at(set, t);
    compile(&input, &avail)
        .expect("generated expressions compile")
        .model
}

/// The GS HET stream's next GPU, MPI and best-effort jobs, `WINDOWS` times:
/// queues of 3 to 6 jobs over a ledger 60 to 85 % full.
fn rc80_windows() -> Vec<Model> {
    let cluster = Cluster::rc80(2);
    let stream = WorkloadBuilder::new(GridmixConfig {
        seed: 42,
        num_jobs: 400,
        cluster_size: cluster.num_nodes(),
        target_utilization: 1.15,
        estimate_error: 0.0,
        error_jitter: 0.0,
        slowdown: 2.0,
    })
    .generate(Workload::GsHet);
    let mut by_type: [std::collections::VecDeque<&JobSpec>; 3] = Default::default();
    for job in &stream {
        let class = match job.job_type {
            JobType::Gpu => 0,
            JobType::Mpi => 1,
            _ => 2,
        };
        by_type[class].push_back(job);
    }
    let mut rng = SplitMix64(0x5EED_0000_601D_0014);
    (0..WINDOWS)
        .map(|w| {
            // 1-1-1, 2-1-1, 2-2-1, 2-2-2 jobs of the three types in turn.
            let depth = 3 + w % 4;
            let takes = [
                1 + usize::from(depth > 3),
                1 + usize::from(depth > 4),
                1 + usize::from(depth > 5),
            ];
            let mut window: Vec<JobSpec> = Vec::with_capacity(depth);
            for (queue, take) in by_type.iter_mut().zip(takes) {
                window.extend(queue.drain(..take).cloned());
            }
            window.sort_by_key(|j| (j.submit, j.id));
            window_model(&cluster, &window, [85, 60, 75][w % 3], &mut rng)
        })
        .collect()
}

/// The shapes `simplex.rs`'s unit tests solve, and two small integer
/// programs that need the tree.
fn hand_made() -> Vec<Model> {
    const INF: f64 = f64::INFINITY;
    let mut out = Vec::new();

    // Infeasible: x <= 1 by its bound, x >= 2 by a row.
    let mut m = Model::maximize();
    let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
    m.add_constraint("hi", [(x, 1.0)], Sense::Ge, 2.0);
    out.push(m);

    // Infeasible through two rows and phase 1 proper.
    let mut m = Model::maximize();
    let x = m.add_var("x", VarKind::Continuous, 0.0, INF, 1.0);
    let y = m.add_var("y", VarKind::Continuous, 0.0, INF, 1.0);
    m.add_constraint("cap", [(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
    m.add_constraint("need", [(x, 1.0), (y, 2.0)], Sense::Ge, 9.0);
    m.add_constraint("tie", [(x, 1.0), (y, -1.0)], Sense::Eq, 1.0);
    out.push(m);

    // Unbounded along a ray that a row does not block.
    let mut m = Model::maximize();
    let x = m.add_var("x", VarKind::Continuous, 0.0, INF, 1.0);
    let y = m.add_var("y", VarKind::Continuous, 0.0, INF, 0.0);
    m.add_constraint("c", [(x, 1.0), (y, -1.0)], Sense::Le, 1.0);
    out.push(m);

    // Unbounded with no rows at all.
    let mut m = Model::maximize();
    m.add_var("x", VarKind::Continuous, 0.0, INF, 1.0);
    out.push(m);

    // Degenerate: three rows active at the optimum.
    let mut m = Model::maximize();
    let x = m.add_var("x", VarKind::Continuous, 0.0, INF, 1.0);
    let y = m.add_var("y", VarKind::Continuous, 0.0, INF, 0.0);
    m.add_constraint("a", [(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
    m.add_constraint("b", [(x, 1.0), (y, 2.0)], Sense::Le, 1.0);
    m.add_constraint("c", [(x, 1.0)], Sense::Le, 1.0);
    out.push(m);

    // A free variable.
    let mut m = Model::maximize();
    let x = m.add_var("x", VarKind::Continuous, f64::NEG_INFINITY, INF, 1.0);
    let y = m.add_var("y", VarKind::Continuous, 1.0, INF, 0.0);
    m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
    out.push(m);

    // An Eq row and a Ge row: both need an artificial.
    let mut m = Model::maximize();
    let x = m.add_var("x", VarKind::Continuous, 0.0, INF, 1.0);
    let y = m.add_var("y", VarKind::Continuous, 0.0, INF, 2.0);
    m.add_constraint("sum", [(x, 1.0), (y, 1.0)], Sense::Eq, 5.0);
    m.add_constraint("diff", [(x, 1.0), (y, -1.0)], Sense::Ge, 1.0);
    out.push(m);

    // An Eq row whose slack absorbs the zero residual.
    let mut m = Model::maximize();
    let x = m.add_var("x", VarKind::Continuous, 0.0, 5.0, 1.0);
    let y = m.add_var("y", VarKind::Continuous, 0.0, 5.0, -1.0);
    m.add_constraint("eq", [(x, 1.0), (y, -1.0)], Sense::Eq, 0.0);
    out.push(m);

    // Bound flips only, one variable resting at a nonzero lower bound.
    let mut m = Model::maximize();
    m.add_var("x", VarKind::Continuous, 0.0, 3.0, 2.0);
    m.add_var("y", VarKind::Continuous, 1.0, 5.0, -1.0);
    out.push(m);

    // Negative lower bound, Ge row.
    let mut m = Model::maximize();
    let x = m.add_var("x", VarKind::Continuous, -4.0, 10.0, -1.0);
    m.add_constraint("c", [(x, 1.0)], Sense::Ge, -2.0);
    out.push(m);

    // Knapsack relaxation with a fractional optimum and duplicate terms.
    let mut m = Model::maximize();
    let a = m.add_var("a", VarKind::Continuous, 0.0, INF, 10.0);
    let b = m.add_var("b", VarKind::Continuous, 0.0, INF, 6.0);
    let c = m.add_var("c", VarKind::Continuous, 0.0, INF, 4.0);
    m.add_constraint("c1", [(a, 1.0), (b, 1.0), (c, 1.0)], Sense::Le, 100.0);
    m.add_constraint("c2", [(a, 10.0), (b, 4.0), (c, 5.0)], Sense::Le, 600.0);
    m.add_constraint(
        "c3",
        [(a, 2.0), (b, 2.0), (c, 3.0), (c, 3.0)],
        Sense::Le,
        300.0,
    );
    out.push(m);

    // Binary knapsack: the root is fractional, the tree and the dive work.
    let mut m = Model::maximize();
    let vars: Vec<_> = (0..14)
        .map(|i| m.add_binary(format!("x{i}"), 1.0 + (i % 5) as f64))
        .collect();
    m.add_constraint(
        "w",
        vars.iter()
            .enumerate()
            .map(|(i, &v)| (v, 1.0 + (i % 3) as f64)),
        Sense::Le,
        14.0,
    );
    out.push(m);

    // Integer program with upper-bounded integers and a demand row: columns
    // rest at nonzero bounds while the LP runs.
    let mut m = Model::maximize();
    let vars: Vec<_> = (0..9)
        .map(|i| {
            m.add_var(
                format!("n{i}"),
                VarKind::Integer,
                (i % 2) as f64,
                3.0 + (i % 3) as f64,
                2.0 + (i as f64) * 0.7 - ((i * i) % 5) as f64,
            )
        })
        .collect();
    for (r, chunk) in vars.chunks(3).enumerate() {
        m.add_constraint(
            format!("cap{r}"),
            chunk.iter().enumerate().map(|(k, &v)| (v, 1.5 + k as f64)),
            Sense::Le,
            7.5 + r as f64,
        );
    }
    m.add_constraint(
        "demand",
        vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
        Sense::Ge,
        6.0,
    );
    m.add_constraint(
        "balance",
        [(vars[0], 1.0), (vars[4], -1.0), (vars[8], 1.0)],
        Sense::Eq,
        2.0,
    );
    out.push(m);

    out
}

fn corpus() -> Vec<Model> {
    let mut models = rc80_windows();
    models.extend(hand_made());
    assert!(models.len() >= 24, "corpus of {} models", models.len());
    models
}

/// One LP's outcome, then the cumulative pivots and refreshes of `simplex`.
fn fold_lp(h: &mut Fnv, simplex: &Simplex, outcome: tetrisched::milp::Result<LpOutcome>) {
    match outcome {
        Ok(LpOutcome::Optimal {
            objective,
            values,
            duals,
        }) => {
            h.u64(1);
            h.f64(objective);
            h.f64s(&values);
            h.f64s(&duals);
        }
        Ok(LpOutcome::Infeasible { farkas }) => {
            h.u64(2);
            h.f64s(&farkas.unwrap_or_default());
        }
        Ok(LpOutcome::Unbounded { ray }) => {
            h.u64(3);
            h.f64s(&ray.unwrap_or_default());
        }
        Err(_) => h.u64(4),
    }
    h.usize(simplex.iterations());
    h.usize(simplex.refactorizations());
}

fn fold_solution(h: &mut Fnv, sol: &Solution) {
    h.u64(sol.status as u64);
    h.f64(sol.objective);
    h.f64s(&sol.values);
    let s = &sol.stats;
    for count in [
        s.lp_iterations,
        s.refactorizations,
        s.nodes,
        s.nodes_pruned,
        s.lp_solves,
        s.certificates_verified,
        s.certificate_failures,
    ] {
        h.usize(count);
    }
    h.f64(s.best_bound);
    // The audit log carries every node LP's objective and row duals.
    let audit = sol.audit.as_ref().expect("audited solves carry their log");
    for node in &audit.nodes {
        h.f64(node.bound);
        if let Some(lp) = &node.lp {
            h.f64(lp.objective);
            h.f64s(&lp.duals);
        }
    }
}

/// Whether there is an answer, the answer, its bound and gap, and every
/// deterministic work counter: equal digests are equal decisions at equal
/// work, whatever the solve calls its status and however it proves it.
fn fold_decision(h: &mut Fnv, sol: &Solution) {
    h.u64(u64::from(sol.status.has_solution()));
    h.f64(sol.objective);
    h.f64s(&sol.values);
    let s = &sol.stats;
    h.f64(s.best_bound);
    h.f64(s.final_gap);
    for count in [
        s.lp_iterations,
        s.refactorizations,
        s.nodes,
        s.nodes_pruned,
        s.lp_solves,
        s.lp_resolves,
        s.certificates_verified,
        s.certificate_failures,
    ] {
        h.usize(count);
    }
}

/// `(digest of everything, digest of the decisions)` over the corpus.
fn backend_digests(backend: &dyn MilpBackend) -> (u64, u64) {
    let (mut all, mut decisions) = (Fnv::new(), Fnv::new());
    for model in corpus() {
        let sol = backend
            .solve(&model, None)
            .expect("corpus models are well formed");
        assert_eq!(sol.stats.certificate_failures, 0, "a certificate failed");
        fold_solution(&mut all, &sol);
        fold_decision(&mut decisions, &sol);
    }
    (all.0, decisions.0)
}

/// The scheduler's online solver settings, audited, under a budget no window
/// reaches: the digests were captured under it, and `dive_is_near_the_optimum`
/// needs every window's optimum proven (window 11's proof is over the
/// default budget).
fn solver() -> SolverConfig {
    SolverConfig::online(Duration::from_secs(3600))
        .with_rel_gap(0.10)
        .with_audit(true)
}

#[test]
fn corpus_has_the_sizes_it_claims() {
    let windows = rc80_windows();
    assert_eq!(windows.len(), WINDOWS);
    // Queue windows are paper-scale models, not toys.
    let largest = windows.iter().map(Model::num_vars).max().unwrap_or(0);
    assert!(largest >= 200, "largest window has {largest} variables");
    assert!(windows.iter().all(|m| m.num_constraints() >= 20));
}

#[test]
fn simplex_digest_is_pinned() {
    let mut h = Fnv::new();
    for model in corpus() {
        let simplex = Simplex::default();
        fold_lp(&mut h, &simplex, simplex.solve(&model));
    }
    assert_eq!(h.0, LP_DIGEST, "Simplex::solve digest is {:#018x}", h.0);
}

/// Every corpus model's root, then sixteen re-solves from the held basis:
/// each fixes one of six columns (drawn among those the root optimum uses)
/// at either end of its box or gives it its box back (always, after a step
/// that came out infeasible), so columns are fixed, flipped and relaxed in
/// turn and the shapes with no optimal root load cold.
#[test]
fn resolve_digest_is_pinned() {
    let mut h = Fnv::new();
    let mut rng = SplitMix64(0x5EED_0000_D0A1_0017);
    for model in corpus() {
        let simplex = Simplex::default();
        let (mut lb, mut ub): (Vec<f64>, Vec<f64>) =
            model.vars().iter().map(|v| (v.lb, v.ub)).unzip();
        let root = simplex.solve_with_bounds(&model, &lb, &ub);
        // Columns the root optimum uses, so that fixing one moves the LP.
        let mut used: Vec<usize> = match &root {
            Ok(LpOutcome::Optimal { values, .. }) => {
                (0..values.len()).filter(|&j| values[j] != 0.0).collect()
            }
            _ => Vec::new(),
        };
        if used.is_empty() {
            used = (0..model.num_vars()).collect();
        }
        fold_lp(&mut h, &simplex, root);
        let pool: Vec<usize> = (0..6)
            .map(|_| used[rng.below(used.len() as u64) as usize])
            .collect();
        // (column, whether the step that changed it came out infeasible)
        let mut last = (pool[0], false);
        for _ in 0..16 {
            // An infeasible step is undone; any other draws the next change.
            let (j, side) = match last {
                (j, true) => (j, 2),
                _ => (pool[rng.below(6) as usize], rng.below(3)),
            };
            let v = &model.vars()[j];
            let lo = if v.lb.is_finite() { v.lb } else { 0.0 };
            let hi = if v.ub.is_finite() { v.ub } else { lo + 1.0 };
            (lb[j], ub[j]) = match side {
                0 => (lo, lo),
                1 => (hi, hi),
                _ => (v.lb, v.ub),
            };
            let out = simplex.resolve_with_bounds(&model, &lb, &ub);
            last = (j, matches!(out, Ok(LpOutcome::Infeasible { .. })));
            fold_lp(&mut h, &simplex, out);
        }
        h.usize(simplex.resolves());
    }
    assert_eq!(h.0, RESOLVE_DIGEST, "re-solve digest is {:#018x}", h.0);
}

#[test]
fn exact_backend_digest_is_pinned() {
    let (d, decisions) = backend_digests(&ExactBackend::new(solver().with_node_limit(15)));
    assert_eq!(
        decisions, EXACT_DECISIONS,
        "ExactBackend decisions are {decisions:#018x}"
    );
    assert_eq!(d, EXACT_DIGEST, "ExactBackend digest is {d:#018x}");
}

#[test]
fn heuristic_backend_digest_is_pinned() {
    let (d, decisions) = backend_digests(&HeuristicBackend::new(solver()));
    assert_eq!(
        decisions, DIVE_DECISIONS,
        "HeuristicBackend decisions are {decisions:#018x}"
    );
    assert_eq!(d, DIVE_DIGEST, "HeuristicBackend digest is {d:#018x}");
}

/// Where the budget binds, the answer is still a function of the model. The
/// scheduler's default budget (300 ms, read as 8 400 units) at gap 0 stops
/// window 11 short of its proof at 8 510 units and 144 nodes (12 896 units
/// and 213 nodes to optimality); the other windows finish under 4 000. A
/// clock in the stop would make this digest depend on the machine.
#[test]
fn budget_stops_are_deterministic() {
    let cfg = SolverConfig::online(TetriSchedConfig::default().solver_time_limit).with_rel_gap(0.0);
    let exact = ExactBackend::new(cfg.clone());
    let mut h = Fnv::new();
    let mut stopped = Vec::new();
    for (w, model) in rc80_windows().iter().enumerate() {
        let sol = exact.solve(model, None).expect("windows are well formed");
        if sol.status == SolveStatus::Feasible && sol.stats.nodes < cfg.node_limit {
            assert!(sol.stats.work_units() >= cfg.work_limit, "window {w}");
            stopped.push(w);
        }
        fold_decision(&mut h, &sol);
    }
    assert_eq!(stopped, [11], "the windows the budget stops");
    assert_eq!(h.0, BUDGET_DECISIONS, "budget decisions are {:#018x}", h.0);
}

/// The dive against the optimum over the queue windows. The backend is
/// given no other incumbent, so a solution is the dive's: none may dead-end
/// on a compiled model, and together the plans are worth `DIVE_FLOOR` of the
/// optima. This dive reads 0.9996 (three windows of fourteen short of their
/// optimum, the worst by 0.4 %); the most-fractional / nearest dive it
/// replaced read 0.6658, two windows on the empty plan. The floor is this
/// reading less 0.03.
#[test]
fn dive_is_near_the_optimum() {
    const DIVE_FLOOR: f64 = 0.969;
    let dive = HeuristicBackend::new(solver());
    let exact = ExactBackend::new(solver().with_rel_gap(0.0));
    let (mut found, mut best) = (0.0, 0.0);
    for (w, model) in rc80_windows().iter().enumerate() {
        let plan = dive.solve(model, None).expect("windows are well formed");
        assert!(
            plan.status.has_solution(),
            "window {w}: the dive dead-ended"
        );
        let optimum = exact.solve(model, None).expect("windows are well formed");
        assert_eq!(optimum.status, SolveStatus::Optimal, "window {w}");
        assert!(plan.objective <= optimum.objective + 1e-6, "window {w}");
        found += plan.objective;
        best += optimum.objective;
    }
    assert!(
        found >= DIVE_FLOOR * best,
        "the dives are worth {found} of {best}: {:.4}",
        found / best
    );
}

/// Kuhn's cycling LP: max 2x₁ + 3x₂ − x₃ − 12x₄ subject to
/// −2x₁ − 9x₂ + x₃ + 9x₄ ≤ 0, ⅓x₁ + x₂ − ⅓x₃ − 2x₄ ≤ 0 and
/// 2x₁ + 3x₂ − x₃ − 12x₄ ≤ 2, x ≥ 0. Dantzig pricing stalls at the
/// degenerate origin, so the primal simplex switches to Bland's rule and
/// ends at objective 2, x = (2, 0, 2, 0), in 261 pivots, 257 of them
/// stalled. No corpus or benchmark LP reaches the pricing and primal ratio
/// test's Bland arms.
#[test]
fn cycling_lp_switches_to_blands_rule() {
    let mut m = Model::maximize();
    let x: Vec<_> = [2.0, 3.0, -1.0, -12.0]
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            m.add_var(
                format!("x{}", i + 1),
                VarKind::Continuous,
                0.0,
                f64::INFINITY,
                c,
            )
        })
        .collect();
    let rows: [([f64; 4], f64); 3] = [
        ([-2.0, -9.0, 1.0, 9.0], 0.0),
        ([1.0 / 3.0, 1.0, -1.0 / 3.0, -2.0], 0.0),
        ([2.0, 3.0, -1.0, -12.0], 2.0),
    ];
    for (r, (coeffs, rhs)) in rows.iter().enumerate() {
        let terms: Vec<_> = x.iter().copied().zip(coeffs.iter().copied()).collect();
        m.add_constraint(format!("r{r}"), terms, Sense::Le, *rhs);
    }
    let simplex = Simplex::default();
    let out = simplex.solve(&m);
    match &out {
        Ok(LpOutcome::Optimal {
            objective, values, ..
        }) => {
            assert!((objective - 2.0).abs() < 1e-9, "objective {objective}");
            assert_eq!(values, &[2.0, 0.0, 2.0, 0.0]);
        }
        other => panic!("expected an optimum, got {other:?}"),
    }
    assert_eq!(simplex.iterations(), 261);
    let mut h = Fnv::new();
    fold_lp(&mut h, &simplex, out);
    assert_eq!(h.0, CYCLING_LP, "cycling LP digest is {:#018x}", h.0);
}

/// A re-solve whose only column able to repair the violated row is free:
/// max x with x in [0, 3], y free at cost 0, x + y ≤ 4 and y − x ≤ 10. The
/// root flips x to 3 and leaves y nonbasic at zero; fixing x at 5 breaks the
/// first row, and the dual ratio test enters y (the `FreeZero` arm, which
/// nothing else reaches), y = −1. Two more fixes move x again.
#[test]
fn free_column_enters_the_dual_ratio_test() {
    let mut m = Model::maximize();
    let x = m.add_var("x", VarKind::Continuous, 0.0, 3.0, 1.0);
    let y = m.add_var(
        "y",
        VarKind::Continuous,
        f64::NEG_INFINITY,
        f64::INFINITY,
        0.0,
    );
    m.add_constraint("cap", [(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
    m.add_constraint("gap", [(y, 1.0), (x, -1.0)], Sense::Le, 10.0);
    let simplex = Simplex::default();
    let mut h = Fnv::new();
    let (mut lb, mut ub): (Vec<f64>, Vec<f64>) = m.vars().iter().map(|v| (v.lb, v.ub)).unzip();
    let root = simplex.solve_with_bounds(&m, &lb, &ub);
    assert!(matches!(&root, Ok(LpOutcome::Optimal { values, .. }) if values == &[3.0, 0.0]));
    fold_lp(&mut h, &simplex, root);
    let mut seen = Vec::new();
    for fix in [5.0, -8.0, 1.0] {
        (lb[0], ub[0]) = (fix, fix);
        let out = simplex.resolve_with_bounds(&m, &lb, &ub);
        if let Ok(LpOutcome::Optimal { values, .. }) = &out {
            seen.push(values.clone());
        }
        fold_lp(&mut h, &simplex, out);
    }
    // A nonbasic free column rests at zero: y = −1 means it entered.
    assert_eq!(seen[0], [5.0, -1.0]);
    assert_eq!(simplex.resolves(), 3, "every step re-solved from the basis");
    h.usize(simplex.resolves());
    assert_eq!(h.0, FREE_ENTERS, "free-column digest is {:#018x}", h.0);
}

/// A re-solve with every cost zero, so every reduced cost is zero and every
/// dual pivot is a stall: 400 rows `a·y_r + b·y_{r+1} ≥ c` over a chain of
/// 401 columns, solved with every column at 10 and re-solved with the lower
/// bounds dropped to 0. Past 257 stalled pivots the dual simplex switches
/// both its choices to the lowest index, the only way into its Bland arms.
#[test]
fn zero_cost_resolve_switches_the_dual_simplex_to_blands_rule() {
    const ROWS: usize = 400;
    let mut rng = SplitMix64(0x5EED_0000_B1A4_D033);
    let mut m = Model::maximize();
    let y: Vec<_> = (0..=ROWS)
        .map(|i| {
            m.add_var(
                format!("y{i}"),
                VarKind::Continuous,
                0.0,
                f64::INFINITY,
                0.0,
            )
        })
        .collect();
    for r in 0..ROWS {
        let (a, b) = (1 + rng.below(3), 1 + rng.below(3));
        let c = 1 + rng.below(5);
        m.add_constraint(
            format!("r{r}"),
            [(y[r], a as f64), (y[r + 1], b as f64)],
            Sense::Ge,
            c as f64,
        );
    }
    let simplex = Simplex::default();
    let ub = vec![f64::INFINITY; ROWS + 1];
    let mut h = Fnv::new();
    fold_lp(
        &mut h,
        &simplex,
        simplex.solve_with_bounds(&m, &[10.0; ROWS + 1], &ub),
    );
    let before = simplex.iterations();
    let out = simplex.resolve_with_bounds(&m, &[0.0; ROWS + 1], &ub);
    assert!(matches!(out, Ok(LpOutcome::Optimal { .. })), "{out:?}");
    assert_eq!(simplex.resolves(), 1);
    let pivots = simplex.iterations() - before;
    assert!(pivots > 257, "{pivots} dual pivots");
    fold_lp(&mut h, &simplex, out);
    assert_eq!(h.0, DUAL_BLAND, "dual Bland digest is {:#018x}", h.0);
}
