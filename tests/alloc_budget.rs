//! Heap allocations of one greedy unit, of the model builder the global
//! unit still runs, and of generating the request both take, as exact
//! counts.
//!
//! One fixed one-job request — a four-node GPU job with a deadline on the
//! 1 000-node cluster of the greedy benchmark workload, over a two-thirds
//! busy ledger — goes through what `TetriSched::cycle_greedy` does per job:
//! `PartitionSet::refine` over the request's distinct leaf sets, then
//! `evaluate` against the cycle's availability snapshot. A counting global
//! allocator (counter in a const-initialised thread-local `Cell`, so the
//! count is this test's thread's alone and reading it allocates nothing)
//! counts every `alloc` and `realloc` in between. The count does not depend
//! on the machine, so it is a gate. It is exactly 13, in release and debug:
//! refined classes, the evaluator's free table, covers and scratch, the
//! chosen counts. It was 28 while refine built both parts of every class at
//! every set, 22 while `evaluate` covered every leaf anew, and 14 while each
//! distinct set's cover was a vector of its own; now only a set that splits
//! a class allocates, leaves of one set share its cover, and the covers of
//! all sets are one list.
//!
//! Within a cycle only the first unit of a leaf-set shape refines: later
//! units of the shape borrow its classes from the cycle's free table. The
//! marginal unit, taken through `Scheduler::cycle` under `no_global` as a
//! cycle over 16 copies of the job minus one over 8 (every unit launches),
//! costs 21.5 allocations, counted as 22: generation and its request vector,
//! `evaluate`, then materializing, claiming and launching the gang (about
//! 6.5 of them). It cost 27.5 while every unit refined its own sets, and
//! 22.5 before the covers were one list.
//!
//! Generating the request (`StrlGenerator::job_expr`) costs exactly 5, and
//! the same with two start options as with eight: a leaf's node set is a
//! shared clone of the cluster's, and the request's vectors are sized once.
//! It cost 17 while every leaf copied its set and the cluster rescanned its
//! nodes for the GPU set.
//!
//! The same request through `compile` and `ExactBackend::solve` guards the
//! model builder and the solver the global unit runs on every cycle. Before
//! names were lazy, rows canonical at insertion and presolve one pass, it
//! (20 variables x 49 rows) cost 259 allocations to build and 496 to solve:
//! 755 in all. Since the search stopped presolving (the presolved copy of
//! the model cost 11), the request (15 variables x 12 rows) cost 105 to
//! build; 71 once refine stopped allocating where a set splits nothing and
//! the supply rows were bucketed by a counting pass, and 66 with one cover
//! per distinct leaf set. Since `compile` works per (leaf, class) interval
//! instead of per slice — one span per leaf and class for the supply rows,
//! one objective accumulator, one list of every leaf's draws, an ancestor
//! chain shared by the leaves under it, the model's and the supply sweep's
//! vectors sized once — it costs exactly 34 to build and 22 to solve in
//! release (20 before the simplex kept its pricing scores and entering
//! column in two buffers of their own), against budgets of 43 and 29.
//! Through this model the greedy unit cost 125. A debug build's solve also runs
//! the `debug_precheck` / `debug_postcheck` audits, which allocate their
//! findings, so there only the build half is held to its budget; CI runs
//! this test under `--release` as well. Each budget is its exact release
//! count plus 9.
//!
//! The greedy unit's `evaluate` and the builder's `compile` each ask the
//! availability snapshot for 40 counts, one per (class, slice) cell a leaf
//! reaches. The counts are pinned as ceilings: a cheaper build may not buy
//! its time with more reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tetrisched::cluster::{AllocHandle, Cluster, Ledger, NodeId, NodeSet, PartitionSet, Time};
use tetrisched::core::{
    compile, evaluate, CompileInput, JobRequest, StrlGenerator, TetriSched, TetriSchedConfig,
};
use tetrisched::milp::{ExactBackend, MilpBackend, SolveStatus, SolverConfig};
use tetrisched::sim::{CycleContext, JobId, JobSpec, JobType, PendingJob, Scheduler, Telemetry};
use tetrisched::strl::{JobClass, StrlExpr};

/// Allocations of the greedy unit: refine over distinct sets + evaluate.
const GREEDY_UNIT_BUDGET: u64 = 22;
/// Allocations of compile + solve may not exceed this …
const MODEL_BUDGET: u64 = 72;
/// … of which this many inside `ExactBackend::solve`.
const SOLVE_BUDGET: u64 = 29;
/// Allocations of `StrlGenerator::job_expr` for the test's job.
const GENERATE_BUDGET: u64 = 14;
/// Allocations of one more unit of a shape the cycle has met, through
/// `Scheduler::cycle`: generate, evaluate, materialize, claim, launch.
const REPEATED_UNIT_BUDGET: u64 = 31;
/// `avail` calls of the greedy unit's `evaluate`, and of the builder's
/// `compile`, captured before `compile` took caps and supply rows per
/// interval: neither may buy its speed with more reads.
const GREEDY_UNIT_READS: usize = 40;
const MODEL_BUILD_READS: usize = 40;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `Cell` in a const-initialised
// thread-local without a destructor, so bumping it neither allocates nor
// touches another thread's state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const NOW: Time = 400;

/// The benchmark's cluster, two nodes in three busy in gangs of four that
/// end over the next 80 s, the scheduler's configuration and the job.
fn scene() -> (Cluster, Ledger, TetriSchedConfig, PendingJob) {
    let cluster = Cluster::uniform(10, 100, 2);
    let n = cluster.num_nodes();
    let mut ledger = Ledger::new(n);
    let busy: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 0).collect();
    for (g, gang) in busy.chunks(4).enumerate() {
        let nodes = NodeSet::from_ids(n, gang.iter().map(|&i| NodeId(i)));
        ledger
            .allocate(AllocHandle(g as u64), nodes, NOW + 4 + (g as u64 * 7) % 80)
            .expect("gangs are disjoint and their handles fresh");
    }
    let sched = TetriSchedConfig {
        cycle_period: 4,
        ..TetriSchedConfig::default()
    };
    let pending = PendingJob {
        spec: JobSpec {
            id: JobId(1),
            submit: NOW - 8,
            job_type: JobType::Gpu,
            k: 4,
            base_runtime: 28,
            slowdown: 2.0,
            deadline: Some(NOW + 80),
            estimate_error: 0.0,
        },
        class: JobClass::SloAccepted,
        reservation: None,
        preemptions: 0,
        weight: 1.0,
    };
    (cluster, ledger, sched, pending)
}

/// [`scene`] with the job's request generated.
fn setup() -> (Ledger, TetriSchedConfig, JobRequest) {
    let (cluster, ledger, sched, pending) = scene();
    let rack_avail = |s: &NodeSet| ledger.avail_at(s, NOW);
    let request = StrlGenerator::new(&sched, &cluster).job_expr(&pending, NOW, &rack_avail);
    assert!(request.is_schedulable());
    (ledger, sched, request)
}

#[test]
fn generating_one_request_stays_inside_its_allocation_budget() {
    let (cluster, ledger, sched, pending) = scene();
    let rack_avail = |s: &NodeSet| ledger.avail_at(s, NOW);
    // Leaves and allocations of the request under `starts` start options.
    let generate = |starts: usize| {
        let sched = TetriSchedConfig {
            max_start_options: starts,
            ..sched.clone()
        };
        let generator = StrlGenerator::new(&sched, &cluster);
        let start = allocations();
        let request = generator.job_expr(&pending, NOW, &rack_avail);
        (request.tags.len(), allocations() - start)
    };

    let (leaves, used) = generate(sched.max_start_options);
    let (few, used_by_few) = generate(2);
    println!("{leaves} leaves: {used} allocations; {few} leaves: {used_by_few}");
    assert!(leaves >= 8 && few < leaves, "{leaves} and {few} leaves");
    assert_eq!(used, used_by_few, "the count grows with the leaves");
    assert!(
        used <= GENERATE_BUDGET,
        "{used} allocations: budget {GENERATE_BUDGET}"
    );
}

#[test]
fn one_job_unit_stays_inside_its_allocation_budget() {
    let (ledger, sched, request) = setup();
    let n = ledger.num_nodes();
    // The cycle's availability snapshot, as the scheduler's pipeline reads it.
    let view = ledger.availability(&[]);
    let reads = Cell::new(0);
    let avail = |set: &NodeSet, t: Time| {
        reads.set(reads.get() + 1);
        view.avail_at(set, t)
    };

    let start = allocations();
    let mut sets: Vec<NodeSet> = Vec::new();
    request.expr.visit(&mut |e| {
        if let StrlExpr::NCk { set, .. } | StrlExpr::LnCk { set, .. } = e {
            if !sets.iter().any(|s| s.shares_storage(set)) {
                sets.push(set.clone());
            }
        }
    });
    let partitions = PartitionSet::refine(n, &sets);
    let input = CompileInput {
        expr: &request.expr,
        partitions: &partitions,
        now: NOW,
        quantum: sched.cycle_period,
        n_slices: sched.n_slices(),
    };
    let evaluation = evaluate(&input, &avail).expect("generated requests evaluate");
    let used = allocations() - start;

    assert_eq!(evaluation.chosen.len(), 1, "{evaluation:?}");
    let reads = reads.get();
    println!(
        "{} leaves over {} distinct sets: {used} allocations, {reads} reads",
        request.tags.len(),
        sets.len()
    );
    assert!(
        used <= GREEDY_UNIT_BUDGET,
        "{used} allocations: budget {GREEDY_UNIT_BUDGET}"
    );
    assert!(
        reads <= GREEDY_UNIT_READS,
        "{reads} reads: at most {GREEDY_UNIT_READS}"
    );
}

#[test]
fn global_model_builder_stays_inside_its_allocation_budget() {
    let (ledger, sched, request) = setup();
    let n = ledger.num_nodes();
    let mut leaf_sets = Vec::new();
    request.expr.visit(&mut |e| {
        if let StrlExpr::NCk { set, .. } | StrlExpr::LnCk { set, .. } = e {
            leaf_sets.push(set.clone());
        }
    });
    let backend = ExactBackend::new(
        SolverConfig::online(sched.solver_time_limit).with_rel_gap(sched.solver_gap),
    );
    let view = ledger.availability(&[]);
    let reads = Cell::new(0);
    let avail = |set: &NodeSet, t: Time| {
        reads.set(reads.get() + 1);
        view.avail_at(set, t)
    };

    let start = allocations();
    let partitions = PartitionSet::refine(n, &leaf_sets);
    let input = CompileInput {
        expr: &request.expr,
        partitions: &partitions,
        now: NOW,
        quantum: sched.cycle_period,
        n_slices: sched.n_slices(),
    };
    let compiled = compile(&input, &avail).expect("generated expressions compile");
    let built = allocations();
    let solution = backend.solve(&compiled.model, None);
    let solved = allocations();

    let solution = solution.expect("compiled models are well formed");
    assert_eq!(solution.status, SolveStatus::Optimal);
    let (vars, rows) = (compiled.model.num_vars(), compiled.model.num_constraints());
    assert!(vars >= 10 && rows >= 10, "a {vars} x {rows} model");
    let (build, solve) = (built - start, solved - built);
    let reads = reads.get();
    println!(
        "{vars} vars x {rows} rows: {build} allocations to build, {solve} to solve, {reads} reads"
    );
    assert!(
        reads <= MODEL_BUILD_READS,
        "{reads} reads: at most {MODEL_BUILD_READS}"
    );
    assert!(
        build <= MODEL_BUDGET - SOLVE_BUDGET,
        "{build} allocations to build: budget {}",
        MODEL_BUDGET - SOLVE_BUDGET
    );
    if !cfg!(debug_assertions) {
        assert!(
            build + solve <= MODEL_BUDGET && solve <= SOLVE_BUDGET,
            "{build} allocations to build + {solve} to solve: \
             budget {MODEL_BUDGET}, of which solve {SOLVE_BUDGET}"
        );
    }
}

/// Allocations of one `Scheduler::cycle` under `no_global` over `n` copies
/// of the test's job, each its own unit of one shape, and how many launch.
fn greedy_cycle_allocations(n: usize) -> (u64, usize) {
    let (cluster, ledger, sched, pending) = scene();
    let jobs: Vec<PendingJob> = (1..=n as u64)
        .map(|id| PendingJob {
            spec: JobSpec {
                id: JobId(id),
                ..pending.spec.clone()
            },
            ..pending.clone()
        })
        .collect();
    let telemetry = Telemetry::disabled();
    let ctx = CycleContext {
        now: NOW,
        cluster: &cluster,
        ledger: &ledger,
        pending: &jobs,
        running: &[],
        telemetry: &telemetry,
    };
    let mut scheduler = TetriSched::new(TetriSchedConfig {
        global: false,
        max_batch: n,
        ..sched
    });
    let start = allocations();
    let d = scheduler.cycle(&ctx);
    let used = allocations() - start;
    assert!(d.errors.is_empty(), "{:?}", d.errors);
    (used, d.launches.len())
}

#[test]
fn a_repeated_shape_unit_stays_inside_its_allocation_budget() {
    const N: usize = 8;
    let (once, launched_once) = greedy_cycle_allocations(N);
    let (twice, launched_twice) = greedy_cycle_allocations(2 * N);
    assert_eq!(
        (launched_once, launched_twice),
        (N, 2 * N),
        "every unit launches"
    );
    let unit = (twice - once).div_ceil(N as u64);
    println!(
        "{once} allocations over {N} units, {twice} over {}: {unit} a unit",
        2 * N
    );
    assert!(
        unit <= REPEATED_UNIT_BUDGET,
        "{unit} allocations a repeated-shape unit: budget {REPEATED_UNIT_BUDGET}"
    );
}
