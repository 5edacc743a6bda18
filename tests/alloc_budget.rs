//! Heap allocations of one greedy unit, as an exact count.
//!
//! One fixed one-job request — a four-node GPU job with a deadline on the
//! 1 000-node cluster of the greedy benchmark workload, over a two-thirds
//! busy ledger — goes through what `TetriSched::cycle_greedy` does per job:
//! `PartitionSet::refine`, `compile` against the cycle's availability
//! snapshot, `ExactBackend::solve`. A counting global allocator (counter in
//! a const-initialised thread-local `Cell`, so the count is this test's
//! thread's alone and reading it allocates nothing) counts every `alloc` and
//! `realloc` in between. The count does not depend on the machine, so it is
//! a gate: building and solving a 15-variable model is arithmetic, not a
//! few hundred trips to the allocator. A debug build's solve also runs the
//! `debug_precheck` / `debug_postcheck` audits, which allocate their
//! findings, so there only the build half is held to its budget; CI runs
//! this test under `--release` as well.
//!
//! On the parent of the PR that made names lazy, rows canonical at insertion
//! and presolve one pass, this request (20 variables x 49 rows) cost 259
//! allocations to build and 496 to solve: 755 in all. Since the search
//! stopped presolving (PR 25; the presolved copy of the model cost 11), the
//! request (15 variables x 12 rows) costs exactly 105 to build and 20 to
//! solve in release, against budgets of 114 and 29.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tetrisched::cluster::{AllocHandle, Cluster, Ledger, NodeId, NodeSet, PartitionSet, Time};
use tetrisched::core::{compile, CompileInput, StrlGenerator, TetriSchedConfig};
use tetrisched::milp::{ExactBackend, MilpBackend, SolveStatus, SolverConfig};
use tetrisched::sim::{JobId, JobSpec, JobType, PendingJob};
use tetrisched::strl::{JobClass, StrlExpr};

/// Allocations of refine + compile + solve may not exceed this …
const TOTAL_BUDGET: u64 = 143;
/// … of which this many inside `ExactBackend::solve`.
const SOLVE_BUDGET: u64 = 29;

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

#[test]
fn one_job_unit_stays_inside_its_allocation_budget() {
    const NOW: Time = 400;
    let cluster = Cluster::uniform(10, 100, 2);
    let n = cluster.num_nodes();
    // Two nodes in three busy, in gangs of four that end over the next 80 s.
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
    let rack_avail = |s: &NodeSet| ledger.avail_at(s, NOW);
    let request = StrlGenerator::new(&sched, &cluster).job_expr(&pending, NOW, &rack_avail);
    assert!(request.is_schedulable());
    let mut leaf_sets = Vec::new();
    request.expr.visit(&mut |e| {
        if let StrlExpr::NCk { set, .. } | StrlExpr::LnCk { set, .. } = e {
            leaf_sets.push(set.clone());
        }
    });
    let backend = ExactBackend::new(
        SolverConfig::online(sched.solver_time_limit).with_rel_gap(sched.solver_gap),
    );
    // The cycle's availability snapshot, as the scheduler's pipeline reads it.
    let view = ledger.availability(&[]);
    let avail = |set: &NodeSet, t: Time| view.avail_at(set, t);

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
    println!("{vars} vars x {rows} rows: {build} allocations to build, {solve} to solve");
    assert!(
        build <= TOTAL_BUDGET - SOLVE_BUDGET,
        "{build} allocations to build: budget {}",
        TOTAL_BUDGET - SOLVE_BUDGET
    );
    if !cfg!(debug_assertions) {
        assert!(
            build + solve <= TOTAL_BUDGET && solve <= SOLVE_BUDGET,
            "{build} allocations to build + {solve} to solve: \
             budget {TOTAL_BUDGET}, of which solve {SOLVE_BUDGET}"
        );
    }
}
