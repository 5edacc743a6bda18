//! The MILP is the direct evaluator's oracle.
//!
//! `evaluate` places one job's request without a model. It must choose what
//! `compile` plus the exact backend, at the scheduler's gap, choose: the
//! same leaves with the same per-class counts, the same value and the same
//! dead leaves, and the same error where `compile` fails. The property runs
//! over the generator's own requests: every `JobType` (the `Availability`
//! `min` legs included), heterogeneity on and off (`NH`), random `k`,
//! runtimes and deadlines, a random ledger and random claims of earlier
//! units. The hand-made cases pin the ties the simplex breaks.

use proptest::prelude::*;
use tetrisched::cluster::{
    AllocHandle, Attr, Claims, Cluster, Ledger, NodeId, NodeSet, PartitionSet, Time,
};
use tetrisched::core::{
    compile, evaluate, CompileInput, Evaluation, StrlGenerator, TetriSchedConfig,
};
use tetrisched::milp::{ExactBackend, MilpBackend, SolverConfig};
use tetrisched::sim::{JobId, JobSpec, JobType, PendingJob};
use tetrisched::strl::{JobClass, StrlExpr};

/// Checks `evaluate` against `compile` + `ExactBackend` under the scheduler's
/// solver settings, and returns the evaluation.
fn agree(
    expr: &StrlExpr,
    partitions: &PartitionSet,
    now: Time,
    config: &TetriSchedConfig,
    avail: &dyn Fn(&NodeSet, Time) -> usize,
) -> Result<Option<Evaluation>, TestCaseError> {
    let input = CompileInput {
        expr,
        partitions,
        now,
        quantum: config.cycle_period,
        n_slices: config.n_slices(),
    };
    let evaluated = evaluate(&input, avail);
    let compiled = match compile(&input, avail) {
        Ok(compiled) => compiled,
        Err(e) => {
            prop_assert_eq!(evaluated, Err(e), "both must fail, and alike");
            return Ok(None);
        }
    };
    let evaluated = evaluated.map_err(|e| TestCaseError::fail(format!("evaluate: {e}")))?;
    let backend = ExactBackend::new(
        SolverConfig::online(config.solver_time_limit).with_rel_gap(config.solver_gap),
    );
    let sol = backend
        .solve(&compiled.model, None)
        .map_err(|e| TestCaseError::fail(format!("solve: {e}")))?;
    prop_assert!(sol.status.has_solution(), "{:?}", sol.status);
    prop_assert_eq!(
        &evaluated.chosen,
        &compiled.chosen(&sol),
        "leaves and counts"
    );
    prop_assert!(
        (evaluated.value - sol.objective).abs() <= 1e-9 * (1.0 + sol.objective.abs()),
        "value {} vs objective {}",
        evaluated.value,
        sol.objective
    );
    prop_assert_eq!(evaluated.leaves_dead, compiled.leaves_dead);
    Ok(Some(evaluated))
}

fn leaf_sets(expr: &StrlExpr) -> Vec<NodeSet> {
    let mut sets = Vec::new();
    expr.visit(&mut |e| {
        if let StrlExpr::NCk { set, .. } | StrlExpr::LnCk { set, .. } = e {
            sets.push(set.clone());
        }
    });
    sets
}

/// One rack of `per_rack` nodes per entry of `gpu_per_rack`, the first
/// `gpu_per_rack[r]` of rack `r` carrying the `gpu` attribute.
fn cluster(per_rack: usize, gpu_per_rack: &[usize]) -> Cluster {
    let mut b = Cluster::builder();
    for &gpus in gpu_per_rack {
        let gpus = gpus.min(per_rack);
        b.add_rack(gpus, vec![Attr::gpu()]);
        for _ in gpus..per_rack {
            b.add_node(Vec::new());
        }
    }
    b.build()
}

#[derive(Debug, Clone)]
struct Unit {
    per_rack: usize,
    gpu_per_rack: Vec<usize>,
    job_type: u8,
    class: u8,
    k: u32,
    runtime: u64,
    slowdown: u8,
    /// Deadline as runtime × slack / 4 past now.
    deadline_slack: Option<u32>,
    heterogeneity: bool,
    plan_ahead_quanta: u64,
    now_quanta: u64,
    /// Per node: busy with a gang ending this many quanta past now.
    busy: Vec<Option<u64>>,
    /// Per node: claimed by an earlier unit over `[start, end)` quanta.
    claims: Vec<Option<(u64, u64)>>,
}

fn arb_unit() -> impl Strategy<Value = Unit> {
    (2usize..7, prop::collection::vec(0usize..4, 1..6)).prop_flat_map(|(per_rack, gpus)| {
        let n = per_rack * gpus.len();
        (
            (
                Just(per_rack),
                Just(gpus),
                0u8..4,
                0u8..3,
                1u32..7,
                4u64..60,
            ),
            (
                0u8..3,
                prop::option::of(3u32..40),
                prop::bool::ANY,
                0u64..25,
                0u64..50,
            ),
            prop::collection::vec(prop::option::of(0u64..30), n),
            prop::collection::vec(prop::option::of((0u64..25, 1u64..10)), n),
        )
            .prop_map(
                |(
                    (per_rack, gpu_per_rack, job_type, class, k, runtime),
                    (slowdown, deadline_slack, heterogeneity, plan_ahead_quanta, now_quanta),
                    busy,
                    claims,
                )| Unit {
                    per_rack,
                    gpu_per_rack,
                    job_type,
                    class,
                    k,
                    runtime,
                    slowdown,
                    deadline_slack,
                    heterogeneity,
                    plan_ahead_quanta,
                    now_quanta,
                    busy,
                    claims: claims
                        .into_iter()
                        .map(|c| c.map(|(start, len)| (start, start + len)))
                        .collect(),
                },
            )
    })
}

fn job_type(i: u8) -> JobType {
    match i {
        0 => JobType::Unconstrained,
        1 => JobType::Gpu,
        2 => JobType::Mpi,
        _ => JobType::Availability,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// On the generator's requests, over a random ledger and random claims,
    /// the evaluator and the MILP agree leaf for leaf and count for count.
    #[test]
    fn evaluator_matches_the_milp(unit in arb_unit()) {
        let cluster = cluster(unit.per_rack, &unit.gpu_per_rack);
        let n = cluster.num_nodes();
        let config = TetriSchedConfig {
            heterogeneity: unit.heterogeneity,
            plan_ahead: unit.plan_ahead_quanta * 4,
            ..TetriSchedConfig::no_global(96)
        };
        let q = config.cycle_period;
        let now = unit.now_quanta * q;

        let mut ledger = Ledger::new(n);
        for (i, end) in unit.busy.iter().enumerate() {
            if let Some(end) = end {
                let node = NodeSet::from_ids(n, [NodeId(i as u32)]);
                ledger
                    .allocate(AllocHandle(i as u64), node, now + 1 + end * q)
                    .map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
            }
        }
        // Each node is claimed at most once, so overlapping claims never
        // share a node.
        let mut claims = Claims::new(n);
        for (i, claim) in unit.claims.iter().enumerate() {
            if let Some((start, end)) = claim {
                let node = NodeSet::from_ids(n, [NodeId(i as u32)]);
                claims.claim(&node, now + start * q, now + end * q);
            }
        }

        let job_type = job_type(unit.job_type);
        let pending = PendingJob {
            spec: JobSpec {
                id: JobId(1),
                submit: now.saturating_sub(8),
                job_type,
                k: unit.k,
                base_runtime: unit.runtime,
                slowdown: match unit.slowdown {
                    0 => 1.0,
                    1 => 1.5,
                    _ => 2.0,
                },
                deadline: unit.deadline_slack.map(|s| now + unit.runtime * s as u64 / 4),
                estimate_error: 0.0,
            },
            class: match unit.class {
                0 => JobClass::SloAccepted,
                1 => JobClass::SloNoReservation,
                _ => JobClass::BestEffort,
            },
            reservation: None,
            preemptions: 0,
            weight: 1.0,
        };
        // What `cycle_greedy` reads: the cycle's snapshot less the claims.
        let view = ledger.availability(&[]);
        let rack_avail = |s: &NodeSet| view.avail_at(s, now);
        let request = StrlGenerator::new(&config, &cluster).job_expr(&pending, now, &rack_avail);
        if !request.is_schedulable() {
            return Ok(());
        }
        let avail = |set: &NodeSet, t: Time| {
            view.avail_at(set, t).saturating_sub(claims.held_at(t).and_len(set))
        };
        let partitions = PartitionSet::refine(n, &leaf_sets(&request.expr));
        agree(&request.expr, &partitions, now, &config, &avail)?;
    }
}

fn set(cap: usize, ids: &[u32]) -> NodeSet {
    NodeSet::from_ids(cap, ids.iter().map(|&i| NodeId(i)))
}

/// Evaluates `expr` over eight nodes, all free, against the oracle.
fn agreed(expr: &StrlExpr) -> Evaluation {
    let config = TetriSchedConfig::no_global(16);
    let partitions = PartitionSet::refine(8, &leaf_sets(expr));
    let evaluated = agree(expr, &partitions, 0, &config, &|s: &NodeSet, _| s.len());
    match evaluated {
        Ok(Some(evaluated)) => evaluated,
        Ok(None) => panic!("the hand-made request does not compile"),
        Err(e) => panic!("the evaluator and the MILP disagree: {e}"),
    }
}

/// The leaf each hand-made case chooses, first leg for a `min`.
fn winner(expr: &StrlExpr) -> usize {
    agreed(expr).chosen[0].leaf
}

#[test]
fn equal_values_prefer_the_single_class_leaf() {
    // {0..3} splits into {0, 1} and {2, 3}: the first leaf draws from two
    // classes, the second from one, and both are worth 5.
    let (all, gpus) = (set(8, &[0, 1, 2, 3]), set(8, &[0, 1]));
    let expr = StrlExpr::max([
        StrlExpr::nck(all.clone(), 2, 0, 8, 5.0),
        StrlExpr::nck(gpus.clone(), 2, 0, 8, 5.0),
    ]);
    assert_eq!(winner(&expr), 1, "the single-class leaf, though second");
    // Two single-class leaves: the first.
    let expr = StrlExpr::max([
        StrlExpr::nck(gpus.clone(), 2, 0, 8, 5.0),
        StrlExpr::nck(gpus.clone(), 2, 4, 8, 5.0),
    ]);
    assert_eq!(winner(&expr), 0);
    // A single-class leaf ahead of a multi-class one stays.
    let expr = StrlExpr::max([
        StrlExpr::nck(gpus.clone(), 2, 0, 8, 5.0),
        StrlExpr::nck(all.clone(), 2, 0, 8, 5.0),
    ]);
    assert_eq!(winner(&expr), 0);
    // At k = 1 a multi-class leaf prices at its value too: the first wins.
    let expr = StrlExpr::max([
        StrlExpr::nck(all, 1, 0, 8, 5.0),
        StrlExpr::nck(gpus, 1, 0, 8, 5.0),
    ]);
    assert_eq!(winner(&expr), 0);
}

#[test]
fn a_min_tied_with_a_leaf() {
    let racks = [set(8, &[0, 1]), set(8, &[2, 3]), set(8, &[4, 5])];
    let all = set(8, &[0, 1, 2, 3, 4, 5, 6, 7]);
    let min = |v| StrlExpr::min(racks.iter().map(|r| StrlExpr::nck(r.clone(), 1, 0, 8, v)));
    let sole = |v| StrlExpr::nck(racks[0].clone(), 2, 0, 8, v);
    let multi = |v| StrlExpr::nck(all.clone(), 3, 0, 8, v);
    // Above 1 a `min` waits for its value variable, priced at 1: the tied
    // leaf wins from either side. Legs are leaves 0-2 when the `min` is
    // first.
    assert_eq!(winner(&StrlExpr::max([min(5.0), multi(5.0)])), 3);
    assert_eq!(winner(&StrlExpr::max([multi(5.0), min(5.0)])), 0);
    assert_eq!(winner(&StrlExpr::max([min(5.0), sole(5.0)])), 3);
    assert_eq!(winner(&StrlExpr::max([sole(5.0), min(5.0)])), 0);
    // Below 1 it prices at its value, and the first of equal prices wins.
    assert_eq!(winner(&StrlExpr::max([min(0.5), sole(0.5)])), 0);
    assert_eq!(winner(&StrlExpr::max([sole(0.5), min(0.5)])), 0);
    assert_eq!(winner(&StrlExpr::max([min(0.5), multi(0.5)])), 0);
    assert_eq!(winner(&StrlExpr::max([multi(0.5), min(0.5)])), 1);
}

/// The counter-example to "the first child of largest value wins, a
/// single-class leaf first among equals": one ulp is below the simplex's
/// tolerance, so a multi-class leaf one ulp higher does not take over.
#[test]
fn values_one_ulp_apart() {
    let (all, gpus) = (set(8, &[0, 1, 2, 3]), set(8, &[0, 1]));
    let (low, high) = (5.0, f64::from_bits(5.0f64.to_bits() + 1));
    let expr = StrlExpr::max([
        StrlExpr::nck(gpus.clone(), 2, 0, 8, low),
        StrlExpr::nck(all.clone(), 2, 0, 8, high),
    ]);
    assert_eq!(winner(&expr), 0);
    let expr = StrlExpr::max([
        StrlExpr::nck(all, 2, 0, 8, high),
        StrlExpr::nck(gpus.clone(), 2, 0, 8, low),
    ]);
    assert_eq!(winner(&expr), 1);
    // Between two single-class leaves the ulp decides the first pivot.
    let expr = StrlExpr::max([
        StrlExpr::nck(gpus.clone(), 2, 0, 8, low),
        StrlExpr::nck(gpus, 2, 4, 8, high),
    ]);
    assert_eq!(winner(&expr), 1);
}

#[test]
fn counts_fill_classes_in_cover_order_up_to_their_caps() {
    // Classes {0, 1}, {2, 3} and {4..7}; nodes 0 and 2 busy, so the
    // first two classes give one node each.
    let all = set(8, &[0, 1, 2, 3, 4, 5, 6, 7]);
    let expr = StrlExpr::max([StrlExpr::nck(all.clone(), 4, 0, 8, 1.0)]);
    let partitions = PartitionSet::refine(8, &[set(8, &[0, 1]), set(8, &[2, 3]), all]);
    let busy = set(8, &[0, 2]);
    let avail = |s: &NodeSet, _| s.len() - s.and_len(&busy);
    let config = TetriSchedConfig::no_global(16);
    let evaluated = agree(&expr, &partitions, 0, &config, &avail)
        .expect("the evaluator and the MILP agree")
        .expect("the request compiles");
    assert_eq!(evaluated.chosen[0].counts, vec![(0, 1), (1, 1), (2, 2)]);
}

#[test]
fn other_shapes_are_errors() {
    let all = set(8, &[0, 1, 2, 3]);
    let partitions = PartitionSet::refine(8, std::slice::from_ref(&all));
    let leaf = StrlExpr::nck(all.clone(), 2, 0, 8, 1.0);
    for expr in [
        leaf.clone(),
        StrlExpr::sum([leaf.clone()]),
        StrlExpr::max([StrlExpr::lnck(all.clone(), 2, 0, 8, 1.0)]),
        StrlExpr::max([StrlExpr::min([])]),
        StrlExpr::max([StrlExpr::scale(2.0, leaf.clone())]),
        // Legs that share a class share its supply.
        StrlExpr::max([StrlExpr::min([leaf.clone(), leaf.clone()])]),
    ] {
        let input = CompileInput {
            expr: &expr,
            partitions: &partitions,
            now: 0,
            quantum: 4,
            n_slices: 5,
        };
        assert_eq!(
            evaluate(&input, &|s: &NodeSet, _| s.len()),
            Err(tetrisched::core::compiler::CompileError::NotOneJob),
            "{expr:?}"
        );
    }
}
