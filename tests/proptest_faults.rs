//! Property tests for the fault layer: fault-plan generation is a pure
//! function of its configuration, whole simulations under churn stay
//! deterministic, and the allocation ledger's conservation invariant
//! (`free + allocated + down == total`) survives arbitrary interleavings
//! of allocation, release, failure, and repair.

use proptest::prelude::*;
use tetrisched::cluster::{AllocHandle, Cluster, Ledger, NodeId, NodeSet};
use tetrisched::core::{TetriSched, TetriSchedConfig};
use tetrisched::sim::{
    FaultConfig, FaultPlan, JobId, JobSpec, JobType, RetryPolicy, SimConfig, Simulator,
};

fn arb_fault_config() -> impl Strategy<Value = FaultConfig> {
    (0u64..1000, 50.0f64..2000.0, 5.0f64..200.0, 200u64..3000).prop_map(
        |(seed, mtbf, mttr, horizon)| FaultConfig {
            seed,
            mtbf,
            mttr,
            horizon,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same seed and parameters => bit-identical fault plan; the events
    /// are sorted, alternate per node, and respect the horizon.
    #[test]
    fn fault_plan_is_deterministic(cfg in arb_fault_config(), nodes in 1usize..48) {
        let a = FaultPlan::generate(nodes, &cfg);
        let b = FaultPlan::generate(nodes, &cfg);
        prop_assert_eq!(a.events(), b.events());
        for w in a.events().windows(2) {
            prop_assert!((w[0].at, w[0].node.0) <= (w[1].at, w[1].node.0));
        }
        for e in a.events() {
            prop_assert!(e.at < cfg.horizon);
            prop_assert!((e.node.index()) < nodes);
        }
    }

    /// A different seed changes the plan (except in the rare case that
    /// both horizons elapse before any failure fires).
    #[test]
    fn fault_plan_seed_matters(cfg in arb_fault_config(), nodes in 4usize..32) {
        let a = FaultPlan::generate(nodes, &cfg);
        let b = FaultPlan::generate(nodes, &FaultConfig { seed: cfg.seed ^ 0xdead_beef, ..cfg });
        if !a.is_empty() || !b.is_empty() {
            prop_assert_ne!(a.events(), b.events());
        }
    }
}

/// Ledger op encoded for the conservation property.
#[derive(Debug, Clone)]
enum LedgerOp {
    Down(u32),
    Up(u32),
    Alloc(u64, u32),
    Release(u64),
}

fn arb_op(nodes: u32, handles: u64) -> impl Strategy<Value = LedgerOp> {
    prop_oneof![
        (0..nodes).prop_map(LedgerOp::Down),
        (0..nodes).prop_map(LedgerOp::Up),
        (0..handles, 0..nodes).prop_map(|(h, n)| LedgerOp::Alloc(h, n)),
        (0..handles).prop_map(LedgerOp::Release),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Conservation holds after every op in an arbitrary sequence. Ops may
    /// individually fail (allocating a down node, releasing an unknown
    /// handle) — errors are expected; corruption is not.
    #[test]
    fn ledger_conserves_nodes_under_random_ops(
        ops in proptest::collection::vec(arb_op(12, 6), 1..80),
    ) {
        const N: usize = 12;
        let mut ledger = Ledger::new(N);
        for op in &ops {
            match op {
                LedgerOp::Down(n) => {
                    let _ = ledger.mark_down(NodeId(*n));
                }
                LedgerOp::Up(n) => ledger.mark_up(NodeId(*n)),
                LedgerOp::Alloc(h, n) => {
                    let set = NodeSet::from_ids(N, [NodeId(*n)]);
                    let _ = ledger.allocate(AllocHandle(*h), set, 100);
                }
                LedgerOp::Release(h) => {
                    let _ = ledger.release(AllocHandle(*h));
                }
            }
            if let Err(e) = ledger.validate() {
                prop_assert!(false, "after {:?}: {}", op, e);
            }
            prop_assert_eq!(
                ledger.free_nodes().len() + ledger.busy_count() + ledger.down_count(),
                N
            );
        }
    }
}

fn mini_jobs(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            id: JobId(i as u64),
            submit: (i as u64) * 7 % 40,
            job_type: if i % 3 == 0 {
                JobType::Gpu
            } else {
                JobType::Unconstrained
            },
            k: 1 + (i as u32 % 3),
            base_runtime: 10 + (i as u64 * 13) % 30,
            slowdown: 1.5,
            deadline: if i % 2 == 0 {
                Some((i as u64) * 7 % 40 + 200)
            } else {
                None
            },
            estimate_error: 0.0,
        })
        .collect()
}

proptest! {
    // Whole simulations under churn are costly; a handful of cases is
    // plenty to catch nondeterminism.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Identical workload + fault plan => identical outcomes and fault
    /// metrics, run to run.
    #[test]
    fn churn_simulation_is_deterministic(seed in 0u64..500) {
        let cluster = Cluster::uniform(2, 4, 1);
        let faults = FaultPlan::generate(
            cluster.num_nodes(),
            &FaultConfig { seed, mtbf: 150.0, mttr: 20.0, horizon: 600 },
        );
        let config = SimConfig {
            faults,
            retry: RetryPolicy { max_retries: 2, backoff_base: 4, backoff_cap: 32 },
            strict_accounting: true,
            ..SimConfig::default()
        };
        let scheduler = TetriSchedConfig::full(16);
        let run = || {
            Simulator::new(
                cluster.clone(),
                TetriSched::new(scheduler.clone()),
                config.clone(),
            )
            .run(mini_jobs(8))
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(&a.outcomes, &b.outcomes);
        prop_assert_eq!(a.metrics.evictions, b.metrics.evictions);
        prop_assert_eq!(a.metrics.retries, b.metrics.retries);
        prop_assert_eq!(a.metrics.abandoned_after_retries, b.metrics.abandoned_after_retries);
        prop_assert_eq!(a.metrics.down_node_seconds, b.metrics.down_node_seconds);
        prop_assert_eq!(a.metrics.incomplete, 0);
    }
}
