//! Property tests over the service core's conservation law.
//!
//! For arbitrary interleavings of ingest and drain operations, under
//! arbitrary intake bounds and admission policies:
//!
//! - `admitted + shed + backlog == arrivals` at every step (no job is
//!   lost or double-counted),
//! - each drain batch's own accounting is exact: the batch admits at
//!   most the cycle budget, sheds exactly the depth excess, and reports
//!   the true residual backlog, and
//! - the intake is one FIFO: an arrival is shed at ingest only when the
//!   queue holds its bound, and each batch's admitted jobs followed by
//!   its shed jobs are the oldest queued, in arrival order.

use std::collections::VecDeque;

use proptest::prelude::*;
use tetrisched_service::{
    AdmissionPolicy, FairShareConfig, Ingest, ServiceConfig, ServiceCore, ServiceJob,
};

#[derive(Debug, Clone, Copy)]
struct Arrival(u64);

impl ServiceJob for Arrival {
    fn service_id(&self) -> u64 {
        self.0
    }
}

/// One step of the driving program.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Offer `count` arrivals.
    Ingest { count: u8 },
    /// Run one admission cycle against a scheduler backlog of `depth`.
    Drain { depth: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..12).prop_map(|count| Op::Ingest { count }),
        (0u8..16).prop_map(|depth| Op::Drain { depth }),
    ]
}

fn arb_policy() -> impl Strategy<Value = AdmissionPolicy> {
    (1usize..8, 1usize..16, 1usize..24).prop_map(
        |(max_admissions_per_cycle, max_scheduler_backlog, shed_queue_depth)| AdmissionPolicy {
            max_admissions_per_cycle,
            max_scheduler_backlog,
            shed_queue_depth,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The conservation law holds after every operation, every drain
    /// batch's per-cycle accounting agrees with the policy, and the queue
    /// drains in arrival order.
    #[test]
    fn accounting_is_conserved_under_arbitrary_programs(
        shards in 1u32..6,
        capacity in 1usize..10,
        policy in arb_policy(),
        ops in prop::collection::vec(arb_op(), 1..64),
    ) {
        let mut core: ServiceCore<Arrival> = ServiceCore::new(ServiceConfig::open(
            shards,
            capacity,
            policy.clone(),
            FairShareConfig::disabled(),
        ));
        // `ServiceConfig::open` bounds the queue at the product of its
        // first two arguments.
        let bound = (shards as usize).saturating_mul(capacity);
        // Ids accepted at ingest and not yet drained, oldest first.
        let mut shadow: VecDeque<u64> = VecDeque::new();
        let mut next_id = 0u64;
        let mut arrivals = 0u64;
        let mut admitted = 0u64;
        let mut shed = 0u64;
        for op in ops {
            match op {
                Op::Ingest { count } => {
                    for _ in 0..count {
                        arrivals += 1;
                        match core.ingest(Arrival(next_id)) {
                            Ingest::Admitted(_) => {
                                // Open mode never passes arrivals through.
                                prop_assert!(false, "open-mode ingest returned Admitted");
                            }
                            Ingest::Shed(job) => {
                                // Overflow hands the job back intact, and
                                // only a full queue overflows.
                                prop_assert_eq!(job.0, next_id);
                                prop_assert_eq!(
                                    shadow.len(),
                                    bound,
                                    "id {} shed at ingest below the bound",
                                    next_id
                                );
                                shed += 1;
                            }
                            // Queued.
                            _ => {
                                prop_assert!(
                                    shadow.len() < bound,
                                    "id {next_id} queued past the bound {bound}"
                                );
                                shadow.push_back(next_id);
                            }
                        }
                        next_id += 1;
                    }
                }
                Op::Drain { depth } => {
                    let before = core.backlog();
                    let batch = core.drain_cycle(depth as usize);
                    // The batch never admits past the cycle budget.
                    prop_assert!(
                        batch.admitted.len() <= policy.budget(depth as usize),
                        "admitted {} past budget {}",
                        batch.admitted.len(),
                        policy.budget(depth as usize)
                    );
                    // Depth shedding leaves at most `shed_queue_depth` queued.
                    prop_assert!(
                        batch.deferred <= policy.shed_queue_depth,
                        "deferred {} past depth bound {}",
                        batch.deferred,
                        policy.shed_queue_depth
                    );
                    // The batch partitions the pre-drain backlog exactly.
                    prop_assert_eq!(
                        batch.admitted.len() + batch.shed.len() + batch.deferred,
                        before,
                        "drain batch does not partition the backlog"
                    );
                    prop_assert_eq!(batch.deferred, core.backlog());
                    // Admitted then shed is the queue's front, in order.
                    let drained: Vec<u64> =
                        batch.admitted.iter().chain(&batch.shed).map(|a| a.0).collect();
                    let front: Vec<u64> = shadow.drain(..drained.len()).collect();
                    prop_assert_eq!(drained, front, "drain out of arrival order");
                    admitted += batch.admitted.len() as u64;
                    shed += batch.shed.len() as u64;
                }
            }
            // The core's law: shed + admitted + deferred(backlog) == arrivals.
            core.validate().map_err(TestCaseError::fail)?;
            // And the core's counters agree with our independent shadow.
            let stats = core.stats();
            prop_assert_eq!(stats.arrivals, arrivals);
            prop_assert_eq!(stats.admitted, admitted);
            prop_assert_eq!(stats.shed, shed);
            prop_assert_eq!(stats.backlog, shadow.len() as u64);
            prop_assert_eq!(
                stats.admitted + stats.shed + stats.backlog,
                stats.arrivals
            );
        }
    }

    /// Closed mode is a strict pass-through: every arrival is admitted
    /// immediately and drains are no-ops.
    #[test]
    fn closed_mode_admits_everything(count in 0u16..200) {
        let mut core: ServiceCore<Arrival> = ServiceCore::new(ServiceConfig::closed_loop());
        for id in 0..count {
            let got = core.ingest(Arrival(u64::from(id)));
            prop_assert!(matches!(got, Ingest::Admitted(_)));
        }
        let batch = core.drain_cycle(0);
        prop_assert!(batch.admitted.is_empty() && batch.shed.is_empty());
        let stats = core.stats();
        prop_assert_eq!(stats.admitted, u64::from(count));
        prop_assert_eq!(stats.shed, 0);
        prop_assert_eq!(stats.backlog, 0);
        core.validate().map_err(TestCaseError::fail)?;
    }
}
