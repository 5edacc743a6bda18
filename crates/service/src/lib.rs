//! Event-driven service core for the TetriSched reproduction.
//!
//! The simulator's original batch loop handled job arrival, admission,
//! and objective weighting inline. This crate carves those concerns into
//! an always-on service core that the engine drives from its virtual
//! clock:
//!
//! - the intake — one bounded FIFO queue of arrivals; an arrival that
//!   finds it full is shed at ingest.
//! - [`admission`] — per-cycle batching with backpressure (defer when
//!   the scheduler's pending queue is deep) and load shedding (drop the
//!   oldest excess when the intake backlog passes its bound).
//! - [`tenancy`] — per-tenant fair-share weights folded into STRL
//!   objective generation.
//!
//! Everything is single-threaded and caller-driven: no threads, no
//! channels, no clocks (srclint L010 and L001 enforce this). In
//! [`ServiceMode::Closed`] the core is a pure pass-through so the
//! existing trace-replay path reproduces its decisions byte-for-byte;
//! [`ServiceMode::Open`] enables the full intake/admission pipeline for
//! open-loop arrival streams.

#![deny(unsafe_code)]
// A panic here kills the run: a function that keeps one says why in an `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]
#![deny(clippy::unimplemented, clippy::allow_attributes_without_reason)]

use std::collections::VecDeque;

pub mod admission;
pub mod tenancy;

pub use admission::AdmissionPolicy;
pub use tenancy::{FairShareBook, FairShareConfig, TenantId};

/// A job the service core can queue. The id must be stable for the job's
/// lifetime: tenant assignment ([`FairShareConfig::tenant_of`]) keys on it.
pub trait ServiceJob: Clone {
    fn service_id(&self) -> u64;
}

/// Operating mode of the service core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMode {
    /// Closed-loop trace replay: arrivals pass straight through to the
    /// scheduler, exactly as the pre-service engine behaved.
    Closed,
    /// Open-loop service: arrivals queue on the intake and are admitted
    /// in per-cycle batches under backpressure.
    Open,
}

/// Full service-core configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    pub mode: ServiceMode,
    /// Intake queue bound (open mode): an arrival that finds this many
    /// jobs queued is shed at ingest.
    pub intake_capacity: usize,
    pub admission: AdmissionPolicy,
    pub fair_share: FairShareConfig,
}

impl ServiceConfig {
    /// The closed-loop default: pass-through ingest, no fair-share
    /// weighting. Running the engine with this config reproduces the
    /// pre-refactor engine byte-for-byte.
    pub fn closed_loop() -> Self {
        ServiceConfig {
            mode: ServiceMode::Closed,
            intake_capacity: usize::MAX,
            admission: AdmissionPolicy::default(),
            fair_share: FairShareConfig::disabled(),
        }
    }

    /// An open-loop configuration whose intake queue is bounded at
    /// `shards × per_shard` (saturating). The intake once split arrivals
    /// over `shards` mailboxes of `per_shard` each; the benchmark harness
    /// pins this two-number signature, so both numbers survive as the
    /// factors of the one bound, which is the total the split intake held.
    pub fn open(
        shards: u32,
        per_shard: usize,
        admission: AdmissionPolicy,
        fair_share: FairShareConfig,
    ) -> Self {
        ServiceConfig {
            mode: ServiceMode::Open,
            intake_capacity: (shards as usize).saturating_mul(per_shard),
            admission,
            fair_share,
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::closed_loop()
    }
}

/// Outcome of offering one arrival to the service core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ingest<J> {
    /// Hand the job to the scheduler immediately (closed-loop
    /// pass-through).
    Admitted(J),
    /// Queued on the intake awaiting an admission cycle.
    Queued,
    /// Rejected at ingest: the intake queue was full.
    Shed(J),
}

/// One admission cycle's output.
#[derive(Debug, Clone)]
pub struct DrainBatch<J> {
    /// Jobs admitted to the scheduler this cycle, in drain order.
    pub admitted: Vec<J>,
    /// Jobs shed this cycle because the intake backlog passed its bound.
    pub shed: Vec<J>,
    /// Jobs left queued (deferred) after this cycle's batch.
    pub deferred: usize,
}

impl<J> DrainBatch<J> {
    fn empty() -> Self {
        DrainBatch {
            admitted: Vec::new(),
            shed: Vec::new(),
            deferred: 0,
        }
    }
}

/// Cumulative service-core counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs ever offered to the core.
    pub arrivals: u64,
    /// Jobs handed to the scheduler (pass-through or batch admission).
    pub admitted: u64,
    /// Jobs rejected permanently (intake overflow or depth shedding).
    pub shed: u64,
    /// Cumulative job-cycles spent deferred: each drain cycle adds the
    /// number of jobs left queued after its batch.
    pub deferred: u64,
    /// Jobs currently queued on the intake.
    pub backlog: u64,
    /// Arrivals shed at ingest because the intake was full (a subset of
    /// `shed`).
    pub intake_overflows: u64,
}

/// The service core: bounded intake + batched admission + fair-share
/// tenancy, driven entirely by its caller.
#[derive(Debug, Clone)]
pub struct ServiceCore<J: ServiceJob> {
    config: ServiceConfig,
    /// Arrivals awaiting admission, oldest first.
    intake: VecDeque<J>,
    fair_share: FairShareBook,
    arrivals: u64,
    admitted: u64,
    shed: u64,
    deferred: u64,
    intake_overflows: u64,
}

impl<J: ServiceJob> ServiceCore<J> {
    pub fn new(config: ServiceConfig) -> Self {
        let fair_share = FairShareBook::new(config.fair_share.clone());
        ServiceCore {
            config,
            intake: VecDeque::new(),
            fair_share,
            arrivals: 0,
            admitted: 0,
            shed: 0,
            deferred: 0,
            intake_overflows: 0,
        }
    }

    pub fn mode(&self) -> ServiceMode {
        self.config.mode
    }

    /// The fair-share book, rebuilt by the engine each cycle.
    pub fn fair_share(&self) -> &FairShareBook {
        &self.fair_share
    }

    pub fn fair_share_mut(&mut self) -> &mut FairShareBook {
        &mut self.fair_share
    }

    /// Offers one arrival. Closed mode admits immediately; open mode
    /// queues it at the intake's tail, or sheds it when the intake is full.
    pub fn ingest(&mut self, job: J) -> Ingest<J> {
        self.arrivals += 1;
        match self.config.mode {
            ServiceMode::Closed => {
                self.admitted += 1;
                Ingest::Admitted(job)
            }
            ServiceMode::Open if self.intake.len() >= self.config.intake_capacity => {
                self.shed += 1;
                self.intake_overflows += 1;
                Ingest::Shed(job)
            }
            ServiceMode::Open => {
                self.intake.push_back(job);
                Ingest::Queued
            }
        }
    }

    /// Runs one admission cycle against the current scheduler pending
    /// depth. Closed mode is a no-op (arrivals were already passed
    /// through).
    ///
    /// Both the admitted batch and the shed excess come off the intake's
    /// front, so jobs leave in arrival order.
    pub fn drain_cycle(&mut self, scheduler_backlog: usize) -> DrainBatch<J> {
        if self.config.mode == ServiceMode::Closed {
            return DrainBatch::empty();
        }
        let policy = &self.config.admission;
        let budget = policy.budget(scheduler_backlog).min(self.intake.len());
        let admitted: Vec<J> = self.intake.drain(..budget).collect();
        let excess = policy.excess(self.intake.len());
        let shed: Vec<J> = self.intake.drain(..excess).collect();
        let deferred = self.intake.len();
        self.admitted += admitted.len() as u64;
        self.shed += shed.len() as u64;
        self.deferred += deferred as u64;
        DrainBatch {
            admitted,
            shed,
            deferred,
        }
    }

    /// Jobs currently queued on the intake.
    pub fn backlog(&self) -> usize {
        self.intake.len()
    }

    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            arrivals: self.arrivals,
            admitted: self.admitted,
            shed: self.shed,
            deferred: self.deferred,
            backlog: self.intake.len() as u64,
            intake_overflows: self.intake_overflows,
        }
    }

    /// Checks the core's conservation law: every arrival is admitted,
    /// shed, or still queued — nothing is lost or double-counted.
    pub fn validate(&self) -> Result<(), String> {
        let stats = self.stats();
        let accounted = stats.admitted + stats.shed + stats.backlog;
        if accounted != stats.arrivals {
            return Err(format!(
                "service accounting violated: admitted {} + shed {} + backlog {} = {} != arrivals {}",
                stats.admitted, stats.shed, stats.backlog, accounted, stats.arrivals
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ServiceJob for u32 {
        fn service_id(&self) -> u64 {
            u64::from(*self)
        }
    }

    #[test]
    fn closed_mode_is_pass_through() {
        let mut core: ServiceCore<u32> = ServiceCore::new(ServiceConfig::closed_loop());
        for id in 0..5 {
            assert_eq!(core.ingest(id), Ingest::Admitted(id));
        }
        let batch = core.drain_cycle(0);
        assert!(batch.admitted.is_empty() && batch.shed.is_empty());
        let stats = core.stats();
        assert_eq!(stats.arrivals, 5);
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.backlog, 0);
        core.validate().expect("closed-loop accounting");
    }

    #[test]
    fn open_mode_queues_then_admits_in_batches() {
        let admission = AdmissionPolicy {
            max_admissions_per_cycle: 2,
            max_scheduler_backlog: 100,
            shed_queue_depth: usize::MAX,
        };
        let mut core: ServiceCore<u32> = ServiceCore::new(ServiceConfig::open(
            2,
            64,
            admission,
            FairShareConfig::disabled(),
        ));
        for id in 0..5 {
            assert_eq!(core.ingest(id), Ingest::Queued);
        }
        let first = core.drain_cycle(0);
        assert_eq!(first.admitted.len(), 2);
        assert_eq!(first.deferred, 3);
        core.validate().expect("accounting after first drain");
        let second = core.drain_cycle(0);
        assert_eq!(second.admitted.len(), 2);
        assert_eq!(second.deferred, 1);
        let third = core.drain_cycle(0);
        assert_eq!(third.admitted.len(), 1);
        assert_eq!(third.deferred, 0);
        let stats = core.stats();
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.deferred, 4);
        core.validate().expect("accounting when drained dry");
    }

    #[test]
    fn open_mode_sheds_on_intake_overflow() {
        let mut core: ServiceCore<u32> = ServiceCore::new(ServiceConfig::open(
            1,
            2,
            AdmissionPolicy::default(),
            FairShareConfig::disabled(),
        ));
        assert_eq!(core.ingest(0), Ingest::Queued);
        assert_eq!(core.ingest(1), Ingest::Queued);
        assert_eq!(core.ingest(2), Ingest::Shed(2));
        let stats = core.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.intake_overflows, 1);
        core.validate().expect("accounting after overflow shed");
    }

    #[test]
    fn intake_drains_in_arrival_order_after_an_overflow() {
        let admission = AdmissionPolicy {
            max_admissions_per_cycle: 2,
            max_scheduler_backlog: 100,
            shed_queue_depth: usize::MAX,
        };
        let mut core: ServiceCore<u32> = ServiceCore::new(ServiceConfig::open(
            2,
            1,
            admission,
            FairShareConfig::disabled(),
        ));
        core.ingest(0);
        core.ingest(1);
        // The queue holds its bound of 2 x 1.
        assert_eq!(core.ingest(2), Ingest::Shed(2));
        assert_eq!(core.drain_cycle(0).admitted, vec![0, 1]);
        core.ingest(3);
        core.ingest(4);
        assert_eq!(core.drain_cycle(0).admitted, vec![3, 4]);
        core.validate().expect("accounting after the overflow");
    }

    #[test]
    fn open_mode_sheds_on_queue_depth() {
        let admission = AdmissionPolicy {
            max_admissions_per_cycle: 1,
            max_scheduler_backlog: 100,
            shed_queue_depth: 2,
        };
        let mut core: ServiceCore<u32> = ServiceCore::new(ServiceConfig::open(
            1,
            64,
            admission,
            FairShareConfig::disabled(),
        ));
        for id in 0..6 {
            assert_eq!(core.ingest(id), Ingest::Queued);
        }
        // Budget 1 admitted, 5 remain, depth bound 2 -> 3 shed, 2 defer.
        let batch = core.drain_cycle(0);
        assert_eq!(batch.admitted.len(), 1);
        assert_eq!(batch.shed.len(), 3);
        assert_eq!(batch.deferred, 2);
        core.validate().expect("accounting after depth shed");
    }

    #[test]
    fn backpressure_defers_under_scheduler_backlog() {
        let admission = AdmissionPolicy {
            max_admissions_per_cycle: 8,
            max_scheduler_backlog: 4,
            shed_queue_depth: usize::MAX,
        };
        let mut core: ServiceCore<u32> = ServiceCore::new(ServiceConfig::open(
            2,
            64,
            admission,
            FairShareConfig::disabled(),
        ));
        for id in 0..6 {
            core.ingest(id);
        }
        // Scheduler saturated: nothing admitted, everything deferred.
        let batch = core.drain_cycle(4);
        assert!(batch.admitted.is_empty());
        assert_eq!(batch.deferred, 6);
        // Scheduler drains: headroom 2 admits 2.
        let batch = core.drain_cycle(2);
        assert_eq!(batch.admitted.len(), 2);
        core.validate().expect("accounting under backpressure");
    }
}
