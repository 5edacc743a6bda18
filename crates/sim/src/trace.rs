//! Simulation event tracing, for debugging and experiment forensics.

use tetrisched_cluster::NodeId;
use tetrisched_strl::JobClass;

use crate::job::JobId;
use crate::Time;

/// One recorded simulation event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A job was submitted and classified.
    Submitted {
        /// Job identity.
        job: JobId,
        /// Assigned value class.
        class: JobClass,
        /// Event time.
        at: Time,
    },
    /// A gang was launched.
    Launched {
        /// Job identity.
        job: JobId,
        /// Placement.
        nodes: Vec<NodeId>,
        /// Whether the placement is preferred.
        preferred: bool,
        /// Event time.
        at: Time,
    },
    /// A job completed.
    Completed {
        /// Job identity.
        job: JobId,
        /// Whether the deadline (if any) was met.
        met_deadline: Option<bool>,
        /// Event time.
        at: Time,
    },
    /// A running job was preempted and requeued.
    Preempted {
        /// Job identity.
        job: JobId,
        /// Event time.
        at: Time,
    },
    /// The scheduler abandoned a pending job.
    Abandoned {
        /// Job identity.
        job: JobId,
        /// Event time.
        at: Time,
    },
    /// A node failed.
    NodeDown {
        /// Failed node.
        node: NodeId,
        /// Event time.
        at: Time,
    },
    /// A node was repaired.
    NodeUp {
        /// Repaired node.
        node: NodeId,
        /// Event time.
        at: Time,
    },
    /// A running job lost a node to a failure and was evicted.
    Evicted {
        /// Job identity.
        job: JobId,
        /// The failed node that triggered the eviction.
        node: NodeId,
        /// Retry number this eviction consumes (1-based).
        retry: u32,
        /// Event time.
        at: Time,
    },
    /// An evicted job's backoff expired; it rejoined the pending queue.
    Resubmitted {
        /// Job identity.
        job: JobId,
        /// Event time.
        at: Time,
    },
    /// An evicted job exhausted its retry budget and was abandoned.
    RetriesExhausted {
        /// Job identity.
        job: JobId,
        /// Event time.
        at: Time,
    },
    /// A scheduler cycle ran degraded (primary placement path failed and
    /// a fallback produced the decisions).
    CycleDegraded {
        /// Rendered cycle errors.
        errors: Vec<String>,
        /// Event time.
        at: Time,
    },
    /// The service core shed an arriving job under overload (open-loop
    /// mode only: intake overflow or queue-depth load shedding).
    Shed {
        /// Job identity.
        job: JobId,
        /// Event time.
        at: Time,
    },
    /// A performance-fault window began degrading a node (the node stays
    /// up but runs slower).
    PerfDegraded {
        /// Degraded node.
        node: NodeId,
        /// New runtime multiplier, in percent (400 = work takes 4x).
        factor_pct: u32,
        /// Event time.
        at: Time,
    },
    /// All performance-fault windows on a node ended; it runs at nominal
    /// speed again.
    PerfRecovered {
        /// Recovered node.
        node: NodeId,
        /// Event time.
        at: Time,
    },
    /// A running gang's completion was re-derived because the performance
    /// of one of its nodes changed mid-run; progress to date is preserved.
    GangRetimed {
        /// Job identity.
        job: JobId,
        /// New gang runtime multiplier, in percent.
        factor_pct: u32,
        /// Event time.
        at: Time,
    },
    /// The straggler defense speculatively migrated a running gang: its
    /// nodes were released and it rejoined the pending queue with its
    /// progress watermark intact.
    StragglerMigrated {
        /// Job identity.
        job: JobId,
        /// Progress watermark at migration, in percent of total work.
        watermark_pct: u32,
        /// Event time.
        at: Time,
    },
    /// The degradation-ladder governor moved the scheduler to a new rung
    /// (0 = full MILP ... highest = greedy).
    LadderRung {
        /// New rung.
        rung: u8,
        /// Event time.
        at: Time,
    },
}

impl TraceEvent {
    /// Event timestamp.
    pub fn at(&self) -> Time {
        match self {
            TraceEvent::Submitted { at, .. }
            | TraceEvent::Launched { at, .. }
            | TraceEvent::Completed { at, .. }
            | TraceEvent::Preempted { at, .. }
            | TraceEvent::Abandoned { at, .. }
            | TraceEvent::NodeDown { at, .. }
            | TraceEvent::NodeUp { at, .. }
            | TraceEvent::Evicted { at, .. }
            | TraceEvent::Resubmitted { at, .. }
            | TraceEvent::RetriesExhausted { at, .. }
            | TraceEvent::CycleDegraded { at, .. }
            | TraceEvent::Shed { at, .. }
            | TraceEvent::PerfDegraded { at, .. }
            | TraceEvent::PerfRecovered { at, .. }
            | TraceEvent::GangRetimed { at, .. }
            | TraceEvent::StragglerMigrated { at, .. }
            | TraceEvent::LadderRung { at, .. } => *at,
        }
    }

    /// The job the event concerns, when it concerns one.
    pub fn job(&self) -> Option<JobId> {
        match self {
            TraceEvent::Submitted { job, .. }
            | TraceEvent::Launched { job, .. }
            | TraceEvent::Completed { job, .. }
            | TraceEvent::Preempted { job, .. }
            | TraceEvent::Abandoned { job, .. }
            | TraceEvent::Evicted { job, .. }
            | TraceEvent::Resubmitted { job, .. }
            | TraceEvent::RetriesExhausted { job, .. }
            | TraceEvent::Shed { job, .. }
            | TraceEvent::GangRetimed { job, .. }
            | TraceEvent::StragglerMigrated { job, .. } => Some(*job),
            TraceEvent::NodeDown { .. }
            | TraceEvent::NodeUp { .. }
            | TraceEvent::CycleDegraded { .. }
            | TraceEvent::PerfDegraded { .. }
            | TraceEvent::PerfRecovered { .. }
            | TraceEvent::LadderRung { .. } => None,
        }
    }
}

/// Default retention bound for [`TraceLog`]: 64k events.
pub const DEFAULT_TRACE_CAPACITY: usize = 64 * 1024;

/// A bounded log of trace events; disabled by default in experiments.
///
/// Retention is ring-buffer-like: only the most recent `capacity` events
/// are kept, and older ones are counted in [`TraceLog::dropped`] instead
/// of growing memory linearly over long churn runs. Eviction is amortized
/// O(1): the backing vector is allowed to grow to `2 * capacity` before
/// the oldest half is drained in one move.
#[derive(Debug, Clone)]
pub struct TraceLog {
    enabled: bool,
    capacity: usize,
    events: Vec<TraceEvent>,
    recorded: u64,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::new(false)
    }
}

impl TraceLog {
    /// Creates a log with the default retention bound; when `enabled` is
    /// false, records are dropped.
    pub fn new(enabled: bool) -> Self {
        TraceLog::with_capacity(enabled, DEFAULT_TRACE_CAPACITY)
    }

    /// Creates a log retaining at most `capacity` most-recent events.
    pub fn with_capacity(enabled: bool, capacity: usize) -> Self {
        TraceLog {
            enabled,
            capacity: capacity.max(1),
            events: Vec::new(),
            recorded: 0,
        }
    }

    /// Records an event (no-op when disabled).
    pub fn record(&mut self, e: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity * 2 {
            self.events.drain(..self.capacity);
        }
        self.events.push(e);
        self.recorded += 1;
    }

    /// The most recent events (at most `capacity` of them), in order.
    // srclint: checked-indexing: a range start of `len - capacity`, saturating
    // at 0, never exceeds `len`.
    pub fn events(&self) -> &[TraceEvent] {
        let start = self.events.len().saturating_sub(self.capacity);
        &self.events[start..]
    }

    /// Total events ever recorded, including ones no longer retained.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted by the retention bound.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.events().len() as u64
    }

    /// Retained events concerning one job, in order.
    pub fn for_job(&self, job: JobId) -> Vec<&TraceEvent> {
        self.events()
            .iter()
            .filter(|e| e.job() == Some(job))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_drops_events() {
        let mut log = TraceLog::new(false);
        log.record(TraceEvent::Abandoned {
            job: JobId(1),
            at: 5,
        });
        assert!(log.events().is_empty());
    }

    #[test]
    fn enabled_log_records_in_order() {
        let mut log = TraceLog::new(true);
        log.record(TraceEvent::Submitted {
            job: JobId(1),
            class: JobClass::BestEffort,
            at: 0,
        });
        log.record(TraceEvent::Launched {
            job: JobId(1),
            nodes: vec![NodeId(0)],
            preferred: true,
            at: 4,
        });
        log.record(TraceEvent::Completed {
            job: JobId(1),
            met_deadline: None,
            at: 10,
        });
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.for_job(JobId(1)).len(), 3);
        assert_eq!(log.events()[1].at(), 4);
        assert_eq!(log.events()[2].job(), Some(JobId(1)));
    }

    #[test]
    fn fault_events_have_no_job() {
        let mut log = TraceLog::new(true);
        log.record(TraceEvent::NodeDown {
            node: NodeId(3),
            at: 7,
        });
        log.record(TraceEvent::Evicted {
            job: JobId(2),
            node: NodeId(3),
            retry: 1,
            at: 7,
        });
        log.record(TraceEvent::CycleDegraded {
            errors: vec!["solver error: boom".into()],
            at: 9,
        });
        assert_eq!(log.events()[0].job(), None);
        assert_eq!(log.events()[1].job(), Some(JobId(2)));
        assert_eq!(log.events()[2].at(), 9);
        assert_eq!(log.for_job(JobId(2)).len(), 1);
    }

    #[test]
    fn retention_bound_keeps_most_recent_and_counts_drops() {
        let mut log = TraceLog::with_capacity(true, 4);
        for t in 0..10 {
            log.record(TraceEvent::Resubmitted {
                job: JobId(t),
                at: t,
            });
        }
        assert_eq!(log.recorded(), 10);
        assert_eq!(log.events().len(), 4);
        assert_eq!(log.dropped(), 6);
        // The retained window is the most recent four events, in order.
        let times: Vec<_> = log.events().iter().map(|e| e.at()).collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
        assert_eq!(log.for_job(JobId(9)).len(), 1);
        assert!(log.for_job(JobId(0)).is_empty());
    }

    #[test]
    fn under_capacity_log_drops_nothing() {
        let mut log = TraceLog::new(true);
        for t in 0..100 {
            log.record(TraceEvent::Resubmitted {
                job: JobId(1),
                at: t,
            });
        }
        assert_eq!(log.recorded(), 100);
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.events().len(), 100);
    }
}
