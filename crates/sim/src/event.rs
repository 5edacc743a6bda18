//! The simulator's event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::job::JobId;
use crate::Time;
use tetrisched_cluster::NodeId;

/// Kinds of simulation events, in processing-priority order for equal
/// timestamps: completions free resources before fault transitions mutate
/// node state, repairs land before new failures (so a zero-length outage
/// nets out to up), arrivals and retry re-queues are recorded next, and
/// the scheduler cycle fires last so it sees a settled state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A running job's gang finished. The generation guards against stale
    /// completions after a preemption restarted the job.
    Complete {
        /// Finished job.
        job: JobId,
        /// Run generation the completion belongs to.
        generation: u32,
    },
    /// A node repair: the node rejoins the free pool.
    NodeUp {
        /// Repaired node.
        node: NodeId,
    },
    /// A node failure: any gang holding the node is evicted and the node
    /// leaves the free pool until a matching [`EventKind::NodeUp`].
    NodeDown {
        /// Failed node.
        node: NodeId,
    },
    /// A performance-fault window starts: the node stays up but slows, and
    /// in-flight work on it is rebased to the new rate. `ix` indexes the
    /// run's [`FaultPlan`](crate::fault::FaultPlan) windows.
    PerfFaultStart {
        /// Window index in the plan.
        ix: usize,
    },
    /// A performance-fault window ends: the node's rate recovers (up to
    /// other still-active windows on the same node).
    PerfFaultEnd {
        /// Window index in the plan.
        ix: usize,
    },
    /// A job arrives in the system.
    Submit {
        /// Arriving job.
        job: JobId,
    },
    /// An evicted job's retry backoff expired; it re-enters the pending
    /// queue.
    Resubmit {
        /// Retrying job.
        job: JobId,
    },
    /// The periodic scheduler cycle.
    CycleTick,
}

impl EventKind {
    /// Processing priority at equal timestamps (lower first) and the
    /// telemetry counter (`sim.events.*`) that counts events of the kind.
    pub(crate) fn priority_and_counter(&self) -> (u8, &'static str) {
        match self {
            EventKind::Complete { .. } => (0, "sim.events.complete"),
            EventKind::NodeUp { .. } => (1, "sim.events.node_up"),
            EventKind::NodeDown { .. } => (2, "sim.events.node_down"),
            // Perf windows settle after fail-stop transitions (an ending
            // window on a node that just died is a no-op) and before
            // arrivals, so submissions and the cycle see final node rates.
            EventKind::PerfFaultEnd { .. } => (3, "sim.events.perf_fault_end"),
            EventKind::PerfFaultStart { .. } => (4, "sim.events.perf_fault_start"),
            EventKind::Submit { .. } => (5, "sim.events.submit"),
            EventKind::Resubmit { .. } => (6, "sim.events.resubmit"),
            EventKind::CycleTick => (7, "sim.events.cycle_tick"),
        }
    }
}

/// A timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub at: Time,
    /// What happens.
    pub kind: EventKind,
    /// Insertion sequence, for fully deterministic ordering.
    pub seq: u64,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest event.
        let (priority, _) = self.kind.priority_and_counter();
        let (other_priority, _) = other.kind.priority_and_counter();
        other
            .at
            .cmp(&self.at)
            .then(other_priority.cmp(&priority))
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic min-priority event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event.
    pub fn push(&mut self, at: Time, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Event { at, kind, seq });
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, EventKind::CycleTick);
        q.push(10, EventKind::CycleTick);
        q.push(20, EventKind::CycleTick);
        assert_eq!(q.pop().unwrap().at, 10);
        assert_eq!(q.pop().unwrap().at, 20);
        assert_eq!(q.pop().unwrap().at, 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_orders_by_kind_priority() {
        let mut q = EventQueue::new();
        q.push(5, EventKind::CycleTick);
        q.push(5, EventKind::Resubmit { job: JobId(3) });
        q.push(5, EventKind::Submit { job: JobId(1) });
        q.push(5, EventKind::NodeDown { node: NodeId(0) });
        q.push(5, EventKind::NodeUp { node: NodeId(0) });
        q.push(5, EventKind::PerfFaultStart { ix: 1 });
        q.push(5, EventKind::PerfFaultEnd { ix: 0 });
        q.push(
            5,
            EventKind::Complete {
                job: JobId(2),
                generation: 0,
            },
        );
        assert!(matches!(q.pop().unwrap().kind, EventKind::Complete { .. }));
        assert!(matches!(q.pop().unwrap().kind, EventKind::NodeUp { .. }));
        assert!(matches!(q.pop().unwrap().kind, EventKind::NodeDown { .. }));
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::PerfFaultEnd { .. }
        ));
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::PerfFaultStart { .. }
        ));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Submit { .. }));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Resubmit { .. }));
        assert!(matches!(q.pop().unwrap().kind, EventKind::CycleTick));
    }

    #[test]
    fn equal_events_order_by_insertion() {
        let mut q = EventQueue::new();
        q.push(5, EventKind::Submit { job: JobId(1) });
        q.push(5, EventKind::Submit { job: JobId(2) });
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::Submit { job: JobId(1) }
        ));
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::Submit { job: JobId(2) }
        ));
    }
}
