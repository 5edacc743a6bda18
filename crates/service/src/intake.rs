//! The sharded job-intake layer.
//!
//! Arriving jobs hash to one of `N` intake shards by job id; each shard
//! owns a bounded [`Mailbox`]. The layer is drained round-robin across
//! shards so no shard can starve another, and every operation is driven by
//! the caller (the engine's virtual clock) — shards never act on their
//! own, which is what keeps intake deterministic.

use crate::mailbox::Mailbox;
use crate::ServiceJob;

/// One intake shard: a bounded mailbox plus counters.
#[derive(Debug, Clone)]
pub struct IntakeShard<J> {
    mailbox: Mailbox<J>,
}

impl<J> IntakeShard<J> {
    fn new(capacity: usize) -> Self {
        IntakeShard {
            mailbox: Mailbox::bounded(capacity),
        }
    }

    /// Jobs currently queued on this shard.
    pub fn depth(&self) -> usize {
        self.mailbox.len()
    }

    /// Jobs ever enqueued on this shard.
    pub fn enqueued(&self) -> u64 {
        self.mailbox.enqueued()
    }

    /// Arrivals this shard rejected because its mailbox was full.
    pub fn overflows(&self) -> u64 {
        self.mailbox.overflows()
    }
}

/// The intake layer: `N` shards with bounded mailboxes.
#[derive(Debug, Clone)]
pub struct IntakeLayer<J> {
    shards: Vec<IntakeShard<J>>,
    /// Round-robin drain cursor, persisted across cycles so drain order
    /// does not systematically favour low-numbered shards.
    cursor: usize,
}

impl<J: ServiceJob> IntakeLayer<J> {
    /// Creates `shards` intake shards, each bounded at `capacity` jobs.
    pub fn new(shards: u32, capacity: usize) -> Self {
        let n = shards.max(1) as usize;
        IntakeLayer {
            shards: (0..n).map(|_| IntakeShard::new(capacity)).collect(),
            cursor: 0,
        }
    }

    /// The shard a job routes to (stable hash: id mod shard count).
    pub fn route(&self, job: &J) -> u32 {
        (job.service_id() % self.shards.len() as u64) as u32
    }

    /// Offers an arrival to its shard; returns the receiving shard index,
    /// or hands the job back when the shard's mailbox is full.
    // srclint: checked-indexing: `route` reduces the id modulo `shards.len()`,
    // which `new` holds at one or more.
    pub fn offer(&mut self, job: J) -> Result<u32, J> {
        let shard = self.route(&job);
        match self.shards[shard as usize].mailbox.offer(job) {
            Ok(_) => Ok(shard),
            Err(job) => Err(job),
        }
    }

    /// Drains up to `max` jobs round-robin across shards, starting at the
    /// persisted cursor; the cursor advances so the next drain starts at
    /// the following shard.
    // srclint: checked-indexing: `shard` is `cursor % n` with `n` the shard
    // count, which `new` holds at one or more.
    pub fn drain(&mut self, max: usize) -> Vec<J> {
        let n = self.shards.len();
        let mut out = Vec::new();
        let mut empty_streak = 0;
        while out.len() < max && empty_streak < n {
            let shard = self.cursor % n;
            self.cursor = (self.cursor + 1) % n;
            match self.shards[shard].mailbox.pop() {
                Some(job) => {
                    empty_streak = 0;
                    out.push(job);
                }
                None => empty_streak += 1,
            }
        }
        out
    }

    /// Jobs queued across all shards.
    pub fn backlog(&self) -> usize {
        self.shards.iter().map(|s| s.depth()).sum()
    }

    /// Shard views, for reporting.
    pub fn shards(&self) -> &[IntakeShard<J>] {
        &self.shards
    }

    /// Total overflow rejections across shards.
    pub fn overflows(&self) -> u64 {
        self.shards.iter().map(|s| s.overflows()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ServiceJob for u64 {
        fn service_id(&self) -> u64 {
            *self
        }
    }

    #[test]
    fn routing_is_stable_mod_shards() {
        let layer: IntakeLayer<u64> = IntakeLayer::new(4, 8);
        assert_eq!(layer.route(&0), 0);
        assert_eq!(layer.route(&5), 1);
        assert_eq!(layer.route(&7), 3);
    }

    #[test]
    fn drain_is_round_robin_across_shards() {
        let mut layer: IntakeLayer<u64> = IntakeLayer::new(2, 8);
        // Shard 0 gets 0,2,4; shard 1 gets 1.
        for j in [0u64, 2, 4, 1] {
            layer.offer(j).expect("capacity");
        }
        let drained = layer.drain(10);
        // Alternates shards while both are non-empty, then finishes 0.
        assert_eq!(drained, vec![0, 1, 2, 4]);
        assert_eq!(layer.backlog(), 0);
    }

    #[test]
    fn drain_respects_budget_and_cursor_persists() {
        let mut layer: IntakeLayer<u64> = IntakeLayer::new(2, 8);
        for j in [0u64, 1, 2, 3] {
            layer.offer(j).expect("capacity");
        }
        assert_eq!(layer.drain(2), vec![0, 1]);
        assert_eq!(layer.backlog(), 2);
        // Cursor resumes where it left off.
        assert_eq!(layer.drain(2), vec![2, 3]);
    }

    #[test]
    fn overflow_hands_the_job_back() {
        let mut layer: IntakeLayer<u64> = IntakeLayer::new(1, 2);
        assert!(layer.offer(0).is_ok());
        assert!(layer.offer(1).is_ok());
        assert_eq!(layer.offer(2), Err(2));
        assert_eq!(layer.overflows(), 1);
        assert_eq!(layer.backlog(), 2);
    }

    #[test]
    fn single_shard_layer_is_fifo() {
        let mut layer: IntakeLayer<u64> = IntakeLayer::new(1, 16);
        for j in 0..5u64 {
            layer.offer(j).expect("capacity");
        }
        assert_eq!(layer.drain(16), vec![0, 1, 2, 3, 4]);
    }
}
