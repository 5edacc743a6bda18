//! Evaluation metrics (paper Sec. 6.3).
//!
//! Four success metrics drive every figure: accepted-SLO attainment, total
//! SLO attainment, attainment for SLO jobs without reservation, and mean
//! best-effort latency. Fig. 12 additionally reports scheduler cycle and
//! MILP solver latency distributions, which the engine samples in real wall
//! time around each cycle.

/// An accumulating sample set with summary statistics.
///
/// Quantile queries use a lazily maintained sorted cache: the first query
/// after a batch of pushes sorts once, and subsequent queries are O(1)
/// lookups — instead of the previous clone + O(n log n) sort *per call*.
/// The cache lives behind interior mutability so the read-only query
/// signatures are unchanged.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples: Vec<f64>,
    /// Sorted copy of `samples`, rebuilt lazily when `dirty`.
    sorted: std::cell::RefCell<Vec<f64>>,
    /// Whether `sorted` is stale relative to `samples`.
    dirty: std::cell::Cell<bool>,
}

impl LatencyStats {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
        self.dirty.set(true);
    }

    /// Rebuilds the sorted cache if stale.
    fn ensure_sorted(&self) {
        if self.dirty.get() || self.sorted.borrow().len() != self.samples.len() {
            let mut sorted = self.sorted.borrow_mut();
            sorted.clear();
            sorted.extend_from_slice(&self.samples);
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.dirty.set(false);
        }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or 0 for an empty set.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Maximum sample, or 0 for an empty set.
    pub fn max(&self) -> f64 {
        self.samples.iter().cloned().fold(0.0, f64::max)
    }

    /// Quantile in `[0, 1]` by nearest-rank, or 0 for an empty set.
    // srclint: checked-indexing: `sorted` is non-empty past the early return
    // and `q` is clamped to [0, 1], so the rank is at most `len() - 1`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let sorted = self.sorted.borrow();
        let rank = ((q.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }

    /// Raw samples, in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Aggregate simulation metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Accepted SLO jobs observed / meeting their deadline.
    pub accepted_slo_total: usize,
    /// Accepted SLO jobs that completed by their deadline.
    pub accepted_slo_met: usize,
    /// SLO jobs without reservation observed.
    pub nores_slo_total: usize,
    /// SLO jobs without reservation that met their deadline.
    pub nores_slo_met: usize,
    /// Best-effort jobs observed.
    pub be_total: usize,
    /// Best-effort jobs that completed.
    pub be_completed: usize,
    /// Best-effort completion latency (completion - submission), seconds.
    pub be_latency: LatencyStats,
    /// Wall-clock scheduler cycle latency, seconds (Fig. 12(b)).
    pub cycle_latency: LatencyStats,
    /// Wall-clock MILP solver latency, seconds (Fig. 12(a)).
    pub solver_latency: LatencyStats,
    /// Node-seconds of busy time accumulated by completed/preempted runs.
    pub busy_node_seconds: u64,
    /// Node-seconds available over the simulated span.
    pub total_node_seconds: u64,
    /// Preemption count.
    pub preemptions: usize,
    /// Jobs abandoned by the scheduler.
    pub abandoned: usize,
    /// Jobs not terminal when the simulation ended.
    pub incomplete: usize,
    /// Gangs evicted because a node under them failed.
    pub evictions: usize,
    /// Eviction retries issued (re-queues after backoff).
    pub retries: usize,
    /// Jobs abandoned because their eviction retry budget ran out
    /// (disjoint from scheduler-initiated `abandoned`).
    pub abandoned_after_retries: usize,
    /// Cycles where the primary placement path failed and the scheduler
    /// fell back to a degraded placer.
    pub solver_fallbacks: usize,
    /// Cycles flagged degraded by the scheduler (currently equal to
    /// `solver_fallbacks`; kept separate so future degraded modes that do
    /// not involve a solver fallback stay countable).
    pub degraded_cycles: usize,
    /// STRL compile errors surfaced by cycles.
    pub compile_errors: usize,
    /// Solver errors / no-solution outcomes surfaced by cycles.
    pub solver_errors: usize,
    /// Error-severity lint rejections surfaced by cycles (the
    /// `lint_models` knob).
    pub lint_errors: usize,
    /// Solver and translation certificates verified across all cycles
    /// (the `certify_solves` knob; zero when certification is off).
    pub certificates_verified: usize,
    /// Certificates that failed verification across all cycles.
    pub certificate_failures: usize,
    /// Node-seconds lost to down nodes over the simulated span.
    pub down_node_seconds: u64,
    /// Global solves whose warm start was accepted as the incumbent.
    pub warm_start_hits: usize,
    /// Global solves that built a warm start the solver did not use.
    pub warm_start_misses: usize,
    /// Trace events evicted by the trace retention bound
    /// ([`crate::TraceLog::dropped`]).
    pub trace_events_dropped: u64,
    /// Jobs the service core handed to the scheduler (equals arrivals in
    /// closed-loop mode, where ingest is a pass-through).
    pub jobs_admitted: u64,
    /// Jobs the service core shed under overload (intake overflow plus
    /// queue-depth load shedding; zero in closed-loop mode).
    pub jobs_shed: u64,
    /// Cumulative job-cycles spent deferred in the intake queue under
    /// backpressure (each admission cycle adds its leftover backlog).
    pub jobs_deferred: u64,
    /// Arrivals shed at ingest because the intake queue was full (a
    /// subset of `jobs_shed`).
    pub intake_overflows: u64,
    /// Distinct nodes that experienced at least one performance-fault
    /// window (slow node, degraded capacity, or maintenance) during the
    /// run.
    pub perf_faulted_nodes: u64,
    /// Straggler-detector flags raised across all cycles (a job can be
    /// flagged in more than one cycle).
    pub stragglers_detected: u64,
    /// Speculative migrations actually performed (bounded by the per-cycle
    /// and per-job migration caps, so at most `stragglers_detected`).
    pub speculative_migrations: u64,
    /// Highest degradation-ladder rung reached during the run (0 = every
    /// cycle ran the full MILP path; see `core`'s ladder governor for the
    /// rung encoding).
    pub ladder_rung: u64,
    /// Anytime solves that returned a budget-expired incumbent (with its
    /// bound and certificate) instead of a proven-optimal solution.
    pub anytime_incumbents: u64,
}

impl Metrics {
    /// Accepted-SLO attainment in percent (metric (a) of Sec. 6.3).
    pub fn accepted_slo_attainment(&self) -> f64 {
        pct(self.accepted_slo_met, self.accepted_slo_total)
    }

    /// Total SLO attainment in percent (metric (b)).
    pub fn total_slo_attainment(&self) -> f64 {
        pct(
            self.accepted_slo_met + self.nores_slo_met,
            self.accepted_slo_total + self.nores_slo_total,
        )
    }

    /// Attainment for SLO jobs without reservation in percent (metric (c)).
    pub fn nores_slo_attainment(&self) -> f64 {
        pct(self.nores_slo_met, self.nores_slo_total)
    }

    /// Mean best-effort latency in seconds (metric (d)).
    pub fn be_mean_latency(&self) -> f64 {
        self.be_latency.mean()
    }

    /// Cluster utilization over the simulated span, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.total_node_seconds == 0 {
            0.0
        } else {
            self.busy_node_seconds as f64 / self.total_node_seconds as f64
        }
    }

    /// Fraction of node-seconds the cluster was actually up, in `[0, 1]`
    /// (1.0 for a fault-free run).
    pub fn availability(&self) -> f64 {
        if self.total_node_seconds == 0 {
            1.0
        } else {
            1.0 - self.down_node_seconds as f64 / self.total_node_seconds as f64
        }
    }
}

fn pct(num: usize, den: usize) -> f64 {
    if den == 0 {
        100.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_summary() {
        let mut s = LatencyStats::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.quantile(0.5), 3.0); // nearest rank of 1.5 -> index 2
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
    }

    /// Regression for the sorted-cache rewrite: quantiles must be
    /// identical to the reference clone-and-sort-per-call implementation,
    /// including when queries interleave with pushes.
    #[test]
    fn cached_quantiles_match_reference_implementation() {
        let reference_quantile = |samples: &[f64], q: f64| -> f64 {
            let mut sorted = samples.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let rank = ((q.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
            sorted[rank]
        };
        let mut s = LatencyStats::new();
        let mut pushed = Vec::new();
        // Deterministic pseudo-random-ish stream, interleaving queries so
        // the cache is invalidated and rebuilt repeatedly.
        for i in 0..500u64 {
            let v = ((i * 2_654_435_761) % 1000) as f64 / 7.0;
            s.push(v);
            pushed.push(v);
            if i % 37 == 0 {
                for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                    assert_eq!(s.quantile(q), reference_quantile(&pushed, q), "q={q} i={i}");
                }
            }
        }
        for q in [0.0, 0.1, 0.5, 0.95, 1.0] {
            assert_eq!(s.quantile(q), reference_quantile(&pushed, q));
        }
    }

    #[test]
    fn attainment_percentages() {
        let m = Metrics {
            accepted_slo_total: 10,
            accepted_slo_met: 9,
            nores_slo_total: 5,
            nores_slo_met: 1,
            ..Default::default()
        };
        assert_eq!(m.accepted_slo_attainment(), 90.0);
        assert_eq!(m.nores_slo_attainment(), 20.0);
        assert!((m.total_slo_attainment() - 100.0 * 10.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn vacuous_attainment_is_full() {
        let m = Metrics::default();
        assert_eq!(m.accepted_slo_attainment(), 100.0);
        assert_eq!(m.utilization(), 0.0);
    }

    #[test]
    fn utilization_ratio() {
        let m = Metrics {
            busy_node_seconds: 50,
            total_node_seconds: 200,
            ..Default::default()
        };
        assert_eq!(m.utilization(), 0.25);
    }

    #[test]
    fn availability_ratio() {
        let m = Metrics {
            down_node_seconds: 40,
            total_node_seconds: 200,
            ..Default::default()
        };
        assert_eq!(m.availability(), 0.8);
        assert_eq!(Metrics::default().availability(), 1.0);
    }
}
