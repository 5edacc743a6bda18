//! Zero-dependency instrumentation substrate: spans, counters and
//! bounded-memory histograms, with JSONL / Chrome-trace / Prometheus
//! exporters (DESIGN.md §3.11).
//!
//! # Clock injection
//!
//! This crate never reads a clock. Span timestamps come from a
//! deterministic *micro-tick* clock that callers drive via
//! [`Telemetry::advance`]: advancing to simulated second `t` moves the
//! timestamp base to `t * 1_000_000` microseconds, and every subsequent
//! span open/close draws `base + seq` for a strictly increasing sequence
//! counter. Two runs with the same seed therefore produce byte-identical
//! exports, which the root `clippy.toml`'s clock-read ban (no wall clock
//! outside the measurement sites, and none at all in this crate or its
//! span arguments) protects.
//!
//! Real wall-clock durations — measured with `Instant` only inside a
//! measurement site's `#[expect(clippy::disallowed_methods, …)]` — enter
//! as *wall histogram observations*
//! ([`Telemetry::observe_wall`]). Wall histograms are excluded from
//! exports by default so the default artifacts stay reproducible; pass
//! `include_wall = true` to get Fig.-12-style latency data out
//! (EXPERIMENTS.md "Telemetry" recipe).
//!
//! # Span model
//!
//! [`Telemetry::span`] returns an RAII [`SpanGuard`]; dropping it closes
//! the span. Open spans form a stack, so nesting is purely lexical:
//! a span opened while another is open becomes its child. Span storage is
//! bounded by [`TelemetryConfig::span_capacity`]; once full, new spans are
//! counted as dropped rather than recorded, and recorded ancestors keep
//! adopting the children of dropped spans.
//!
//! # Overhead budget
//!
//! A disabled registry does one branch per call — no allocation, no
//! `RefCell` borrow — so `TelemetryConfig::default()` (disabled) is free
//! to leave in place everywhere. Enabled, each span is two BTree-free
//! vector pushes and each counter bump one `BTreeMap` probe on a
//! `&'static str` key; the end-to-end budget is <5% of cycle latency,
//! asserted by `tests/telemetry_e2e.rs` via decision equality and
//! reported by `bin/observe.rs`.

#![deny(unsafe_code)]

mod export;
mod sketch;

pub use sketch::{HistogramSketch, BUCKETS_PER_DOUBLING};

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Construction-time options for a [`Telemetry`] registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch. Disabled registries are no-ops on every path.
    pub enabled: bool,
    /// Maximum recorded spans; beyond this, spans are counted as dropped.
    pub span_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            span_capacity: 1 << 18,
        }
    }
}

impl TelemetryConfig {
    /// An enabled config with the default span capacity.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// One recorded span: a named interval on the micro-tick clock, with an
/// optional parent and small integer arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Dense id; also the index into the recorded-span vector.
    pub id: u32,
    /// Parent span id, if this span opened while another was open.
    pub parent: Option<u32>,
    /// Category (e.g. `"sim"`, `"sched"`, `"milp"`).
    pub cat: &'static str,
    /// Span name (e.g. `"cycle"`, `"solve"`).
    pub name: &'static str,
    /// Open timestamp, micro-ticks.
    pub start_us: u64,
    /// Close timestamp, micro-ticks; `== start_us` while still open.
    pub end_us: u64,
    /// Deterministic key/value annotations attached via [`SpanGuard::arg`].
    pub args: Vec<(&'static str, u64)>,
}

#[derive(Debug, Clone, Default)]
struct Inner {
    /// Micro-tick base set by `advance` (sim seconds * 1e6).
    base_us: u64,
    /// Last issued timestamp; the next is `max(last + 1, base_us)`.
    last_us: u64,
    spans: Vec<SpanRecord>,
    /// Every span's annotations as `(span id, key, value)` in arrival
    /// order, joined onto the records by `snapshot`. One flat vector, not a
    /// `Vec` per span: hundreds of thousands of small long-lived blocks
    /// between the solver's short-lived tableaux fragment the heap, which
    /// doubled solve time in traced job-at-a-time runs.
    args: Vec<(u32, &'static str, u64)>,
    /// Ids of currently open (recorded) spans, innermost last.
    open: Vec<u32>,
    spans_dropped: u64,
    counters: BTreeMap<&'static str, u64>,
    sim_hists: BTreeMap<&'static str, HistogramSketch>,
    wall_hists: BTreeMap<&'static str, HistogramSketch>,
}

impl Inner {
    fn next_stamp(&mut self) -> u64 {
        self.last_us = (self.last_us + 1).max(self.base_us);
        self.last_us
    }
}

/// The instrumentation registry. Cheap to share by reference; all state
/// lives behind interior mutability so instrumented code only needs
/// `&Telemetry`.
#[derive(Debug, Default)]
pub struct Telemetry {
    on: bool,
    span_capacity: usize,
    inner: RefCell<Inner>,
}

impl Clone for Telemetry {
    fn clone(&self) -> Self {
        Self {
            on: self.on,
            span_capacity: self.span_capacity,
            inner: RefCell::new(self.inner.borrow().clone()),
        }
    }
}

/// A point-in-time copy of everything a registry recorded, in
/// deterministic order (spans by id, names sorted).
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// All recorded spans, ordered by id.
    pub spans: Vec<SpanRecord>,
    /// Spans not recorded because `span_capacity` was reached.
    pub spans_dropped: u64,
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms over deterministic values, sorted by name.
    pub sim_hists: Vec<(String, HistogramSketch)>,
    /// Histograms over wall-clock values, sorted by name.
    pub wall_hists: Vec<(String, HistogramSketch)>,
}

impl Telemetry {
    /// Creates a registry from `config`.
    pub fn new(config: TelemetryConfig) -> Self {
        Self {
            on: config.enabled,
            span_capacity: config.span_capacity,
            inner: RefCell::new(Inner::default()),
        }
    }

    /// A permanently disabled registry; every call is a cheap no-op.
    pub fn disabled() -> Self {
        Self::new(TelemetryConfig::default())
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Moves the micro-tick clock to simulated second `sim_time`.
    ///
    /// Timestamps never go backwards: if the base would regress (or
    /// repeat), the sequence counter keeps climbing from the last stamp.
    pub fn advance(&self, sim_time: u64) {
        if !self.on {
            return;
        }
        self.inner.borrow_mut().base_us = sim_time.saturating_mul(1_000_000);
    }

    /// Opens a span; dropping the returned guard closes it.
    pub fn span(&self, cat: &'static str, name: &'static str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tel: self,
                id: None,
            };
        }
        let mut inner = self.inner.borrow_mut();
        if inner.spans.len() >= self.span_capacity {
            inner.spans_dropped += 1;
            return SpanGuard {
                tel: self,
                id: None,
            };
        }
        let start = inner.next_stamp();
        let id = inner.spans.len() as u32;
        let parent = inner.open.last().copied();
        inner.spans.push(SpanRecord {
            id,
            parent,
            cat,
            name,
            start_us: start,
            end_us: start,
            args: Vec::new(),
        });
        inner.open.push(id);
        SpanGuard {
            tel: self,
            id: Some(id),
        }
    }

    /// Adds `delta` to counter `name`, creating it at zero first.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if !self.on {
            return;
        }
        *self.inner.borrow_mut().counters.entry(name).or_insert(0) += delta;
    }

    /// Reads counter `name` (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().counters.get(name).copied().unwrap_or(0)
    }

    /// Records a deterministic (sim-domain) histogram observation.
    pub fn observe_sim(&self, name: &'static str, v: f64) {
        if !self.on {
            return;
        }
        self.inner
            .borrow_mut()
            .sim_hists
            .entry(name)
            .or_default()
            .observe(v);
    }

    /// Records a wall-clock histogram observation. The *caller* measures
    /// the duration (in a measurement site, whose function expects
    /// `clippy::disallowed_methods`); this crate only stores the number,
    /// and only exports it on request.
    pub fn observe_wall(&self, name: &'static str, v: f64) {
        if !self.on {
            return;
        }
        self.inner
            .borrow_mut()
            .wall_hists
            .entry(name)
            .or_default()
            .observe(v);
    }

    /// A clone of one wall histogram, if it exists.
    pub fn wall_hist(&self, name: &str) -> Option<HistogramSketch> {
        self.inner.borrow().wall_hists.get(name).cloned()
    }

    /// Spans not recorded because capacity was reached.
    pub fn spans_dropped(&self) -> u64 {
        self.inner.borrow().spans_dropped
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Deterministically ordered copy of all recorded state.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.inner.borrow();
        let mut spans = inner.spans.clone();
        for &(id, key, v) in &inner.args {
            if let Some(span) = spans.get_mut(id as usize) {
                span.args.push((key, v));
            }
        }
        TelemetrySnapshot {
            spans,
            spans_dropped: inner.spans_dropped,
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            sim_hists: inner
                .sim_hists
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            wall_hists: inner
                .wall_hists
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    /// JSONL export: one JSON object per line (spans, then counters and
    /// histogram summaries). `include_wall` adds wall-domain histograms,
    /// making the output run-specific.
    pub fn to_jsonl(&self, include_wall: bool) -> String {
        export::jsonl(&self.snapshot(), include_wall)
    }

    /// Chrome `trace_event` export (open in `chrome://tracing` or
    /// Perfetto). Contains only sim-clock spans, so it is byte-stable.
    pub fn to_chrome_trace(&self) -> String {
        export::chrome(&self.snapshot())
    }

    /// Prometheus-style text exposition snapshot of counters and histogram
    /// summaries.
    pub fn to_prometheus(&self, include_wall: bool) -> String {
        export::prometheus(&self.snapshot(), include_wall)
    }
}

/// RAII guard for an open span; dropping it closes the span at the next
/// micro-tick.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tel: &'a Telemetry,
    id: Option<u32>,
}

impl SpanGuard<'_> {
    /// Attaches a deterministic integer annotation to the span. Values
    /// must not derive from a wall clock.
    pub fn arg(&self, key: &'static str, v: u64) {
        let Some(id) = self.id else { return };
        self.tel.inner.borrow_mut().args.push((id, key, v));
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let mut inner = self.tel.inner.borrow_mut();
        let end = inner.next_stamp();
        if let Some(span) = inner.spans.get_mut(id as usize) {
            span.end_us = end;
        }
        // Guards drop in LIFO order, so `id` is the innermost open span;
        // retain() keeps the close robust even if a guard outlives its
        // parent's (which lexical scoping prevents in practice).
        inner.open.retain(|&o| o != id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let t = Telemetry::disabled();
        t.advance(5);
        {
            let s = t.span("sim", "cycle");
            s.arg("cycle", 1);
        }
        t.counter_add("c", 3);
        t.observe_sim("h", 1.0);
        t.observe_wall("w", 1.0);
        let snap = t.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.sim_hists.is_empty());
        assert!(snap.wall_hists.is_empty());
        assert_eq!(t.counter("c"), 0);
    }

    #[test]
    fn spans_nest_lexically() {
        let t = Telemetry::new(TelemetryConfig::on());
        t.advance(0);
        {
            let outer = t.span("sim", "cycle");
            outer.arg("cycle", 7);
            {
                let _inner = t.span("sched", "solve");
            }
            let _sibling = t.span("sched", "decode");
        }
        let spans = t.snapshot().spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "cycle");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].name, "solve");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "decode");
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].start_us > spans[0].start_us);
        assert!(spans[1].end_us < spans[0].end_us);
        assert_eq!(spans[0].args, vec![("cycle", 7)]);
    }

    #[test]
    fn advance_moves_the_clock_monotonically() {
        let t = Telemetry::new(TelemetryConfig::on());
        t.advance(2);
        let a = {
            let _s = t.span("sim", "a");
            t.snapshot().spans[0].start_us
        };
        assert_eq!(a, 2_000_000);
        // Regressing the base must not regress timestamps.
        t.advance(1);
        {
            let _s = t.span("sim", "b");
        }
        let spans = t.snapshot().spans;
        assert!(spans[1].start_us > spans[0].end_us);
    }

    #[test]
    fn span_capacity_drops_and_counts() {
        let t = Telemetry::new(TelemetryConfig {
            enabled: true,
            span_capacity: 2,
        });
        {
            let _a = t.span("x", "a");
            let _b = t.span("x", "b");
            let _c = t.span("x", "c"); // dropped
            let _d = t.span("x", "d"); // dropped
        }
        assert_eq!(t.span_count(), 2);
        assert_eq!(t.spans_dropped(), 2);
    }

    #[test]
    fn counters_accumulate() {
        let t = Telemetry::new(TelemetryConfig::on());
        t.counter_add("a.b", 2);
        t.counter_add("a.b", 3);
        assert_eq!(t.counter("a.b"), 5);
        let snap = t.snapshot();
        assert_eq!(snap.counters, vec![("a.b".to_string(), 5)]);
    }

    #[test]
    fn wall_histograms_stay_out_of_default_exports() {
        let t = Telemetry::new(TelemetryConfig::on());
        t.observe_sim("sim.h", 2.0);
        t.observe_wall("wall.h", 3.0);
        let stable = t.to_jsonl(false);
        assert!(stable.contains("sim.h"));
        assert!(!stable.contains("wall.h"));
        let full = t.to_jsonl(true);
        assert!(full.contains("wall.h"));
        let prom = t.to_prometheus(false);
        assert!(!prom.contains("wall_h"));
    }
}
