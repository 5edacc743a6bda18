//! Measuring the program from outside: a span recorder for the traced run
//! and a timing wrapper around any `Scheduler`.
//!
//! Time is read only at cycle granularity: one `Instant::now()` pair per
//! `Scheduler::cycle` call (or per replan), never per job. The traced run
//! adds one pair per pipeline stage.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use tetrisched_sim::{CycleContext, CycleDecisions, JobId, PendingJob, Scheduler, Time};

use crate::json::Json;

/// One recorded span. Spans of one cycle share its `cycle` number; `parent`
/// is the index of the span that was open when this one started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub cycle: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
pub type SpanId = Option<usize>;

/// In-memory span recorder. Disabled (the untraced run) it reads no clock
/// and stores nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cycle: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cycle: 0,
        }
    }

    /// Sets the identifier shared by the spans recorded from now on.
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_us = self.now_us();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            cycle: self.cycle,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        self.spans[id].end_us = self.now_us();
        // Spans close innermost first; anything still open above `id` was
        // left open by an early return and closes with it.
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Total seconds covered by the spans called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .sum::<f64>()
            / 1e6
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_secs(&self, name: &str) -> f64 {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_us - s.start_us;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_us - s.start_us) - c)
            .sum::<f64>()
            / 1e6
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("cycle", Json::Num(s.cycle as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                    ])
                })
                .collect(),
        )
    }
}

/// What the wrapper saw of one `Scheduler::cycle` call.
#[derive(Debug, Clone)]
pub struct CycleSample {
    pub wall_s: f64,
    /// At least one job was pending when the cycle started.
    pub busy: bool,
    pub solver_s: f64,
    pub work_units: u64,
    pub errors: usize,
    pub degraded: bool,
    pub warm_hits: usize,
    pub warm_misses: usize,
}

/// Samples and spans shared between the wrapper (owned by the simulator for
/// the length of a run) and the benchmark.
#[derive(Debug)]
pub struct CycleLog {
    pub samples: Vec<CycleSample>,
    pub tracer: Tracer,
}

pub type SharedLog = Rc<RefCell<CycleLog>>;

pub fn shared_log(traced: bool) -> SharedLog {
    Rc::new(RefCell::new(CycleLog {
        samples: Vec::new(),
        tracer: Tracer::new(traced),
    }))
}

/// Times every `cycle` call of the scheduler it wraps and passes everything
/// through unchanged.
pub struct Timed<S> {
    inner: S,
    log: SharedLog,
}

impl<S: Scheduler> Timed<S> {
    pub fn new(inner: S, log: SharedLog) -> Self {
        Timed { inner, log }
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn on_submit(&mut self, job: &PendingJob, now: Time) {
        self.inner.on_submit(job, now);
    }

    fn on_complete(&mut self, job: JobId, now: Time) {
        self.inner.on_complete(job, now);
    }

    fn on_evict(&mut self, job: JobId, now: Time) {
        self.inner.on_evict(job, now);
    }

    fn cycle(&mut self, ctx: &CycleContext<'_>) -> CycleDecisions {
        let span = {
            let mut log = self.log.borrow_mut();
            let cycle = log.samples.len() as u64;
            log.tracer.set_cycle(cycle);
            log.tracer.begin("core.cycle")
        };
        let t0 = Instant::now();
        let d = self.inner.cycle(ctx);
        let wall_s = t0.elapsed().as_secs_f64();
        let mut log = self.log.borrow_mut();
        log.tracer.end(span);
        log.samples.push(CycleSample {
            wall_s,
            busy: !ctx.pending.is_empty(),
            solver_s: d.solver_time.as_secs_f64(),
            work_units: d.solver_work_units,
            errors: d.errors.len(),
            degraded: d.degraded,
            warm_hits: d.warm_start_hits,
            warm_misses: d.warm_start_misses,
        });
        d
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        assert_eq!(id, None);
        t.end(id);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_cycle(7);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.end(outer);
        let spans = &t.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.cycle == 7 && s.end_us >= s.start_us));
        let own = t.self_secs("outer");
        assert!((own - (t.total_secs("outer") - t.total_secs("inner"))).abs() < 1e-12);
    }
}
