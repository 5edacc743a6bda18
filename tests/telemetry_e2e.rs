//! End-to-end telemetry properties over full simulator runs:
//!
//! - the JSONL / Chrome-trace / Prometheus exports are byte-identical
//!   across two same-seed runs (the clock-injection design goal),
//! - enabling telemetry changes no scheduling decision,
//! - every pipeline phase records spans on a telemetry-enabled run,
//! - an undersized trace ring accounts for exactly what it dropped.

use tetrisched::cluster::Cluster;
use tetrisched::core::{TetriSched, TetriSchedConfig};
use tetrisched::sim::{SimConfig, SimReport, Simulator, TelemetryConfig};
use tetrisched::workloads::{GridmixConfig, Workload, WorkloadBuilder};

/// A short deterministic run. The generous solver budget matters: the MILP
/// wall-clock cutoff is the one nondeterministic input, so no solve may
/// reach it if two runs are to be comparable.
fn run(telemetry_on: bool, trace_capacity: usize) -> SimReport {
    run_variant(TetriSchedConfig::full(8), telemetry_on, trace_capacity)
}

/// [`run`] for another Table 2 variant of the scheduler.
fn run_variant(variant: TetriSchedConfig, telemetry_on: bool, trace_capacity: usize) -> SimReport {
    let cluster = Cluster::uniform(2, 8, 1);
    let jobs = WorkloadBuilder::new(GridmixConfig {
        seed: 11,
        num_jobs: 16,
        cluster_size: cluster.num_nodes(),
        ..GridmixConfig::default()
    })
    .generate(Workload::GsMix);
    let config = TetriSchedConfig {
        lint_models: true,
        certify_solves: true,
        ..variant
    };
    Simulator::new(
        cluster,
        TetriSched::new(config),
        SimConfig {
            horizon: Some(3000),
            trace: true,
            trace_capacity,
            telemetry: if telemetry_on {
                TelemetryConfig::on()
            } else {
                TelemetryConfig::default()
            },
            ..SimConfig::default()
        },
    )
    .run(jobs)
}

#[test]
fn exports_are_byte_identical_across_same_seed_runs() {
    let a = run(true, 1 << 16);
    let b = run(true, 1 << 16);
    let cycles = a.metrics.cycle_latency.count();
    assert!(cycles >= 50, "coverage shortfall: {cycles} cycles");
    assert_eq!(a.telemetry.to_jsonl(false), b.telemetry.to_jsonl(false));
    assert_eq!(a.telemetry.to_chrome_trace(), b.telemetry.to_chrome_trace());
    assert_eq!(
        a.telemetry.to_prometheus(false),
        b.telemetry.to_prometheus(false)
    );
}

#[test]
fn telemetry_does_not_change_decisions() {
    let on = run(true, 1 << 16);
    let off = run(false, 1 << 16);
    assert_eq!(on.end_time, off.end_time);
    assert_eq!(on.outcomes, off.outcomes);
    assert_eq!(on.classes, off.classes);
    let (m_on, m_off) = (&on.metrics, &off.metrics);
    assert_eq!(m_on.preemptions, m_off.preemptions);
    assert_eq!(m_on.abandoned, m_off.abandoned);
    assert_eq!(m_on.degraded_cycles, m_off.degraded_cycles);
    assert_eq!(m_on.lint_errors, m_off.lint_errors);
    assert_eq!(m_on.certificates_verified, m_off.certificates_verified);
    assert_eq!(m_on.warm_start_hits, m_off.warm_start_hits);
    assert_eq!(m_on.warm_start_misses, m_off.warm_start_misses);
    assert_eq!(
        m_on.cycle_latency.count(),
        m_off.cycle_latency.count(),
        "same number of scheduling cycles"
    );
    // The disabled registry records nothing at all.
    assert_eq!(off.telemetry.span_count(), 0);
    assert_eq!(off.telemetry.snapshot().counters.len(), 0);
}

#[test]
fn every_pipeline_phase_records_spans() {
    // Each path records its own phases. The global unit compiles, solves,
    // certifies and decodes the batch; a greedy unit evaluates its job's
    // request (certifying inside) and builds no model, under the cycle's
    // `greedy` span.
    let global = ["compile", "solve", "certify", "decode"];
    let greedy = ["evaluate", "certify"];
    for (variant, own) in [
        (TetriSchedConfig::full(8), &global[..]),
        (TetriSchedConfig::no_global(8), &greedy[..]),
    ] {
        let greedy = !variant.global;
        let report = run_variant(variant, true, 1 << 16);
        let snap = report.telemetry.snapshot();
        let under_greedy = |span: &tetrisched::sim::SpanRecord| {
            let mut parent = span.parent;
            while let Some(id) = parent {
                let up = &snap.spans[id as usize];
                if up.name == "greedy" {
                    return true;
                }
                parent = up.parent;
            }
            false
        };
        let shared = ["cycle", "collect", "strl_gen", "lint"];
        for &phase in shared.iter().chain(own) {
            let mut spans = snap.spans.iter().filter(|s| s.name == phase).peekable();
            assert!(
                spans.peek().is_some(),
                "no spans recorded for phase `{phase}` (greedy: {greedy})"
            );
            if greedy && !matches!(phase, "cycle" | "collect") {
                assert!(
                    spans.all(under_greedy),
                    "a `{phase}` span of a greedy run has no `greedy` ancestor"
                );
            }
        }
        assert_eq!(snap.spans_dropped, 0, "span capacity was large enough");
        assert!(report.telemetry.counter("sim.launches") > 0);
        if greedy {
            for phase in ["compile", "solve", "decode"] {
                assert!(
                    snap.spans.iter().all(|s| s.name != phase),
                    "a greedy run recorded a `{phase}` span"
                );
            }
            assert_eq!(report.telemetry.counter("milp.lp_solves"), 0);
            continue;
        }
        // Solver internals surfaced as counters.
        for counter in ["milp.lp_iterations", "milp.lp_solves"] {
            assert!(
                report.telemetry.counter(counter) > 0,
                "counter `{counter}` never incremented"
            );
        }
        // The search counters reach the export whether this scenario's
        // solves close their gap at the root or have to open nodes.
        let searched = report.telemetry.counter("milp.root_closed")
            + report.telemetry.counter("milp.bb_nodes");
        assert!(searched > 0, "no search counter incremented");
    }
}

#[test]
fn undersized_trace_ring_accounts_for_drops() {
    let full = run(true, 1 << 16);
    let recorded = full.trace.recorded();
    assert!(
        recorded > 8,
        "scenario too small to exercise the ring ({recorded} events)"
    );
    assert_eq!(full.trace.dropped(), 0);

    let small = run(true, 4);
    assert_eq!(small.trace.recorded(), recorded, "same events either way");
    assert_eq!(small.trace.events().len(), 4, "ring keeps exactly capacity");
    assert_eq!(small.trace.dropped(), recorded - 4);
    assert_eq!(
        small.telemetry.counter("sim.trace_events_dropped"),
        recorded - 4
    );
    // The retained window is the trace suffix.
    let all: Vec<_> = full.trace.events().to_vec();
    assert_eq!(small.trace.events(), &all[all.len() - 4..]);
}
