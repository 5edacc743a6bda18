//! `observe`: telemetry-enabled run with exportable cycle forensics.
//!
//! Runs a deterministic Gridmix workload under the full TetriSched stack
//! with spans, counters, histograms, and the event trace all enabled, then
//!
//! 1. writes the three telemetry exports (JSONL event log, Chrome
//!    `trace_event` file for `chrome://tracing`/Perfetto, Prometheus-style
//!    text snapshot) under `target/observe/` (`target/observe-open/`), and
//! 2. prints a per-cycle forensics report: the phase-latency table, the
//!    search profile (root-closed share, LPs a dive), the top-k slowest
//!    cycles with their span trees, and counter deltas between degraded
//!    (greedy-fallback) and healthy cycles.
//!
//! ```text
//! cargo run --release --bin observe [open]
//! ```
//!
//! The default scenario is a closed loop of 48 GS MIX jobs on 24 nodes.
//! `open` drives the event-driven service core (one bounded intake queue,
//! admission batching, backpressure, fair-share weighting) with an
//! open-loop arrival stream at 2× the cluster's calibrated saturation rate
//! and adds the service-core accounting: arrivals, admitted, shed, deferred
//! job-cycles, intake overflows, and the resulting SLO/BE class outcomes —
//! the run `tests/service_e2e.rs` asserts over (`bench::open_loop`).
//!
//! Exit codes: `0` ok, `1` an exporter write failed, `2` bad arguments.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use tetrisched::bench::{open_loop, OPEN_LOOP_ARRIVALS};
use tetrisched::cluster::Cluster;
use tetrisched::core::{TetriSched, TetriSchedConfig};
use tetrisched::sim::{
    SimConfig, SimReport, Simulator, SpanRecord, TelemetryConfig, TelemetrySnapshot,
};
use tetrisched::workloads::{GridmixConfig, Workload, WorkloadBuilder};

/// Workload seed of the closed scenario; fixed so two runs are
/// byte-comparable.
const SEED: u64 = 7;

/// How many of the slowest cycles get a span tree in the report.
const TOP_K: usize = 3;

fn run_closed() -> SimReport {
    let cluster = Cluster::uniform(4, 6, 2);
    let jobs = WorkloadBuilder::new(GridmixConfig {
        seed: SEED,
        num_jobs: 48,
        cluster_size: cluster.num_nodes(),
        ..GridmixConfig::default()
    })
    .generate(Workload::GsMix);
    let config = TetriSchedConfig {
        lint_models: true,
        certify_solves: true,
        ..TetriSchedConfig::full(8)
    };
    Simulator::new(
        cluster,
        TetriSched::new(config),
        SimConfig {
            horizon: Some(4000),
            trace: true,
            telemetry: TelemetryConfig::on(),
            ..SimConfig::default()
        },
    )
    .run(jobs)
}

/// Writes the three exports. Wall-domain values vary run to run; the
/// exports stay sim-only so they are byte-identical across same-seed runs.
fn write_exports(dir: &Path, report: &SimReport) -> Result<(), std::io::Error> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join("trace.jsonl"), report.telemetry.to_jsonl(false))?;
    fs::write(
        dir.join("chrome_trace.json"),
        report.telemetry.to_chrome_trace(),
    )?;
    fs::write(
        dir.join("metrics.prom"),
        report.telemetry.to_prometheus(false),
    )?;
    Ok(())
}

fn print_phase_table(report: &SimReport) {
    println!("-- phase latency (wall, ms) --");
    println!(
        "{:<12}{:>8}{:>10}{:>10}{:>10}{:>10}",
        "phase", "count", "mean", "p50", "p95", "p99"
    );
    for phase in [
        "collect", "strl_gen", "lint", "compile", "solve", "certify", "decode", "greedy",
    ] {
        let Some(h) = report.telemetry.wall_hist(&format!("phase.{phase}_secs")) else {
            continue;
        };
        println!(
            "{:<12}{:>8}{:>10.3}{:>10.3}{:>10.3}{:>10.3}",
            phase,
            h.count(),
            h.mean() * 1e3,
            h.quantile(0.5) * 1e3,
            h.quantile(0.95) * 1e3,
            h.quantile(0.99) * 1e3,
        );
    }
}

/// The search profile in two counts: the share of solves whose gap closed
/// before the first branch-and-bound node, and what a root dive costs in LPs.
fn print_search_profile(report: &SimReport) {
    let t = &report.telemetry;
    let solves = t.wall_hist("phase.solve_secs").map_or(0, |h| h.count());
    let per_solve = |n: u64| n as f64 / solves.max(1) as f64;
    println!("-- search profile --");
    println!("{:<22}{:>8}", "solves", solves);
    println!(
        "{:<22}{:>8.3}",
        "root-closed share",
        per_solve(t.counter("milp.root_closed"))
    );
    println!(
        "{:<22}{:>8.2}",
        "LPs a dive",
        per_solve(t.counter("milp.dive_lp_solves"))
    );
}

/// Value of a span's integer annotation, if present.
fn span_arg(s: &SpanRecord, key: &str) -> Option<u64> {
    s.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// Prints `span` and its subtree, indented; children are found by parent
/// links (span ids are recording-ordered, so one forward scan suffices).
fn print_span_tree(snap: &TelemetrySnapshot, span: &SpanRecord, depth: usize) {
    let args: Vec<String> = span.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "{:indent$}{}/{} [{} us] {}",
        "",
        span.cat,
        span.name,
        span.end_us.saturating_sub(span.start_us),
        args.join(" "),
        indent = depth * 2
    );
    for child in &snap.spans {
        if child.parent == Some(span.id) {
            print_span_tree(snap, child, depth + 1);
        }
    }
}

fn print_slowest_cycles(report: &SimReport, snap: &TelemetrySnapshot) {
    // Cycle ordinal -> wall seconds, slowest first.
    let samples = report.metrics.cycle_latency.samples();
    let mut ranked: Vec<(usize, f64)> = samples.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("-- top {TOP_K} slowest cycles (wall) --");
    for &(ordinal, secs) in ranked.iter().take(TOP_K) {
        println!("cycle {ordinal}: {:.3} ms", secs * 1e3);
        let cycle_span = snap
            .spans
            .iter()
            .find(|s| s.name == "cycle" && span_arg(s, "cycle") == Some(ordinal as u64));
        match cycle_span {
            Some(s) => print_span_tree(snap, s, 1),
            None => println!("  (span dropped: capacity reached)"),
        }
    }
}

/// Counter deltas between degraded (greedy-fallback) and healthy cycles,
/// accumulated from the per-cycle span annotations.
fn print_degraded_deltas(snap: &TelemetrySnapshot) {
    let mut healthy = (0u64, 0u64, 0u64, 0u64); // cycles, launches, errors, preemptions
    let mut degraded = (0u64, 0u64, 0u64, 0u64);
    for s in &snap.spans {
        if s.name != "cycle" {
            continue;
        }
        let bucket = if span_arg(s, "degraded") == Some(1) {
            &mut degraded
        } else {
            &mut healthy
        };
        bucket.0 += 1;
        bucket.1 += span_arg(s, "launches").unwrap_or(0);
        bucket.2 += span_arg(s, "errors").unwrap_or(0);
        bucket.3 += span_arg(s, "preemptions").unwrap_or(0);
    }
    println!("-- degraded vs healthy cycles --");
    println!(
        "{:<10}{:>8}{:>10}{:>8}{:>13}",
        "mode", "cycles", "launches", "errors", "preemptions"
    );
    for (mode, t) in [("healthy", healthy), ("degraded", degraded)] {
        println!("{:<10}{:>8}{:>10}{:>8}{:>13}", mode, t.0, t.1, t.2, t.3);
    }
}

/// The service-core accounting of an open-loop run.
fn print_service_accounting(report: &SimReport) {
    let m = &report.metrics;
    println!("-- service accounting --");
    println!("{:<22}{:>8}", "arrivals offered", OPEN_LOOP_ARRIVALS);
    println!("{:<22}{:>8}", "admitted", m.jobs_admitted);
    println!("{:<22}{:>8}", "shed", m.jobs_shed);
    println!("{:<22}{:>8}", "deferred job-cycles", m.jobs_deferred);
    println!("{:<22}{:>8}", "intake overflows", m.intake_overflows);
    println!();
    println!("-- admitted job classes --");
    println!(
        "{:<22}{:>5}/{}",
        "SLO accepted met", m.accepted_slo_met, m.accepted_slo_total
    );
    println!(
        "{:<22}{:>5}/{}",
        "SLO no-reservation met", m.nores_slo_met, m.nores_slo_total
    );
    println!(
        "{:<22}{:>5}/{}",
        "best-effort completed", m.be_completed, m.be_total
    );
    println!("{:<22}{:>8}", "incomplete at horizon", m.incomplete);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (open, report, out_dir) = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => (false, run_closed(), Path::new("target/observe")),
        ["open"] => (true, open_loop(5, 2.0), Path::new("target/observe-open")),
        _ => {
            eprintln!("usage: observe [open]");
            return ExitCode::from(2);
        }
    };
    let snap = report.telemetry.snapshot();
    if let Err(e) = write_exports(out_dir, &report) {
        eprintln!("observe: exporter error: {e}");
        return ExitCode::from(1);
    }
    println!(
        "observe: {} cycles, {} spans ({} dropped), {} trace events ({} dropped), \
         warm starts {} hit / {} miss",
        report.metrics.cycle_latency.count(),
        snap.spans.len(),
        snap.spans_dropped,
        report.trace.recorded(),
        report.trace.dropped(),
        report.metrics.warm_start_hits,
        report.metrics.warm_start_misses,
    );
    println!(
        "observe: wrote trace.jsonl, chrome_trace.json, metrics.prom under {}",
        out_dir.display()
    );
    println!();
    print_phase_table(&report);
    println!();
    print_search_profile(&report);
    println!();
    print_slowest_cycles(&report, &snap);
    println!();
    print_degraded_deltas(&snap);
    if open {
        println!();
        print_service_accounting(&report);
    }
    ExitCode::SUCCESS
}
