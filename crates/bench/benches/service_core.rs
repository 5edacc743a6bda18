//! Service-core performance baseline (`BENCH_8.json`).
//!
//! Six headline numbers, measured on the vendored criterion stub:
//!
//! - **cycles/sec** — closed-loop simulated scheduler cycles completed per
//!   wall second (whole-engine throughput including STRL generation,
//!   compile, solve, and decode);
//! - **p99 solve latency (ms)** — tail wall-clock MILP solve time within
//!   that run (the paper's Fig. 12(a) axis);
//! - **intake throughput (jobs/sec)** — arrivals the sharded service core
//!   can ingest and drain per wall second, isolated from the scheduler;
//! - **degraded cycle p99 (ms)** — tail *simulated* cycle latency of the
//!   same closed-loop run under scripted slow nodes with the straggler
//!   defense and the degradation ladder enabled;
//! - **srclint ms / tokens-per-sec** — wall time and lexing throughput of
//!   a full `srclint` workspace scan (`L001`–`L011`), the CI semantic-lint
//!   job's runtime-budget guardrail.
//!
//! The intake figure was audited after `BENCH_6.json` reported ~89M
//! jobs/sec: the arithmetic was sound (10k jobs over a ~112 µs mean is
//! ~89M/s for an in-memory shard drain), but the conversion divided by a
//! raw `as_secs_f64()` that silently produces `inf` when a fast machine
//! drives the mean below timer resolution. The conversion is now guarded
//! and the per-job cost in nanoseconds is reported alongside, which is the
//! number that actually survives machine changes.
//!
//! The harness writes `BENCH_8.json` at the workspace root so the perf
//! trajectory has a committed baseline to diff against. Absolute numbers
//! are machine-dependent; the file records shape and order of magnitude.

use criterion::{BenchResult, Criterion};
use std::hint::black_box;
use tetrisched_bench::{run_spec, RunSpec, SchedulerKind};
use tetrisched_cluster::{Cluster, NodeId};
use tetrisched_core::{GovernorConfig, TetriSchedConfig};
use tetrisched_service::{
    AdmissionPolicy, FairShareConfig, ServiceConfig, ServiceCore, ServiceJob,
};
use tetrisched_sim::{
    FaultScope, PerfFaultKind, PerfFaultPlan, PerfFaultScript, SimReport, StragglerConfig,
};
use tetrisched_workloads::Workload;

#[derive(Debug, Clone, Copy)]
struct BenchJob(u64);

impl ServiceJob for BenchJob {
    fn service_id(&self) -> u64 {
        self.0
    }
}

/// The smoke-sized closed-loop run timed for cycles/sec: same shape as the
/// e2e equivalence corpus so the number tracks the code path users of the
/// engine actually exercise.
fn cycle_spec() -> RunSpec {
    RunSpec::new(
        Workload::GsMix,
        Cluster::uniform(2, 8, 1),
        24,
        3,
        SchedulerKind::Tetri(TetriSchedConfig::full(16)),
    )
}

/// The same run under degraded operation: two nodes (12.5% of RC16) run
/// 4x slow for a long mid-run window, the straggler defense may migrate
/// victims, and the governor is allowed to walk the anytime ladder.
fn degraded_spec() -> RunSpec {
    let cluster = Cluster::uniform(2, 8, 1);
    let perf_faults = PerfFaultPlan::from_script(
        &cluster,
        &[PerfFaultScript {
            at: 40,
            duration: 400,
            scope: FaultScope::Nodes(vec![NodeId(0), NodeId(8)]),
            kind: PerfFaultKind::SlowNode { factor: 4.0 },
            announced: false,
        }],
    );
    let mut cfg = TetriSchedConfig::full(16);
    cfg.governor = GovernorConfig::defaults();
    // The default budget is sized for paper-scale clusters; tighten it so
    // the RC16 smoke run actually exercises the ladder and the committed
    // baseline records a nonzero rung.
    cfg.governor.work_budget = 200;
    RunSpec {
        kind: SchedulerKind::Tetri(cfg),
        perf_faults,
        stragglers: StragglerConfig::defaults(),
        ..cycle_spec()
    }
}

/// Jobs pushed through the service core per intake-bench iteration.
const INTAKE_JOBS: u64 = 10_000;

fn bench_cycles(c: &mut Criterion) -> SimReport {
    let spec = cycle_spec();
    let mut g = c.benchmark_group("service_core");
    g.sample_size(5);
    g.bench_function("closed_loop_run", |b| b.iter(|| black_box(run_spec(&spec))));
    g.finish();
    // One more deterministic run outside the timer for the cycle count and
    // the solve-latency distribution.
    run_spec(&spec)
}

fn bench_degraded(c: &mut Criterion) -> SimReport {
    let spec = degraded_spec();
    let mut g = c.benchmark_group("service_core");
    g.sample_size(3);
    g.bench_function("degraded_run", |b| b.iter(|| black_box(run_spec(&spec))));
    g.finish();
    run_spec(&spec)
}

fn bench_intake(c: &mut Criterion) {
    let service = ServiceConfig::open(
        4,
        256,
        AdmissionPolicy {
            max_admissions_per_cycle: 64,
            max_scheduler_backlog: usize::MAX,
            shed_queue_depth: usize::MAX,
        },
        FairShareConfig::disabled(),
    );
    let mut g = c.benchmark_group("service_core");
    g.sample_size(10);
    g.bench_function("intake_10k", |b| {
        b.iter(|| {
            let mut core: ServiceCore<BenchJob> = ServiceCore::new(service.clone());
            let mut drained = 0u64;
            for id in 0..INTAKE_JOBS {
                black_box(core.ingest(BenchJob(id)));
                // Drain in admission-sized batches as the engine would.
                if id % 64 == 63 {
                    drained += core.drain_cycle(0).admitted.len() as u64;
                }
            }
            while core.backlog() > 0 {
                drained += core.drain_cycle(0).admitted.len() as u64;
            }
            core.validate().expect("bench accounting");
            black_box(drained)
        })
    });
    g.finish();
}

/// Times a full `srclint` workspace scan and returns the token count of
/// the scanned tree (the numerator of the tokens/sec figure).
fn bench_srclint(c: &mut Criterion) -> usize {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/bench")
        .to_path_buf();
    let mut g = c.benchmark_group("service_core");
    g.sample_size(10);
    let scan_root = root.clone();
    g.bench_function("srclint_workspace", |b| {
        b.iter(|| black_box(lint::lint_workspace(&scan_root).expect("scan")))
    });
    g.finish();
    let report = lint::lint_workspace(&root).expect("scan");
    assert!(
        report.diagnostics.is_empty(),
        "srclint must be clean when the baseline is recorded"
    );
    report.tokens_scanned
}

fn mean_ns(results: &[BenchResult], id: &str) -> u128 {
    results
        .iter()
        .find(|r| r.id == id)
        .map(|r| r.mean.as_nanos())
        .expect("benchmark did not record a result")
}

/// `count` events over a mean of `ns` nanoseconds, as events/sec. Guarded
/// so a sub-resolution mean (0 ns on a coarse timer) reports 0 rather
/// than `inf` leaking into the committed baseline.
fn per_sec(count: f64, ns: u128) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    count * 1e9 / ns as f64
}

fn main() {
    let mut c = Criterion::default();
    let report = bench_cycles(&mut c);
    let degraded = bench_degraded(&mut c);
    bench_intake(&mut c);
    let srclint_tokens = bench_srclint(&mut c);

    let cycles = report.metrics.cycle_latency.count() as f64;
    let cycles_per_sec = per_sec(cycles, mean_ns(c.results(), "closed_loop_run"));
    let p99_solve_ms = report.metrics.solver_latency.quantile(0.99) * 1000.0;
    let intake_ns = mean_ns(c.results(), "intake_10k");
    let intake_throughput = per_sec(INTAKE_JOBS as f64, intake_ns);
    let intake_per_job_ns = intake_ns as f64 / INTAKE_JOBS as f64;
    // Simulated (not wall-clock) tail cycle latency under degradation,
    // plus the rung trajectory so regressions in ladder engagement show
    // up in the committed baseline.
    let degraded_p99_ms = degraded.metrics.cycle_latency.quantile(0.99) * 1000.0;
    let degraded_rung = degraded.metrics.ladder_rung;
    let srclint_ns = mean_ns(c.results(), "srclint_workspace");
    let srclint_ms = srclint_ns as f64 / 1e6;
    let srclint_tokens_per_sec = per_sec(srclint_tokens as f64, srclint_ns);

    let mut samples = String::new();
    for r in c.results() {
        if !samples.is_empty() {
            samples.push_str(",\n");
        }
        samples.push_str(&format!(
            "    {{\"group\": \"{}\", \"id\": \"{}\", \"mean_ns\": {}, \"min_ns\": {}}}",
            r.group,
            r.id,
            r.mean.as_nanos(),
            r.min.as_nanos()
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"BENCH_8\",\n  \"schema\": 3,\n  \
         \"cycles_per_sec\": {cycles_per_sec:.2},\n  \
         \"p99_solve_latency_ms\": {p99_solve_ms:.3},\n  \
         \"intake_throughput_jobs_per_sec\": {intake_throughput:.0},\n  \
         \"intake_per_job_ns\": {intake_per_job_ns:.1},\n  \
         \"degraded_cycle_p99_ms\": {degraded_p99_ms:.3},\n  \
         \"degraded_max_ladder_rung\": {degraded_rung},\n  \
         \"srclint_ms\": {srclint_ms:.1},\n  \
         \"srclint_tokens_per_sec\": {srclint_tokens_per_sec:.0},\n  \
         \"cycles_timed\": {cycles},\n  \
         \"samples\": [\n{samples}\n  ]\n}}\n"
    );

    // CARGO_MANIFEST_DIR is crates/bench; the baseline lives at the
    // workspace root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/bench");
    let out = root.join("BENCH_8.json");
    std::fs::write(&out, &json).expect("write BENCH_8.json");
    println!("wrote {}", out.display());
    print!("{json}");
}
