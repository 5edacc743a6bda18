//! Running workloads. One process measures one workload once, untraced
//! (end-to-end metrics) or traced (per-layer metrics), so that peak RSS and
//! CPU time belong to that run alone; the plain `run` command starts those
//! processes one after another and gathers what they print.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::host::{self, Env};
use crate::json::{self, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, positional_min, ratio};
use crate::workloads::{self, Pass, Values, WorkloadDef, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// Directory for result and trace files, inside the benchmark's own.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What one process measured, as printed on its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in the order of the metric tables.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|&(name, value, unit)| {
                            (
                                name.to_string(),
                                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn print(&self, title: &str) {
        println!("{title}");
        for &(name, value, unit) in &self.metrics {
            println!("  {name:<32} {value:>18.6} {unit}");
        }
        println!(
            "  {:<32} {:>18} ({} attempted, {} failed)",
            "correct", self.correct, self.attempted, self.failed
        );
        // The last line of standard output is the result, on one line.
        println!("{}", self.to_json().to_line());
    }
}

/// Whether one more round fits a budget of `seconds`: it does while the
/// rounds so far, each as long as their mean, would end nearer the budget
/// with it than without. The first round always runs.
fn another_round(rounds: usize, elapsed: f64, seconds: f64) -> bool {
    rounds == 0 || elapsed + 0.5 * elapsed / rounds as f64 <= seconds
}

/// Runs as many passes as come nearest to `seconds`, at least one.
fn passes_for(seconds: f64, mut one: impl FnMut() -> Pass) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while another_round(passes.len(), t0.elapsed().as_secs_f64(), seconds) {
        passes.push(one());
    }
    passes
}

/// Median over passes of one number per pass.
fn median_over(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Busy-cycle times in ms. Cycle i does the same work in every pass, and
/// what a shared host adds to it (steal, a neighbour in the cache) only ever
/// adds, in stretches of seconds to tens of seconds: so its time is the
/// least across passes. Percentiles are taken across cycles after that.
fn busy_cycle_ms(passes: &[Pass]) -> Vec<f64> {
    let walls: Vec<&[f64]> = passes.iter().map(|p| p.busy_walls_s.as_slice()).collect();
    positional_min(&walls).iter().map(|s| s * 1e3).collect()
}

/// A named value, 0 where the workload does not define it.
fn value(values: &Values, name: &str) -> f64 {
    values.get(name).copied().unwrap_or(0.0)
}

/// Every pass replays the same inputs, so simulated and counted results
/// must be identical; a difference is a determinism failure.
fn check_repeats(passes: &[&Pass], failures: &mut Vec<(u64, String)>) {
    let first = passes[0];
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.exact != first.exact || p.busy_walls_s.len() != first.busy_walls_s.len() {
            let differing: Vec<_> = first
                .exact
                .iter()
                .filter(|(k, v)| p.exact.get(*k) != Some(v))
                .map(|(k, v)| format!("{k}: {v} vs {:?}", p.exact.get(k)))
                .collect();
            failures.push((
                1,
                format!(
                    "pass {i} did not repeat pass 0 exactly: {}",
                    differing.join(", ")
                ),
            ));
        }
    }
}

/// One process, one workload, one mode. The result it prints says in
/// `correct` how the output checks went.
pub fn run_one(def: &WorkloadDef, args: &RunArgs, traced: bool) {
    let env = Env::capture();
    for w in env.warnings() {
        eprintln!("warning: {w}");
    }
    let seed = args.seed.unwrap_or(def.default_seed);
    let outcome = if traced {
        run_traced(def, seed, args, &env)
    } else {
        run_untraced(def, seed, args)
    };
    let mode = if traced { "traced" } else { "untraced" };
    outcome.print(&format!("{} seed {seed} {mode}", def.name));
}

fn run_untraced(def: &WorkloadDef, seed: u64, args: &RunArgs) -> Outcome {
    let repeats = if args.smoke { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut prepared = None;
    for _ in 0..repeats {
        // The inputs before go first. Kept until the next ones stood, they
        // left a hole in the heap that every LP tableau of the run then
        // fitted in, and the snapshot workloads ran a third faster than in
        // a process that set up once, as the traced run's does.
        drop(prepared.take());
        let t0 = Instant::now();
        prepared = Some(workloads::prepare(def, seed, args.smoke).0);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up");

    let passes = passes_for(args.seconds, || workloads::run_pass(&prepared, false));
    let first = &passes[0];
    let mut failures = first.failures.clone();
    check_repeats(&passes.iter().collect::<Vec<_>>(), &mut failures);
    for (_, why) in &failures {
        eprintln!("FAILED {}: {why}", def.name);
    }

    let cycle_ms = busy_cycle_ms(&passes);
    eprintln!(
        "{}: {} passes, {} busy cycles each, median pass {:.3} s",
        def.name,
        passes.len(),
        cycle_ms.len(),
        median_over(&passes, |p| p.wall_s)
    );

    let mut metrics = Vec::new();
    for m in END_TO_END {
        let value = match m.name {
            "setup_s" => median(&setups),
            "cycle_p50_ms" => percentile(&cycle_ms, 0.50),
            "peak_rss_mb" => Some(host::peak_rss_mb()),
            name => first.exact.get(name).copied(),
        };
        match value {
            Some(v) => metrics.push((m.name, v, m.unit)),
            // Only a smoke run is too short for a percentile.
            None => eprintln!(
                "{}: {} needs more samples than {}",
                def.name,
                m.name,
                cycle_ms.len()
            ),
        }
    }
    Outcome {
        correct: failures.is_empty(),
        attempted: first.attempted,
        failed: failures.iter().map(|(n, _)| n).sum(),
        metrics,
    }
}

fn run_traced(def: &WorkloadDef, seed: u64, args: &RunArgs, env: &Env) -> Outcome {
    let (prepared, generate_s) = workloads::prepare(def, seed, args.smoke);

    // Untraced and traced passes alternate: the untraced ones are the
    // reference the traced ones must reproduce, and the ratio of their
    // walls is the tracing overhead.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let t0 = Instant::now();
    while another_round(plain.len(), t0.elapsed().as_secs_f64(), args.seconds) {
        plain.push(workloads::run_pass(&prepared, false));
        traced.push(workloads::run_pass(&prepared, true));
    }
    let reference = &plain[0];
    let mut failures = reference.failures.clone();
    failures.extend(traced[0].failures.iter().cloned());
    check_repeats(
        &plain.iter().chain(&traced).collect::<Vec<_>>(),
        &mut failures,
    );
    for (_, why) in &failures {
        eprintln!("FAILED {}: {why}", def.name);
    }

    let plain_wall = median_over(&plain, |p| p.wall_s);
    let traced_wall = median_over(&traced, |p| p.wall_s);

    // Timed layer values: the median over the traced passes.
    let mut layers = Values::new();
    for &name in traced[0].layers.keys() {
        layers.insert(name, median_over(&traced, |p| value(&p.layers, name)));
    }
    for (&name, &value) in &reference.exact {
        layers.insert(name, value);
    }
    let self_s = median_over(&traced, |p| p.tracer.self_secs("sim.run"));
    layers.insert(
        "sim.run_s",
        median_over(&traced, |p| p.tracer.total_secs("sim.run")),
    );
    layers.insert("sim.self_s", self_s);
    layers.insert(
        "sim.self_us_per_cycle",
        ratio(self_s * 1e6, value(&reference.exact, "sim.cycles")),
    );
    // Throughput comes from the untraced passes, like every end-to-end
    // number; it is not end-to-end itself because a sum of cycle times is
    // ruled by the few slowest cycles, whose weight changes with the seed.
    layers.insert(
        "sim.cycles_per_s",
        ratio(value(&reference.exact, "sim.busy_cycles"), plain_wall),
    );
    layers.insert("workloads.generate_ms", generate_s * 1e3);
    layers.insert("workloads.jobs", prepared.jobs.len() as f64);
    let solve_s = value(&layers, "milp.solve_s");
    let lp_iters = value(&layers, "milp.lp_iterations");
    layers.insert(
        "milp.solve_share",
        ratio(solve_s, value(&layers, "core.cycle_s")),
    );
    layers.insert("milp.us_per_lp_iter", ratio(solve_s * 1e6, lp_iters));
    layers.insert(
        "milp.iters_per_lp",
        ratio(lp_iters, value(&layers, "milp.lp_solves")),
    );

    // The highest percentile with ten samples beyond it, from the untraced
    // passes.
    let cycle_ms = busy_cycle_ms(&plain);
    let tail = [0.99, 0.90, 0.50]
        .iter()
        .find_map(|&q| percentile(&cycle_ms, q).map(|v| (q, v)));
    if let Some((q, v)) = tail {
        layers.insert("core.cycle_tail_ms", v);
        layers.insert("core.cycle_tail_pct", q * 100.0);
    }

    workloads::closed_loop_quality(&prepared, &mut layers);
    workloads::baseline(&prepared, &mut layers);
    workloads::intake(&mut layers);
    workloads::probe_layers(&prepared, seed, &mut layers);

    let failed: u64 = failures.iter().map(|(n, _)| n).sum();
    layers.insert(
        "quality.failed_share",
        ratio(failed as f64, reference.attempted as f64),
    );
    let (user_s, sys_s) = host::cpu_secs();
    layers.insert("host.cpu_user_s", user_s);
    layers.insert("host.cpu_sys_pct", 100.0 * ratio(sys_s, user_s + sys_s));
    layers.insert("host.loadavg1", host::loadavg1());
    layers.insert(
        "host.trace_overhead_pct",
        100.0 * (ratio(traced_wall, plain_wall) - 1.0),
    );

    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name, value(&layers, m.name), m.unit))
        .collect();
    let outcome = Outcome {
        correct: failures.is_empty(),
        attempted: reference.attempted,
        failed,
        metrics,
    };

    // Spans stayed in memory until now; write them with the layer table.
    let doc = Json::obj([
        ("workload", Json::str(def.name)),
        ("seed", Json::Num(seed as f64)),
        ("env", env_json(env)),
        ("result", outcome.to_json()),
        ("spans", traced[0].tracer.to_json()),
    ]);
    let path = out_dir().join(format!("{}.trace.json", def.name));
    if let Err(e) =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc.to_line()))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    outcome
}

fn env_json(env: &Env) -> Json {
    Json::obj([
        ("nproc", Json::Num(env.nproc as f64)),
        ("loadavg1", Json::Num(env.loadavg1)),
        ("profile", Json::str(env.profile)),
        ("commit", Json::str(env.commit.clone())),
    ])
}

/// Starts one process per workload and mode, prints what they print, and
/// writes every result to one file. Returns whether every run was correct.
pub fn run_all(args: &RunArgs) -> bool {
    let env = Env::capture();
    for w in env.warnings() {
        eprintln!("warning: {w}");
    }
    let selected: Vec<&WorkloadDef> = WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    let exe = std::env::current_exe().expect("the running program has a path");
    let mut all_correct = true;
    let mut results = Vec::new();
    for def in selected {
        let seed = args.seed.unwrap_or(def.default_seed);
        println!("== {}: {}", def.name, def.why);
        let mut per_mode = Vec::new();
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", def.name, "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // Standard error passes through; standard output is gathered.
            cmd.stderr(Stdio::inherit());
            let output = cmd.output().expect("the benchmark can start itself");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let parsed = stdout
                .lines()
                .last()
                .ok_or_else(|| "no output".to_string())
                .and_then(json::parse);
            match parsed {
                Ok(doc) if output.status.success() => {
                    all_correct &= doc.get("correct").and_then(Json::as_bool) == Some(true);
                    per_mode.push(doc);
                }
                Ok(_) | Err(_) => {
                    eprintln!("FAILED {} --trace {trace}: {}", def.name, output.status);
                    all_correct = false;
                    per_mode.push(Json::Null);
                }
            }
        }
        let field = |doc: &Json, key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
        results.push((
            def.name.to_string(),
            Json::obj([
                ("seed", Json::Num(seed as f64)),
                (
                    "correct",
                    Json::Bool(
                        per_mode
                            .iter()
                            .all(|d| d.get("correct").and_then(Json::as_bool) == Some(true)),
                    ),
                ),
                ("attempted", field(&per_mode[0], "attempted")),
                ("failed", field(&per_mode[0], "failed")),
                ("end_to_end", field(&per_mode[0], "metrics")),
                ("per_layer", field(&per_mode[1], "metrics")),
            ]),
        ));
    }
    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("smoke", Json::Bool(args.smoke)),
        ("env", env_json(&env)),
        ("workloads", Json::Obj(results)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, doc.to_pretty()));
    match written {
        Ok(()) => eprintln!("results written to {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            all_correct = false;
        }
    }
    all_correct
}

#[cfg(test)]
mod tests {
    use super::another_round;

    #[test]
    fn rounds_come_nearest_to_the_budget() {
        // A smoke run (budget 0) makes one round and no more.
        assert!(another_round(0, 0.0, 0.0));
        assert!(!another_round(1, 3.0, 0.0));
        // 12-second rounds against 25 s: two (24 s), not three (36 s).
        assert!(another_round(1, 12.0, 25.0));
        assert!(!another_round(2, 24.0, 25.0));
        // A 19-second round against 25 s stays alone.
        assert!(!another_round(1, 19.0, 25.0));
    }
}
