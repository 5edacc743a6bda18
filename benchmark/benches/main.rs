//! tetribench: the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! tetribench run [--workload NAME] [--seed N] [--seconds S] [--smoke] [--out FILE]
//! tetribench run --workload NAME --trace 0|1 [--seed N] [--seconds S] [--smoke]
//! tetribench compare A.json B.json
//! ```

mod compare;
mod host;
mod json;
mod metrics;
mod run;
mod snapshot;
mod stats;
mod timing;
mod workloads;

use std::process::ExitCode;

use run::RunArgs;

const USAGE: &str = "usage:
  tetribench run [--workload NAME] [--seed N] [--seconds S] [--smoke] [--out FILE]
      every workload (or one), untraced then traced, one process each
  tetribench run --workload NAME --trace 0|1 [--seed N] [--seconds S] [--smoke]
      one workload, one mode, in this process; the last line printed is the result
  tetribench compare A.json B.json
      two result files against the benchmark's bounds; exit 1 on a regression";

/// Seconds one run measures when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: None,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.to_string()),
            "--seed" => {
                let v = value()?;
                out.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v}: not a whole number"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {v}: not a number of seconds"))?;
                seconds_given = true;
            }
            "--trace" => {
                out.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                });
            }
            "--smoke" => out.smoke = true,
            "--out" => out.out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &out.workload {
        if workloads::find(name).is_none() {
            let known: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; known: {}",
                known.join(", ")
            ));
        }
    }
    if out.trace.is_some() && out.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    // A smoke run makes one pass per workload unless told otherwise.
    if out.smoke && !seconds_given {
        out.seconds = 0.0;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).map(|run_args| {
            match (
                run_args.trace,
                run_args.workload.as_deref().and_then(workloads::find),
            ) {
                // One process, one workload, one mode: the exit code says a
                // result was printed, `correct` in it how the checks went.
                (Some(traced), Some(def)) => {
                    run::run_one(def, &run_args, traced);
                    true
                }
                _ => run::run_all(&run_args),
            }
        }),
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
