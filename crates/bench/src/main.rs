//! `tetrisched-bench <id> [flags]`: regenerates one table or figure of the
//! paper's evaluation; with no argument, prints the index of experiments.
//!
//! Exit codes: `0` ok, `1` the chaos gate (`churn --check`) failed, `2`
//! the arguments were not understood.

#![deny(unsafe_code)]

use std::process::ExitCode;

use tetrisched_bench::{chaos_gate, index, parse};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        print!("{}", index());
        return ExitCode::SUCCESS;
    }
    match parse(&argv) {
        // Only `churn` takes `--check`.
        Ok((_, args)) if args.has("--check") => ExitCode::from(!chaos_gate(&args.scale) as u8),
        Ok((experiment, args)) => {
            (experiment.print)(&args, &(experiment.run)(&args));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tetrisched-bench: {e}\n\n{}", index());
            ExitCode::from(2)
        }
    }
}
