//! `srclint`: the workspace invariant linter.
//!
//! Walks the workspace's `.rs` files, lexes every one
//! ([`lint::lexer`]), and enforces the repo invariants documented in
//! DESIGN.md (codes `L007`, `L009`, `L011`): ladder-rung ownership,
//! float-determinism in the solver crates, and dead operator knobs. Clock
//! reads, hash collections and concurrency are clippy's (the root
//! `clippy.toml`). Offline and fast; run it from anywhere inside the
//! workspace:
//!
//! ```text
//! cargo run -p lint --bin srclint [-- --root <dir>] [--json] \
//!     [--deny-warnings] [--budget-ms <n>]
//! ```
//!
//! Exit codes: `0` clean, `1` Error-severity findings (or any finding
//! under `--deny-warnings`, or the runtime budget blown), `2` usage or
//! I/O error.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use lint::{lint_workspace, render_json, render_pretty};
use tetrisched_milp::Severity;

/// Ascends from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
fn find_workspace_root(start: PathBuf) -> Option<PathBuf> {
    let mut dir = start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "measurement site: the scan's own runtime, held to `--budget-ms`"
)]
fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut deny_warnings = false;
    let mut budget_ms: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("srclint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--budget-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => budget_ms = Some(ms),
                None => {
                    eprintln!("srclint: --budget-ms requires an integer");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: srclint [--root <dir>] [--json] [--deny-warnings] \
                     [--budget-ms <n>]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("srclint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("srclint: cannot determine current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "srclint: no workspace root found above the current \
                         directory; pass --root"
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let t0 = Instant::now();
    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("srclint: scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let elapsed = t0.elapsed();
    let elapsed_ms = elapsed.as_secs_f64() * 1e3;
    let tokens_per_sec = report.tokens_scanned as f64 / elapsed.as_secs_f64().max(1e-9);

    if json {
        println!("{}", render_json(&report.diagnostics));
    } else if report.diagnostics.is_empty() {
        println!(
            "srclint: {} files clean under {}",
            report.files_scanned,
            root.display()
        );
    } else {
        print!("{}", render_pretty(&report.diagnostics));
    }
    // Stats go to stderr so `--json` stdout stays machine-parseable.
    eprintln!(
        "srclint: {} files, {} tokens, {} bytes in {elapsed_ms:.1} ms \
         ({:.1}M tokens/sec); knob_fields_checked: {}",
        report.files_scanned,
        report.tokens_scanned,
        report.bytes_scanned,
        tokens_per_sec / 1e6,
        report.knob_fields_checked,
    );

    if let Some(ms) = budget_ms {
        if elapsed_ms > ms as f64 {
            eprintln!("srclint: runtime budget blown: {elapsed_ms:.1} ms > {ms} ms");
            return ExitCode::from(1);
        }
    }

    let min_fatal = if deny_warnings {
        Severity::Warning
    } else {
        Severity::Error
    };
    if report.diagnostics.iter().any(|d| d.severity >= min_fatal) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
