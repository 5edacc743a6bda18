//! Workspace invariant linting over source files: six codes, `L001`,
//! `L004`, `L007` and `L009`–`L011`. (`L002`, `L003`, `L005`, `L006` and
//! `L008` are retired and their numbers are not reused: `L005` / `L006`
//! are rows of `L001`, what `L003` read out of manifests an offline
//! `cargo` refuses to resolve, and panic sources, `L002` and then `L008`,
//! are clippy's restriction lints, denied at the guarded crate roots,
//! where a function that keeps one carries an `#[expect(…, reason = …)]`
//! that fails the build once nothing fires under it.)
//!
//! The simulator's reproducibility rests on conventions rustc cannot
//! enforce. This pass lexes every workspace `.rs` file into a token
//! stream with a test mask ([`crate::lexer`], [`crate::source_model`])
//! and machine-checks them.
//! Because analysis is token-based, needles inside string literals, doc
//! comments, and nested `/* */` blocks can never fire, and `#[cfg(test)]`
//! scoping is brace-matched (code *after* a test module is still
//! analyzed).
//!
//! Every rule but one is a row of `RULES`: a code, the path prefixes it
//! guards, the files inside them it leaves alone, a matcher over one
//! token position, and the message. No rule follows a call: what a rule
//! covers is read off its row, never off a function's name.
//!
//! - `L001` — no clock reads. Three rows: `Instant::now` / `SystemTime`
//!   anywhere outside the three-file measurement allowlist (simulated time
//!   comes from the engine), and any `std::time` path at all inside
//!   `crates/telemetry/src` (time is injected by callers) and
//!   `crates/service/src` (the engine's virtual clock), no allowlist.
//! - `L004` — no hash-based collections (`HashMap`/`HashSet`) in
//!   solver-adjacent crates: iteration order feeds model order.
//! - `L007` — the degradation ladder's rung is owned by `core::governor`;
//!   no other non-test line in the core crate may mention `ladder_rung`.
//! - `L009` — **float-determinism**: in solver crates (`milp`, `core`,
//!   `cluster`), no `f64`/`f32` `==`/`!=` comparison and no float
//!   `Iterator::sum`/`product`/`fold` accumulation outside the fixed-order
//!   kernels (`crates/milp/src/kernels.rs`): one auditable summation
//!   order and one exact-zero test, so debug and release digests agree.
//!   Clippy's `float_cmp`, denied at these crates' roots, is the
//!   type-aware second net: it sees operands whose float type is inferred,
//!   which this rule cannot, but exempts comparisons with zero and never
//!   sees a reduction.
//! - `L010` — **no concurrency**: threads, locks, atomics, channels, and
//!   `static mut` are forbidden everywhere in product code (the vendored
//!   third-party API stubs are exempt): a program whose exports are
//!   byte-identical by seed has no interleaving to vary.
//!
//! The one rule that is not a token position is `L011` — **dead knobs**:
//! every field of every `pub struct` named `*Config` or `*Policy` must be
//! *read* (`.field` access that is not an assignment) somewhere in
//! non-test code. A knob that is only ever written is dead: it silently
//! ignores operator intent.
//!
//! Test items (brace-matched `#[cfg(test)]` / `#[test]`), `tests/` and
//! `benches/` trees are exempt. The scan is offline: no rustc, no network.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

use tetrisched_milp::lint::{Diagnostic, Severity};

use crate::lexer::{num_is_float, TokenKind};
use crate::source_model::SourceFile;

/// One scoped token rule.
struct Rule {
    code: &'static str,
    /// Path prefixes (workspace-relative, `/`-separated) whose non-test
    /// code the rule guards; `""` is the whole workspace.
    scope: &'static [&'static str],
    /// Files and subtrees inside the scope that the rule leaves alone.
    exempt: &'static [&'static str],
    /// What, if anything, offends at sig index `i`.
    matcher: fn(&SourceFile, usize) -> Option<String>,
    /// The finding; `{what}` is the matcher's answer.
    message: &'static str,
}

/// Solver-adjacent crates: iteration order (`L004`) and float comparison
/// and reduction order (`L009`) here reach objective values, pivoting,
/// and certificates.
const SOLVER_ADJACENT: [&str; 3] = [
    "crates/cluster/src/",
    "crates/core/src/",
    "crates/milp/src/",
];

const RULES: [Rule; 7] = [
    Rule {
        code: "L001",
        scope: &[""],
        // Measurement sites only (the engine's cycle timer, the scheduler's
        // phase and solve timers, the linter's own runtime budget); the two
        // crates below answer to the stricter rows that follow.
        exempt: &[
            "crates/sim/src/engine.rs",
            "crates/core/src/scheduler.rs",
            "crates/lint/src/bin/srclint.rs",
            "crates/telemetry/src/",
            "crates/service/src/",
        ],
        matcher: clock_read,
        message: "clock read (`{what}`) outside a measurement site breaks simulation determinism",
    },
    Rule {
        code: "L001",
        scope: &["crates/telemetry/src/"],
        exempt: &[],
        matcher: clock_mention,
        message: "process-clock access (`{what}`) inside the telemetry crate: time must be \
                  injected by callers (`advance` / `observe_wall`) so exports stay byte-identical",
    },
    Rule {
        code: "L001",
        scope: &["crates/service/src/"],
        exempt: &[],
        matcher: clock_mention,
        message: "clock access (`{what}`) inside the service crate: time is the engine's \
                  virtual clock, injected by the caller",
    },
    Rule {
        code: "L004",
        scope: &SOLVER_ADJACENT,
        exempt: &[],
        matcher: hash_collection,
        message: "hash-based collection (`{what}`) in a solver-adjacent crate: iteration order \
                  must be deterministic for reproducible models and audit replay; use the \
                  `BTree` counterpart",
    },
    Rule {
        code: "L007",
        scope: &["crates/core/src/"],
        exempt: &["crates/core/src/governor.rs"],
        matcher: ladder_rung,
        message: "`{what}` access outside `core::governor`: the rung transitions only through \
                  the governor's hysteresis state machine (read it via `Governor::rung()`, \
                  publish it via `Governor::stamp()`)",
    },
    Rule {
        code: "L009",
        scope: &SOLVER_ADJACENT,
        // The fixed-order kernels: the only file in the solver crates
        // allowed to spell a float reduction or an exact comparison, so
        // there is one summation order to audit and debug and release
        // digests agree.
        exempt: &["crates/milp/src/kernels.rs"],
        matcher: float_hazard,
        message: "float {what} in a solver crate outside the fixed-order kernels: an iterator \
                  reduction or an exact comparison written in place has its own order and its \
                  own zero test, and the digests pin one of each; route it through \
                  `crates/milp/src/kernels.rs`",
    },
    Rule {
        code: "L010",
        scope: &[""],
        // Vendored third-party API stubs (their upstream API surfaces name
        // `Arc` etc.); everything else in the workspace is product code.
        // Nothing spawns a thread, so there is no seam to exempt: exports
        // are byte-identical by seed because no interleaving exists.
        exempt: &["crates/proptest/src/", "crates/rand/src/"],
        matcher: concurrency,
        message: "concurrency primitive (`{what}`): threads, locks, atomics, and channels are \
                  allowed nowhere in product code, so same-seed runs stay byte-identical",
    },
];

/// Result of a workspace scan.
#[derive(Debug, Default)]
pub struct SrcLintReport {
    /// Findings, ordered by (file, line, code).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Total lexed tokens across all `.rs` files (for the bench's
    /// tokens/sec figure).
    pub tokens_scanned: usize,
    /// Total bytes across all `.rs` files.
    pub bytes_scanned: usize,
    /// Config-struct fields checked by `L011`. Zero when the tree has no
    /// config struct; the self-lint test asserts this is large on the real
    /// workspace, so the rule cannot silently disarm.
    pub knob_fields_checked: usize,
}

/// Scans the workspace rooted at `root` and returns all findings.
pub fn lint_workspace(root: &Path) -> io::Result<SrcLintReport> {
    let mut report = SrcLintReport::default();
    let mut files: Vec<SourceFile> = Vec::new();
    walk(root, root, &mut report, &mut files)?;
    for f in &files {
        report.tokens_scanned += f.tokens.len();
        report.bytes_scanned += f.src.len();
        lint_file(f, &mut report);
    }
    lint_dead_knobs(&files, &mut report);
    // Deterministic output order regardless of analysis phase: by file,
    // then line, then code. Contexts are `rel:line`.
    report.diagnostics.sort_by_key(|d| {
        let (file, line) = match d.context.rsplit_once(':') {
            Some((f, l)) => (f.to_string(), l.parse::<u32>().unwrap_or(0)),
            None => (d.context.clone(), 0),
        };
        (file, line, d.code)
    });
    Ok(report)
}

fn walk(
    root: &Path,
    dir: &Path,
    report: &mut SrcLintReport,
    files: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, report, files)?;
        } else if name.ends_with(".rs") {
            let rel = rel_path(root, &path);
            // Integration tests and benches may use wall clock and unwrap.
            if rel.split('/').any(|seg| seg == "tests" || seg == "benches") {
                continue;
            }
            report.files_scanned += 1;
            let bytes = fs::read(&path)?;
            files.push(SourceFile::parse(&rel, bytes));
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

fn in_any(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

/// Whether sig tokens starting at `i` spell the path `a::b`.
fn is_path2(f: &SourceFile, i: usize, a: &str, b: &str) -> bool {
    f.is_ident(i, a) && f.is_op(i + 1, "::") && f.is_ident(i + 3, b)
}

/// Whether the sig token at `i` is a method-call name: `.name(` — with
/// the receiver's dot immediately before and the argument paren after
/// (turbofish allowed between).
fn is_method_call(f: &SourceFile, i: usize, name: &str) -> bool {
    if !f.is_ident(i, name) || i == 0 || !f.is_punct(i - 1, ".") {
        return false;
    }
    f.is_punct(i + 1, "(") || f.is_op(i + 1, "::")
}

fn push(report: &mut SrcLintReport, code: &'static str, msg: String, rel: &str, line: u32) {
    report.diagnostics.push(Diagnostic::new(
        code,
        Severity::Error,
        msg,
        format!("{rel}:{line}"),
    ));
}

/// Runs every rule whose scope holds `f` over `f`'s non-test tokens.
fn lint_file(f: &SourceFile, report: &mut SrcLintReport) {
    let rel = f.rel.as_str();
    let rules: Vec<&Rule> = RULES
        .iter()
        .filter(|r| in_any(rel, r.scope) && !in_any(rel, r.exempt))
        .collect();
    for i in (0..f.sig.len()).filter(|&i| !f.test_mask[i]) {
        for rule in &rules {
            if let Some(what) = (rule.matcher)(f, i) {
                let msg = rule.message.replace("{what}", &what);
                push(report, rule.code, msg, rel, f.sig_line(i));
            }
        }
    }
}

/// `L001`, everywhere: a read of the process's clocks.
fn clock_read(f: &SourceFile, i: usize) -> Option<String> {
    if is_path2(f, i, "Instant", "now") {
        Some("Instant::now".to_string())
    } else {
        f.is_ident(i, "SystemTime")
            .then(|| "SystemTime".to_string())
    }
}

/// `L001`, in the crates whose time is handed to them: a clock read, or
/// any `std::time` path at all.
fn clock_mention(f: &SourceFile, i: usize) -> Option<String> {
    clock_read(f, i).or_else(|| is_path2(f, i, "std", "time").then(|| "std::time".to_string()))
}

/// `L004`.
fn hash_collection(f: &SourceFile, i: usize) -> Option<String> {
    let hashed = f.is_ident(i, "HashMap") || f.is_ident(i, "HashSet");
    hashed.then(|| f.sig_text(i).into_owned())
}

/// `L007`.
fn ladder_rung(f: &SourceFile, i: usize) -> Option<String> {
    f.is_ident(i, "ladder_rung")
        .then(|| "ladder_rung".to_string())
}

/// `L010`.
fn concurrency(f: &SourceFile, i: usize) -> Option<String> {
    if f.sig_kind(i) != TokenKind::Ident {
        return None;
    }
    let text = f.sig_text(i);
    if is_path2(f, i, "std", "thread") || is_path2(f, i, "std", "sync") {
        Some(format!("std::{}", f.sig_text(i + 3)))
    } else if text == "static" && f.is_ident(i + 1, "mut") {
        Some("static mut".to_string())
    } else if ["Mutex", "RwLock", "Condvar", "mpsc"].contains(&text.as_ref())
        || is_path2(f, i, "thread", "spawn")
        || (text.starts_with("Atomic") && text.len() > "Atomic".len())
    {
        Some(text.into_owned())
    } else {
        None
    }
}

/// `L009`: `==` / `!=` with a float operand on either side — a float
/// literal, or a name with a visible `: f64` / `: f32` ascription in this
/// file (field types of other files are invisible at token level, so
/// literal-adjacent comparisons are the other net) — or a `.sum()` /
/// `.product()` / `.fold()` in a float statement.
fn float_hazard(f: &SourceFile, i: usize) -> Option<String> {
    let floatish = |i: usize| -> bool {
        match f.sig.get(i) {
            Some(&raw) => match f.tokens[raw].kind {
                TokenKind::Num => num_is_float(f.tokens[raw].bytes(&f.src)),
                TokenKind::Ident => f.float_idents.contains(f.tokens[raw].text(&f.src).as_ref()),
                _ => false,
            },
            None => false,
        }
    };
    for op in ["==", "!="] {
        if f.is_op(i, op) && (i > 0 && floatish(i - 1) || floatish(i + 2)) {
            return Some(format!("`{op}` comparison"));
        }
    }
    for red in ["sum", "product", "fold"] {
        if is_method_call(f, i, red) && statement_mentions_float(f, i) {
            return Some(format!("`{red}` accumulation"));
        }
    }
    None
}

/// Whether the statement window around sig index `i` (back to the nearest
/// `;`/`{`/`}`, forward to the call's closing paren or the next `;`)
/// mentions `f64`/`f32` or a float literal.
fn statement_mentions_float(f: &SourceFile, i: usize) -> bool {
    let mut lo = i;
    while lo > 0 {
        if f.is_punct(lo, ";") || f.is_punct(lo, "{") || f.is_punct(lo, "}") {
            break;
        }
        lo -= 1;
    }
    let mut hi = i;
    let mut depth = 0i64;
    while hi < f.sig.len() {
        if f.is_punct(hi, "(") {
            depth += 1;
        } else if f.is_punct(hi, ")") {
            depth -= 1;
            if depth <= 0 {
                break;
            }
        } else if depth == 0 && f.is_punct(hi, ";") {
            break;
        }
        hi += 1;
    }
    for j in lo..=hi.min(f.sig.len().saturating_sub(1)) {
        match f.sig_kind(j) {
            TokenKind::Ident => {
                let t = f.sig_text(j);
                if t == "f64" || t == "f32" {
                    return true;
                }
            }
            TokenKind::Num => {
                let raw = f.sig[j];
                if num_is_float(f.tokens[raw].bytes(&f.src)) {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// `L011`: dead operator knobs.
fn lint_dead_knobs(files: &[SourceFile], report: &mut SrcLintReport) {
    // Every field of every config struct: (struct, field, file, line).
    let mut knobs: Vec<(&str, &str, &str, u32)> = Vec::new();
    for f in files {
        for s in &f.structs {
            if s.is_pub && (s.name.ends_with("Config") || s.name.ends_with("Policy")) {
                for (field, line) in &s.fields {
                    knobs.push((&s.name, field, &f.rel, *line));
                }
            }
        }
    }
    report.knob_fields_checked = knobs.len();
    if knobs.is_empty() {
        return; // no config structs in this tree (fixture corpora)
    }
    // One pass over all files: collect every field *read* — `.name` not
    // immediately assigned (`.name = …` is a write; `==` is a read).
    let mut reads: BTreeSet<String> = BTreeSet::new();
    for f in files {
        for i in 1..f.sig.len() {
            if f.test_mask[i] {
                continue;
            }
            if f.sig_kind(i) != TokenKind::Ident || !f.is_punct(i - 1, ".") {
                continue;
            }
            // Exclude method calls `.name(` and writes `.name = v`.
            if f.is_punct(i + 1, "(") {
                continue;
            }
            if f.is_punct(i + 1, "=") && !f.is_op(i + 1, "==") && !f.is_op(i + 1, "=>") {
                continue;
            }
            reads.insert(f.sig_text(i).into_owned());
        }
    }
    for (st, field, rel, line) in knobs {
        if !reads.contains(field) {
            push(
                report,
                "L011",
                format!(
                    "dead knob: `{st}::{field}` is never read in non-test code — the \
                     field silently ignores operator intent; wire it up or delete it"
                ),
                rel,
                line,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_tree(name: &str, files: &[(&str, &str)]) -> SrcLintReport {
        let dir = std::env::temp_dir().join(format!("srclint-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for (rel, content) in files {
            let path = dir.join(rel);
            fs::create_dir_all(path.parent().expect("parent")).expect("temp tree");
            fs::write(&path, content).expect("write fixture");
        }
        let report = lint_workspace(&dir).expect("scan");
        fs::remove_dir_all(&dir).expect("cleanup");
        report
    }

    fn count(report: &SrcLintReport, code: &str) -> usize {
        let hits = report.diagnostics.iter().filter(|d| d.code == code);
        hits.count()
    }

    #[test]
    fn l001_flags_clock_access_in_telemetry_sources() {
        let report = scan_tree(
            "l001-telemetry",
            &[(
                "crates/telemetry/src/lib.rs",
                "use std::time::Instant;\nfn now() -> Instant { Instant::now() }\n",
            )],
        );
        assert_eq!(count(&report, "L001"), 2, "import and call: {report:?}");
    }

    #[test]
    fn l001_flags_clocks_in_service_sources() {
        let report = scan_tree(
            "l001-service",
            &[(
                "crates/service/src/lib.rs",
                "use std::sync::Mutex;\n\
                 use std::time::Instant;\n\
                 fn now() -> Instant { Instant::now() }\n",
            )],
        );
        let n = count(&report, "L001");
        assert_eq!(n, 2, "import and call; the Mutex is L010's: {report:?}");
    }

    #[test]
    fn l007_flags_rung_writes_outside_the_governor() {
        let report = scan_tree(
            "l007",
            &[
                (
                    "crates/core/src/governor.rs",
                    "pub fn stamp(d: &mut D) { d.ladder_rung = 1; }\n",
                ),
                (
                    "crates/core/src/scheduler.rs",
                    "fn sneak(d: &mut D) { d.ladder_rung = 3; }\n",
                ),
            ],
        );
        let l007: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L007")
            .collect();
        assert_eq!(l007.len(), 1, "exactly the scheduler line: {l007:?}");
        assert!(l007[0].context.contains("scheduler.rs"));
    }

    #[test]
    fn needles_in_strings_and_comments_do_not_fire() {
        let report = scan_tree(
            "strings",
            &[(
                "crates/core/src/lib.rs",
                "fn f() {\n\
                     let a = \"Instant::now() and .unwrap() and HashMap\";\n\
                     // Instant::now() .unwrap() HashMap ladder_rung\n\
                     /* nested /* SystemTime std::sync Mutex */ still */\n\
                     let b = r#\"static mut AtomicUsize\"#;\n\
                     print(a, b);\n\
                 }\n",
            )],
        );
        assert!(report.diagnostics.is_empty(), "{report:?}");
    }

    #[test]
    fn l010_flags_concurrency_in_product_code_but_not_in_vendored_stubs() {
        let report = scan_tree(
            "l010",
            &[
                (
                    "crates/sim/src/worker.rs",
                    "use std::thread;\nstatic mut COUNTER: u64 = 0;\n\
                     fn go(a: &AtomicUsize) { thread::spawn(|| {}); }\n",
                ),
                (
                    "crates/rand/src/lib.rs",
                    "use std::thread;\nuse std::sync::Mutex;\n",
                ),
            ],
        );
        let l010: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L010")
            .collect();
        assert!(l010.len() >= 4, "thread/static-mut/atomic/spawn: {l010:?}");
        assert!(
            l010.iter().all(|d| d.context.contains("sim")),
            "vendored stubs are exempt: {l010:?}"
        );
    }
}
