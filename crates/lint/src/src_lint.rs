//! Workspace invariant linting over source files (codes `L001`–`L011`).
//!
//! The simulator's reproducibility and the offline build both rest on
//! conventions rustc cannot enforce. This pass parses every workspace
//! `.rs` file into a token stream + item model ([`crate::lexer`],
//! [`crate::source_model`]) and machine-checks them. Because analysis is
//! token-based, needles inside string literals, doc comments, and nested
//! `/* */` blocks can never fire, and `#[cfg(test)]` scoping is
//! brace-matched (code *after* a test module is still analyzed).
//!
//! Per-file lints:
//!
//! - `L001` — no wall-clock reads (`Instant::now` / `SystemTime`) outside
//!   an explicit allowlist. Simulated time must come from the engine.
//! - `L002` — no `unwrap()` in scheduler/ledger/simulator hot-path crates
//!   (`cluster`, `core`, `milp`, `service`, `sim` non-test code).
//! - `L003` — no non-vendored dependency in any `Cargo.toml` (offline
//!   build; every dep must be `path` or `workspace = true`).
//! - `L004` — no hash-based collections (`HashMap`/`HashSet`) in
//!   solver-adjacent crates: iteration order feeds model order.
//! - `L005` — no process-clock access (`std::time` in any form) inside
//!   `crates/telemetry`; time is injected by callers. No allowlist.
//! - `L006` — no clock access inside `crates/service`; the service core is
//!   driven by the engine's virtual clock. No allowlist. (That it is
//!   single-threaded is `L010`'s, as everywhere.)
//! - `L007` — the degradation ladder's rung is owned by `core::governor`;
//!   no other non-test line in the core crate may mention `ladder_rung`.
//!
//! Workspace lints over the item model:
//!
//! - `L008` — **panic-reachability**: no `panic!`-family macro, `unwrap`,
//!   un-annotated `expect`, or un-annotated slice-index expression in any
//!   function reachable from the scheduler hot-path root
//!   (`Scheduler::cycle` in `crates/core/src/scheduler.rs`) through the
//!   `cluster`/`core`/`milp`/`sim` call graph. `expect` is allowed only in
//!   functions annotated `// srclint: expect-boundary: <why>`; indexing
//!   only under `// srclint: checked-indexing: <why>`. Call resolution is
//!   name-based (scoped by `Type::` qualifiers) and over-approximating:
//!   it can include extra code, never silently exclude a hot path.
//! - `L009` — **float-determinism**: in solver crates (`milp`, `core`,
//!   `cluster`), no `f64`/`f32` `==`/`!=` comparison and no float
//!   `Iterator::sum`/`product`/`fold` accumulation outside the designated
//!   fixed-order reduction kernels (`crates/milp/src/kernels.rs`). This is
//!   the contract parallel shard-merge code must obey: reductions happen
//!   in one auditable place, in one fixed order.
//! - `L010` — **concurrency-readiness**: threads, locks, atomics,
//!   channels, and `static mut` are forbidden everywhere in product code
//!   (the vendored third-party API stubs are exempt). The PR that first
//!   spawns a thread names its seam in `CONCURRENCY_SEAM_PREFIXES`.
//! - `L011` — **dead knobs**: every field of the operator-facing config
//!   structs (`TetriSchedConfig`, `PerfFaultConfig`, `AdmissionPolicy`)
//!   must be *read* (`.field` access that is not an assignment) somewhere
//!   in non-test code. A knob that is only ever written is dead: it
//!   silently ignores operator intent.
//!
//! Test items (brace-matched `#[cfg(test)]` / `#[test]`), `tests/` and
//! `benches/` trees are exempt from the `.rs` rules. The scan is offline:
//! no rustc, no network.

use std::fs;
use std::io;
use std::path::Path;

use tetrisched_milp::lint::{Diagnostic, Severity};

use crate::lexer::{num_is_float, TokenKind};
use crate::source_model::{is_keyword, FnItem, SourceFile};

/// Files (workspace-relative, `/`-separated) allowed to read the wall
/// clock: solver time budgets, engine cycle-latency metrics, and the
/// linter's own runtime-budget check.
const WALL_CLOCK_ALLOWLIST: [&str; 4] = [
    "crates/milp/src/branch_bound.rs",
    "crates/sim/src/engine.rs",
    "crates/core/src/scheduler.rs",
    "crates/lint/src/bin/srclint.rs",
];

/// Crate subtrees whose non-test code must not call `unwrap()`.
const NO_UNWRAP_PREFIXES: [&str; 5] = [
    "crates/cluster/src/",
    "crates/core/src/",
    "crates/milp/src/",
    "crates/service/src/",
    "crates/sim/src/",
];

/// Files allowed to keep `unwrap()` in hot paths. Kept honest and empty
/// after the PR-3 burn-down.
const UNWRAP_ALLOWLIST: [&str; 0] = [];

/// Crate subtrees whose non-test code must not use hash-based collections.
const NO_HASH_COLLECTION_PREFIXES: [&str; 3] = [
    "crates/cluster/src/",
    "crates/core/src/",
    "crates/milp/src/",
];

/// Files allowed to keep hash collections in solver-adjacent crates. Kept
/// honest and empty after the PR-4 burn-down.
const HASH_COLLECTION_ALLOWLIST: [&str; 0] = [];

/// Crate subtrees that must never touch process clocks at all (`L005`).
const CLOCK_INJECTED_PREFIXES: [&str; 1] = ["crates/telemetry/src/"];

/// Crate subtrees whose only clock is the engine's virtual one (`L006`).
const VIRTUAL_CLOCK_PREFIXES: [&str; 1] = ["crates/service/src/"];

/// The crate subtree `L007` guards and the single file inside it allowed
/// to touch the rung.
const LADDER_GUARDED_PREFIX: &str = "crates/core/src/";
const LADDER_OWNER_FILE: &str = "crates/core/src/governor.rs";

/// The hot-path root of the `L008` call graph: the per-cycle scheduler
/// entry point every solve, placement, and ledger mutation hangs off.
const HOT_PATH_ROOT_FILE: &str = "crates/core/src/scheduler.rs";
const HOT_PATH_ROOT_FN: &str = "cycle";

/// Crates whose call graph `L008` traverses.
const HOT_PATH_CRATES: [&str; 4] = [
    "crates/cluster/src/",
    "crates/core/src/",
    "crates/milp/src/",
    "crates/sim/src/",
];

/// Macros that unconditionally panic when reached (`L008`).
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Solver crates `L009` guards: float comparison and reduction order here
/// reaches objective values, pivoting, and certificates.
const FLOAT_DETERMINISM_PREFIXES: [&str; 3] = [
    "crates/cluster/src/",
    "crates/core/src/",
    "crates/milp/src/",
];

/// The designated fixed-order reduction kernels: the only files in the
/// solver crates allowed to spell a float reduction or comparison. This
/// is the seam the decomposed parallel solver's shard-merge code must go
/// through.
const FIXED_ORDER_KERNEL_FILES: [&str; 1] = ["crates/milp/src/kernels.rs"];

/// The concurrency seam: product subtrees allowed to name threads, locks,
/// or atomics (`L010`). Kept honest and empty: nothing spawns a thread, and
/// the PR that first does gives its worker pool one auditable home here.
const CONCURRENCY_SEAM_PREFIXES: [&str; 0] = [];

/// Vendored third-party API stubs, exempt from `L010` (their upstream
/// API surfaces name `Arc` etc.); everything else in the workspace is
/// product code and must stay thread-free.
const VENDORED_STUB_PREFIXES: [&str; 2] = ["crates/proptest/src/", "crates/rand/src/"];

/// Operator-facing knob structs whose fields `L011` requires to be read.
const KNOB_STRUCTS: [&str; 3] = ["TetriSchedConfig", "PerfFaultConfig", "AdmissionPolicy"];

/// Result of a workspace scan.
#[derive(Debug, Default)]
pub struct SrcLintReport {
    /// Findings, ordered by (file, line, code).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned (`.rs` + `Cargo.toml`).
    pub files_scanned: usize,
    /// Total lexed tokens across all `.rs` files (for the bench's
    /// tokens/sec figure).
    pub tokens_scanned: usize,
    /// Total bytes across all `.rs` files.
    pub bytes_scanned: usize,
    /// Functions in the `L008` reachable set. Zero when the tree has no
    /// hot-path root (e.g. fixture corpora without a scheduler); the
    /// self-lint test asserts this is large on the real workspace, so the
    /// lint cannot silently disarm.
    pub hot_path_fns: usize,
    /// Knob-struct fields checked by `L011` (same honesty guard).
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
    lint_panic_reachability(&files, &mut report);
    lint_float_determinism(&files, &mut report);
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
        } else if name == "Cargo.toml" {
            report.files_scanned += 1;
            lint_manifest(root, &path, report)?;
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

/// Whether the sig token at `i` is the identifier `name`.
fn is_ident(f: &SourceFile, i: usize, name: &str) -> bool {
    match f.sig.get(i) {
        Some(&raw) => {
            f.tokens[raw].kind == TokenKind::Ident && f.tokens[raw].bytes(&f.src) == name.as_bytes()
        }
        None => false,
    }
}

/// Whether sig tokens starting at `i` spell the path `a::b`.
fn is_path2(f: &SourceFile, i: usize, a: &str, b: &str) -> bool {
    is_ident(f, i, a) && f.is_op(i + 1, "::") && is_ident(f, i + 3, b)
}

/// Whether the sig token at `i` is a method-call name: `.name(` — with
/// the receiver's dot immediately before and the argument paren after
/// (turbofish allowed between).
fn is_method_call(f: &SourceFile, i: usize, name: &str) -> bool {
    if !is_ident(f, i, name) || i == 0 || !f.is_punct(i - 1, ".") {
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

/// All per-file token lints (`L001`/`L002`/`L004`–`L007`, `L010`).
fn lint_file(f: &SourceFile, report: &mut SrcLintReport) {
    let rel = f.rel.as_str();
    let wall_clock_allowed = WALL_CLOCK_ALLOWLIST.contains(&rel);
    let unwrap_checked = in_any(rel, &NO_UNWRAP_PREFIXES) && !UNWRAP_ALLOWLIST.contains(&rel);
    let hash_checked =
        in_any(rel, &NO_HASH_COLLECTION_PREFIXES) && !HASH_COLLECTION_ALLOWLIST.contains(&rel);
    let clock_injected = in_any(rel, &CLOCK_INJECTED_PREFIXES);
    let virtual_clock = in_any(rel, &VIRTUAL_CLOCK_PREFIXES);
    let ladder_guarded = rel.starts_with(LADDER_GUARDED_PREFIX) && rel != LADDER_OWNER_FILE;
    let concurrency_checked =
        !in_any(rel, &CONCURRENCY_SEAM_PREFIXES) && !in_any(rel, &VENDORED_STUB_PREFIXES);

    let wall_clock_needles: [(&str, &str); 2] = [("Instant", "now"), ("SystemTime", "")];
    let threading_idents = ["Mutex", "RwLock", "Condvar", "mpsc"];

    for i in 0..f.sig.len() {
        if f.test_mask[i] {
            continue;
        }
        let kind = f.sig_kind(i);
        if kind != TokenKind::Ident {
            continue;
        }
        let text = f.sig_text(i);
        let line = f.sig_line(i);
        let clockish = (text == "Instant" && f.is_op(i + 1, "::") && is_ident(f, i + 3, "now"))
            || text == "SystemTime"
            || is_path2(f, i, "std", "time");
        let _ = wall_clock_needles; // the tuple list documents the needles
        if clockish {
            let what = if text == "std" {
                "std::time"
            } else if text == "Instant" {
                "Instant::now"
            } else {
                "SystemTime"
            };
            if clock_injected {
                push(
                    report,
                    "L005",
                    format!(
                        "process-clock access (`{what}`) inside the telemetry crate: time \
                         must be injected by callers (`advance` / `observe_wall`) so \
                         exports stay byte-identical"
                    ),
                    rel,
                    line,
                );
            } else if virtual_clock {
                push(
                    report,
                    "L006",
                    format!(
                        "clock access (`{what}`) inside the service crate: time is the \
                         engine's virtual clock, injected by the caller"
                    ),
                    rel,
                    line,
                );
            } else if !wall_clock_allowed && (text != "std" || !clock_injected) {
                // `std::time` mentions outside the injected/single-threaded
                // crates are only L001 when they name a clock source; plain
                // `std::time::Duration` plumbing is fine.
                if text != "std" {
                    push(
                        report,
                        "L001",
                        format!(
                            "wall-clock read (`{what}`) outside the allowlist breaks \
                             simulation determinism"
                        ),
                        rel,
                        line,
                    );
                }
            }
        }
        if unwrap_checked && is_method_call(f, i, "unwrap") {
            push(
                report,
                "L002",
                "`unwrap()` in a scheduler/ledger hot path; use `expect()` with an \
                 invariant message or propagate a `Result`"
                    .to_string(),
                rel,
                line,
            );
        }
        if hash_checked && (text == "HashMap" || text == "HashSet") {
            push(
                report,
                "L004",
                format!(
                    "hash-based collection (`{text}`) in a solver-adjacent crate: \
                     iteration order must be deterministic for reproducible models and \
                     audit replay; use `BTree{}`",
                    &text[4..]
                ),
                rel,
                line,
            );
        }
        if ladder_guarded && text == "ladder_rung" {
            push(
                report,
                "L007",
                "ladder-rung access outside `core::governor`: the rung transitions only \
                 through the governor's hysteresis state machine (read it via \
                 `Governor::rung()`, publish it via `Governor::stamp()`)"
                    .to_string(),
                rel,
                line,
            );
        }
        if concurrency_checked {
            let concurrent = threading_idents.contains(&text.as_ref())
                || is_path2(f, i, "std", "thread")
                || is_path2(f, i, "std", "sync")
                || is_path2(f, i, "thread", "spawn")
                || (text.starts_with("Atomic") && text.len() > "Atomic".len())
                || (text == "static" && is_ident(f, i + 1, "mut"));
            if concurrent {
                let what = if text == "static" {
                    "static mut".to_string()
                } else if text == "std" {
                    format!("std::{}", f.sig_text(i + 3))
                } else {
                    text.into_owned()
                };
                push(
                    report,
                    "L010",
                    format!(
                        "concurrency primitive (`{what}`): threads, locks, atomics, and \
                         channels are allowed nowhere in product code, so same-seed runs \
                         stay byte-identical; the first worker pool names its seam in \
                         `CONCURRENCY_SEAM_PREFIXES`"
                    ),
                    rel,
                    line,
                );
            }
        }
    }
}

/// `L008`: the panic-reachability call graph.
fn lint_panic_reachability(files: &[SourceFile], report: &mut SrcLintReport) {
    // Index every non-test fn in the hot-path crates.
    struct Entry<'a> {
        file: &'a SourceFile,
        item: &'a FnItem,
        /// File stem, for `module::fn()` qualifier resolution.
        stem: String,
        crate_prefix: &'a str,
    }
    let mut fns: Vec<Entry<'_>> = Vec::new();
    for f in files {
        let Some(prefix) = HOT_PATH_CRATES.iter().find(|p| f.rel.starts_with(**p)) else {
            continue;
        };
        let stem = f
            .rel
            .rsplit('/')
            .next()
            .unwrap_or("")
            .trim_end_matches(".rs")
            .to_string();
        for item in &f.fns {
            if item.is_test {
                continue;
            }
            fns.push(Entry {
                file: f,
                item,
                stem: stem.clone(),
                crate_prefix: prefix,
            });
        }
    }
    // Name index: callee name -> candidate fn ids.
    let mut by_name: std::collections::BTreeMap<&str, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (id, e) in fns.iter().enumerate() {
        by_name.entry(e.item.name.as_str()).or_default().push(id);
    }
    // Roots: the scheduler cycle entry point(s).
    let roots: Vec<usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, e)| e.file.rel == HOT_PATH_ROOT_FILE && e.item.name == HOT_PATH_ROOT_FN)
        .map(|(id, _)| id)
        .collect();
    if roots.is_empty() {
        // No scheduler in this tree (fixture corpora): the lint is
        // vacuous, and `hot_path_fns` stays 0 so the self-lint test can
        // tell "nothing to check" from "checked and clean".
        return;
    }
    // BFS over name-resolved edges, keeping a predecessor for diagnostics.
    let mut pred: Vec<Option<usize>> = vec![None; fns.len()];
    let mut seen: Vec<bool> = vec![false; fns.len()];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for &r in &roots {
        seen[r] = true;
        queue.push_back(r);
    }
    while let Some(id) = queue.pop_front() {
        let caller = &fns[id];
        for call in &caller.item.calls {
            let Some(cands) = by_name.get(call.name.as_str()) else {
                continue;
            };
            for &cand in cands {
                let callee = &fns[cand];
                let matches = match call.qualifier.as_deref() {
                    Some("Self") | Some("self") => {
                        callee.item.impl_type == caller.item.impl_type
                            && caller.item.impl_type.is_some()
                    }
                    Some(q) => {
                        callee.item.impl_type.as_deref() == Some(q)
                            || callee.stem == q
                            || callee.item.module.last().map(String::as_str) == Some(q)
                    }
                    None if call.is_method => callee.item.impl_type.is_some(),
                    // Bare call: free fns, preferring the caller's crate.
                    None => {
                        callee.item.impl_type.is_none()
                            && callee.crate_prefix == caller.crate_prefix
                    }
                };
                if matches && !seen[cand] {
                    seen[cand] = true;
                    pred[cand] = Some(id);
                    queue.push_back(cand);
                }
            }
        }
    }
    report.hot_path_fns = seen.iter().filter(|s| **s).count();
    // Report panic sources in every reachable fn.
    let chain = |mut id: usize| -> String {
        let mut parts = vec![fns[id].item.qualified()];
        while let Some(p) = pred[id] {
            parts.push(fns[p].item.qualified());
            id = p;
            if parts.len() > 8 {
                parts.push("…".to_string());
                break;
            }
        }
        parts.reverse();
        parts.join(" → ")
    };
    for (id, e) in fns.iter().enumerate() {
        if !seen[id] {
            continue;
        }
        let via = chain(id);
        let rel = e.file.rel.as_str();
        for (mac, line) in &e.item.macros {
            if PANIC_MACROS.contains(&mac.as_str()) {
                push(
                    report,
                    "L008",
                    format!(
                        "`{mac}!` is reachable from the scheduler hot path (via {via}): \
                         a panic here kills the whole scheduling cycle; propagate a \
                         typed error instead"
                    ),
                    rel,
                    *line,
                );
            }
        }
        for line in &e.item.unwrap_sites {
            push(
                report,
                "L008",
                format!(
                    "`unwrap()` is reachable from the scheduler hot path (via {via}); \
                     propagate a `Result` or use an annotated boundary"
                ),
                rel,
                *line,
            );
        }
        if !e.item.has_annotation("expect-boundary") {
            for line in &e.item.expect_sites {
                push(
                    report,
                    "L008",
                    format!(
                        "`expect()` in hot-path fn `{}` (via {via}) without a \
                         `// srclint: expect-boundary: <why>` annotation: either \
                         propagate the error or annotate the invariant at the boundary",
                        e.item.qualified()
                    ),
                    rel,
                    *line,
                );
            }
        }
        if !e.item.has_annotation("checked-indexing") {
            for line in &e.item.index_sites {
                push(
                    report,
                    "L008",
                    format!(
                        "slice/array index in hot-path fn `{}` (via {via}) without a \
                         `// srclint: checked-indexing: <why>` annotation: indexing \
                         panics on out-of-bounds; use `get()` or annotate why bounds \
                         hold",
                        e.item.qualified()
                    ),
                    rel,
                    *line,
                );
            }
        }
    }
}

/// `L009`: float-determinism in the solver crates.
fn lint_float_determinism(files: &[SourceFile], report: &mut SrcLintReport) {
    for f in files {
        if !in_any(&f.rel, &FLOAT_DETERMINISM_PREFIXES)
            || FIXED_ORDER_KERNEL_FILES.contains(&f.rel.as_str())
        {
            continue;
        }
        // Idents with a visible `: f64` / `: f32` ascription in this file
        // (params and typed lets); field types are invisible at token
        // level, so literal-adjacent comparisons are the other net.
        let mut float_idents: std::collections::BTreeSet<String> =
            std::collections::BTreeSet::new();
        for i in 0..f.sig.len() {
            if f.sig_kind(i) == TokenKind::Ident
                && f.is_punct(i + 1, ":")
                && !f.is_op(i + 1, "::")
                && (is_ident(f, i + 2, "f64") || is_ident(f, i + 2, "f32"))
            {
                let t = f.sig_text(i).into_owned();
                if !is_keyword(&t) {
                    float_idents.insert(t);
                }
            }
        }
        let floatish = |i: usize| -> bool {
            match f.sig.get(i) {
                Some(&raw) => match f.tokens[raw].kind {
                    TokenKind::Num => num_is_float(f.tokens[raw].bytes(&f.src)),
                    TokenKind::Ident => {
                        let t = f.tokens[raw].text(&f.src);
                        float_idents.contains(t.as_ref())
                    }
                    _ => false,
                },
                None => false,
            }
        };
        for i in 0..f.sig.len() {
            if f.test_mask[i] {
                continue;
            }
            // `==` / `!=` with a float operand on either side.
            for op in ["==", "!="] {
                if f.is_op(i, op) && (i > 0 && floatish(i - 1) || floatish(i + 2)) {
                    push(
                        report,
                        "L009",
                        format!(
                            "float `{op}` comparison in a solver crate: exact float \
                             equality is not preserved across reduction orders; use \
                             the fixed-order kernels' tolerance/zero tests \
                             (`crates/milp/src/kernels.rs`)"
                        ),
                        &f.rel,
                        f.sig_line(i),
                    );
                }
            }
            // `.sum()` / `.product()` / `.fold()` in a float statement.
            for red in ["sum", "product", "fold"] {
                if is_method_call(f, i, red) && statement_mentions_float(f, i) {
                    push(
                        report,
                        "L009",
                        format!(
                            "float `{red}` accumulation in a solver crate outside the \
                             designated fixed-order reduction kernels: iterator \
                             reductions pin no order once shards solve in parallel; \
                             route through `crates/milp/src/kernels.rs`"
                        ),
                        &f.rel,
                        f.sig_line(i),
                    );
                }
            }
        }
    }
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
    // Collect the knob structs' fields.
    let mut knobs: Vec<(String, String, String, u32)> = Vec::new(); // (struct, field, file, line)
    for f in files {
        for s in &f.structs {
            if KNOB_STRUCTS.contains(&s.name.as_str()) {
                for (field, line) in &s.fields {
                    knobs.push((s.name.clone(), field.clone(), f.rel.clone(), *line));
                }
            }
        }
    }
    if knobs.is_empty() {
        return; // no knob structs in this tree (fixture corpora)
    }
    report.knob_fields_checked = knobs.len();
    // One pass over all files: collect every field *read* — `.name` not
    // immediately assigned (`.name = …` is a write; `==` is a read).
    let mut reads: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
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
        if !reads.contains(&field) {
            push(
                report,
                "L011",
                format!(
                    "dead knob: `{st}::{field}` is never read in non-test code — the \
                     field silently ignores operator intent; wire it up or delete it"
                ),
                &rel,
                line,
            );
        }
    }
}

/// Whether a manifest section header declares a dependency table.
fn is_dep_section(header: &str) -> bool {
    let h = header.trim_start_matches('[').trim_end_matches(']');
    h == "dependencies"
        || h == "dev-dependencies"
        || h == "build-dependencies"
        || h == "workspace.dependencies"
        || (h.starts_with("target.") && h.ends_with(".dependencies"))
}

/// A `[dependencies.foo]`-style subsection header; returns the dep name.
fn dep_subsection(header: &str) -> Option<&str> {
    let h = header.trim_start_matches('[').trim_end_matches(']');
    for prefix in [
        "dependencies.",
        "dev-dependencies.",
        "build-dependencies.",
        "workspace.dependencies.",
    ] {
        if let Some(name) = h.strip_prefix(prefix) {
            return Some(name);
        }
    }
    None
}

/// Whether an inline dependency value is vendored (a `path` dependency or
/// a `workspace = true` inheritance).
fn value_is_vendored(value: &str) -> bool {
    value.contains("path") || value.contains("workspace")
}

fn lint_manifest(root: &Path, path: &Path, report: &mut SrcLintReport) -> io::Result<()> {
    let rel = rel_path(root, path);
    let text = fs::read_to_string(path)?;

    // (name, header line, any line proved it vendored) for the open
    // `[dependencies.foo]` subsection, if any.
    let mut open_subsection: Option<(String, usize, bool)> = None;
    let mut in_dep_table = false;

    let flush = |sub: &mut Option<(String, usize, bool)>, diags: &mut Vec<Diagnostic>| {
        if let Some((name, lineno, vendored)) = sub.take() {
            if !vendored {
                diags.push(Diagnostic::new(
                    "L003",
                    Severity::Error,
                    format!(
                        "dependency `{name}` is not vendored: declare it with a \
                         `path` or `workspace = true` (no crates.io access)"
                    ),
                    format!("{rel}:{lineno}"),
                ));
            }
        }
    };

    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        let lineno = i + 1;
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed.starts_with('[') {
            flush(&mut open_subsection, &mut report.diagnostics);
            if let Some(name) = dep_subsection(trimmed) {
                in_dep_table = false;
                open_subsection = Some((name.to_string(), lineno, false));
            } else {
                in_dep_table = is_dep_section(trimmed);
            }
            continue;
        }
        if let Some((_, _, vendored)) = &mut open_subsection {
            if trimmed.starts_with("path") || trimmed.contains("workspace = true") {
                *vendored = true;
            }
            continue;
        }
        if in_dep_table {
            if let Some((key, value)) = trimmed.split_once('=') {
                let key = key.trim();
                // `foo.workspace = true` is already vendored by inheritance.
                let inherits = key.ends_with(".workspace");
                if !inherits && !value_is_vendored(value) {
                    let name = key.split('.').next().unwrap_or(key);
                    report.diagnostics.push(Diagnostic::new(
                        "L003",
                        Severity::Error,
                        format!(
                            "dependency `{name}` is not vendored: declare it with a \
                             `path` or `workspace = true` (no crates.io access)"
                        ),
                        format!("{rel}:{lineno}"),
                    ));
                }
            }
        }
    }
    flush(&mut open_subsection, &mut report.diagnostics);
    Ok(())
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

    fn codes(report: &SrcLintReport) -> Vec<&str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn dep_section_recognition() {
        assert!(is_dep_section("[dependencies]"));
        assert!(is_dep_section("[dev-dependencies]"));
        assert!(is_dep_section("[workspace.dependencies]"));
        assert!(is_dep_section("[target.'cfg(unix)'.dependencies]"));
        assert!(!is_dep_section("[package]"));
        assert!(!is_dep_section("[profile.release]"));
    }

    #[test]
    fn subsection_recognition() {
        assert_eq!(dep_subsection("[dependencies.serde]"), Some("serde"));
        assert_eq!(dep_subsection("[dev-dependencies.rand]"), Some("rand"));
        assert_eq!(dep_subsection("[package]"), None);
        assert_eq!(dep_subsection("[dependencies]"), None);
    }

    #[test]
    fn vendored_values() {
        assert!(value_is_vendored(" { path = \"crates/rand\" }"));
        assert!(value_is_vendored(" { workspace = true }"));
        assert!(!value_is_vendored(" \"1.0\""));
        assert!(!value_is_vendored(
            " { version = \"1.0\", features = [\"x\"] }"
        ));
    }

    #[test]
    fn l005_flags_clock_access_in_telemetry_sources() {
        let report = scan_tree(
            "l005",
            &[(
                "crates/telemetry/src/lib.rs",
                "use std::time::Instant;\nfn now() -> Instant { Instant::now() }\n",
            )],
        );
        let n = codes(&report).iter().filter(|c| **c == "L005").count();
        assert!(n >= 2, "expected L005 on import and call: {report:?}");
    }

    #[test]
    fn l006_flags_clocks_in_service_sources() {
        let report = scan_tree(
            "l006",
            &[(
                "crates/service/src/lib.rs",
                "use std::sync::Mutex;\n\
                 use std::time::Instant;\n\
                 fn now() -> Instant { Instant::now() }\n",
            )],
        );
        let n = codes(&report).iter().filter(|c| **c == "L006").count();
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
    fn l002_covers_the_service_crate() {
        assert!(NO_UNWRAP_PREFIXES.contains(&"crates/service/src/"));
        let report = scan_tree(
            "l002-svc",
            &[(
                "crates/service/src/lib.rs",
                "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
            )],
        );
        assert!(codes(&report).contains(&"L002"), "{report:?}");
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
