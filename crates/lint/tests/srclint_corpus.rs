//! Golden tests for the scoped token rules (`L001`, `L004`, `L007`–`L011`)
//! over the on-disk fixture corpus in `tests/fixtures/corpus/`.
//!
//! The corpus is a miniature workspace: one violation of every L008 kind
//! plus annotated-clean twins, an event loop no scheduler cycle calls,
//! STRL and `lint` files on both sides of L008's scope,
//! L009 violations next to their designated exemption file, a knob struct
//! with a dead field, and a needle file where every banned pattern
//! appears only inside strings, doc comments, and nested block comments.

use std::path::{Path, PathBuf};

use lint::src_lint::SrcLintReport;
use lint::Diagnostic;

fn corpus() -> SrcLintReport {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/corpus");
    lint::lint_workspace(&root).expect("corpus scan")
}

fn with_code<'a>(report: &'a SrcLintReport, code: &str) -> Vec<&'a Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.code == code)
        .collect()
}

fn scan_tree(name: &str, files: &[(&str, &str)]) -> SrcLintReport {
    let dir = std::env::temp_dir().join(format!("srclint-corpus-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (rel, content) in files {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("temp tree");
        std::fs::write(&path, content).expect("write fixture");
    }
    let report = lint::lint_workspace(&dir).expect("scan");
    std::fs::remove_dir_all(&dir).expect("cleanup");
    report
}

/// The `path:line` contexts of `code`'s findings under `dir`, in order.
fn sites<'a>(report: &'a SrcLintReport, code: &str, dir: &str) -> Vec<&'a str> {
    let found = with_code(report, code).into_iter();
    found.filter_map(|d| d.context.strip_prefix(dir)).collect()
}

#[test]
fn l008_flags_every_unannotated_site_whoever_calls_it() {
    let report = corpus();
    // unwrap, index, expect, panic!, the unreachable! in a function that
    // nothing calls, and the unwrap after the test module; the annotated
    // twins (lines 39, 45) stay silent.
    let core = sites(&report, "L008", "crates/core/src/");
    let expected = ["23", "28", "33", "52", "58", "72"].map(|l| format!("scheduler.rs:{l}"));
    assert_eq!(core, expected, "{report:#?}");
    let msgs: Vec<&str> = with_code(&report, "L008")
        .iter()
        .map(|d| d.message.as_str())
        .collect();
    for kind in [
        "`panic!`",
        "`unreachable!`",
        "`unwrap()`",
        "`expect()`",
        "slice/array index",
    ] {
        assert!(msgs.iter().any(|m| m.contains(kind)), "{kind}: {msgs:?}");
    }
}

#[test]
fn l008_reaches_the_event_loop_and_an_empty_reason_vouches_for_nothing() {
    let report = corpus();
    // An index and a `panic!` in each of `on_node_down` (no annotation;
    // clean under the call graph, which never left `cycle`) and
    // `on_node_down_unreasoned` (markers without reasons); the twin with
    // both reasons is clean.
    let sim = sites(&report, "L008", "crates/sim/src/events.rs:");
    assert_eq!(sim, ["11", "12", "28", "29"], "{report:#?}");
}

#[test]
fn l008_covers_the_strl_code_the_cycle_runs() {
    let report = corpus();
    let strl = sites(&report, "L008", "crates/strl/src/");
    assert_eq!(strl, ["expr.rs:12"], "{report:#?}");
    // `strl_lint.rs` is guarded; `render.rs` beside it is not.
    let lint = sites(&report, "L008", "crates/lint/src/");
    assert_eq!(lint, ["strl_lint.rs:5"], "{report:#?}");
}

#[test]
fn a_helper_named_run_in_an_unguarded_crate_changes_no_count() {
    let report = corpus();
    let bench = report
        .diagnostics
        .iter()
        .filter(|d| d.context.contains("crates/bench/"));
    assert_eq!(bench.count(), 0, "{report:#?}");
    // Every non-test fn of the guarded fixtures, `masked` excluded — and
    // neither `run` nor `cycle` of `crates/bench`, nor `lint::render`'s.
    assert_eq!(report.fns_checked, 28, "{report:#?}");
}

#[test]
fn l009_fires_in_solver_files_but_not_the_kernel_file() {
    let report = corpus();
    let l009 = with_code(&report, "L009");
    assert_eq!(l009.len(), 2, "float `==` and float `sum`: {l009:#?}");
    assert!(l009
        .iter()
        .all(|d| d.context.contains("milp/src/solver.rs")));
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.context.contains("kernels.rs")),
        "the designated kernel file is exempt: {report:#?}"
    );
}

#[test]
fn l010_fires_everywhere_in_product_code() {
    let report = corpus();
    let l010 = with_code(&report, "L010");
    // std::thread, static mut, AtomicUsize, std::sync, thread::spawn in
    // worker.rs — plus the service crate's channel, lock and thread
    // imports, which are L010's alone (L001 is the crate's clock rule).
    let worker: Vec<_> = l010
        .iter()
        .filter(|d| d.context.contains("sim/src/worker.rs"))
        .collect();
    assert!(worker.len() >= 4, "{worker:#?}");
    let mut threaded = sites(&report, "L010", "crates/service/src/lib.rs:");
    threaded.dedup();
    assert_eq!(threaded, ["3", "4", "5"], "one code per site: {l010:#?}");
}

#[test]
fn l011_flags_the_dead_knob_only() {
    let report = corpus();
    let l011 = with_code(&report, "L011");
    assert_eq!(l011.len(), 1, "{l011:#?}");
    assert!(l011[0].message.contains("TetriSchedConfig::dead_knob"));
    assert_eq!(report.knob_fields_checked, 2);
}

#[test]
fn l001_l007_goldens() {
    let report = corpus();
    let telemetry = sites(&report, "L001", "crates/telemetry/src/lib.rs:");
    assert_eq!(telemetry, ["3", "6"], "import and call");
    let service = sites(&report, "L001", "crates/service/src/lib.rs:");
    assert_eq!(service, ["6", "9"], "import and call");
    // The solver reads no clock: its search file is not a measurement site.
    let search = sites(&report, "L001", "crates/milp/src/branch_bound.rs:");
    assert_eq!(search, ["7"], "the call; the import is not a read");
    let l007 = with_code(&report, "L007");
    assert_eq!(l007.len(), 1, "{l007:#?}");
    assert!(l007[0].context.contains("core/src/other.rs"));
}

#[test]
fn needle_file_yields_exactly_its_one_real_violation() {
    let report = corpus();
    let needles: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.context.contains("needles.rs"))
        .collect();
    assert_eq!(needles.len(), 1, "only the real unwrap: {needles:#?}");
    assert_eq!(needles[0].code, "L008");
}

#[test]
fn test_masked_code_is_exempt_but_code_after_the_test_mod_is_not() {
    let report = corpus();
    let unwraps: Vec<_> = with_code(&report, "L008")
        .into_iter()
        .filter(|d| d.context.contains("scheduler.rs") && d.message.contains("`unwrap()`"))
        .collect();
    // `pick` (line 23) and `post_test_mod` (line 72) — but never the
    // unwrap inside `mod tests`.
    assert_eq!(unwraps.len(), 2, "{unwraps:#?}");
}

#[test]
fn l001_respects_the_wall_clock_allowlist() {
    let report = scan_tree(
        "l001",
        &[
            (
                "crates/reservation/src/lib.rs",
                "use std::time::Instant;\npub fn t() -> Instant { Instant::now() }\n",
            ),
            (
                "crates/sim/src/engine.rs",
                "use std::time::Instant;\npub fn t() -> Instant { Instant::now() }\n",
            ),
        ],
    );
    let l001 = with_code(&report, "L001");
    assert!(!l001.is_empty(), "{report:#?}");
    assert!(
        l001.iter().all(|d| d.context.contains("reservation")),
        "engine.rs is allowlisted: {l001:#?}"
    );
}

#[test]
fn l004_flags_hash_collections_in_solver_crates_only() {
    let report = scan_tree(
        "l004",
        &[
            (
                "crates/milp/src/lib.rs",
                "use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>) -> usize { m.len() }\n",
            ),
            (
                "crates/bench/src/lib.rs",
                "use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>) -> usize { m.len() }\n",
            ),
        ],
    );
    let l004 = with_code(&report, "L004");
    assert!(!l004.is_empty(), "{report:#?}");
    assert!(
        l004.iter().all(|d| d.context.contains("milp")),
        "bench is not solver-adjacent: {l004:#?}"
    );
}

#[test]
fn diagnostics_are_sorted_by_file_line_code() {
    let report = corpus();
    let keys: Vec<(String, u32, &str)> = report
        .diagnostics
        .iter()
        .map(|d| {
            let (f, l) = d.context.rsplit_once(':').expect("rel:line");
            (f.to_string(), l.parse().expect("line"), d.code)
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn corpus_root_exists_and_is_scanned() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/corpus");
    assert!(Path::new(&root).is_dir());
    let report = corpus();
    assert!(report.files_scanned >= 10, "{report:#?}");
    assert!(report.tokens_scanned > 500, "{report:#?}");
}
