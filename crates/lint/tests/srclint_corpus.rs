//! Golden tests for the scoped token rules (`L007`, `L009`, `L011`) over
//! the on-disk fixture corpus in `tests/fixtures/corpus/`.
//!
//! The corpus is a miniature workspace: a rung write outside the governor,
//! L009 violations next to their designated exemption file, a knob struct
//! with a dead field, float comparisons on both sides of a test module, and
//! a needle file where every banned pattern appears only inside strings,
//! doc comments, and nested block comments.

use std::path::{Path, PathBuf};

use lint::src_lint::SrcLintReport;
use tetrisched_milp::Diagnostic;

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

/// The `path:line` contexts of `code`'s findings under `dir`, in order.
fn sites<'a>(report: &'a SrcLintReport, code: &str, dir: &str) -> Vec<&'a str> {
    let found = with_code(report, code).into_iter();
    found.filter_map(|d| d.context.strip_prefix(dir)).collect()
}

#[test]
fn l009_fires_in_solver_files_but_not_the_kernel_file() {
    let report = corpus();
    let l009 = sites(&report, "L009", "crates/milp/src/solver.rs:");
    assert_eq!(l009, ["6", "11"], "float `==` and float `sum`: {report:#?}");
    // And nowhere else: solver.rs 2, scheduler.rs 2, needles.rs 1.
    assert_eq!(with_code(&report, "L009").len(), 5, "{report:#?}");
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.context.contains("kernels.rs")),
        "the designated kernel file is exempt: {report:#?}"
    );
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
fn l007_golden() {
    let report = corpus();
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
    assert_eq!(needles.len(), 1, "only the real comparison: {needles:#?}");
    assert_eq!(needles[0].code, "L009");
}

#[test]
fn test_masked_code_is_exempt_but_code_after_the_test_mod_is_not() {
    let report = corpus();
    let compared = sites(&report, "L009", "crates/core/src/scheduler.rs:");
    // `pick` (line 6) and `post_test_mod` (line 20) — but never the
    // comparison inside `mod tests`.
    assert_eq!(compared, ["6", "20"], "{report:#?}");
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
    assert!(report.files_scanned >= 7, "{report:#?}");
    assert!(report.tokens_scanned > 500, "{report:#?}");
}
