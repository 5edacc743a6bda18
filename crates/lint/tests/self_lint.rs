//! Self-application: `srclint` must run clean on the workspace that
//! ships it — including this lint crate itself — and must do so inside
//! its runtime budget. The honesty guards assert the workspace scan
//! actually armed the panic rule and the knob pass (a tree without the
//! guarded crates or config structs reports zero for both).

use std::path::PathBuf;
use std::time::Instant;

#[test]
fn srclint_is_clean_on_its_own_workspace() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let t0 = Instant::now();
    let report = lint::lint_workspace(&root).expect("workspace scan");
    let elapsed = t0.elapsed();

    assert!(
        report.diagnostics.is_empty(),
        "srclint findings on its own workspace:\n{}",
        lint::render_pretty(&report.diagnostics)
    );
    // Honesty guards: the scan must have found the guarded crates and the
    // config structs — otherwise "clean" would mean "disarmed".
    assert!(
        report.fns_checked >= 400,
        "L008 checked only {} functions",
        report.fns_checked
    );
    assert!(
        report.knob_fields_checked >= 60,
        "L011 checked only {} knob fields",
        report.knob_fields_checked
    );
    assert!(
        report.files_scanned >= 80,
        "only {} files scanned",
        report.files_scanned
    );
    assert!(report.tokens_scanned > 100_000, "{}", report.tokens_scanned);

    // Runtime budget: <2s is asserted in CI against the release binary;
    // here allow debug-build headroom while still catching regressions
    // that would blow the release budget.
    let budget = if cfg!(debug_assertions) { 20.0 } else { 2.0 };
    assert!(
        elapsed.as_secs_f64() < budget,
        "workspace scan took {:.2}s (budget {budget}s)",
        elapsed.as_secs_f64()
    );
}
