//! Golden tests: one minimal offending artifact per diagnostic code.
//!
//! Every code the analysis engines can emit (`S001`–`S009` for STRL,
//! `M001`–`M007` for MILP, `L001`/`L004` for source invariants,
//! `C001`–`C004` for solve certification) is pinned here with the
//! smallest input that triggers it, so a behavior change in any pass
//! shows up as a golden diff. Error-severity MILP findings must
//! additionally carry a certificate that re-verifies against the model.

use std::fs;
use std::path::PathBuf;

use lint::{lint_expr, lint_workspace, validate_translation, StrlLintContext};
use tetrisched_cluster::{NodeId, NodeSet};
use tetrisched_milp::lint::has_errors;
use tetrisched_milp::{
    certify_solution, lint_model, Diagnostic, Model, Sense, Severity, Solution, SolveStatus,
    SolverConfig, VarKind,
};
use tetrisched_strl::StrlExpr;

fn set(ids: &[u32]) -> NodeSet {
    NodeSet::from_ids(8, ids.iter().map(|&i| NodeId(i)))
}

fn ctx() -> StrlLintContext {
    StrlLintContext {
        now: 10,
        window_end: Some(100),
    }
}

/// Codes (with severities) of a lint result, for compact assertions.
fn codes(diags: &[Diagnostic]) -> Vec<(&'static str, Severity)> {
    diags.iter().map(|d| (d.code, d.severity)).collect()
}

// ---- STRL codes -------------------------------------------------------

#[test]
fn s001_empty_set_is_error() {
    let e = StrlExpr::nck(set(&[]), 1, 10, 5, 1.0);
    assert_eq!(codes(&lint_expr(&e, &ctx())), [("S001", Severity::Error)]);
}

#[test]
fn s002_oversubscribed_nck_is_error_lnck_warning() {
    let e = StrlExpr::nck(set(&[0, 1]), 3, 10, 5, 1.0);
    assert_eq!(codes(&lint_expr(&e, &ctx())), [("S002", Severity::Error)]);
    let e = StrlExpr::lnck(set(&[0, 1]), 3, 10, 5, 1.0);
    assert_eq!(codes(&lint_expr(&e, &ctx())), [("S002", Severity::Warning)]);
}

#[test]
fn s003_zero_duration_is_warning() {
    let e = StrlExpr::nck(set(&[0, 1]), 1, 10, 0, 1.0);
    assert_eq!(codes(&lint_expr(&e, &ctx())), [("S003", Severity::Warning)]);
}

#[test]
fn s004_start_outside_window_is_error() {
    let past = StrlExpr::nck(set(&[0, 1]), 1, 5, 5, 1.0);
    assert_eq!(
        codes(&lint_expr(&past, &ctx())),
        [("S004", Severity::Error)]
    );
    let beyond = StrlExpr::nck(set(&[0, 1]), 1, 100, 5, 1.0);
    assert_eq!(
        codes(&lint_expr(&beyond, &ctx())),
        [("S004", Severity::Error)]
    );
    // Without a known window end, only the past is checkable.
    let no_window = StrlLintContext {
        now: 10,
        window_end: None,
    };
    assert!(lint_expr(&beyond, &no_window).is_empty());
}

#[test]
fn s005_dead_max_branch_is_warning() {
    let e = StrlExpr::max([
        StrlExpr::nck(set(&[0, 1]), 1, 10, 5, 4.0),
        StrlExpr::scale(0.0, StrlExpr::nck(set(&[0, 1]), 1, 10, 5, 4.0)),
    ]);
    let diags = lint_expr(&e, &ctx());
    assert!(diags.iter().any(|d| d.code == "S005"));
    assert!(!has_errors(&diags));
}

#[test]
fn s006_non_positive_value_is_warning() {
    let e = StrlExpr::nck(set(&[0, 1]), 1, 10, 5, -1.0);
    assert_eq!(codes(&lint_expr(&e, &ctx())), [("S006", Severity::Warning)]);
    let e = StrlExpr::scale(0.0, StrlExpr::nck(set(&[0, 1]), 1, 10, 5, 1.0));
    assert_eq!(codes(&lint_expr(&e, &ctx())), [("S006", Severity::Warning)]);
}

#[test]
fn s007_barrier_misuse_is_warning() {
    let healthy_child = || StrlExpr::nck(set(&[0, 1]), 1, 10, 5, 4.0);
    let e = StrlExpr::barrier(0.0, healthy_child());
    assert_eq!(codes(&lint_expr(&e, &ctx())), [("S007", Severity::Warning)]);
    let e = StrlExpr::barrier(10.0, healthy_child());
    assert_eq!(codes(&lint_expr(&e, &ctx())), [("S007", Severity::Warning)]);
    // A reachable barrier is clean.
    let e = StrlExpr::barrier(4.0, healthy_child());
    assert!(lint_expr(&e, &ctx()).is_empty());
}

#[test]
fn s008_empty_operator_is_warning() {
    for e in [
        StrlExpr::max([]),
        StrlExpr::min([]),
        StrlExpr::sum(Vec::new()),
    ] {
        assert_eq!(codes(&lint_expr(&e, &ctx())), [("S008", Severity::Warning)]);
    }
}

#[test]
fn s009_zero_k_is_error() {
    let e = StrlExpr::nck(set(&[0, 1]), 0, 10, 5, 1.0);
    assert_eq!(codes(&lint_expr(&e, &ctx())), [("S009", Severity::Error)]);
}

// ---- MILP codes -------------------------------------------------------

#[test]
fn m001_dangling_variable_is_warning() {
    let mut m = Model::maximize();
    m.add_var("orphan", VarKind::Continuous, 0.0, 1.0, 0.0);
    assert_eq!(codes(&lint_model(&m)), [("M001", Severity::Warning)]);
    // Objective weight or a constraint reference clears it.
    let mut m = Model::maximize();
    m.add_var("paid", VarKind::Continuous, 0.0, 1.0, 2.0);
    assert!(lint_model(&m).is_empty());
}

#[test]
fn m002_vacuous_row_is_warning() {
    let mut m = Model::maximize();
    m.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
    m.add_constraint("empty", [], Sense::Le, 0.0);
    assert_eq!(codes(&lint_model(&m)), [("M002", Severity::Warning)]);
}

#[test]
fn m003_duplicate_rows_are_warning() {
    let mut m = Model::maximize();
    let x = m.add_var("x", VarKind::Continuous, 0.0, 5.0, 1.0);
    m.add_constraint("cap_a", [(x, 1.0)], Sense::Le, 4.0);
    m.add_constraint("cap_b", [(x, 1.0)], Sense::Le, 2.0);
    let diags = lint_model(&m);
    assert_eq!(codes(&diags), [("M003", Severity::Warning)]);
    assert!(diags[0].message.contains("cap_a"));
}

#[test]
fn m004_crossed_bounds_certificate_verifies() {
    let mut m = Model::maximize();
    let x = m.add_var("x", VarKind::Continuous, 2.0, 1.0, 1.0);
    m.add_constraint("touch", [(x, 1.0)], Sense::Le, 10.0);
    let diags = lint_model(&m);
    let d = diags.iter().find(|d| d.code == "M004").expect("M004");
    assert_eq!(d.severity, Severity::Error);
    let cert = d.certificate.as_ref().expect("certificate");
    assert!(cert.verify(&m).is_ok(), "{:?}", cert.verify(&m));
}

#[test]
fn m005_empty_integer_domain_certificate_verifies() {
    let mut m = Model::maximize();
    let x = m.add_var("x", VarKind::Integer, 0.2, 0.8, 1.0);
    m.add_constraint("touch", [(x, 1.0)], Sense::Le, 10.0);
    let diags = lint_model(&m);
    let d = diags.iter().find(|d| d.code == "M005").expect("M005");
    assert_eq!(d.severity, Severity::Error);
    let cert = d.certificate.as_ref().expect("certificate");
    assert!(cert.verify(&m).is_ok(), "{:?}", cert.verify(&m));
}

#[test]
fn m005_fractional_integer_bounds_are_warning() {
    let mut m = Model::maximize();
    m.add_var("x", VarKind::Integer, 0.5, 2.5, 1.0);
    let diags = lint_model(&m);
    assert_eq!(codes(&diags), [("M005", Severity::Warning)]);
}

#[test]
fn m006_big_m_conditioning_is_warning() {
    let mut m = Model::maximize();
    let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
    let y = m.add_var("y", VarKind::Continuous, 0.0, 1.0, 1.0);
    m.add_constraint("bigm", [(x, 1.0), (y, 1e8)], Sense::Le, 1e8);
    assert_eq!(codes(&lint_model(&m)), [("M006", Severity::Warning)]);
}

#[test]
fn m007_propagation_refuted_row_certificate_verifies() {
    // Two opposing rows over [0,1]^2: propagation pins x = y = 1 via the
    // `>= 2` row, after which `x + y <= 1` is violated by every remaining
    // point — an infeasibility no single bound crossing exposes.
    let mut m = Model::maximize();
    let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
    let y = m.add_var("y", VarKind::Continuous, 0.0, 1.0, 1.0);
    m.add_constraint("cap", [(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
    m.add_constraint("demand", [(x, 1.0), (y, 1.0)], Sense::Ge, 2.0);
    let diags = lint_model(&m);
    let d = diags.iter().find(|d| d.code == "M007").expect("M007");
    assert_eq!(d.severity, Severity::Error);
    let cert = d.certificate.as_ref().expect("certificate");
    assert!(cert.verify(&m).is_ok(), "{:?}", cert.verify(&m));
}

// ---- Certification codes (C001–C004) ----------------------------------

/// A tiny knapsack whose audited solve yields a full certificate.
fn certified_solve() -> (Model, Solution) {
    let mut m = Model::maximize();
    let x = m.add_binary("x", 3.0);
    let y = m.add_binary("y", 2.0);
    m.add_constraint("cap", [(x, 2.0), (y, 1.0)], Sense::Le, 2.0);
    let sol = m
        .solve(&SolverConfig::exact().with_audit(true))
        .expect("bounded binary model must solve");
    assert_eq!(sol.status, SolveStatus::Optimal);
    (m, sol)
}

#[test]
fn c001_corrupted_primal_is_error() {
    let (m, mut sol) = certified_solve();
    sol.values[0] += 1.0; // Push the binary out of its domain.
    let diags = certify_solution(&m, &sol).diagnostics;
    let d = diags.iter().find(|d| d.code == "C001").expect("C001");
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn c002_tampered_dual_certificate_is_error() {
    let (m, mut sol) = certified_solve();
    let audit = sol.audit.as_deref_mut().expect("audit attached");
    let mut tampered = false;
    for n in &mut audit.nodes {
        if let Some(lp) = &mut n.lp {
            lp.objective += 5.0;
            tampered = true;
        }
    }
    assert!(tampered, "expected an LP-certified node");
    let diags = certify_solution(&m, &sol).diagnostics;
    let d = diags.iter().find(|d| d.code == "C002").expect("C002");
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn c003_unsupported_infeasibility_claim_is_error() {
    use tetrisched_milp::{IncumbentSource, SolveAudit, SolveProof};
    let (m, _) = certified_solve();
    let mut sol = Solution::empty(SolveStatus::Infeasible);
    sol.audit = Some(Box::new(SolveAudit {
        rel_gap: 0.0,
        limit_hit: false,
        nodes: Vec::new(),
        incumbent_source: IncumbentSource::None,
        proof: SolveProof::RootInfeasible { proof: None },
    }));
    let diags = certify_solution(&m, &sol).diagnostics;
    let d = diags.iter().find(|d| d.code == "C003").expect("C003");
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn c004_translation_mismatch_is_error() {
    // One leaf worth 1.0, zero nodes granted, but a claimed objective of
    // 1.0: value out of thin air.
    let e = StrlExpr::nck(set(&[0, 1]), 1, 10, 5, 1.0);
    let d = validate_translation(&e, &[0], 1.0, 1.0).expect_err("must reject");
    assert_eq!(d.code, "C004");
    assert_eq!(d.severity, Severity::Error);
}

// ---- Source invariants (L001, L004) ------------------------------------

/// Builds a throwaway mini-workspace seeded with one violation per source
/// rule, runs the workspace linter over it, and returns the findings.
fn seeded_workspace_codes() -> Vec<String> {
    let root = std::env::temp_dir().join(format!("srclint-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let write = |rel: &str, body: &str| {
        let p = root.join(rel);
        fs::create_dir_all(p.parent().expect("temp paths have parents")).expect("mkdir");
        fs::write(p, body).expect("write");
    };
    write(
        "crates/sim/src/engine2.rs",
        "pub fn t() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    write(
        "crates/milp/src/hashy.rs",
        "use std::collections::HashMap;\npub fn h() -> HashMap<u32, u32> { HashMap::new() }\n",
    );
    let report = lint_workspace(&root).expect("scan");
    let _ = fs::remove_dir_all(&root);
    report
        .diagnostics
        .iter()
        .map(|d| d.code.to_string())
        .collect()
}

#[test]
fn l001_l004_fire_on_seeded_violations() {
    let codes = seeded_workspace_codes();
    assert!(codes.contains(&"L001".to_string()), "{codes:?}");
    // L004 fires once per hash-collection mention (the `use` and the two
    // in the signature/body count as three lines here — assert presence,
    // not count, to stay robust to line merging).
    assert!(codes.contains(&"L004".to_string()), "{codes:?}");
}

#[test]
fn committed_tree_is_srclint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().expect("workspace root");
    assert!(root.join("Cargo.toml").exists());
    let report = lint_workspace(&root).expect("scan");
    let findings = lint::render_pretty(&report.diagnostics);
    assert!(
        report.diagnostics.is_empty(),
        "workspace must be lint-clean:\n{findings}"
    );
    assert!(report.files_scanned > 50, "scan looks truncated");
}

// ---- Renderer round-trips on a real finding ---------------------------

#[test]
fn renderers_cover_certificates() {
    let mut m = Model::maximize();
    m.add_var("x", VarKind::Continuous, 2.0, 1.0, 1.0);
    let diags = lint_model(&m);
    assert!(has_errors(&diags));
    let pretty = lint::render_pretty(&diags);
    assert!(pretty.contains("M004"));
    assert!(pretty.contains("certificate"));
    let json = lint::render_json(&diags);
    assert!(json.contains("\"code\":\"M004\""));
    assert!(json.contains("\"certificate\""));
}
