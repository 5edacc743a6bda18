//! `tetrisched-lint`: static analysis for the TetriSched workspace.
//!
//! Two analysis engines share one structured [`Diagnostic`] type:
//!
//! 1. **Model analysis** — semantic passes over STRL expressions
//!    ([`lint_expr`], codes `S001`–`S009`) and compiled MILP models
//!    ([`lint_model`], codes `M001`–`M007`; the MILP passes live in
//!    `tetrisched_milp::lint` so the solver can run them without a
//!    dependency cycle, and are re-exported here). Error-severity MILP
//!    findings carry machine-checkable infeasibility [`Certificate`]s.
//! 2. **Source analysis** — [`lint_workspace`] (and the `srclint` binary)
//!    lexes every workspace `.rs` file into a token stream ([`lexer`]),
//!    parses it into an item-level source model ([`source_model`]), and
//!    enforces repo invariants over it: no wall-clock reads outside an
//!    allowlist (`L001`), no `unwrap()` in scheduler/ledger/simulator hot
//!    paths (`L002`), no non-vendored external dependency in any manifest
//!    (`L003`), no hash-based collections in solver-adjacent crates
//!    (`L004`), injected-clock and single-threaded crate contracts
//!    (`L005`/`L006`), ladder-rung ownership (`L007`), call-graph
//!    panic-reachability from the scheduler hot path (`L008`),
//!    float-determinism in solver crates (`L009`), a single audited
//!    concurrency seam (`L010`), and dead-knob detection (`L011`).
//!
//! A third engine, [`certify`], verifies proof-carrying solver outcomes
//! (codes `C001`–`C003`, re-exported from `tetrisched_milp::certify`) and
//! validates the STRL→MILP translation end-to-end (`C004`).
//!
//! Findings render as pretty text ([`render_pretty`]) or JSON
//! ([`render_json`]). The full diagnostic-code table lives in DESIGN.md.

pub mod certify;
pub mod lexer;
pub mod render;
pub mod source_model;
pub mod src_lint;
pub mod strl_lint;

pub use certify::{certify_solution, check_solution, validate_translation, CertifyReport};
pub use lexer::{lex, num_is_float, Token, TokenKind};
pub use render::{render_json, render_pretty};
pub use source_model::{Annotation, CallSite, FnItem, SourceFile, StructItem};
pub use src_lint::{lint_workspace, SrcLintReport};
pub use strl_lint::{lint_expr, StrlLintContext};
pub use tetrisched_milp::lint::{
    debug_precheck, has_errors, lint_model, lint_model_errors, propagate_bounds, CertTerm,
    Certificate, Diagnostic, Propagation, Severity,
};
