//! `tetrisched-lint`: static analysis for the TetriSched workspace.
//!
//! Two analysis engines share one structured [`Diagnostic`] type:
//!
//! 1. **Model analysis** — semantic passes over STRL expressions
//!    ([`lint_expr`], codes `S001`–`S009`) and compiled MILP models
//!    ([`lint_model`], codes `M001`–`M007`; the MILP passes live in
//!    `tetrisched_milp::lint` so the solver can run them without a
//!    dependency cycle). Error-severity MILP findings carry
//!    machine-checkable infeasibility [`Certificate`]s.
//! 2. **Source analysis** — [`lint_workspace`] (and the `srclint` binary)
//!    lexes every workspace `.rs` file into a token stream ([`lexer`])
//!    with a test mask ([`source_model`]), and runs one table of scoped
//!    token rules over it: no clock reads outside an allowlist, and none
//!    at all in the telemetry and service crates (`L001`), no hash-based
//!    collections in solver-adjacent crates (`L004`), ladder-rung
//!    ownership (`L007`), float-determinism in solver crates (`L009`), no
//!    concurrency primitive in product code (`L010`), and dead-knob
//!    detection over every config struct (`L011`). Panic sources are not
//!    its job: clippy's restriction lints deny them at the roots of the
//!    crates the cycle and the event loop run on.
//!
//! Proof-carrying solver outcomes (codes `C001`–`C003`) are verified by
//! `tetrisched_milp::certify`; this crate's [`certify`] validates the
//! STRL→MILP translation end-to-end (`C004`).
//!
//! Findings render as pretty text ([`render_pretty`]) or JSON
//! ([`render_json`]). The full diagnostic-code table lives in DESIGN.md.
//!
//! [`Diagnostic`]: tetrisched_milp::Diagnostic
//! [`lint_model`]: tetrisched_milp::lint_model
//! [`Certificate`]: tetrisched_milp::Certificate

#![deny(unsafe_code)]

pub mod certify;
pub mod lexer;
pub mod render;
pub mod source_model;
pub mod src_lint;
pub mod strl_lint;

pub use certify::validate_translation;
pub use lexer::{lex, num_is_float, Token, TokenKind};
pub use render::{render_json, render_pretty};
pub use source_model::{SourceFile, StructItem};
pub use src_lint::{lint_workspace, SrcLintReport};
pub use strl_lint::{lint_expr, StrlLintContext};
