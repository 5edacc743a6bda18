//! Mixed Integer Linear Programming solver for TetriSched.
//!
//! This crate is the in-repo replacement for the commercial IBM CPLEX solver
//! used by the TetriSched paper (EuroSys 2016, Sec. 3.2.2). It provides the
//! subset of MILP functionality the scheduler relies on:
//!
//! - maximization of a linear objective over continuous, integer, and binary
//!   variables with per-variable bounds,
//! - `<=` / `>=` / `=` linear constraints,
//! - "good enough" termination: a relative optimality gap (the paper uses
//!   10%), a work limit in nodes + simplex iterations (no clock), and a
//!   node limit,
//! - warm starting from a feasible solution (the paper seeds each cycle's
//!   solve with the previous cycle's schedule),
//! - a diving primal heuristic to find incumbents early.
//!
//! The LP relaxations are solved with a two-phase primal simplex that handles
//! variable bounds natively (nonbasic variables rest at either bound and may
//! "bound flip"), so the thousands of binary variables produced by STRL
//! compilation do not add constraint rows. Integer feasibility is obtained by
//! best-first branch-and-bound with most-fractional branching.
//!
//! # Examples
//!
//! ```
//! use tetrisched_milp::{Model, SolverConfig, VarKind, Sense};
//!
//! // Maximize 3x + 2y  s.t.  x + y <= 4, x + 3y <= 6, x,y >= 0 integer.
//! let mut m = Model::maximize();
//! let x = m.add_var("x", VarKind::Integer, 0.0, f64::INFINITY, 3.0);
//! let y = m.add_var("y", VarKind::Integer, 0.0, f64::INFINITY, 2.0);
//! m.add_constraint("c1", [(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
//! m.add_constraint("c2", [(x, 1.0), (y, 3.0)], Sense::Le, 6.0);
//! let sol = m.solve(&SolverConfig::default()).unwrap();
//! assert_eq!(sol.value(x).round() as i64, 4);
//! assert_eq!(sol.value(y).round() as i64, 0);
//! assert!((sol.objective - 12.0).abs() < 1e-6);
//! ```

pub mod backend;
pub mod branch_bound;
pub mod certify;
pub mod config;
pub mod error;
pub mod heuristics;
pub mod kernels;
pub mod lint;
pub mod model;
pub mod presolve;
pub mod simplex;
pub mod status;

pub use backend::{ExactBackend, HeuristicBackend, MilpBackend};
pub use branch_bound::BranchBound;
pub use certify::{
    certify_solution, check_solution, dual_bound, verify_farkas, verify_ray, CertifyReport,
    IncumbentSource, SolveAudit, SolveProof,
};
pub use config::SolverConfig;
pub use error::{MilpError, Result};
pub use lint::{
    debug_precheck, lint_model, lint_model_errors, propagate_bounds, CertTerm, Certificate,
    Diagnostic, Propagation, Severity,
};
pub use model::{ConstraintId, LinExpr, Model, Name, Sense, VarId, VarKind};
pub use presolve::{presolve, PresolveOutcome};
pub use simplex::{LpOutcome, Simplex};
pub use status::{Solution, SolveStatus, SolverStats};
