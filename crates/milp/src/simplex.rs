//! Two-phase primal simplex with bounded variables, and a bounded dual
//! simplex that re-solves from the basis the last LP left behind.
//!
//! The LP relaxations produced by STRL compilation are mostly binary
//! indicator variables (a compiled RC80 or RC256 model has some 200 to 300
//! columns). Handling variable bounds natively (instead of encoding
//! `x <= 1` as constraint rows) keeps the basis small: nonbasic
//! variables rest at either their lower or upper bound, the ratio test
//! includes "bound flips", and phase 1 introduces artificial variables only
//! for rows whose slack cannot absorb the initial residual.
//!
//! The implementation is a dense-tableau simplex over one contiguous
//! row-major buffer (a few hundred rows and columns per scheduling cycle).
//! Storage is dense; the hot loops read only the columns that can matter: a
//! pivot updates other rows only at the pivot row's nonzeros (packed), a
//! refresh (like the residuals of a load) subtracts only the columns resting
//! at a nonzero value, and the dual ratio test reads only the columns that
//! can move the leaving row. Those lists are gathered without a branch on
//! the data (every column writes its slot, only a kept one advances the
//! count), and pricing selects its scores, so no scan mispredicts. Nothing
//! is skipped but `x -= f * 0.0`, so every stored value is what the dense
//! loops compute (signed zeros aside), and every choice is the one a scan
//! in column order makes. Dantzig pricing is used until a stall is
//! detected, after which Bland's rule guarantees termination.
//!
//! An iteration reads each operand once: the entering column is gathered
//! into one buffer that the ratio test, the basic-value update and the
//! pivot read, and pricing keeps its scores between iterations, rescoring
//! only the columns whose reduced cost or state the iteration changed. The
//! select-and-reduce scans run through `kernels::Width`, at the host's vector
//! width, with the same bits at every width.
//!
//! An LP that ends `Optimal` leaves a dual-feasible basis in the workspace;
//! [`Simplex::resolve_with_bounds`] installs new variable bounds on it and
//! re-optimises with the dual simplex, which is how every dive step and
//! branch-and-bound node after a solve's root LP is solved.

use crate::error::{MilpError, Result};
use crate::kernels::{exact_eq, fixed_dot, fixed_max, fixed_sum, is_nonzero, Width};
use crate::model::{Model, Sense};
use std::cell::{Cell, RefCell};

/// Tolerance for reduced-cost optimality checks.
const COST_TOL: f64 = 1e-7;
/// Minimum magnitude an element may have to serve as a pivot.
const PIVOT_TOL: f64 = 1e-9;
/// Feasibility tolerance on bounds and constraint residuals.
const FEAS_TOL: f64 = 1e-7;
/// Iterations without objective improvement before switching to Bland's rule.
const STALL_LIMIT: usize = 256;
/// Pivots between full recomputations of basic values and reduced costs.
const REFRESH_PERIOD: usize = 128;

/// Result of an LP solve.
///
/// Every variant carries the raw material for an independently checkable
/// certificate (see [`crate::certify`]): row duals at an optimum, a Farkas
/// dual candidate for infeasibility, and an improving ray for unboundedness.
#[derive(Debug, Clone)]
pub enum LpOutcome {
    /// An optimal basic solution was found.
    Optimal {
        /// Objective value at the optimum.
        objective: f64,
        /// Values of the *structural* variables, in model column order.
        values: Vec<f64>,
        /// Row dual values (simplex multipliers) at the optimum, one per
        /// constraint. Together with the reduced costs they derive, these
        /// certify the objective value via LP duality.
        duals: Vec<f64>,
    },
    /// No assignment satisfies the constraints and bounds.
    Infeasible {
        /// Farkas dual candidate, one entry per constraint row: the phase-1
        /// optimum's duals, or the dual simplex's blocked row written over
        /// the original rows. `None` when infeasibility was decided
        /// before simplex ran (crossed bound overrides). Callers must
        /// verify the candidate before trusting it.
        farkas: Option<Vec<f64>>,
    },
    /// The objective is unbounded above.
    Unbounded {
        /// Improving feasible ray over the structural variables: following
        /// it from any feasible point stays feasible and increases the
        /// objective without bound. `None` only on degenerate paths.
        ray: Option<Vec<f64>>,
    },
}

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColState {
    Basic,
    AtLower,
    AtUpper,
    /// Free variable (both bounds infinite) resting at zero.
    FreeZero,
}

/// Reusable LP solver: one workspace per instance.
///
/// Storage survives a call, and after an LP that ended `Optimal` so does
/// the problem: the tableau buffers are sized by the first LP an instance
/// solves and reused by every later one, and the final tableau, basis and
/// reduced costs stay held for [`Simplex::resolve_with_bounds`] to start
/// the same model's next LP from (a re-solve that ends `Optimal` or
/// `Infeasible` keeps them). [`Simplex::solve_with_bounds`] drops them and
/// rebuilds its tableau from the model. The instance also carries the
/// iteration limit and accumulates work counters across its solves (read
/// back for telemetry via [`Simplex::iterations`] /
/// [`Simplex::refactorizations`] / [`Simplex::resolves`]).
#[derive(Debug)]
pub struct Simplex {
    /// Maximum pivots per phase before reporting numerical trouble.
    pub max_iterations: usize,
    /// Cumulative pivots across all solves by this instance. `Cell`
    /// because the solve entry points take `&self`.
    iterations: Cell<usize>,
    /// Cumulative basis refreshes (dense refactorizations) across all
    /// solves by this instance.
    refactorizations: Cell<usize>,
    /// Cumulative LPs that started from the held basis instead of a load.
    resolves: Cell<usize>,
    /// The tableau every solve of this instance loads into or re-solves.
    work: RefCell<Tableau>,
}

impl Default for Simplex {
    fn default() -> Self {
        Self::new(200_000)
    }
}

/// A clone carries the limit and the counters and starts with an empty
/// workspace: its first LP loads cold, whatever basis the original holds.
impl Clone for Simplex {
    fn clone(&self) -> Self {
        Self {
            max_iterations: self.max_iterations,
            iterations: self.iterations.clone(),
            refactorizations: self.refactorizations.clone(),
            resolves: self.resolves.clone(),
            work: workspace(),
        }
    }
}

impl Simplex {
    /// Creates a solver with the given per-phase iteration limit.
    pub fn new(max_iterations: usize) -> Self {
        Self {
            max_iterations,
            iterations: Cell::new(0),
            refactorizations: Cell::new(0),
            resolves: Cell::new(0),
            work: workspace(),
        }
    }

    /// Cumulative simplex pivots across all solves by this instance.
    pub fn iterations(&self) -> usize {
        self.iterations.get()
    }

    /// Cumulative basis refactorizations across all solves by this
    /// instance (periodic refreshes plus phase-boundary refreshes).
    pub fn refactorizations(&self) -> usize {
        self.refactorizations.get()
    }

    /// Cumulative LPs that [`Simplex::resolve_with_bounds`] started from the
    /// held basis; its other calls fell back to a cold load.
    pub fn resolves(&self) -> usize {
        self.resolves.get()
    }

    /// Solves the LP relaxation of `model` using the model's own bounds.
    pub fn solve(&self, model: &Model) -> Result<LpOutcome> {
        let lb: Vec<f64> = model.vars().iter().map(|v| v.lb).collect();
        let ub: Vec<f64> = model.vars().iter().map(|v| v.ub).collect();
        self.solve_with_bounds(model, &lb, &ub)
    }

    /// Solves the LP relaxation of `model` with overridden variable bounds
    /// from a cold load, whatever basis is held (the root of every solve).
    pub fn solve_with_bounds(&self, model: &Model, lb: &[f64], ub: &[f64]) -> Result<LpOutcome> {
        self.work.borrow_mut().held = false;
        self.resolve_with_bounds(model, lb, ub)
    }

    /// Solves the LP relaxation of `model` under new bounds starting from
    /// the basis this instance holds, which must be one of `model` (dive
    /// steps and branch-and-bound nodes: same model, other bounds). Loads
    /// cold when no basis is held or the new bounds leave a nonbasic column
    /// no finite side on which its reduced cost is dual feasible.
    #[expect(
        clippy::indexing_slicing,
        reason = "lb/ub are caller-supplied per-variable vectors indexed by 0..lb.len(); \
                  branch-and-bound builds both from model.vars() so the lengths agree by \
                  construction"
    )]
    pub fn resolve_with_bounds(&self, model: &Model, lb: &[f64], ub: &[f64]) -> Result<LpOutcome> {
        // Reject immediately if any bound pair is crossed: branch-and-bound
        // legitimately produces such nodes.
        for j in 0..lb.len() {
            if lb[j] > ub[j] + FEAS_TOL {
                return Ok(LpOutcome::Infeasible { farkas: None });
            }
        }
        let mut t = self.work.borrow_mut();
        (t.iterations, t.refactorizations) = (0, 0);
        let resolved = t.install(model, lb, ub);
        let out = if resolved {
            self.resolves.set(self.resolves.get() + 1);
            t.reoptimize()
        } else {
            t.load(model, lb, ub, self.max_iterations);
            t.solve()
        };
        t.held = match out {
            Ok(LpOutcome::Optimal { .. }) => true,
            Ok(LpOutcome::Infeasible { .. }) => resolved,
            _ => false,
        };
        self.iterations.set(self.iterations.get() + t.iterations);
        self.refactorizations
            .set(self.refactorizations.get() + t.refactorizations);
        out
    }
}

/// An empty workspace that runs its scans at the host's width.
fn workspace() -> RefCell<Tableau> {
    RefCell::new(Tableau {
        width: Width::host(),
        ..Tableau::default()
    })
}

/// Dense simplex tableau in canonical form: the columns of basic variables
/// are unit vectors, `a` holds the transformed constraint matrix, and `rhs`
/// the transformed right-hand side, so basic values satisfy
/// `x_B[i] = rhs[i] - sum_over_nonbasic(a[i][j] * value(j))`.
///
/// It doubles as the [`Simplex`] workspace: [`Tableau::load`] overwrites
/// every field it reads, so nothing of one LP reaches a cold load but
/// capacity; [`Tableau::install`] keeps all of it but the bounds.
#[derive(Debug, Default)]
struct Tableau {
    /// Number of constraint rows.
    m: usize,
    /// Number of structural columns.
    n_struct: usize,
    /// Total columns (structural + slack + artificial): the row stride.
    n_cols: usize,
    /// Row-major dense matrix: cell `(i, j)` is `a[i * n_cols + j]`.
    a: Vec<f64>,
    /// Transformed right-hand side.
    rhs: Vec<f64>,
    /// Lower bound per column.
    lb: Vec<f64>,
    /// Upper bound per column.
    ub: Vec<f64>,
    /// Phase-2 objective coefficient per column.
    cost: Vec<f64>,
    /// Reduced costs for the current phase.
    dj: Vec<f64>,
    /// State per column.
    state: Vec<ColState>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Row in which a basic column is basic (stale for nonbasic columns).
    row_of: Vec<usize>,
    /// Current value of the basic variable in each row.
    x_basic: Vec<f64>,
    /// The entering column, one slot per row, gathered once an iteration
    /// for the ratio test, the basic-value update and the pivot.
    col: Vec<f64>,
    /// Primal pricing's score per column (see [`score`]), kept between
    /// iterations: valid from the start of a primal phase, and each
    /// iteration rescores the columns it changes.
    scores: Vec<f64>,
    /// Scratch of one slot per column: indexed by column, the row being
    /// summed during a load and a fresh score pass checking `scores` in a
    /// debug build; indexed by row, the dual's bound violations; packed
    /// beside `nz`, the pivot row's nonzero values during a pivot and the
    /// `nz` columns' rest values during a refresh.
    scratch: Vec<f64>,
    /// Scratch list of columns, one slot per column, filled from the front
    /// by a branch-free compaction (its count is held by the filler): the
    /// pivot row's nonzeros during a pivot, the columns resting at a nonzero
    /// value during a refresh or a load, the dual ratio test's candidates.
    nz: Vec<usize>,
    /// First artificial column index (== `n_cols` when none).
    art_start: usize,
    /// Iteration limit per phase.
    max_iterations: usize,
    /// Pivots performed across both phases (telemetry).
    iterations: usize,
    /// Basis refreshes performed (telemetry).
    refactorizations: usize,
    /// Whether the last LP left a dual-feasible basis to re-solve from.
    held: bool,
    /// Dual pivots since the last refresh, counted across re-solves.
    since_refresh: usize,
    /// The instantiation the scans run (see [`Width`]).
    width: Width,
}

/// Empties `v` and refills it with `len` copies of `fill`, first reserving
/// `cap` so that later growth up to `cap` does not reallocate.
fn reset<T: Clone>(v: &mut Vec<T>, cap: usize, len: usize, fill: T) {
    v.clear();
    v.reserve(cap);
    v.resize(len, fill);
}

impl Tableau {
    /// Loads the initial tableau of an LP: slack columns per row, structural
    /// variables nonbasic at a finite bound, and artificial columns for rows
    /// whose slack cannot absorb the residual.
    ///
    /// Every buffer is reserved at the model's upper bound — `m` rows of
    /// `n_struct + 2m` columns, one artificial per row — so only the first
    /// LP of a solve allocates: the LPs that follow share the model's
    /// dimensions and differ at most in their artificial count.
    #[expect(
        clippy::indexing_slicing,
        reason = "every index is derived from the tableau's own dimensions (m rows, n_struct + m + \
                  artificials columns), and all vectors are reset to those dimensions in this \
                  function (scratch to the n_struct + 2m upper bound); cell (i, j) sits at i * \
                  n_cols + j < m * n_cols"
    )]
    fn load(&mut self, model: &Model, s_lb: &[f64], s_ub: &[f64], max_iterations: usize) {
        let m = model.num_constraints();
        let n_struct = model.num_vars();
        let base_cols = n_struct + m;
        let cap_cols = base_cols + m;
        (self.m, self.n_struct, self.art_start) = (m, n_struct, base_cols);
        self.max_iterations = max_iterations;

        reset(&mut self.lb, cap_cols, base_cols, 0.0);
        reset(&mut self.ub, cap_cols, base_cols, 0.0);
        reset(&mut self.cost, cap_cols, base_cols, 0.0);
        reset(&mut self.state, cap_cols, base_cols, ColState::AtLower);
        reset(&mut self.scratch, cap_cols, cap_cols, 0.0);
        reset(&mut self.scores, cap_cols, cap_cols, 0.0);
        reset(&mut self.nz, cap_cols, cap_cols, 0);
        for j in 0..n_struct {
            self.lb[j] = s_lb[j];
            self.ub[j] = s_ub[j];
            self.cost[j] = model.var(crate::model::VarId(j)).obj;
            // Nonbasic rest position for structural columns.
            self.state[j] = initial_state(s_lb[j], s_ub[j]);
        }
        reset(&mut self.rhs, m, m, 0.0);
        reset(&mut self.x_basic, m, m, 0.0);
        reset(&mut self.col, m, m, 0.0);
        reset(&mut self.basis, m, m, 0);

        // First pass: decide the initial basis per row — the slack if it can
        // hold the residual, otherwise an artificial — which fixes the
        // stride. `rhs[i]` doubles as the row's orientation until the fill.
        // As in `refresh_basics`, only a column resting at a nonzero value
        // can move a residual, so those are gathered first.
        let mut resting = 0;
        for j in 0..n_struct {
            self.nz[resting] = j;
            resting += usize::from(is_nonzero(self.nonbasic_value(j)));
        }
        let mut n_cols = base_cols;
        for (i, c) in model.constraints().iter().enumerate() {
            let s = n_struct + i;
            (self.lb[s], self.ub[s]) = match c.sense {
                Sense::Le => (0.0, f64::INFINITY),
                Sense::Ge => (f64::NEG_INFINITY, 0.0),
                Sense::Eq => (0.0, 0.0),
            };
            // Residual of the row given structural variables at rest,
            // summed over its merged coefficients in column order.
            for &(v, coeff) in &c.terms {
                self.scratch[v.index()] += coeff;
            }
            let mut res = c.rhs;
            for &j in &self.nz[..resting] {
                if is_nonzero(self.scratch[j]) {
                    res -= self.scratch[j] * self.nonbasic_value(j);
                }
            }
            for &(v, _) in &c.terms {
                self.scratch[v.index()] = 0.0;
            }
            self.rhs[i] = 1.0;
            if res >= self.lb[s] - FEAS_TOL && res <= self.ub[s] + FEAS_TOL {
                // The slack absorbs the residual: it is basic and feasible.
                self.basis[i] = s;
                self.state[s] = ColState::Basic;
                self.x_basic[i] = res;
            } else {
                // Rest the slack at its nearest bound and cover the remainder
                // with an artificial variable.
                let (beta, rest) = if res < self.lb[s] {
                    (self.lb[s], ColState::AtLower)
                } else {
                    (self.ub[s], ColState::AtUpper)
                };
                self.state[s] = rest;
                let residual = res - beta;
                if residual < 0.0 {
                    // Scale the row so the artificial enters with +1 and a
                    // nonnegative value.
                    self.rhs[i] = -1.0;
                }
                self.x_basic[i] = residual.abs();
                self.basis[i] = n_cols;
                n_cols += 1;
            }
        }

        self.n_cols = n_cols;
        self.cost.resize(n_cols, 0.0);
        self.lb.resize(n_cols, 0.0);
        self.ub.resize(n_cols, f64::INFINITY);
        self.state.resize(n_cols, ColState::Basic);
        reset(&mut self.dj, cap_cols, n_cols, 0.0);
        reset(&mut self.row_of, cap_cols, n_cols, 0);
        // Second pass: fill the matrix at its final stride — structural
        // coefficients, the unit slack column, the artificial if any.
        reset(&mut self.a, m * cap_cols, m * n_cols, 0.0);
        for (i, c) in model.constraints().iter().enumerate() {
            let sign = self.rhs[i];
            let row = &mut self.a[i * n_cols..(i + 1) * n_cols];
            for &(v, coeff) in &c.terms {
                row[v.index()] += sign * coeff;
            }
            row[n_struct + i] = sign;
            if self.basis[i] >= base_cols {
                row[self.basis[i]] = 1.0;
            }
            self.rhs[i] = sign * c.rhs;
            self.row_of[self.basis[i]] = i;
        }
    }

    /// Cell `(i, j)` of the matrix.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass a row i < m and a column j < n_cols, so i * n_cols + j < m * n_cols \
                  == a.len()"
    )]
    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n_cols + j]
    }

    /// Rest value of a nonbasic column. Callers only ask for columns whose
    /// state is nonbasic; a basic column answers `0.0` (its value lives in
    /// `x_basic`, and `0.0` is the contribution a basic column makes to the
    /// residual sums this feeds).
    #[expect(
        clippy::indexing_slicing,
        reason = "j < n_cols is the column-iteration invariant of every caller; state/lb/ub are \
                  allocated to n_cols"
    )]
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.state[j] {
            ColState::AtLower => self.lb[j],
            ColState::AtUpper => self.ub[j],
            ColState::FreeZero => 0.0,
            ColState::Basic => {
                debug_assert!(false, "basic column has no rest value");
                0.0
            }
        }
    }

    /// Recomputes all basic values from the tableau (numerical refresh).
    ///
    /// Only a column resting at a nonzero value can move a sum (any other
    /// term is `a * 0.0`), so those are gathered once, in ascending column
    /// order and with their values packed beside them, and each row
    /// subtracts them alone: the sequence of non-trivial floating-point
    /// operations is that of a scan over every cell.
    #[expect(
        clippy::indexing_slicing,
        reason = "rhs/x_basic are allocated to m rows and state/lb/ub to n_cols; nz and scratch \
                  hold at least n_cols slots and the count never passes the column index; nz holds \
                  columns < n_cols and row i is the n_cols cells from i * n_cols, which end at (i \
                  + 1) * n_cols <= m * n_cols"
    )]
    fn refresh_basics(&mut self) {
        self.refactorizations += 1;
        self.since_refresh = 0;
        let mut resting = 0;
        for j in 0..self.n_cols {
            // A basic or free column contributes 0.0, which is not kept.
            let x = match self.state[j] {
                ColState::AtLower => self.lb[j],
                ColState::AtUpper => self.ub[j],
                ColState::Basic | ColState::FreeZero => 0.0,
            };
            self.nz[resting] = j;
            self.scratch[resting] = x;
            resting += usize::from(is_nonzero(x));
        }
        let (cols, rests) = (&self.nz[..resting], &self.scratch[..resting]);
        for i in 0..self.m {
            let mut v = self.rhs[i];
            let row = &self.a[i * self.n_cols..(i + 1) * self.n_cols];
            for (&j, &x) in cols.iter().zip(rests) {
                let a = row[j];
                v = if is_nonzero(a) { v - a * x } else { v };
            }
            self.x_basic[i] = v;
        }
    }

    /// Recomputes reduced costs for the given phase cost vector.
    #[expect(
        clippy::indexing_slicing,
        reason = "dj/cost are allocated to n_cols and the matrix to m rows; basis entries are \
                  valid column indices by the pivot invariant"
    )]
    fn refresh_reduced_costs(&mut self, phase1: bool) {
        let c = |j: usize| -> f64 {
            if phase1 {
                if j >= self.art_start {
                    -1.0
                } else {
                    0.0
                }
            } else {
                self.cost[j]
            }
        };
        for j in 0..self.n_cols {
            self.dj[j] = c(j);
        }
        for i in 0..self.m {
            let cb = c(self.basis[i]);
            if is_nonzero(cb) {
                let row = &self.a[i * self.n_cols..(i + 1) * self.n_cols];
                let dj = &mut self.dj[..self.n_cols];
                self.width.run(move || subtract_row(dj, row, cb));
            }
        }
        // Basic columns have zero reduced cost by construction; enforce it to
        // cancel accumulated round-off.
        for &b in &self.basis {
            self.dj[b] = 0.0;
        }
    }

    /// Extracts the row dual values implied by the current reduced costs.
    ///
    /// For row `i` with slack column `s = n_struct + i`, the slack's reduced
    /// cost is `d_s = c_s - y_i * T_i` where `T_i` is the build-time row
    /// negation and the slack's column is `T_i * e_i`; slack costs are zero
    /// in both phases and the negation cancels against the transformed row,
    /// so `y_i = -dj[s]` holds for the *original* row orientation.
    #[expect(
        clippy::indexing_slicing,
        reason = "slack columns n_struct..n_struct+m exist for every row by construction"
    )]
    fn extract_duals(&self) -> Vec<f64> {
        (0..self.m).map(|i| -self.dj[self.n_struct + i]).collect()
    }

    /// Builds the improving feasible ray for an unbounded phase-2 pivot:
    /// entering column `j_in` moves in direction `dir` with no blocking
    /// basic variable, so the structural components move at rate `dir` (for
    /// `j_in` itself) and `-a[i][j_in] * dir` (for structural basics).
    #[expect(
        clippy::indexing_slicing,
        reason = "j_in is a pricing-loop column < n_cols; the ray is allocated to n_struct and \
                  only indexed below it"
    )]
    fn extract_ray(&self, j_in: usize, dir: f64) -> Vec<f64> {
        let mut ray = vec![0.0; self.n_struct];
        if j_in < self.n_struct {
            ray[j_in] = dir;
        }
        for i in 0..self.m {
            let b = self.basis[i];
            if b < self.n_struct {
                ray[b] = -self.at(i, j_in) * dir;
            }
        }
        ray
    }

    /// Runs phase 1 (if artificials exist) and phase 2.
    #[expect(
        clippy::indexing_slicing,
        reason = "all loops run over the tableau's own dimensions (m rows, n_cols columns)"
    )]
    fn solve(&mut self) -> Result<LpOutcome> {
        if self.art_start < self.n_cols {
            self.refresh_reduced_costs(true);
            match self.optimize(true)? {
                PhaseEnd::Optimal => {}
                PhaseEnd::Unbounded { .. } => {
                    // Phase 1 objective is bounded above by zero; reaching
                    // here means numerical trouble.
                    return Err(MilpError::IterationLimit {
                        iterations: self.iterations,
                    });
                }
            }
            let infeasibility = fixed_sum(
                (0..self.m)
                    .filter(|&i| self.basis[i] >= self.art_start)
                    .map(|i| self.x_basic[i].abs())
                    .chain(
                        (self.art_start..self.n_cols)
                            .filter(|&j| self.state[j] != ColState::Basic)
                            .map(|j| self.nonbasic_value(j).abs()),
                    ),
            );
            if infeasibility > 1e-6 {
                // The phase-1 optimum's duals are a Farkas infeasibility
                // candidate; refresh first so the extraction is not stale.
                self.refresh_basics();
                self.refresh_reduced_costs(true);
                return Ok(LpOutcome::Infeasible {
                    farkas: Some(self.extract_duals()),
                });
            }
            // Freeze artificials at zero for phase 2.
            for j in self.art_start..self.n_cols {
                self.lb[j] = 0.0;
                self.ub[j] = 0.0;
                if self.state[j] == ColState::AtUpper {
                    self.state[j] = ColState::AtLower;
                }
            }
        }
        self.refresh_basics();
        self.refresh_reduced_costs(false);
        match self.optimize(false)? {
            PhaseEnd::Optimal => {}
            PhaseEnd::Unbounded { ray } => return Ok(LpOutcome::Unbounded { ray: Some(ray) }),
        }
        Ok(self.finish())
    }

    /// Reads the optimum off the final basis of either simplex.
    #[expect(
        clippy::indexing_slicing,
        reason = "values is allocated to n_struct and state/lb/ub/cost to at least that; row_of \
                  holds a row < m for every basic column (load and both pivot sites record it)"
    )]
    fn finish(&mut self) -> LpOutcome {
        // Refresh once more so the extracted values and duals reflect the
        // exact final basis rather than incrementally maintained state.
        self.refresh_basics();
        self.refresh_reduced_costs(false);
        // Extract structural values.
        let mut values = vec![0.0; self.n_struct];
        for (j, value) in values.iter_mut().enumerate() {
            *value = match self.state[j] {
                ColState::Basic => self.x_basic[self.row_of[j]],
                _ => self.nonbasic_value(j),
            };
        }
        // Snap to bounds to remove round-off.
        for (j, v) in values.iter_mut().enumerate() {
            if self.lb[j].is_finite() && (*v - self.lb[j]).abs() < FEAS_TOL {
                *v = self.lb[j];
            }
            if self.ub[j].is_finite() && (*v - self.ub[j]).abs() < FEAS_TOL {
                *v = self.ub[j];
            }
        }
        let objective = fixed_dot(self.cost.iter().zip(values.iter()).map(|(&c, &x)| (c, x)));
        let duals = self.extract_duals();
        LpOutcome::Optimal {
            objective,
            values,
            duals,
        }
    }

    /// Installs new structural bounds on the held basis. A basic column
    /// keeps its value, feasible or not. A nonbasic one rests at its value
    /// if fixed, else on the finite side that keeps its reduced cost dual
    /// feasible, and the basic values follow its move down its column.
    /// Returns `false`, leaving a state only `load` may follow, when no
    /// basis of these dimensions is held or some column has no such side.
    #[expect(
        clippy::indexing_slicing,
        reason = "the dimension check puts n_struct at the length of the caller's per-variable \
                  bounds; lb/ub/state/dj hold n_cols >= n_struct entries, x_basic m, and `at` \
                  takes i < m, j < n_cols"
    )]
    fn install(&mut self, model: &Model, s_lb: &[f64], s_ub: &[f64]) -> bool {
        if !self.held || self.m != model.num_constraints() || self.n_struct != model.num_vars() {
            return false;
        }
        for j in 0..self.n_struct {
            let (lo, hi) = (s_lb[j], s_ub[j]);
            if exact_eq(lo, self.lb[j]) && exact_eq(hi, self.ub[j]) {
                continue;
            }
            let rested = (self.state[j] != ColState::Basic).then(|| self.nonbasic_value(j));
            (self.lb[j], self.ub[j]) = (lo, hi);
            let Some(old) = rested else { continue };
            let d = self.dj[j];
            self.state[j] = if exact_eq(lo, hi) {
                ColState::AtLower
            } else if d.abs() > COST_TOL {
                // Raising the column pays (d > 0): only its upper side is
                // dual feasible; lowering it pays: only its lower side.
                let (side, bound) = if d > 0.0 {
                    (ColState::AtUpper, hi)
                } else {
                    (ColState::AtLower, lo)
                };
                if !bound.is_finite() {
                    return false;
                }
                side
            } else if self.state[j] == ColState::AtUpper && hi.is_finite() {
                ColState::AtUpper
            } else {
                initial_state(lo, hi)
            };
            let moved = self.nonbasic_value(j) - old;
            if is_nonzero(moved) {
                for i in 0..self.m {
                    let alpha = self.at(i, j);
                    if is_nonzero(alpha) {
                        self.x_basic[i] -= alpha * moved;
                    }
                }
            }
        }
        true
    }

    /// Bounded dual simplex from a dual-feasible basis: the basic variable
    /// with the largest bound violation leaves to the bound it violates, and
    /// the column that can move it there at the least `|d_j / alpha_rj|`
    /// enters, which keeps every reduced cost on its side. A violated row
    /// that no column can move proves the LP infeasible, and its slack
    /// cells — the row as a combination of the original rows — are the
    /// Farkas vector. Stalling switches both choices to lowest index.
    #[expect(
        clippy::indexing_slicing,
        reason = "rows i, r < m and columns j < n_cols index vectors allocated to those \
                  dimensions; row r is the n_cols cells from r * n_cols; basis entries are valid \
                  columns by the pivot invariant and slack columns n_struct..n_struct + m exist \
                  for every row"
    )]
    fn reoptimize(&mut self) -> Result<LpOutcome> {
        let (mut bland, mut stall) = (false, 0usize);
        loop {
            if self.since_refresh >= REFRESH_PERIOD {
                self.refresh_basics();
                self.refresh_reduced_costs(false);
            }
            let Some(r) = self.leaving_row(bland) else {
                return Ok(self.finish());
            };
            let leaving = self.basis[r];
            let (violation, below) = violation(self.x_basic[r], self.lb[leaving], self.ub[leaving]);
            self.iterations += 1;
            self.since_refresh += 1;
            if self.iterations > self.max_iterations {
                return Err(MilpError::IterationLimit {
                    iterations: self.iterations,
                });
            }

            // x_r moves by -alpha * (the entering column's move), and a
            // column at a bound can only move off it. The columns that can
            // move x_r are gathered first, in column order and without a
            // branch; the ratio test then reads those alone.
            let n = self.n_cols;
            let row = &self.a[r * n..(r + 1) * n];
            let (state, bounds) = (&self.state[..n], (&self.lb[..n], &self.ub[..n]));
            let verdicts = &mut self.nz[..n];
            self.width
                .run(move || movable_verdicts(row, state, bounds, below, verdicts));
            let movable = compact(&mut self.nz[..n]);
            let mut enter: Option<(usize, f64)> = None; // (col, |alpha|)
            let mut best = f64::INFINITY;
            for &j in &self.nz[..movable] {
                let alpha = row[j];
                let ratio = (self.dj[j] / alpha).abs();
                // Ties (none under Bland) go to the larger pivot element.
                let tie = !bland && enter.is_some_and(|(_, a)| alpha.abs() > a);
                if ratio < best - 1e-12 || (tie && ratio < best + 1e-12) {
                    best = best.min(ratio);
                    enter = Some((j, alpha.abs()));
                }
            }
            let Some((j_in, _)) = enter else {
                let sign = if below { 1.0 } else { -1.0 };
                let slack_cells = &row[self.n_struct..self.n_struct + self.m];
                return Ok(LpOutcome::Infeasible {
                    farkas: Some(slack_cells.iter().map(|&a| sign * a).collect()),
                });
            };
            // A pivot that does not move the dual objective is a stall.
            let stalled = best * violation <= 1e-12;
            stall = if stalled { stall + 1 } else { 0 };
            bland |= stall > STALL_LIMIT;

            let (target, rest) = if below {
                (self.lb[leaving], ColState::AtLower)
            } else {
                (self.ub[leaving], ColState::AtUpper)
            };
            let step = (self.x_basic[r] - target) / row[j_in];
            self.gather_column(j_in);
            // Row r is written over below.
            let (x_basic, col) = (&mut self.x_basic, &self.col);
            self.width
                .run(move || move_basics(x_basic, col, move |x, alpha| x - alpha * step));
            self.x_basic[r] = self.nonbasic_value(j_in) + step;
            self.state[leaving] = rest;
            self.basis[r] = j_in;
            self.row_of[j_in] = r;
            self.state[j_in] = ColState::Basic;
            self.pivot(r, j_in);
        }
    }

    /// Pivots until optimality or unboundedness for the current phase.
    #[expect(
        clippy::indexing_slicing,
        reason = "pricing and ratio-test loops index by column j < n_cols and row i < m; basis \
                  entries are valid columns by the pivot invariant"
    )]
    fn optimize(&mut self, phase1: bool) -> Result<PhaseEnd> {
        let mut bland = false;
        let mut stall = 0usize;
        let mut iterations = 0usize;
        let mut since_refresh = 0usize;
        self.rescore_all();
        loop {
            iterations += 1;
            self.iterations += 1;
            if iterations > self.max_iterations {
                return Err(MilpError::IterationLimit { iterations });
            }
            since_refresh += 1;
            if since_refresh >= REFRESH_PERIOD {
                self.refresh_basics();
                self.refresh_reduced_costs(phase1);
                self.rescore_all();
                since_refresh = 0;
            }

            // Pricing: pick an entering column and its direction.
            let Some((j_in, dir)) = self.price(bland) else {
                return Ok(PhaseEnd::Optimal);
            };
            self.gather_column(j_in);

            // Ratio test.
            let enter_span = if self.lb[j_in].is_finite() && self.ub[j_in].is_finite() {
                self.ub[j_in] - self.lb[j_in]
            } else {
                f64::INFINITY
            };
            let mut t_best = enter_span;
            let mut leave: Option<(usize, bool, f64)> = None; // (row, hits_upper, |alpha|)
            for (i, &alpha) in self.col.iter().enumerate() {
                if alpha.abs() < PIVOT_TOL {
                    continue;
                }
                let delta = -alpha * dir; // rate of change of x_basic[i]
                let b = self.basis[i];
                let (limit, hits_upper) = if delta > 0.0 {
                    if self.ub[b].is_finite() {
                        ((self.ub[b] - self.x_basic[i]) / delta, true)
                    } else {
                        continue;
                    }
                } else if self.lb[b].is_finite() {
                    ((self.lb[b] - self.x_basic[i]) / delta, false)
                } else {
                    continue;
                };
                let limit = limit.max(0.0);
                let better = match leave {
                    None => limit < t_best - 1e-12,
                    Some((best_row, _, best_alpha)) => {
                        limit < t_best - 1e-12
                            || (limit < t_best + 1e-12 && {
                                if bland {
                                    // Bland: smallest basis index wins ties.
                                    b < self.basis[best_row]
                                } else {
                                    alpha.abs() > best_alpha
                                }
                            })
                    }
                };
                if better || (leave.is_none() && limit <= t_best) {
                    t_best = t_best.min(limit);
                    leave = Some((i, hits_upper, alpha.abs()));
                }
            }

            if t_best.is_infinite() {
                return Ok(PhaseEnd::Unbounded {
                    ray: self.extract_ray(j_in, dir),
                });
            }

            let improvement = self.dj[j_in].abs() * t_best;
            if improvement <= 1e-12 {
                stall += 1;
                if stall > STALL_LIMIT {
                    bland = true;
                }
            } else {
                stall = 0;
            }

            // The entering variable reaching its opposite bound first, or as
            // soon as a basis change, flips (cheaper: no pivot). Without a
            // leaving row, t_best is enter_span.
            let flips = t_best >= enter_span - 1e-12 && enter_span.is_finite();
            match leave {
                Some((r, hits_upper, _)) if !flips => {
                    // Standard pivot: j_in enters the basis in row r.
                    let entering_value = match self.state[j_in] {
                        ColState::FreeZero => dir * t_best,
                        _ => self.nonbasic_value(j_in) + dir * t_best,
                    };
                    self.enter_by(dir, t_best);
                    let leaving = self.basis[r];
                    self.state[leaving] = if hits_upper {
                        ColState::AtUpper
                    } else {
                        ColState::AtLower
                    };
                    self.basis[r] = j_in;
                    self.row_of[j_in] = r;
                    self.state[j_in] = ColState::Basic;
                    self.x_basic[r] = entering_value;
                    let nonzeros = self.pivot(r, j_in);
                    // The pivot changed the reduced costs at the pivot row's
                    // nonzeros alone, the entering column among them. The
                    // leaving column is rescored by name: its cell is
                    // nonzero unless an infinite pivot element scaled the
                    // row to zeros.
                    for k in 0..nonzeros {
                        self.rescore(self.nz[k]);
                    }
                    self.rescore(leaving);
                }
                _ => {
                    // Bound flip, no basis change.
                    debug_assert!(enter_span.is_finite());
                    self.enter_by(dir, enter_span);
                    self.state[j_in] = match self.state[j_in] {
                        ColState::AtLower => ColState::AtUpper,
                        ColState::AtUpper => ColState::AtLower,
                        other => other,
                    };
                    self.rescore(j_in);
                }
            }
        }
    }

    /// Moves every basic value along the entering column as the entering
    /// variable moves by `dir * t` (a pivot's row `r` too, which its caller
    /// then writes over).
    fn enter_by(&mut self, dir: f64, t: f64) {
        let (x_basic, col) = (&mut self.x_basic, &self.col);
        self.width
            .run(move || move_basics(x_basic, col, move |x, alpha| x + -alpha * dir * t));
    }

    /// Copies column `j` of the matrix into `col`, one cell per row.
    fn gather_column(&mut self, j: usize) {
        let cells = self.a.iter().skip(j).step_by(self.n_cols);
        for (c, &a) in self.col.iter_mut().zip(cells) {
            *c = a;
        }
    }

    /// Scores every column (the start of a primal phase, and after a
    /// refresh recomputed every reduced cost).
    #[expect(
        clippy::indexing_slicing,
        reason = "state, lb, ub, dj and scores all hold at least n_cols slots"
    )]
    fn rescore_all(&mut self) {
        let n = self.n_cols;
        let (state, bounds, dj) = (
            &self.state[..n],
            (&self.lb[..n], &self.ub[..n]),
            &self.dj[..n],
        );
        let scores = &mut self.scores[..n];
        self.width
            .run(move || score_columns(state, bounds, dj, scores));
    }

    /// Scores column `j` again after its reduced cost or state changed.
    #[expect(
        clippy::indexing_slicing,
        reason = "j < n_cols, and scores, state, lb, ub and dj all hold at least n_cols slots"
    )]
    fn rescore(&mut self, j: usize) {
        self.scores[j] = score(self.state[j], self.lb[j], self.ub[j], self.dj[j]);
    }

    /// Primal pricing: the nonbasic, unfixed column whose reduced cost
    /// improves the objective by the most (under Bland's rule the first
    /// that improves it at all), and the direction it moves. It reads the
    /// kept scores (see [`score`]); the entering column is the first that
    /// attains the maximum ([`first_max`]), which is the column a scan that
    /// skips ineligible columns and keeps the first best picks.
    #[expect(
        clippy::indexing_slicing,
        reason = "scratch, scores and dj hold at least n_cols slots and the position found is \
                  below n_cols"
    )]
    fn price(&mut self, bland: bool) -> Option<(usize, f64)> {
        let n = self.n_cols;
        if cfg!(debug_assertions) {
            let fresh = &mut self.scratch[..n];
            score_columns(
                &self.state[..n],
                (&self.lb[..n], &self.ub[..n]),
                &self.dj[..n],
                fresh,
            );
            let same = |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits();
            debug_assert!(
                fresh.iter().zip(&self.scores[..n]).all(same),
                "a kept pricing score went stale"
            );
        }
        let scores = &self.scores[..n];
        // An eligible score exceeds COST_TOL > 0.0, so 0.0 stands for none.
        let j = if bland {
            scores.iter().position(|&s| s > 0.0)
        } else {
            self.width.run(move || first_max(scores, 0.0))
        }?;
        // Only a column at its lower bound or free rises, and only when
        // its reduced cost is positive; any other eligible column falls.
        Some((j, if self.dj[j] > COST_TOL { 1.0 } else { -1.0 }))
    }

    /// The dual simplex's leaving row: the row whose basic value violates a
    /// bound the most (the first such row on a tie), or under Bland's rule
    /// the violated row whose basic column has the lowest index; `None`
    /// when no violation exceeds `FEAS_TOL`. The violations go to
    /// `scratch` in one select pass ([`row_violations`]).
    #[expect(
        clippy::indexing_slicing,
        reason = "basis and x_basic hold m slots, scratch at least n_cols >= m, and basis entries \
                  are columns below n_cols, the length of lb and ub"
    )]
    fn leaving_row(&mut self, bland: bool) -> Option<usize> {
        if bland {
            let mut leave: Option<usize> = None;
            for i in 0..self.m {
                let b = self.basis[i];
                let (v, _) = violation(self.x_basic[i], self.lb[b], self.ub[b]);
                if v > FEAS_TOL && leave.is_none_or(|r| b < self.basis[r]) {
                    leave = Some(i);
                }
            }
            return leave;
        }
        let m = self.m;
        let (x_basic, basis) = (&self.x_basic[..m], &self.basis[..m]);
        let bounds = (&self.lb[..], &self.ub[..]);
        let violations = &mut self.scratch[..m];
        self.width.run(move || {
            row_violations(x_basic, basis, bounds, violations);
            first_max(violations, FEAS_TOL)
        })
    }

    /// Gaussian elimination step making column `j` a unit vector at row `r`;
    /// `col` holds column `j` as the iteration gathered it. Returns how
    /// many nonzeros the pivot row has.
    ///
    /// The pivot row is scaled once and its nonzeros gathered, without a
    /// branch, as their columns in `nz` and their values packed in
    /// `scratch`; the other rows and `dj` are then updated at those columns
    /// only (see [`eliminate`]).
    #[expect(
        clippy::indexing_slicing,
        reason = "r < m and j < n_cols come straight from the caller's ratio test; the matrix \
                  holds m rows of n_cols cells (cell (i, k) at i * n_cols + k < m * n_cols), \
                  rhs/dj/col are allocated to match, and nz/scratch hold at least n_cols slots, \
                  which the count never passes"
    )]
    fn pivot(&mut self, r: usize, j: usize) -> usize {
        let n = self.n_cols;
        let p = self.col[r];
        debug_assert!(p.abs() >= PIVOT_TOL, "pivot too small: {p}");
        let inv = 1.0 / p;
        let pivot_row = &mut self.a[r * n..(r + 1) * n];
        let nonzeros = scale_and_gather(pivot_row, inv, &mut self.nz, &mut self.scratch);
        let (cols, vals) = (&self.nz[..nonzeros], &self.scratch[..nonzeros]);
        self.rhs[r] *= inv;
        let pivot_rhs = self.rhs[r];
        for (i, &factor) in self.col.iter().enumerate() {
            if i != r && is_nonzero(factor) {
                let row = &mut self.a[i * n..(i + 1) * n];
                eliminate(row, factor, cols, vals);
                self.rhs[i] -= factor * pivot_rhs;
            }
        }
        let dfac = self.dj[j];
        if is_nonzero(dfac) {
            eliminate(&mut self.dj, dfac, cols, vals);
        }
        self.dj[j] = 0.0;
        nonzeros
    }
}

/// One column's pricing score: `|d|` for a column that can move the way
/// its reduced cost `d` improves the objective (up from its lower bound or
/// from free when `d > COST_TOL`, down from its upper bound or from free
/// when `d < -COST_TOL`) and is not fixed, `0.0` for any other. A select,
/// so nothing branches on the data; never NaN.
#[inline(always)]
fn score(st: ColState, lo: f64, hi: f64, d: f64) -> f64 {
    let free = st == ColState::FreeZero;
    let up = ((st == ColState::AtLower) | free) & (d > COST_TOL);
    let down = ((st == ColState::AtUpper) | free) & (d < -COST_TOL);
    // Fixed columns (lb == ub) can never make progress.
    if (up | down) & !exact_eq(lo, hi) {
        d.abs()
    } else {
        0.0
    }
}

/// Writes each column's [`score`] to `scores`.
#[inline(always)]
fn score_columns(state: &[ColState], (lb, ub): (&[f64], &[f64]), dj: &[f64], scores: &mut [f64]) {
    let columns = state.iter().zip(dj).zip(lb.iter().zip(ub));
    for (s, ((&st, &d), (&lo, &hi))) in scores.iter_mut().zip(columns) {
        *s = score(st, lo, hi, d);
    }
}

/// The first index at which `values` attains its maximum, if that maximum
/// exceeds `floor`: the index a left-to-right scan keeping the first best
/// finds. Four lanes each keep their greatest value and the first chunk of
/// four that held it (a strict `>`, so a NaN never enters); the lowest
/// index among the lanes at the overall maximum stands unless the tail
/// past the last whole chunk holds a greater value.
#[inline(always)]
fn first_max(values: &[f64], floor: f64) -> Option<usize> {
    let mut best = [floor; 4];
    // Lane k's best so far is at index 4 * at[k] + k.
    let mut at = [u64::MAX; 4];
    let chunks = values.chunks_exact(4);
    let tail = chunks.remainder();
    let tail_start = values.len() - tail.len();
    for (c, chunk) in (0u64..).zip(chunks) {
        for ((b, a), &v) in best.iter_mut().zip(at.iter_mut()).zip(chunk) {
            let gt = v > *b;
            *b = if gt { v } else { *b };
            *a = if gt { c } else { *a };
        }
    }
    let mut first = usize::MAX;
    let mut top = fixed_max(best);
    for (k, (&b, &a)) in best.iter().zip(&at).enumerate() {
        if exact_eq(b, top) && a != u64::MAX {
            first = first.min(4 * a as usize + k);
        }
    }
    for (k, &v) in tail.iter().enumerate() {
        if v > top {
            (top, first) = (v, tail_start + k);
        }
    }
    (first < values.len()).then_some(first)
}

/// A basic value's bound violation, with whether it lies below its lower
/// bound: `lb - x` when `x < lb`, otherwise `x - ub`.
#[inline(always)]
fn violation(x: f64, lb: f64, ub: f64) -> (f64, bool) {
    if x < lb {
        (lb - x, true)
    } else {
        (x - ub, false)
    }
}

/// Writes each row's [`violation`] to `out`, the row's basic column
/// `basis[i]` naming its bounds in `lb` and `ub`.
#[expect(
    clippy::indexing_slicing,
    reason = "basis holds columns below the length of lb and ub"
)]
#[inline(always)]
fn row_violations(x_basic: &[f64], basis: &[usize], (lb, ub): (&[f64], &[f64]), out: &mut [f64]) {
    for ((v, &x), &b) in out.iter_mut().zip(x_basic).zip(basis) {
        (*v, _) = violation(x, lb[b], ub[b]);
    }
}

/// `d -= cb * a` for every nonzero cell `a` of `row`: a select, not a
/// branch, and a zero cell leaves `d` as it is (`d - cb * 0.0` could flip
/// a signed zero or make a NaN).
#[inline(always)]
fn subtract_row(dj: &mut [f64], row: &[f64], cb: f64) {
    for (d, &a) in dj.iter_mut().zip(row) {
        *d = if is_nonzero(a) { *d - cb * a } else { *d };
    }
}

/// Moves each basic value `x` along its nonzero cell `alpha` of the
/// entering column to `moved(x, alpha)`; a zero cell leaves `x` as it is.
#[inline(always)]
fn move_basics(x_basic: &mut [f64], col: &[f64], moved: impl Fn(f64, f64) -> f64) {
    for (x, &alpha) in x_basic.iter_mut().zip(col) {
        *x = if is_nonzero(alpha) {
            moved(*x, alpha)
        } else {
            *x
        };
    }
}

/// Writes each column's verdict for the dual ratio test to `out`: 1 when it
/// can move a row's basic variable back to the bound it violates (below
/// its lower bound when `below`), else 0. A column qualifies when it is
/// nonbasic, unfixed, free to move off its bound the way `alpha`'s sign
/// needs, and `|alpha| >= PIVOT_TOL`.
#[inline(always)]
fn movable_verdicts(
    row: &[f64],
    state: &[ColState],
    (lb, ub): (&[f64], &[f64]),
    below: bool,
    out: &mut [usize],
) {
    let columns = row.iter().zip(state).zip(lb.iter().zip(ub));
    for (flag, ((&alpha, &st), (&lo, &hi))) in out.iter_mut().zip(columns) {
        let eligible = (st == ColState::AtLower) & ((alpha < 0.0) == below)
            | (st == ColState::AtUpper) & ((alpha > 0.0) == below)
            | (st == ColState::FreeZero);
        // A NaN `alpha` fails this test where a scan's `< PIVOT_TOL` skip
        // let it through, but its ratio is NaN and could never win.
        *flag = usize::from(eligible & (alpha.abs() >= PIVOT_TOL) & !exact_eq(lo, hi));
    }
}

/// Compacts [`movable_verdicts`]' flags in place into the columns that
/// qualify, in ascending order at the front; returns their count. Every
/// column writes its index at the count and only a qualifying one advances
/// it, so nothing branches on the data; the count never passes the column,
/// so no verdict is overwritten before it is read.
#[expect(
    clippy::indexing_slicing,
    reason = "j is below out.len() and the count never passes j"
)]
fn compact(out: &mut [usize]) -> usize {
    let mut count = 0;
    for j in 0..out.len() {
        let flag = out[j];
        out[count] = j;
        count += flag;
    }
    count
}

/// Scales `row` by `inv` in place and writes its nonzero columns and their
/// values, in ascending order, to the front of `cols` and `vals`; returns
/// their count. As in [`compact`], every cell writes and only a nonzero
/// one advances the count.
#[expect(
    clippy::indexing_slicing,
    reason = "cols and vals hold at least row.len() slots, which the count (at most k) never \
              passes"
)]
fn scale_and_gather(row: &mut [f64], inv: f64, cols: &mut [usize], vals: &mut [f64]) -> usize {
    let mut count = 0;
    for (k, a) in row.iter_mut().enumerate() {
        let v = *a * inv;
        *a = v;
        cols[count] = k;
        vals[count] = v;
        count += usize::from(is_nonzero(v));
    }
    count
}

/// `row -= factor * pivot_row` at the pivot row's nonzero columns `cols`,
/// whose values `vals` holds in the same order; the cells skipped are
/// `x -= factor * 0.0`, which leaves `x` as it is.
#[expect(
    clippy::indexing_slicing,
    reason = "row holds at least n_cols cells and cols holds columns k < n_cols gathered from the \
              pivot row"
)]
#[inline]
fn eliminate(row: &mut [f64], factor: f64, cols: &[usize], vals: &[f64]) {
    for (&k, &v) in cols.iter().zip(vals) {
        row[k] -= factor * v;
    }
}

/// How a phase of the simplex ended.
enum PhaseEnd {
    Optimal,
    Unbounded {
        /// Improving structural ray witnessing the unbounded pivot.
        ray: Vec<f64>,
    },
}

/// Chooses the rest position for a nonbasic column given its bounds.
fn initial_state(lb: f64, ub: f64) -> ColState {
    if lb.is_finite() {
        ColState::AtLower
    } else if ub.is_finite() {
        ColState::AtUpper
    } else {
        ColState::FreeZero
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense, VarKind};

    fn lp(model: &Model) -> LpOutcome {
        Simplex::default().solve(model).expect("lp solve")
    }

    fn assert_optimal(out: &LpOutcome, expect_obj: f64) -> Vec<f64> {
        match out {
            LpOutcome::Optimal {
                objective, values, ..
            } => {
                assert!(
                    (objective - expect_obj).abs() < 1e-6,
                    "objective {objective} != {expect_obj}"
                );
                values.clone()
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn simple_2d_lp() {
        // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18; x,y >= 0.
        // Classic Dantzig example, optimum 36 at (2, 6).
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY, 5.0);
        m.add_constraint("c1", [(x, 1.0)], Sense::Le, 4.0);
        m.add_constraint("c2", [(y, 2.0)], Sense::Le, 12.0);
        m.add_constraint("c3", [(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let v = assert_optimal(&lp(&m), 36.0);
        assert!((v[0] - 2.0).abs() < 1e-6);
        assert!((v[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn upper_bounds_without_rows() {
        // max x + y with x,y in [0, 2] and x + y <= 3 -> 3.
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, 2.0, 1.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 2.0, 1.0);
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Le, 3.0);
        assert_optimal(&lp(&m), 3.0);
    }

    #[test]
    fn equality_constraints_need_phase1() {
        // max x + 2y  s.t. x + y = 5, x - y >= 1, x,y >= 0. Optimum at
        // (3, 2): 7.
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY, 2.0);
        m.add_constraint("sum", [(x, 1.0), (y, 1.0)], Sense::Eq, 5.0);
        m.add_constraint("diff", [(x, 1.0), (y, -1.0)], Sense::Ge, 1.0);
        let v = assert_optimal(&lp(&m), 7.0);
        assert!((v[0] - 3.0).abs() < 1e-6);
        assert!((v[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
        m.add_constraint("hi", [(x, 1.0)], Sense::Ge, 2.0);
        assert!(matches!(lp(&m), LpOutcome::Infeasible { .. }));
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY, 0.0);
        m.add_constraint("c", [(x, 1.0), (y, -1.0)], Sense::Le, 1.0);
        assert!(matches!(lp(&m), LpOutcome::Unbounded { .. }));
    }

    #[test]
    fn no_constraints_bound_flip() {
        // max 2x - y with x in [0,3], y in [1, 5]: x=3, y=1 -> 5.
        let mut m = Model::maximize();
        m.add_var("x", VarKind::Continuous, 0.0, 3.0, 2.0);
        m.add_var("y", VarKind::Continuous, 1.0, 5.0, -1.0);
        let v = assert_optimal(&lp(&m), 5.0);
        assert_eq!(v, vec![3.0, 1.0]);
    }

    #[test]
    fn no_constraints_unbounded() {
        let mut m = Model::maximize();
        m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
        assert!(matches!(lp(&m), LpOutcome::Unbounded { .. }));
    }

    #[test]
    fn negative_lower_bounds() {
        // max -x with x in [-4, 10], x >= -2 via constraint -> x = -2, obj 2.
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, -4.0, 10.0, -1.0);
        m.add_constraint("c", [(x, 1.0)], Sense::Ge, -2.0);
        let v = assert_optimal(&lp(&m), 2.0);
        assert!((v[0] + 2.0).abs() < 1e-6);
    }

    #[test]
    fn free_variable() {
        // max x s.t. x + y <= 4, y >= 1, x free -> with y at 1, x = 3.
        let mut m = Model::maximize();
        let x = m.add_var(
            "x",
            VarKind::Continuous,
            f64::NEG_INFINITY,
            f64::INFINITY,
            1.0,
        );
        let y = m.add_var("y", VarKind::Continuous, 1.0, f64::INFINITY, 0.0);
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
        let v = assert_optimal(&lp(&m), 3.0);
        assert!((v[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // A classically degenerate LP (multiple constraints active at the
        // optimum). Terminates and finds obj = 1.
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY, 0.0);
        m.add_constraint("a", [(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
        m.add_constraint("b", [(x, 1.0), (y, 2.0)], Sense::Le, 1.0);
        m.add_constraint("c", [(x, 1.0)], Sense::Le, 1.0);
        assert_optimal(&lp(&m), 1.0);
    }

    #[test]
    fn duplicate_terms_are_summed() {
        // max x with (0.5x + 0.5x) <= 2 -> 2.
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
        m.add_constraint("dup", [(x, 0.5), (x, 0.5)], Sense::Le, 2.0);
        assert_optimal(&lp(&m), 2.0);
    }

    #[test]
    fn crossed_override_bounds_infeasible() {
        let mut m = Model::maximize();
        m.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
        let out = Simplex::default()
            .solve_with_bounds(&m, &[2.0], &[1.0])
            .unwrap();
        assert!(matches!(out, LpOutcome::Infeasible { .. }));
    }

    #[test]
    fn knapsack_relaxation() {
        // max 10a + 6b + 4c s.t. a+b+c <= 100, 10a+4b+5c <= 600,
        // 2a+2b+6c <= 300 -> optimum 733.33 at (33.33, 66.67, 0).
        let mut m = Model::maximize();
        let a = m.add_var("a", VarKind::Continuous, 0.0, f64::INFINITY, 10.0);
        let b = m.add_var("b", VarKind::Continuous, 0.0, f64::INFINITY, 6.0);
        let c = m.add_var("c", VarKind::Continuous, 0.0, f64::INFINITY, 4.0);
        m.add_constraint("c1", [(a, 1.0), (b, 1.0), (c, 1.0)], Sense::Le, 100.0);
        m.add_constraint("c2", [(a, 10.0), (b, 4.0), (c, 5.0)], Sense::Le, 600.0);
        m.add_constraint("c3", [(a, 2.0), (b, 2.0), (c, 6.0)], Sense::Le, 300.0);
        let v = assert_optimal(&lp(&m), 2200.0 / 3.0);
        assert!((v[0] - 100.0 / 3.0).abs() < 1e-4);
        assert!((v[1] - 200.0 / 3.0).abs() < 1e-4);
        assert!(v[2].abs() < 1e-6);
    }

    #[test]
    fn eq_row_with_zero_residual_uses_slack() {
        // x starts at lb=0 and the Eq row has rhs 0, so the slack absorbs it
        // without an artificial.
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Continuous, 0.0, 5.0, 1.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 5.0, -1.0);
        m.add_constraint("eq", [(x, 1.0), (y, -1.0)], Sense::Eq, 0.0);
        // max x - y with x == y -> any x=y gives 0.
        assert_optimal(&lp(&m), 0.0);
    }

    #[test]
    fn larger_random_like_lp_is_consistent() {
        // A structured 20-var LP; verify the claimed optimum is feasible and
        // no feasible corner beats it on a coarse grid probe.
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..20)
            .map(|i| {
                m.add_var(
                    format!("x{i}"),
                    VarKind::Continuous,
                    0.0,
                    1.0,
                    1.0 + (i as f64) * 0.1,
                )
            })
            .collect();
        // Budget: sum <= 10, pairwise caps.
        m.add_constraint(
            "budget",
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            Sense::Le,
            10.0,
        );
        for w in vars.chunks(2) {
            m.add_constraint("pair", [(w[0], 1.0), (w[1], 1.0)], Sense::Le, 1.5);
        }
        let out = lp(&m);
        let LpOutcome::Optimal {
            objective, values, ..
        } = out
        else {
            panic!("expected optimal");
        };
        assert!(m.is_feasible(&values, 1e-6));
        // The greedy upper bound: take the most valuable half of each pair.
        assert!(objective <= 10.0 * 2.9 + 1e-6);
        assert!(objective > 15.0);
    }

    /// A seeded LP with Le, Ge and Eq rows over boxed variables, some of
    /// them resting at a nonzero lower bound: it needs artificials, bound
    /// flips and both phases.
    fn mixed_lp(n: usize, rows: usize, seed: u64) -> Model {
        let mut state = seed;
        let mut draw = move |k: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % k
        };
        let mut m = Model::maximize();
        // `inner[i]` is a point strictly inside variable i's box; every row
        // is written to hold there, so the LP is feasible.
        let mut inner = Vec::with_capacity(n);
        let vars: Vec<_> = (0..n)
            .map(|i| {
                let lb = (draw(3) == 0) as u64 as f64;
                let ub = lb + 1.0 + draw(4) as f64;
                inner.push(lb + 0.5);
                let obj = draw(9) as f64 - 2.0;
                m.add_var(format!("x{i}"), VarKind::Continuous, lb, ub, obj)
            })
            .collect();
        for r in 0..rows {
            let mut terms = Vec::new();
            for &v in &vars {
                if draw(4) == 0 {
                    terms.push((v, 1.0 + draw(3) as f64));
                }
            }
            let at_inner = fixed_dot(terms.iter().map(|&(v, a)| (a, inner[v.index()])));
            let (sense, rhs) = match r % 4 {
                0 => (Sense::Ge, at_inner - 0.25),
                1 => (Sense::Eq, at_inner),
                _ => (Sense::Le, at_inner + draw(3) as f64),
            };
            m.add_constraint(format!("r{r}"), terms, sense, rhs);
        }
        m
    }

    /// Every float of an outcome by its bits, so `-0.0 != 0.0` here.
    fn bits(out: &LpOutcome) -> (u8, Vec<u64>) {
        let of = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match out {
            LpOutcome::Optimal {
                objective,
                values,
                duals,
            } => (
                0,
                [vec![objective.to_bits()], of(values), of(duals)].concat(),
            ),
            LpOutcome::Infeasible { farkas } => (1, of(farkas.as_deref().unwrap_or(&[]))),
            LpOutcome::Unbounded { ray } => (2, of(ray.as_deref().unwrap_or(&[]))),
        }
    }

    /// Seeded inputs for the kernel equivalence tests: values mix the
    /// edge cases a scan must treat alike at every width with plain ones.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            // SplitMix64.
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, k: usize) -> usize {
            (self.next() % k as u64) as usize
        }

        fn value(&mut self) -> f64 {
            const EDGES: [f64; 22] = [
                0.0,
                -0.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                5e-324,
                -5e-324,
                f64::MIN_POSITIVE / 2.0,
                1e300,
                -1e300,
                1e-300,
                -1e-300,
                COST_TOL,
                -COST_TOL,
                PIVOT_TOL,
                -PIVOT_TOL,
                FEAS_TOL,
                -FEAS_TOL,
                1.0,
                -1.0,
                2.0,
                0.5,
            ];
            match self.below(3) {
                0 => EDGES[self.below(EDGES.len())],
                // Small integers tie often, which the picks must break alike.
                1 => self.below(7) as f64 - 3.0,
                _ => (self.next() >> 11) as f64 / (1u64 << 50) as f64 - 4.0,
            }
        }

        fn values(&mut self, n: usize) -> Vec<f64> {
            (0..n).map(|_| self.value()).collect()
        }

        fn states(&mut self, n: usize) -> Vec<ColState> {
            const ALL: [ColState; 4] = [
                ColState::Basic,
                ColState::AtLower,
                ColState::AtUpper,
                ColState::FreeZero,
            ];
            (0..n).map(|_| ALL[self.below(4)]).collect()
        }

        /// Bounds per column, about one column in four fixed.
        fn bounds(&mut self, n: usize) -> (Vec<f64>, Vec<f64>) {
            let lb = self.values(n);
            let ub = lb
                .iter()
                .map(|&lo| if self.below(4) == 0 { lo } else { self.value() })
                .collect();
            (lb, ub)
        }
    }

    fn to_bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The AVX2 instantiation, or `None` (with a note) on a host without it.
    fn wide() -> Option<Width> {
        let host = Width::host();
        if !host.is_wide() {
            eprintln!("note: no AVX2 on this host; only the portable kernels ran");
        }
        host.is_wide().then_some(host)
    }

    /// Each case of an equivalence test: every slice length from 0 to 130,
    /// three seeds each.
    fn cases() -> impl Iterator<Item = (usize, Draw)> {
        (0..=130).flat_map(|n| (0..3).map(move |seed| (n, Draw(seed * 1000 + n as u64))))
    }

    /// The pick a left-to-right scan makes: the first index of the largest
    /// value above `floor`.
    fn scan_first_max(values: &[f64], floor: f64) -> Option<usize> {
        let mut pick: Option<(usize, f64)> = None;
        for (i, &v) in values.iter().enumerate() {
            if v > floor && pick.is_none_or(|(_, best)| v > best) {
                pick = Some((i, v));
            }
        }
        pick.map(|(i, _)| i)
    }

    #[test]
    fn pricing_scans_agree_at_every_width() {
        let Some(wide) = wide() else { return };
        let portable = Width::PORTABLE;
        for (n, mut draw) in cases() {
            let state = draw.states(n);
            let (lb, ub) = draw.bounds(n);
            let dj = draw.values(n);
            let pick = |w: Width| {
                let mut scores = vec![f64::NAN; n];
                w.run(|| score_columns(&state, (&lb, &ub), &dj, &mut scores));
                let j = w.run(|| first_max(&scores, 0.0));
                (to_bits(&scores), j)
            };
            let (scores, j) = pick(portable);
            assert_eq!((scores.clone(), j), pick(wide), "n = {n}");
            let scores: Vec<f64> = scores.into_iter().map(f64::from_bits).collect();
            assert_eq!(j, scan_first_max(&scores, 0.0), "n = {n}");
            // The pick alone, over values with NaN and a floor of any sign.
            let values = draw.values(n);
            let floor = draw.value();
            let floor = if floor.is_nan() { 0.0 } else { floor };
            let first = |w: Width| w.run(|| first_max(&values, floor));
            assert_eq!(first(portable), first(wide), "n = {n}");
            assert_eq!(first(portable), scan_first_max(&values, floor), "n = {n}");
        }
    }

    #[test]
    fn dual_ratio_verdicts_agree_at_every_width() {
        let Some(wide) = wide() else { return };
        for (n, mut draw) in cases() {
            let row = draw.values(n);
            let state = draw.states(n);
            let (lb, ub) = draw.bounds(n);
            for below in [false, true] {
                let verdicts = |w: Width| {
                    let mut out = vec![7; n];
                    w.run(|| movable_verdicts(&row, &state, (&lb, &ub), below, &mut out));
                    out
                };
                assert_eq!(verdicts(Width::PORTABLE), verdicts(wide), "n = {n}");
            }
        }
    }

    #[test]
    fn reduced_cost_refresh_agrees_at_every_width() {
        let Some(wide) = wide() else { return };
        for (n, mut draw) in cases() {
            let (dj, row, cb) = (draw.values(n), draw.values(n), draw.value());
            let refreshed = |w: Width| {
                let mut out = dj.clone();
                w.run(|| subtract_row(&mut out, &row, cb));
                to_bits(&out)
            };
            assert_eq!(refreshed(Width::PORTABLE), refreshed(wide), "n = {n}");
        }
    }

    #[test]
    fn leaving_row_scan_agrees_at_every_width() {
        let Some(wide) = wide() else { return };
        for (m, mut draw) in cases() {
            let n = m + 1 + draw.below(8);
            let (lb, ub) = draw.bounds(n);
            let x_basic = draw.values(m);
            let basis: Vec<usize> = (0..m).map(|_| draw.below(n)).collect();
            let scan = |w: Width| {
                let mut out = vec![f64::NAN; m];
                let r = w.run(|| {
                    row_violations(&x_basic, &basis, (&lb, &ub), &mut out);
                    first_max(&out, FEAS_TOL)
                });
                (to_bits(&out), r)
            };
            let (violations, r) = scan(Width::PORTABLE);
            assert_eq!((violations.clone(), r), scan(wide), "m = {m}");
            let violations: Vec<f64> = violations.into_iter().map(f64::from_bits).collect();
            assert_eq!(r, scan_first_max(&violations, FEAS_TOL), "m = {m}");
        }
    }

    #[test]
    fn basic_value_updates_agree_at_every_width() {
        let Some(wide) = wide() else { return };
        for (m, mut draw) in cases() {
            let (x_basic, col) = (draw.values(m), draw.values(m));
            let (dir, t) = (if draw.below(2) == 0 { 1.0 } else { -1.0 }, draw.value());
            let moved = |w: Width, primal: bool| {
                let mut out = x_basic.clone();
                if primal {
                    w.run(|| move_basics(&mut out, &col, |x, alpha| x + -alpha * dir * t));
                } else {
                    w.run(|| move_basics(&mut out, &col, |x, alpha| x - alpha * t));
                }
                to_bits(&out)
            };
            for primal in [true, false] {
                assert_eq!(
                    moved(Width::PORTABLE, primal),
                    moved(wide, primal),
                    "m = {m}"
                );
            }
        }
    }

    /// A primal phase of more than `REFRESH_PERIOD` pivots recomputes its
    /// reduced costs midway, and in a debug build `price` checks every kept
    /// score against a fresh pass: this LP holds the rescore after a refresh.
    #[test]
    fn a_long_primal_phase_rescores_after_its_refresh() {
        let model = mixed_lp(100, 60, 0);
        let simplex = Simplex::default();
        let LpOutcome::Optimal { values, .. } = simplex.solve(&model).unwrap() else {
            panic!("expected optimal");
        };
        assert!(model.is_feasible(&values, 1e-6));
        // Phase 2's start and the optimum refresh once each; any more came
        // inside a phase.
        assert!(simplex.refactorizations() > 2, "{simplex:?}");
    }

    #[test]
    fn reused_workspace_matches_a_fresh_one_bit_for_bit() {
        let large = mixed_lp(40, 30, 7);
        let small = mixed_lp(9, 6, 11);
        let mut infeasible = Model::maximize();
        let x = infeasible.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
        let y = infeasible.add_var("y", VarKind::Continuous, 0.0, 1.0, 1.0);
        infeasible.add_constraint("hi", [(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        infeasible.add_constraint("lo", [(x, 1.0), (y, -1.0)], Sense::Le, 0.5);
        let mut unbounded = Model::maximize();
        let x = unbounded.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
        let y = unbounded.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY, 0.0);
        unbounded.add_constraint("c", [(x, 1.0), (y, -1.0)], Sense::Le, 1.0);
        unbounded.add_constraint("d", [(x, 1.0), (y, 1.0)], Sense::Ge, 1.0);

        let bounds =
            |m: &Model| -> (Vec<f64>, Vec<f64>) { m.vars().iter().map(|v| (v.lb, v.ub)).unzip() };
        // The large model again, four variables fixed as a dive fixes them.
        let (mut fixed_lb, mut fixed_ub) = bounds(&large);
        for j in [0, 7, 19, 33] {
            fixed_lb[j] += 0.5;
            fixed_ub[j] = fixed_lb[j];
        }
        let mut calls: Vec<(&Model, Vec<f64>, Vec<f64>)> =
            [&large, &small, &infeasible, &unbounded]
                .into_iter()
                .map(|m| (m, bounds(m).0, bounds(m).1))
                .collect();
        calls.push((&large, fixed_lb, fixed_ub));

        let reused = Simplex::default();
        let mut storage = None;
        let mut kinds = Vec::new();
        for (model, lb, ub) in &calls {
            let before = (reused.iterations(), reused.refactorizations());
            let got = reused.solve_with_bounds(model, lb, ub).unwrap();
            let fresh = Simplex::default();
            let want = fresh.solve_with_bounds(model, lb, ub).unwrap();
            assert_eq!(bits(&got), bits(&want));
            assert_eq!(reused.iterations() - before.0, fresh.iterations());
            assert_eq!(
                reused.refactorizations() - before.1,
                fresh.refactorizations()
            );
            kinds.push(bits(&got).0);
            // The matrix is allocated by the first LP, at the model's upper
            // bound, and never again: later LPs are no larger.
            let work = reused.work.borrow();
            let (m, n) = (large.num_constraints(), large.num_vars());
            assert!(work.a.capacity() >= m * (n + 2 * m));
            let held = (work.a.as_ptr(), work.a.capacity());
            assert_eq!(*storage.get_or_insert(held), held);
        }
        // The calls are what they claim to be, artificial counts included.
        assert_eq!(kinds, vec![0, 0, 1, 2, 0]);
        assert!(large.num_constraints() > small.num_constraints());
        // A clone keeps the limit and the counters and leaves the storage.
        let copy = reused.clone();
        assert_eq!(copy.iterations(), reused.iterations());
        assert_eq!(copy.refactorizations(), reused.refactorizations());
        assert_eq!(copy.work.borrow().a.capacity(), 0);
        let (lb, ub) = bounds(&small);
        let again = copy.solve_with_bounds(&small, &lb, &ub).unwrap();
        assert_eq!(
            bits(&again),
            bits(&Simplex::default().solve(&small).unwrap())
        );
    }
}
