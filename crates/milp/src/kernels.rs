//! Fixed-order float reduction kernels: the solver's only sanctioned home
//! for float accumulation and float equality, and the switch that runs the
//! simplex's scans at the host's vector width.
//!
//! Same-seed byte-identity is the workspace's core quality contract, and
//! float arithmetic is where it quietly dies: `(a + b) + c != a + (b + c)`
//! in general, so any reduction whose order is not pinned — an iterator
//! chain the optimiser may vectorise in one profile and not the other —
//! can change the objective value, the pivot choice, and ultimately the
//! placement, and the debug and release digests stop agreeing. `srclint`
//! code `L009` therefore forbids `f64`/`f32` `==`/`!=` and iterator
//! `sum`/`product`/`fold` reductions throughout the solver crates
//! (`milp`, `core`, `cluster`) **except in this file**. Everything here
//! reduces left-to-right, sequentially, in the caller's iteration order;
//! callers are responsible for iterating a deterministically-ordered
//! container (which the root `clippy.toml` guarantees by banning hash
//! maps everywhere).
//!
//! One file, then, holds the summation order and the exact zero and
//! equality tests the golden digests pin, and a change to any is a change
//! here.
//!
//! `Width` runs a scan either as compiled for the build's baseline CPU
//! or, when the host has AVX2, the same source compiled for AVX2. The
//! simplex's branch-free scans go through it: pricing's scores and its
//! first-maximum pick, the dual ratio test's verdicts, the reduced-cost
//! refresh, the dual's leaving-row scan and the basic-value update along
//! the entering column. Their bits cannot differ between the two: each
//! element gets the same IEEE operations in the same order, a reduction's
//! four lanes are fixed in the source, and Rust never contracts
//! `a * b + c` into a fused multiply-add at any feature level.

/// Left-to-right sequential sum. The reduction order is the iterator
/// order, always — never a tree, never completion order.
#[inline]
pub fn fixed_sum(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = 0.0;
    for x in xs {
        acc += x;
    }
    acc
}

/// Left-to-right sequential dot product `Σ aᵢ·xᵢ`, one multiply and one
/// add per term in iterator order.
#[inline]
pub fn fixed_dot(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let mut acc = 0.0;
    for (a, x) in pairs {
        acc += a * x;
    }
    acc
}

/// Left-to-right maximum with `-∞` identity. `max` is order-insensitive
/// for totally-ordered inputs, but routing it through the kernel keeps
/// the audit surface single and makes the NaN policy explicit: NaN
/// inputs are skipped (they never poison the reduction).
#[inline]
pub fn fixed_max(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = f64::NEG_INFINITY;
    for x in xs {
        if x > acc {
            acc = x;
        }
    }
    acc
}

/// Exact-bit zero test for sparsity decisions.
///
/// This is deliberately `== 0.0`, not a tolerance: sparsity structure
/// (which cells of the tableau a pivot or a refresh skips) must match the
/// bits actually stored, or a skipped update would leave a value the dense
/// loop would have changed. Tolerance belongs in *feasibility*
/// comparisons (`FEAS_TOL` in the simplex), never in structure tests.
#[inline]
pub fn is_zero(x: f64) -> bool {
    x == 0.0
}

/// Exact-bit nonzero test; see [`is_zero`] for why this is not a
/// tolerance check.
#[inline]
pub fn is_nonzero(x: f64) -> bool {
    x != 0.0
}

/// Exact float equality, for bound tests: a column is fixed when its two
/// bounds are equal, and a re-solve's bound is unchanged when it equals
/// the held one. Like [`is_zero`], a structure test, so it compares the
/// stored values (`-0.0 == 0.0`, `NaN` equals nothing), not a tolerance.
#[inline]
pub fn exact_eq(a: f64, b: f64) -> bool {
    a == b
}

/// Which instantiation of a scan a solver runs: the build's baseline one,
/// or the same source compiled for AVX2. The host picks it, once per
/// solver ([`Width::host`]); nothing else can ask for the wide one.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Width {
    /// Set only by [`Width::host`], after it saw AVX2 on this CPU.
    avx2: bool,
}

impl Width {
    /// The baseline instantiation, which every host runs.
    #[cfg(test)]
    pub(crate) const PORTABLE: Width = Width { avx2: false };

    /// The widest instantiation this CPU runs.
    pub(crate) fn host() -> Width {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Width { avx2 }
    }

    /// Whether this is the AVX2 instantiation.
    #[cfg(test)]
    pub(crate) fn is_wide(self) -> bool {
        self.avx2
    }

    /// Runs `scan` at this width. The scan's kernels are `#[inline(always)]`
    /// so that they are compiled into both call sites below.
    #[inline(always)]
    #[allow(
        unsafe_code,
        reason = "`avx2` is true only in a `Width` that `Width::host` built after \
                  `is_x86_feature_detected!(\"avx2\")` held"
    )]
    pub(crate) fn run<R>(self, scan: impl FnOnce() -> R) -> R {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `avx2` is true only in a `Width` that `Width::host`
            // built after `is_x86_feature_detected!("avx2")` held.
            return unsafe { with_avx2(scan) };
        }
        scan()
    }
}

/// `scan` compiled for AVX2; only [`Width::run`] calls it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn with_avx2<R>(scan: impl FnOnce() -> R) -> R {
    scan()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_sum_is_left_to_right() {
        // A catastrophic-cancellation probe: left-to-right gives a
        // specific, reproducible answer (which is the point — not that
        // the answer is the mathematically best one).
        let xs = [1e16, 1.0, -1e16];
        assert_eq!(fixed_sum(xs), 0.0);
        let ys = [1e16, -1e16, 1.0];
        assert_eq!(fixed_sum(ys), 1.0);
    }

    #[test]
    fn fixed_dot_matches_manual_loop() {
        let pairs = [(2.0, 3.0), (0.5, 8.0), (-1.0, 4.0)];
        assert_eq!(fixed_dot(pairs), 2.0 * 3.0 + 0.5 * 8.0 - 4.0);
    }

    #[test]
    fn fixed_max_skips_nan_and_has_neg_inf_identity() {
        assert_eq!(fixed_max([]), f64::NEG_INFINITY);
        assert_eq!(fixed_max([f64::NAN, 2.0, 1.0]), 2.0);
        assert_eq!(fixed_max([f64::NAN]), f64::NEG_INFINITY);
    }

    #[test]
    fn zero_tests_are_exact_bit() {
        assert!(is_zero(0.0));
        assert!(is_zero(-0.0));
        assert!(is_nonzero(1e-300));
        // NaN != 0.0 is true: NaN counts as nonzero (it is certainly not
        // a structural zero to be skipped).
        assert!(is_nonzero(f64::NAN));
    }

    #[test]
    fn exact_eq_compares_values() {
        assert!(exact_eq(2.5, 2.5));
        assert!(exact_eq(-0.0, 0.0));
        assert!(exact_eq(f64::INFINITY, f64::INFINITY));
        assert!(!exact_eq(1.0, 1.0 + f64::EPSILON));
        assert!(!exact_eq(f64::NAN, f64::NAN));
    }
}
