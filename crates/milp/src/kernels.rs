//! Fixed-order float reduction kernels: the solver's only sanctioned home
//! for float accumulation and float equality.
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
//! container (which `L004` guarantees by banning hash maps in these
//! crates).
//!
//! One file, then, holds the summation order and the exact zero and
//! equality tests the golden digests pin, and a change to any is a change
//! here. (The
//! thread-pool sharded solver this file once awaited is retired; nothing
//! in the program runs concurrently, which `L010` holds.)

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

/// Left-to-right sequential dot product `Σ aᵢ·xᵢ`, one fused
/// multiply-accumulate per term in iterator order.
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
/// (which coefficients exist, which eta-file entries apply) must match
/// the bits actually stored, or skipped updates would desynchronize the
/// factorization from the matrix. Tolerance belongs in *feasibility*
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
