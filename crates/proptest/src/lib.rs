//! Vendored, offline subset of the `proptest` crate API.
//!
//! The build environment has no network access and no crates.io mirror, so
//! the property-testing surface this workspace uses is implemented here
//! behind the same paths: the [`proptest!`] macro, [`strategy::Strategy`]
//! with `prop_map`/`prop_flat_map`/`prop_recursive`, range/tuple/`Just`
//! strategies, `collection::{vec, btree_set}`, `option::of`, `bool::ANY`,
//! `prop_oneof!`, and the `prop_assert*` macros.
//!
//! Differences from upstream, by design:
//!
//! - **No shrinking.** A failing case panics with the generated input's
//!   `Debug` rendering; inputs here are small enough to read unshrunk.
//! - **Deterministic by default.** Case `i` of test `t` derives its RNG
//!   seed from `hash(t) ^ i`, so CI failures reproduce locally without a
//!   persistence file. Set `PROPTEST_CASES` to override the case count.

#![allow(
    clippy::disallowed_types,
    reason = "vendored API stub: upstream's `BoxedStrategy` shares its strategy through an `Arc`"
)]

pub mod strategy;
pub mod test_runner;

pub use strategy::{BoxedStrategy, Just, Strategy};
pub use test_runner::{ProptestConfig, TestCaseError, TestRunner};

/// Collection strategies (`proptest::collection::*`).
pub mod collection {
    use super::strategy::{SizeRange, Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::fmt::Debug;

    /// Strategy for `Vec<T>` with sizes drawn from `size`.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Generates vectors of values from `elem` with a length in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<T>` with target sizes drawn from `size`.
    #[derive(Clone)]
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Generates ordered sets of values from `elem`. When the element
    /// domain is too small to reach the drawn target size, the set is as
    /// large as distinct draws allow (mirroring upstream's behaviour of
    /// not looping forever on saturated domains).
    pub fn btree_set<S>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord + Debug,
    {
        BTreeSetStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord + Debug,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.sample(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0usize;
            while out.len() < target && attempts < target * 10 + 16 {
                out.insert(self.elem.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// Option strategies (`proptest::option::*`).
pub mod option {
    use super::strategy::{Strategy, TestRng};
    use rand::RngExt;

    /// Strategy for `Option<T>`: `None` half the time.
    #[derive(Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// Wraps values of `inner` in `Some`, interleaved with `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.random::<bool>() {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Boolean strategies (`proptest::bool::*`).
pub mod bool {
    use super::strategy::{Strategy, TestRng};
    use rand::RngExt;

    /// Strategy yielding `true` and `false` uniformly.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The uniform boolean strategy.
    #[allow(non_upper_case_globals)]
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.random::<bool>()
        }
    }
}

/// Everything tests normally import.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespaced strategy modules (`prop::bool::ANY` etc.).
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::option;
    }
}

/// Runs each `#[test] fn name(binding in strategy, ...) { body }` against
/// many generated inputs. Supports an optional leading
/// `#![proptest_config(expr)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! {
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr); $($(#[$meta:meta])* fn $name:ident(
        $($pat:pat in $strat:expr),+ $(,)?
    ) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let runner = $crate::test_runner::TestRunner::new(config, stringify!($name));
                for case in 0..runner.cases() {
                    let mut rng = runner.rng_for_case(case);
                    let values = ($($crate::strategy::Strategy::generate(&($strat), &mut rng),)+);
                    let rendered = format!("{:#?}", values);
                    let ($($pat,)+) = values;
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest `{}` failed at case {}/{}: {}\ninput: {}",
                            stringify!($name), case, runner.cases(), e, rendered,
                        );
                    }
                }
            }
        )*
    };
}

/// Fails the enclosing property with a message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the enclosing property unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        match (&$a, &$b) {
            (a_val, b_val) => $crate::prop_assert!(
                *a_val == *b_val,
                "assertion failed: `{:?}` == `{:?}`", a_val, b_val
            ),
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        match (&$a, &$b) {
            (a_val, b_val) => $crate::prop_assert!(
                *a_val == *b_val,
                "assertion failed: `{:?}` == `{:?}`: {}", a_val, b_val, format!($($fmt)+)
            ),
        }
    };
}

/// Fails the enclosing property unless the operands compare unequal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        match (&$a, &$b) {
            (a_val, b_val) => $crate::prop_assert!(
                *a_val != *b_val,
                "assertion failed: `{:?}` != `{:?}`",
                a_val,
                b_val
            ),
        }
    };
}

/// Uniform choice among several strategies with the same value type.
/// Upstream's per-arm `weight =>` syntax is not supported (unused here).
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($s),)+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let runner = TestRunner::new(ProptestConfig::with_cases(200), "bounds");
        let strat = (1u32..5, -3i64..3, 0.5..2.0f64);
        for case in 0..runner.cases() {
            let mut rng = runner.rng_for_case(case);
            let (a, b, c) = strat.generate(&mut rng);
            assert!((1..5).contains(&a));
            assert!((-3..3).contains(&b));
            assert!((0.5..2.0).contains(&c));
        }
    }

    #[test]
    fn generation_is_deterministic_per_case() {
        let runner = TestRunner::new(ProptestConfig::default(), "det");
        let strat = crate::collection::vec(0u64..100, 0..8);
        let mut rng1 = runner.rng_for_case(3);
        let mut rng2 = runner.rng_for_case(3);
        assert_eq!(strat.generate(&mut rng1), strat.generate(&mut rng2));
    }

    #[test]
    fn oneof_and_recursive_cover_alternatives() {
        #[derive(Debug, Clone, PartialEq)]
        enum T {
            Leaf(u32),
            Node(Vec<T>),
        }
        let leaf = (0u32..10).prop_map(T::Leaf);
        let tree = leaf.prop_recursive(3, 16, 3, |inner| {
            crate::collection::vec(inner, 1..3).prop_map(T::Node)
        });
        let runner = TestRunner::new(ProptestConfig::with_cases(64), "rec");
        let mut saw_leaf = false;
        let mut saw_node = false;
        for case in 0..runner.cases() {
            let mut rng = runner.rng_for_case(case);
            match tree.generate(&mut rng) {
                T::Leaf(v) => {
                    assert!(v < 10);
                    saw_leaf = true;
                }
                T::Node(children) => {
                    assert!(!children.is_empty());
                    saw_node = true;
                }
            }
        }
        assert!(saw_leaf && saw_node, "both levels should be exercised");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_end_to_end(v in crate::collection::vec(0u8..10, 1..6), flag in prop::bool::ANY) {
            prop_assert!(!v.is_empty());
            prop_assert!(v.iter().all(|&x| x < 10));
            prop_assert_eq!(flag, flag);
        }

        #[test]
        fn options_are_mixed(o in prop::option::of(1u32..4)) {
            if let Some(v) = o {
                prop_assert!((1..4).contains(&v));
            }
        }
    }
}
