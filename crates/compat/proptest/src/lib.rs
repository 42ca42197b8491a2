//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace vendors
//! a miniature property-testing framework exposing the subset of the
//! `proptest` API the test suites use: the [`proptest!`] / [`prop_oneof!`] /
//! [`prop_assert!`] / [`prop_assert_eq!`] macros, [`Strategy`] with
//! `prop_map`, [`Just`](strategy::Just), `any::<T>()`, `collection::vec`, range and tuple
//! strategies, [`ProptestConfig`], and [`TestCaseError`].
//!
//! Cases are generated from a deterministic per-test seed (derived from the
//! test name) so failures are reproducible; there is no shrinking — the
//! failing case index and seed are reported instead.

#![forbid(unsafe_code)]

/// Deterministic RNG handed to strategies.
pub mod test_runner {
    use std::fmt;

    /// SplitMix64-based generator used to drive strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator for one test case.
        pub fn deterministic(test_seed: u64, case: u32) -> Self {
            Self {
                state: test_seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(u64::from(case).wrapping_mul(0xbf58_476d_1ce4_e5b9))
                    | 1,
            }
        }

        /// Next raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            assert!(n > 0, "below(0)");
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }

        /// Uniform draw in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Per-block test configuration (`#![proptest_config(...)]`).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }

        /// Case count, honoring the `PROPTEST_CASES` env override.
        pub fn resolved_cases(&self) -> u32 {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(self.cases)
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Failure raised by `prop_assert*` inside a property body.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// The property is false for the generated input.
        Fail(String),
    }

    impl TestCaseError {
        /// Creates a failure with the given reason.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "{r}"),
            }
        }
    }

    /// FNV-1a hash of a test name, for per-test seed derivation.
    pub fn seed_of(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

use test_runner::TestRng;

/// Value-generation strategies.
pub mod strategy {
    use super::TestRng;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Boxed sampling closure, one arm of a [`Union`].
    pub type ArmFn<V> = Box<dyn Fn(&mut TestRng) -> V>;

    /// Uniform choice between boxed strategies ([`crate::prop_oneof!`]).
    pub struct Union<V> {
        arms: Vec<ArmFn<V>>,
    }

    impl<V> Union<V> {
        /// Builds a union from sampling closures.
        pub fn new(arms: Vec<ArmFn<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Self { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn sample(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.arms.len() as u64) as usize;
            (self.arms[i])(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (self.end - self.start) * rng.unit_f64()
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);

    /// Strategy for `any::<T>()`: the type's full domain.
    pub struct Any<T> {
        _marker: PhantomData<T>,
    }

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Self {
                _marker: PhantomData,
            }
        }
    }

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i32, i64);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any::default()
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with length drawn from `len`.
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.len.end.saturating_sub(self.len.start).max(1) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// Vector strategy: `vec(element_strategy, min..max)`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }
}

/// Everything a property test module needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

pub use strategy::Strategy;
pub use test_runner::{ProptestConfig, TestCaseError};

/// Asserts a condition inside a property body, failing the case (not
/// panicking directly) so the harness can report the case seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    l,
                    r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    }};
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $({
                let s = $strat;
                ::std::boxed::Box::new(move |rng: &mut $crate::test_runner::TestRng| {
                    $crate::strategy::Strategy::sample(&s, rng)
                }) as ::std::boxed::Box<dyn Fn(&mut $crate::test_runner::TestRng) -> _>
            }),+
        ])
    };
}

/// Declares property tests.
///
/// Supports the forms the repository uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     #[test]
///     fn prop(x in 0u32..10, flag in any::<bool>()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest! { @cfg ($cfg) $($rest)* }
    };
    (@cfg ($cfg:expr) $(
        #[test]
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let cases = config.resolved_cases();
            let test_seed = $crate::test_runner::seed_of(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..cases {
                let mut __rng = $crate::test_runner::TestRng::deterministic(test_seed, case);
                $(let $pat = $crate::strategy::Strategy::sample(&{ $strat }, &mut __rng);)+
                let mut __case = move || -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::core::result::Result::Ok(())
                };
                if let ::core::result::Result::Err(e) = __case() {
                    panic!(
                        "proptest {} failed at case {case}/{cases} (seed {test_seed:#x}): {e}",
                        stringify!($name),
                    );
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest! { @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn union_and_map_compose() {
        let strat = prop_oneof![
            Just(1u32),
            (10u32..20).prop_map(|x| x * 2),
            collection::vec(0u32..4, 1..4).prop_map(|v| v.len() as u32),
        ];
        let mut rng = TestRng::deterministic(1, 0);
        for _ in 0..100 {
            let v: u32 = Strategy::sample(&strat, &mut rng);
            assert!(v == 1 || (20..40).contains(&v) || (1..4).contains(&v));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn ranges_in_bounds(x in 3u8..9, y in 0u64..100, f in 0.0f64..1.0, b in any::<bool>()) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(y < 100);
            prop_assert!((0.0..1.0).contains(&f));
            let _ = b;
        }

        #[test]
        fn vec_lengths_respected(v in collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn tuple_strategies(t in (0u16..4, any::<bool>(), 1u32..3)) {
            let (a, _b, c) = t;
            prop_assert!(a < 4);
            prop_assert_eq!(c.min(2), c);
        }
    }

    #[test]
    fn prop_assert_returns_err_not_panic() {
        fn body(x: u32) -> Result<(), TestCaseError> {
            prop_assert!(x > 100, "x was {x}");
            Ok(())
        }
        assert!(body(5).is_err());
        assert!(body(500).is_ok());
        fn body_eq(x: u32) -> Result<(), TestCaseError> {
            prop_assert_eq!(x, 7u32);
            Ok(())
        }
        assert!(body_eq(7).is_ok());
        assert!(matches!(body_eq(8), Err(TestCaseError::Fail(_))));
    }
}
