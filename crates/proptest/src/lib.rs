//! Offline, in-tree substitute for `proptest` (the subset this workspace
//! uses): the [`proptest!`] macro, range/tuple/vec strategies, `any::<T>()`,
//! [`prop_assert!`]/[`prop_assert_eq!`] and `ProptestConfig::with_cases`.
//!
//! Differences from upstream, deliberately accepted:
//! * sampling is plain uniform — no shrinking of failing cases (the failing
//!   inputs are printed instead);
//! * case generation is deterministic per test (seeded from the test's
//!   module path and name), so failures always reproduce;
//! * `PROPTEST_CASES` in the environment overrides the case count, like
//!   upstream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod test_runner {
    /// Runner configuration; only `cases` is meaningful here.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Failure raised by `prop_assert!` and friends inside a test body.
    #[derive(Debug)]
    pub struct TestCaseError {
        pub message: String,
    }

    impl TestCaseError {
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError { message: message.into() }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }
}

pub mod strategy {
    use super::StdRng;

    /// A recipe for generating random values of `Self::Value`.
    pub trait Strategy {
        type Value: std::fmt::Debug;
        fn sample(&self, rng: &mut StdRng) -> Self::Value;
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + std::fmt::Debug>(pub T);

    impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }
}

use strategy::Strategy;

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
int_range_strategy!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

macro_rules! tuple_strategy {
    ($($t:ident . $idx:tt),*) => {
        impl<$($t: Strategy),*> Strategy for ($($t,)*) {
            type Value = ($($t::Value,)*);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample(rng),)*)
            }
        }
    };
}
tuple_strategy!(A.0);
tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

/// Types with a canonical "arbitrary value" strategy (`any::<T>()`).
pub trait Arbitrary: Sized + std::fmt::Debug {
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.gen()
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut StdRng) -> u64 {
        rng.gen()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut StdRng) -> u32 {
        rng.gen()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> f64 {
        // finite, sign-symmetric, spanning several orders of magnitude
        let mag: f64 = rng.gen_range(-6.0_f64..6.0);
        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        sign * 10f64.powf(mag)
    }
}

/// Strategy wrapper produced by [`any`].
pub struct Any<T: Arbitrary>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`: `any::<bool>()`, `any::<u64>()`, …
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub mod collection {
    use super::strategy::Strategy;
    use super::StdRng;
    use rand::Rng;

    /// Sizes accepted by [`fn@vec`]: an exact `usize` or a `Range<usize>`.
    pub trait IntoSizeRange {
        fn pick(&self, rng: &mut StdRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for `Vec<S::Value>` with a strategy per element.
    pub struct VecStrategy<S: Strategy, L: IntoSizeRange> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// FNV-1a hash of the test path — the per-test base seed.
#[doc(hidden)]
pub fn __seed_from_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[doc(hidden)]
pub fn __case_rng(base_seed: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(base_seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[doc(hidden)]
pub fn __cases(cfg: &test_runner::ProptestConfig) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(cfg.cases)
}

/// Declare property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a function running the body over sampled inputs. As upstream,
/// attributes pass through unchanged, so callers write `#[test]` on each
/// case themselves.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:ident in $strategy:expr),* $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            let cases = $crate::__cases(&cfg);
            let base = $crate::__seed_from_name(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for case in 0..cases {
                let mut __rng = $crate::__case_rng(base, case as u64);
                $(let $arg = $crate::strategy::Strategy::sample(&($strategy), &mut __rng);)*
                let __inputs = format!(
                    concat!($(stringify!($arg), " = {:?}, "),*),
                    $(&$arg),*
                );
                let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = result {
                    panic!(
                        "proptest {} failed at case {}/{}: {}\n  inputs: {}",
                        stringify!($name), case + 1, cases, e, __inputs,
                    );
                }
            }
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

/// Assert inside a `proptest!` body; failure reports the sampled inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        let __prop_assert_holds: bool = $cond;
        if !__prop_assert_holds {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Assert two expressions are equal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    l == r,
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    l,
                    r,
                );
            }
        }
    };
}

/// Assert two expressions differ inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    l != r,
                    "assertion failed: {} != {}\n  both: {:?}",
                    stringify!($left),
                    stringify!($right),
                    l,
                );
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(
            x in 0.5_f64..2.5,
            n in 1_usize..10,
            flag in any::<bool>(),
        ) {
            prop_assert!((0.5..2.5).contains(&x));
            prop_assert!((1..10).contains(&n));
            prop_assert!(u8::from(flag) <= 1);
        }

        #[test]
        fn vec_strategy_sizes(
            exact in collection::vec(0.0_f64..1.0, 4),
            ranged in collection::vec((0_u64..5, 0.0_f64..1.0), 1..6),
        ) {
            prop_assert_eq!(exact.len(), 4);
            prop_assert!((1..6).contains(&ranged.len()));
            for (k, v) in &ranged {
                prop_assert!(*k < 5 && (0.0..1.0).contains(v));
            }
        }
    }

    #[test]
    fn failures_report_inputs() {
        let result = std::panic::catch_unwind(|| {
            let cfg = ProptestConfig::with_cases(8);
            let base = crate::__seed_from_name("demo");
            for case in 0..cfg.cases {
                let mut rng = crate::__case_rng(base, case as u64);
                let x = Strategy::sample(&(0.0_f64..1.0), &mut rng);
                let run = || -> Result<(), crate::test_runner::TestCaseError> {
                    prop_assert!(x < 0.5, "x too big: {x}");
                    Ok(())
                };
                if let Err(e) = run() {
                    panic!("case {case}: {e}");
                }
            }
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("x too big"), "unexpected panic message {msg:?}");
    }

    #[test]
    fn deterministic_per_test() {
        let base = crate::__seed_from_name("some::test");
        let a: Vec<u64> = (0..5)
            .map(|c| Strategy::sample(&(0_u64..100), &mut crate::__case_rng(base, c)))
            .collect();
        let b: Vec<u64> = (0..5)
            .map(|c| Strategy::sample(&(0_u64..100), &mut crate::__case_rng(base, c)))
            .collect();
        assert_eq!(a, b);
    }
}
