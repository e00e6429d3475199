//! Offline stand-in for the crates.io `proptest` crate.
//!
//! Implements the subset the workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map` / `prop_filter`,
//! `any::<T>()`, `Just`, ranges and
//! string-regex strategies, `collection::{vec, btree_map}`, and the
//! `proptest!` / `prop_assert!` / `prop_assert_eq!` / `prop_oneof!` macros.
//!
//! Differences from real proptest: no shrinking (a failing case panics with
//! the assertion message and case number), and the regex strategy supports
//! only character classes and literals with `{m,n}` quantifiers — exactly the
//! patterns used in this repo's tests. Runs are deterministic: the RNG seed is
//! derived from the test's module path and name.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Runs a block of property tests. Supports an optional leading
/// `#![proptest_config(expr)]` and any number of
/// `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $config;
            let mut __rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__config.cases {
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                )+
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(__e) = __outcome {
                    ::std::panic!(
                        "property `{}` failed on case {}/{}: {}",
                        stringify!($name),
                        __case + 1,
                        __config.cases,
                        __e
                    );
                }
            }
        }
        $crate::__proptest_items!(($config) $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body, failing the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a `proptest!` body, failing the current case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left), stringify!($right), __l, __r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "{}\n  left: {:?}\n right: {:?}",
                    ::std::format!($($fmt)+), __l, __r
                ),
            ));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body, failing the current case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{} != {}`\n  both: {:?}",
                    stringify!($left),
                    stringify!($right),
                    __l
                ),
            ));
        }
    }};
}

/// Picks uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $( $crate::strategy::Strategy::boxed($strategy) ),+
        ])
    };
}
