//! The `Strategy` trait and its combinators.

use crate::test_runner::TestRng;

/// A recipe for generating values of `Self::Value`.
///
/// Object-safe: `generate` takes `&self`, so strategies can be boxed into
/// [`BoxedStrategy`] (which `prop_oneof!` relies on). Unlike real proptest
/// there is no value tree / shrinking — `generate` returns the value directly.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Rejects values failing `pred`, regenerating until one passes.
    fn prop_filter<F>(self, reason: impl Into<String>, pred: F) -> Filter<Self>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool + 'static,
    {
        Filter {
            inner: self,
            reason: reason.into(),
            pred: Box::new(pred),
        }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A boxed predicate over generated values.
type Predicate<T> = Box<dyn Fn(&T) -> bool>;

/// Result of [`Strategy::prop_filter`].
pub struct Filter<S: Strategy> {
    inner: S,
    reason: String,
    pred: Predicate<S::Value>,
}

impl<S: Strategy> Strategy for Filter<S> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..65_536 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter({:?}) rejected 65536 consecutive values",
            self.reason
        );
    }
}

/// Uniform choice among same-typed strategies; built by `prop_oneof!`.
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(
            !options.is_empty(),
            "prop_oneof! requires at least one strategy"
        );
        Self { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.random_usize(0..self.options.len());
        self.options[idx].generate(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_i128(self.start as i128, self.end as i128) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_i128(*self.start() as i128, *self.end() as i128 + 1) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_maps_filters_and_unions_compose() {
        let mut rng = TestRng::from_seed(9);
        let s = (0i64..10)
            .prop_map(|v| v * 2)
            .prop_filter("nonzero", |v| *v != 0);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v % 2 == 0 && (2..20).contains(&v));
        }
        let u = Union::new(vec![Just(1u8).boxed(), Just(2u8).boxed()]);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[u.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2]);
        let (a, b) = (0u8..4, Just(7i64)).generate(&mut rng);
        assert!(a < 4 && b == 7);
    }
}
