//! Lambda terms: the paper's §4 abstraction families and higher-order
//! composition functions.
//!
//! A `Lambda<R>` does **not** compute anything when built — it is a symbolic
//! description of a computation over the inputs of a `Computation`, which
//! the TCAP compiler later flattens into APPLY statements. "A programmer is
//! not supplying a computation over input data; rather, a programmer is
//! supplying an expression in the lambda calculus that specifies how to
//! construct the computation."

use crate::kernel::{ColumnKernel, Extract1, Extract2, Extract3};
use pc_object::{Handle, PcObjType, PcResult};
use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::sync::Arc;

pub use crate::kernel::BinOpKind as BinOp;
pub use crate::kernel::ConstOperand as ConstVal;

/// A node in a lambda term tree.
#[derive(Clone)]
pub enum LambdaTerm {
    /// A lambda abstraction over one or more inputs: member access, method
    /// call, or opaque native code, with its compiled kernel.
    Extract {
        inputs: Vec<usize>,
        /// TCAP metadata `type`: `attAccess`, `methodCall`, or `native`.
        op_type: &'static str,
        /// The `attName` / `methodName` / native label.
        name: String,
        kernel: Arc<dyn ColumnKernel>,
    },
    /// The identity function on input `input` (`makeLambdaFromSelf`).
    SelfRef { input: usize },
    /// A higher-order composition: `==`, `>`, `&&`, `+`, ...
    Binary {
        op: BinOp,
        lhs: Box<LambdaTerm>,
        rhs: Box<LambdaTerm>,
    },
    /// Boolean negation.
    Not { inner: Box<LambdaTerm> },
    /// Comparison against a constant.
    ConstCmp {
        op: BinOp,
        value: ConstVal,
        inner: Box<LambdaTerm>,
    },
}

impl LambdaTerm {
    /// The set of computation inputs this term reads.
    pub fn inputs(&self) -> BTreeSet<usize> {
        match self {
            LambdaTerm::Extract { inputs, .. } => inputs.iter().copied().collect(),
            LambdaTerm::SelfRef { input } => BTreeSet::from([*input]),
            LambdaTerm::Binary { lhs, rhs, .. } => {
                let mut s = lhs.inputs();
                s.extend(rhs.inputs());
                s
            }
            LambdaTerm::Not { inner } | LambdaTerm::ConstCmp { inner, .. } => inner.inputs(),
        }
    }

    /// Splits a boolean term into its top-level conjuncts.
    pub fn conjuncts(&self) -> Vec<&LambdaTerm> {
        match self {
            LambdaTerm::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                let mut v = lhs.conjuncts();
                v.extend(rhs.conjuncts());
                v
            }
            other => vec![other],
        }
    }
}

impl std::fmt::Debug for LambdaTerm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LambdaTerm::Extract {
                inputs,
                op_type,
                name,
                ..
            } => {
                write!(f, "{op_type}({name} over {inputs:?})")
            }
            LambdaTerm::SelfRef { input } => write!(f, "self({input})"),
            LambdaTerm::Binary { op, lhs, rhs } => {
                write!(f, "({lhs:?} {} {rhs:?})", op.tcap_name())
            }
            LambdaTerm::Not { inner } => write!(f, "!({inner:?})"),
            LambdaTerm::ConstCmp { op, value, inner } => {
                write!(f, "({inner:?} {} {value})", op.tcap_name())
            }
        }
    }
}

/// A typed lambda term: `R` is the value type the term produces per record.
pub struct Lambda<R> {
    pub term: LambdaTerm,
    _pd: PhantomData<fn() -> R>,
}

impl<R> Clone for Lambda<R> {
    fn clone(&self) -> Self {
        Lambda {
            term: self.term.clone(),
            _pd: PhantomData,
        }
    }
}

impl<R> Lambda<R> {
    pub fn from_term(term: LambdaTerm) -> Self {
        Lambda {
            term,
            _pd: PhantomData,
        }
    }

    fn binary<R2, O>(self, op: BinOp, rhs: Lambda<R2>) -> Lambda<O> {
        Lambda::from_term(LambdaTerm::Binary {
            op,
            lhs: Box::new(self.term),
            rhs: Box::new(rhs.term),
        })
    }

    /// `==` (the paper's equality higher-order function).
    pub fn eq(self, rhs: Lambda<R>) -> Lambda<bool> {
        self.binary(BinOp::Eq, rhs)
    }

    /// `!=`
    pub fn ne(self, rhs: Lambda<R>) -> Lambda<bool> {
        self.binary(BinOp::Ne, rhs)
    }

    /// `>`
    pub fn gt(self, rhs: Lambda<R>) -> Lambda<bool> {
        self.binary(BinOp::Gt, rhs)
    }

    /// `<`
    pub fn lt(self, rhs: Lambda<R>) -> Lambda<bool> {
        self.binary(BinOp::Lt, rhs)
    }

    fn cmp_const(self, op: BinOp, value: ConstVal) -> Lambda<bool> {
        Lambda::from_term(LambdaTerm::ConstCmp {
            op,
            value,
            inner: Box::new(self.term),
        })
    }

    /// Compare against a constant: `> c`.
    pub fn gt_const(self, c: impl Into<ConstVal>) -> Lambda<bool> {
        self.cmp_const(BinOp::Gt, c.into())
    }

    /// `< c`
    pub fn lt_const(self, c: impl Into<ConstVal>) -> Lambda<bool> {
        self.cmp_const(BinOp::Lt, c.into())
    }

    /// `>= c`
    pub fn ge_const(self, c: impl Into<ConstVal>) -> Lambda<bool> {
        self.cmp_const(BinOp::Ge, c.into())
    }

    /// `<= c`
    pub fn le_const(self, c: impl Into<ConstVal>) -> Lambda<bool> {
        self.cmp_const(BinOp::Le, c.into())
    }

    /// `== c`
    pub fn eq_const(self, c: impl Into<ConstVal>) -> Lambda<bool> {
        self.cmp_const(BinOp::Eq, c.into())
    }
}

impl Lambda<bool> {
    /// `&&`
    pub fn and(self, rhs: Lambda<bool>) -> Lambda<bool> {
        self.binary(BinOp::And, rhs)
    }

    /// `||`
    pub fn or(self, rhs: Lambda<bool>) -> Lambda<bool> {
        self.binary(BinOp::Or, rhs)
    }
}

/// `+`
impl<R> std::ops::Add for Lambda<R> {
    type Output = Lambda<R>;
    fn add(self, rhs: Lambda<R>) -> Lambda<R> {
        self.binary(BinOp::Add, rhs)
    }
}

/// `-`
impl<R> std::ops::Sub for Lambda<R> {
    type Output = Lambda<R>;
    fn sub(self, rhs: Lambda<R>) -> Lambda<R> {
        self.binary(BinOp::Sub, rhs)
    }
}

/// `*`
impl<R> std::ops::Mul for Lambda<R> {
    type Output = Lambda<R>;
    fn mul(self, rhs: Lambda<R>) -> Lambda<R> {
        self.binary(BinOp::Mul, rhs)
    }
}

/// `!`
impl std::ops::Not for Lambda<bool> {
    type Output = Lambda<bool>;
    fn not(self) -> Lambda<bool> {
        Lambda::from_term(LambdaTerm::Not {
            inner: Box::new(self.term),
        })
    }
}

impl From<i64> for ConstVal {
    fn from(v: i64) -> Self {
        ConstVal::I64(v)
    }
}

impl From<f64> for ConstVal {
    fn from(v: f64) -> Self {
        ConstVal::F64(v)
    }
}

impl From<&str> for ConstVal {
    fn from(v: &str) -> Self {
        ConstVal::Str(v.to_string())
    }
}

// ------------------------------------------------------------ constructors

/// `makeLambdaFromMember`: a lambda returning one of the pointed-to
/// object's member variables (§4 family 1). The member name is exposed as
/// `attAccess` metadata so the optimizer can reason about it.
pub fn make_lambda_from_member<T, R>(
    input: usize,
    att_name: &str,
    getter: impl Fn(&Handle<T>) -> R + Send + Sync + 'static,
) -> Lambda<R>
where
    T: PcObjType,
    R: crate::column::ColValue,
{
    Lambda::from_term(LambdaTerm::Extract {
        inputs: vec![input],
        op_type: "attAccess",
        name: att_name.to_string(),
        kernel: Arc::new(Extract1 {
            f: move |h: &Handle<T>| Ok(getter(h)),
            _pd: PhantomData,
        }),
    })
}

/// `makeLambdaFromMethod`: a lambda calling a method on the pointed-to
/// object (§4 family 2). Method calls are assumed purely functional — the
/// redundant-call-elimination rule depends on it.
pub fn make_lambda_from_method<T, R>(
    input: usize,
    method_name: &str,
    method: impl Fn(&Handle<T>) -> R + Send + Sync + 'static,
) -> Lambda<R>
where
    T: PcObjType,
    R: crate::column::ColValue,
{
    Lambda::from_term(LambdaTerm::Extract {
        inputs: vec![input],
        op_type: "methodCall",
        name: method_name.to_string(),
        kernel: Arc::new(Extract1 {
            f: move |h: &Handle<T>| Ok(method(h)),
            _pd: PhantomData,
        }),
    })
}

/// `makeLambda`: wraps opaque native code (§4 family 3). The plan treats it
/// as a black box — PC "would be unable to optimize the compute plan" had
/// the programmer hidden everything here. The closure is fallible so that
/// projections may allocate output objects (a `BlockFull` fault rolls the
/// output page).
pub fn make_lambda<T, R>(
    input: usize,
    label: &str,
    f: impl Fn(&Handle<T>) -> PcResult<R> + Send + Sync + 'static,
) -> Lambda<R>
where
    T: PcObjType,
    R: crate::column::ColValue,
{
    Lambda::from_term(LambdaTerm::Extract {
        inputs: vec![input],
        op_type: "native",
        name: label.to_string(),
        kernel: Arc::new(Extract1 {
            f,
            _pd: PhantomData,
        }),
    })
}

/// A native lambda over two inputs (join projections, residual predicates).
pub fn make_lambda2<A, B, R>(
    inputs: (usize, usize),
    label: &str,
    f: impl Fn(&Handle<A>, &Handle<B>) -> PcResult<R> + Send + Sync + 'static,
) -> Lambda<R>
where
    A: PcObjType,
    B: PcObjType,
    R: crate::column::ColValue,
{
    Lambda::from_term(LambdaTerm::Extract {
        inputs: vec![inputs.0, inputs.1],
        op_type: "native",
        name: label.to_string(),
        kernel: Arc::new(Extract2 {
            f,
            _pd: PhantomData,
        }),
    })
}

/// A native lambda over three inputs.
pub fn make_lambda3<A, B, C, R>(
    inputs: (usize, usize, usize),
    label: &str,
    f: impl Fn(&Handle<A>, &Handle<B>, &Handle<C>) -> PcResult<R> + Send + Sync + 'static,
) -> Lambda<R>
where
    A: PcObjType,
    B: PcObjType,
    C: PcObjType,
    R: crate::column::ColValue,
{
    Lambda::from_term(LambdaTerm::Extract {
        inputs: vec![inputs.0, inputs.1, inputs.2],
        op_type: "native",
        name: label.to_string(),
        kernel: Arc::new(Extract3 {
            f,
            _pd: PhantomData,
        }),
    })
}

/// `makeLambdaFromSelf`: the identity function on an input (§4 family 4).
pub fn make_lambda_from_self(input: usize) -> Lambda<pc_object::AnyHandle> {
    Lambda::from_term(LambdaTerm::SelfRef { input })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_object::pc_object;

    pc_object! {
        pub struct Emp / EmpView {
            (salary, set_salary): i64,
        }
    }

    #[test]
    fn conjunct_splitting_and_input_tracking() {
        // getSalary(emp) > 50000 && name(sup) == getSupervisor(emp)
        let salary = make_lambda_from_method::<Emp, i64>(0, "getSalary", |e| e.v().salary())
            .gt_const(50_000i64);
        let sup_name = make_lambda_from_member::<Emp, String>(1, "name", |_| String::new());
        let emp_sup = make_lambda_from_method::<Emp, String>(0, "getSupervisor", |_| String::new());
        let pred = salary.and(sup_name.eq(emp_sup));

        let conj = pred.term.conjuncts();
        assert_eq!(conj.len(), 2);
        assert_eq!(conj[0].inputs(), std::collections::BTreeSet::from([0]));
        assert_eq!(conj[1].inputs(), std::collections::BTreeSet::from([0, 1]));
    }

    #[test]
    fn debug_rendering_names_the_abstractions() {
        let l = make_lambda_from_member::<Emp, i64>(0, "deptId", |_| 0).eq_const(7i64);
        let s = format!("{:?}", l.term);
        assert!(s.contains("attAccess(deptId"), "{s}");
    }
}
