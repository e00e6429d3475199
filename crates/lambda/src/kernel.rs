//! Pipeline-stage kernels: the compiled code behind TCAP `APPLY` stages.
//!
//! In the C++ system, §5.3's template metaprogramming generates a native
//! function per (operation, type) pair so that pushing a vector through a
//! stage makes no per-object virtual calls. The Rust analogue: every kernel
//! is a monomorphized generic struct behind an `Arc<dyn ColumnKernel>`; the
//! engine pays one dynamic dispatch per *batch* and the inner loop is fully
//! inlined by the compiler.

use crate::column::{ColValue, Column};
use pc_object::{hash as pc_hash, BlockRef, Handle, PcObjType, PcResult};
use std::marker::PhantomData;

/// Per-batch execution context handed to kernels: the current live output
/// page (kernels that construct objects allocate directly on it — Appendix
/// C's "in-place data allocation of output data").
pub struct ExecCtx {
    /// The live output block; also installed as the thread's active block.
    pub out: BlockRef,
    /// Rows processed so far (diagnostics).
    pub rows: u64,
}

impl ExecCtx {
    pub fn new(out: BlockRef) -> Self {
        ExecCtx { out, rows: 0 }
    }
}

/// A vectorized pipeline stage: consumes input columns, appends one column.
///
/// `sel` is the batch's selection vector (§5.2 / Appendix C's "vector lists
/// carry only surviving rows"): when `Some`, the kernel must read input row
/// `sel[i]` for output row `i` and produce a **dense** column of
/// `sel.len()` rows, touching no dead row — object-producing kernels must
/// never allocate output objects for rows a FILTER already dropped. When
/// `None`, inputs are dense and processed in full.
pub trait ColumnKernel: Send + Sync {
    fn apply(&self, inputs: &[&Column], sel: Option<&[u32]>, ctx: &mut ExecCtx)
        -> PcResult<Column>;
}

/// A set-valued stage (lowers `MultiSelectionComp`): each input row yields
/// zero or more output values; returns the output column plus per-row
/// counts used to replicate the copied-through columns. Under a selection
/// vector, `counts` has one entry per *selected* row.
pub trait FlatMapKernel: Send + Sync {
    fn apply(
        &self,
        inputs: &[&Column],
        sel: Option<&[u32]>,
        ctx: &mut ExecCtx,
    ) -> PcResult<(Column, Vec<u32>)>;
}

/// Number of live rows in a batch of `len` base rows under `sel`.
pub fn sel_len(len: usize, sel: Option<&[u32]>) -> usize {
    sel.map(|s| s.len()).unwrap_or(len)
}

/// Drives `f` over the live row indices of a `len`-row batch: `0..len` when
/// `sel` is `None`, the selected base rows otherwise. Two monomorphic loops
/// so the dense path stays free of per-row indirection.
#[inline]
pub fn for_each_sel(
    len: usize,
    sel: Option<&[u32]>,
    mut f: impl FnMut(usize) -> PcResult<()>,
) -> PcResult<()> {
    match sel {
        None => {
            for i in 0..len {
                f(i)?;
            }
        }
        Some(s) => {
            for &i in s {
                f(i as usize)?;
            }
        }
    }
    Ok(())
}

// ------------------------------------------------------------- extraction

/// One-input extraction kernel (member access / method call / native code).
pub struct Extract1<T: PcObjType, R, F> {
    pub f: F,
    pub _pd: PhantomData<fn(&Handle<T>) -> R>,
}

impl<T, R, F> ColumnKernel for Extract1<T, R, F>
where
    T: PcObjType,
    R: ColValue,
    F: Fn(&Handle<T>) -> PcResult<R> + Send + Sync + 'static,
{
    fn apply(
        &self,
        inputs: &[&Column],
        sel: Option<&[u32]>,
        ctx: &mut ExecCtx,
    ) -> PcResult<Column> {
        let objs = inputs[0].as_obj()?;
        let n = sel_len(objs.len(), sel);
        let mut out = Vec::with_capacity(n);
        for_each_sel(objs.len(), sel, |i| {
            out.push((self.f)(&objs[i].downcast_unchecked::<T>())?);
            Ok(())
        })?;
        ctx.rows += n as u64;
        Ok(R::collect(out))
    }
}

/// Two-input extraction kernel (e.g. a join projection combining two
/// objects into an output object).
pub struct Extract2<A: PcObjType, B: PcObjType, R, F> {
    pub f: F,
    pub _pd: PhantomData<fn(&Handle<A>, &Handle<B>) -> R>,
}

impl<A, B, R, F> ColumnKernel for Extract2<A, B, R, F>
where
    A: PcObjType,
    B: PcObjType,
    R: ColValue,
    F: Fn(&Handle<A>, &Handle<B>) -> PcResult<R> + Send + Sync + 'static,
{
    fn apply(
        &self,
        inputs: &[&Column],
        sel: Option<&[u32]>,
        ctx: &mut ExecCtx,
    ) -> PcResult<Column> {
        let a = inputs[0].as_obj()?;
        let b = inputs[1].as_obj()?;
        debug_assert_eq!(a.len(), b.len());
        let n = sel_len(a.len(), sel);
        let mut out = Vec::with_capacity(n);
        for_each_sel(a.len(), sel, |i| {
            out.push((self.f)(
                &a[i].downcast_unchecked::<A>(),
                &b[i].downcast_unchecked::<B>(),
            )?);
            Ok(())
        })?;
        ctx.rows += n as u64;
        Ok(R::collect(out))
    }
}

/// Three-input extraction kernel.
pub struct Extract3<A: PcObjType, B: PcObjType, C: PcObjType, R, F> {
    pub f: F,
    #[allow(clippy::type_complexity)]
    pub _pd: PhantomData<fn(&Handle<A>, &Handle<B>, &Handle<C>) -> R>,
}

impl<A, B, C, R, F> ColumnKernel for Extract3<A, B, C, R, F>
where
    A: PcObjType,
    B: PcObjType,
    C: PcObjType,
    R: ColValue,
    F: Fn(&Handle<A>, &Handle<B>, &Handle<C>) -> PcResult<R> + Send + Sync + 'static,
{
    fn apply(
        &self,
        inputs: &[&Column],
        sel: Option<&[u32]>,
        ctx: &mut ExecCtx,
    ) -> PcResult<Column> {
        let a = inputs[0].as_obj()?;
        let b = inputs[1].as_obj()?;
        let c = inputs[2].as_obj()?;
        let n = sel_len(a.len(), sel);
        let mut out = Vec::with_capacity(n);
        for_each_sel(a.len(), sel, |i| {
            out.push((self.f)(
                &a[i].downcast_unchecked::<A>(),
                &b[i].downcast_unchecked::<B>(),
                &c[i].downcast_unchecked::<C>(),
            )?);
            Ok(())
        })?;
        ctx.rows += n as u64;
        Ok(R::collect(out))
    }
}

/// One-input flat-map kernel.
pub struct FlatMap1<T: PcObjType, R, F> {
    pub f: F,
    pub _pd: PhantomData<fn(&Handle<T>) -> Vec<R>>,
}

impl<T, R, F> FlatMapKernel for FlatMap1<T, R, F>
where
    T: PcObjType,
    R: ColValue,
    F: Fn(&Handle<T>) -> PcResult<Vec<R>> + Send + Sync + 'static,
{
    fn apply(
        &self,
        inputs: &[&Column],
        sel: Option<&[u32]>,
        ctx: &mut ExecCtx,
    ) -> PcResult<(Column, Vec<u32>)> {
        let objs = inputs[0].as_obj()?;
        let n = sel_len(objs.len(), sel);
        let mut out = Vec::new();
        let mut counts = Vec::with_capacity(n);
        for_each_sel(objs.len(), sel, |i| {
            let vals = (self.f)(&objs[i].downcast_unchecked::<T>())?;
            counts.push(vals.len() as u32);
            out.extend(vals);
            Ok(())
        })?;
        ctx.rows += n as u64;
        Ok((R::collect(out), counts))
    }
}

// ------------------------------------------------------------ binary ops

/// Operator kinds for two-column kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOpKind {
    Eq,
    Ne,
    Gt,
    Lt,
    Ge,
    Le,
    And,
    Or,
    Add,
    Sub,
    Mul,
}

impl BinOpKind {
    pub fn tcap_name(&self) -> &'static str {
        match self {
            BinOpKind::Eq => "==",
            BinOpKind::Ne => "!=",
            BinOpKind::Gt => ">",
            BinOpKind::Lt => "<",
            BinOpKind::Ge => ">=",
            BinOpKind::Le => "<=",
            BinOpKind::And => "&&",
            BinOpKind::Or => "||",
            BinOpKind::Add => "+",
            BinOpKind::Sub => "-",
            BinOpKind::Mul => "*",
        }
    }

    pub fn meta_type(&self) -> &'static str {
        match self {
            BinOpKind::Eq => "equalityCheck",
            BinOpKind::Ne | BinOpKind::Gt | BinOpKind::Lt | BinOpKind::Ge | BinOpKind::Le => {
                "comparison"
            }
            BinOpKind::And => "bool_and",
            BinOpKind::Or => "bool_or",
            BinOpKind::Add | BinOpKind::Sub | BinOpKind::Mul => "arithmetic",
        }
    }
}

macro_rules! cmp_arms {
    ($a:expr, $b:expr, $sel:expr, $op:tt) => {{
        match $sel {
            None => Column::Bool($a.iter().zip($b.iter()).map(|(x, y)| x $op y).collect()),
            Some(s) => Column::Bool(
                s.iter()
                    .map(|&i| $a[i as usize] $op $b[i as usize])
                    .collect(),
            ),
        }
    }};
}

macro_rules! arith_arms {
    ($a:expr, $b:expr, $sel:expr, $op:tt, $variant:ident) => {{
        match $sel {
            None => Column::$variant($a.iter().zip($b.iter()).map(|(x, y)| x $op y).collect()),
            Some(s) => Column::$variant(
                s.iter()
                    .map(|&i| $a[i as usize] $op $b[i as usize])
                    .collect(),
            ),
        }
    }};
}

/// The generic two-column operator kernel (`==`, `>`, `&&`, `+`, ...).
pub struct BinaryKernel {
    pub op: BinOpKind,
}

impl ColumnKernel for BinaryKernel {
    fn apply(
        &self,
        inputs: &[&Column],
        sel: Option<&[u32]>,
        ctx: &mut ExecCtx,
    ) -> PcResult<Column> {
        let (a, b) = (inputs[0], inputs[1]);
        ctx.rows += sel_len(a.len(), sel) as u64;
        use BinOpKind::*;
        use Column::*;
        Ok(match (self.op, a, b) {
            (Eq, I64(x), I64(y)) => cmp_arms!(x, y, sel, ==),
            (Eq, F64(x), F64(y)) => cmp_arms!(x, y, sel, ==),
            (Eq, U64(x), U64(y)) => cmp_arms!(x, y, sel, ==),
            (Eq, Str(x), Str(y)) => cmp_arms!(x, y, sel, ==),
            (Eq, Bool(x), Bool(y)) => cmp_arms!(x, y, sel, ==),
            (Ne, I64(x), I64(y)) => cmp_arms!(x, y, sel, !=),
            (Ne, F64(x), F64(y)) => cmp_arms!(x, y, sel, !=),
            (Ne, Str(x), Str(y)) => cmp_arms!(x, y, sel, !=),
            (Gt, I64(x), I64(y)) => cmp_arms!(x, y, sel, >),
            (Gt, F64(x), F64(y)) => cmp_arms!(x, y, sel, >),
            (Lt, I64(x), I64(y)) => cmp_arms!(x, y, sel, <),
            (Lt, F64(x), F64(y)) => cmp_arms!(x, y, sel, <),
            (Ge, I64(x), I64(y)) => cmp_arms!(x, y, sel, >=),
            (Ge, F64(x), F64(y)) => cmp_arms!(x, y, sel, >=),
            (Le, I64(x), I64(y)) => cmp_arms!(x, y, sel, <=),
            (Le, F64(x), F64(y)) => cmp_arms!(x, y, sel, <=),
            (And, Bool(x), Bool(y)) => cmp_arms!(x, y, sel, &),
            (Or, Bool(x), Bool(y)) => cmp_arms!(x, y, sel, |),
            (Add, I64(x), I64(y)) => arith_arms!(x, y, sel, +, I64),
            (Add, F64(x), F64(y)) => arith_arms!(x, y, sel, +, F64),
            (Sub, I64(x), I64(y)) => arith_arms!(x, y, sel, -, I64),
            (Sub, F64(x), F64(y)) => arith_arms!(x, y, sel, -, F64),
            (Mul, I64(x), I64(y)) => arith_arms!(x, y, sel, *, I64),
            (Mul, F64(x), F64(y)) => arith_arms!(x, y, sel, *, F64),
            (op, a, b) => {
                return Err(pc_object::PcError::Catalog(format!(
                    "no kernel for {op:?} over ({}, {})",
                    a.type_name(),
                    b.type_name()
                )))
            }
        })
    }
}

/// Boolean negation.
pub struct NotKernel;

impl ColumnKernel for NotKernel {
    fn apply(
        &self,
        inputs: &[&Column],
        sel: Option<&[u32]>,
        ctx: &mut ExecCtx,
    ) -> PcResult<Column> {
        let b = inputs[0].as_bool()?;
        ctx.rows += sel_len(b.len(), sel) as u64;
        Ok(Column::Bool(match sel {
            None => b.iter().map(|x| !x).collect(),
            Some(s) => s.iter().map(|&i| !b[i as usize]).collect(),
        }))
    }
}

/// Constant operand for comparisons.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstOperand {
    I64(i64),
    F64(f64),
    Str(String),
}

impl std::fmt::Display for ConstOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstOperand::I64(v) => write!(f, "{v}"),
            ConstOperand::F64(v) => write!(f, "{v}"),
            ConstOperand::Str(v) => write!(f, "{v}"),
        }
    }
}

/// Column-vs-constant comparison kernel (`const_comparison` in TCAP meta).
pub struct ConstCmpKernel {
    pub op: BinOpKind,
    pub value: ConstOperand,
}

impl ColumnKernel for ConstCmpKernel {
    fn apply(
        &self,
        inputs: &[&Column],
        sel: Option<&[u32]>,
        ctx: &mut ExecCtx,
    ) -> PcResult<Column> {
        let a = inputs[0];
        ctx.rows += sel_len(a.len(), sel) as u64;
        use BinOpKind::*;
        fn over<T: Copy>(v: &[T], sel: Option<&[u32]>, f: impl Fn(T) -> bool) -> Vec<bool> {
            match sel {
                None => v.iter().map(|&x| f(x)).collect(),
                Some(s) => s.iter().map(|&i| f(v[i as usize])).collect(),
            }
        }
        let out = match (&self.value, a) {
            (ConstOperand::I64(c), Column::I64(v)) => {
                let (c, op) = (*c, self.op);
                over(v, sel, |x| match op {
                    Eq => x == c,
                    Ne => x != c,
                    Gt => x > c,
                    Lt => x < c,
                    Ge => x >= c,
                    Le => x <= c,
                    _ => false,
                })
            }
            (ConstOperand::F64(c), Column::F64(v)) => {
                let (c, op) = (*c, self.op);
                over(v, sel, |x| match op {
                    Eq => x == c,
                    Ne => x != c,
                    Gt => x > c,
                    Lt => x < c,
                    Ge => x >= c,
                    Le => x <= c,
                    _ => false,
                })
            }
            (ConstOperand::Str(c), Column::Str(v)) => {
                let op = self.op;
                let test = |x: &str| match op {
                    Eq => x == c.as_str(),
                    Ne => x != c.as_str(),
                    _ => false,
                };
                match sel {
                    None => v.iter().map(|x| test(x)).collect(),
                    Some(s) => s.iter().map(|&i| test(&v[i as usize])).collect(),
                }
            }
            (c, col) => {
                return Err(pc_object::PcError::Catalog(format!(
                    "no const-comparison kernel for {c:?} vs {}",
                    col.type_name()
                )))
            }
        };
        Ok(Column::Bool(out))
    }
}

/// The HASH stage: hashes a key column to `u64` (join key preparation).
pub struct HashKernel;

impl ColumnKernel for HashKernel {
    fn apply(
        &self,
        inputs: &[&Column],
        sel: Option<&[u32]>,
        ctx: &mut ExecCtx,
    ) -> PcResult<Column> {
        let a = inputs[0];
        ctx.rows += sel_len(a.len(), sel) as u64;
        fn over<T, F: Fn(&T) -> u64>(v: &[T], sel: Option<&[u32]>, f: F) -> Vec<u64> {
            match sel {
                None => v.iter().map(f).collect(),
                Some(s) => s.iter().map(|&i| f(&v[i as usize])).collect(),
            }
        }
        Ok(Column::U64(match a {
            Column::I64(v) => over(v, sel, |x| pc_hash::hash_i64(*x)),
            Column::U64(v) => over(v, sel, |x| pc_hash::mix64(*x)),
            Column::F64(v) => over(v, sel, |x| pc_hash::hash_f64(*x)),
            Column::Str(v) => over(v, sel, |x| pc_hash::hash_bytes(x.as_bytes())),
            Column::Bool(v) => over(v, sel, |x| pc_hash::mix64(*x as u64)),
            Column::Obj(_) => {
                return Err(pc_object::PcError::Catalog(
                    "cannot hash an object column; extract a key first".into(),
                ))
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_object::{AllocPolicy, BlockRef};

    fn ctx() -> ExecCtx {
        ExecCtx::new(BlockRef::new(4096, AllocPolicy::LightweightReuse))
    }

    #[test]
    fn binary_kernels_cover_mixed_scalars() {
        let mut c = ctx();
        let a = Column::F64(vec![1.0, 5.0, 3.0]);
        let b = Column::F64(vec![2.0, 2.0, 3.0]);
        let gt = BinaryKernel { op: BinOpKind::Gt }
            .apply(&[&a, &b], None, &mut c)
            .unwrap();
        assert_eq!(gt.as_bool().unwrap(), &[false, true, false]);
        let eq = BinaryKernel { op: BinOpKind::Eq }
            .apply(&[&a, &b], None, &mut c)
            .unwrap();
        assert_eq!(eq.as_bool().unwrap(), &[false, false, true]);
        let add = BinaryKernel { op: BinOpKind::Add }
            .apply(&[&a, &b], None, &mut c)
            .unwrap();
        assert_eq!(add.as_f64().unwrap(), &[3.0, 7.0, 6.0]);
    }

    #[test]
    fn type_mismatch_is_an_error_not_a_panic() {
        let mut c = ctx();
        let a = Column::F64(vec![1.0]);
        let b = Column::I64(vec![1]);
        assert!(BinaryKernel { op: BinOpKind::Eq }
            .apply(&[&a, &b], None, &mut c)
            .is_err());
    }

    #[test]
    fn const_cmp_and_not() {
        let mut c = ctx();
        let a = Column::I64(vec![49_999, 50_000, 50_001]);
        let gt = ConstCmpKernel {
            op: BinOpKind::Gt,
            value: ConstOperand::I64(50_000),
        }
        .apply(&[&a], None, &mut c)
        .unwrap();
        assert_eq!(gt.as_bool().unwrap(), &[false, false, true]);
        let ne = NotKernel.apply(&[&gt], None, &mut c).unwrap();
        assert_eq!(ne.as_bool().unwrap(), &[true, true, false]);
    }

    #[test]
    fn hash_kernel_is_stable_per_value() {
        let mut c = ctx();
        let a = Column::Str(vec!["eng".into(), "ops".into(), "eng".into()]);
        let h = HashKernel.apply(&[&a], None, &mut c).unwrap();
        let h = h.as_u64().unwrap();
        assert_eq!(h[0], h[2]);
        assert_ne!(h[0], h[1]);
    }

    #[test]
    fn every_string_hash_site_agrees() {
        use crate::AggKey;
        use pc_object::{AllocScope, PcKey, PcString};
        let _scope = AllocScope::new(4096);
        let keys = ["", "Supplier#0007", "Customer#001999", "é"];
        let col = Column::Str(keys.iter().map(|&k| k.into()).collect());
        let kernel = HashKernel.apply(&[&col], None, &mut ctx()).unwrap();
        for (k, &h) in keys.iter().zip(kernel.as_u64().unwrap()) {
            assert_eq!(k.to_string().hash(), h, "AggKey for String, {k:?}");
            assert_eq!(PcString::make(k).unwrap().hash_val(), h, "PcString, {k:?}");
            assert_eq!(pc_hash::hash_bytes(k.as_bytes()), h, "hash_bytes, {k:?}");
        }
    }

    #[test]
    fn selection_vector_reads_base_rows_and_emits_dense_output() {
        let mut c = ctx();
        let a = Column::I64(vec![10, 20, 30, 40, 50]);
        let b = Column::I64(vec![1, 2, 3, 4, 5]);
        let sel: Vec<u32> = vec![0, 2, 4];
        // Dense output, one row per selected base row.
        let add = BinaryKernel { op: BinOpKind::Add }
            .apply(&[&a, &b], Some(&sel), &mut c)
            .unwrap();
        assert_eq!(add.as_i64().unwrap(), &[11, 33, 55]);
        let gt = ConstCmpKernel {
            op: BinOpKind::Gt,
            value: ConstOperand::I64(25),
        }
        .apply(&[&a], Some(&sel), &mut c)
        .unwrap();
        assert_eq!(gt.as_bool().unwrap(), &[false, true, true]);
        // Hash over a selection matches hash over the gathered column.
        let dense = a.gather_pooled(&sel, &mut crate::ColumnPool::default());
        let h_sel = HashKernel.apply(&[&a], Some(&sel), &mut c).unwrap();
        let h_dense = HashKernel.apply(&[&dense], None, &mut c).unwrap();
        assert_eq!(h_sel.as_u64().unwrap(), h_dense.as_u64().unwrap());
    }
}
