//! Pipeline-stage kernels: the compiled code behind TCAP `APPLY` stages.
//!
//! In the C++ system, §5.3's template metaprogramming generates a native
//! function per (operation, type) pair so that pushing a vector through a
//! stage makes no per-object virtual calls. The Rust analogue: every kernel
//! is a monomorphized generic struct behind an `Arc<dyn ColumnKernel>`; the
//! engine pays one dynamic dispatch per *batch* and the inner loop is fully
//! inlined by the compiler.
//!
//! Kernels that run user lambdas (`Extract1`/`2`/`3`, `FlatMap1`) may
//! allocate objects, and do so on the page their [`ExecCtx`] has installed
//! (Appendix C's "in-place data allocation of output data"). Each row runs
//! through [`ExecCtx::row`]: when the row's allocation faults with
//! `BlockFull`, the context rolls to a fresh page from its [`PageSource`]
//! and re-runs **that row** only. Rows already done keep their objects on
//! the retired page, which the batch's columns keep alive; a Write sink
//! later roots them there. Appendix C re-processes the whole faulted vector
//! instead; resuming at the row is the rule the hash sinks'
//! `upsert_batch_by` folds already follow, and it never throws a finished
//! row's work away. The page size follows the one [`Escalation`] rule both
//! hash sinks use. The source hears of every object a finished row made
//! ([`PageSource::rows_done`]), so it can hold back room on the page for
//! the object's handle. The scalar kernels allocate nothing and
//! ignore their context.

use crate::column::{ColValue, Column};
use pc_object::containers::Escalation;
use pc_object::{
    hash as pc_hash, AllocPolicy, AllocScope, BlockRef, Handle, PcError, PcObjType, PcResult,
};
use std::marker::PhantomData;

/// Where a kernel's allocation pages come from: the output sink's live
/// page, or scratch pages for intermediates.
pub trait PageSource {
    /// The size a page opens at before any escalation.
    fn page_size(&self) -> usize;
    /// The page kernels allocate on now.
    fn page(&mut self) -> PcResult<BlockRef>;
    /// Retires the full current page and opens a fresh one of `size` bytes.
    fn roll(&mut self, size: usize) -> PcResult<BlockRef>;
    /// Kernel rows finished `rows` objects on the current page. The default
    /// ignores the report.
    fn rows_done(&mut self, _rows: usize) {}
}

/// Pages for intermediate objects in pipelines whose sink is not an output
/// page (the paper's intermediate-data pages). A rolled-away page is
/// dropped here; it dies when the batch's handles into it drop.
pub struct ScratchPage {
    size: usize,
    block: Option<BlockRef>,
}

impl ScratchPage {
    /// Scratch pages of `size` bytes, the first opened on first use.
    pub fn new(size: usize) -> Self {
        ScratchPage { size, block: None }
    }
}

impl PageSource for ScratchPage {
    fn page_size(&self) -> usize {
        self.size
    }

    fn page(&mut self) -> PcResult<BlockRef> {
        let size = self.size;
        Ok(self
            .block
            .get_or_insert_with(|| BlockRef::new(size, AllocPolicy::LightweightReuse))
            .clone())
    }

    fn roll(&mut self, size: usize) -> PcResult<BlockRef> {
        let block = BlockRef::new(size, AllocPolicy::LightweightReuse);
        self.block = Some(block.clone());
        Ok(block)
    }
}

/// A kernel call's page handle: it keeps a page of its [`PageSource`]
/// installed as the thread's active allocation block while the call runs,
/// and rolls it when a row faults.
pub struct ExecCtx<'a> {
    /// The installed page; `None` only inside [`Self::roll`].
    scope: Option<AllocScope>,
    source: &'a mut dyn PageSource,
    esc: Escalation,
    /// Whether a row finished since the last fault (or the call's start).
    progressed: bool,
}

impl<'a> ExecCtx<'a> {
    /// Installs `source`'s current page for one kernel call.
    pub fn new(source: &'a mut dyn PageSource) -> PcResult<Self> {
        let scope = AllocScope::install(source.page()?);
        Ok(ExecCtx {
            scope: Some(scope),
            esc: Escalation::new(source.page_size()),
            source,
            progressed: false,
        })
    }

    /// Runs one row's work `f`. On `BlockFull` the page rolls and `f` runs
    /// again, for this row only; a row that keeps faulting on fresh pages
    /// escalates the page size, and one that never fits ends in an error.
    #[inline]
    pub fn row<R>(&mut self, mut f: impl FnMut() -> PcResult<R>) -> PcResult<R> {
        let first = f();
        self.retry(first, f)
    }

    /// Runs a kernel row as [`Self::row`] does, and reports the object it
    /// made, if its value is one.
    #[inline]
    pub fn value<R: ColValue>(&mut self, f: impl FnMut() -> PcResult<R>) -> PcResult<R> {
        let r = self.row(f)?;
        if R::OBJ {
            self.rows_done(1);
        }
        Ok(r)
    }

    /// Finishes a row whose latest attempt returned `attempt`, as
    /// [`Self::row`] does: on `BlockFull` the page rolls and `f` runs again.
    #[inline]
    pub fn retry<R>(
        &mut self,
        mut attempt: PcResult<R>,
        mut f: impl FnMut() -> PcResult<R>,
    ) -> PcResult<R> {
        loop {
            match attempt {
                Ok(r) => {
                    self.progressed = true;
                    return Ok(r);
                }
                Err(PcError::BlockFull { .. }) => self.roll()?,
                Err(e) => return Err(e),
            }
            attempt = f();
        }
    }

    /// Reports `rows` objects finished on the current page to the source.
    #[inline]
    pub fn rows_done(&mut self, rows: usize) {
        self.source.rows_done(rows);
    }

    #[cold]
    fn roll(&mut self) -> PcResult<()> {
        let size = self.esc.fault(std::mem::take(&mut self.progressed))?;
        // Unpin the full page before the source retires it: whether it
        // outlives the roll is up to the batch's columns alone.
        self.scope = None;
        self.scope = Some(AllocScope::install(self.source.roll(size)?));
        Ok(())
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
    fn apply(
        &self,
        inputs: &[&Column],
        sel: Option<&[u32]>,
        ctx: &mut ExecCtx<'_>,
    ) -> PcResult<Column>;
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
        ctx: &mut ExecCtx<'_>,
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
        ctx: &mut ExecCtx<'_>,
    ) -> PcResult<Column> {
        let objs = inputs[0].as_obj()?;
        let n = sel_len(objs.len(), sel);
        let mut out = Vec::with_capacity(n);
        for_each_sel(objs.len(), sel, |i| {
            let h = objs[i].downcast_unchecked::<T>();
            out.push(ctx.value(|| (self.f)(&h))?);
            Ok(())
        })?;
        Ok(R::collect(out))
    }
}

/// Two-input extraction kernel (e.g. a join projection combining two
/// objects into an output object).
pub struct Extract2<A: PcObjType, B: PcObjType, R, F> {
    pub f: F,
    pub _pd: PhantomData<Extract2Fn<A, B, R>>,
}

/// The signature an [`Extract2`] kernel's `f` implements.
type Extract2Fn<A, B, R> = fn(&Handle<A>, &Handle<B>) -> R;

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
        ctx: &mut ExecCtx<'_>,
    ) -> PcResult<Column> {
        let a = inputs[0].as_obj()?;
        let b = inputs[1].as_obj()?;
        debug_assert_eq!(a.len(), b.len());
        let n = sel_len(a.len(), sel);
        let mut out = Vec::with_capacity(n);
        for_each_sel(a.len(), sel, |i| {
            let (x, y) = (
                a[i].downcast_unchecked::<A>(),
                b[i].downcast_unchecked::<B>(),
            );
            out.push(ctx.value(|| (self.f)(&x, &y))?);
            Ok(())
        })?;
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
        ctx: &mut ExecCtx<'_>,
    ) -> PcResult<Column> {
        let a = inputs[0].as_obj()?;
        let b = inputs[1].as_obj()?;
        let c = inputs[2].as_obj()?;
        let n = sel_len(a.len(), sel);
        let mut out = Vec::with_capacity(n);
        for_each_sel(a.len(), sel, |i| {
            let (x, y, z) = (
                a[i].downcast_unchecked::<A>(),
                b[i].downcast_unchecked::<B>(),
                c[i].downcast_unchecked::<C>(),
            );
            out.push(ctx.value(|| (self.f)(&x, &y, &z))?);
            Ok(())
        })?;
        Ok(R::collect(out))
    }
}

/// One-input flat-map kernel.
pub struct FlatMap1<T: PcObjType, R, F> {
    pub f: F,
    pub _pd: PhantomData<FlatMap1Fn<T, R>>,
}

/// The signature a [`FlatMap1`] kernel's `f` implements.
type FlatMap1Fn<T, R> = fn(&Handle<T>) -> Vec<R>;

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
        ctx: &mut ExecCtx<'_>,
    ) -> PcResult<(Column, Vec<u32>)> {
        let objs = inputs[0].as_obj()?;
        let n = sel_len(objs.len(), sel);
        let mut out = Vec::new();
        let mut counts = Vec::with_capacity(n);
        for_each_sel(objs.len(), sel, |i| {
            let h = objs[i].downcast_unchecked::<T>();
            let vals = ctx.row(|| (self.f)(&h))?;
            if R::OBJ {
                ctx.rows_done(vals.len());
            }
            counts.push(vals.len() as u32);
            out.extend(vals);
            Ok(())
        })?;
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
        _ctx: &mut ExecCtx<'_>,
    ) -> PcResult<Column> {
        let (a, b) = (inputs[0], inputs[1]);
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
        _ctx: &mut ExecCtx<'_>,
    ) -> PcResult<Column> {
        let b = inputs[0].as_bool()?;
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
        _ctx: &mut ExecCtx<'_>,
    ) -> PcResult<Column> {
        let a = inputs[0];
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
        _ctx: &mut ExecCtx<'_>,
    ) -> PcResult<Column> {
        let a = inputs[0];
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

    /// A context for the scalar kernels, which never allocate.
    fn ctx(pages: &mut ScratchPage) -> ExecCtx<'_> {
        ExecCtx::new(pages).unwrap()
    }

    #[test]
    fn binary_kernels_cover_mixed_scalars() {
        let mut pages = ScratchPage::new(4096);
        let mut c = ctx(&mut pages);
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
        let mut pages = ScratchPage::new(4096);
        let mut c = ctx(&mut pages);
        let a = Column::F64(vec![1.0]);
        let b = Column::I64(vec![1]);
        assert!(BinaryKernel { op: BinOpKind::Eq }
            .apply(&[&a, &b], None, &mut c)
            .is_err());
    }

    #[test]
    fn const_cmp_and_not() {
        let mut pages = ScratchPage::new(4096);
        let mut c = ctx(&mut pages);
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
        let mut pages = ScratchPage::new(4096);
        let mut c = ctx(&mut pages);
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
        let mut pages = ScratchPage::new(4096);
        let kernel = HashKernel
            .apply(&[&col], None, &mut ctx(&mut pages))
            .unwrap();
        for (k, &h) in keys.iter().zip(kernel.as_u64().unwrap()) {
            assert_eq!(k.to_string().hash(), h, "AggKey for String, {k:?}");
            assert_eq!(PcString::make(k).unwrap().hash_val(), h, "PcString, {k:?}");
            assert_eq!(pc_hash::hash_bytes(k.as_bytes()), h, "hash_bytes, {k:?}");
        }
    }

    #[test]
    fn a_faulting_row_resumes_on_a_fresh_page() {
        use pc_object::{AllocScope, PcString};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // 40 rows of ~500-byte strings need about five 4 KiB pages.
        let _input = AllocScope::new(1 << 16);
        let rows: Vec<_> = (0..40)
            .map(|i| PcString::make(&format!("{i:0>500}")).unwrap().erase())
            .collect();
        let done = Arc::new(AtomicUsize::new(0));
        let counter = done.clone();
        let kernel = Extract1 {
            f: move |h: &Handle<PcString>| {
                let copy = PcString::make(h.as_str())?;
                counter.fetch_add(1, Ordering::Relaxed);
                Ok(copy.erase())
            },
            _pd: PhantomData,
        };
        let mut pages = ScratchPage::new(4096);
        let first = pages.page().unwrap();
        let col = Column::Obj(rows.clone());
        let out = kernel
            .apply(&[&col], None, &mut ExecCtx::new(&mut pages).unwrap())
            .unwrap();
        // Every row's lambda completed exactly once, and the rows that
        // landed before a roll still read back from their retired pages.
        assert_eq!(done.load(Ordering::Relaxed), 40);
        let out = out.as_obj().unwrap();
        for (h, want) in out.iter().zip(&rows) {
            let got = h.downcast_unchecked::<PcString>();
            assert_eq!(got.as_str(), want.downcast_unchecked::<PcString>().as_str());
        }
        assert!(!pages.page().unwrap().same_block(&first), "the page rolled");
    }

    /// A source that opens tiny pages whatever size is asked, recording the
    /// sizes.
    struct Recording(Vec<usize>);

    impl PageSource for Recording {
        fn page_size(&self) -> usize {
            4096
        }
        fn page(&mut self) -> PcResult<BlockRef> {
            Ok(BlockRef::new(4096, AllocPolicy::LightweightReuse))
        }
        fn roll(&mut self, size: usize) -> PcResult<BlockRef> {
            self.0.push(size);
            self.page()
        }
    }

    #[test]
    fn page_size_escalates_only_on_fresh_pages_and_a_stall_ends_in_an_error() {
        let mut src = Recording(Vec::new());
        let mut ctx = ExecCtx::new(&mut src).unwrap();
        // A fault after progress rolls at the same size.
        let mut faults = 1;
        ctx.row(|| {
            if faults > 0 {
                faults -= 1;
                return Err(PcError::BlockFull { needed: 1, free: 0 });
            }
            Ok(())
        })
        .unwrap();
        ctx.row(|| Ok(())).unwrap();
        let mut faults = 1;
        ctx.row(|| {
            if faults > 0 {
                faults -= 1;
                return Err(PcError::BlockFull { needed: 1, free: 0 });
            }
            Ok(())
        })
        .unwrap();
        // A row that never fits stalls until the context gives up.
        let err = ctx
            .row(|| -> PcResult<()> { Err(PcError::BlockFull { needed: 1, free: 0 }) })
            .unwrap_err();
        assert!(!matches!(err, PcError::BlockFull { .. }), "{err:?}");
        drop(ctx);
        let sizes = &src.0;
        // Three faults, each the first since a row finished (or since the
        // start); the stalled row's second fault is on a fresh page, so its
        // third roll doubles, and doubling goes on to the cap.
        assert_eq!(sizes[..4], [4096; 4]);
        assert_eq!(sizes[4], 8192);
        assert_eq!(*sizes.last().unwrap(), 256 << 20);
        assert!(sizes.len() < 40, "{} rolls", sizes.len());
    }

    #[test]
    fn selection_vector_reads_base_rows_and_emits_dense_output() {
        let mut pages = ScratchPage::new(4096);
        let mut c = ctx(&mut pages);
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
