//! Columns: the vectors that make up a vector list (§5.2).
//!
//! A pipeline stage consumes and produces whole columns. Object columns hold
//! untyped handles into pinned input/output pages; scalar columns hold plain
//! Rust vectors (the paper's "intermediate data", kept off the output page —
//! Appendix C's "avoiding unwanted in-place allocations").

use pc_object::{AnyHandle, PcError, PcResult};

/// A column of values.
#[derive(Clone)]
pub enum Column {
    Bool(Vec<bool>),
    I64(Vec<i64>),
    F64(Vec<f64>),
    U64(Vec<u64>),
    Str(Vec<Box<str>>),
    Obj(Vec<AnyHandle>),
}

impl Column {
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::U64(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Obj(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Column::Bool(_) => "bool",
            Column::I64(_) => "i64",
            Column::F64(_) => "f64",
            Column::U64(_) => "u64",
            Column::Str(_) => "str",
            Column::Obj(_) => "obj",
        }
    }

    pub fn as_bool(&self) -> PcResult<&[bool]> {
        match self {
            Column::Bool(v) => Ok(v),
            other => Err(type_err("bool", other)),
        }
    }

    pub fn as_i64(&self) -> PcResult<&[i64]> {
        match self {
            Column::I64(v) => Ok(v),
            other => Err(type_err("i64", other)),
        }
    }

    pub fn as_f64(&self) -> PcResult<&[f64]> {
        match self {
            Column::F64(v) => Ok(v),
            other => Err(type_err("f64", other)),
        }
    }

    pub fn as_u64(&self) -> PcResult<&[u64]> {
        match self {
            Column::U64(v) => Ok(v),
            other => Err(type_err("u64", other)),
        }
    }

    pub fn as_obj(&self) -> PcResult<&[AnyHandle]> {
        match self {
            Column::Obj(v) => Ok(v),
            other => Err(type_err("obj", other)),
        }
    }

    /// Replicates row `i` `counts[i]` times (FLATMAP reshaping).
    pub fn replicate(&self, counts: &[u32]) -> Column {
        fn r<T: Clone>(v: &[T], counts: &[u32]) -> Vec<T> {
            // Sum as usize: a batch of u32 counts can overflow a u32 total.
            let total: usize = counts.iter().map(|&c| c as usize).sum();
            let mut out = Vec::with_capacity(total);
            for (x, &c) in v.iter().zip(counts) {
                for _ in 0..c {
                    out.push(x.clone());
                }
            }
            out
        }
        match self {
            Column::Bool(v) => Column::Bool(r(v, counts)),
            Column::I64(v) => Column::I64(r(v, counts)),
            Column::F64(v) => Column::F64(r(v, counts)),
            Column::U64(v) => Column::U64(r(v, counts)),
            Column::Str(v) => Column::Str(r(v, counts)),
            Column::Obj(v) => Column::Obj(r(v, counts)),
        }
    }

    /// Selection-aware replicate: `counts[i]` applies to row `sel[i]` (or to
    /// row `i` when `sel` is `None`). Output is dense.
    pub fn replicate_sel(&self, counts: &[u32], sel: Option<&[u32]>) -> Column {
        let Some(sel) = sel else {
            return self.replicate(counts);
        };
        fn r<T: Clone>(v: &[T], counts: &[u32], sel: &[u32]) -> Vec<T> {
            let total: usize = counts.iter().map(|&c| c as usize).sum();
            let mut out = Vec::with_capacity(total);
            for (&row, &c) in sel.iter().zip(counts) {
                for _ in 0..c {
                    out.push(v[row as usize].clone());
                }
            }
            out
        }
        match self {
            Column::Bool(v) => Column::Bool(r(v, counts, sel)),
            Column::I64(v) => Column::I64(r(v, counts, sel)),
            Column::F64(v) => Column::F64(r(v, counts, sel)),
            Column::U64(v) => Column::U64(r(v, counts, sel)),
            Column::Str(v) => Column::Str(r(v, counts, sel)),
            Column::Obj(v) => Column::Obj(r(v, counts, sel)),
        }
    }

    /// Gathers rows by index (join probe output assembly, selection-vector
    /// compaction at stage boundaries), drawing the output allocation from
    /// (and sized by) a recycled [`ColumnPool`] buffer, so steady-state
    /// batches allocate nothing.
    pub fn gather_pooled(&self, idx: &[u32], pool: &mut ColumnPool) -> Column {
        fn g<T: Clone>(v: &[T], idx: &[u32], mut out: Vec<T>) -> Vec<T> {
            out.clear();
            out.reserve(idx.len());
            out.extend(idx.iter().map(|&i| v[i as usize].clone()));
            out
        }
        match self {
            Column::Bool(v) => Column::Bool(g(v, idx, pool.bools.pop().unwrap_or_default())),
            Column::I64(v) => Column::I64(g(v, idx, pool.i64s.pop().unwrap_or_default())),
            Column::F64(v) => Column::F64(g(v, idx, pool.f64s.pop().unwrap_or_default())),
            Column::U64(v) => Column::U64(g(v, idx, pool.u64s.pop().unwrap_or_default())),
            Column::Str(v) => Column::Str(g(v, idx, pool.strs.pop().unwrap_or_default())),
            Column::Obj(v) => Column::Obj(g(v, idx, pool.objs.pop().unwrap_or_default())),
        }
    }
}

/// Recycled batch buffers, keyed by element type. The executor drains a
/// finished batch's columns back into the pool (clearing them — which drops
/// object handles and releases their page pins — but keeping the
/// allocation), so the next batch's columns reuse the same heap buffers
/// instead of re-allocating per operator (Appendix C's "near-zero per-row
/// overhead" requires the hot loop to be allocation-free in steady state).
#[derive(Default)]
pub struct ColumnPool {
    pub bools: Vec<Vec<bool>>,
    pub i64s: Vec<Vec<i64>>,
    pub f64s: Vec<Vec<f64>>,
    pub u64s: Vec<Vec<u64>>,
    pub strs: Vec<Vec<Box<str>>>,
    pub objs: Vec<Vec<AnyHandle>>,
    /// Spare selection/gather-index vectors.
    pub sels: Vec<Vec<u32>>,
}

/// Spare buffers kept per element type. Kernel outputs are freshly
/// allocated each batch, so recycling pushes more than the next batch pops;
/// without a cap the pool would grow linearly with batch count.
const POOL_CAP: usize = 32;

fn stash<T>(list: &mut Vec<Vec<T>>, mut v: Vec<T>) {
    v.clear();
    if list.len() < POOL_CAP {
        list.push(v);
    }
}

impl ColumnPool {
    /// Returns a column's backing buffer to the pool. Clearing drops the
    /// elements now (releasing any page pins held by object handles); the
    /// allocation is kept only while the per-type free list is below its
    /// cap, so a long pipeline stage's pool stays batch-sized.
    pub fn recycle(&mut self, col: Column) {
        match col {
            Column::Bool(v) => stash(&mut self.bools, v),
            Column::I64(v) => stash(&mut self.i64s, v),
            Column::F64(v) => stash(&mut self.f64s, v),
            Column::U64(v) => stash(&mut self.u64s, v),
            Column::Str(v) => stash(&mut self.strs, v),
            Column::Obj(v) => stash(&mut self.objs, v),
        }
    }

    /// An empty (but possibly pre-sized) object-handle buffer.
    pub fn take_objs(&mut self) -> Vec<AnyHandle> {
        self.objs.pop().unwrap_or_default()
    }

    /// An empty (but possibly pre-sized) selection/index buffer.
    pub fn take_sel(&mut self) -> Vec<u32> {
        self.sels.pop().unwrap_or_default()
    }

    pub fn recycle_sel(&mut self, sel: Vec<u32>) {
        stash(&mut self.sels, sel);
    }
}

fn type_err(expected: &'static str, found: &Column) -> PcError {
    PcError::Catalog(format!(
        "column type mismatch: expected {expected}, found {}",
        found.type_name()
    ))
}

impl std::fmt::Debug for Column {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Column::{}[{}]", self.type_name(), self.len())
    }
}

/// Rust values collectible into a [`Column`] — the return types usable from
/// lambda extraction functions.
pub trait ColValue: 'static + Sized {
    fn collect(v: Vec<Self>) -> Column;
}

impl ColValue for bool {
    fn collect(v: Vec<Self>) -> Column {
        Column::Bool(v)
    }
}

impl ColValue for i64 {
    fn collect(v: Vec<Self>) -> Column {
        Column::I64(v)
    }
}

impl ColValue for f64 {
    fn collect(v: Vec<Self>) -> Column {
        Column::F64(v)
    }
}

impl ColValue for u64 {
    fn collect(v: Vec<Self>) -> Column {
        Column::U64(v)
    }
}

impl ColValue for Box<str> {
    fn collect(v: Vec<Self>) -> Column {
        Column::Str(v)
    }
}

impl ColValue for String {
    fn collect(v: Vec<Self>) -> Column {
        Column::Str(v.into_iter().map(|s| s.into_boxed_str()).collect())
    }
}

impl ColValue for AnyHandle {
    fn collect(v: Vec<Self>) -> Column {
        Column::Obj(v)
    }
}

impl<T: pc_object::PcObjType> ColValue for pc_object::Handle<T> {
    fn collect(v: Vec<Self>) -> Column {
        Column::Obj(v.into_iter().map(|h| h.erase()).collect())
    }
}
