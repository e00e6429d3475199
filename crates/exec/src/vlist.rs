//! Vector lists (§5.2): the named column sets flowing through a pipeline.
//!
//! A vector list is **slot-addressed**: the planner resolves every column
//! name to a slot index once per pipeline ([`crate::plan::PipelineSpec::resolve`]),
//! so the per-batch hot path is pure index arithmetic — no string compares.
//!
//! It also carries a **selection vector**: FILTER marks surviving base rows
//! in `sel` instead of re-materializing every column (the eager copying the
//! paper attributes to the Spark-like baseline, not to PlinyCompute).
//! Invariant: all present columns are mutually aligned to the batch's base
//! rows; `sel`, when set, lists the live base-row indices in ascending
//! order. Selection-aware kernels read through `sel` and emit dense output,
//! at which point the list *rebases*: surviving columns are compacted (one
//! gather, drawing buffers from a recycled [`ColumnPool`]) and `sel`
//! clears. Columns dropped by the statement's output declaration are never
//! copied at all.

use pc_lambda::{Column, ColumnPool};
use pc_object::{PcError, PcResult};

/// A batch of named columns, all of equal base length, viewed through an
/// optional selection vector.
pub struct VectorList {
    names: Vec<String>,
    slots: Vec<Option<Column>>,
    sel: Option<Vec<u32>>,
}

impl VectorList {
    /// A list pre-sized for a resolved pipeline's slot map: every slot
    /// empty, addressed by index.
    pub fn for_slots(names: Vec<String>) -> Self {
        let slots = names.iter().map(|_| None).collect();
        VectorList {
            names,
            slots,
            sel: None,
        }
    }

    /// Base row count (length of the aligned columns, 0 when empty).
    pub fn base_len(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .next()
            .map(|c| c.len())
            .unwrap_or(0)
    }

    /// Number of live rows: the selection's length when one is active,
    /// otherwise the base row count.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.base_len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The active selection vector (base-row indices), if any.
    pub fn sel(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    // ------------------------------------------------------ slot addressing

    /// The base-aligned column in `slot` (read through [`Self::sel`]).
    pub fn slot(&self, slot: usize) -> PcResult<&Column> {
        self.slots
            .get(slot)
            .and_then(|c| c.as_ref())
            .ok_or_else(|| {
                PcError::Catalog(format!(
                    "vector list has no column in slot {slot} ({})",
                    self.names.get(slot).map(|n| n.as_str()).unwrap_or("?")
                ))
            })
    }

    /// Installs a column into `slot`. Must not be called while a selection
    /// is active (push after [`Self::rebase_with`] / a filter's refinement
    /// instead): a fresh dense column would not align with the base rows.
    pub fn set_slot(&mut self, slot: usize, col: Column) {
        debug_assert!(
            self.sel.is_none(),
            "set_slot with an active selection would break base alignment"
        );
        debug_assert!(
            self.slots.iter().flatten().all(|c| c.len() == col.len()),
            "column length {} != vector list base length {}",
            col.len(),
            self.base_len()
        );
        self.slots[slot] = Some(col);
    }

    /// Clears one slot, recycling its buffer.
    pub fn clear_slot(&mut self, slot: usize, pool: &mut ColumnPool) {
        if let Some(col) = self.slots[slot].take() {
            pool.recycle(col);
        }
    }

    /// Clears every slot in `drop` (a resolved op's statically computed
    /// drop list — the columns the statement's output declaration loses).
    pub fn drop_slots(&mut self, drop: &[usize], pool: &mut ColumnPool) {
        for &s in drop {
            self.clear_slot(s, pool);
        }
    }

    // --------------------------------------------------- selection mechanics

    /// FILTER: refines the selection by the base-aligned boolean column in
    /// `bool_slot`. No column is touched, let alone copied.
    pub fn filter_by_slot(&mut self, bool_slot: usize, pool: &mut ColumnPool) -> PcResult<()> {
        let mask = self.slot(bool_slot)?.as_bool()?;
        let mut next = pool.take_sel();
        match &self.sel {
            None => next.extend(
                mask.iter()
                    .enumerate()
                    .filter(|(_, &m)| m)
                    .map(|(i, _)| i as u32),
            ),
            Some(cur) => next.extend(cur.iter().copied().filter(|&i| mask[i as usize])),
        }
        if let Some(old) = self.sel.replace(next) {
            pool.recycle_sel(old);
        }
        Ok(())
    }

    /// Rebase after a selection-aware kernel produced the dense column
    /// `out`: compact every surviving column through the selection (one
    /// gather each, from pooled buffers), clear the selection, and install
    /// `out`. With no active selection this is just the install.
    pub fn rebase_with(&mut self, out_slot: usize, out: Column, pool: &mut ColumnPool) {
        if let Some(sel) = self.sel.take() {
            for c in self.slots.iter_mut().flatten() {
                let compacted = c.gather_pooled(&sel, pool);
                pool.recycle(std::mem::replace(c, compacted));
            }
            pool.recycle_sel(sel);
        }
        self.slots[out_slot] = Some(out);
    }

    /// FLATMAP rebase: `counts` (one entry per live row) expands through
    /// the selection into a pooled base-row index vector, every surviving
    /// column is gathered by it (the probe rebase's gather), the selection
    /// clears, and the kernel's dense output column is installed.
    pub fn replicate_with(
        &mut self,
        counts: &[u32],
        out_slot: usize,
        out: Column,
        pool: &mut ColumnPool,
    ) {
        let mut idx = pool.take_sel();
        let sel = self.sel.as_deref();
        for (i, &c) in counts.iter().enumerate() {
            let row = sel.map_or(i as u32, |s| s[i]);
            idx.extend(std::iter::repeat(row).take(c as usize));
        }
        self.gather_rebase(&idx, pool);
        pool.recycle_sel(idx);
        self.slots[out_slot] = Some(out);
    }

    /// Join-probe rebase: every surviving column is gathered by `idx`
    /// (base-row indices, one per match — the probe loop already folded the
    /// selection into `idx`); the selection clears.
    pub fn gather_rebase(&mut self, idx: &[u32], pool: &mut ColumnPool) {
        for c in self.slots.iter_mut().flatten() {
            let gathered = c.gather_pooled(idx, pool);
            pool.recycle(std::mem::replace(c, gathered));
        }
        if let Some(sel) = self.sel.take() {
            pool.recycle_sel(sel);
        }
    }

    /// Ends the batch: drops every column and the selection into the pool,
    /// releasing object references while keeping the heap buffers for the
    /// next batch.
    pub fn recycle(&mut self, pool: &mut ColumnPool) {
        for c in self.slots.iter_mut() {
            if let Some(col) = c.take() {
                pool.recycle(col);
            }
        }
        if let Some(sel) = self.sel.take() {
            pool.recycle_sel(sel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slot-addressed list over `cols`, slot `i` holding `cols[i]`.
    fn list_of(cols: Vec<Column>) -> VectorList {
        let mut vl = VectorList::for_slots((0..cols.len()).map(|i| format!("c{i}")).collect());
        for (slot, col) in cols.into_iter().enumerate() {
            vl.set_slot(slot, col);
        }
        vl
    }

    #[test]
    fn push_filter_retain_roundtrip() {
        let mut pool = ColumnPool::default();
        let mut vl = list_of(vec![
            Column::I64(vec![1, 2, 3, 4]),
            Column::Bool(vec![true, false, true, false]),
        ]);
        assert_eq!(vl.len(), 4);
        vl.filter_by_slot(1, &mut pool).unwrap();
        // The filter only marks rows...
        assert_eq!(vl.len(), 2);
        assert_eq!(vl.sel(), Some(&[0u32, 2][..]));
        assert_eq!(vl.slot(0).unwrap().len(), 4, "columns stay unmaterialized");
        // ...until a kernel's dense output rebases them; the statement's
        // drop list then loses the mask.
        vl.rebase_with(1, Column::Bool(vec![true, true]), &mut pool);
        assert_eq!(vl.slot(0).unwrap().as_i64().unwrap(), &[1, 3]);
        vl.drop_slots(&[1], &mut pool);
        assert!(vl.slot(1).is_err());
    }

    #[test]
    fn chained_filters_compose_selections() {
        let mut pool = ColumnPool::default();
        let mut vl = list_of(vec![
            Column::I64(vec![10, 20, 30, 40, 50, 60]),
            Column::Bool(vec![true, true, false, true, true, false]), // rows 0,1,3,4
            Column::Bool(vec![false, true, true, true, false, true]), // rows 1,2,3,5
        ]);
        vl.filter_by_slot(1, &mut pool).unwrap();
        assert_eq!(vl.len(), 4);
        // Masks are base-aligned: the second refines the first's survivors.
        vl.filter_by_slot(2, &mut pool).unwrap();
        assert_eq!(vl.sel(), Some(&[1u32, 3][..]));
        vl.rebase_with(2, Column::I64(vec![0, 0]), &mut pool);
        assert_eq!(vl.slot(0).unwrap().as_i64().unwrap(), &[20, 40]);
    }

    #[test]
    fn replicate_matches_counts() {
        let mut pool = ColumnPool::default();
        let mut vl = list_of(vec![
            Column::F64(vec![1.0, 2.0, 3.0]),
            Column::I64(vec![0; 3]),
        ]);
        vl.replicate_with(&[2, 0, 1], 1, Column::I64(vec![7, 8, 9]), &mut pool);
        assert_eq!(vl.slot(0).unwrap().as_f64().unwrap(), &[1.0, 1.0, 3.0]);
        assert_eq!(vl.slot(1).unwrap().as_i64().unwrap(), &[7, 8, 9]);
    }

    #[test]
    fn replicate_through_selection() {
        let mut pool = ColumnPool::default();
        let mut vl = list_of(vec![
            Column::F64(vec![1.0, 2.0, 3.0, 4.0]),
            Column::Bool(vec![false, true, false, true]), // live rows 1, 3
        ]);
        vl.filter_by_slot(1, &mut pool).unwrap();
        vl.replicate_with(&[3, 1], 1, Column::I64(vec![0; 4]), &mut pool);
        assert_eq!(vl.slot(0).unwrap().as_f64().unwrap(), &[2.0, 2.0, 2.0, 4.0]);
        assert_eq!(vl.sel(), None, "replicate rebases");
        // A probe's gather rebases the same way, by base-row index.
        vl.gather_rebase(&[3, 0, 0], &mut pool);
        assert_eq!(vl.slot(0).unwrap().as_f64().unwrap(), &[4.0, 2.0, 2.0]);
    }

    #[test]
    fn slot_api_rebases_on_kernel_output() {
        let mut pool = ColumnPool::default();
        let mut vl = VectorList::for_slots(vec!["a".into(), "b".into()]);
        vl.set_slot(0, Column::I64(vec![1, 2, 3, 4]));
        vl.set_slot(1, Column::Bool(vec![false, true, true, false]));
        vl.filter_by_slot(1, &mut pool).unwrap();
        assert_eq!(vl.len(), 2);
        // A kernel would emit a dense 2-row column; rebase compacts "a"/"b".
        vl.rebase_with(1, Column::I64(vec![20, 30]), &mut pool);
        assert_eq!(vl.sel(), None);
        assert_eq!(vl.slot(0).unwrap().as_i64().unwrap(), &[2, 3]);
        assert_eq!(vl.slot(1).unwrap().as_i64().unwrap(), &[20, 30]);
        // Recycling keeps buffers for the next batch.
        vl.recycle(&mut pool);
        assert_eq!(vl.len(), 0);
        assert!(!pool.i64s.is_empty());
    }
}
