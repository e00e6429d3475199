//! `SetWriter`: the output pipe sink, with the page-lifetime model of
//! Appendix C.
//!
//! Output objects are constructed **directly on the live output page** (the
//! paper's "data should be constructed where it is ultimately needed"), and
//! a written row is rooted on the page its object already lies on. A set
//! page is its objects plus one exactly-sized root vector
//! ([`SetPage`]), written once when the page seals; until then the writer
//! keeps each open page's row offsets off-page and holds back room for the
//! root on the page where each row finished.
//!
//! One rooting rule decides every row: its object is rooted in place when
//! it lies on one of this writer's open pages, no earlier than the page the
//! previous row was rooted on, with room for one more handle. Any other row
//! is deep-copied onto the live page (§6.4), which an [`ExecCtx`] rolls
//! only when the copy faults: a stored object a FILTER passed through, a
//! lambda's input object, or a flat-map row whose values outran the room
//! held for them. Within a morsel, rows are therefore in row order and
//! pages in fill order.
//!
//! When a kernel's fault rolls the live page mid-batch, the page cannot be
//! sealed yet: columns in flight hold handles into it, and the sink has yet
//! to root the batch's rows on it. It stays open as a **zombie output
//! page** until [`SetWriter::release_zombies`] (called at batch boundaries)
//! seals the zombies in the order they filled. Appendix C bounds zombies at
//! two per pipeline because a faulted vector is re-processed whole; here a
//! faulted kernel resumes at its row (`crate::kernel`), so a batch parks
//! one zombie per page its kernels fill, plus the page that was live when
//! the batch began.

use crate::kernel::{ExecCtx, PageSource};
use pc_object::{
    current_block, AllocPolicy, AllocScope, AnyHandle, AnyObj, BlockRef, PcError, PcObjType,
    PcResult, SealedPage, SetPage,
};

/// Accumulates objects into sealed [`SetPage`]s — the on-page shape of a
/// stored set.
pub struct SetWriter {
    page_size: usize,
    /// Pages rows may still be rooted on, in the order they opened, each
    /// with the offsets of its rows; the last is the live page.
    open: Vec<(BlockRef, Vec<u32>)>,
    /// Objects kernel rows finished on the live page.
    finished: usize,
    /// Index in `open` of the page the previous row was rooted on.
    last: usize,
    pages: Vec<SealedPage>,
    /// Objects written so far.
    pub objects_written: u64,
    /// Objects deep-copied onto the live page to be written.
    pub objects_copied: u64,
    /// High-water mark of zombie output pages at a batch boundary.
    pub max_zombies: usize,
}

impl SetWriter {
    pub fn new(page_size: usize) -> Self {
        SetWriter {
            page_size,
            open: Vec::new(),
            finished: 0,
            last: 0,
            pages: Vec::new(),
            objects_written: 0,
            objects_copied: 0,
            max_zombies: 0,
        }
    }

    /// Opens a fresh live page of `size` bytes. The old live page stays
    /// open if a finished row may lie on it.
    fn open_page(&mut self, size: usize) -> BlockRef {
        if self.finished == 0 && self.open.last().is_some_and(|(_, rows)| rows.is_empty()) {
            self.open.pop();
        }
        let block = BlockRef::new(size, AllocPolicy::LightweightReuse);
        self.open.push((block.clone(), Vec::new()));
        self.finished = 0;
        self.hold();
        block
    }

    /// Holds back the live page's root for every object kernels finished
    /// or the sink rooted on it, plus one more.
    fn hold(&self) {
        if let Some((block, rows)) = self.open.last() {
            block.hold_back(SetPage::root_bytes(self.finished.max(rows.len()) + 1));
        }
    }

    /// Seals every zombie page: the open pages but the live one. Call at
    /// vector-list (batch) boundaries — the paper's "once a vector list
    /// makes it all the way through the pipeline, all zombie output pages
    /// can be flushed".
    pub fn release_zombies(&mut self) -> PcResult<()> {
        let SetWriter {
            open,
            pages,
            finished,
            last,
            max_zombies,
            ..
        } = self;
        let zombies = open.len().saturating_sub(1);
        let rooted = open[..zombies].iter().filter(|(_, rows)| !rows.is_empty());
        *max_zombies = rooted.count().max(*max_zombies);
        *last = 0;
        for (block, rows) in open.drain(..zombies) {
            if !rows.is_empty() {
                pages.push(SetPage::seal(block, &rows)?);
            }
        }
        // The batch's rows are all written: objects it finished but did
        // not write (a later FILTER dropped them) need no root space.
        *finished = open.last().map_or(0, |(_, rows)| rows.len());
        self.hold();
        Ok(())
    }

    /// Writes `h`'s object: rooted where it lies when the rooting rule
    /// allows, deep-copied onto the live page otherwise (§6.4).
    pub fn write_handle(&mut self, h: &AnyHandle) -> PcResult<()> {
        if !self.root_in_place(h) {
            self.copy_to_live_page(h)?;
        }
        self.objects_written += 1;
        Ok(())
    }

    /// Deep-copies `h`'s object onto the live page and roots it there. The
    /// copy fits under the held-back root, so the root has room for it; a
    /// `BlockFull` goes to an [`ExecCtx`], which rolls the page.
    fn copy_to_live_page(&mut self, h: &AnyHandle) -> PcResult<()> {
        let copy = |to: &BlockRef| AnyObj::deep_copy_obj(h.block(), h.offset(), to);
        let off = match copy(&self.page()?) {
            Ok(off) => off,
            Err(e) => ExecCtx::new(self)?.retry(Err(e), || {
                copy(&current_block().ok_or(PcError::NoActiveBlock)?)
            })?,
        };
        let (block, rows) = self.open.last_mut().ok_or(PcError::NoActiveBlock)?;
        // The root will own the copy's first reference.
        block.inc_ref(off);
        rows.push(off);
        self.last = self.open.len() - 1;
        self.objects_copied += 1;
        self.hold();
        Ok(())
    }

    /// Roots `h` on the open page its object lies on, if that page is not
    /// before the previous row's and has room for one more handle.
    fn root_in_place(&mut self, h: &AnyHandle) -> bool {
        let Some(at) = self.open[self.last..]
            .iter()
            .position(|(block, _)| block.same_block(h.block()))
        else {
            return false;
        };
        let (block, rows) = &mut self.open[self.last + at];
        if block.capacity() - block.used() < SetPage::root_bytes(rows.len() + 1) {
            return false;
        }
        // The root will own this reference.
        block.inc_ref(h.offset());
        rows.push(h.offset());
        self.last += at;
        if self.last + 1 == self.open.len() {
            self.hold();
        }
        true
    }

    /// Runs `make` with the live page active and writes its result. A
    /// `BlockFull` goes to an [`ExecCtx`], which rolls the page and runs
    /// `make` again.
    pub fn write_with(&mut self, mut make: impl FnMut() -> PcResult<AnyHandle>) -> PcResult<()> {
        let first = {
            let _scope = AllocScope::install(self.page()?);
            make()
        };
        let h = match first {
            Ok(h) => h,
            Err(e) => ExecCtx::new(self)?.retry(Err(e), make)?,
        };
        self.write_handle(&h)
    }

    /// Seals every open page, returning all pages in fill order.
    pub fn finish(mut self) -> PcResult<Vec<SealedPage>> {
        self.release_zombies()?;
        if let Some((block, rows)) = self.open.pop() {
            if !rows.is_empty() {
                self.pages.push(SetPage::seal(block, &rows)?);
            }
        }
        Ok(self.pages)
    }
}

/// The live output page is where object-producing kernels allocate: a
/// kernel's fault opens a fresh one at the size the kernel's escalation
/// asks for, and every object a kernel row finishes holds back room for
/// its handle.
impl PageSource for SetWriter {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn page(&mut self) -> PcResult<BlockRef> {
        Ok(match self.open.last() {
            Some((block, _)) => block.clone(),
            None => self.open_page(self.page_size),
        })
    }

    fn roll(&mut self, size: usize) -> PcResult<BlockRef> {
        Ok(self.open_page(size))
    }

    fn rows_done(&mut self, rows: usize) {
        self.finished += rows;
        self.hold();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_object::{make_object, pc_object, Handle, PcVec};

    pc_object! {
        pub struct Point / PointView {
            (x, set_x): f64,
        }
    }

    fn xs(pages: &[SealedPage]) -> Vec<f64> {
        let mut out = Vec::new();
        for page in pages {
            let (_b, root) = SealedPage::from_bytes(&page.to_bytes())
                .unwrap()
                .open()
                .unwrap();
            let v = root.downcast::<PcVec<Handle<AnyObj>>>().unwrap();
            assert_eq!(v.capacity(), v.len(), "the root is sized exactly");
            out.extend(v.iter().map(|h| h.assume::<Point>().v().x()));
        }
        out
    }

    fn point(x: f64) -> PcResult<AnyHandle> {
        let p = make_object::<Point>()?;
        p.v().set_x(x)?;
        Ok(p.erase())
    }

    #[test]
    fn writer_rolls_pages_and_preserves_every_object() {
        let mut w = SetWriter::new(2048); // tiny pages force rolling
        for i in 0..500 {
            w.write_with(|| point(i as f64)).unwrap();
        }
        assert_eq!(w.objects_written, 500);
        assert_eq!(w.objects_copied, 0);
        let pages = w.finish().unwrap();
        assert!(
            pages.len() > 1,
            "tiny pages must roll (got {})",
            pages.len()
        );
        let want: Vec<f64> = (0..500).map(|i| i as f64).collect();
        assert_eq!(xs(&pages), want);
    }

    #[test]
    fn rows_are_rooted_where_their_kernels_left_them() {
        // Simulate pipeline batches: a kernel allocates on the live page,
        // rolling it when full, and holds the objects in a column; the sink
        // then writes the column. Every object is rooted on the page it
        // lies on, the pages the kernel filled park as zombies until the
        // batch boundary, and rows keep their order.
        let mut w = SetWriter::new(2048);
        for batch in 0..5 {
            let mut column: Vec<AnyHandle> = Vec::new();
            let mut ctx = ExecCtx::new(&mut w).unwrap();
            for i in 0..40 {
                column.push(ctx.value(|| point((batch * 40 + i) as f64)).unwrap());
            }
            drop(ctx);
            for h in &column {
                w.write_handle(h).unwrap();
            }
            drop(column);
            w.release_zombies().unwrap();
        }
        assert_eq!(w.objects_copied, 0, "no object is stored twice");
        assert!(
            w.max_zombies >= 1,
            "pages the kernel filled park as zombies"
        );
        // 40 points fill less than one 2 KiB page, so a batch parks at
        // most the page live when it began and one page it filled.
        assert!(
            w.max_zombies <= 2,
            "Appendix C caps zombie output pages at 2"
        );
        let pages = w.finish().unwrap();
        let want: Vec<f64> = (0..200).map(|i| i as f64).collect();
        assert_eq!(xs(&pages), want);
    }
}
