//! `SetWriter`: the output pipe sink, with the page-lifetime model of
//! Appendix C.
//!
//! Output objects are constructed **directly on the live output page** (the
//! paper's "data should be constructed where it is ultimately needed"). When
//! the page fills mid-batch, it cannot necessarily be sealed: columns still
//! in flight may hold handles into it. A retired page that holds written
//! rows therefore becomes a **zombie output page** — full, holding valid
//! output data, and parked until the batch ends.
//! [`SetWriter::release_zombies`] (called at batch boundaries) seals the
//! zombies in the order they filled, and [`SetWriter::finish`] asserts none
//! remain pinned. A retired page that holds no written rows yet (one an
//! object-producing kernel filled) is not a zombie: it lives as long as the
//! batch's handles into it, and the sink deep-copies its objects onto the
//! live page when it writes them (§6.4).
//!
//! Appendix C bounds zombie output pages at two per pipeline, because a
//! faulted vector is re-processed whole on a fresh page. Here a faulted
//! kernel resumes at its row instead (`crate::kernel`), and the rows done
//! before each fault are copied when written. A batch therefore parks about
//! one zombie per page its kernels fill (the copies, plus each page's root
//! vector), plus the page that was live when the batch began.

use crate::kernel::PageSource;
use pc_object::{
    make_object, AllocPolicy, AllocScope, AnyHandle, AnyObj, BlockRef, Handle, PcError, PcResult,
    PcVec, SealedPage,
};

/// Accumulates objects into sealed pages, each rooted at a
/// `PcVec<Handle<AnyObj>>` — the on-page shape of a stored set.
pub struct SetWriter {
    page_size: usize,
    policy: AllocPolicy,
    current: Option<(BlockRef, Handle<PcVec<Handle<AnyObj>>>)>,
    /// Full pages that may still be referenced by in-flight columns.
    zombies: Vec<BlockRef>,
    pages: Vec<SealedPage>,
    /// Objects written so far (diagnostics).
    pub objects_written: u64,
    /// Pages sealed so far.
    pub pages_sealed: u64,
    /// High-water mark of simultaneously live zombie output pages.
    pub max_zombies: usize,
}

impl SetWriter {
    pub fn new(page_size: usize) -> Self {
        Self::with_policy(page_size, AllocPolicy::LightweightReuse)
    }

    pub fn with_policy(page_size: usize, policy: AllocPolicy) -> Self {
        SetWriter {
            page_size,
            policy,
            current: None,
            zombies: Vec::new(),
            pages: Vec::new(),
            objects_written: 0,
            pages_sealed: 0,
            max_zombies: 0,
        }
    }

    fn ensure_page(&mut self) -> PcResult<()> {
        if self.current.is_none() {
            self.open_page(self.page_size)?;
        }
        Ok(())
    }

    /// Opens a fresh live page of `size` bytes.
    fn open_page(&mut self, size: usize) -> PcResult<BlockRef> {
        let block = BlockRef::new(size, self.policy);
        let scope = AllocScope::install(block.clone());
        let root = make_object::<PcVec<Handle<AnyObj>>>()?;
        block.set_root(&root);
        drop(scope);
        self.current = Some((block.clone(), root));
        Ok(block)
    }

    /// Doubles the page size for the next live page (fault escalation: a
    /// single object must eventually fit one page). Capped at 256 MiB, PC's
    /// default page size.
    fn escalate_page_size(&mut self) {
        self.page_size = (self.page_size * 2).min(256 << 20);
    }

    /// The fault path: retire the live page and open a fresh live page.
    fn retire_live_page(&mut self) -> PcResult<()> {
        self.retire();
        self.ensure_page()
    }

    /// Parks the live page, if it holds rows, as a zombie until the next
    /// batch boundary: columns in flight may still reference it, and
    /// parked pages seal in the order they filled. A page that holds no
    /// rows is dropped; objects on it live on as long as their handles do.
    fn retire(&mut self) {
        if let Some((block, root)) = self.current.take() {
            if !root.is_empty() {
                self.zombies.push(block);
                self.max_zombies = self.max_zombies.max(self.zombies.len());
            }
        }
    }

    /// Seals every zombie page whose external references are gone. Call at
    /// vector-list (batch) boundaries — the paper's "once a vector list
    /// makes it all the way through the pipeline, all zombie output pages
    /// can be flushed".
    pub fn release_zombies(&mut self) -> PcResult<()> {
        for block in self.zombies.drain(..) {
            match block.try_seal() {
                Ok(page) => {
                    self.pages.push(page);
                    self.pages_sealed += 1;
                }
                Err(PcError::BlockShared) => {
                    // try_seal consumed our ref; the page is still pinned by
                    // someone else, so it will be unreachable to us — that
                    // would leak output. Guard: this must not happen between
                    // batches; treat as a hard error.
                    return Err(PcError::Catalog(
                        "zombie output page still pinned at batch boundary".into(),
                    ));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Number of zombie output pages parked until the batch boundary.
    pub fn zombie_count(&self) -> usize {
        self.zombies.len()
    }

    /// The live output block (callers install it as the active allocation
    /// block while running object-producing kernels).
    fn live_block(&mut self) -> PcResult<BlockRef> {
        self.ensure_page()?;
        Ok(self.current.as_ref().unwrap().0.clone())
    }

    /// Appends a constructed object. Same-page handles append with zero
    /// copying; foreign handles (including handles into a zombie page) deep
    /// copy onto the live page (§6.4). Rolls the page and retries on
    /// `BlockFull`.
    pub fn write_handle(&mut self, h: &AnyHandle) -> PcResult<()> {
        self.ensure_page()?;
        let push = |cur: &(BlockRef, Handle<PcVec<Handle<AnyObj>>>), h: &AnyHandle| {
            cur.1.push(h.downcast_unchecked::<AnyObj>())
        };
        match push(self.current.as_ref().unwrap(), h) {
            Ok(()) => {
                self.objects_written += 1;
                Ok(())
            }
            Err(PcError::BlockFull { .. }) => {
                self.retire_live_page()?;
                match push(self.current.as_ref().unwrap(), h) {
                    Ok(()) => {}
                    Err(PcError::BlockFull { .. }) => {
                        // One object larger than a fresh page: grow until
                        // it fits (capped at PC's 256 MiB page size).
                        for _ in 0..12 {
                            self.escalate_page_size();
                            self.retire_live_page()?;
                            match push(self.current.as_ref().unwrap(), h) {
                                Ok(()) => break,
                                Err(PcError::BlockFull { .. }) => continue,
                                Err(e) => return Err(e),
                            }
                        }
                    }
                    Err(e) => return Err(e),
                }
                self.objects_written += 1;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Runs `make` with the live page active and appends its result; on a
    /// `BlockFull` fault the page is retired and `make` re-run on a fresh
    /// page, escalating the page size when even an empty page cannot fit
    /// the object (objects larger than one page must eventually fit —
    /// PC's pages grow to 256 MiB).
    pub fn write_with(&mut self, mut make: impl FnMut() -> PcResult<AnyHandle>) -> PcResult<()> {
        self.ensure_page()?;
        let attempt =
            |w: &mut Self, make: &mut dyn FnMut() -> PcResult<AnyHandle>| -> PcResult<()> {
                let block = w.current.as_ref().unwrap().0.clone();
                let _scope = AllocScope::install(block);
                let h = make()?;
                w.current
                    .as_ref()
                    .unwrap()
                    .1
                    .push(h.downcast_unchecked::<AnyObj>())
            };
        for _ in 0..16 {
            match attempt(self, &mut make) {
                Ok(()) => {
                    self.objects_written += 1;
                    return Ok(());
                }
                Err(PcError::BlockFull { .. }) => {
                    // If the failing page held nothing yet, a same-size
                    // retry cannot succeed: grow.
                    let fresh = self
                        .current
                        .as_ref()
                        .map(|(_, r)| r.is_empty())
                        .unwrap_or(true);
                    if fresh {
                        self.escalate_page_size();
                    }
                    self.retire_live_page()?;
                }
                Err(e) => return Err(e),
            }
        }
        Err(PcError::Catalog(
            "object exceeds the maximum page size".into(),
        ))
    }

    /// Seals the tail page and any zombies, returning all pages.
    pub fn finish(mut self) -> PcResult<Vec<SealedPage>> {
        self.release_zombies()?;
        self.retire_tail()?;
        Ok(std::mem::take(&mut self.pages))
    }

    fn retire_tail(&mut self) -> PcResult<()> {
        if let Some((block, root)) = self.current.take() {
            let empty = root.is_empty();
            drop(root);
            if !empty {
                self.pages.push(block.try_seal()?);
                self.pages_sealed += 1;
            }
        }
        Ok(())
    }
}

/// The live output page is where object-producing kernels allocate: a
/// kernel's fault retires it (parking it as a zombie if it holds rows) and
/// opens a fresh one at the size the kernel's escalation asks for.
impl PageSource for SetWriter {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn page(&mut self) -> PcResult<BlockRef> {
        self.live_block()
    }

    fn roll(&mut self, size: usize) -> PcResult<BlockRef> {
        self.retire();
        self.open_page(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_object::pc_object;

    pc_object! {
        pub struct Point / PointView {
            (x, set_x): f64,
        }
    }

    #[test]
    fn writer_rolls_pages_and_preserves_every_object() {
        let mut w = SetWriter::new(2048); // tiny pages force rolling
        for i in 0..500 {
            w.write_with(|| {
                let p = make_object::<Point>()?;
                p.v().set_x(i as f64)?;
                Ok(p.erase())
            })
            .unwrap();
        }
        assert_eq!(w.objects_written, 500);
        let pages = w.finish().unwrap();
        assert!(
            pages.len() > 1,
            "tiny pages must roll (got {})",
            pages.len()
        );
        let mut seen = 0usize;
        let mut sum = 0.0;
        for page in pages {
            let (_b, root) = page.open().unwrap();
            let v = root.downcast::<PcVec<Handle<AnyObj>>>().unwrap();
            for h in v.iter() {
                let p: Handle<Point> = h.assume();
                sum += p.v().x();
                seen += 1;
            }
        }
        assert_eq!(seen, 500);
        assert_eq!(sum, (0..500).map(|i| i as f64).sum::<f64>());
    }

    #[test]
    fn zombie_pages_appear_when_columns_pin_a_full_page() {
        let mut w = SetWriter::new(2048);
        // Simulate pipeline batches: objects allocated on the live page and
        // held in a per-batch column while writes force pages to retire.
        // At batch boundaries the column dies and zombies are released —
        // Appendix C's argument for the cap of two then applies.
        for batch in 0..5 {
            let mut column: Vec<AnyHandle> = Vec::new();
            for i in 0..40 {
                loop {
                    let block = w.live_block().unwrap();
                    let scope = AllocScope::install(block);
                    let p = make_object::<Point>().and_then(|p| {
                        p.v().set_x((batch * 40 + i) as f64)?;
                        Ok(p)
                    });
                    drop(scope);
                    match p {
                        Ok(p) => {
                            column.push(p.erase());
                            w.write_handle(&column.last().unwrap().clone()).unwrap();
                            break;
                        }
                        Err(PcError::BlockFull { .. }) => {
                            // Allocation fault: the page is pinned by the
                            // column, so retiring it must zombify.
                            w.retire_live_page().unwrap();
                        }
                        Err(e) => panic!("{e}"),
                    }
                }
            }
            assert!(w.zombie_count() <= 2, "zombie cap exceeded within a batch");
            drop(column);
            w.release_zombies().unwrap();
            assert_eq!(w.zombie_count(), 0);
        }
        assert!(
            w.max_zombies >= 1,
            "full pages pinned by a column must zombify"
        );
        assert!(
            w.max_zombies <= 2,
            "Appendix C caps zombie output pages at 2"
        );
        let pages = w.finish().unwrap();
        let total: usize = pages
            .iter()
            .map(|p| {
                let bytes = p.to_bytes();
                let (_b, root) = SealedPage::from_bytes(&bytes).unwrap().open().unwrap();
                root.downcast::<PcVec<Handle<AnyObj>>>().unwrap().len()
            })
            .sum();
        assert_eq!(total, 200);
    }
}
