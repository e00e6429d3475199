//! Page faults inside object-producing kernels: a row whose allocation
//! fills the page resumes on a fresh page, so each live row's lambda
//! completes exactly once, whatever the page size, and the output neither
//! depends on the thread count nor loses a row.

use pc_core::{ClusterConfig, Dataset, Job, PcCluster};
use pc_exec::ExecConfig;
use pc_lambda::AggregateSpec;
use pc_object::{
    make_object, pc_object, AnyObj, BlockRef, Handle, PcResult, PcString, PcVec, SealedPage,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

pc_object! {
    /// An input row: an id and how many words it yields.
    pub struct Doc / DocView {
        (id, set_id): i64,
        (words, set_words): i64,
    }
}

pc_object! {
    /// A kernel-built object; `text` pads it so one batch's objects span
    /// several pages.
    pub struct Word / WordView {
        (key, set_key): i64,
        (val, set_val): i64,
        (text, set_text): Handle<PcString>,
    }
}

pc_object! {
    /// Aggregation output: a key's word count and value sum.
    pub struct KeySum / KeySumView {
        (key, set_key): i64,
        (count, set_count): i64,
        (sum, set_sum): i64,
    }
}

const DOCS: i64 = 3_000;
const KEYS: i64 = 97;
const PAGE_SIZES: [usize; 3] = [4 << 10, 16 << 10, 64 << 10];

fn cluster(page_size: usize, threads: usize) -> PcCluster {
    cluster_of(
        ExecConfig {
            batch_size: 512,
            page_size,
            partitions: 4,
            threads,
            morsel_rows: 1024,
        },
        DOCS,
    )
}

/// A one-worker cluster holding `docs` [`Doc`]s on one input page.
fn cluster_of(exec: ExecConfig, docs: i64) -> PcCluster {
    let ex = PcCluster::new(ClusterConfig {
        workers: 1,
        exec,
        ..ClusterConfig::default()
    })
    .unwrap();
    ex.create_or_clear_set("db", "docs").unwrap();
    let mut w = pc_lambda::SetWriter::new(1 << 20);
    for id in 0..docs {
        w.write_with(|| {
            let d = make_object::<Doc>()?;
            d.v().set_id(id)?;
            d.v().set_words(1 + id % 5)?;
            Ok(d.erase())
        })
        .unwrap();
    }
    ex.send_pages("db", "docs", w.finish().unwrap()).unwrap();
    ex.create_or_clear_set("db", "out").unwrap();
    ex
}

/// The rows the filter keeps.
fn live(id: i64) -> bool {
    id % 4 != 3
}

/// Padding of 40 to 160 bytes, or of 12 000 bytes (about three 4 KiB
/// pages) on every `oversized`-th row.
fn text(id: i64, oversized: Option<i64>) -> String {
    let len = match oversized {
        Some(n) if id % n == 0 => 12_000,
        _ => 40 + (id * 37 % 121) as usize,
    };
    "x".repeat(len)
}

fn make_word(key: i64, val: i64, text: &str) -> PcResult<Handle<Word>> {
    let w = make_object::<Word>()?;
    w.v().set_key(key)?;
    w.v().set_val(val)?;
    w.v().set_text(PcString::make(text)?)?;
    Ok(w)
}

fn docs() -> Dataset<Doc> {
    Dataset::<Doc>::scan("db", "docs")
        .filter(|d| d.member("idMod4", |d| d.v().id() % 4).lt_const(3i64))
}

/// Counts and sums `val` per `key`.
struct ByKey;

impl AggregateSpec for ByKey {
    type In = Word;
    type Key = i64;
    type Val = (i64, i64);
    type Out = KeySum;

    fn key_of(&self, rec: &Handle<Word>) -> PcResult<i64> {
        Ok(rec.v().key())
    }

    fn init(&self, _b: &BlockRef, rec: &Handle<Word>) -> PcResult<(i64, i64)> {
        Ok((1, rec.v().val() + rec.v().text().str_len() as i64))
    }

    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<Word>) -> PcResult<()> {
        let (c, s): (i64, i64) = b.read(slot);
        b.write(
            slot,
            (c + 1, s + rec.v().val() + rec.v().text().str_len() as i64),
        );
        Ok(())
    }

    fn merge(&self, dst: &BlockRef, dst_slot: u32, src: &BlockRef, src_slot: u32) -> PcResult<()> {
        let (c1, s1): (i64, i64) = dst.read(dst_slot);
        let (c2, s2): (i64, i64) = src.read(src_slot);
        dst.write(dst_slot, (c1 + c2, s1 + s2));
        Ok(())
    }

    fn finalize(&self, key: &i64, b: &BlockRef, slot: u32) -> PcResult<Handle<KeySum>> {
        let (c, s): (i64, i64) = b.read(slot);
        let out = make_object::<KeySum>()?;
        out.v().set_key(*key)?;
        out.v().set_count(c)?;
        out.v().set_sum(s)?;
        Ok(out)
    }
}

/// One run's output: rows and page bytes, plus how many lambda calls
/// started and how many completed.
struct Run<R> {
    rows: Vec<R>,
    pages: Vec<Vec<u8>>,
    started: usize,
    completed: usize,
}

fn output<T: pc_object::PcObjType, R>(ex: &PcCluster, row: impl Fn(&Handle<T>) -> R) -> Vec<R> {
    let mut out = Vec::new();
    for page in ex.workers[0].storage.scan("db", "out").unwrap() {
        let (_b, root) = SealedPage::from_bytes(&page.to_bytes())
            .unwrap()
            .open()
            .unwrap();
        let v = root.downcast::<PcVec<Handle<AnyObj>>>().unwrap();
        out.extend(v.iter().map(|h| row(&h.assume::<T>())));
    }
    out
}

fn pages(ex: &PcCluster) -> Vec<Vec<u8>> {
    let pages = ex.workers[0].storage.scan("db", "out").unwrap();
    pages.iter().map(|p| p.to_bytes()).collect()
}

/// Counters a lambda bumps on entry and on success; a call that faults
/// only starts.
fn counters() -> (Arc<AtomicUsize>, Arc<AtomicUsize>) {
    (Arc::default(), Arc::default())
}

/// FLATMAP → `aggregate`: kernels allocate on scratch pages.
fn flat_map_aggregate(
    page_size: usize,
    threads: usize,
    oversized: Option<i64>,
) -> Run<(i64, i64, i64)> {
    let ex = cluster(page_size, threads);
    let (started, completed) = counters();
    let (s, c) = (started.clone(), completed.clone());
    let words = docs().flat_map("words", move |d| {
        s.fetch_add(1, Ordering::Relaxed);
        let id = d.v().id();
        let pad = text(id, oversized);
        let out = (0..d.v().words())
            .map(|j| make_word((id * 7 + j) % KEYS, id + j, &pad))
            .collect::<PcResult<Vec<_>>>()?;
        c.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    });
    let q = Job::new()
        .add(words.aggregate(ByKey).write_to("db", "out"))
        .compile()
        .unwrap();
    ex.execute(&q).unwrap();
    let mut rows = output::<KeySum, _>(&ex, |k| (k.v().key(), k.v().count(), k.v().sum()));
    rows.sort_unstable();
    Run {
        rows,
        pages: pages(&ex),
        started: started.load(Ordering::Relaxed),
        completed: completed.load(Ordering::Relaxed),
    }
}

fn flat_map_model(oversized: Option<i64>) -> Vec<(i64, i64, i64)> {
    let mut groups: HashMap<i64, (i64, i64)> = HashMap::new();
    for id in (0..DOCS).filter(|&id| live(id)) {
        let pad = text(id, oversized).len() as i64;
        for j in 0..1 + id % 5 {
            let g = groups.entry((id * 7 + j) % KEYS).or_default();
            g.0 += 1;
            g.1 += id + j + pad;
        }
    }
    let mut rows: Vec<_> = groups.into_iter().map(|(k, (c, s))| (k, c, s)).collect();
    rows.sort_unstable();
    rows
}

/// Object-producing APPLY → `write_to`: kernels allocate on the live
/// output page.
fn select_write(
    page_size: usize,
    threads: usize,
    oversized: Option<i64>,
) -> Run<(i64, i64, usize)> {
    let ex = cluster(page_size, threads);
    let (started, completed) = counters();
    let (s, c) = (started.clone(), completed.clone());
    let words = docs().select("word", move |d| {
        s.fetch_add(1, Ordering::Relaxed);
        let id = d.v().id();
        let w = make_word(id, id * 3, &text(id, oversized))?;
        c.fetch_add(1, Ordering::Relaxed);
        Ok(w)
    });
    let q = Job::new()
        .add(words.write_to("db", "out"))
        .compile()
        .unwrap();
    ex.execute(&q).unwrap();
    let mut rows = output::<Word, _>(&ex, |w| (w.v().key(), w.v().val(), w.v().text().str_len()));
    rows.sort_unstable();
    Run {
        rows,
        pages: pages(&ex),
        started: started.load(Ordering::Relaxed),
        completed: completed.load(Ordering::Relaxed),
    }
}

fn select_model(oversized: Option<i64>) -> Vec<(i64, i64, usize)> {
    let model: HashMap<i64, (i64, usize)> = (0..DOCS)
        .filter(|&id| live(id))
        .map(|id| (id, (id * 3, text(id, oversized).len())))
        .collect();
    let mut rows: Vec<_> = model.into_iter().map(|(k, (v, t))| (k, v, t)).collect();
    rows.sort_unstable();
    rows
}

/// FLATMAP → `write_to`: kernels allocate on the live output page, and a
/// row's extra values hold back room for their handles after the fact.
fn flat_map_write(page_size: usize, threads: usize) -> Run<(i64, i64, usize)> {
    let ex = cluster(page_size, threads);
    let (started, completed) = counters();
    let (s, c) = (started.clone(), completed.clone());
    let words = docs().flat_map("words", move |d| {
        s.fetch_add(1, Ordering::Relaxed);
        let id = d.v().id();
        let pad = text(id, None);
        let out = (0..d.v().words())
            .map(|j| make_word((id * 7 + j) % KEYS, id + j, &pad))
            .collect::<PcResult<Vec<_>>>()?;
        c.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    });
    let q = Job::new()
        .add(words.write_to("db", "out"))
        .compile()
        .unwrap();
    ex.execute(&q).unwrap();
    let mut rows = output::<Word, _>(&ex, |w| (w.v().key(), w.v().val(), w.v().text().str_len()));
    rows.sort_unstable();
    Run {
        rows,
        pages: pages(&ex),
        started: started.load(Ordering::Relaxed),
        completed: completed.load(Ordering::Relaxed),
    }
}

fn flat_map_write_model() -> Vec<(i64, i64, usize)> {
    let mut rows: Vec<_> = (0..DOCS)
        .filter(|&id| live(id))
        .flat_map(|id| {
            (0..1 + id % 5).map(move |j| ((id * 7 + j) % KEYS, id + j, text(id, None).len()))
        })
        .collect();
    rows.sort_unstable();
    rows
}

/// Calls equal live rows (a faulted call restarts only its own row), the
/// rows match the model, and the page bytes match across thread counts.
fn check_once_per_row<R: PartialEq>(run: impl Fn(usize, usize) -> Run<R>, model: &[R]) {
    let live_rows = (0..DOCS).filter(|&id| live(id)).count();
    for page_size in PAGE_SIZES {
        let base = run(page_size, 1);
        assert!(
            base.started > base.completed,
            "{page_size}-byte pages must fault mid-batch"
        );
        assert_eq!(
            base.completed, live_rows,
            "{page_size}-byte pages: each live row's lambda completes once"
        );
        assert!(
            base.rows == model,
            "{page_size}-byte pages: rows differ from the model"
        );
        for threads in [2, 4] {
            let other = run(page_size, threads);
            assert_eq!(
                other.completed, live_rows,
                "{page_size} B x {threads} threads"
            );
            assert!(
                other.pages == base.pages,
                "{page_size}-byte pages: pages at {threads} threads differ from 1 thread's"
            );
        }
    }
}

#[test]
fn flat_map_into_aggregation_runs_each_row_once() {
    check_once_per_row(|p, t| flat_map_aggregate(p, t, None), &flat_map_model(None));
}

#[test]
fn object_apply_into_write_runs_each_row_once() {
    check_once_per_row(|p, t| select_write(p, t, None), &select_model(None));
}

#[test]
fn flat_map_into_write_runs_each_row_once() {
    check_once_per_row(flat_map_write, &flat_map_write_model());
}

#[test]
fn rows_mixing_input_and_new_objects_are_written_in_input_order() {
    // Odd rows pass their stored input object through, which the sink must
    // copy; even rows build a new object on the live page. Once an odd row
    // was copied onto the live page, an even row whose object lies on an
    // earlier page is copied too, so the set keeps input order.
    let ex = cluster(4 << 10, 1);
    let docs = Dataset::<Doc>::scan("db", "docs").select("evenCopy", |d| {
        let id = d.v().id();
        if id % 2 == 1 {
            return Ok(d.clone());
        }
        let copy = make_object::<Doc>()?;
        copy.v().set_id(id)?;
        copy.v().set_words(d.v().words())?;
        Ok(copy)
    });
    let q = Job::new()
        .add(docs.write_to("db", "out"))
        .compile()
        .unwrap();
    let stats = ex.execute(&q).unwrap().exec;
    let ids = output::<Doc, _>(&ex, |d| d.v().id());
    assert_eq!(ids, (0..DOCS).collect::<Vec<_>>(), "rows in input order");
    assert!(
        stats.objects_copied >= DOCS as u64 / 2,
        "every odd row is copied: {stats:?}"
    );
}

#[test]
fn a_row_three_pages_large_escalates_and_completes_at_both_sink_kinds() {
    let oversized = Some(50);
    let agg = flat_map_aggregate(4 << 10, 1, oversized);
    assert!(agg.rows == flat_map_model(oversized), "aggregation rows");
    let write = select_write(4 << 10, 1, oversized);
    assert!(write.rows == select_model(oversized), "written rows");
    assert!(
        write.pages.iter().any(|p| p.len() > 12_000),
        "an oversized row lands on an escalated page"
    );
}

#[test]
fn a_write_sink_parks_about_one_zombie_per_page_its_kernels_fill() {
    // One morsel of three 600-row batches at 4 KiB pages: each batch's
    // objects fill two dozen pages or more. Every row is live.
    let ex = cluster_of(
        ExecConfig {
            batch_size: 600,
            page_size: 4 << 10,
            partitions: 4,
            threads: 1,
            morsel_rows: 4096,
        },
        1_800,
    );
    let (started, completed) = counters();
    let (s, c) = (started.clone(), completed.clone());
    let words = Dataset::<Doc>::scan("db", "docs").select("word", move |d| {
        s.fetch_add(1, Ordering::Relaxed);
        let id = d.v().id();
        let w = make_word(id, id * 3, &text(id, None))?;
        c.fetch_add(1, Ordering::Relaxed);
        Ok(w)
    });
    let q = Job::new()
        .add(words.write_to("db", "out"))
        .compile()
        .unwrap();
    let stats = ex.execute(&q).unwrap().exec;
    assert_eq!(stats.batches, 3);
    assert_eq!(completed.load(Ordering::Relaxed), 1_800);
    // Each fault is one page the APPLY filled and one re-run row.
    let filled = (started.load(Ordering::Relaxed) - 1_800) / 3;
    assert!(filled >= 10, "the APPLY must fault mid-batch: {stats:?}");
    // The sink roots every row on the page its object lies on, so each
    // page the APPLY fills parks until the batch ends; the zombies of one
    // batch are sealed before the next begins, and nothing is copied.
    assert_eq!(stats.objects_copied, 0, "no object is stored twice");
    let zombies = stats.max_zombie_pages;
    assert!(
        zombies >= filled,
        "{zombies} zombies, {filled} filled pages"
    );
    assert!(
        zombies <= filled + 2,
        "{zombies} zombies, {filled} filled pages"
    );
}
