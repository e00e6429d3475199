//! Model-checking the type registry's publish protocol
//! (`pc_object::registry`): an append-only open-addressed table whose
//! readers probe with plain loads while writers — first touches — serialize
//! on one mutex, build the entry, publish it with a single store, and when
//! the table would pass half full publish a doubled copy first.
//!
//! The model replicates that protocol over the loom shim with the sizes
//! shrunk until every path is reachable with two entries: the table starts
//! with two slots, so the second first-touch grows it to four under the
//! readers' feet. Under every interleaving a type ends up with exactly one
//! entry, a reader sees "absent" or a fully built entry, and nothing
//! published is ever lost. A known-bad variant that claims its slot with
//! check-then-store *without* the writer mutex proves the checker catches
//! the lost entry the mutex exists to prevent.

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};

/// Slot value for "nothing published here"; entry `n` is stored as `n + 1`.
const EMPTY: usize = 0;

/// Two keys with the same home slot at both table sizes (`key & 1`, `key & 3`).
const KEY_A: usize = 1;
const KEY_B: usize = 5;

/// What a fully built entry for `key` carries besides the key. The two
/// fields are written one after the other, so a reader that could reach an
/// entry before its publish would see them disagree.
fn payload_of(key: usize) -> usize {
    key * 31 + 7
}

#[derive(Default)]
struct Entry {
    key: AtomicUsize,
    payload: AtomicUsize,
}

struct Registry {
    /// The heap entries are "leaked" into.
    arena: [Entry; 2],
    /// The initial two-slot array and the doubled copy that replaces it.
    arrays: [Vec<AtomicUsize>; 2],
    /// Which array is published (the real table's one `AtomicPtr`).
    current: AtomicUsize,
    /// Entries built so far. Guarded by `writer` in the real protocol; the
    /// known-bad variant bumps it without the lock.
    built: AtomicUsize,
    writer: Mutex<()>,
}

impl Registry {
    /// `first_array` 0 starts on the two-slot array, 1 on the four-slot one.
    fn starting_on(first_array: usize) -> Arc<Registry> {
        let array = |n| (0..n).map(|_| AtomicUsize::new(EMPTY)).collect();
        Arc::new(Registry {
            arena: Default::default(),
            arrays: [array(2), array(4)],
            current: AtomicUsize::new(first_array),
            built: AtomicUsize::new(0),
            writer: Mutex::new(()),
        })
    }

    /// The lock-free probe. Panics if it reaches a half-built entry.
    fn find(&self, key: usize) -> Option<usize> {
        let slots = &self.arrays[self.current.load(Ordering::Acquire)];
        let mask = slots.len() - 1;
        let mut i = key & mask;
        loop {
            let published = slots[i].load(Ordering::Acquire);
            if published == EMPTY {
                return None;
            }
            let entry = &self.arena[published - 1];
            let found = entry.key.load(Ordering::Relaxed);
            assert_eq!(
                entry.payload.load(Ordering::Relaxed),
                payload_of(found),
                "reader reached a half-built entry"
            );
            if found == key {
                return Some(published);
            }
            i = (i + 1) & mask;
        }
    }

    fn place(slots: &[AtomicUsize], published: usize, key: usize) {
        let mask = slots.len() - 1;
        let mut i = key & mask;
        while slots[i].load(Ordering::Acquire) != EMPTY {
            i = (i + 1) & mask;
        }
        slots[i].store(published, Ordering::Release);
    }

    fn build(&self, key: usize) -> usize {
        let n = self.built.fetch_add(1, Ordering::Relaxed);
        self.arena[n].key.store(key, Ordering::Relaxed);
        self.arena[n]
            .payload
            .store(payload_of(key), Ordering::Relaxed);
        n + 1
    }

    /// The real protocol: probe; on a miss take the writer mutex, probe
    /// again, build, grow if the insert would pass half full, publish.
    fn register(&self, key: usize) -> usize {
        if let Some(hit) = self.find(key) {
            return hit;
        }
        let _writer = self.writer.lock().unwrap();
        if let Some(raced) = self.find(key) {
            return raced;
        }
        let len = self.built.load(Ordering::Relaxed);
        let published = self.build(key);
        let mut cur = self.current.load(Ordering::Acquire);
        if (len + 1) * 2 > self.arrays[cur].len() {
            let grown = &self.arrays[cur + 1];
            for slot in &self.arrays[cur] {
                let carried = slot.load(Ordering::Acquire);
                if carried != EMPTY {
                    let key = self.arena[carried - 1].key.load(Ordering::Relaxed);
                    Self::place(grown, carried, key);
                }
            }
            cur += 1;
            self.current.store(cur, Ordering::Release);
        }
        Self::place(&self.arrays[cur], published, key);
        published
    }

    /// Known-bad: the same probe-then-claim with no writer mutex around it.
    fn register_unlocked(&self, key: usize) -> usize {
        if let Some(hit) = self.find(key) {
            return hit;
        }
        let published = self.build(key);
        let cur = self.current.load(Ordering::Acquire);
        Self::place(&self.arrays[cur], published, key);
        published
    }

    /// Post-run census: how many slots of the published array hold `key`.
    fn census(&self, key: usize) -> usize {
        self.arrays[self.current.unsync_load()]
            .iter()
            .map(AtomicUsize::unsync_load)
            .filter(|&p| p != EMPTY && self.arena[p - 1].key.unsync_load() == key)
            .count()
    }
}

#[test]
fn racing_registrars_of_one_type_publish_exactly_one_entry() {
    let n = loom::model(|| {
        let reg = Registry::starting_on(0);
        let registrars: Vec<_> = (0..2)
            .map(|_| {
                let reg = reg.clone();
                loom::thread::spawn(move || reg.register(KEY_A))
            })
            .collect();
        let reader = {
            let reg = reg.clone();
            // `find` itself asserts "absent or fully built".
            loom::thread::spawn(move || reg.find(KEY_A))
        };
        let published: Vec<usize> = registrars.into_iter().map(|r| r.join().unwrap()).collect();
        let seen = reader.join().unwrap();

        assert_eq!(published[0], published[1], "registrars disagree");
        assert!(seen.is_none() || seen == Some(published[0]));
        assert_eq!(reg.built.unsync_load(), 1, "duplicate entry built");
        assert_eq!(reg.census(KEY_A), 1, "duplicate or lost entry");
    });
    assert!(
        n > 1000,
        "expected >1000 distinct interleavings, explored {n}"
    );
}

#[test]
fn colliding_types_both_land_and_growth_loses_nothing() {
    // Two types with one home slot, a two-slot table: whichever registers
    // second doubles the table while the reader is probing it.
    let n = loom::model(|| {
        let reg = Registry::starting_on(0);
        let registrars: Vec<_> = [KEY_A, KEY_B]
            .into_iter()
            .map(|key| {
                let reg = reg.clone();
                loom::thread::spawn(move || reg.register(key))
            })
            .collect();
        let reader = {
            let reg = reg.clone();
            loom::thread::spawn(move || {
                // Once seen, an entry stays findable: a reader may race a
                // doubling but never lose what was already published.
                for key in [KEY_A, KEY_B] {
                    if let Some(first) = reg.find(key) {
                        assert_eq!(reg.find(key), Some(first), "published entry lost");
                    }
                }
            })
        };
        let published: Vec<usize> = registrars.into_iter().map(|r| r.join().unwrap()).collect();
        reader.join().unwrap();

        assert_ne!(published[0], published[1]);
        assert_eq!(reg.current.unsync_load(), 1, "the table never doubled");
        assert_eq!(reg.find(KEY_A), Some(published[0]), "lost entry");
        assert_eq!(reg.find(KEY_B), Some(published[1]), "lost entry");
        assert_eq!((reg.census(KEY_A), reg.census(KEY_B)), (1, 1));
    });
    assert!(
        n > 1000,
        "expected >1000 distinct interleavings, explored {n}"
    );
}

#[test]
fn known_bad_unlocked_slot_claim_is_caught() {
    // Both registrars can find the shared home slot empty before either
    // stores into it; the second store then overwrites the first entry.
    let v = loom::try_model(|| {
        let reg = Registry::starting_on(1);
        let registrars: Vec<_> = [KEY_A, KEY_B]
            .into_iter()
            .map(|key| {
                let reg = reg.clone();
                loom::thread::spawn(move || reg.register_unlocked(key))
            })
            .collect();
        for r in registrars {
            r.join().unwrap();
        }
        assert!(
            reg.find(KEY_A).is_some() && reg.find(KEY_B).is_some(),
            "lost entry: an unlocked claim overwrote a published slot"
        );
    })
    .expect_err("check-then-store without the writer mutex must lose an entry");
    assert!(
        v.message.contains("lost entry"),
        "unexpected violation: {}",
        v.message
    );
}
