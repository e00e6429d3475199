//! Byte-denominated memory budgets for out-of-core operators.
//!
//! The paper's execution model (§6) assumes pages move freely between RAM
//! and the file store; this module gives operators the handle they need to
//! participate: a [`MemoryBudget`] they *reserve* working memory against.
//! Reservation failure is a typed backpressure signal
//! ([`PcError::MemoryPressure`]) — never a panic — and the operator's answer
//! to it is to seal and spill a partition through a [`PageSpiller`], then
//! come back for the spilled data on a second pass.
//!
//! For chaos testing, a budget can carry a [`PressureSpec`]: a seeded,
//! deterministic denial schedule in the spirit of the transport layer's
//! `FaultSpec` — whether reservation *i* is denied is a pure function of
//! `seed × i`, so a failing run replays exactly from its seed.

use crate::error::{PcError, PcResult};
use crate::hash::mix;
use crate::page::SealedPage;
use crate::sync;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const PRESSURE_SALT: u64 = 0x00B0_D9E7;

/// Seeded memory-pressure injection: deny a slice of reservations as a pure
/// function of `seed ×` reservation index. Mirrors the transport `FaultSpec`
/// idiom (`rate` is in 256ths).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PressureSpec {
    /// Seed for the denial schedule.
    pub seed: u64,
    /// Denial probability in 256ths (e.g. 64 ≈ 25% of reservations denied).
    pub rate: u16,
    /// Hard cap on total injected denials (`u64::MAX` = unlimited). Spill
    /// paths make progress under any denial pattern, so the cap exists only
    /// to bound worst-case slowdown in quick CI runs.
    pub max_denials: u64,
}

impl PressureSpec {
    /// A spec with the default ~25% denial rate and no denial cap.
    pub fn seeded(seed: u64) -> Self {
        PressureSpec {
            seed,
            rate: 64,
            max_denials: u64::MAX,
        }
    }

    /// Whether reservation number `ticket` is denied under this spec.
    #[inline]
    pub fn denies(&self, ticket: u64) -> bool {
        ((mix(self.seed, ticket, PRESSURE_SALT) % 256) as u16) < self.rate
    }
}

#[derive(Debug)]
struct BudgetInner {
    /// Budget ceiling in bytes; `usize::MAX` means unlimited.
    total: usize,
    /// Bytes currently reserved by live grants.
    reserved: Mutex<usize>,
    /// Optional seeded denial schedule (chaos testing).
    pressure: Option<PressureSpec>,
    /// Monotone reservation counter: every reserve/grow attempt takes a
    /// ticket, making injected denials a pure function of the seed.
    tickets: AtomicU64,
    /// Number of reservations denied by injection (not by real exhaustion).
    injected_denials: AtomicU64,
}

/// A shared, byte-denominated memory budget. Cloning shares the ledger, so
/// one budget can arbitrate between many operators (all sinks of a stage,
/// every wave of a spilled join). Dropping a [`MemoryGrant`] returns its
/// bytes; the budget itself carries no memory — it is an accounting device
/// layered over the buffer pool's capacity.
#[derive(Debug, Clone)]
pub struct MemoryBudget {
    inner: Arc<BudgetInner>,
}

impl MemoryBudget {
    /// A budget capped at `total` bytes.
    pub fn bytes(total: usize) -> Self {
        Self::with_pressure(total, None)
    }

    /// An unlimited budget: every reservation succeeds (unless pressure is
    /// injected). The default for in-memory execution.
    pub fn unlimited() -> Self {
        Self::bytes(usize::MAX)
    }

    /// A budget with an optional seeded denial schedule.
    pub fn with_pressure(total: usize, pressure: Option<PressureSpec>) -> Self {
        MemoryBudget {
            inner: Arc::new(BudgetInner {
                total,
                reserved: Mutex::new(0),
                pressure,
                tickets: AtomicU64::new(0),
                injected_denials: AtomicU64::new(0),
            }),
        }
    }

    /// The budget ceiling (`usize::MAX` = unlimited).
    pub fn total(&self) -> usize {
        self.inner.total
    }

    /// Bytes currently reserved by live grants.
    pub fn reserved(&self) -> usize {
        *sync::lock(&self.inner.reserved)
    }

    /// Bytes still reservable.
    pub fn available(&self) -> usize {
        self.inner.total.saturating_sub(self.reserved())
    }

    /// Number of reservations denied by injected pressure (real exhaustion
    /// denials are not counted here).
    pub fn injected_denials(&self) -> u64 {
        self.inner.injected_denials.load(Ordering::Relaxed)
    }

    /// Attempts the actual ledger update plus injected-pressure check.
    fn try_take(&self, bytes: usize) -> PcResult<()> {
        // Zero-byte reservations always succeed: they carry no memory and
        // denying them could wedge degenerate (empty-input) plans.
        if bytes == 0 {
            return Ok(());
        }
        let ticket = self.inner.tickets.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = &self.inner.pressure {
            if p.denies(ticket)
                && self.inner.injected_denials.load(Ordering::Relaxed) < p.max_denials
            {
                self.inner.injected_denials.fetch_add(1, Ordering::Relaxed);
                return Err(PcError::MemoryPressure {
                    wanted: bytes,
                    available: self.available(),
                });
            }
        }
        let mut reserved = sync::lock(&self.inner.reserved);
        let after = reserved.saturating_add(bytes);
        if after > self.inner.total {
            return Err(PcError::MemoryPressure {
                wanted: bytes,
                available: self.inner.total.saturating_sub(*reserved),
            });
        }
        *reserved = after;
        Ok(())
    }

    fn release(&self, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let mut reserved = sync::lock(&self.inner.reserved);
        *reserved = reserved.saturating_sub(bytes);
    }

    /// Reserves `bytes` of working memory. On success the returned
    /// [`MemoryGrant`] holds the reservation until dropped; on
    /// [`PcError::MemoryPressure`] the caller must shed memory (spill a
    /// partition, seal a chain) before retrying — the error is backpressure,
    /// not failure.
    pub fn reserve(&self, bytes: usize) -> PcResult<MemoryGrant> {
        self.try_take(bytes)?;
        Ok(MemoryGrant {
            budget: self.clone(),
            bytes,
        })
    }
}

/// A live reservation against a [`MemoryBudget`]. Dropping the grant
/// returns every reserved byte to the budget.
#[derive(Debug)]
pub struct MemoryGrant {
    budget: MemoryBudget,
    bytes: usize,
}

impl MemoryGrant {
    /// Bytes this grant currently holds.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Grows the grant by `extra` bytes, subject to the same backpressure
    /// (and injected pressure) as a fresh reservation.
    pub fn grow(&mut self, extra: usize) -> PcResult<()> {
        self.budget.try_take(extra)?;
        self.bytes += extra;
        Ok(())
    }

    /// Returns `bytes` of the grant to the budget (a partition was spilled
    /// or sealed away mid-operation).
    pub fn shrink(&mut self, bytes: usize) {
        let bytes = bytes.min(self.bytes);
        self.budget.release(bytes);
        self.bytes -= bytes;
    }
}

impl Drop for MemoryGrant {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

/// Where spilled pages go. The buffer pool implements this over its file
/// store (`crates/storage`); operators hold it as `Arc<dyn PageSpiller>` so
/// pc-lambda and pc-exec stay independent of the storage crate. Tokens are
/// opaque; every spilled page must eventually be `reload`ed or `discard`ed
/// (implementations also clean up wholesale on drop so an early abort cannot
/// leak spill files).
pub trait PageSpiller: Send + Sync {
    /// Writes a sealed page to the spill store; returns its reload token.
    fn spill(&self, page: &SealedPage) -> PcResult<u64>;
    /// Reads a spilled page back. The page stays reloadable until discarded.
    fn reload(&self, token: u64) -> PcResult<SealedPage>;
    /// Drops a spilled page without reloading it.
    fn discard(&self, token: u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_release_roundtrip() {
        let b = MemoryBudget::bytes(100);
        let g = b.reserve(60).unwrap();
        assert_eq!(b.reserved(), 60);
        assert_eq!(b.available(), 40);
        match b.reserve(50) {
            Err(PcError::MemoryPressure { wanted, available }) => {
                assert_eq!(wanted, 50);
                assert_eq!(available, 40);
            }
            other => panic!("expected MemoryPressure, got {other:?}"),
        }
        drop(g);
        assert_eq!(b.reserved(), 0);
        let _g2 = b.reserve(100).unwrap();
    }

    #[test]
    fn grow_and_shrink_track_the_ledger() {
        let b = MemoryBudget::bytes(100);
        let mut g = b.reserve(10).unwrap();
        g.grow(40).unwrap();
        assert_eq!(g.bytes(), 50);
        assert_eq!(b.reserved(), 50);
        assert!(g.grow(60).is_err());
        g.shrink(30);
        assert_eq!(g.bytes(), 20);
        assert_eq!(b.reserved(), 20);
        drop(g);
        assert_eq!(b.reserved(), 0);
    }

    #[test]
    fn clones_share_one_ledger() {
        let a = MemoryBudget::bytes(100);
        let b = a.clone();
        let _g = a.reserve(70).unwrap();
        assert_eq!(b.available(), 30);
        assert!(b.reserve(40).is_err());
    }

    #[test]
    fn zero_byte_reservations_never_fail() {
        let b = MemoryBudget::with_pressure(
            0,
            Some(PressureSpec {
                seed: 7,
                rate: 256,
                max_denials: u64::MAX,
            }),
        );
        for _ in 0..64 {
            b.reserve(0).unwrap();
        }
    }

    #[test]
    fn injected_pressure_is_deterministic_in_the_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let b = MemoryBudget::with_pressure(usize::MAX, Some(PressureSpec::seeded(seed)));
            (0..256).map(|_| b.reserve(1).is_err()).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
        let denied = run(42).iter().filter(|&&d| d).count();
        // rate 64/256 ≈ 25%: both "some denials" and "not all denials".
        assert!(denied > 20 && denied < 120, "denied {denied}/256");
    }

    #[test]
    fn unlimited_budget_always_grants() {
        let b = MemoryBudget::unlimited();
        let g1 = b.reserve(usize::MAX / 2).unwrap();
        let g2 = b.reserve(usize::MAX / 2).unwrap();
        drop((g1, g2));
        assert_eq!(b.reserved(), 0);
    }
}
