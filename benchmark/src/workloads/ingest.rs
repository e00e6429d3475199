//! `ingest_gather`: the write side of the layers the other workloads read.
//! A job clears a set, stores `ROWS` two-`i64` records on 2 workers and
//! gathers them back with a checksum; no query runs, so `object` allocation,
//! `SetWriter` sealing, `send_pages`, `storage.append_page` and the gather
//! path do all the work. A change that speeds scans by making pages costlier
//! to build shows as a loss here.

use super::{
    cluster_config, library_job, make_row, rows_to_pages, BenchRow, Counters, Env, SplitMix64,
    Workload,
};
use crate::trace::Tracer;
use pc_core::prelude::*;

pub const ROWS: usize = 600_000;
const PAGE_SIZE: usize = 256 << 10;
const DB: &str = "ingest";
const SET: &str = "rows";

/// Row `i` is `(i, i * mult + offset)` (wrapping): a closed form the check
/// recomputes without the engine.
fn val(i: usize, mult: i64, offset: i64) -> i64 {
    (i as i64).wrapping_mul(mult).wrapping_add(offset)
}

fn checksum(rows: impl Iterator<Item = (i64, i64)>) -> (u64, i64) {
    rows.fold((0, 0), |(n, sum), (k, v)| (n + 1, sum.wrapping_add(k ^ v)))
}

pub struct Ingest {
    client: PcClient,
    mult: i64,
    offset: i64,
    gathered: (u64, i64),
}

impl Ingest {
    pub fn setup(env: Env) -> PcResult<Self> {
        let mut rng = SplitMix64(env.seed);
        let client = PcClient::connect(cluster_config(2, 1, PAGE_SIZE))?;
        Ok(Ingest {
            client,
            mult: (rng.next_u64() | 1) as i64,
            offset: rng.next_u64() as i64,
            gathered: (0, 0),
        })
    }

    fn generated(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        (0..ROWS).map(|i| (i as i64, val(i, self.mult, self.offset)))
    }
}

impl Workload for Ingest {
    fn rows(&self) -> u64 {
        ROWS as u64
    }

    fn client(&self) -> &PcClient {
        &self.client
    }

    fn job(&mut self, tr: &mut Tracer) -> Result<Counters, String> {
        let (client, mult, offset) = (self.client.clone(), self.mult, self.offset);
        let mut gathered = (0, 0);
        let counters = library_job(&self.client, tr, |tr| {
            tr.span("core.clear", |_| client.create_or_clear_set(DB, SET))?;
            tr.span("core.store", |_| {
                client.store(DB, SET, ROWS, |i| make_row(i as i64, val(i, mult, offset)))
            })?;
            gathered = tr.span("core.gather", |_| {
                let rows = client.iterate_set::<BenchRow>(DB, SET)?;
                PcResult::Ok(checksum(rows.iter().map(|r| (r.v().key(), r.v().val()))))
            })?;
            Ok(())
        })?;
        self.gathered = gathered;
        Ok(counters)
    }

    fn check(&mut self) -> Result<(), String> {
        let expected = checksum(self.generated());
        if self.gathered != expected {
            return Err(format!(
                "gathered (count, checksum) = {:?}, closed form {expected:?}",
                self.gathered
            ));
        }
        Ok(())
    }

    fn build_pages(&self) -> PcResult<(u64, Vec<SealedPage>)> {
        let rows: Vec<(i64, i64)> = self.generated().collect();
        Ok((ROWS as u64, rows_to_pages(PAGE_SIZE, &rows)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_sees_count_and_content() {
        let rows = |mult| (0..100usize).map(move |i| (i as i64, val(i, mult, 5)));
        assert_eq!(checksum(rows(3)), checksum(rows(3)));
        assert_ne!(checksum(rows(3)), checksum(rows(7)));
        assert_eq!(checksum(rows(3)).0, 100);
    }
}
