//! The cluster: master node + worker nodes (Figure 4), and the distributed
//! query scheduler that turns a physical plan into JobStages.

use crate::recovery;
use crate::stages;
use crate::transport::{Transport, TransportKind, TransportMeter, MASTER};
use pc_exec::{plan, ExecConfig, ExecStats, PhysicalPlan, Sink, Source};
use pc_lambda::{CompiledQuery, ErasedAgg, SpillCtx, StageLibrary};
use pc_object::{AnyHandle, PcError, PcResult, PressureSpec, SealedPage};
use pc_storage::{Catalog, StorageManager, WorkerTypeCatalog};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cluster shape and executor tuning.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub workers: usize,
    /// Per-pipeline executor knobs. `exec.threads` is the one parallelism
    /// knob: it sets each worker's pipelining threads (Appendix D.2's N)
    /// and its aggregation combining threads (D.2's K) alike.
    pub exec: ExecConfig,
    /// How pages move between nodes (in-process copy, TCP sockets, or
    /// either of those under fault injection).
    pub transport: TransportKind,
    /// Per-worker buffer-pool capacity in bytes: the pool's page cache AND
    /// the memory budget its operators reserve working memory against.
    /// Datasets larger than this spill and run out of core.
    pub pool_capacity: usize,
    /// Seeded memory-pressure injection armed on every worker pool's budget
    /// (chaos testing): reservations are denied as a pure function of
    /// `seed ×` reservation index, forcing spill paths under randomized
    /// pressure while results stay byte-identical.
    pub pressure: Option<PressureSpec>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 4,
            exec: ExecConfig::default(),
            transport: TransportKind::default(),
            pool_capacity: 1 << 30,
            pressure: None,
        }
    }
}

/// Cluster-wide execution statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterStats {
    pub exec: ExecStats,
    /// Logical bytes that crossed the network (each delivered page once;
    /// retries and aborted stage attempts never inflate this).
    pub bytes_shuffled: u64,
    /// Logical pages that crossed the network.
    pub pages_shuffled: u64,
    /// Broadcast join tables shipped.
    pub tables_broadcast: u64,
    /// Wire bytes wasted on dropped attempts and aborted stage deliveries.
    pub bytes_retransmitted: u64,
    /// Wire-level send attempts that produced no logical delivery.
    pub sends_failed: u64,
    /// Stages re-run by the recovery protocol.
    pub stages_replayed: u64,
    /// Worker backends restarted after a detected death.
    pub workers_recovered: u64,
    /// Heartbeat intervals that elapsed with no beat from a worker (wire
    /// transports with a liveness monitor; zero otherwise).
    pub heartbeats_missed: u64,
    /// Connections re-established after a failure, with backoff.
    pub reconnects: u64,
}

/// One worker node: its own storage (buffer pool + spill dir) and local
/// type catalog. The "front-end"/"backend" split of §2 maps to the storage
/// service (front-end, crash-proof) vs. the executor threads (backend,
/// running user kernels).
pub struct WorkerNode {
    pub id: usize,
    pub storage: StorageManager,
    pub types: WorkerTypeCatalog,
}

/// The cluster handle — what a `PcClient` talks to.
pub struct PcCluster {
    pub config: ClusterConfig,
    pub catalog: Arc<Catalog>,
    pub workers: Vec<WorkerNode>,
    transport: Arc<dyn Transport>,
    meter: Arc<TransportMeter>,
    tables_broadcast: AtomicU64,
    stages_replayed: AtomicU64,
    workers_recovered: AtomicU64,
    round_robin: AtomicU64,
    /// The workers' spill directories' parent, removed when the cluster
    /// drops. Last, so it drops after the workers' storage.
    _dir: ClusterDir,
}

/// A cluster's `$TMPDIR/pccluster_<pid>_<n>` directory, removed on drop.
struct ClusterDir(PathBuf);

impl Drop for ClusterDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes the `pccluster_<pid>_*` directories under `tmp` whose process
/// no longer exists: a killed process never drops its clusters. Only
/// where `/proc` lists processes; elsewhere every directory is left alone.
fn reclaim_orphaned_dirs(tmp: &Path) {
    let proc = Path::new("/proc");
    if !proc.join("self").exists() {
        return;
    }
    let Ok(entries) = std::fs::read_dir(tmp) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name
            .to_str()
            .and_then(|n| n.strip_prefix("pccluster_"))
            .and_then(|rest| rest.split('_').next())
            .and_then(|pid| pid.parse::<u32>().ok());
        if let Some(pid) = pid {
            if !proc.join(pid.to_string()).exists() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

impl PcCluster {
    /// Boots a cluster with per-worker temp spill directories, first
    /// reclaiming those of clusters whose process was killed.
    pub fn new(config: ClusterConfig) -> PcResult<Self> {
        if config.workers == 0 {
            // Page dispatch and the shuffle both route `% workers`.
            return Err(PcError::Catalog(
                "a cluster needs at least one worker (ClusterConfig::workers is 0)".into(),
            ));
        }
        let catalog = Arc::new(Catalog::new());
        let tmp = std::env::temp_dir();
        reclaim_orphaned_dirs(&tmp);
        let dir = ClusterDir(tmp.join(format!(
            "pccluster_{}_{}",
            std::process::id(),
            unique_suffix()
        )));
        let mut workers = Vec::with_capacity(config.workers);
        for id in 0..config.workers {
            let storage = StorageManager::with_pressure(
                catalog.clone(),
                config.pool_capacity,
                dir.0.join(format!("worker{id}")),
                config.pressure.clone(),
            )?;
            workers.push(WorkerNode {
                id,
                storage,
                types: WorkerTypeCatalog::new(),
            });
        }
        let meter = Arc::new(TransportMeter::default());
        let transport = config.transport.build(meter.clone(), config.workers)?;
        Ok(PcCluster {
            config,
            catalog,
            workers,
            transport,
            meter,
            tables_broadcast: AtomicU64::new(0),
            stages_replayed: AtomicU64::new(0),
            workers_recovered: AtomicU64::new(0),
            round_robin: AtomicU64::new(0),
            _dir: dir,
        })
    }

    /// The transport moving every inter-node page.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// The shared traffic meter the transport stack reports into.
    pub fn meter(&self) -> &Arc<TransportMeter> {
        &self.meter
    }

    pub fn stats_snapshot(&self) -> ClusterStats {
        ClusterStats {
            exec: ExecStats::default(),
            bytes_shuffled: self.meter.bytes_shuffled(),
            pages_shuffled: self.meter.pages_shuffled(),
            tables_broadcast: self.tables_broadcast.load(Ordering::Relaxed),
            bytes_retransmitted: self.meter.bytes_retransmitted(),
            sends_failed: self.meter.sends_failed(),
            stages_replayed: self.stages_replayed.load(Ordering::Relaxed),
            workers_recovered: self.workers_recovered.load(Ordering::Relaxed),
            heartbeats_missed: self.meter.heartbeats_missed(),
            reconnects: self.meter.reconnects(),
        }
    }

    /// The out-of-core context worker `w`'s operators run under: the
    /// worker pool's byte budget plus a fresh spill set on that pool. The
    /// spill set cleans up its files when the last page referencing it
    /// drops, so an aborted stage cannot leak spill files.
    pub(crate) fn worker_spill_ctx(&self, w: usize) -> SpillCtx {
        let pool = self.workers[w].storage.pool();
        SpillCtx {
            budget: pool.budget(),
            spiller: Arc::new(pool.spill_set()),
        }
    }

    /// Sum of every worker pool's counters (for before/after run deltas).
    fn pool_stats_sum(&self) -> pc_storage::PoolStats {
        let mut sum = pc_storage::PoolStats::default();
        for w in &self.workers {
            let s = w.storage.pool().stats();
            sum.hits += s.hits;
            sum.misses += s.misses;
            sum.evictions += s.evictions;
            sum.spills += s.spills;
            sum.bytes_spilled += s.bytes_spilled;
        }
        sum
    }

    pub(crate) fn note_broadcast(&self) {
        self.tables_broadcast.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_stage_replayed(&self) {
        self.stages_replayed.fetch_add(1, Ordering::Relaxed);
    }

    /// Restart worker `w`'s backend after a detected death: clear its dead
    /// state in the transport.
    pub(crate) fn recover_worker(&self, w: usize) {
        self.transport.revive(w);
        self.workers_recovered.fetch_add(1, Ordering::Relaxed);
    }

    // ------------------------------------------------------------- storage

    /// Creates a set cluster-wide (errors if present).
    pub fn create_set(&self, db: &str, set: &str) -> PcResult<()> {
        self.catalog.create_set(db, set)?;
        Ok(())
    }

    /// Creates or clears a set cluster-wide.
    pub fn create_or_clear_set(&self, db: &str, set: &str) -> PcResult<()> {
        self.catalog.ensure_set(db, set);
        self.catalog.reset_set(db, set);
        for w in &self.workers {
            w.storage.create_or_clear_set(db, set)?;
        }
        Ok(())
    }

    /// Drops a set cluster-wide: worker pages and the master catalog entry
    /// (so `set_size` never reports a dropped set's stale counts).
    pub fn drop_set(&self, db: &str, set: &str) -> PcResult<()> {
        if !self.catalog.exists(db, set) {
            return Err(PcError::Catalog(format!("set {db}.{set} does not exist")));
        }
        for w in &self.workers {
            w.storage.drop_set(db, set);
        }
        // Every worker's drop also removes the entry from the shared master
        // catalog; dropping it here states that rather than relying on it.
        self.catalog.drop_set(db, set);
        Ok(())
    }

    /// Dispatches client pages round-robin across workers (`sendData`): the
    /// allocation block travels in its entirety, no pre-processing (§3).
    ///
    /// Delivery is transactional against faults: pages are appended to
    /// worker storage only after *every* worker's inbox has been collected,
    /// so a mid-load failure replays the whole batch without duplicating a
    /// single page.
    pub fn send_pages(&self, db: &str, set: &str, pages: Vec<SealedPage>) -> PcResult<()> {
        // Fix the placement up front so replays keep the same distribution.
        let targets: Vec<usize> = pages
            .iter()
            .map(|_| {
                (self.round_robin.fetch_add(1, Ordering::Relaxed) as usize) % self.workers.len()
            })
            .collect();
        let delivered: Vec<Vec<SealedPage>> = recovery::with_stage_recovery(self, &[], || {
            for (page, w) in pages.iter().zip(&targets) {
                self.transport.send(MASTER, *w, page)?;
            }
            let mut per_worker = Vec::with_capacity(self.workers.len());
            for w in 0..self.workers.len() {
                per_worker.push(self.transport.collect(w)?);
            }
            Ok(per_worker)
        })?;
        for (w, pages) in delivered.into_iter().enumerate() {
            for page in pages {
                self.workers[w].storage.append_page(db, set, page)?;
            }
        }
        Ok(())
    }

    /// Gathers a set's pages from every worker (client-side read).
    pub fn scan_set(&self, db: &str, set: &str) -> PcResult<Vec<Arc<SealedPage>>> {
        let mut all = Vec::new();
        for w in &self.workers {
            all.extend(w.storage.scan(db, set)?);
        }
        Ok(all)
    }

    /// Iterates every object of a set as untyped handles.
    pub fn scan_objects(&self, db: &str, set: &str) -> PcResult<Vec<AnyHandle>> {
        let mut out = Vec::new();
        for page in self.scan_set(db, set)? {
            let (_b, root) = page.open_view()?;
            let v = root.downcast::<pc_object::PcVec<pc_object::Handle<pc_object::AnyObj>>>()?;
            for h in v.iter() {
                out.push(h.erase());
            }
        }
        Ok(out)
    }

    /// Total objects in a set (catalog metadata).
    pub fn set_size(&self, db: &str, set: &str) -> u64 {
        self.catalog
            .set_meta(db, set)
            .map(|m| m.objects)
            .unwrap_or(0)
    }

    // ------------------------------------------------------------ execution

    /// Optimizes, plans, and executes a compiled query across the cluster.
    /// The optimized TCAP program is statically verified before planning —
    /// a broken plan (whether lowered broken or broken by an optimizer
    /// rule) is refused with [`PcError::PlanRejected`] instead of executing.
    pub fn execute(&self, q: &CompiledQuery) -> PcResult<ClusterStats> {
        let mut tcap = q.tcap.clone();
        pc_tcap::optimize(&mut tcap);
        pc_tcap::verify::require_clean(&tcap).map_err(PcError::PlanRejected)?;
        let physical = plan(&tcap)?;
        self.run_physical(&physical, &q.stages, &q.aggs)
    }

    /// Executes an already-planned query.
    pub fn run_physical(
        &self,
        physical: &PhysicalPlan,
        stages: &StageLibrary,
        aggs: &HashMap<String, Arc<dyn ErasedAgg>>,
    ) -> PcResult<ClusterStats> {
        let before = self.stats_snapshot();
        let pool_before = self.pool_stats_sum();
        // Fault schedules only tick while a job is in flight, so chaos
        // seeds describe the job, not whatever loading preceded it.
        self.transport.arm();
        let run = (|| -> PcResult<ExecStats> {
            let mut exec = ExecStats::default();
            // A previous query's materialized pages must never leak into
            // this one's deterministically-named tmp lists.
            for list in physical.intermediate_lists() {
                self.create_or_clear_set(pc_exec::TMP_DB, list)?;
            }
            // Broadcast join tables live as shared partition-tagged page
            // lists, one per join.
            let mut tables: stages::TableStore = HashMap::new();
            for p in &physical.pipelines {
                let s = recovery::run_stage_with_recovery(self, p, stages, aggs, &mut tables)?;
                exec.absorb(&s);
                exec.pipelines_run += 1;
            }
            Ok(exec)
        })();
        self.transport.disarm();
        let mut exec = run?;
        let pool_after = self.pool_stats_sum();
        exec.pool_hits += pool_after.hits - pool_before.hits;
        exec.pool_misses += pool_after.misses - pool_before.misses;
        exec.pool_evictions += pool_after.evictions - pool_before.evictions;
        exec.pool_spills += pool_after.spills - pool_before.spills;
        exec.pool_bytes_spilled += pool_after.bytes_spilled - pool_before.bytes_spilled;
        let after = self.stats_snapshot();
        Ok(ClusterStats {
            exec,
            bytes_shuffled: after.bytes_shuffled - before.bytes_shuffled,
            pages_shuffled: after.pages_shuffled - before.pages_shuffled,
            tables_broadcast: after.tables_broadcast - before.tables_broadcast,
            bytes_retransmitted: after.bytes_retransmitted - before.bytes_retransmitted,
            sends_failed: after.sends_failed - before.sends_failed,
            stages_replayed: after.stages_replayed - before.stages_replayed,
            workers_recovered: after.workers_recovered - before.workers_recovered,
            heartbeats_missed: after.heartbeats_missed - before.heartbeats_missed,
            reconnects: after.reconnects - before.reconnects,
        })
    }

    /// Pages of `source` local to worker `w`.
    pub(crate) fn local_pages(&self, w: usize, source: &Source) -> PcResult<Vec<Arc<SealedPage>>> {
        match source {
            Source::Set { db, set, .. } => self.workers[w].storage.scan(db, set),
            Source::Intermediate { list, .. } => {
                self.workers[w].storage.scan(pc_exec::TMP_DB, list)
            }
        }
    }

    /// Appends result pages for a sink on worker `w`.
    pub(crate) fn store_output(
        &self,
        w: usize,
        sink: &Sink,
        pages: Vec<SealedPage>,
    ) -> PcResult<()> {
        let (db, set) = match sink {
            Sink::Output { db, set, .. } => (db.clone(), set.clone()),
            Sink::Materialize { list, .. } => {
                self.catalog.ensure_set(pc_exec::TMP_DB, list);
                (pc_exec::TMP_DB.to_string(), list.clone())
            }
            _ => unreachable!("store_output on non-page sink"),
        };
        for page in pages {
            self.workers[w].storage.append_page(&db, &set, page)?;
        }
        Ok(())
    }
}

pub(crate) fn unique_suffix() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ClusterConfig {
        ClusterConfig {
            workers: 2,
            pool_capacity: 1 << 20,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn a_dropped_cluster_leaves_no_directory() {
        let c = PcCluster::new(small()).unwrap();
        let dir = c._dir.0.clone();
        assert!(dir.join("worker1").is_dir(), "{dir:?} not created");
        drop(c);
        assert!(!dir.exists(), "{dir:?} outlived its cluster");
    }

    #[test]
    fn new_reclaims_a_dead_process_directory() {
        // Above Linux's largest pid_max (2^22), so no process has this id.
        let orphan = std::env::temp_dir().join("pccluster_4294967_0");
        std::fs::create_dir_all(orphan.join("worker0")).unwrap();
        std::fs::write(orphan.join("worker0").join("1_1.pcpage"), b"x").unwrap();
        let live = PcCluster::new(small()).unwrap();
        let _next = PcCluster::new(small()).unwrap();
        assert!(!orphan.exists(), "{orphan:?} was not reclaimed");
        assert!(
            live._dir.0.is_dir(),
            "a live process's directory was removed"
        );
    }
}
