//! The `PcClient`.

use pc_cluster::{ClusterConfig, PcCluster};
use pc_exec::ExecConfig;
use pc_lambda::SetWriter;
use pc_object::{AnyHandle, Handle, PcObjType, PcResult, PcVec};
use std::sync::Arc;

/// A client connected to a PlinyCompute cluster.
#[derive(Clone)]
pub struct PcClient {
    cluster: Arc<PcCluster>,
    page_size: usize,
}

impl PcClient {
    /// Connects to (boots) a cluster with the given shape.
    pub fn connect(config: ClusterConfig) -> PcResult<Self> {
        let page_size = config.exec.page_size;
        Ok(PcClient {
            cluster: Arc::new(PcCluster::new(config)?),
            page_size,
        })
    }

    /// A 4-worker local cluster with default tuning.
    pub fn local() -> PcResult<Self> {
        Self::connect(ClusterConfig::default())
    }

    /// A small single-worker cluster for examples and tests.
    pub fn local_small() -> PcResult<Self> {
        Self::connect(ClusterConfig {
            workers: 1,
            exec: ExecConfig {
                batch_size: 256,
                page_size: 1 << 18,
                agg_partitions: 2,
                join_partitions: 8,
                ..ExecConfig::default()
            },
            ..ClusterConfig::default()
        })
    }

    /// The underlying cluster (workers, shuffle stats, catalogs).
    pub fn cluster(&self) -> &PcCluster {
        &self.cluster
    }

    /// A typed [`Dataset`](crate::dataset::Dataset) over a stored set — the
    /// entry point of the fluent query API. The element type is asserted
    /// here and *checked* on gather: collecting the set under the wrong
    /// type fails with [`pc_object::PcError::TypeMismatch`].
    pub fn set<T: PcObjType>(&self, db: &str, set: &str) -> crate::dataset::Dataset<T> {
        crate::dataset::Dataset::stored(Some(self.clone()), db, set)
    }

    /// `createSet`: registers a new set cluster-wide.
    pub fn create_set(&self, db: &str, set: &str) -> PcResult<()> {
        self.cluster.create_set(db, set)
    }

    /// Creates the set if missing, clears it otherwise.
    pub fn create_or_clear_set(&self, db: &str, set: &str) -> PcResult<()> {
        self.cluster.create_or_clear_set(db, set)
    }

    /// Drops a set cluster-wide: every worker's pages *and* the master
    /// catalog entry, so `set_size` and `exists` reflect the drop
    /// immediately. Dropping a set that does not exist is an error.
    pub fn drop_set(&self, db: &str, set: &str) -> PcResult<()> {
        self.cluster.drop_set(db, set)
    }

    /// `sendData` with a client-held vector. When the vector's block holds
    /// no other live references, the occupied portion of the allocation
    /// block travels in its entirety (§3's zero-cost dispatch). If the
    /// block is still active (an [`AllocScope`](pc_object::AllocScope) or
    /// other handles pin it), the objects are deep-copied onto fresh
    /// transfer pages instead — correct either way, zero-copy when
    /// possible.
    pub fn send_data<T: PcObjType>(
        &self,
        db: &str,
        set: &str,
        data: Handle<PcVec<Handle<T>>>,
    ) -> PcResult<()> {
        let block = data.block().clone();
        block.set_root(&data);
        drop(data);
        let probe = block.clone();
        match probe.try_seal() {
            Ok(page) => self.cluster.send_pages(db, set, vec![page]),
            Err(pc_object::PcError::BlockShared) => {
                // Fall back to a deep copy onto transfer pages.
                let root = block.root_handle::<PcVec<Handle<T>>>()?;
                let mut w = SetWriter::new(self.page_size);
                for h in root.iter() {
                    w.write_handle(&h.erase())?;
                }
                drop(root);
                self.cluster.send_pages(db, set, w.finish()?)
            }
            Err(e) => Err(e),
        }
    }

    /// Builds `count` objects page by page and ships them (the bulk-load
    /// path used by the benchmarks).
    pub fn store(
        &self,
        db: &str,
        set: &str,
        count: usize,
        mut make: impl FnMut(usize) -> PcResult<AnyHandle>,
    ) -> PcResult<()> {
        let mut w = SetWriter::new(self.page_size);
        for i in 0..count {
            w.write_with(|| make(i))?;
        }
        self.cluster.send_pages(db, set, w.finish()?)
    }

    /// Gathers every object of a set to the client, typed. The downcast is
    /// checked against each object's header type code: asking for the wrong
    /// element type returns [`pc_object::PcError::TypeMismatch`] instead of
    /// a silently mistyped handle.
    pub fn iterate_set<T: PcObjType>(&self, db: &str, set: &str) -> PcResult<Vec<Handle<T>>> {
        self.cluster
            .scan_objects(db, set)?
            .iter()
            .map(|h| h.downcast::<T>())
            .collect()
    }

    /// Number of objects in a set (catalog metadata).
    pub fn set_size(&self, db: &str, set: &str) -> u64 {
        self.cluster.set_size(db, set)
    }

    /// Evicts every cached page to the file store (cold-start experiments).
    pub fn flush_storage(&self) -> PcResult<()> {
        for w in &self.cluster.workers {
            w.storage.flush_all()?;
        }
        Ok(())
    }
}
