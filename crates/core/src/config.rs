//! DLFS configuration and user-level cost constants.

use simkit::retry::RetryPolicy;
use simkit::time::Dur;

use crate::error::DlfsError;

/// Costs of DLFS's own (user-level) processing. These are the *small*
/// per-operation CPU terms that replace the kernel stack; calibrated to
/// SPDK microbenchmark lore (sub-microsecond submit/poll paths).
#[derive(Clone, Debug)]
pub struct DlfsCosts {
    /// Build one SPDK request in the *prep* stage.
    pub prep_request: Dur,
    /// Post one request to an I/O qpair (doorbell) in the *post* stage.
    pub post_request: Dur,
    /// One spin of the *poll* loop over the shared completion queue.
    pub poll_iteration: Dur,
    /// Handle one harvested completion.
    pub per_completion: Dur,
    /// Frontend bookkeeping per delivered sample (sequence list advance,
    /// entry touch, result slot management).
    pub frontend_per_sample: Dur,
    /// One enqueue of a run onto the copy queue.
    pub copy_dispatch: Dur,
    /// Copy-thread memcpy bandwidth (sample cache → application buffer).
    pub memcpy_bytes_per_sec: f64,
    /// AVL traversal cost per visited node during a directory lookup.
    pub lookup_per_level: Dur,
    /// Fixed lookup overhead (hash the name, pick the tree).
    pub lookup_base: Dur,
    /// CPU cost to checksum-verify one 512 B device block of fetched data
    /// (charged only when [`DlfsConfig::verify_reads`] is on).
    pub verify_block: Dur,
    /// Codec decode bandwidth (encoded chunk frame → raw bytes). Charged
    /// on whichever side runs the decoder: the client's reader thread on
    /// the normal path, the storage target's offload workers under
    /// [`crate::ReadRequest::offload`].
    pub decode_bytes_per_sec: f64,
}

impl Default for DlfsCosts {
    fn default() -> Self {
        DlfsCosts {
            prep_request: Dur::nanos(300),
            post_request: Dur::nanos(200),
            poll_iteration: Dur::nanos(120),
            per_completion: Dur::nanos(150),
            frontend_per_sample: Dur::nanos(700),
            copy_dispatch: Dur::nanos(100),
            memcpy_bytes_per_sec: 8.0e9,
            lookup_per_level: Dur::nanos(18),
            lookup_base: Dur::nanos(60),
            verify_block: Dur::nanos(20),
            decode_bytes_per_sec: 5.0e9,
        }
    }
}

impl DlfsCosts {
    /// Copy-thread time to move `bytes` from the sample cache to the app.
    pub fn memcpy(&self, bytes: u64) -> Dur {
        Dur::for_bytes(bytes, self.memcpy_bytes_per_sec)
    }

    /// CPU time to decode `raw_bytes` of frame payload.
    pub fn decode(&self, raw_bytes: u64) -> Dur {
        Dur::for_bytes(raw_bytes, self.decode_bytes_per_sec)
    }
}

/// How `dlfs_bread` batches requests (paper §III-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchMode {
    /// Frontend sample-level batching only: one SPDK request per sample,
    /// many outstanding (for larger samples).
    SampleLevel,
    /// Backend chunk-level batching: fetch fixed-size data chunks holding
    /// many small samples, plus the edge-sample list.
    ChunkLevel,
    /// Pick per dataset: chunk-level when the average sample is smaller
    /// than half a chunk.
    Auto,
}

/// Sample-cache residency policy across epochs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// A fetched range lives exactly as long as its epoch needs it: the
    /// moment the last sample is delivered, its chunks go back to the pool
    /// (today's behavior; every epoch refetches everything).
    #[default]
    EpochScoped,
    /// A fully-drained range is *released* to an evictable LRU tail
    /// instead of freed. Later epochs (and the synchronous read path)
    /// probe residency before posting device fetches, so a working set
    /// that fits in the pool is read from the device exactly once.
    /// `alloc_for` evicts least-recently-used released ranges under pool
    /// pressure; pinned or in-flight ranges are never evicted.
    CrossEpoch,
}

/// DLFS instance configuration.
#[derive(Clone, Debug)]
pub struct DlfsConfig {
    /// Sample-cache chunk size ("256 KB by default but configurable").
    pub chunk_size: u64,
    /// SPDK I/O qpair queue depth, clamped per qpair to the device's
    /// `max_queue_depth`.
    pub queue_depth: usize,
    /// Chunks kept in flight / resident per bread stream.
    pub window_chunks: usize,
    /// Copy-thread pool size per node.
    pub copy_threads: usize,
    /// Sample-cache capacity in chunks (huge-page pool size).
    pub pool_chunks: usize,
    /// Batching strategy.
    pub batch_mode: BatchMode,
    /// Poll one shared completion queue across all qpairs (paper §III-C2)
    /// instead of polling each qpair independently. Kept as a switch for
    /// the SCQ ablation benchmark.
    pub shared_completion_queue: bool,
    /// Retry budget for failed device commands (media errors and fabric
    /// timeouts): bounded attempts with exponential backoff in virtual
    /// time. Exhaustion surfaces as [`crate::DlfsError::Io`].
    pub retry: RetryPolicy,
    /// Cross-epoch residency policy of the sample cache.
    pub cache_mode: CacheMode,
    /// With [`CacheMode::CrossEpoch`]: number of next-epoch chunk fetches
    /// the engine keeps in flight ahead of the copy frontier once the
    /// current epoch's fetch list is exhausted (the plan-aware
    /// prefetcher). `0` disables prefetching. Clamped by pool headroom
    /// (never below `window_chunks` free) and qpair depth.
    pub prefetch_window: usize,
    /// Bytes reserved at the tail of each device for the checkpoint
    /// region when the dataset is `import`ed (persistent layout). `0`
    /// plans no region: the import commits without one, and opening a
    /// checkpoint stream on the instance is a typed `Config` error.
    pub ckpt_region_bytes: u64,
    /// Publish the completion reactor's counters
    /// (`dlfs.reactor.{wakeups,doorbells,parked_ns,spin_ns,blind_spin_ns,excess_ns,late_ns}`)
    /// into the instance's metric registry. Off by default so reports
    /// rendered from the registry stay stable across engine-internal
    /// changes; the reactor still tracks them internally either way.
    pub reactor_stats: bool,
    /// Number of copies of every data chunk placed across storage nodes
    /// (deterministic placement: replica `r` of home node `h` lives on
    /// node `(h + r) % N`). `1` — the default — is today's single-copy
    /// layout, byte-identical to builds without replication. With `k > 1`
    /// the engine routes reads by target health and fails in-flight parts
    /// over to a healthy replica on media errors, checksum mismatches or
    /// an open circuit.
    pub replicas: usize,
    /// Verify per-block checksums (computed at mount/import, persisted in
    /// the layout's integrity region) on every read path before any byte
    /// is exposed — batched completions, synchronous reads and zero-copy
    /// publications. A mismatch is treated like a media error: the part is
    /// retried/failed over, and (with replicas) the bad extent is
    /// rewritten from a healthy copy (read-repair). Off by default.
    pub verify_reads: bool,
    /// Death policy: a target continuously Suspect (its circuit open) for
    /// at least this long is declared permanently Dead — it is never
    /// routed to or probed again, writes targeting it fail fast with
    /// [`crate::DlfsError::Degraded`], and the rebuild planner restores
    /// full redundancy from surviving copies. `None` (the default)
    /// declares nothing Dead: circuits re-close on a successful probe
    /// forever. Requires
    /// `replicas >= 2` — with a single copy there is nothing to serve
    /// from once a node is written off.
    pub fail_dead_after: Option<Dur>,
    /// Per-chunk codec applied to the staged data region at mount/import
    /// time (FanStore-style transparent compression). `Identity` — the
    /// default — stores raw bytes, byte-identical to builds without the
    /// codec layer. With a real codec, placement never lets a sample
    /// straddle a chunk frame (so every frame decodes independently) and
    /// reads fetch only each frame's encoded prefix, decoding on the
    /// client at `costs.decode_bytes_per_sec` — or on the target under
    /// [`crate::ReadRequest::offload`].
    pub codec: crate::codec::CodecKind,
    /// Allow [`crate::ReadRequest::offload`]: the storage target's
    /// offload workers read, verify, decode and augment the batch
    /// server-side and ship one dense response per target instead of
    /// per-chunk transfers. Off by default; requests asking for offload
    /// against a non-offload instance get a typed Config error.
    pub offload: bool,
    /// Multi-tenant QoS: tenant namespaces and weighted-fair scheduling
    /// of device qpair slots
    /// ([`crate::tenant`]). `None` — the default — is the single
    /// implicit tenant (id 0), byte-identical to builds without the QoS
    /// layer.
    pub qos: Option<crate::tenant::QosConfig>,
    pub costs: DlfsCosts,
}

impl Default for DlfsConfig {
    fn default() -> Self {
        DlfsConfig {
            chunk_size: 256 * 1024,
            queue_depth: 128,
            window_chunks: 12,
            copy_threads: 4,
            pool_chunks: 96,
            batch_mode: BatchMode::Auto,
            shared_completion_queue: true,
            retry: RetryPolicy::default(),
            cache_mode: CacheMode::default(),
            prefetch_window: 0,
            ckpt_region_bytes: 8 << 20,
            reactor_stats: false,
            replicas: 1,
            verify_reads: false,
            fail_dead_after: None,
            codec: crate::codec::CodecKind::Identity,
            offload: false,
            qos: None,
            costs: DlfsCosts::default(),
        }
    }
}

impl DlfsConfig {
    /// Check every knob and knob combination that can be judged without a
    /// deployment (`DlfsConfig::check_replicas` needs its storage-node
    /// count); the mount terminals run both once, before anything touches
    /// a device.
    pub fn validate(&self) -> Result<(), DlfsError> {
        let bad = |msg: String| Err(DlfsError::Config(msg));
        if self.chunk_size == 0 || !self.chunk_size.is_multiple_of(blocksim::BLOCK_SIZE) {
            return bad(format!(
                "chunk_size {} must be a nonzero multiple of the device block size",
                self.chunk_size
            ));
        }
        if self.queue_depth == 0 {
            return bad("queue_depth must be > 0".into());
        }
        if self.window_chunks == 0 {
            return bad("window_chunks must be > 0".into());
        }
        if self.copy_threads == 0 {
            return bad("copy_threads must be > 0".into());
        }
        if self.pool_chunks < self.window_chunks {
            return bad(format!(
                "pool_chunks ({}) must be >= window_chunks ({})",
                self.pool_chunks, self.window_chunks
            ));
        }
        if self.retry.max_attempts == 0 {
            return bad("retry.max_attempts must be >= 1 (1 = no retries)".into());
        }
        if self.prefetch_window > 0 && self.cache_mode != CacheMode::CrossEpoch {
            return bad(format!(
                "prefetch_window ({}) requires cache_mode CrossEpoch: prefetched \
                 chunks are only useful if they survive into the next epoch",
                self.prefetch_window
            ));
        }
        if self.fail_dead_after.is_some() && self.replicas < 2 {
            return bad(format!(
                "fail_dead_after requires replicas >= 2 (have {}): declaring a \
                 node dead only helps if its data survives elsewhere",
                self.replicas
            ));
        }
        if self.codec != crate::codec::CodecKind::Identity
            && matches!(self.batch_mode, BatchMode::SampleLevel)
        {
            return bad(
                "codec requires chunk-level batching: frames decode as whole chunks, \
                 sample-level fetch items are not frame-aligned"
                    .into(),
            );
        }
        if self.costs.decode_bytes_per_sec <= 0.0 {
            return bad("costs.decode_bytes_per_sec must be > 0".into());
        }
        if let Some(qos) = &self.qos {
            qos.validate()?;
        }
        Ok(())
    }

    /// `replicas` must be at least 1 (no replication) and at most the
    /// deployment's storage nodes: replica `r` of home `h` lives on node
    /// `(h + r) mod N`, so more copies than nodes would fold two copies
    /// onto one device.
    pub(crate) fn check_replicas(&self, storage_nodes: usize) -> Result<(), DlfsError> {
        if !(1..=storage_nodes).contains(&self.replicas) {
            return Err(DlfsError::Config(format!(
                "replicas = {} must be between 1 and the {storage_nodes} storage node(s) in the \
                 deployment",
                self.replicas
            )));
        }
        Ok(())
    }

    /// Resolve [`BatchMode::Auto`] against an average sample size. A
    /// non-identity codec pins the resolution to chunk-level — frames
    /// decode as whole chunks, so sample-level fetch items can't serve a
    /// coded region (explicitly configured `SampleLevel` is rejected by
    /// [`DlfsConfig::validate`] instead).
    pub fn effective_mode(&self, avg_sample_bytes: u64) -> BatchMode {
        match self.batch_mode {
            BatchMode::Auto => {
                if self.codec != crate::codec::CodecKind::Identity
                    || avg_sample_bytes * 2 <= self.chunk_size
                {
                    BatchMode::ChunkLevel
                } else {
                    BatchMode::SampleLevel
                }
            }
            m => m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        DlfsConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = DlfsConfig {
            chunk_size: 1000, // not block aligned
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = DlfsConfig {
            queue_depth: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = DlfsConfig {
            pool_chunks: 1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = DlfsConfig {
            copy_threads: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = DlfsConfig {
            window_chunks: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = DlfsConfig {
            retry: RetryPolicy {
                max_attempts: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(c.validate().is_err());
        // Prefetching without cross-epoch residency is a misconfiguration…
        let c = DlfsConfig {
            prefetch_window: 4,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        // …but is valid once the cache keeps ranges across epochs.
        let c = DlfsConfig {
            prefetch_window: 4,
            cache_mode: CacheMode::CrossEpoch,
            ..Default::default()
        };
        c.validate().unwrap();
        let c = DlfsConfig {
            replicas: 0,
            ..Default::default()
        };
        assert!(c.check_replicas(4).is_err());
        assert!(DlfsConfig::default().check_replicas(0).is_err());
        // Membership needs a surviving copy to serve from…
        let c = DlfsConfig {
            fail_dead_after: Some(Dur::millis(1)),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        // …and is valid with replication.
        let c = DlfsConfig {
            replicas: 2,
            fail_dead_after: Some(Dur::millis(1)),
            ..Default::default()
        };
        c.validate().unwrap();
        // QoS: zero slots, duplicate ids and zero weight are all caught; a
        // well-formed config passes.
        use crate::tenant::{QosConfig, TenantSpec};
        let c = DlfsConfig {
            qos: Some(QosConfig::equal(2, 0)),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = DlfsConfig {
            qos: Some(QosConfig {
                tenants: vec![TenantSpec::weighted(3, 1), TenantSpec::weighted(3, 2)],
                ..QosConfig::equal(1, 2)
            }),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = DlfsConfig {
            qos: Some(QosConfig {
                tenants: vec![TenantSpec::weighted(0, 0)],
                ..QosConfig::equal(1, 2)
            }),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = DlfsConfig {
            qos: Some(QosConfig {
                tenants: vec![TenantSpec::weighted(0, 1), TenantSpec::weighted(1, 4)],
                ..QosConfig::equal(2, 2)
            }),
            ..Default::default()
        };
        c.validate().unwrap();
    }

    #[test]
    fn auto_mode_picks_by_sample_size() {
        let c = DlfsConfig::default(); // 256 KB chunks
        assert_eq!(c.effective_mode(512), BatchMode::ChunkLevel);
        assert_eq!(c.effective_mode(128 * 1024), BatchMode::ChunkLevel);
        assert_eq!(c.effective_mode(129 * 1024), BatchMode::SampleLevel);
        assert_eq!(c.effective_mode(1 << 20), BatchMode::SampleLevel);
        let mut forced = c.clone();
        forced.batch_mode = BatchMode::SampleLevel;
        assert_eq!(forced.effective_mode(512), BatchMode::SampleLevel);
    }

    #[test]
    fn memcpy_cost() {
        let c = DlfsCosts::default();
        let d = c.memcpy(8_000_000);
        assert_eq!(d, Dur::millis(1));
    }
}
