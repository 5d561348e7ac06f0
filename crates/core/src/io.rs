//! The DLFS I/O engine: the four-stage read pipeline (paper §III-C, Fig. 4)
//! driven by the calling I/O thread, with completions fanned out to the
//! copy-thread pool through the shared completion queue.
//!
//! * **prep** — turn the next fetch items of the epoch plan into SPDK
//!   requests with sample-cache chunks attached;
//! * **post** — submit to the per-device I/O qpair (bounded queue depth);
//! * **poll** — busy-poll the shared completion queue across all qpairs;
//! * **copy** — hand completed samples to the copy threads, which move
//!   bytes from the sample cache into the application buffer.
//!
//! Delivery follows the paper's relaxed randomization (§III-D2): "the copy
//! threads then select samples randomly from the sample cache" — each next
//! sample is drawn from a uniformly random *resident* fetch item, so a
//! slow device never head-of-line-blocks samples that already arrived from
//! other devices. The draw is seeded, so simulations stay deterministic.
//!
//! One `DlfsIo` per I/O thread (qpairs are not thread-safe, as in SPDK);
//! all `DlfsIo` handles of a node share the directory, sample cache and
//! copy pool through [`DlfsShared`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use blocksim::{
    covering_blocks, CmdStatus, DmaBuf, IoQPair, NvmeTarget, OffloadExtent, BLOCK_SIZE,
};
use fabric::{CAPSULE_BYTES, DESCRIPTOR_BYTES, RESPONSE_BYTES};
use simkit::rng::fnv1a;
use simkit::rng::SplitMix64;
use simkit::runtime::Runtime;
use simkit::telemetry::{Counter, Gauge, Histo, Registry, Snapshot};
use simkit::time::{Dur, Time};

use crate::cache::RangeKey;
use crate::config::{BatchMode, CacheMode, DlfsConfig};
use crate::copy::{CopyDone, CopyJob, SegList, Segment};
use crate::directory::SampleDirectory;
use crate::entry::SampleEntry;
use crate::error::{CorruptCause, DlfsError, IoFailure};
use crate::integrity::Redundancy;
use crate::layout::{encode_codec_table, encode_integrity, encode_meta, MetaRecord};
use crate::plan::{build_epoch_plan, fetch_extent, reader_item_ranges, FetchItem, ReaderPlan};
use crate::reactor::{CompletionClock, ReactorStats};
use crate::rebuild::RebuildPlan;
use crate::request::{Completions, Delivery, ReadRequest};
use crate::zerocopy::{Pin, PinGuard, ZeroCopySample};
use crate::{cache::SampleCache, copy::CopyPool};

/// Blocks the background scrubber walks per idle reactor gap.
const SCRUB_GAP_BLOCKS: u64 = 64;

/// State shared by every I/O thread of one compute node.
pub struct DlfsShared {
    pub cfg: DlfsConfig,
    pub dir: Arc<SampleDirectory>,
    pub cache: Arc<SampleCache>,
    pub copy: CopyPool,
    /// Targets indexed by storage node id (local device or NVMe-oF remote).
    pub targets: Vec<Arc<dyn NvmeTarget>>,
    /// This compute node's reader id.
    pub reader_id: usize,
    /// Total readers participating in `dlfs_sequence`.
    pub readers: usize,
    /// Per-storage-node on-device layouts when this instance is persistent
    /// (created by `import`/`remount`); `None` for ephemeral mounts.
    pub layouts: Option<Arc<Vec<crate::layout::Superblock>>>,
    /// Replica routing, per-block integrity tables and target health;
    /// `None` on the default (`replicas == 1`, no `verify_reads`) path —
    /// every read then takes its historical branch unchanged.
    pub redundancy: Option<Arc<Redundancy>>,
    /// Per-chunk codec + per-node encoded-frame tables when the dataset
    /// was staged with `cfg.codec != Identity`; `None` keeps every read
    /// on its historical raw-bytes branch.
    pub codec: Option<Arc<crate::codec::CodecTables>>,
    /// Tenant this handle's reads belong to: folded into every cache key
    /// and charged at the QoS admission gate. 0 is the implicit single
    /// tenant of non-QoS mounts.
    pub tenant: crate::tenant::TenantId,
    /// The instance's shared admission gate; `None` — the default — skips
    /// admission entirely (no QoS config on the mount).
    pub qos: Option<Arc<crate::tenant::TenantQos>>,
}

impl std::fmt::Debug for DlfsShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DlfsShared")
            .field("reader", &self.reader_id)
            .field("readers", &self.readers)
            .field("targets", &self.targets.len())
            .field("tenant", &self.tenant)
            .finish()
    }
}

impl DlfsShared {
    /// Tenant-qualified cache key for a range on `nid` starting at
    /// `start` (see [`crate::cache::range_key`]).
    #[inline]
    pub fn rkey(&self, nid: u16, start: u64) -> crate::cache::RangeKey {
        crate::cache::range_key(self.tenant, nid, start)
    }

    /// A handle over the same devices, cache pool and copy threads that
    /// reads as `tenant` instead. Cheap: every heavy member is shared.
    pub fn with_tenant(self: &Arc<Self>, tenant: crate::tenant::TenantId) -> Arc<DlfsShared> {
        if tenant == self.tenant {
            return self.clone();
        }
        Arc::new(DlfsShared {
            cfg: self.cfg.clone(),
            dir: self.dir.clone(),
            cache: self.cache.clone(),
            copy: self.copy.clone(),
            targets: self.targets.clone(),
            reader_id: self.reader_id,
            readers: self.readers,
            layouts: self.layouts.clone(),
            redundancy: self.redundancy.clone(),
            codec: self.codec.clone(),
            tenant,
            qos: self.qos.clone(),
        })
    }
}

/// Telemetry handles for one I/O thread, living under `dlfs.io.*` in the
/// engine's registry (see DESIGN.md, "Telemetry").
struct IoTelemetry {
    samples_delivered: Counter,
    bytes_delivered: Counter,
    requests_posted: Counter,
    completions: Counter,
    poll_spins: Counter,
    /// Commands resubmitted after a device media error or fabric timeout.
    retries: Counter,
    /// Commands the initiator gave up on after its I/O timeout (the fabric
    /// dropped the capsule or the target was down).
    timeouts: Counter,
    batches: Counter,
    deadline_misses: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_pins: Counter,
    /// Cross-epoch cache counters under `dlfs.cache.*`. Registered only
    /// with [`CacheMode::CrossEpoch`] — under the zero-knob default they
    /// are bound to a detached registry so metric renders stay
    /// byte-identical to the pre-cache engine.
    ce_hits: Counter,
    ce_misses: Counter,
    prefetch_issued: Counter,
    prefetch_hits: Counter,
    /// Shared-completion-queue drain stats.
    scq_drains: Counter,
    scq_empty_polls: Counter,
    scq_drain_batch: Histo,
    /// Per-stage latency of the four-stage pipeline.
    prep_ns: Histo,
    post_ns: Histo,
    poll_ns: Histo,
    copy_ns: Histo,
    /// Integrity/replication counters under `dlfs.integrity.*`. Registered
    /// only when the instance carries a [`Redundancy`] — under the
    /// zero-knob default they bind to a detached registry so metric
    /// renders stay byte-identical.
    iv_verified: Counter,
    iv_mismatches: Counter,
    iv_repairs: Counter,
    iv_scrubbed: Counter,
    iv_failovers: Counter,
    iv_hedges: Counter,
    iv_hedge_wins: Counter,
    /// Rebuild counters under `dlfs.rebuild.*`. Registered only when the
    /// instance carries a cluster [`fabric::Membership`] view
    /// ([`crate::DlfsConfig::fail_dead_after`]) — otherwise they bind to a
    /// detached registry, keeping metric renders of every pre-membership
    /// configuration byte-identical.
    rb_blocks: Counter,
    /// Blocks a catch-up resync found already verified on the replacement
    /// device (a restarted node that kept its media skips them).
    rb_clean: Counter,
    /// Blocks no surviving replica could serve cleanly.
    rb_failed: Counter,
    rb_completed: Counter,
    /// Chunks with less than full redundancy right now (drops toward zero
    /// as the rebuild progresses).
    rb_at_risk: Gauge,
    /// Codec counters under `dlfs.codec.*`: encoded bytes fetched off the
    /// devices vs raw bytes they decoded to. Registered only when the
    /// instance carries [`crate::codec::CodecTables`] — under the
    /// zero-knob default they bind to a detached registry so metric
    /// renders stay byte-identical.
    codec_bytes_in: Counter,
    codec_bytes_out: Counter,
    /// Offload counters under `dlfs.offload.*`. Registered only with
    /// [`crate::DlfsConfig::offload`]; detached otherwise.
    of_requests: Counter,
    of_samples: Counter,
    /// Bytes carried over the fabric by dense offload responses.
    of_wire_bytes: Counter,
}

impl IoTelemetry {
    fn new(
        reg: &Registry,
        cross_epoch: bool,
        integrity: bool,
        membership: bool,
        codec: bool,
        offload: bool,
    ) -> IoTelemetry {
        let io = reg.scoped("dlfs.io");
        let cache = if cross_epoch {
            reg.scoped("dlfs.cache")
        } else {
            Registry::new().scoped("dlfs.cache")
        };
        let iv = if integrity {
            reg.scoped("dlfs.integrity")
        } else {
            Registry::new().scoped("dlfs.integrity")
        };
        let rb = if membership {
            reg.scoped("dlfs.rebuild")
        } else {
            Registry::new().scoped("dlfs.rebuild")
        };
        let cd = if codec {
            reg.scoped("dlfs.codec")
        } else {
            Registry::new().scoped("dlfs.codec")
        };
        let of = if offload {
            reg.scoped("dlfs.offload")
        } else {
            Registry::new().scoped("dlfs.offload")
        };
        IoTelemetry {
            codec_bytes_in: cd.counter("bytes_in"),
            codec_bytes_out: cd.counter("bytes_out"),
            of_requests: of.counter("requests"),
            of_samples: of.counter("samples"),
            of_wire_bytes: of.counter("wire_bytes"),
            rb_blocks: rb.counter("blocks_rebuilt"),
            rb_clean: rb.counter("blocks_clean"),
            rb_failed: rb.counter("blocks_failed"),
            rb_completed: rb.counter("completed"),
            rb_at_risk: rb.gauge("chunks_at_risk"),
            iv_verified: iv.counter("verified"),
            iv_mismatches: iv.counter("mismatches"),
            iv_repairs: iv.counter("repairs"),
            iv_scrubbed: iv.counter("scrubbed"),
            iv_failovers: iv.counter("failovers"),
            iv_hedges: iv.counter("hedges"),
            iv_hedge_wins: iv.counter("hedge_wins"),
            ce_hits: cache.counter("hits"),
            ce_misses: cache.counter("misses"),
            prefetch_issued: cache.counter("prefetch_issued"),
            prefetch_hits: cache.counter("prefetch_hits"),
            samples_delivered: io.counter("samples_delivered"),
            bytes_delivered: io.counter("bytes_delivered"),
            requests_posted: io.counter("requests_posted"),
            completions: io.counter("completions"),
            poll_spins: io.counter("poll_spins"),
            retries: io.counter("retries"),
            timeouts: io.counter("timeouts"),
            batches: io.counter("batches"),
            deadline_misses: io.counter("deadline_misses"),
            cache_hits: io.counter("cache.hits"),
            cache_misses: io.counter("cache.misses"),
            cache_pins: io.counter("cache.pins"),
            scq_drains: io.counter("scq.drains"),
            scq_empty_polls: io.counter("scq.empty_polls"),
            scq_drain_batch: io.histogram("scq.drain_batch"),
            prep_ns: io.histogram("stage.prep_ns"),
            post_ns: io.histogram("stage.post_ns"),
            poll_ns: io.histogram("stage.poll_ns"),
            copy_ns: io.histogram("stage.copy_ns"),
        }
    }
}

#[derive(Debug)]
struct ItemRt {
    parts_left: u32,
    samples_total: u32,
    /// Samples handed to copy threads so far (cursor into the item's
    /// shuffled sample list).
    dispatched: u32,
    copies_done: u32,
    fetched: bool,
    /// Block-aligned base offset of the fetched range.
    base: u64,
}

/// A retry parked until its backoff elapses: readiness instant, insertion
/// sequence (keeps same-instant pops deterministic), item idx, part,
/// failed attempts, preferred replica for the resubmission.
type DelayedPart = Reverse<(Time, u64, u32, u32, u32, u32)>;

/// Epoch execution state.
struct EpochState {
    /// The collective seed and epoch number `sequence` was called with
    /// (the prefetcher derives the *next* epoch's item deal from them).
    seed: u64,
    epoch: u64,
    plan: ReaderPlan,
    items: Vec<ItemRt>,
    /// Items resident with undelivered samples (the sample-cache draw set).
    resident_ready: Vec<u32>,
    /// Samples dispatched to copy threads this epoch.
    total_dispatched: usize,
    total: usize,
    /// Next item to start fetching.
    next_fetch: usize,
    /// Parts awaiting qpair submission: (item idx, part no, failed
    /// attempts so far, preferred replica).
    pending_parts: VecDeque<(u32, u32, u32, u32)>,
    /// Failed parts waiting out their retry backoff.
    delayed_parts: BinaryHeap<DelayedPart>,
    delay_seq: u64,
    /// Buffers per item while open.
    bufs: HashMap<u32, Vec<DmaBuf>>,
    /// Items fetched or fetching and not yet retired.
    open_items: usize,
    /// Seeded draw for the random selection among resident items.
    rng: SplitMix64,
    /// Which path serves this epoch, fixed by its first batch: `true` for
    /// storage-side offload, `false` for the client-side engine.
    offloaded: Option<bool>,
}

/// Outcome of [`DlfsIo::start_fetch`].
enum FetchStart {
    /// The item is being fetched (or was already resident).
    Started,
    /// No cache chunks available even after eviction; retry after a
    /// release frees or unpins something.
    Backpressure,
    /// A prefetch of exactly this range is in flight: don't double-fetch,
    /// its completion will publish the range.
    AwaitPrefetch,
}

/// Plan-aware prefetcher state: once the current epoch's fetch list is
/// exhausted, the engine warms the *next* epoch's items (this reader's
/// share of the `(seed, epoch+1)` deal) into the cross-epoch cache.
#[derive(Default)]
struct PrefetchState {
    /// `(seed, epoch)` the queue was built for; rebuilt when it goes
    /// stale.
    built_for: Option<(u64, u64)>,
    /// Upcoming ranges to warm, in the next epoch's first-use order.
    queue: VecDeque<(u16, u64, u64)>,
    /// In-flight prefetches: range key → (chunk, published length).
    inflight: HashMap<RangeKey, (DmaBuf, u64)>,
    /// Device command id → range key of an in-flight prefetch.
    cmds: HashMap<u64, RangeKey>,
}

/// In-flight re-replication of one dead node, executed in slices through
/// idle reactor gaps (see [`DlfsIo::begin_rebuild`]).
struct RebuildState {
    plan: RebuildPlan,
    /// Current extent index into `plan.extents`.
    ext: usize,
    /// Next block within the current extent.
    blk: u64,
    /// Blocks walked so far (copied, found clean, or failed).
    walked: u64,
    /// Blocks no surviving replica could serve.
    failed: u64,
}

/// A per-thread DLFS I/O handle.
pub struct DlfsIo {
    shared: Arc<DlfsShared>,
    /// The instance's batching mode, resolved once against the directory
    /// (`BatchMode::Auto` depends on the mean sample size): the planner,
    /// the prefetcher and the synchronous paths must agree on it, since it
    /// decides every sample's fetch extent and hence its cache key.
    mode: BatchMode,
    qpairs: Vec<IoQPair>,
    epoch: Option<EpochState>,
    inflight: HashMap<u64, (u32, u32, u32, u32)>, // cmd -> (item idx, part, attempt, replica)
    next_cmd: u64,
    /// Parts whose delivered bytes failed checksum verification at least
    /// once this epoch: a verified success from a replica then read-repairs
    /// the home extent, and retry exhaustion surfaces `Corrupt` instead of
    /// a plain I/O error.
    mismatched: HashSet<(u32, u32)>,
    /// Hedge pairing: cmd → (partner cmd, partner's qpair, whether *this*
    /// cmd is the late-issued duplicate). The first verified completion of
    /// a pair delivers; its partner is cancelled (or silently dropped).
    hedges: HashMap<u64, (u64, usize, bool)>,
    /// Primaries due for a hedged duplicate: (due instant, cmd).
    hedge_due: BinaryHeap<Reverse<(Time, u64)>>,
    /// Background scrub position: (storage node, block within its data
    /// region).
    scrub_cursor: (usize, u64),
    /// In-flight node rebuild, throttled through idle reactor gaps
    /// (`rebuild_gap_blocks` per gap) so foreground reads keep their
    /// latency; `None` when full redundancy holds.
    rebuild: Option<RebuildState>,
    /// Fatal engine failure (a part exhausted its retry budget). Sticky
    /// until the epoch is replaced: the plan can no longer be completed.
    failed: Option<DlfsError>,
    /// Deadline of the in-progress `submit` call; retry backoffs are
    /// clamped so a resubmission is never pointlessly scheduled past it.
    current_deadline: Option<Time>,
    registry: Registry,
    tel: IoTelemetry,
    /// Dispatch instant per copy slot of the in-progress `submit` call
    /// (slot indices restart at zero each call).
    copy_dispatch_at: Vec<Time>,
    /// Plan-aware prefetcher (active only with `CacheMode::CrossEpoch`
    /// and `prefetch_window > 0`).
    prefetch: PrefetchState,
    /// Completion-event feed: every qpair submit reports its completion
    /// instant here, so the engine advances straight to the next event
    /// instead of spinning poll iterations toward it.
    clock: Arc<CompletionClock>,
    /// Reactor activity counters (`dlfs.reactor.*`; detached from the
    /// registry unless [`DlfsConfig::reactor_stats`] is set).
    rstats: ReactorStats,
}

impl std::fmt::Debug for DlfsIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DlfsIo")
            .field("reader", &self.shared.reader_id)
            .finish()
    }
}

impl DlfsIo {
    pub fn new(shared: Arc<DlfsShared>) -> DlfsIo {
        DlfsIo::with_registry(shared, &Registry::new())
    }

    /// Build an I/O handle recording its telemetry into `reg`: engine
    /// metrics under `dlfs.io.*`, per-device qpair metrics under
    /// `blocksim.dev{n}.*`.
    pub fn with_registry(shared: Arc<DlfsShared>, reg: &Registry) -> DlfsIo {
        let qd = shared.cfg.queue_depth;
        let clock = CompletionClock::new();
        let qpairs = shared
            .targets
            .iter()
            .enumerate()
            .map(|(nid, t)| {
                let mut qp = IoQPair::new(t.clone(), qd);
                qp.attach_telemetry(&reg.scoped(&format!("blocksim.dev{nid}")));
                qp.attach_completion_hook(clock.clone(), nid);
                qp
            })
            .collect();
        let cross_epoch = shared.cfg.cache_mode == CacheMode::CrossEpoch;
        if cross_epoch {
            shared.cache.attach_telemetry(&reg.scoped("dlfs.cache"));
        }
        let membership = shared
            .redundancy
            .as_deref()
            .and_then(|r| r.membership.as_ref());
        if let Some(m) = membership {
            m.attach_telemetry(&reg.scoped("dlfs.membership"));
        }
        let membership = membership.is_some();
        DlfsIo {
            tel: IoTelemetry::new(
                reg,
                cross_epoch,
                shared.redundancy.is_some(),
                membership,
                shared.codec.is_some(),
                shared.cfg.offload,
            ),
            rstats: ReactorStats::new(reg, shared.cfg.reactor_stats),
            registry: reg.clone(),
            mode: shared.cfg.effective_mode(shared.dir.avg_sample_bytes()),
            shared,
            qpairs,
            epoch: None,
            inflight: HashMap::new(),
            next_cmd: 1,
            mismatched: HashSet::new(),
            hedges: HashMap::new(),
            hedge_due: BinaryHeap::new(),
            scrub_cursor: (0, 0),
            rebuild: None,
            failed: None,
            current_deadline: None,
            copy_dispatch_at: Vec::new(),
            prefetch: PrefetchState::default(),
            clock,
        }
    }

    /// Snapshot of this handle's metrics: `dlfs.io.*` engine counters,
    /// per-stage latency histograms and `blocksim.dev*` qpair stats.
    pub fn metrics(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// The registry this handle records into (shared when constructed via
    /// [`DlfsIo::with_registry`]).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn shared(&self) -> &Arc<DlfsShared> {
        &self.shared
    }

    /// Abandon the current epoch: wait out in-flight device commands (SPDK
    /// cannot cancel a submitted command) and release every sample-cache
    /// range the plan still holds. Called by `sequence` when an epoch is
    /// replaced before being fully consumed.
    fn abort_epoch(&mut self, rt: &Runtime) {
        if self.epoch.is_none() && self.prefetch.cmds.is_empty() {
            return;
        }
        // Drain outstanding commands (including in-flight prefetches:
        // their chunks would leak if merely forgotten).
        while !self.inflight.is_empty() || !self.prefetch.cmds.is_empty() {
            let mut harvested = 0;
            for q in 0..self.qpairs.len() {
                if self.qpairs[q].outstanding() == 0 {
                    continue;
                }
                for comp in self.qpairs[q].process_completions(rt, usize::MAX) {
                    if self.inflight.remove(&comp.id).is_none() {
                        self.prefetch_complete(rt, comp.id, comp.status);
                    }
                    harvested += 1;
                }
            }
            if self.inflight.is_empty() && self.prefetch.cmds.is_empty() {
                break;
            }
            if harvested == 0 {
                match self
                    .clock
                    .next_due(|tag| self.qpairs[tag].next_completion_at())
                {
                    Some(t) => self.advance_to(rt, t),
                    None => break,
                }
            }
        }
        self.hedges.clear();
        self.hedge_due.clear();
        self.mismatched.clear();
        let Some(st) = self.epoch.take() else {
            return; // only prefetches were outstanding
        };
        for (idx, bufs) in st.bufs {
            let it = &st.plan.items[idx as usize];
            let key = self.shared.rkey(it.nid, it.offset);
            if self.shared.cache.contains(key) {
                // Published: the cache owns the chunks. EpochScoped:
                // release retires them (deferred if zero-copy samples
                // still pin the range). CrossEpoch: the range survives on
                // the evictable LRU tail for the replacing epoch. An
                // eviction racing the teardown already reclaimed the
                // chunks; nothing left to do for that key.
                let _ = self.shared.cache.release(key);
            } else {
                // Never became resident: return our chunks directly.
                for b in bufs {
                    self.shared.cache.free_raw(b);
                }
            }
            for &sample in &it.samples {
                self.shared.dir.set_valid(sample, false);
            }
        }
    }

    /// `dlfs_sequence`: derive this reader's epoch plan from the collective
    /// seed. Every reader calling with the same (seed, epoch) computes the
    /// same global plan with no network traffic (paper §III-D1). Any
    /// partially-consumed previous epoch is aborted first.
    pub fn sequence(&mut self, rt: &Runtime, seed: u64, epoch: u64) -> usize {
        self.abort_epoch(rt);
        let cfg = &self.shared.cfg;
        let plan = build_epoch_plan(
            &self.shared.dir,
            cfg.chunk_size,
            self.shared.readers,
            self.mode,
            cfg.window_chunks,
            seed,
            epoch,
        );
        let mine = plan.readers[self.shared.reader_id].clone();
        let items = mine
            .items
            .iter()
            .map(|it| ItemRt {
                parts_left: 0,
                samples_total: it.samples.len() as u32,
                dispatched: 0,
                copies_done: 0,
                fetched: false,
                base: 0,
            })
            .collect();
        let n = mine.samples();
        self.failed = None;
        // A queue built during the previous epoch targeted *this* one;
        // whatever it already warmed is found by the demand probes, the
        // rest is stale.
        self.prefetch.queue.clear();
        self.prefetch.built_for = None;
        self.epoch = Some(EpochState {
            seed,
            epoch,
            plan: mine,
            items,
            resident_ready: Vec::new(),
            total_dispatched: 0,
            total: n,
            next_fetch: 0,
            pending_parts: VecDeque::new(),
            delayed_parts: BinaryHeap::new(),
            delay_seq: 0,
            bufs: HashMap::new(),
            open_items: 0,
            rng: SplitMix64::derive(seed ^ 0xD15B, epoch * 7919 + self.shared.reader_id as u64),
            offloaded: None,
        });
        n
    }

    /// Samples remaining in the current epoch plan.
    pub fn remaining(&self) -> usize {
        self.epoch
            .as_ref()
            .map(|e| e.total - e.total_dispatched)
            .unwrap_or(0)
    }

    /// The planned delivery order of the current epoch (statistically
    /// equivalent to the engine's resident-random draw; used by the
    /// Fig. 13 order extraction).
    pub fn planned_order(&self) -> Option<&[u32]> {
        self.epoch.as_ref().map(|e| &e.plan.order[..])
    }

    /// Stored-frame geometry under the instance codec: `(slba, read
    /// blocks, alloc bytes)` of the frame covering byte `offset` on node
    /// `nid`, or `None` without a codec. Only the encoded prefix is read
    /// off the device (`enc_blocks`, which can exceed the covering blocks
    /// of a short fetch range when a padded frame stored verbatim), but
    /// the allocation covers the frame's full raw extent so it can be
    /// decoded in place after verification.
    fn coded_geometry(&self, nid: u16, offset: u64) -> Option<(u64, u32, u64)> {
        let tables = self.shared.codec.as_deref()?;
        let chunk = self.shared.cfg.chunk_size;
        let frames = &tables.per_node[nid as usize];
        let f = frames.frame_of(chunk, offset);
        let start = frames.base + f as u64 * chunk;
        debug_assert_eq!(start % BLOCK_SIZE, 0, "frames are block-aligned");
        let raw = frames.raw_len(chunk, f) as u64;
        Some((
            start / BLOCK_SIZE,
            tables.enc_blocks(nid as usize, f),
            raw.div_ceil(BLOCK_SIZE) * BLOCK_SIZE,
        ))
    }

    /// Device-read geometry of the fetch range `(nid, offset, len)`:
    /// `(slba, read blocks, alloc bytes)`. The historical path reads
    /// exactly the covering blocks; under a codec the range is one stored
    /// frame and only its encoded prefix hits the device.
    fn read_geometry(&self, nid: u16, offset: u64, len: u64) -> (u64, u32, u64) {
        match self.coded_geometry(nid, offset) {
            Some(g) => g,
            None => {
                let (slba, nblocks, _) = covering_blocks(offset, len);
                (slba, nblocks, nblocks as u64 * BLOCK_SIZE)
            }
        }
    }

    /// Decode one fetched frame in place (stored encoded prefix → raw
    /// frame bytes) before it becomes visible to any consumer — the
    /// sample cache only ever holds decoded bytes, so every warm path and
    /// zero-copy pin serves raw data. Runs strictly *after* block
    /// verification and read-repair, which cover the stored bytes.
    /// Charges the configured decoder throughput on the calling reader
    /// thread and records the `dlfs.codec.*` counters. No-op without a
    /// codec.
    fn decode_frame(&self, rt: &Runtime, nid: u16, offset: u64, bufs: &[DmaBuf]) {
        let Some(tables) = self.shared.codec.as_deref() else {
            return;
        };
        let chunk = self.shared.cfg.chunk_size;
        let frames = &tables.per_node[nid as usize];
        let f = frames.frame_of(chunk, offset);
        let enc_len = frames.lens[f] as usize;
        let raw_len = frames.raw_len(chunk, f);
        rt.work(self.shared.cfg.costs.decode(raw_len as u64));
        self.tel.codec_bytes_in.add(enc_len as u64);
        self.tel.codec_bytes_out.add(raw_len as u64);
        if enc_len == raw_len {
            return; // stored verbatim: the buffer already holds raw bytes
        }
        debug_assert_eq!(bufs.len(), 1, "a coded frame fits one cache chunk");
        let codec = tables.kind.codec();
        bufs[0].with_mut(|d| {
            let raw = codec.decode(&d[..enc_len], raw_len);
            d[..raw_len].copy_from_slice(&raw);
        });
    }

    /// Start fetching item `idx`: probe the cross-epoch cache first, else
    /// allocate cache chunks and queue the item's parts for the device.
    fn start_fetch(&mut self, idx: u32) -> FetchStart {
        let cross = self.shared.cfg.cache_mode == CacheMode::CrossEpoch;
        let (key, slba, alloc_bytes) = {
            let st = self.epoch.as_ref().expect("no epoch");
            let it = &st.plan.items[idx as usize];
            let (slba, _, alloc) = self.read_geometry(it.nid, it.offset, it.len);
            (self.shared.rkey(it.nid, it.offset), slba, alloc)
        };
        let st = self.epoch.as_mut().expect("no epoch");
        let it = &st.plan.items[idx as usize];
        if cross {
            // Residency probe: a previous epoch (or the prefetcher) may
            // already hold this exact range — warm items skip the device
            // entirely.
            if let Some((bufs, len, was_prefetched)) = self.shared.cache.acquire(key) {
                debug_assert_eq!(len, it.len, "cached range geometry drifted");
                self.tel.ce_hits.inc();
                if was_prefetched {
                    self.tel.prefetch_hits.inc();
                }
                let rt_item = &mut st.items[idx as usize];
                rt_item.parts_left = 0;
                rt_item.fetched = true;
                rt_item.base = slba * BLOCK_SIZE;
                st.bufs.insert(idx, bufs);
                st.open_items += 1;
                let it = &st.plan.items[idx as usize];
                for &s in &it.samples {
                    self.shared.dir.set_valid(s, true);
                }
                st.resident_ready.push(idx);
                return FetchStart::Started;
            }
            if self.prefetch.inflight.contains_key(&key) {
                // The range is already on the wire as a prefetch; fetching
                // it again would double-publish. Its completion will
                // publish it, and the next probe will hit.
                return FetchStart::AwaitPrefetch;
            }
            self.tel.ce_misses.inc();
        }
        let Some(bufs) = self.shared.cache.alloc_for(alloc_bytes) else {
            return FetchStart::Backpressure;
        };
        let parts = bufs.len() as u32;
        let rt_item = &mut st.items[idx as usize];
        rt_item.parts_left = parts;
        rt_item.fetched = true;
        rt_item.base = slba * BLOCK_SIZE;
        st.bufs.insert(idx, bufs);
        for p in 0..parts {
            st.pending_parts.push_back((idx, p, 0, 0));
        }
        st.open_items += 1;
        FetchStart::Started
    }

    /// Pump stage: keep the fetch window full and the qpairs fed.
    fn pump(&mut self, rt: &Runtime) -> usize {
        let window = self.shared.cfg.window_chunks;
        let mut progressed = 0;

        // Open new items up to the window.
        loop {
            let (next_fetch, item_count, open) = {
                let st = self.epoch.as_ref().expect("no epoch");
                (st.next_fetch, st.plan.items.len(), st.open_items)
            };
            if next_fetch >= item_count {
                break;
            }
            // The pipeline must never starve: with nothing open at all, a
            // fetch is mandatory regardless of the window budget.
            let starving = open == 0;
            if open >= 2 * window && !starving {
                break;
            }
            match self.start_fetch(next_fetch as u32) {
                FetchStart::Started => {
                    self.epoch.as_mut().expect("no epoch").next_fetch += 1;
                    progressed += 1;
                }
                FetchStart::AwaitPrefetch => {
                    // An in-flight prefetch owns this range; progress
                    // comes from polling its completion.
                    break;
                }
                FetchStart::Backpressure => {
                    assert!(
                        !starving,
                        "DLFS sample cache too small for a single fetch item; \
                         increase pool_chunks"
                    );
                    break; // cache backpressure; retry after releases
                }
            }
        }

        // Move retry parts whose backoff has elapsed into the submit queue.
        {
            let now = rt.now();
            let st = self.epoch.as_mut().expect("no epoch");
            while let Some(&Reverse((ready_at, _, idx, part, attempt, replica))) =
                st.delayed_parts.peek()
            {
                if ready_at > now {
                    break;
                }
                st.delayed_parts.pop();
                st.pending_parts.push_back((idx, part, attempt, replica));
                progressed += 1;
            }
        }

        // Doorbell flush: stage every queued part the qpairs have room for
        // and submit them in one pass (prep + post per request). Capacity
        // is checked up front — the queue-full probe of the legacy loop is
        // replaced by a bookkeeping check — but the virtual-time charges
        // are identical: a flush that stops at a full qpair still pays one
        // prep+post (the legacy rejected-submit charge, unrecorded in the
        // stage histograms then and now).
        let chunk = self.shared.cfg.chunk_size as usize;
        let costs = self.shared.cfg.costs.clone();
        let qd = self.shared.cfg.queue_depth;
        let hedging = self.shared.cfg.hedge_reads
            && self
                .shared
                .redundancy
                .as_deref()
                .is_some_and(|r| r.replicas > 1);
        let mut flushed = false;
        let mut blocked = false;
        while let Some(&(idx, part, attempt, replica)) =
            self.epoch.as_ref().expect("no epoch").pending_parts.front()
        {
            let (dev, slba_dev, nblocks_part, replica, buf) = {
                let st = self.epoch.as_ref().expect("no epoch");
                let it = &st.plan.items[idx as usize];
                let (slba, nblocks, _) = self.read_geometry(it.nid, it.offset, it.len);
                let blocks_per_chunk = (chunk as u64 / BLOCK_SIZE) as u32;
                let start = part * blocks_per_chunk;
                let n = (nblocks - start).min(blocks_per_chunk);
                let buf = st.bufs[&idx][part as usize].clone();
                // Route through the replica map (health-aware) when the
                // instance is redundant; replica 0 is the home copy.
                let (r, dev, slba_dev) = match self.shared.redundancy.as_deref() {
                    Some(red) if red.replicas > 1 => {
                        let r = red.pick_replica(it.nid, replica, rt.now());
                        let (d, s) = red.route(it.nid, r, slba + start as u64);
                        (r, d as usize, s)
                    }
                    _ => (0, it.nid as usize, slba + start as u64),
                };
                (dev, slba_dev, n, r, buf)
            };
            if self.qpairs[dev].outstanding() >= qd {
                blocked = true;
                break; // queue full; poll first
            }
            let cmd = self.next_cmd;
            let t0 = rt.now();
            rt.work(costs.prep_request);
            let t1 = rt.now();
            rt.work(costs.post_request);
            self.qpairs[dev]
                .submit_read(rt, cmd, slba_dev, nblocks_part, buf, 0)
                .expect("capacity checked before staging");
            self.tel.prep_ns.record_dur(t1 - t0);
            self.tel.post_ns.record_dur(rt.now() - t1);
            self.next_cmd += 1;
            self.tel.requests_posted.inc();
            self.inflight.insert(cmd, (idx, part, attempt, replica));
            if hedging {
                self.hedge_due
                    .push(Reverse((rt.now() + self.hedge_delay(rt.now()), cmd)));
            }
            self.epoch
                .as_mut()
                .expect("no epoch")
                .pending_parts
                .pop_front();
            progressed += 1;
            flushed = true;
        }
        if blocked {
            // The legacy engine discovered the full queue by paying a
            // prep+post for the rejected submit; keep the clock identical.
            rt.work(costs.prep_request);
            rt.work(costs.post_request);
        }
        if flushed {
            self.rstats.doorbells.inc();
        }
        if hedging {
            progressed += self.fire_hedges(rt);
        }

        // With the epoch's own fetch list exhausted, spend the idle tail
        // warming the next epoch (plan-aware prefetch).
        progressed += self.pump_prefetch(rt);
        progressed
    }

    /// Delay before a demand read is hedged with a duplicate on the next
    /// replica: a quarter of the remaining deadline budget, floored so
    /// near-deadline batches don't hedge instantly.
    fn hedge_delay(&self, now: Time) -> Dur {
        match self.current_deadline {
            Some(dl) if dl > now => {
                let quarter = Dur::nanos((dl - now).as_nanos() / 4);
                quarter.max(Dur::micros(5))
            }
            _ => Dur::micros(50),
        }
    }

    /// Issue hedged duplicates for primaries that have been in flight past
    /// their hedge delay (config `hedge_reads`, replicas >= 2). The
    /// duplicate reads the *next* replica into the same buffer; whichever
    /// command completes (and verifies) first delivers the part, and its
    /// partner is cancelled on the device.
    fn fire_hedges(&mut self, rt: &Runtime) -> usize {
        let Some(red) = self.shared.redundancy.clone() else {
            return 0;
        };
        let qd = self.shared.cfg.queue_depth;
        let costs = self.shared.cfg.costs.clone();
        let chunk = self.shared.cfg.chunk_size;
        let mut fired = 0;
        while let Some(&Reverse((due, cmd))) = self.hedge_due.peek() {
            if due > rt.now() {
                break;
            }
            self.hedge_due.pop();
            // Already completed, or already hedged: nothing to do.
            let Some(&(idx, part, attempt, replica)) = self.inflight.get(&cmd) else {
                continue;
            };
            if self.hedges.contains_key(&cmd) {
                continue;
            }
            let Some(st) = self.epoch.as_ref() else {
                continue;
            };
            let it = &st.plan.items[idx as usize];
            let (slba, nblocks, _) = self.read_geometry(it.nid, it.offset, it.len);
            let blocks_per_chunk = (chunk / BLOCK_SIZE) as u32;
            let start = part * blocks_per_chunk;
            let n = (nblocks - start).min(blocks_per_chunk);
            let buf = st.bufs[&idx][part as usize].clone();
            let r2 = (replica + 1) % red.replicas;
            let (dev1, _) = red.route(it.nid, replica, slba + start as u64);
            let (dev2, slba2) = red.route(it.nid, r2, slba + start as u64);
            if r2 == replica || dev2 == dev1 {
                continue; // no distinct copy to hedge onto
            }
            if self.qpairs[dev2 as usize].outstanding() >= qd {
                continue; // no room; the primary keeps sole ownership
            }
            let cmd2 = self.next_cmd;
            rt.work(costs.prep_request);
            rt.work(costs.post_request);
            self.qpairs[dev2 as usize]
                .submit_read(rt, cmd2, slba2, n, buf, 0)
                .expect("capacity checked before staging");
            self.next_cmd += 1;
            self.tel.requests_posted.inc();
            self.tel.iv_hedges.inc();
            self.inflight.insert(cmd2, (idx, part, attempt, r2));
            self.hedges.insert(cmd, (cmd2, dev2 as usize, false));
            self.hedges.insert(cmd2, (cmd, dev1 as usize, true));
            fired += 1;
        }
        fired
    }

    /// Plan-aware prefetch (paper-adjacent: the epoch access sequence is
    /// known at `dlfs_sequence` time, so the *next* epoch's is too). Once
    /// the current epoch has no more items to open, post single-chunk
    /// fetches for the ranges epoch+1 will deal to this reader — newest
    /// data lands in the cross-epoch cache as released (evictable)
    /// ranges, warming the next epoch's head during this one's tail.
    /// Clamped by the prefetch window, pool headroom (demand fetches keep
    /// `window_chunks` of reserve) and qpair depth.
    fn pump_prefetch(&mut self, rt: &Runtime) -> usize {
        let cfg = &self.shared.cfg;
        let pf_window = cfg.prefetch_window;
        if pf_window == 0 || cfg.cache_mode != CacheMode::CrossEpoch {
            return 0;
        }
        let Some(st) = self.epoch.as_ref() else {
            return 0;
        };
        if st.next_fetch < st.plan.items.len() {
            return 0; // demand fetches still pending; they have priority
        }
        let (seed, epoch) = (st.seed, st.epoch);
        if self.prefetch.built_for != Some((seed, epoch + 1)) {
            self.prefetch.queue = reader_item_ranges(
                &self.shared.dir,
                cfg.chunk_size,
                self.shared.readers,
                self.mode,
                seed,
                epoch + 1,
                self.shared.reader_id,
            )
            .into();
            self.prefetch.built_for = Some((seed, epoch + 1));
        }
        let chunk = cfg.chunk_size;
        let reserve = cfg.window_chunks;
        let costs = cfg.costs.clone();
        let mut progressed = 0;
        while self.prefetch.inflight.len() < pf_window {
            let Some(&(nid, offset, len)) = self.prefetch.queue.front() else {
                break;
            };
            let key = self.shared.rkey(nid, offset);
            let (slba, nblocks, bytes) = self.read_geometry(nid, offset, len);
            if bytes > chunk
                || self.shared.cache.contains(key)
                || self.prefetch.inflight.contains_key(&key)
                || self.demand_fetch_in_flight(key)
            {
                // Multi-chunk edge items aren't worth speculative slots;
                // already-resident or in-flight ranges need no warming.
                self.prefetch.queue.pop_front();
                continue;
            }
            let Some(mut bufs) = self.shared.cache.alloc_prefetch(bytes, reserve) else {
                break; // no speculative headroom; retry when pressure drops
            };
            debug_assert_eq!(bufs.len(), 1);
            let buf = bufs.pop().expect("single chunk");
            // Capacity bookkeeping replaces the legacy rejected-submit
            // probe; the prep+post charge for a blocked flush is kept so
            // the virtual clock is unchanged.
            let full = self.qpairs[nid as usize].outstanding() >= self.shared.cfg.queue_depth;
            let cmd = self.next_cmd;
            let t0 = rt.now();
            rt.work(costs.prep_request);
            let t1 = rt.now();
            rt.work(costs.post_request);
            if full {
                self.shared.cache.free_raw(buf);
                break; // qpair full; demand completions first
            }
            self.qpairs[nid as usize]
                .submit_read(rt, cmd, slba, nblocks, buf.clone(), 0)
                .expect("capacity checked before staging");
            self.tel.prep_ns.record_dur(t1 - t0);
            self.tel.post_ns.record_dur(rt.now() - t1);
            self.next_cmd += 1;
            self.tel.requests_posted.inc();
            self.tel.prefetch_issued.inc();
            self.prefetch.queue.pop_front();
            self.prefetch.cmds.insert(cmd, key);
            self.prefetch.inflight.insert(key, (buf, len));
            progressed += 1;
        }
        if progressed > 0 {
            self.rstats.doorbells.inc();
        }
        progressed
    }

    /// Is `key` currently being fetched by the demand path (allocated but
    /// not yet published)? The prefetcher must not double-fetch it.
    fn demand_fetch_in_flight(&self, key: RangeKey) -> bool {
        let Some(st) = self.epoch.as_ref() else {
            return false;
        };
        st.bufs.keys().any(|&idx| {
            let it = &st.plan.items[idx as usize];
            self.shared.rkey(it.nid, it.offset) == key && st.items[idx as usize].parts_left > 0
        })
    }

    /// Route the completion of a prefetch command: publish the warmed
    /// range (born released/evictable), or — on failure, or if the range
    /// became resident meanwhile — return the chunk. Prefetches are
    /// best-effort: no retries; a miss simply falls back to a demand
    /// fetch next epoch.
    fn prefetch_complete(&mut self, rt: &Runtime, cmd: u64, status: CmdStatus) {
        let key = self
            .prefetch
            .cmds
            .remove(&cmd)
            .expect("completion for unknown command");
        let (buf, len) = self
            .prefetch
            .inflight
            .remove(&key)
            .expect("prefetch buffer tracked");
        let nid = crate::cache::key_node(key);
        // Prefetched bytes are published into the cache, so they must pass
        // checksum verification like any demand read; a corrupt prefetch is
        // simply dropped (demand reads repair via replicas).
        let verified = match self.shared.redundancy.as_deref().filter(|r| r.verify()) {
            Some(red) if status.is_ok() => {
                let (slba, nblocks, _) = self.read_geometry(nid, key.1, len);
                rt.work(self.shared.cfg.costs.verify_block * nblocks as u64);
                self.tel.iv_verified.add(nblocks as u64);
                let ok = buf.with(|d| {
                    red.verify_blocks(nid, slba, &d[..nblocks as usize * BLOCK_SIZE as usize])
                });
                if !ok {
                    self.tel.iv_mismatches.inc();
                }
                ok
            }
            _ => true,
        };
        if status.is_ok() && verified && !self.shared.cache.contains(key) {
            self.decode_frame(rt, nid, key.1, std::slice::from_ref(&buf));
            self.shared.cache.publish_prefetched(key, vec![buf], len);
        } else {
            if status == CmdStatus::TransportError {
                self.tel.timeouts.inc();
            }
            self.shared.cache.free_raw(buf);
        }
    }

    /// Apply one harvested device completion belonging to the batched
    /// engine's in-flight set. Shared by the poll stage and the synchronous
    /// read path: both drain the same qpairs, so either may harvest the
    /// other's completions — and either way a failed part must be re-queued
    /// for retry, never just routed and forgotten.
    ///
    /// With a [`Redundancy`] attached this is also where integrity is
    /// enforced: delivered bytes are checksum-verified *before* the part
    /// can publish, mismatches and device errors fail straight over to the
    /// next replica, a verified replica copy read-repairs a home extent
    /// that mismatched, and hedge pairs are resolved first-wins.
    #[allow(clippy::too_many_arguments)]
    fn engine_complete(
        &mut self,
        rt: &Runtime,
        cmd: u64,
        idx: u32,
        part: u32,
        attempt: u32,
        replica: u32,
        status: CmdStatus,
    ) {
        // Resolve hedge pairing up front: at most one of the pair delivers.
        let hedge = self.hedges.remove(&cmd);
        if let Some((pcmd, _, _)) = hedge {
            self.hedges.remove(&pcmd);
        }
        let red = self.shared.redundancy.clone();
        let (nid, home_slba, nblocks) = {
            let st = self.epoch.as_ref().expect("no epoch");
            let it = &st.plan.items[idx as usize];
            let (slba, total, _) = self.read_geometry(it.nid, it.offset, it.len);
            let bpc = (self.shared.cfg.chunk_size / BLOCK_SIZE) as u32;
            let start = part * bpc;
            (it.nid, slba + start as u64, (total - start).min(bpc))
        };
        let serving = red
            .as_deref()
            .map(|r| r.route(nid, replica, home_slba).0)
            .unwrap_or(nid);
        // Verify the delivered bytes before anything is published.
        let mut verify_failed = false;
        if status.is_ok() {
            if let Some(red) = red.as_deref().filter(|r| r.verify()) {
                rt.work(self.shared.cfg.costs.verify_block * nblocks as u64);
                self.tel.iv_verified.add(nblocks as u64);
                let buf = self.epoch.as_ref().expect("no epoch").bufs[&idx][part as usize].clone();
                let span = nblocks as usize * BLOCK_SIZE as usize;
                let ok = buf.with(|d| red.verify_blocks(nid, home_slba, &d[..span]));
                if ok {
                    if replica > 0 && self.mismatched.remove(&(idx, part)) {
                        // Read-repair: the home copy failed its checksum
                        // earlier; rewrite it from this verified replica
                        // (clears sticky media faults too).
                        let home = self.shared.targets[nid as usize].clone();
                        buf.with(|d| home.dma_write(home_slba, &d[..span]));
                        self.tel.iv_repairs.inc();
                    } else {
                        self.mismatched.remove(&(idx, part));
                    }
                } else {
                    self.tel.iv_mismatches.inc();
                    self.mismatched.insert((idx, part));
                    verify_failed = true;
                }
            }
        }
        if status.is_ok() && !verify_failed {
            if let Some(red) = red.as_deref().filter(|r| r.replicas > 1) {
                red.record_ok(serving as usize);
            }
            if let Some((pcmd, pdev, secondary)) = hedge {
                // First verified completion wins: cancel the partner on its
                // device (it never DMAs) and drop its in-flight entry.
                if self.inflight.remove(&pcmd).is_some() {
                    self.qpairs[pdev].cancel(pcmd);
                }
                if secondary {
                    self.tel.iv_hedge_wins.inc();
                }
            }
            let st = self.epoch.as_mut().expect("no epoch");
            let item = &mut st.items[idx as usize];
            item.parts_left -= 1;
            if item.parts_left == 0 {
                // Item fully resident: decode its frame (codec datasets;
                // verification above covered the stored bytes), publish it
                // in the sample cache, flip the V field of its samples and
                // offer it to the delivery draw.
                let it = &st.plan.items[idx as usize];
                let (key, len) = (self.shared.rkey(it.nid, it.offset), it.len);
                let (nid, offset) = (it.nid, it.offset);
                let bufs = st.bufs[&idx].clone();
                self.decode_frame(rt, nid, offset, &bufs);
                self.shared.cache.publish(key, bufs, len);
                let st = self.epoch.as_mut().expect("no epoch");
                let it = &st.plan.items[idx as usize];
                for &s in &it.samples {
                    self.shared.dir.set_valid(s, true);
                }
                st.resident_ready.push(idx);
            }
            return;
        }
        // Failed command: device media error, fabric timeout, or delivered
        // bytes that failed their checksum.
        if status == CmdStatus::TransportError {
            self.tel.timeouts.inc();
        }
        if let Some(red) = red.as_deref().filter(|r| r.replicas > 1) {
            red.record_failure(serving as usize, rt.now());
        }
        if let Some((pcmd, _, _)) = hedge {
            if self.inflight.contains_key(&pcmd) {
                // The hedged twin is still racing and becomes the part's
                // sole owner: this loss consumes no retry budget.
                return;
            }
        }
        let failed_attempts = attempt + 1;
        match self.shared.cfg.retry.next_delay(failed_attempts) {
            Some(backoff) => {
                self.tel.retries.inc();
                if red.as_deref().is_some_and(|r| r.replicas > 1) {
                    // Fail straight over to the next replica in rotation —
                    // another copy can serve *now*, so no backoff.
                    self.tel.iv_failovers.inc();
                    let st = self.epoch.as_mut().expect("no epoch");
                    st.pending_parts
                        .push_back((idx, part, failed_attempts, replica + 1));
                } else {
                    let mut ready_at = rt.now() + backoff;
                    if let Some(dl) = self.current_deadline {
                        // Never park a retry past the batch deadline: the
                        // caller is about to give up waiting anyway.
                        ready_at = ready_at.min(dl.max(rt.now()));
                    }
                    let st = self.epoch.as_mut().expect("no epoch");
                    st.delay_seq += 1;
                    st.delayed_parts.push(Reverse((
                        ready_at,
                        st.delay_seq,
                        idx,
                        part,
                        failed_attempts,
                        replica,
                    )));
                }
            }
            None => {
                let chunk_off =
                    self.epoch.as_ref().expect("no epoch").plan.items[idx as usize].offset;
                self.failed
                    .get_or_insert(if self.mismatched.contains(&(idx, part)) {
                        DlfsError::Corrupt {
                            chunk: chunk_off,
                            tried: failed_attempts,
                            cause: if status.is_ok() {
                                CorruptCause::Checksum
                            } else {
                                CorruptCause::Io(match status {
                                    CmdStatus::TransportError => IoFailure::Timeout,
                                    _ => IoFailure::Media,
                                })
                            },
                        }
                    } else {
                        DlfsError::Io {
                            target: nid.into(),
                            attempts: failed_attempts,
                            cause: match status {
                                CmdStatus::TransportError => IoFailure::Timeout,
                                _ => IoFailure::Media,
                            },
                        }
                    });
            }
        }
    }

    /// Poll stage: harvest completions across all qpairs (the shared
    /// completion queue consolidates this into one pass).
    fn poll(&mut self, rt: &Runtime) -> usize {
        let costs = self.shared.cfg.costs.clone();
        let t0 = rt.now();
        self.tel.poll_spins.inc();
        if self.shared.cfg.shared_completion_queue {
            rt.work(costs.poll_iteration);
        } else {
            rt.work(costs.poll_iteration * self.qpairs.len() as u64);
        }
        let mut harvested = 0;
        for q in 0..self.qpairs.len() {
            // Event-driven sweep: only queues whose earliest completion is
            // due get a harvest pass. The check is live (per-completion
            // work advances the clock mid-sweep, so a later queue may
            // become due during this pass) and in index order — both are
            // load-bearing for determinism. An empty harvest charges and
            // records nothing, so the skip is unobservable.
            match self.qpairs[q].next_completion_at() {
                Some(t) if t <= rt.now() => {}
                _ => continue,
            }
            for comp in self.qpairs[q].process_completions(rt, usize::MAX) {
                rt.work(costs.per_completion);
                self.tel.completions.inc();
                harvested += 1;
                match self.inflight.remove(&comp.id) {
                    Some((idx, part, attempt, replica)) => {
                        self.engine_complete(rt, comp.id, idx, part, attempt, replica, comp.status);
                    }
                    None => self.prefetch_complete(rt, comp.id, comp.status),
                }
            }
        }
        if harvested == 0 {
            self.tel.scq_empty_polls.inc();
        } else {
            self.tel.scq_drains.inc();
            self.tel.scq_drain_batch.record(harvested as u64);
        }
        self.tel.poll_ns.record_dur(rt.now() - t0);
        harvested
    }

    /// Copy-dispatch stage: draw samples from random resident items and
    /// hand them to the copy pool. `tag_base` numbers this call's slots.
    fn dispatch(
        &mut self,
        rt: &Runtime,
        budget: usize,
        slots_used: usize,
        done_tx: &simkit::chan::Sender<CopyDone>,
    ) -> usize {
        let costs = self.shared.cfg.costs.clone();
        let mut dispatched = 0;
        while dispatched < budget {
            let (idx, sample, slot) = {
                let st = self.epoch.as_mut().expect("no epoch");
                if st.resident_ready.is_empty() {
                    break;
                }
                let pick = st.rng.below(st.resident_ready.len() as u64) as usize;
                let idx = st.resident_ready[pick];
                let item = &mut st.items[idx as usize];
                let sample = st.plan.items[idx as usize].samples[item.dispatched as usize];
                item.dispatched += 1;
                if item.dispatched == item.samples_total {
                    st.resident_ready.swap_remove(pick);
                }
                st.total_dispatched += 1;
                (idx, sample, (slots_used + dispatched) as u64)
            };
            let entry = self.shared.dir.entry(sample);
            let segments = {
                let st = self.epoch.as_ref().expect("no epoch");
                segments_for(
                    &st.plan.items[idx as usize],
                    st.items[idx as usize].base,
                    &st.bufs[&idx],
                    self.shared.cfg.chunk_size as usize,
                    entry,
                )
            };
            rt.work(costs.frontend_per_sample + costs.copy_dispatch);
            debug_assert_eq!(self.copy_dispatch_at.len(), slot as usize);
            self.copy_dispatch_at.push(rt.now());
            self.shared.copy.submit(CopyJob {
                tag: (idx as u64) << 32 | slot,
                sample,
                segments,
                done: done_tx.clone(),
            });
            dispatched += 1;
        }
        dispatched
    }

    /// Account one delivered sample of `idx`; release its item when fully
    /// drained. `EpochScoped`: chunks go back to the pool (or, if
    /// zero-copy samples still pin them, when the last pin drops).
    /// `CrossEpoch`: the range joins the evictable LRU tail and may serve
    /// the next epoch without device I/O.
    fn account_delivery(&mut self, idx: u32) {
        let st = self.epoch.as_mut().expect("no epoch");
        let item = &mut st.items[idx as usize];
        item.copies_done += 1;
        if item.copies_done == item.samples_total {
            st.bufs.remove(&idx);
            let it = &st.plan.items[idx as usize];
            // The engine still holds this range (never released), so it
            // cannot have been evicted; a miss means an eviction or
            // teardown won a race and already reclaimed the chunks.
            let _ = self
                .shared
                .cache
                .release(self.shared.rkey(it.nid, it.offset));
            st.open_items -= 1;
            for &s in &it.samples {
                self.shared.dir.set_valid(s, false);
            }
        }
    }

    /// Account a finished copy; retire its item when fully drained.
    fn finish_copy(&mut self, rt: &Runtime, done: &CopyDone) -> usize {
        let idx = (done.tag >> 32) as u32;
        let slot = (done.tag & 0xFFFF_FFFF) as usize;
        self.account_delivery(idx);
        self.tel.samples_delivered.inc();
        self.tel.bytes_delivered.add(done.data.len() as u64);
        self.tel
            .copy_ns
            .record_dur(rt.now() - self.copy_dispatch_at[slot]);
        slot
    }

    /// Execute a [`ReadRequest`] against the current epoch plan: the one
    /// entry point unifying the copied and zero-copy delivery paths, and
    /// the only batched-read API (the interim `bread`/`bread_zero_copy`
    /// wrappers are gone).
    ///
    /// Returns `EpochExhausted` once the plan is drained and `NoSequence`
    /// before the first [`DlfsIo::sequence`]. With a deadline, the batch
    /// may come back shorter than `req.n` (but never torn: samples already
    /// handed to the copy threads always drain).
    pub fn submit(&mut self, rt: &Runtime, req: &ReadRequest) -> Result<Completions, DlfsError> {
        if self.epoch.is_none() {
            return Err(DlfsError::NoSequence);
        }
        if let Some(e) = &self.failed {
            // A part of this epoch is permanently lost; the plan cannot
            // complete until `sequence` installs a fresh one.
            return Err(e.clone());
        }
        self.current_deadline = req.deadline;
        let want = req.n.min(self.remaining());
        if want == 0 {
            return Err(DlfsError::EpochExhausted);
        }
        self.tel.batches.inc();
        // QoS admission (multi-tenant mounts only): token-bucket throttle
        // then a WFQ device-slot grant, charged to the request's tenant —
        // the handle's unless the request overrides it. The slot is held
        // for the whole batch and released below even on error.
        let qos = self.shared.qos.clone();
        let grant = match &qos {
            Some(q) => {
                let tenant = req.tenant.unwrap_or(self.shared.tenant);
                Some(q.admit(rt, tenant, q.batch_cost(want))?)
            }
            None => None,
        };
        let outcome = if req.offload {
            self.run_offload(rt, want, req).map(Completions::copied)
        } else {
            self.claim_epoch_path(false)
                .and_then(|()| match req.delivery {
                    Delivery::Copied => self.run_copied(rt, want, req).map(Completions::copied),
                    Delivery::ZeroCopy => self
                        .run_zero_copy(rt, want, req)
                        .map(Completions::zero_copy),
                })
        };
        if let Some(q) = &qos {
            let delivered = outcome.as_ref().map(|b| b.len()).unwrap_or(0);
            q.complete(
                grant.expect("granted above"),
                delivered as u64,
                q.batch_cost(delivered),
            );
        }
        let batch = outcome?;
        if batch.len() < want {
            self.tel.deadline_misses.inc();
        }
        Ok(batch)
    }

    /// Commit the current epoch to the offload path or the client-side
    /// engine. The offload path claims samples by walking the plan's items
    /// in order while the engine draws them from whichever fetched items
    /// are resident, so the two cannot share one epoch's cursors: a batch
    /// on the other path is a typed error until `sequence` starts the next
    /// epoch (it used to be an out-of-bounds panic in `dispatch`).
    fn claim_epoch_path(&mut self, offload: bool) -> Result<(), DlfsError> {
        let st = self.epoch.as_mut().expect("no epoch");
        if *st.offloaded.get_or_insert(offload) == offload {
            return Ok(());
        }
        Err(DlfsError::Config(
            "one epoch is served by one path: offloaded and client-path batches \
             cannot be mixed before the next sequence()"
                .into(),
        ))
    }

    /// The copied-delivery engine loop (prep → post → poll → copy).
    fn run_copied(
        &mut self,
        rt: &Runtime,
        want: usize,
        req: &ReadRequest,
    ) -> Result<Vec<(u32, Vec<u8>)>, DlfsError> {
        let (done_tx, done_rx) = rt.channel::<CopyDone>(None);
        let mut results: Vec<Option<(u32, Vec<u8>)>> = vec![None; want];
        let mut dispatched = 0usize;
        let mut received = 0usize;
        self.copy_dispatch_at.clear();

        while received < want {
            if self.failed.is_some() {
                // Fatal I/O failure: drain the copies already dispatched
                // (never tear a sample), then surface the error.
                while received < dispatched {
                    let done = done_rx.recv().map_err(|_| DlfsError::CacheExhausted)?;
                    self.finish_copy(rt, &done);
                    received += 1;
                }
                return Err(self.failed.clone().expect("checked above"));
            }
            let expired = req.deadline.is_some_and(|dl| rt.now() >= dl);
            if expired && received == dispatched {
                // Past the deadline with nothing outstanding: return short.
                break;
            }
            let mut progress = 0;
            progress += self.pump(rt);
            progress += self.poll(rt);
            if !expired {
                let newly = self.dispatch(rt, want - dispatched, dispatched, &done_tx);
                dispatched += newly;
                progress += newly;
            }
            // Collect finished copies without blocking.
            while let Ok(done) = done_rx.try_recv() {
                let slot = self.finish_copy(rt, &done);
                results[slot] = Some((done.sample, done.data));
                received += 1;
                progress += 1;
            }
            if received >= want {
                break;
            }
            if progress == 0 {
                if dispatched > received {
                    // Copies outstanding: block on the copy pool.
                    let done = done_rx.recv().map_err(|_| DlfsError::CacheExhausted)?;
                    let slot = self.finish_copy(rt, &done);
                    results[slot] = Some((done.sample, done.data));
                    received += 1;
                    continue;
                }
                if expired {
                    break;
                }
                // Waiting on device completions: this is the busy-poll loop
                // the Fig. 7b experiment adds application computation to —
                // the compute overlaps with the in-flight SPDK requests.
                if !req.inject_compute.is_zero() {
                    rt.work(req.inject_compute);
                    continue;
                }
                // Waiting on the devices: spin the poll loop forward to the
                // next event — a completion, or a delayed part's retry
                // instant (busy polling, so it's CPU time).
                match self.next_engine_event() {
                    Some(t) => self.advance_to(rt, t),
                    None => {
                        panic!(
                            "dlfs submit stalled: nothing in flight, nothing \
                             deliverable (reader {})",
                            self.shared.reader_id
                        );
                    }
                }
            }
        }
        Ok(results.into_iter().flatten().collect())
    }

    /// The storage-side offload path (`ReadRequest::offload`): consume the
    /// next `want` samples of the plan in item order, group them by home
    /// storage node, and issue ONE offload exchange per node — the target
    /// reads the stored frames, verifies and decodes them locally (both
    /// charged to the target's compute pool, not this reader), and ships a
    /// single dense response carrying exactly the requested sample bytes.
    /// Bypasses the qpairs and the sample cache entirely, so an epoch is
    /// served by one path or the other (see [`DlfsIo::claim_epoch_path`]).
    /// Deadlines are not honored: the batch is a single remote exchange
    /// with nothing to cut short client-side.
    fn run_offload(
        &mut self,
        rt: &Runtime,
        want: usize,
        req: &ReadRequest,
    ) -> Result<Vec<(u32, Vec<u8>)>, DlfsError> {
        if req.delivery != Delivery::Copied {
            return Err(DlfsError::Config(
                "offload batches are assembled storage-side; only copied \
                 delivery can cross the fabric"
                    .into(),
            ));
        }
        if !self.shared.cfg.offload {
            return Err(DlfsError::Config(
                "ReadRequest::offload requires DlfsConfig { offload: true, .. }".into(),
            ));
        }
        self.claim_epoch_path(true)?;
        // 1. Claim the next `want` samples, walking items in plan order.
        let mut taken: Vec<(u16, u64, u64, Vec<u32>)> = Vec::new();
        {
            let st = self.epoch.as_mut().expect("no epoch");
            let mut left = want;
            let mut idx = 0usize;
            while left > 0 && idx < st.items.len() {
                let done = st.items[idx].dispatched;
                let take = (st.items[idx].samples_total - done).min(left as u32);
                if take == 0 {
                    idx += 1;
                    continue;
                }
                let it = &st.plan.items[idx];
                let ids = it.samples[done as usize..(done + take) as usize].to_vec();
                st.items[idx].dispatched += take;
                st.total_dispatched += take as usize;
                left -= take as usize;
                taken.push((it.nid, it.offset, it.len, ids));
            }
        }
        // 2. One dense request per storage node touched by the batch. The
        //    target is charged what the client no longer pays: block
        //    verification and frame decode, per extent, on its compute
        //    pool.
        let costs = self.shared.cfg.costs.clone();
        let verify = self
            .shared
            .redundancy
            .as_deref()
            .is_some_and(|r| r.verify());
        let mut per_node: BTreeMap<u16, (Vec<OffloadExtent>, u64)> = BTreeMap::new();
        for (nid, offset, len, ids) in &taken {
            let (slba, nblocks, _) = self.read_geometry(*nid, *offset, *len);
            let raw_len = match self.shared.codec.as_deref() {
                Some(t) => {
                    let chunk = self.shared.cfg.chunk_size;
                    let f = t.per_node[*nid as usize].frame_of(chunk, *offset);
                    t.per_node[*nid as usize].raw_len(chunk, f) as u64
                }
                None => *len,
            };
            let mut compute = Dur::ZERO;
            if verify {
                compute += costs.verify_block * nblocks as u64;
            }
            if self.shared.codec.is_some() {
                compute += costs.decode(raw_len);
            }
            let slot = per_node.entry(*nid).or_default();
            slot.0.push(OffloadExtent {
                slba,
                nblocks,
                compute,
            });
            slot.1 += ids
                .iter()
                .map(|&id| self.shared.dir.entry(id).len())
                .sum::<u64>();
        }
        // 3. Timing: one request/process/respond exchange per node, all
        //    concurrent; this reader parks until the last dense response
        //    lands.
        let mut done_at = rt.now();
        for (nid, (extents, payload)) in &per_node {
            let t = self.shared.targets[*nid as usize].reserve_offload(rt.now(), extents, *payload);
            done_at = done_at.max(t);
            self.tel.of_requests.inc();
            self.tel.of_wire_bytes.add(
                CAPSULE_BYTES + extents.len() as u64 * DESCRIPTOR_BYTES + payload + RESPONSE_BYTES,
            );
        }
        // 4. Functional bytes: read + verify (failover / read-repair) +
        //    decode each stored frame, then slice out the samples.
        let mut out = Vec::with_capacity(want);
        for (nid, offset, len, ids) in &taken {
            let (raw, base) = match self.offload_item_bytes(*nid, *offset, *len) {
                Ok(v) => v,
                Err(e) => {
                    // A frame no replica can serve: the plan can no longer
                    // complete (same sticky semantics as the engine path).
                    self.failed = Some(e.clone());
                    return Err(e);
                }
            };
            for &id in ids {
                let entry = self.shared.dir.entry(id);
                let at = (entry.offset() - base) as usize;
                out.push((id, raw[at..at + entry.len() as usize].to_vec()));
                self.tel.samples_delivered.inc();
                self.tel.bytes_delivered.add(entry.len());
                self.tel.of_samples.inc();
            }
        }
        self.advance_to(rt, done_at);
        Ok(out)
    }

    /// Read one plan item's stored range for the offload path — verified
    /// against the integrity tables with replica failover and read-repair
    /// (all *before* decode, covering the stored encoded bytes), then
    /// decoded. Returns the raw bytes and the node byte offset they start
    /// at. Purely functional: the time was already charged by
    /// `reserve_offload` (extent reads + target-side verify/decode).
    fn offload_item_bytes(
        &mut self,
        nid: u16,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<u8>, u64), DlfsError> {
        let (slba, nblocks, _) = self.read_geometry(nid, offset, len);
        let red = self.shared.redundancy.clone();
        let replicas = red.as_deref().map(|r| r.replicas).unwrap_or(1);
        let mut data = vec![0u8; nblocks as usize * BLOCK_SIZE as usize];
        let mut attempt = 0u32;
        loop {
            let (serving, s_slba) = match red.as_deref() {
                Some(r) if r.replicas > 1 => r.route(nid, attempt, slba),
                _ => (nid, slba),
            };
            self.shared.targets[serving as usize].dma_read(s_slba, &mut data);
            let ok = match red.as_deref().filter(|r| r.verify()) {
                Some(r) => {
                    self.tel.iv_verified.add(nblocks as u64);
                    r.verify_blocks(nid, slba, &data)
                }
                None => true,
            };
            if ok {
                if attempt > 0 {
                    // A replica served after the home copy failed
                    // verification: read-repair the home extent.
                    self.shared.targets[nid as usize].dma_write(slba, &data);
                    self.tel.iv_repairs.inc();
                }
                break;
            }
            self.tel.iv_mismatches.inc();
            attempt += 1;
            if attempt >= replicas {
                return Err(DlfsError::Corrupt {
                    chunk: slba * BLOCK_SIZE,
                    tried: attempt,
                    cause: CorruptCause::Checksum,
                });
            }
            self.tel.iv_failovers.inc();
        }
        let mut base = slba * BLOCK_SIZE;
        if let Some(tables) = self.shared.codec.as_deref() {
            let chunk = self.shared.cfg.chunk_size;
            let frames = &tables.per_node[nid as usize];
            let f = frames.frame_of(chunk, offset);
            let enc_len = frames.lens[f] as usize;
            let raw_len = frames.raw_len(chunk, f);
            self.tel.codec_bytes_in.add(enc_len as u64);
            self.tel.codec_bytes_out.add(raw_len as u64);
            if enc_len == raw_len {
                data.truncate(raw_len);
            } else {
                data = tables.kind.codec().decode(&data[..enc_len], raw_len);
            }
            base = frames.base + f as u64 * chunk;
        }
        Ok((data, base))
    }

    /// Earliest instant at which the engine can make progress again: a
    /// device completion or a delayed retry becoming due.
    fn next_engine_event(&self) -> Option<Time> {
        // The completion clock already holds the earliest instant across
        // every qpair (validated lazily against the authoritative per-qpair
        // state), so this is one heap peek instead of a scan.
        let next_dev = self
            .clock
            .next_due(|tag| self.qpairs[tag].next_completion_at());
        let next_retry = self
            .epoch
            .as_ref()
            .and_then(|st| st.delayed_parts.peek())
            .map(|Reverse((t, ..))| *t);
        // A pending hedge is an engine event too: the reactor must wake at
        // its due instant, not sleep through to the (slow) primary.
        let next_hedge = if self.shared.cfg.hedge_reads {
            self.hedge_due.peek().map(|Reverse((t, _))| *t)
        } else {
            None
        };
        [next_dev, next_retry, next_hedge]
            .into_iter()
            .flatten()
            .min()
    }

    /// Advance the calling thread to `t`, the next engine event. Counted
    /// as a reactor wakeup. While any qpair has commands in flight this is
    /// hot-polling (busy CPU, exactly as before); with *nothing* in flight
    /// anywhere — a pure retry-backoff wait — the reactor parks the thread
    /// instead (idle). Virtual time advances identically either way; only
    /// the busy/idle ledger differs, and a parked wait can never coincide
    /// with in-flight commands by construction.
    fn advance_to(&mut self, rt: &Runtime, t: Time) {
        let now = rt.now();
        if t <= now {
            return;
        }
        self.rstats.wakeups.inc();
        if self.qpairs.iter().all(|q| q.outstanding() == 0) {
            // Nothing in flight: the reactor parks. Spend the idle gap on a
            // slice of background scrubbing first (untimed bookkeeping — it
            // models a housekeeping thread, not reactor CPU).
            if self.shared.cfg.scrub {
                self.scrub_blocks(SCRUB_GAP_BLOCKS);
            }
            if self.rebuild.is_some() {
                let gap = self.shared.cfg.rebuild_gap_blocks;
                self.rebuild_blocks(gap);
            }
            self.rstats.park(t - now);
            rt.sleep_until(t);
        } else {
            rt.work_until(t);
        }
    }

    /// Walk `budget` data blocks of the scrub cursor, verifying each block
    /// against the integrity tables (and probing for latent media faults),
    /// repairing bad blocks from the first healthy replica. Returns the
    /// number of blocks scrubbed. No-op without checksums.
    fn scrub_blocks(&mut self, budget: u64) -> u64 {
        let Some(red) = self.shared.redundancy.clone() else {
            return 0;
        };
        if !red.verify() {
            return 0;
        }
        let nodes = self.shared.targets.len();
        let mut scrubbed = 0u64;
        let mut hops = 0usize;
        let mut left = budget;
        while left > 0 && hops <= nodes {
            let (n, blk) = self.scrub_cursor;
            let total = red.data_blocks(n as u16);
            if blk >= total {
                self.scrub_cursor = ((n + 1) % nodes, 0);
                hops += 1;
                continue;
            }
            let run = left.min(total - blk);
            let base_blk = red.slots[n].0 / BLOCK_SIZE + blk;
            let mut data = vec![0u8; (run * BLOCK_SIZE) as usize];
            self.shared.targets[n].dma_read(base_blk, &mut data);
            for i in 0..run {
                let slba = base_blk + i;
                let span = &data[(i * BLOCK_SIZE) as usize..][..BLOCK_SIZE as usize];
                let good = red.verify_blocks(n as u16, slba, span)
                    && !self.shared.targets[n].probe_extent(slba, 1);
                if !good {
                    self.scrub_repair(&red, n, slba);
                }
            }
            scrubbed += run;
            left -= run;
            self.scrub_cursor = (n, blk + run);
        }
        self.tel.iv_scrubbed.add(scrubbed);
        scrubbed
    }

    /// Rewrite one bad home block from the first replica whose copy
    /// verifies. Unrepairable blocks (no healthy copy) are left for the
    /// read path to surface as [`DlfsError::Corrupt`].
    fn scrub_repair(&mut self, red: &Redundancy, n: usize, slba: u64) {
        for r in 1..red.replicas {
            let (peer, pslba) = red.route(n as u16, r, slba);
            let src = &self.shared.targets[peer as usize];
            if src.probe_extent(pslba, 1) {
                continue;
            }
            let mut blk = vec![0u8; BLOCK_SIZE as usize];
            src.dma_read(pslba, &mut blk);
            if !red.verify_blocks(n as u16, slba, &blk) {
                continue;
            }
            self.shared.targets[n].dma_write(slba, &blk);
            self.tel.iv_repairs.inc();
            return;
        }
    }

    /// One full background-scrub sweep over every node's data region:
    /// verify every covered block and repair what a healthy replica can
    /// provide. Returns the number of blocks scrubbed. Exposed for tests
    /// and the fsck/CI tooling; the engine otherwise scrubs incrementally
    /// during idle reactor gaps (config `scrub`).
    pub fn scrub_pass(&mut self) -> u64 {
        let Some(red) = self.shared.redundancy.as_deref() else {
            return 0;
        };
        let total: u64 = (0..self.shared.targets.len())
            .map(|n| red.data_blocks(n as u16))
            .sum();
        if total == 0 {
            return 0;
        }
        self.scrub_cursor = (0, 0);
        self.scrub_blocks(total)
    }

    /// Start automated re-replication of storage node `node` after a
    /// permanent loss: enumerate every replica slot the node hosted
    /// ([`RebuildPlan::for_dead_node`]) and copy each block back from a
    /// surviving verified replica, `rebuild_gap_blocks` per idle reactor
    /// gap (call [`DlfsIo::drive_rebuild`] to finish synchronously). The
    /// replacement device — the revived node, or a fresh one mounted under
    /// the same index — must be attached and serving writes first. Returns
    /// the total blocks to rebuild. A rebuild needs surviving copies to
    /// read from (`replicas >= 2`) and a membership view to rejoin the
    /// node into afterwards — asking for one on an instance missing either
    /// is a typed configuration error, not a silent no-op.
    pub fn begin_rebuild(&mut self, node: u16) -> Result<u64, DlfsError> {
        let Some(red) = self.shared.redundancy.as_deref() else {
            return Err(DlfsError::Config(
                "rebuild requires redundancy: configure replicas >= 2 and a \
                 membership policy (fail_dead_after)"
                    .into(),
            ));
        };
        if red.replicas < 2 {
            return Err(DlfsError::Config(format!(
                "rebuild of storage node {node} requires replicas >= 2 (have \
                 {}): a lone copy has no surviving source to rebuild from",
                red.replicas
            )));
        }
        if red.membership.is_none() {
            return Err(DlfsError::Config(format!(
                "rebuild of storage node {node} requires a membership policy: \
                 set fail_dead_after so the rebuilt node can be declared Dead \
                 and rejoined"
            )));
        }
        let blocks_of: Vec<u64> = (0..self.shared.targets.len())
            .map(|h| match self.shared.layouts.as_deref() {
                Some(l) => l[h].data_bytes.div_ceil(BLOCK_SIZE),
                None => red.data_blocks(h as u16),
            })
            .collect();
        let plan = RebuildPlan::for_dead_node(red, node, &blocks_of);
        let total = plan.total_blocks;
        self.tel.rb_at_risk.set(self.chunks_at_risk(total) as i64);
        self.rebuild = Some(RebuildState {
            plan,
            ext: 0,
            blk: 0,
            walked: 0,
            failed: 0,
        });
        Ok(total)
    }

    /// Is a node rebuild still in flight?
    pub fn rebuild_active(&self) -> bool {
        self.rebuild.is_some()
    }

    /// Blocks the in-flight rebuild has not walked yet (0 when idle).
    pub fn rebuild_remaining(&self) -> u64 {
        self.rebuild
            .as_ref()
            .map(|r| r.plan.total_blocks - r.walked)
            .unwrap_or(0)
    }

    /// Walk up to `budget` blocks of the in-flight rebuild — the same
    /// slice the engine takes per idle reactor gap, exposed so tests and
    /// the `ext_rebuild` bench can interleave rebuild progress with
    /// foreground work (or mid-rebuild faults) at a controlled pace.
    pub fn rebuild_step(&mut self, budget: u64) -> u64 {
        self.rebuild_blocks(budget)
    }

    /// Run the in-flight rebuild to completion in one call (tests, the
    /// `ext_rebuild` bench, and operators who want redundancy back *now*
    /// rather than trickled through idle gaps). Returns blocks walked.
    pub fn drive_rebuild(&mut self) -> u64 {
        let mut done = 0;
        while self.rebuild.is_some() {
            done += self.rebuild_blocks(u64::MAX);
        }
        done
    }

    /// Chunks not yet at full redundancy when `blocks` blocks are missing.
    fn chunks_at_risk(&self, blocks: u64) -> u64 {
        let per_chunk = (self.shared.cfg.chunk_size / BLOCK_SIZE).max(1);
        blocks.div_ceil(per_chunk)
    }

    /// Walk up to `budget` blocks of the in-flight rebuild: verify what
    /// the replacement device already holds (a restarted node keeps its
    /// media — catch-up resync skips clean blocks), copy the rest from the
    /// first surviving replica whose bytes verify, and finish with the
    /// on-device layout restore + membership rejoin once the plan is
    /// exhausted. Untimed bookkeeping, same as the scrubber: it models a
    /// housekeeping thread running in reactor idle gaps, not reactor CPU.
    fn rebuild_blocks(&mut self, budget: u64) -> u64 {
        let Some(red) = self.shared.redundancy.clone() else {
            self.rebuild = None;
            return 0;
        };
        let Some(mut rb) = self.rebuild.take() else {
            return 0;
        };
        let mut left = budget;
        let mut walked = 0u64;
        while left > 0 {
            let Some(ext) = rb.plan.extents.get(rb.ext).copied() else {
                break;
            };
            if rb.blk >= ext.blocks {
                rb.ext += 1;
                rb.blk = 0;
                continue;
            }
            let run = left.min(ext.blocks - rb.blk).min(128);
            let home_base_blk = red.slots[ext.home as usize].0 / BLOCK_SIZE;
            for i in 0..run {
                let home_blk = home_base_blk + rb.blk + i;
                let (dt, dslba) = red.route(ext.home, ext.slot_r, home_blk);
                debug_assert_eq!(dt, rb.plan.node);
                let dest = self.shared.targets[dt as usize].clone();
                if red.verify() {
                    let mut have = vec![0u8; BLOCK_SIZE as usize];
                    dest.dma_read(dslba, &mut have);
                    if red.verify_blocks(ext.home, home_blk, &have) && !dest.probe_extent(dslba, 1)
                    {
                        self.tel.rb_clean.inc();
                        continue;
                    }
                }
                let mut copied = false;
                for s in rb.plan.sources(&ext, &red) {
                    let (st, sslba) = red.route(ext.home, s, home_blk);
                    if st == rb.plan.node || red.is_dead(st as usize) {
                        continue;
                    }
                    let src = &self.shared.targets[st as usize];
                    if src.probe_extent(sslba, 1) {
                        continue;
                    }
                    let mut blk = vec![0u8; BLOCK_SIZE as usize];
                    src.dma_read(sslba, &mut blk);
                    if !red.verify_blocks(ext.home, home_blk, &blk) {
                        continue;
                    }
                    dest.dma_write(dslba, &blk);
                    copied = true;
                    break;
                }
                if copied {
                    self.tel.rb_blocks.inc();
                } else {
                    rb.failed += 1;
                    self.tel.rb_failed.inc();
                }
            }
            rb.blk += run;
            rb.walked += run;
            walked += run;
            left -= run;
        }
        while rb
            .plan
            .extents
            .get(rb.ext)
            .is_some_and(|e| rb.blk >= e.blocks)
        {
            rb.ext += 1;
            rb.blk = 0;
        }
        let remaining = rb.plan.total_blocks - rb.walked;
        self.tel
            .rb_at_risk
            .set(self.chunks_at_risk(remaining + rb.failed) as i64);
        if rb.ext >= rb.plan.extents.len() {
            self.rebuild_finish(&red, rb.plan.node, rb.failed);
        } else {
            self.rebuild = Some(rb);
        }
        walked
    }

    /// Final pass of a completed rebuild: on persistent instances, restore
    /// the replacement device's metadata region (reconstructed from the
    /// sample directory, payload checksums re-hashed from the rebuilt
    /// bytes), integrity table, and committed superblock — a fresh device
    /// comes out `fsck`-clean, indistinguishable from the import, except
    /// for the checkpoint region, whose stream died with the old node (the
    /// fsck checkpoint walk treats the zeroed region as an empty stream).
    /// Only a fully successful rebuild rejoins the node into the
    /// membership view; failed blocks leave it Dead for another attempt.
    fn rebuild_finish(&mut self, red: &Redundancy, node: u16, failed: u64) {
        if let Some(layouts) = self.shared.layouts.clone() {
            let dest = self.shared.targets[node as usize].clone();
            let mut sb = layouts[node as usize].clone();
            let mut records = Vec::with_capacity(sb.node_samples as usize);
            for &id in self.shared.dir.samples_on(node) {
                let e = self.shared.dir.entry(id);
                let (unit1, unit2) = e.raw();
                records.push(MetaRecord {
                    id,
                    unit1,
                    unit2,
                    payload_checksum: fnv1a(&self.read_back(&dest, e.offset(), e.len())),
                });
            }
            let meta = encode_meta(&records);
            debug_assert_eq!(meta.len() as u64, sb.meta_bytes);
            if !meta.is_empty() {
                dest.dma_write(sb.meta_base / BLOCK_SIZE, &meta);
            }
            if sb.integrity_bytes > 0 {
                let enc = encode_integrity(&red.sums[node as usize]);
                debug_assert_eq!(enc.len() as u64, sb.integrity_bytes);
                dest.dma_write(sb.integrity_base / BLOCK_SIZE, &enc);
            }
            if sb.codec_table_bytes > 0 {
                if let Some(tables) = self.shared.codec.as_deref() {
                    // Restore the per-frame encoded-length table; the data
                    // blocks were copied back verbatim (stored/encoded
                    // bytes), so the table written at import still
                    // describes them exactly.
                    let table = encode_codec_table(&tables.per_node[node as usize].lens);
                    debug_assert_eq!(table.len() as u64, sb.codec_table_bytes);
                    dest.dma_write(sb.codec_base() / BLOCK_SIZE, &table);
                }
            }
            sb.meta_checksum = fnv1a(&meta);
            sb.committed = true;
            dest.dma_write(0, &sb.encode());
        }
        if failed == 0 {
            // `begin_rebuild` refuses to start without a membership policy,
            // so the rejoin cannot fail here.
            let r = red.rejoin(node as usize);
            debug_assert!(r.is_ok(), "rebuild ran without membership");
        }
        self.tel.rb_completed.inc();
        self.tel.rb_at_risk.set(self.chunks_at_risk(failed) as i64);
    }

    /// Read `len` bytes at absolute device byte offset `off` (block math
    /// for the payload re-hash of [`DlfsIo::rebuild_finish`]).
    fn read_back(&self, dev: &Arc<dyn NvmeTarget>, off: u64, len: u64) -> Vec<u8> {
        let first = off / BLOCK_SIZE;
        let end = (off + len).div_ceil(BLOCK_SIZE);
        let mut buf = vec![0u8; ((end - first) * BLOCK_SIZE) as usize];
        dev.dma_read(first, &mut buf);
        let at = (off - first * BLOCK_SIZE) as usize;
        buf[at..at + len as usize].to_vec()
    }

    /// The zero-copy engine loop: prep → post → poll, then pin + hand out
    /// references (no copy stage).
    fn run_zero_copy(
        &mut self,
        rt: &Runtime,
        want: usize,
        req: &ReadRequest,
    ) -> Result<Vec<ZeroCopySample>, DlfsError> {
        let costs = self.shared.cfg.costs.clone();
        let mut out: Vec<ZeroCopySample> = Vec::with_capacity(want);
        // One cache pin per fetch item, shared by every sample delivered
        // from it in this call (an `Arc` clone per sample instead of a
        // buffer-list clone per sample). Pin counts still balance: each
        // guard releases the one pin it took when its last sample drops.
        let mut item_pins: HashMap<u32, Arc<PinGuard>> = HashMap::new();
        while out.len() < want {
            if let Some(e) = &self.failed {
                // Zero-copy delivery has nothing in the copy pool to drain.
                return Err(e.clone());
            }
            if req.deadline.is_some_and(|dl| rt.now() >= dl) {
                // Zero-copy delivery is immediate, so past the deadline
                // there is nothing left to drain: return short.
                break;
            }
            let mut progress = 0;
            progress += self.pump(rt);
            progress += self.poll(rt);
            // Deliver directly from resident items.
            loop {
                if out.len() >= want {
                    break;
                }
                let (idx, sample) = {
                    let st = self.epoch.as_mut().expect("no epoch");
                    if st.resident_ready.is_empty() {
                        break;
                    }
                    let pick = st.rng.below(st.resident_ready.len() as u64) as usize;
                    let idx = st.resident_ready[pick];
                    let item = &mut st.items[idx as usize];
                    let sample = st.plan.items[idx as usize].samples[item.dispatched as usize];
                    item.dispatched += 1;
                    if item.dispatched == item.samples_total {
                        st.resident_ready.swap_remove(pick);
                    }
                    st.total_dispatched += 1;
                    (idx, sample)
                };
                let entry = self.shared.dir.entry(sample);
                let (key, segments) = {
                    let st = self.epoch.as_ref().expect("no epoch");
                    let it = &st.plan.items[idx as usize];
                    (
                        self.shared.rkey(it.nid, it.offset),
                        segments_for(
                            it,
                            st.items[idx as usize].base,
                            &st.bufs[&idx],
                            self.shared.cfg.chunk_size as usize,
                            entry,
                        ),
                    )
                };
                // Pin the range for the samples' lifetime; no memcpy.
                let pin = match item_pins.get(&idx) {
                    Some(guard) => Pin::Shared(guard.clone()),
                    None => {
                        let (gen, _, _) = self
                            .shared
                            .cache
                            .pin_key(key)
                            .expect("resident range pinnable");
                        let guard = PinGuard::new(self.shared.cache.clone(), key, gen);
                        item_pins.insert(idx, guard.clone());
                        Pin::Shared(guard)
                    }
                };
                rt.work(costs.frontend_per_sample);
                self.tel.cache_pins.inc();
                self.tel.samples_delivered.inc();
                self.tel.bytes_delivered.add(entry.len());
                out.push(ZeroCopySample::new(sample, segments, pin));
                self.account_delivery(idx);
                progress += 1;
            }
            if out.len() >= want {
                break;
            }
            if progress == 0 {
                if !req.inject_compute.is_zero() {
                    rt.work(req.inject_compute);
                    continue;
                }
                match self.next_engine_event() {
                    Some(t) => self.advance_to(rt, t),
                    None => panic!(
                        "dlfs zero-copy submit stalled (reader {})",
                        self.shared.reader_id
                    ),
                }
            }
        }
        Ok(out)
    }

    /// `dlfs_read` by name: synchronous single-sample read (the DLFS-Base
    /// configuration of Fig. 6). Checks the V field, then fetches the
    /// sample's covering blocks and waits for completion.
    pub fn read(&mut self, rt: &Runtime, name: &str) -> Result<Vec<u8>, DlfsError> {
        let costs = self.shared.cfg.costs.clone();
        let (id, entry) = self
            .shared
            .dir
            .lookup(rt, &costs, name)
            .ok_or_else(|| DlfsError::NotFound(name.to_string()))?;
        self.read_entry(rt, id, entry, None)
    }

    /// `dlfs_read` by sample id (no name lookup).
    pub fn read_by_id(&mut self, rt: &Runtime, id: u32) -> Result<Vec<u8>, DlfsError> {
        self.read_by_id_opt(rt, id, None)
    }

    /// [`DlfsIo::read_by_id`] with a deadline: cache-pressure backoff
    /// never waits past it (the read surfaces
    /// [`DlfsError::CacheExhausted`] instead).
    pub fn read_by_id_before(
        &mut self,
        rt: &Runtime,
        id: u32,
        deadline: Time,
    ) -> Result<Vec<u8>, DlfsError> {
        self.read_by_id_opt(rt, id, Some(deadline))
    }

    fn read_by_id_opt(
        &mut self,
        rt: &Runtime,
        id: u32,
        deadline: Option<Time>,
    ) -> Result<Vec<u8>, DlfsError> {
        if id as usize >= self.shared.dir.len() {
            return Err(DlfsError::BadSampleId(id));
        }
        let entry = self.shared.dir.entry(id);
        self.read_entry(rt, id, entry, deadline)
    }

    /// `dlfs_read` by sample id, zero-copy: the returned sample references
    /// pinned sample-cache chunks directly. On a warm cache this path does
    /// no memcpy and no heap allocation — the segment list stays inline
    /// and the pin is embedded in the sample. The chunks return to the
    /// pool (or the cross-epoch LRU tail) when the sample drops.
    pub fn read_zero_copy(&mut self, rt: &Runtime, id: u32) -> Result<ZeroCopySample, DlfsError> {
        if id as usize >= self.shared.dir.len() {
            return Err(DlfsError::BadSampleId(id));
        }
        let entry = self.shared.dir.entry(id);
        self.read_entry_zero_copy(rt, id, entry)
    }

    /// Submit every due (re)submission of the synchronous read path, lowest
    /// part first, stopping at qpair backpressure (QueueFull). Each entry
    /// is routed through the replica map (health-aware) when the instance
    /// is redundant.
    #[allow(clippy::too_many_arguments)]
    fn sync_submit_due(
        &mut self,
        rt: &Runtime,
        nid: usize,
        target_nid: u16,
        slba: u64,
        nblocks: u32,
        blocks_per_chunk: u32,
        bufs: &[DmaBuf],
        waiting: &mut Vec<(u32, u32, Time, u32)>,
        part_of: &mut HashMap<u64, (u32, u32, u32)>,
    ) {
        let costs = self.shared.cfg.costs.clone();
        loop {
            let now = rt.now();
            let Some(i) = waiting.iter().position(|&(_, _, nb, _)| nb <= now) else {
                break;
            };
            let (p, attempt, _, replica) = waiting[i];
            let start = p * blocks_per_chunk;
            let nb = (nblocks - start).min(blocks_per_chunk);
            let (r, dev, dev_slba) = match self.shared.redundancy.as_deref() {
                Some(red) if red.replicas > 1 => {
                    let r = red.pick_replica(target_nid, replica, rt.now());
                    let (d, s) = red.route(target_nid, r, slba + start as u64);
                    (r, d as usize, s)
                }
                _ => (0, nid, slba + start as u64),
            };
            let t0 = rt.now();
            rt.work(costs.prep_request);
            let t1 = rt.now();
            rt.work(costs.post_request);
            let cmd = self.next_cmd;
            match self.qpairs[dev].submit_read(rt, cmd, dev_slba, nb, bufs[p as usize].clone(), 0) {
                Ok(()) => {
                    self.next_cmd += 1;
                    self.tel.requests_posted.inc();
                    self.tel.prep_ns.record_dur(t1 - t0);
                    self.tel.post_ns.record_dur(rt.now() - t1);
                    part_of.insert(cmd, (p, attempt, r));
                    waiting.remove(i);
                }
                Err(_) => break, // queue full: poll completions, then retry
            }
        }
    }

    /// Serve `entry` out of the resident range `key`, whose buffers start
    /// at byte `base`, if the cache holds it.
    fn read_pinned(
        &mut self,
        rt: &Runtime,
        entry: SampleEntry,
        key: RangeKey,
        base: u64,
    ) -> Option<Vec<u8>> {
        let costs = self.shared.cfg.costs.clone();
        let pinned = self.shared.cache.pin(key)?;
        debug_assert!(
            entry.offset() + entry.len() <= key.1 + pinned.len,
            "a resident range is its samples' whole extent"
        );
        self.tel.cache_hits.inc();
        self.tel.cache_pins.inc();
        if pinned.prefetched {
            self.tel.prefetch_hits.inc();
        }
        let chunk = self.shared.cfg.chunk_size as usize;
        let within = (entry.offset() - base) as usize;
        let segments = segments_at(&pinned.bufs, chunk, within, entry.len() as usize);
        let (done_tx, done_rx) = rt.channel::<CopyDone>(None);
        let t_copy = rt.now();
        rt.work(costs.copy_dispatch);
        self.shared.copy.submit(CopyJob {
            tag: 0,
            sample: 0,
            segments,
            done: done_tx,
        });
        let done = done_rx.recv().expect("copy pool alive");
        let _ = self.shared.cache.unpin(key, pinned.gen);
        self.tel.samples_delivered.inc();
        self.tel.bytes_delivered.add(done.data.len() as u64);
        self.tel.copy_ns.record_dur(rt.now() - t_copy);
        Some(done.data)
    }

    /// Synchronously fetch `nblocks` device blocks starting at `slba` from
    /// qpair `nid` into freshly allocated sample-cache chunks.
    ///
    /// Submits every part, then polls the qpair until they all drain —
    /// harvesting (and routing) any batched-engine or prefetcher strays
    /// that complete meanwhile — resubmitting failed commands under the
    /// shared retry policy. On retry exhaustion the buffers go back to the
    /// pool and the error names `target_nid`.
    fn fetch_range(
        &mut self,
        rt: &Runtime,
        nid: usize,
        target_nid: u16,
        slba: u64,
        nblocks: u32,
        deadline: Option<Time>,
    ) -> Result<Vec<DmaBuf>, DlfsError> {
        let costs = self.shared.cfg.costs.clone();
        // Under a codec `nblocks` is the encoded prefix of one stored
        // frame; the allocation must still cover the frame's raw extent so
        // the caller can decode it in place.
        let bytes = self
            .coded_geometry(target_nid, slba * BLOCK_SIZE)
            .map(|(_, _, alloc)| alloc)
            .unwrap_or(nblocks as u64 * BLOCK_SIZE);
        // Bugfix (satellite): a momentarily full pool used to surface
        // `CacheExhausted` immediately, while the batched path parks and
        // retries after releases. Wait under the shared retry policy —
        // bounded, deadline-clamped exponential backoff in virtual time —
        // before giving up.
        let retry = self.shared.cfg.retry;
        let mut alloc_failures = 0u32;
        let bufs = loop {
            if let Some(b) = self.shared.cache.alloc_for(bytes) {
                break b;
            }
            alloc_failures += 1;
            let Some(backoff) = retry.next_delay_before(alloc_failures, rt.now(), deadline) else {
                return Err(DlfsError::CacheExhausted);
            };
            // Busy-wait (virtual CPU time): another thread's release or a
            // dropped zero-copy sample may free chunks meanwhile.
            rt.work(backoff);
        };
        // prep + post each part; backpressure (a full qpair) and device
        // failures park the part in `waiting` for a later submission pass.
        let blocks_per_chunk = (self.shared.cfg.chunk_size / BLOCK_SIZE) as u32;
        let red = self.shared.redundancy.clone();
        // Devices that may serve this range (home + replicas): the poll
        // loop below must harvest all of them once reads fail over.
        let devs: Vec<usize> = match red.as_deref() {
            Some(r) if r.replicas > 1 => (0..r.replicas)
                .map(|i| r.route(target_nid, i, slba).0 as usize)
                .collect(),
            _ => vec![nid],
        };
        // Parts to (re)submit: (part, failed attempts so far, not before,
        // preferred replica).
        let mut waiting: Vec<(u32, u32, Time, u32)> = (0..bufs.len() as u32)
            .map(|p| (p, 0, Time::ZERO, 0))
            .collect();
        let mut part_of: HashMap<u64, (u32, u32, u32)> = HashMap::new();
        let mut mismatched_parts: HashSet<u32> = HashSet::new();
        let mut left = bufs.len();
        let mut fatal: Option<DlfsError> = None;
        self.sync_submit_due(
            rt,
            nid,
            target_nid,
            slba,
            nblocks,
            blocks_per_chunk,
            &bufs,
            &mut waiting,
            &mut part_of,
        );
        // Poll until all parts complete, resubmitting failed commands under
        // the retry policy. On exhaustion, keep polling until our in-flight
        // commands drain (SPDK cannot cancel a submitted command) before
        // surfacing the error. Empty polls advance straight to the next
        // known event (device completion or retry deadline) instead of
        // spinning toward it.
        let t_poll = rt.now();
        while (left > 0 && fatal.is_none()) || !part_of.is_empty() {
            if fatal.is_none() {
                self.sync_submit_due(
                    rt,
                    nid,
                    target_nid,
                    slba,
                    nblocks,
                    blocks_per_chunk,
                    &bufs,
                    &mut waiting,
                    &mut part_of,
                );
            }
            rt.work(costs.poll_iteration);
            self.tel.poll_spins.inc();
            let mut comps = Vec::new();
            for &d in &devs {
                comps.extend(self.qpairs[d].process_completions(rt, usize::MAX));
            }
            if comps.is_empty() {
                self.tel.scq_empty_polls.inc();
                let next_dev = devs
                    .iter()
                    .filter_map(|&d| self.qpairs[d].next_completion_at())
                    .min();
                let next_retry = waiting.iter().map(|&(_, _, nb, _)| nb).min();
                let next = match (next_dev, next_retry) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, None) => a,
                    (None, b) => b,
                };
                if let Some(t) = next {
                    self.advance_to(rt, t);
                }
            } else {
                self.tel.scq_drains.inc();
                self.tel.scq_drain_batch.record(comps.len() as u64);
                for c in &comps {
                    rt.work(costs.per_completion);
                    self.tel.completions.inc();
                    let Some((p, attempt, replica)) = part_of.remove(&c.id) else {
                        // Not ours: the batched engine (and its
                        // prefetcher) share these qpairs and their
                        // in-flight commands complete here too —
                        // including failed ones, which must be re-queued
                        // for retry, not merely routed.
                        match self.inflight.remove(&c.id) {
                            Some((idx, part, att, rep)) => {
                                self.engine_complete(rt, c.id, idx, part, att, rep, c.status);
                            }
                            None => self.prefetch_complete(rt, c.id, c.status),
                        }
                        continue;
                    };
                    let start = p * blocks_per_chunk;
                    let nb = (nblocks - start).min(blocks_per_chunk);
                    let serving = red
                        .as_deref()
                        .map(|r| r.route(target_nid, replica, slba + start as u64).0)
                        .unwrap_or(target_nid);
                    // Verify before the bytes can reach the caller (and,
                    // on the cross-epoch path, the sample cache).
                    let mut verify_failed = false;
                    if c.status.is_ok() {
                        if let Some(red) = red.as_deref().filter(|r| r.verify()) {
                            rt.work(costs.verify_block * nb as u64);
                            self.tel.iv_verified.add(nb as u64);
                            let span = nb as usize * BLOCK_SIZE as usize;
                            let home_slba = slba + start as u64;
                            let ok = bufs[p as usize]
                                .with(|d| red.verify_blocks(target_nid, home_slba, &d[..span]));
                            if ok {
                                if replica > 0 && mismatched_parts.remove(&p) {
                                    // Read-repair the home extent from this
                                    // verified replica copy.
                                    let home = self.shared.targets[target_nid as usize].clone();
                                    bufs[p as usize]
                                        .with(|d| home.dma_write(home_slba, &d[..span]));
                                    self.tel.iv_repairs.inc();
                                }
                            } else {
                                self.tel.iv_mismatches.inc();
                                mismatched_parts.insert(p);
                                verify_failed = true;
                            }
                        }
                    }
                    if c.status.is_ok() && !verify_failed {
                        if let Some(red) = red.as_deref().filter(|r| r.replicas > 1) {
                            red.record_ok(serving as usize);
                        }
                        left -= 1;
                        continue;
                    }
                    if c.status == CmdStatus::TransportError {
                        self.tel.timeouts.inc();
                    }
                    if let Some(red) = red.as_deref().filter(|r| r.replicas > 1) {
                        red.record_failure(serving as usize, rt.now());
                    }
                    let failed_attempts = attempt + 1;
                    match retry.next_delay(failed_attempts) {
                        Some(backoff) => {
                            self.tel.retries.inc();
                            if red.as_deref().is_some_and(|r| r.replicas > 1) {
                                // Immediate failover to the next replica.
                                self.tel.iv_failovers.inc();
                                waiting.push((p, failed_attempts, rt.now(), replica + 1));
                            } else {
                                waiting.push((p, failed_attempts, rt.now() + backoff, replica));
                            }
                        }
                        None => {
                            fatal.get_or_insert(if mismatched_parts.contains(&p) {
                                DlfsError::Corrupt {
                                    chunk: (slba + start as u64) * BLOCK_SIZE,
                                    tried: failed_attempts,
                                    cause: if c.status.is_ok() {
                                        CorruptCause::Checksum
                                    } else {
                                        CorruptCause::Io(match c.status {
                                            CmdStatus::TransportError => IoFailure::Timeout,
                                            _ => IoFailure::Media,
                                        })
                                    },
                                }
                            } else {
                                DlfsError::Io {
                                    target: target_nid.into(),
                                    attempts: failed_attempts,
                                    cause: match c.status {
                                        CmdStatus::TransportError => IoFailure::Timeout,
                                        _ => IoFailure::Media,
                                    },
                                }
                            });
                            waiting.clear();
                        }
                    }
                }
            }
        }
        self.tel.poll_ns.record_dur(rt.now() - t_poll);
        if let Some(e) = fatal {
            for b in bufs {
                self.shared.cache.free_raw(b);
            }
            return Err(e);
        }
        Ok(bufs)
    }

    /// Geometry of a synchronous read of sample `id`: `(resident key, byte
    /// base of the resident buffers, (offset, len) a miss fetches)`. Key
    /// and base are those of the sample's canonical [`fetch_extent`] — the
    /// range the batched engine and the prefetcher publish — so a sync
    /// read pins what a batched epoch left resident, and the reverse. A
    /// miss fetches that same extent when the bytes outlive the call
    /// (cross-epoch residency) or the read unit is the stored frame anyway
    /// (codec); an epoch-scoped raw mount drops them straight after the
    /// read, so it fetches the sample's covering blocks alone.
    fn sync_geometry(&self, id: u32, entry: SampleEntry) -> (RangeKey, u64, (u64, u64)) {
        let cfg = &self.shared.cfg;
        let (nid, off, len) = fetch_extent(&self.shared.dir, cfg.chunk_size, self.mode, id);
        let base = self.read_geometry(nid, off, len).0 * BLOCK_SIZE;
        let miss = if cfg.cache_mode == CacheMode::CrossEpoch || self.shared.codec.is_some() {
            (off, len)
        } else {
            (entry.offset(), entry.len())
        };
        (self.shared.rkey(nid, off), base, miss)
    }

    fn read_entry(
        &mut self,
        rt: &Runtime,
        id: u32,
        entry: SampleEntry,
        deadline: Option<Time>,
    ) -> Result<Vec<u8>, DlfsError> {
        let costs = self.shared.cfg.costs.clone();
        // No batch deadline applies to engine retries harvested while this
        // synchronous read drains the shared qpairs.
        self.current_deadline = None;
        let cross = self.shared.cfg.cache_mode == CacheMode::CrossEpoch;
        let (key, base, (off, len)) = self.sync_geometry(id, entry);
        // Fast path (paper §III-C1): "we first check the sample entry and
        // return the data if the V field is on." Cross-epoch release clears
        // the V field, but the extent may still sit on the cache's LRU
        // tail, so that mode probes regardless.
        if entry.valid() || cross {
            if let Some(data) = self.read_pinned(rt, entry, key, base) {
                if cross {
                    self.tel.ce_hits.inc();
                }
                return Ok(data);
            }
        }
        self.tel.cache_misses.inc();
        if cross {
            self.tel.ce_misses.inc();
        }
        let nid = entry.nid();
        let (slba, nblocks, _) = self.read_geometry(nid, off, len);
        let head = (entry.offset() - slba * BLOCK_SIZE) as usize;
        let bufs = self.fetch_range(rt, nid as usize, nid, slba, nblocks, deadline)?;
        self.decode_frame(rt, nid, entry.offset(), &bufs);
        let chunk = self.shared.cfg.chunk_size as usize;
        // copy stage through the pool.
        let (done_tx, done_rx) = rt.channel::<CopyDone>(None);
        let segments = segments_at(&bufs, chunk, head, entry.len() as usize);
        let t_copy = rt.now();
        rt.work(costs.copy_dispatch);
        self.shared.copy.submit(CopyJob {
            tag: 0,
            sample: 0,
            segments,
            done: done_tx,
        });
        let done = done_rx.recv().expect("copy pool alive");
        self.tel.samples_delivered.inc();
        self.tel.bytes_delivered.add(done.data.len() as u64);
        self.tel.copy_ns.record_dur(rt.now() - t_copy);
        if cross && !self.shared.cache.contains(key) {
            // Park the fetched extent on the evictable LRU tail (unless the
            // batched engine published it while we polled), so later reads
            // of this sample — or its extent neighbors — skip the device.
            self.shared.cache.publish(key, bufs, len);
            self.shared.cache.release(key)?;
        } else {
            for b in bufs {
                self.shared.cache.free_raw(b);
            }
        }
        Ok(done.data)
    }

    /// Synchronous zero-copy read of one directory entry.
    ///
    /// Warm path: pin the sample's resident extent and hand out
    /// chunk-backed segments — no memcpy, no allocation. Miss path: fetch
    /// through [`DlfsIo::fetch_range`], publish the range into the cache,
    /// pin it, and release it so the pool reclaims it after the sample
    /// drops (cross-epoch mode parks it on the LRU tail instead).
    fn read_entry_zero_copy(
        &mut self,
        rt: &Runtime,
        id: u32,
        entry: SampleEntry,
    ) -> Result<ZeroCopySample, DlfsError> {
        // No batch deadline applies to engine retries harvested while this
        // synchronous read drains the shared qpairs.
        self.current_deadline = None;
        let cross = self.shared.cfg.cache_mode == CacheMode::CrossEpoch;
        let (key, base, (off, len)) = self.sync_geometry(id, entry);
        let nid = entry.nid();
        loop {
            if let Some((gen, _, prefetched)) = self.shared.cache.pin_key(key) {
                self.tel.cache_hits.inc();
                if prefetched {
                    self.tel.prefetch_hits.inc();
                }
                if cross {
                    self.tel.ce_hits.inc();
                }
                return Ok(self.finish_zero_copy(rt, id, entry, key, base, gen));
            }
            self.tel.cache_misses.inc();
            if cross {
                self.tel.ce_misses.inc();
            }
            // Same fetch geometry as the copied path, published under its
            // own start: the extent key — or, for the sample-only fetch of
            // an epoch-scoped raw mount, a range retired (invisible) the
            // moment it is pinned below.
            let fetched = self.shared.rkey(nid, off);
            let (slba, nblocks, _) = self.read_geometry(nid, off, len);
            let bufs = self.fetch_range(rt, nid as usize, nid, slba, nblocks, None)?;
            if self.shared.cache.contains(fetched) {
                // Published concurrently (batched engine or another
                // reader) while we polled: drop our fetch and pin the
                // resident copy on the next pass.
                for b in bufs {
                    self.shared.cache.free_raw(b);
                }
                continue;
            }
            self.decode_frame(rt, nid, entry.offset(), &bufs);
            // publish + pin + release run back to back with no virtual-time
            // advance between them, so no other participant can interleave:
            // the live-double-publish panic in `publish` cannot fire, and
            // the range cannot be evicted before we hold the pin.
            self.shared.cache.publish(fetched, bufs, len);
            let (gen, _, _) = self.shared.cache.pin_key(fetched).expect("just published");
            self.shared.cache.release(fetched)?;
            return Ok(self.finish_zero_copy(rt, id, entry, fetched, slba * BLOCK_SIZE, gen));
        }
    }

    /// Build the delivered sample from a pin already taken on `key` whose
    /// buffers start at byte `base`. Allocation-free: the segment list
    /// stays inline and the pin is embedded in the sample.
    fn finish_zero_copy(
        &mut self,
        rt: &Runtime,
        id: u32,
        entry: SampleEntry,
        key: RangeKey,
        base: u64,
        gen: u64,
    ) -> ZeroCopySample {
        let chunk = self.shared.cfg.chunk_size as usize;
        let within = (entry.offset() - base) as usize;
        let segments = self
            .shared
            .cache
            .with_resident(key, |bufs, _| {
                segments_at(bufs, chunk, within, entry.len() as usize)
            })
            .expect("pinned range is resident");
        rt.work(self.shared.cfg.costs.frontend_per_sample);
        self.tel.cache_pins.inc();
        self.tel.samples_delivered.inc();
        self.tel.bytes_delivered.add(entry.len());
        ZeroCopySample::new(
            id,
            segments,
            Pin::Own {
                cache: self.shared.cache.clone(),
                key,
                gen,
            },
        )
    }

    /// `dlfs_open`: name lookup through the sample directory (returns the
    /// sample id as the handle — DLFS handles are directory references).
    pub fn open(&mut self, rt: &Runtime, name: &str) -> Result<u32, DlfsError> {
        let costs = self.shared.cfg.costs.clone();
        self.shared
            .dir
            .lookup(rt, &costs, name)
            .map(|(id, _)| id)
            .ok_or_else(|| DlfsError::NotFound(name.to_string()))
    }

    /// `dlfs_close`: drop the handle (directory entries are immutable, so
    /// this is bookkeeping only).
    pub fn close(&mut self, _rt: &Runtime, _handle: u32) {}
}

/// Compute the copy segments of `entry` within an item's fetched buffers.
/// Nearly always one segment (two when the sample straddles a chunk
/// boundary), so the returned [`SegList`] stays inline and allocation-free.
fn segments_for(
    item: &FetchItem,
    base: u64,
    bufs: &[DmaBuf],
    chunk: usize,
    entry: SampleEntry,
) -> SegList {
    debug_assert_eq!(entry.nid(), item.nid);
    let within = (entry.offset() - base) as usize;
    segments_at(bufs, chunk, within, entry.len() as usize)
}

/// Slice `len` payload bytes starting at `pos` (relative to the buffers'
/// base) into chunk-bounded segments.
fn segments_at(bufs: &[DmaBuf], chunk: usize, mut pos: usize, mut remaining: usize) -> SegList {
    let mut segs = SegList::new();
    while remaining > 0 {
        let b = pos / chunk;
        let off = pos % chunk;
        let take = (chunk - off).min(remaining);
        segs.push(Segment {
            buf: bufs[b].clone(),
            offset: off,
            len: take,
        });
        pos += take;
        remaining -= take;
    }
    segs
}
