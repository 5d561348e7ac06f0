//! The DLFS I/O engine: the four-stage read pipeline (paper §III-C, Fig. 4)
//! driven by the calling I/O thread, with completions fanned out to the
//! copy-thread pool through the shared completion queue.
//!
//! * **prep** — turn the next fetch items of the epoch plan into SPDK
//!   requests with sample-cache chunks attached;
//! * **post** — submit to the per-device I/O qpair (bounded queue depth);
//! * **poll** — busy-poll the shared completion queue across all qpairs,
//!   and hand what completed with payload work to do — block checksums, a
//!   frame decode — to the copy threads (the *check* stage, `check.rs`);
//! * **copy** — hand completed samples to the copy threads, which move
//!   bytes from the sample cache into the application buffer.
//!
//! Every device read, whichever path issues it, is a *part* (one cache
//! chunk of one fetch) with one lifecycle, each step defined once:
//! [`part_span`] → `route_part` → `post_part` → harvest → `check_part` →
//! `settle_part`. The batched engine, its hedges, the prefetcher and the
//! synchronous reads are callers of those steps; they differ only in what
//! they queue, how they wait and whose thread pays for the check: the copy
//! pool's for engine parts and prefetches, the caller's for a synchronous
//! read (see DESIGN.md §3).
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

// The `pub(super)` items below move to child modules of this one in the
// next commit, where the mark means "visible to `io`" — what private means
// here. Until then it reaches the crate.
#![allow(private_interfaces)]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use blocksim::{covering_blocks, CmdStatus, Completion, DmaBuf, IoQPair, NvmeTarget, BLOCK_SIZE};
use simkit::chan::{Receiver, Sender};
use simkit::rng::SplitMix64;
use simkit::runtime::Runtime;
use simkit::telemetry::{Counter, Gauge, Histo, Registry, Snapshot};
use simkit::time::{Dur, Time};

use crate::cache::{CachedRange, RangeKey};
use crate::codec::Frame;
use crate::config::{BatchMode, CacheMode, DlfsConfig};
use crate::copy::{CopyDone, CopyJob, SegList, Segment};
use crate::counter_in;
use crate::directory::SampleDirectory;
use crate::entry::SampleEntry;
use crate::error::{CorruptCause, DlfsError};
use crate::integrity::Redundancy;
use crate::plan::{build_epoch_plan, fetch_extent, reader_item_ranges, ReaderPlan};
use crate::rebuild::Background;
use crate::request::{Completions, Delivery, ReadRequest};
use crate::writer::io_failure;
use crate::zerocopy::ZeroCopySample;
use crate::{cache::SampleCache, copy::CopyPool};

/// The check stage (harvested → settled) and the storage-side offload
/// path: more of `impl DlfsIo`, each in its own file.
#[path = "check.rs"]
mod check;
#[path = "offload.rs"]
mod offload;

/// State shared by every I/O thread of one compute node. Cloning is cheap
/// (every heavy member is behind an `Arc`) and is how views over the same
/// devices are derived: another tenant, another directory.
#[derive(Clone)]
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
    /// Replica routing, per-block integrity tables and target health —
    /// everything that knows there can be more than one copy, or a table
    /// to check one against. Always present: with `replicas == 1` and no
    /// `verify_reads` it routes every read home and accepts every byte.
    pub redundancy: Arc<Redundancy>,
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
            tenant,
            ..DlfsShared::clone(self)
        })
    }
}

/// Telemetry handles for one I/O thread, living under `dlfs.io.*` in the
/// engine's registry (see DESIGN.md, "Telemetry").
pub(super) struct IoTelemetry {
    pub(super) samples_delivered: Counter,
    pub(super) bytes_delivered: Counter,
    pub(super) requests_posted: Counter,
    pub(super) completions: Counter,
    pub(super) poll_spins: Counter,
    /// Commands resubmitted after a device media error or fabric timeout.
    pub(super) retries: Counter,
    /// Commands the initiator gave up on after its I/O timeout (the fabric
    /// dropped the capsule or the target was down).
    pub(super) timeouts: Counter,
    pub(super) batches: Counter,
    pub(super) deadline_misses: Counter,
    pub(super) cache_hits: Counter,
    pub(super) cache_misses: Counter,
    pub(super) cache_pins: Counter,
    /// Cross-epoch cache counters under `dlfs.cache.*`. Registered only
    /// with [`CacheMode::CrossEpoch`]; like every optional scope below,
    /// otherwise left unregistered (see [`counter_in`]) so metric renders
    /// of the zero-knob default stay byte-identical.
    pub(super) ce_hits: Counter,
    pub(super) ce_misses: Counter,
    pub(super) prefetch_issued: Counter,
    pub(super) prefetch_hits: Counter,
    /// `evictions` and `resident_chunks`: what this handle's own calls did
    /// to the shared cache. `None` with the scope off, so the cache is not
    /// asked for its residency just to have the answer dropped.
    pub(super) residency: Option<(Counter, Gauge)>,
    /// Shared-completion-queue drain stats.
    pub(super) scq_drains: Counter,
    pub(super) scq_empty_polls: Counter,
    pub(super) scq_drain_batch: Histo,
    /// Per-stage latency of the four-stage pipeline.
    pub(super) prep_ns: Histo,
    pub(super) post_ns: Histo,
    pub(super) poll_ns: Histo,
    pub(super) copy_ns: Histo,
    /// A part's stay with the copy pool for its payload work: publish of
    /// its run → verdict applied. Registered only when parts have such
    /// work (`verify_reads` or a codec).
    pub(super) check_ns: Histo,
    /// Integrity/replication counters under `dlfs.integrity.*`. Registered
    /// only when redundancy is in use ([`Redundancy::in_use`]). (`scrubbed`
    /// and the `dlfs.rebuild.*` scope belong to [`Background`].)
    pub(super) iv_verified: Counter,
    pub(super) iv_mismatches: Counter,
    pub(super) iv_repairs: Counter,
    pub(super) iv_failovers: Counter,
    pub(super) iv_hedges: Counter,
    pub(super) iv_hedge_wins: Counter,
    /// Codec counters under `dlfs.codec.*`: encoded bytes fetched off the
    /// devices vs raw bytes they decoded to. Registered only when the
    /// instance carries [`crate::codec::CodecTables`].
    pub(super) codec_bytes_in: Counter,
    pub(super) codec_bytes_out: Counter,
    /// Offload counters under `dlfs.offload.*`. Registered only with
    /// [`crate::DlfsConfig::offload`].
    pub(super) of_requests: Counter,
    pub(super) of_samples: Counter,
    /// Bytes carried over the fabric by dense offload responses.
    pub(super) of_wire_bytes: Counter,
    /// Reactor activity under `dlfs.reactor.*`, registered only with
    /// [`DlfsConfig::reactor_stats`]: times the thread advanced straight
    /// to a known event (a completion instant, a retry or hedge coming
    /// due) instead of spinning poll iterations toward it; submission-queue
    /// doorbell flushes (one per pass that posted, not one per command);
    /// virtual nanoseconds parked idle with nothing in flight.
    pub(super) wakeups: Counter,
    pub(super) doorbells: Counter,
    pub(super) parked_ns: Counter,
}

impl IoTelemetry {
    pub(super) fn new(reg: &Registry, shared: &DlfsShared) -> IoTelemetry {
        let io = reg.scoped("dlfs.io");
        let cross_epoch = shared.cfg.cache_mode == CacheMode::CrossEpoch;
        let scope = |name, on: bool| on.then(|| reg.scoped(name));
        let cache = scope("dlfs.cache", cross_epoch);
        let iv = scope("dlfs.integrity", shared.redundancy.in_use());
        let cd = scope("dlfs.codec", shared.codec.is_some());
        let of = scope("dlfs.offload", shared.cfg.offload);
        let rx = scope("dlfs.reactor", shared.cfg.reactor_stats);
        let (cache, iv, cd, of) = (cache.as_ref(), iv.as_ref(), cd.as_ref(), of.as_ref());
        let checked = shared.redundancy.verify() || shared.codec.is_some();
        let checked = scope("dlfs.io.stage", checked).map(|s| s.histogram("check_ns"));
        IoTelemetry {
            check_ns: checked.unwrap_or_default(),
            codec_bytes_in: counter_in(cd, "bytes_in"),
            codec_bytes_out: counter_in(cd, "bytes_out"),
            of_requests: counter_in(of, "requests"),
            of_samples: counter_in(of, "samples"),
            of_wire_bytes: counter_in(of, "wire_bytes"),
            wakeups: counter_in(rx.as_ref(), "wakeups"),
            doorbells: counter_in(rx.as_ref(), "doorbells"),
            parked_ns: counter_in(rx.as_ref(), "parked_ns"),
            iv_verified: counter_in(iv, "verified"),
            iv_mismatches: counter_in(iv, "mismatches"),
            iv_repairs: counter_in(iv, "repairs"),
            iv_failovers: counter_in(iv, "failovers"),
            iv_hedges: counter_in(iv, "hedges"),
            iv_hedge_wins: counter_in(iv, "hedge_wins"),
            ce_hits: counter_in(cache, "hits"),
            ce_misses: counter_in(cache, "misses"),
            prefetch_issued: counter_in(cache, "prefetch_issued"),
            prefetch_hits: counter_in(cache, "prefetch_hits"),
            residency: cache.map(|s| (s.counter("evictions"), s.gauge("resident_chunks"))),
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
pub(super) struct ItemRt {
    pub(super) parts_left: u32,
    pub(super) samples_total: u32,
    /// Samples handed to copy threads so far (cursor into the item's
    /// shuffled sample list).
    pub(super) dispatched: u32,
    copies_done: u32,
    /// Block-aligned base offset of the fetched range.
    base: u64,
}

/// One device part — the chunk-sized piece `part` of fetch item `idx` (0
/// for a synchronous read, which has no item) — queued or in flight:
/// failed submissions so far, and the replica that serves it (in flight)
/// or is preferred for it (queued).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Part {
    idx: u32,
    part: u32,
    attempt: u32,
    replica: u32,
    /// Delivered bytes of this part failed checksum verification at least
    /// once: a verified success from a replica then read-repairs the home
    /// extent, and retry exhaustion surfaces `Corrupt` instead of a plain
    /// I/O error.
    mismatched: bool,
}

impl Part {
    /// Part `part` of item `idx`, never tried, home copy preferred.
    fn first(idx: u32, part: u32) -> Part {
        Part {
            idx,
            part,
            attempt: 0,
            replica: 0,
            mismatched: false,
        }
    }
}

/// What a device command is for.
enum Owner {
    /// A part of one of the epoch's fetch items.
    Epoch(Part),
    /// A part of the synchronous read in progress.
    Sync(Part),
    /// A prefetch of range `key` (`len` bytes once published).
    Prefetch { key: RangeKey, len: u64 },
}

/// The hedged partner of a command: (its id, its qpair, whether the
/// command that *holds* this is the late-issued duplicate).
type Twin = (u64, usize, bool);

/// One device command, from post to settle: the one record of its fate.
/// Every harvest — the reactor's `poll`, the synchronous wait of
/// `fetch_range`, the `abort_epoch` drain — and every verdict collected
/// asks [`DlfsIo::cmds`] whose command it holds. Whoever settles a command
/// takes its record out first; besides that, `settle_part` removes the
/// losing twin's, `abort_epoch` the epoch's demand parts' (discarded
/// unsettled) and `teardown` what is left.
struct Cmd {
    owner: Owner,
    /// What it reads and the chunk it lands in, fixed at post.
    io: PartIo,
    /// Hedge pairing. The first verified completion of a pair delivers;
    /// its partner is cancelled (or silently dropped).
    twin: Option<Twin>,
    /// `None` on a device. Harvested with payload work: with the copy pool
    /// — the instant its run was published and what it landed. Until the
    /// pool answers, its chunk is the pool's to read.
    pool: Option<(Time, check::Landed)>,
}

/// What one part reads: `nblocks` blocks from `slba` in its home node's
/// coordinates (replica routing translates them), into cache chunk `buf`.
#[derive(Clone)]
struct PartIo {
    home: u16,
    slba: u64,
    nblocks: u32,
    buf: DmaBuf,
}

/// Blocks `(first, count)` of part `part` of a fetch of `nblocks` blocks
/// at `slba`, cut into parts of `per_part` blocks (one cache chunk each);
/// the last part may be short. Under a codec the fetch is the encoded
/// prefix of one frame, which can be shorter than the chunk allocated for
/// its raw extent — still exactly one part.
fn part_span(slba: u64, nblocks: u32, per_part: u32, part: u32) -> (u64, u32) {
    let start = part * per_part;
    (slba + start as u64, (nblocks - start).min(per_part))
}

/// How a completed part settled ([`DlfsIo::settle_part`]).
#[derive(Debug, PartialEq)]
enum Settled {
    /// Verified bytes are in the part's chunk.
    Done,
    /// This command lost, but its hedged twin still races and now owns
    /// the part: no retry budget consumed.
    Twin,
    /// Resubmit as `part` (one more failure on record, the replica to
    /// prefer next): at once (`None` — another copy can serve now) or
    /// after a backoff.
    Requeue {
        part: Part,
        not_before: Option<Time>,
    },
    /// Retry budget spent: the fetch cannot complete.
    Fatal(DlfsError),
}

/// A retry parked until its backoff elapses: readiness instant, insertion
/// sequence (keeps same-instant pops deterministic), the part.
type DelayedPart = Reverse<(Time, u64, Part)>;

/// The chunks of an open fetch item.
pub(super) enum Open {
    /// Parts still in flight: the chunks are loose, because a device
    /// command holds a view of each and writes it at harvest. Whoever
    /// gives the item up frees them explicitly, after the harvest.
    Fetching(Vec<DmaBuf>),
    /// Completely fetched and published (or found resident): a pin on the
    /// range, held until the item is drained.
    Resident(Arc<CachedRange>),
}

impl Open {
    fn bufs(&self) -> &[DmaBuf] {
        match self {
            Open::Fetching(bufs) => bufs,
            Open::Resident(range) => range.bufs(),
        }
    }
}

/// Epoch execution state.
pub(super) struct EpochState {
    /// The collective seed and epoch number `sequence` was called with
    /// (the prefetcher derives the *next* epoch's item deal from them).
    pub(super) seed: u64,
    pub(super) epoch: u64,
    pub(super) plan: ReaderPlan,
    pub(super) items: Vec<ItemRt>,
    /// Items resident with undelivered samples (the sample-cache draw set).
    resident_ready: Vec<u32>,
    /// Samples dispatched to copy threads this epoch.
    pub(super) total_dispatched: usize,
    pub(super) total: usize,
    /// Next item to start fetching.
    pub(super) next_fetch: usize,
    /// Parts awaiting qpair submission.
    pending_parts: VecDeque<Part>,
    /// Failed parts waiting out their retry backoff.
    delayed_parts: BinaryHeap<DelayedPart>,
    delay_seq: u64,
    /// Items fetched or fetching and not yet drained, with their chunks —
    /// ordered by item, because `teardown` walks it: the order it releases
    /// ranges in stamps the LRU, and with it which of them the next epoch
    /// evicts first (same seed, same timeline, whatever the hasher).
    pub(super) open: BTreeMap<u32, Open>,
    /// Seeded draw for the random selection among resident items.
    rng: SplitMix64,
    /// Which path serves this epoch, fixed by its first batch: `true` for
    /// storage-side offload, `false` for the client-side engine.
    offloaded: Option<bool>,
    /// Offload exchanges issued ahead of delivery; gone with the epoch.
    pub(super) ahead: offload::Ahead,
}

impl EpochState {
    /// Epoch `epoch` of `seed` with nothing fetched yet; `plan` is reader
    /// `reader`'s share of the deal.
    pub(super) fn new(seed: u64, epoch: u64, plan: ReaderPlan, reader: usize) -> EpochState {
        let item = |it: &crate::plan::FetchItem| ItemRt {
            parts_left: 0,
            samples_total: it.samples.len() as u32,
            dispatched: 0,
            copies_done: 0,
            base: 0,
        };
        EpochState {
            seed,
            epoch,
            items: plan.items.iter().map(item).collect(),
            resident_ready: Vec::new(),
            total_dispatched: 0,
            total: plan.samples(),
            plan,
            next_fetch: 0,
            pending_parts: VecDeque::new(),
            delayed_parts: BinaryHeap::new(),
            delay_seq: 0,
            open: BTreeMap::new(),
            rng: SplitMix64::derive(seed ^ 0xD15B, epoch * 7919 + reader as u64),
            offloaded: None,
            ahead: Default::default(),
        }
    }

    /// The relaxed-randomization draw (§III-D2): the next undelivered
    /// sample of a uniformly random resident item, as `(item, sample)`.
    fn draw(&mut self) -> Option<(u32, u32)> {
        if self.resident_ready.is_empty() {
            return None;
        }
        let pick = self.rng.below(self.resident_ready.len() as u64) as usize;
        let idx = self.resident_ready[pick];
        let item = &mut self.items[idx as usize];
        let sample = self.plan.items[idx as usize].samples[item.dispatched as usize];
        item.dispatched += 1;
        if item.dispatched == item.samples_total {
            self.resident_ready.swap_remove(pick);
        }
        self.total_dispatched += 1;
        Some((idx, sample))
    }

    /// Item `idx` is fully resident: flip the V field of its samples and
    /// offer it to the delivery draw.
    fn mark_resident(&mut self, dir: &SampleDirectory, idx: u32) {
        for &s in &self.plan.items[idx as usize].samples {
            dir.set_valid(s, true);
        }
        self.resident_ready.push(idx);
    }
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
pub(super) struct PrefetchState {
    /// `(seed, epoch)` the queue was built for; rebuilt when it goes
    /// stale.
    pub(super) built_for: Option<(u64, u64)>,
    /// Upcoming ranges to warm, in the next epoch's first-use order. (What
    /// is in flight is in the command table: [`DlfsIo::prefetches`].)
    pub(super) queue: VecDeque<(u16, u64, u64)>,
}

/// One engine batch being assembled. Copied delivery (`copy`) hands
/// samples to the copy threads a run per deliver pass and lands them in
/// `copied` by slot as they finish;
/// zero-copy delivery pushes samples pinning their item's range onto
/// `pinned` the moment they are drawn, so it never has anything
/// outstanding.
pub(super) struct Batch {
    want: usize,
    copy: bool,
    /// Each published run: its first slot and its publish instant.
    runs: Vec<(usize, Time)>,
    copied: Vec<Option<(u32, Vec<u8>)>>,
    pinned: Vec<ZeroCopySample>,
    /// Samples handed out / finished; they differ only while copies are
    /// outstanding.
    dispatched: usize,
    received: usize,
}

/// A synchronous read in progress ([`DlfsIo::fetch_range`]).
struct SyncFetch {
    nid: u16,
    slba: u64,
    nblocks: u32,
    bufs: Vec<DmaBuf>,
    /// Parts to (re)submit, each with its not-before instant.
    waiting: Vec<(Part, Time)>,
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
    /// Every command posted and not yet settled, by command id.
    cmds: HashMap<u64, Cmd>,
    next_cmd: u64,
    /// The copy pool's answers to this handle, finished copies and check
    /// verdicts alike, in the order the pool produced them. Made at first
    /// use; the senders are the entries' ([`DlfsIo::done`]).
    answers: Option<Receiver<CopyDone>>,
    /// What the harvest pass in progress handed to the pool, with each
    /// entry's cost: one run, published when the pass ends.
    staged: Vec<(u64, Dur)>,
    /// Check entries published and not yet answered.
    checks_out: usize,
    /// Primaries due for a hedged duplicate: (due instant, cmd).
    hedge_due: BinaryHeap<Reverse<(Time, u64)>>,
    /// Scrub and rebuild: background work done in idle reactor gaps.
    background: Background,
    /// Fatal engine failure (a part exhausted its retry budget). Sticky
    /// until the epoch is replaced: the plan can no longer be completed.
    failed: Option<DlfsError>,
    /// Deadline of the in-progress `submit` call; retry backoffs are
    /// clamped so a resubmission is never pointlessly scheduled past it.
    current_deadline: Option<Time>,
    registry: Registry,
    tel: IoTelemetry,
    /// Plan-aware prefetcher (active only with `CacheMode::CrossEpoch`
    /// and `prefetch_window > 0`).
    prefetch: PrefetchState,
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
        let qpairs = shared
            .targets
            .iter()
            .enumerate()
            .map(|(nid, t)| {
                let mut qp = IoQPair::new(t.clone(), qd);
                qp.attach_telemetry(&reg.scoped(&format!("blocksim.dev{nid}")));
                qp
            })
            .collect();
        if let Some(m) = &shared.redundancy.membership {
            m.attach_telemetry(&reg.scoped("dlfs.membership"));
        }
        let io = DlfsIo {
            tel: IoTelemetry::new(reg, &shared),
            background: Background::new(shared.clone(), reg),
            registry: reg.clone(),
            mode: shared.cfg.effective_mode(shared.dir.avg_sample_bytes()),
            shared,
            qpairs,
            epoch: None,
            cmds: HashMap::new(),
            next_cmd: 1,
            answers: None,
            staged: Vec::new(),
            checks_out: 0,
            hedge_due: BinaryHeap::new(),
            failed: None,
            current_deadline: None,
            prefetch: PrefetchState::default(),
        };
        io.report_residency(0);
        io
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

    /// The epoch a batched call runs against, with the shared state its
    /// bookkeeping touches. Engine internals run only under
    /// [`DlfsIo::submit`], which has already turned a missing epoch into
    /// `NoSequence`.
    pub(super) fn split(&mut self) -> (&mut EpochState, &DlfsShared) {
        let st = self.epoch.as_mut().expect("engine runs under an epoch");
        (st, &self.shared)
    }

    pub(super) fn st(&self) -> &EpochState {
        self.epoch.as_ref().expect("engine runs under an epoch")
    }

    /// Abandon the current epoch: wait out in-flight device commands (SPDK
    /// cannot cancel a submitted command) and release every sample-cache
    /// range the plan still holds. Called by `sequence` when an epoch is
    /// replaced before being fully consumed.
    fn abort_epoch(&mut self, rt: &Runtime) {
        // Drain outstanding commands. A demand part is discarded unsettled
        // (`teardown` returns its chunk); an in-flight prefetch completes
        // as usual, publishing its range or returning its chunk.
        while self.cmds.values().any(|c| c.pool.is_none()) {
            let mut harvested = 0;
            for q in 0..self.qpairs.len() {
                for comp in self.qpairs[q].process_completions(rt, usize::MAX) {
                    if let Some(Owner::Epoch(_)) = self.cmds.get(&comp.id).map(|c| &c.owner) {
                        self.cmds.remove(&comp.id);
                    }
                    self.complete(rt, &comp);
                    harvested += 1;
                }
            }
            if harvested == 0 {
                match self.next_completion() {
                    Some(t) => self.advance_to(rt, t),
                    None => break,
                }
            }
        }
        // The same for what is with the copy pool: every verdict is waited
        // for, a prefetch's is applied, a demand part's is dropped.
        self.cmds
            .retain(|_, c| matches!(c.owner, Owner::Prefetch { .. }));
        self.publish_checks(rt);
        self.teardown(Some(rt));
    }

    /// Give back everything this handle holds in the compute node's shared
    /// cache: the chunk of every prefetch still on a device, and every
    /// range the epoch's plan has open. Nothing writes those chunks
    /// afterwards — `abort_epoch` drained the qpairs first, and a dropped
    /// handle's qpairs die with it (data only lands at harvest) — and
    /// nothing reads them: the copy pool's outstanding verdicts are waited
    /// for first ([`DlfsIo::await_verdicts`]; `rt` is `None` in `drop`).
    fn teardown(&mut self, rt: Option<&Runtime>) {
        self.await_verdicts(rt);
        for (_, cmd) in self.cmds.drain() {
            if matches!(cmd.owner, Owner::Prefetch { .. }) {
                self.shared.cache.free_raw(cmd.io.buf);
            }
        }
        self.hedge_due.clear();
        let Some(st) = self.epoch.take() else {
            return; // only prefetches were outstanding
        };
        for (idx, open) in st.open {
            let it = &st.plan.items[idx as usize];
            let (cache, key) = (&self.shared.cache, self.shared.rkey(it.nid, it.offset));
            match open {
                // Never became resident: return the loose chunks.
                Open::Fetching(bufs) => bufs.into_iter().for_each(|b| cache.free_raw(b)),
                // Published. EpochScoped: release retires the range (its
                // chunks go home once zero-copy samples stop pinning it).
                // CrossEpoch: it survives on the evictable LRU tail for
                // the replacing epoch.
                Open::Resident(_) => {
                    cache.release(key);
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
        let n = mine.samples();
        self.failed = None;
        // A queue built during the previous epoch targeted *this* one;
        // whatever it already warmed is found by the demand probes, the
        // rest is stale.
        self.prefetch.queue.clear();
        self.prefetch.built_for = None;
        self.epoch = Some(EpochState::new(seed, epoch, mine, self.shared.reader_id));
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

    /// The stored frame covering byte `offset` on node `nid`, or `None`
    /// without a codec.
    fn frame(&self, nid: u16, offset: u64) -> Option<Frame> {
        let tables = self.shared.codec.as_deref()?;
        Some(tables.frame(self.shared.cfg.chunk_size, nid, offset))
    }

    /// Device-read geometry of the fetch range `(nid, offset, len)`:
    /// `(slba, read blocks, alloc bytes)`. The historical path reads
    /// exactly the covering blocks. Under a codec the range is one stored
    /// frame: only its encoded prefix is read off the device (which can
    /// exceed the covering blocks of a short fetch range when a padded
    /// frame stored verbatim), but the allocation covers the frame's full
    /// raw extent so it can be decoded in place after verification.
    fn read_geometry(&self, nid: u16, offset: u64, len: u64) -> (u64, u32, u64) {
        match self.frame(nid, offset) {
            Some(f) => (
                f.start / BLOCK_SIZE,
                f.enc_blocks,
                (f.raw_len as u64).div_ceil(BLOCK_SIZE) * BLOCK_SIZE,
            ),
            None => {
                let (slba, nblocks, _) = covering_blocks(offset, len);
                (slba, nblocks, nblocks as u64 * BLOCK_SIZE)
            }
        }
    }

    /// Count frame `f` in `dlfs.codec.*` and decode it — wherever that
    /// happens — from `stored`, which starts with its encoded prefix.
    /// `None` for a frame stored verbatim: `stored[..raw_len]` already is
    /// its raw bytes.
    fn decode_counted(&self, f: &Frame, stored: &[u8]) -> Option<Vec<u8>> {
        self.tel.codec_bytes_in.add(f.enc_len as u64);
        self.tel.codec_bytes_out.add(f.raw_len as u64);
        (f.enc_len != f.raw_len).then(|| f.kind.codec().decode(&stored[..f.enc_len], f.raw_len))
    }

    // ------------------------------------------------ the part lifecycle --

    /// Part `part` of a fetch of `nblocks` blocks at `slba` homed on
    /// `home`, landing in its chunk of `bufs`.
    fn part_io(&self, home: u16, slba: u64, nblocks: u32, part: u32, bufs: &[DmaBuf]) -> PartIo {
        let per_part = (self.shared.cfg.chunk_size / BLOCK_SIZE) as u32;
        let (slba, nblocks) = part_span(slba, nblocks, per_part, part);
        PartIo {
            home,
            slba,
            nblocks,
            buf: bufs[part as usize].clone(),
        }
    }

    /// What part `p` of the epoch's item `p.idx` reads.
    fn engine_part(&self, p: Part) -> PartIo {
        let st = self.st();
        let it = &st.plan.items[p.idx as usize];
        let (slba, nblocks, _) = self.read_geometry(it.nid, it.offset, it.len);
        self.part_io(it.nid, slba, nblocks, p.part, st.open[&p.idx].bufs())
    }

    /// Pick the copy that serves a part: `(replica, device, device slba)`,
    /// health-aware and rotating from `prefer`. Replica 0 is the home
    /// copy, the only one an unreplicated instance has.
    fn route_part(&self, rt: &Runtime, io: &PartIo, prefer: u32) -> (u32, usize, u64) {
        let red = &self.shared.redundancy;
        let r = red.pick_replica(io.home, prefer, rt.now());
        let (d, s) = red.route(io.home, r, io.slba);
        (r, d as usize, s)
    }

    /// The prep and post stages of one part: charge both, submit the read
    /// of `io` at `slba` on qpair `dev`, and enter it in the command
    /// table as `owner`'s, paired with `twin` when it is the hedged
    /// duplicate of that command. Returns the command id, or
    /// `None` when the qpair is full — capacity is a bookkeeping check,
    /// but a blocked post still pays its prep+post (the charge the legacy
    /// engine paid for the rejected submit), unrecorded in the stage
    /// histograms — as a hedged duplicate's always are: they have
    /// never counted as pipeline stages.
    fn post_part(
        &mut self,
        rt: &Runtime,
        dev: usize,
        slba: u64,
        io: &PartIo,
        owner: Owner,
        twin: Option<Twin>,
    ) -> Option<u64> {
        let full = self.qpairs[dev].outstanding() >= self.shared.cfg.queue_depth;
        let t0 = rt.now();
        rt.work(self.shared.cfg.costs.prep_request);
        let t1 = rt.now();
        rt.work(self.shared.cfg.costs.post_request);
        if full {
            return None;
        }
        let cmd = self.next_cmd;
        self.qpairs[dev]
            .submit_read(rt, cmd, slba, io.nblocks, io.buf.clone(), 0)
            .expect("capacity checked before staging");
        if twin.is_none() {
            self.tel.prep_ns.record_dur(t1 - t0);
            self.tel.post_ns.record_dur(rt.now() - t1);
        }
        self.next_cmd += 1;
        self.tel.requests_posted.inc();
        let record = Cmd {
            owner,
            io: io.clone(),
            twin,
            pool: None,
        };
        self.cmds.insert(cmd, record);
        Some(cmd)
    }

    /// Settle a completion of demand part `p` — its record already out of
    /// the table, `twin` its hedge pairing: resolve the pair (first
    /// verified completion wins), verify the bytes, feed the
    /// serving target's health, and decide what happens to the part. A
    /// mismatch or device error fails straight over to the next replica
    /// when there is one, else backs off under the retry policy (never
    /// past the batch deadline); exhaustion is `Corrupt` at `corrupt_at`
    /// if the part ever failed its checksum, `Io` otherwise. The caller
    /// owns the queues, so it applies the outcome.
    fn settle_part(
        &mut self,
        rt: &Runtime,
        p: Part,
        io: &PartIo,
        hedge: Option<Twin>,
        landed: check::Landed,
        corrupt_at: u64,
    ) -> Settled {
        // Whichever of the pair survives this settles as sole owner.
        if let Some(partner) = hedge.and_then(|(pcmd, ..)| self.cmds.get_mut(&pcmd)) {
            partner.twin = None;
        }
        let repair = p.replica > 0 && p.mismatched;
        let verified = landed.is_ok_and(|ok| self.check_part(io, ok, repair));
        // Delivered bytes that fail their checksum mark the part, verified
        // ones clear it; a failed command leaves the mark as it was.
        let mismatched = (landed.is_ok() || p.mismatched) && !verified;
        let red = &self.shared.redundancy;
        let serving = red.route(io.home, p.replica, io.slba).0 as usize;
        if verified {
            red.record_ok(serving);
            if let Some((pcmd, pdev, secondary)) = hedge {
                // Drop the partner's record, and with it its claim to a
                // verdict — the part settles once — and cancel it on its
                // device (it never DMAs) if it is still there.
                if self.cmds.remove(&pcmd).is_some_and(|c| c.pool.is_none()) {
                    self.qpairs[pdev].cancel(pcmd);
                }
                if secondary {
                    self.tel.iv_hedge_wins.inc();
                }
            }
            return Settled::Done;
        }
        // Failed command: device media error, fabric timeout, or delivered
        // bytes that failed their checksum.
        if landed == Err(CmdStatus::TransportError) {
            self.tel.timeouts.inc();
        }
        red.record_failure(serving, rt.now());
        // The twin still races, on its device or with the copy pool.
        let twin = hedge.and_then(|(pcmd, ..)| self.cmds.get_mut(&pcmd));
        if let Some(Owner::Epoch(twin)) = twin.map(|c| &mut c.owner) {
            twin.mismatched = mismatched;
            return Settled::Twin;
        }
        let attempts = p.attempt + 1;
        let Some(backoff) = self.shared.cfg.retry.next_delay(attempts) else {
            let last = match landed {
                Ok(_) => CorruptCause::Checksum,
                Err(failed) => CorruptCause::Io(io_failure(failed)),
            };
            let e = DlfsError::exhausted(io.home, corrupt_at, attempts, mismatched, last);
            return Settled::Fatal(e);
        };
        self.tel.retries.inc();
        let mut part = Part {
            attempt: attempts,
            mismatched,
            ..p
        };
        if red.replicas > 1 {
            // Another copy can serve right now.
            self.tel.iv_failovers.inc();
            part.replica += 1;
            return Settled::Requeue {
                part,
                not_before: None,
            };
        }
        let mut ready_at = rt.now() + backoff;
        if let Some(dl) = self.current_deadline {
            // Never park a retry past the batch deadline: the caller is
            // about to give up waiting anyway.
            ready_at = ready_at.min(dl.max(rt.now()));
        }
        Settled::Requeue {
            part,
            not_before: Some(ready_at),
        }
    }

    /// Demand chunks for `bytes` from the shared cache. The ranges evicted
    /// to make room are this handle's to report, with the residency left.
    fn alloc(&self, bytes: u64) -> Option<Vec<DmaBuf>> {
        let (bufs, evicted) = self.shared.cache.alloc_for(bytes);
        if evicted > 0 {
            self.report_residency(evicted);
        }
        bufs
    }

    /// Report a call of this handle's that changed what the shared cache
    /// holds: the ranges it `evicted`, and the resident chunks it left.
    fn report_residency(&self, evicted: u64) {
        if let Some((evictions, resident_chunks)) = &self.tel.residency {
            evictions.add(evicted);
            resident_chunks.set(self.shared.cache.resident_chunks() as i64);
        }
    }

    /// Allocate cache chunks for `bytes`, waiting out a momentarily full
    /// pool under the shared retry policy: bounded, deadline-clamped
    /// exponential backoff, busy-waited in virtual time (another thread's
    /// release or a dropped zero-copy sample may free chunks meanwhile).
    /// `None` once the attempts or the deadline are spent.
    fn alloc_backoff(
        &self,
        rt: &Runtime,
        bytes: u64,
        deadline: Option<Time>,
    ) -> Option<Vec<DmaBuf>> {
        let mut failures = 0u32;
        loop {
            if let Some(bufs) = self.alloc(bytes) {
                return Some(bufs);
            }
            failures += 1;
            let retry = self.shared.cfg.retry;
            rt.work(retry.next_delay_before(failures, rt.now(), deadline)?);
        }
    }

    // ------------------------------------------------- the batched engine --

    /// Start fetching item `idx`: probe the cross-epoch cache first, else
    /// allocate cache chunks and queue the item's parts for the device.
    /// With nothing else open (`starving`) a full pool is waited out
    /// before reporting backpressure: no release of this epoch's can come
    /// to the rescue.
    fn start_fetch(&mut self, rt: &Runtime, idx: u32, starving: bool) -> FetchStart {
        let cross = self.shared.cfg.cache_mode == CacheMode::CrossEpoch;
        let it = &self.st().plan.items[idx as usize];
        let (slba, _, alloc_bytes) = self.read_geometry(it.nid, it.offset, it.len);
        let (key, len) = (self.shared.rkey(it.nid, it.offset), it.len);
        if cross {
            // Residency probe: a previous epoch (or the prefetcher) may
            // already hold this exact range — warm items skip the device
            // entirely.
            if let Some((range, was_prefetched)) = self.shared.cache.pin(key, true) {
                debug_assert_eq!(range.bytes(), len, "cached range geometry drifted");
                self.tel.ce_hits.inc();
                if was_prefetched {
                    self.tel.prefetch_hits.inc();
                }
                self.open_item(idx, slba, Open::Resident(range));
                return FetchStart::Started;
            }
            if self.prefetches().any(|k| k == key) {
                // The range is already on the wire as a prefetch; fetching
                // it again would double-publish. Its completion will
                // publish it, and the next probe will hit.
                return FetchStart::AwaitPrefetch;
            }
            self.tel.ce_misses.inc();
        }
        let bufs = if starving {
            self.alloc_backoff(rt, alloc_bytes, self.current_deadline)
        } else {
            self.alloc(alloc_bytes)
        };
        let Some(bufs) = bufs else {
            return FetchStart::Backpressure;
        };
        self.open_item(idx, slba, Open::Fetching(bufs));
        FetchStart::Started
    }

    /// Open item `idx` (its range starts at block `slba`): one part to
    /// fetch per loose chunk, none when the range was resident.
    fn open_item(&mut self, idx: u32, slba: u64, open: Open) {
        let (st, shared) = self.split();
        let parts = match &open {
            Open::Fetching(bufs) => bufs.len() as u32,
            Open::Resident(_) => 0,
        };
        let item = &mut st.items[idx as usize];
        item.parts_left = parts;
        item.base = slba * BLOCK_SIZE;
        st.open.insert(idx, open);
        if parts == 0 {
            st.mark_resident(&shared.dir, idx);
        }
        st.pending_parts
            .extend((0..parts).map(|part| Part::first(idx, part)));
    }

    /// Pump stage: keep the fetch window full and the qpairs fed. Returns
    /// the progress made, or `None` when the epoch cannot be pumped: a
    /// part is lost for good (`failed`), or the pump is starved — nothing
    /// is open and there is no cache chunk to open anything with, even
    /// after the allocation backoff.
    pub(super) fn pump(&mut self, rt: &Runtime) -> Option<usize> {
        if self.failed.is_some() {
            return None;
        }
        let window = self.shared.cfg.window_chunks;
        let mut progressed = 0;

        // Open new items up to the window.
        loop {
            let st = self.st();
            let (next_fetch, open) = (st.next_fetch, st.open.len());
            if next_fetch >= st.plan.items.len() {
                break;
            }
            // The pipeline must never starve: with nothing open at all, a
            // fetch is mandatory regardless of the window budget.
            let starving = open == 0;
            if open >= 2 * window && !starving {
                break;
            }
            match self.start_fetch(rt, next_fetch as u32, starving) {
                FetchStart::Started => {
                    self.split().0.next_fetch += 1;
                    progressed += 1;
                }
                // An in-flight prefetch owns this range; progress comes
                // from polling its completion.
                FetchStart::AwaitPrefetch => break,
                // Cache backpressure: retry after releases — unless
                // nothing of this epoch's is left to release.
                FetchStart::Backpressure if starving => return None,
                FetchStart::Backpressure => break,
            }
        }

        // Move retry parts whose backoff has elapsed into the submit queue.
        {
            let now = rt.now();
            let st = self.split().0;
            while let Some(&Reverse((ready_at, _, part))) = st.delayed_parts.peek() {
                if ready_at > now {
                    break;
                }
                st.delayed_parts.pop();
                st.pending_parts.push_back(part);
                progressed += 1;
            }
        }

        // Doorbell flush: route and post every queued part the qpairs have
        // room for in one pass, stopping at the first full qpair (which
        // still pays its prep+post, see `post_part`).
        let hedging = self.shared.cfg.hedge_reads && self.shared.redundancy.replicas > 1;
        let mut flushed = false;
        while let Some(&p) = self.st().pending_parts.front() {
            let io = self.engine_part(p);
            let (replica, dev, slba) = self.route_part(rt, &io, p.replica);
            let owner = Owner::Epoch(Part { replica, ..p });
            let Some(cmd) = self.post_part(rt, dev, slba, &io, owner, None) else {
                break; // queue full; poll first
            };
            if hedging {
                self.hedge_due
                    .push(Reverse((rt.now() + self.hedge_delay(rt.now()), cmd)));
            }
            self.split().0.pending_parts.pop_front();
            progressed += 1;
            flushed = true;
        }
        if flushed {
            self.tel.doorbells.inc();
        }
        if hedging {
            progressed += self.fire_hedges(rt);
        }

        // With the epoch's own fetch list exhausted, spend the idle tail
        // warming the next epoch (plan-aware prefetch).
        progressed += self.pump_prefetch(rt);
        Some(progressed)
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
        let red = self.shared.redundancy.clone();
        let mut fired = 0;
        while let Some(&Reverse((due, cmd))) = self.hedge_due.peek() {
            if due > rt.now() {
                break;
            }
            self.hedge_due.pop();
            // Gone, already hedged, or harvested and with the pool:
            // nothing to do.
            let Some(Cmd {
                owner: Owner::Epoch(p),
                io,
                twin: None,
                pool: None,
            }) = self.cmds.get(&cmd)
            else {
                continue;
            };
            let (p, io) = (*p, io.clone());
            let r2 = (p.replica + 1) % red.replicas;
            let (dev1, _) = red.route(io.home, p.replica, io.slba);
            let (dev2, slba2) = red.route(io.home, r2, io.slba);
            if r2 == p.replica || dev2 == dev1 {
                continue; // no distinct copy to hedge onto
            }
            if self.qpairs[dev2 as usize].outstanding() >= self.shared.cfg.queue_depth {
                continue; // no room; the primary keeps sole ownership
            }
            let twin = Owner::Epoch(Part { replica: r2, ..p });
            let pair = Some((cmd, dev1 as usize, true));
            let Some(cmd2) = self.post_part(rt, dev2 as usize, slba2, &io, twin, pair) else {
                continue;
            };
            self.tel.iv_hedges.inc();
            if let Some(primary) = self.cmds.get_mut(&cmd) {
                primary.twin = Some((cmd2, dev2 as usize, false));
            }
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
    pub(super) fn pump_prefetch(&mut self, rt: &Runtime) -> usize {
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
        let (chunk, reserve) = (cfg.chunk_size, cfg.window_chunks);
        let (out, mut progressed) = (self.prefetches().count(), 0);
        while out + progressed < pf_window {
            let Some(&(nid, offset, len)) = self.prefetch.queue.front() else {
                break;
            };
            let key = self.shared.rkey(nid, offset);
            let (slba, nblocks, bytes) = self.read_geometry(nid, offset, len);
            if bytes > chunk
                || self.shared.cache.contains(key)
                || self.prefetches().any(|k| k == key)
                || self.demand_fetch_in_flight(key)
            {
                // Multi-chunk edge items aren't worth speculative slots;
                // already-resident or in-flight ranges need no warming.
                self.prefetch.queue.pop_front();
                continue;
            }
            let chunks = self.shared.cache.alloc_prefetch(bytes, reserve);
            let Some(buf) = chunks.and_then(|mut b| b.pop()) else {
                break; // no speculative headroom; retry when pressure drops
            };
            let io = PartIo {
                home: nid,
                slba,
                nblocks,
                buf,
            };
            let owner = Owner::Prefetch { key, len };
            if self
                .post_part(rt, nid as usize, slba, &io, owner, None)
                .is_none()
            {
                self.shared.cache.free_raw(io.buf);
                break; // qpair full; demand completions first
            }
            self.tel.prefetch_issued.inc();
            self.prefetch.queue.pop_front();
            progressed += 1;
        }
        if progressed > 0 {
            self.tel.doorbells.inc();
        }
        progressed
    }

    /// The ranges with a prefetch in flight — on a device or with the pool.
    pub(super) fn prefetches(&self) -> impl Iterator<Item = RangeKey> + '_ {
        self.cmds.values().filter_map(|c| match c.owner {
            Owner::Prefetch { key, .. } => Some(key),
            _ => None,
        })
    }

    /// Is `key` currently being fetched by the demand path (allocated but
    /// not yet published)? The prefetcher must not double-fetch it.
    fn demand_fetch_in_flight(&self, key: RangeKey) -> bool {
        let Some(st) = self.epoch.as_ref() else {
            return false;
        };
        st.open.keys().any(|&idx| {
            let it = &st.plan.items[idx as usize];
            self.shared.rkey(it.nid, it.offset) == key && st.items[idx as usize].parts_left > 0
        })
    }

    /// Apply the completion of the prefetch `io` of range `key`: publish
    /// the warmed range (born released/evictable), or — on failure, or if
    /// the range became resident meanwhile — return the chunk. Prefetched
    /// bytes are published into the cache, so they must pass verification like any
    /// demand read. Prefetches are best-effort: no retries, no repair; a
    /// miss or a corrupt frame simply falls back to a demand fetch next
    /// epoch (which repairs via replicas).
    pub(super) fn prefetch_complete(
        &mut self,
        key: RangeKey,
        io: PartIo,
        len: u64,
        landed: check::Landed,
    ) {
        let checked = landed.is_ok_and(|ok| self.check_part(&io, ok, false));
        if checked && !self.shared.cache.contains(key) {
            // Born evictable: nobody keeps the pin `publish` hands back.
            self.shared.cache.publish(key, vec![io.buf], len, true);
            self.report_residency(0);
        } else {
            if landed == Err(CmdStatus::TransportError) {
                self.tel.timeouts.inc();
            }
            self.shared.cache.free_raw(io.buf);
        }
    }

    /// Apply the completion of one of the epoch's parts: settle it, then
    /// move it through the engine's queues — a finished item is decoded,
    /// published and offered to the delivery draw; a failed part is
    /// re-queued for retry, never just routed and forgotten.
    pub(super) fn engine_complete(
        &mut self,
        rt: &Runtime,
        p: Part,
        cmd: &Cmd,
        landed: check::Landed,
    ) {
        let corrupt_at = self.st().plan.items[p.idx as usize].offset;
        match self.settle_part(rt, p, &cmd.io, cmd.twin, landed, corrupt_at) {
            Settled::Done => {
                let item = &mut self.split().0.items[p.idx as usize];
                item.parts_left -= 1;
                if item.parts_left == 0 {
                    self.publish_item(p.idx);
                }
            }
            Settled::Twin => {}
            Settled::Requeue { part, not_before } => {
                let st = self.split().0;
                match not_before {
                    None => st.pending_parts.push_back(part),
                    Some(ready_at) => {
                        st.delay_seq += 1;
                        st.delayed_parts
                            .push(Reverse((ready_at, st.delay_seq, part)));
                    }
                }
            }
            Settled::Fatal(e) => {
                self.failed.get_or_insert(e);
            }
        }
    }

    /// Item `idx` is fully fetched, checked and decoded: publish it in the
    /// sample cache, flip the V field of its samples and offer it to the
    /// delivery draw. A part waits for its verdict, and a synchronous read
    /// of the same extent may have published the range meanwhile: then that
    /// range serves the item (claimed, as a warm probe would) and the
    /// fetch's own chunks go back to the pool.
    fn publish_item(&mut self, idx: u32) {
        let st = self.split().0;
        let it = &st.plan.items[idx as usize];
        let (nid, offset, len) = (it.nid, it.offset, it.len);
        // Its last part just settled, so the item is still fetching.
        let Some(Open::Fetching(bufs)) = st.open.remove(&idx) else {
            return;
        };
        let (cache, key) = (&self.shared.cache, self.shared.rkey(nid, offset));
        let range = match cache.pin(key, true) {
            Some((resident, _)) => {
                bufs.into_iter().for_each(|b| cache.free_raw(b));
                resident
            }
            None => cache.publish(key, bufs, len, false),
        };
        self.report_residency(0);
        let (st, shared) = self.split();
        st.open.insert(idx, Open::Resident(range));
        st.mark_resident(&shared.dir, idx);
    }

    /// Poll stage: harvest completions across all qpairs (the shared
    /// completion queue consolidates this into one pass), then publish the
    /// pass's check entries.
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
                // No synchronous read is in progress under `submit`.
                self.complete(rt, &comp);
            }
        }
        if harvested == 0 {
            self.tel.scq_empty_polls.inc();
        } else {
            self.tel.scq_drains.inc();
            self.tel.scq_drain_batch.record(harvested as u64);
        }
        self.tel.poll_ns.record_dur(rt.now() - t0);
        self.publish_checks(rt);
        harvested
    }

    /// Deliver stage: draw samples from random resident items into the
    /// batch until it is full or nothing is resident — zero-copy pins each
    /// sample's range and hands out references; copied delivery books each
    /// into a run and, as the pass ends, publishes the run to the copy pool
    /// with one enqueue. Nothing stays staged past the pass.
    fn deliver(&mut self, rt: &Runtime, batch: &mut Batch) -> Result<usize, DlfsError> {
        let costs = self.shared.cfg.costs.clone();
        let chunk = self.shared.cfg.chunk_size as usize;
        let first = batch.dispatched;
        let done = batch.copy.then(|| self.done(rt));
        let mut run = Vec::with_capacity(done.as_ref().map_or(0, |_| batch.want - first));
        while batch.dispatched < batch.want {
            let Some((idx, sample)) = self.split().0.draw() else {
                break;
            };
            let entry = self.shared.dir.entry(sample);
            let st = self.st();
            let it = &st.plan.items[idx as usize];
            debug_assert_eq!(entry.nid(), it.nid);
            let within = (entry.offset() - st.items[idx as usize].base) as usize;
            let Open::Resident(range) = &st.open[&idx] else {
                unreachable!("only resident items are drawn");
            };
            let segments = segments_at(range.bufs(), chunk, within, entry.len() as usize);
            rt.work(costs.frontend_per_sample);
            if let Some(done) = &done {
                run.push(CopyJob {
                    tag: (idx as u64) << 32 | batch.dispatched as u64,
                    sample,
                    segments,
                    done: done.clone(),
                });
            } else {
                // The sample pins the range for its lifetime; no memcpy.
                let sample = ZeroCopySample::new(sample, segments, range.clone());
                self.tel.cache_pins.inc();
                batch.pinned.push(sample);
                self.account_delivery(idx, entry.len(), batch);
            }
            batch.dispatched += 1;
        }
        if !run.is_empty() {
            rt.work(costs.copy_dispatch);
            batch.runs.push((first, rt.now()));
            self.shared.copy.submit_run(run)?;
        }
        Ok(batch.dispatched - first)
    }

    /// Account one sample of `idx`, `bytes` long, landed in `batch`; release
    /// its item when fully drained. `EpochScoped`: chunks go back to the
    /// pool (or, if zero-copy samples still pin them, when the last pin
    /// drops). `CrossEpoch`: the range joins the evictable LRU tail and may
    /// serve the next epoch without device I/O.
    fn account_delivery(&mut self, idx: u32, bytes: u64, batch: &mut Batch) {
        self.tel.samples_delivered.inc();
        self.tel.bytes_delivered.add(bytes);
        batch.received += 1;
        let (st, shared) = self.split();
        let item = &mut st.items[idx as usize];
        item.copies_done += 1;
        if item.copies_done == item.samples_total {
            // Drops the engine's pin; what samples still hold are theirs.
            st.open.remove(&idx);
            let it = &st.plan.items[idx as usize];
            shared.cache.release(shared.rkey(it.nid, it.offset));
            for &s in &it.samples {
                shared.dir.set_valid(s, false);
            }
        }
    }

    /// Account a finished copy — retiring its item when fully drained — and
    /// land it in its result slot.
    pub(super) fn finish_copy(
        &mut self,
        rt: &Runtime,
        copy: (u64, u32, Vec<u8>),
        batch: &mut Batch,
    ) {
        let (tag, sample, data) = copy;
        let idx = (tag >> 32) as u32;
        let slot = (tag & 0xFFFF_FFFF) as usize;
        self.account_delivery(idx, data.len() as u64, batch);
        // The run that holds `slot` is the last one starting at or before it.
        let run = batch.runs.partition_point(|&(first, _)| first <= slot) - 1;
        self.tel.copy_ns.record_dur(rt.now() - batch.runs[run].1);
        batch.copied[slot] = Some((sample, data));
    }

    /// Execute a [`ReadRequest`] against the current epoch plan: the one
    /// batched-read entry point, whatever the delivery.
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
        // then a WFQ device-slot grant, charged to the handle's tenant. The
        // slot is held for the whole batch and released below even on error.
        let qos = self.shared.qos.clone();
        let grant = match &qos {
            Some(q) => Some((q, q.admit(rt, self.shared.tenant, q.batch_cost(want))?)),
            None => None,
        };
        let outcome = if req.offload {
            self.run_offload(rt, want, req).map(Completions::copied)
        } else {
            self.claim_epoch_path(false)
                .and_then(|()| self.run_engine(rt, want, req))
        };
        if let Some((q, grant)) = grant {
            let delivered = outcome.as_ref().map(|b| b.len()).unwrap_or(0);
            q.complete(grant, delivered as u64, q.batch_cost(delivered));
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
    pub(super) fn claim_epoch_path(&mut self, offload: bool) -> Result<(), DlfsError> {
        let st = self.split().0;
        if *st.offloaded.get_or_insert(offload) == offload {
            return Ok(());
        }
        Err(DlfsError::Config(
            "one epoch is served by one path: offloaded and client-path batches \
             cannot be mixed before the next sequence()"
                .into(),
        ))
    }

    /// The engine loop (prep → post → poll → copy): pump, poll, deliver,
    /// collect, under one deadline / failure / stall policy. Copied and
    /// zero-copy batches differ only in the deliver step.
    fn run_engine(
        &mut self,
        rt: &Runtime,
        want: usize,
        req: &ReadRequest,
    ) -> Result<Completions, DlfsError> {
        let copied = req.delivery == Delivery::Copied;
        let mut batch = Batch {
            want,
            copy: copied,
            runs: Vec::new(),
            copied: vec![None; if copied { want } else { 0 }],
            pinned: Vec::new(),
            dispatched: 0,
            received: 0,
        };
        while batch.received < want {
            let past = |now| req.deadline.is_some_and(|dl| now >= dl);
            let mut expired = past(rt.now());
            if self.failed.is_none() && expired && batch.received == batch.dispatched {
                // Past the deadline with nothing outstanding: return short.
                break;
            }
            let Some(pumped) = self.pump(rt) else {
                // Drain the copies already dispatched (never tear a
                // sample), then stop. A fatal I/O failure surfaces as the
                // error. A starved pump — every chunk pinned by samples
                // the caller still holds — ends the batch short with what
                // was delivered, or `CacheExhausted` if that is nothing;
                // the epoch resumes once pins drop.
                while batch.received < batch.dispatched {
                    self.collect(rt, true, Some(&mut batch))?;
                }
                match self.failed.clone() {
                    Some(e) => return Err(e),
                    None if batch.received == 0 => return Err(DlfsError::CacheExhausted),
                    None => break,
                }
            };
            let mut progress = pumped + self.poll(rt);
            loop {
                if !expired {
                    progress += self.deliver(rt, &mut batch)?;
                }
                if expired || batch.dispatched == want || self.checks_out == 0 {
                    break;
                }
                // The pass came up short with verdicts outstanding: what
                // the next one makes resident is worth more than another
                // spin of the poll loop.
                progress += self.collect(rt, true, Some(&mut batch))?;
                expired = past(rt.now());
            }
            // The whole batch is with the copy pool: collect it as it was
            // published, in one blocking wait.
            while batch.dispatched == want && batch.received < want {
                self.collect(rt, true, Some(&mut batch))?;
            }
            // Collect what the pool has answered meanwhile — or, with
            // answers outstanding and nothing else to do, its next one.
            let idle = progress == 0 && (batch.dispatched > batch.received || self.checks_out > 0);
            progress += self.collect(rt, idle, Some(&mut batch))?;
            if progress > 0 || batch.received >= want {
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
            // Spin the poll loop forward to the next event — a completion,
            // a delayed part's retry instant or a hedge coming due (busy
            // polling, so it's CPU time).
            let Some(t) = self.next_engine_event() else {
                // Nothing on a device, nothing with the copy pool, nothing
                // deliverable: the engine lost track of a part, for good.
                let stalled = DlfsError::Stalled(self.shared.reader_id);
                return Err(self.failed.insert(stalled).clone());
            };
            self.advance_to(rt, t);
        }
        Ok(if copied {
            Completions::copied(batch.copied.into_iter().flatten().collect())
        } else {
            Completions::zero_copy(batch.pinned)
        })
    }

    /// Earliest completion instant across every qpair: each is asked for
    /// its own (a heap peek; a handle has one qpair per storage node).
    fn next_completion(&self) -> Option<Time> {
        let next = self.qpairs.iter().filter_map(|q| q.next_completion_at());
        next.min()
    }

    /// Earliest instant at which the engine can make progress again: a
    /// device completion or a delayed retry becoming due.
    fn next_engine_event(&self) -> Option<Time> {
        let next_dev = self.next_completion();
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
        self.tel.wakeups.inc();
        if self.qpairs.iter().all(|q| q.outstanding() == 0) {
            // Nothing in flight: the reactor parks. The idle gap goes to
            // background scrubbing and rebuild first (untimed bookkeeping
            // — a housekeeping thread, not reactor CPU).
            self.background.idle_gap();
            self.tel.parked_ns.add((t - now).as_nanos());
            rt.sleep_until(t);
        } else {
            rt.work_until(t);
        }
    }

    // ------------------------------------------------- background healing --
    //
    // Scrub and rebuild execution live in [`Background`]; the handle only
    // forwards (and lends its idle gaps, see `advance_to`).

    /// One full background-scrub sweep over every node's data region:
    /// verify every covered block and repair what a healthy replica can
    /// provide. Returns the number of blocks scrubbed. Exposed for tests
    /// and the fsck/CI tooling; the engine otherwise scrubs incrementally
    /// during idle reactor gaps (config `scrub`).
    pub fn scrub_pass(&mut self) -> u64 {
        self.background.scrub_pass()
    }

    /// Start automated re-replication of storage node `node` after a
    /// permanent loss: enumerate every replica slot the node hosted
    /// (`RebuildPlan::for_dead_node`) and copy each block back
    /// from a surviving verified replica, `rebuild_gap_blocks` per idle
    /// reactor gap (call [`DlfsIo::drive_rebuild`] to finish
    /// synchronously). The replacement device — the revived node, or a
    /// fresh one mounted under the same index — must be attached and
    /// serving writes first. Returns the total blocks to rebuild; a typed
    /// configuration error without `replicas >= 2` and a membership policy.
    pub fn begin_rebuild(&mut self, node: u16) -> Result<u64, DlfsError> {
        self.background.begin_rebuild(node)
    }

    /// Is a node rebuild still in flight?
    pub fn rebuild_active(&self) -> bool {
        self.background.rebuild_active()
    }

    /// Blocks the in-flight rebuild has not walked yet (0 when idle).
    pub fn rebuild_remaining(&self) -> u64 {
        self.background.rebuild_remaining()
    }

    /// Walk up to `budget` blocks of the in-flight rebuild — the same
    /// slice the engine takes per idle reactor gap, exposed so tests and
    /// the `ext_rebuild` bench can interleave rebuild progress with
    /// foreground work (or mid-rebuild faults) at a controlled pace.
    pub fn rebuild_step(&mut self, budget: u64) -> u64 {
        self.background.rebuild_blocks(budget)
    }

    /// Run the in-flight rebuild to completion in one call (tests, the
    /// `ext_rebuild` bench, and operators who want redundancy back *now*
    /// rather than trickled through idle gaps). Returns blocks walked.
    pub fn drive_rebuild(&mut self) -> u64 {
        self.background.drive_rebuild()
    }

    // -------------------------------------------------- synchronous reads --

    /// `dlfs_read` by name: synchronous single-sample read (the DLFS-Base
    /// configuration of Fig. 6). Checks the V field, then fetches the
    /// sample's covering blocks and waits for completion.
    pub fn read(&mut self, rt: &Runtime, name: &str) -> Result<Vec<u8>, DlfsError> {
        let costs = self.shared.cfg.costs.clone();
        let (id, _) = self
            .shared
            .dir
            .lookup(rt, &costs, name)
            .ok_or_else(|| DlfsError::NotFound(name.to_string()))?;
        self.read_copied(rt, id, None)
    }

    /// `dlfs_read` by sample id (no name lookup).
    pub fn read_by_id(&mut self, rt: &Runtime, id: u32) -> Result<Vec<u8>, DlfsError> {
        self.read_copied(rt, id, None)
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
        self.read_copied(rt, id, Some(deadline))
    }

    /// The copied synchronous read: move the sample out of its range
    /// through the copy pool into a fresh application buffer, and account
    /// the delivery. The range is let go once the copy has landed.
    fn read_copied(
        &mut self,
        rt: &Runtime,
        id: u32,
        deadline: Option<Time>,
    ) -> Result<Vec<u8>, DlfsError> {
        let (_range, segments, hit) = self.sync_read(rt, id, deadline)?;
        if hit {
            self.tel.cache_pins.inc();
        }
        // One copy and one answer: a channel of its own, so the read
        // need not sift the engine's verdicts for it.
        let (done, copied) = rt.channel(None);
        let t_copy = rt.now();
        rt.work(self.shared.cfg.costs.copy_dispatch);
        self.shared.copy.submit(CopyJob {
            tag: 0,
            sample: 0,
            segments,
            done,
        })?;
        let Ok(CopyDone::Copy { data, .. }) = copied.recv() else {
            return Err(DlfsError::CopyPoolDown);
        };
        self.tel.samples_delivered.inc();
        self.tel.bytes_delivered.add(data.len() as u64);
        self.tel.copy_ns.record_dur(rt.now() - t_copy);
        Ok(data)
    }

    /// `dlfs_read` by sample id, zero-copy: the returned sample references
    /// pinned sample-cache chunks directly. On a warm cache this path does
    /// no memcpy and no heap allocation — the segment list stays inline
    /// and the pin is a reference count. The chunks return to the pool (or
    /// become evictable on the cross-epoch LRU tail) when the sample drops.
    pub fn read_zero_copy(&mut self, rt: &Runtime, id: u32) -> Result<ZeroCopySample, DlfsError> {
        let (range, segments, _) = self.sync_read(rt, id, None)?;
        rt.work(self.shared.cfg.costs.frontend_per_sample);
        self.tel.cache_pins.inc();
        self.tel.samples_delivered.inc();
        let sample = ZeroCopySample::new(id, segments, range.share());
        self.tel.bytes_delivered.add(sample.len() as u64);
        Ok(sample)
    }

    /// Post every due (re)submission of a synchronous fetch, first queued
    /// first, stopping at qpair backpressure.
    fn sync_post_due(&mut self, rt: &Runtime, f: &mut SyncFetch) {
        while let Some(i) = f.waiting.iter().position(|&(_, at)| at <= rt.now()) {
            let p = f.waiting[i].0;
            let io = self.part_io(f.nid, f.slba, f.nblocks, p.part, &f.bufs);
            let (replica, dev, slba) = self.route_part(rt, &io, p.replica);
            let owner = Owner::Sync(Part { replica, ..p });
            if self.post_part(rt, dev, slba, &io, owner, None).is_none() {
                break; // queue full: poll completions, then retry
            }
            f.waiting.remove(i);
        }
    }

    /// Synchronously fetch `nblocks` device blocks starting at `slba` of
    /// node `nid` into freshly allocated sample-cache chunks.
    ///
    /// The parts go through the same post / verify / settle steps as the
    /// batched engine's; what differs is the wait: this loop polls only
    /// the devices that can serve the range, charges one poll iteration
    /// per pass and records the whole wait as one poll stage. It harvests
    /// (and routes) any batched-engine or prefetcher strays that complete
    /// meanwhile. On retry exhaustion the buffers go back to the pool once
    /// the commands still in flight have drained (SPDK cannot cancel a
    /// submitted command).
    fn fetch_range(
        &mut self,
        rt: &Runtime,
        nid: u16,
        slba: u64,
        nblocks: u32,
        deadline: Option<Time>,
    ) -> Result<Vec<DmaBuf>, DlfsError> {
        let costs = self.shared.cfg.costs.clone();
        // Under a codec `nblocks` is the encoded prefix of one stored
        // frame; the allocation must still cover the frame's raw extent so
        // the caller can decode it in place.
        let (_, _, bytes) = self.read_geometry(nid, slba * BLOCK_SIZE, nblocks as u64 * BLOCK_SIZE);
        // A momentarily full pool is waited out, as the batched path
        // parks and retries after releases.
        let bufs = self
            .alloc_backoff(rt, bytes, deadline)
            .ok_or(DlfsError::CacheExhausted)?;
        // Devices that may serve this range (home + replicas): the poll
        // loop below must harvest all of them once reads fail over.
        let red = &self.shared.redundancy;
        let devs: Vec<usize> = (0..red.replicas)
            .map(|r| red.route(nid, r, slba).0 as usize)
            .collect();
        let mut left = bufs.len();
        let mut f = SyncFetch {
            nid,
            slba,
            nblocks,
            waiting: (0..left as u32)
                .map(|part| (Part::first(0, part), Time::ZERO))
                .collect(),
            bufs,
        };
        let mut fatal: Option<DlfsError> = None;
        self.sync_post_due(rt, &mut f);
        // Poll until all parts complete, resubmitting failed commands under
        // the retry policy. Empty polls advance straight to the next known
        // event (device completion or retry instant) instead of spinning
        // toward it.
        let t_poll = rt.now();
        let mine = |c: &Cmd| matches!(c.owner, Owner::Sync(_));
        while (left > 0 && fatal.is_none()) || self.cmds.values().any(mine) {
            if fatal.is_none() {
                self.sync_post_due(rt, &mut f);
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
                    .filter_map(|&d| self.qpairs[d].next_completion_at());
                let next_retry = f.waiting.iter().map(|&(_, at)| at);
                if let Some(t) = next_dev.chain(next_retry).min() {
                    self.advance_to(rt, t);
                }
                continue;
            }
            self.tel.scq_drains.inc();
            self.tel.scq_drain_batch.record(comps.len() as u64);
            for c in &comps {
                rt.work(costs.per_completion);
                self.tel.completions.inc();
                // Not ours — the batched engine and its prefetcher share
                // these qpairs — is settled by the router (a failed engine
                // part is re-queued for retry) or staged for the pool.
                let Some((p, Cmd { io, twin, .. })) = self.complete(rt, c) else {
                    continue;
                };
                // One range in flight and nothing to overlap its check
                // with: this thread pays for it, as it waits for it.
                let (landed, cost) = self.judge(&io, c.status);
                if !cost.is_zero() {
                    rt.work(cost);
                }
                match self.settle_part(rt, p, &io, twin, landed, io.slba * BLOCK_SIZE) {
                    Settled::Done => left -= 1,
                    Settled::Twin => {}
                    Settled::Requeue { part, not_before } => {
                        f.waiting.push((part, not_before.unwrap_or(rt.now())));
                    }
                    Settled::Fatal(e) => {
                        fatal.get_or_insert(e);
                        f.waiting.clear();
                    }
                }
            }
            self.publish_checks(rt);
        }
        self.tel.poll_ns.record_dur(rt.now() - t_poll);
        if let Some(e) = fatal {
            for b in f.bufs {
                self.shared.cache.free_raw(b);
            }
            return Err(e);
        }
        Ok(f.bufs)
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

    /// The synchronous read: find or fetch the range holding sample `id`.
    /// Returns the range, the sample's segments within it, and whether it
    /// was resident.
    ///
    /// Probe (paper §III-C1: "we first check the sample entry and return
    /// the data if the V field is on" — the residency map is asked
    /// directly, since a cross-epoch release clears the V field while the
    /// extent still sits on the LRU tail): a hit pins the resident range.
    /// Miss: fetch through [`DlfsIo::fetch_range`] and decode. Cross-epoch,
    /// the extent is then parked on the evictable LRU tail — unless the
    /// batched engine published it while this read polled — so later reads
    /// of the sample or its extent neighbors skip the device; otherwise the
    /// fetch stays this read's own and its chunks go home with it.
    fn sync_read(
        &mut self,
        rt: &Runtime,
        id: u32,
        deadline: Option<Time>,
    ) -> Result<(SyncRange, SegList, bool), DlfsError> {
        if id as usize >= self.shared.dir.len() {
            return Err(DlfsError::BadSampleId(id));
        }
        let entry = self.shared.dir.entry(id);
        // No batch deadline applies to engine retries harvested while this
        // synchronous read drains the shared qpairs.
        self.current_deadline = None;
        let cross = self.shared.cfg.cache_mode == CacheMode::CrossEpoch;
        let chunk = self.shared.cfg.chunk_size as usize;
        let (key, base, (off, len)) = self.sync_geometry(id, entry);
        if let Some((range, prefetched)) = self.shared.cache.pin(key, false) {
            debug_assert!(
                entry.offset() + entry.len() <= key.1 + range.bytes(),
                "a resident range is its samples' whole extent"
            );
            self.tel.cache_hits.inc();
            if prefetched {
                self.tel.prefetch_hits.inc();
            }
            if cross {
                self.tel.ce_hits.inc();
            }
            let within = (entry.offset() - base) as usize;
            let segments = segments_at(range.bufs(), chunk, within, entry.len() as usize);
            return Ok((SyncRange::Resident(range), segments, true));
        }
        self.tel.cache_misses.inc();
        if cross {
            self.tel.ce_misses.inc();
        }
        let nid = entry.nid();
        let (slba, nblocks, _) = self.read_geometry(nid, off, len);
        let bufs = self.fetch_range(rt, nid, slba, nblocks, deadline)?;
        let head = (entry.offset() - slba * BLOCK_SIZE) as usize;
        let segments = segments_at(&bufs, chunk, head, entry.len() as usize);
        let cache = &self.shared.cache;
        let range = if cross && !cache.contains(key) {
            let range = cache.publish(key, bufs, len, false);
            cache.release(key);
            self.report_residency(0);
            SyncRange::Resident(range)
        } else {
            SyncRange::Own(cache.wrap(bufs, len))
        };
        Ok((range, segments, false))
    }
}

/// The range a synchronous read serves its sample from.
enum SyncRange {
    /// Resident: a pin on the cache's range (a hit, or a miss just parked).
    Resident(Arc<CachedRange>),
    /// This read's own fetch, published nowhere — held by value, so the
    /// copied read of an epoch-scoped mount never allocates for it.
    Own(CachedRange),
}

impl SyncRange {
    /// The pin a zero-copy sample holds.
    fn share(self) -> Arc<CachedRange> {
        match self {
            SyncRange::Resident(range) => range,
            SyncRange::Own(range) => Arc::new(range),
        }
    }
}

/// A handle dropped mid-epoch returns its open window to the shared pool.
impl Drop for DlfsIo {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // An unwinding thread cannot wait: the run is over.
            self.checks_out = 0;
        }
        self.teardown(None);
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::IoFailure::{Media, Timeout};
    use crate::{Deployment, MountBuilder, SyntheticSource};
    use blocksim::{DeviceConfig, FaultInjector, NvmeDevice};
    use simkit::retry::RetryPolicy;

    #[test]
    fn part_span_tiles_a_fetch_with_one_short_tail() {
        for per_part in [1u32, 8, 16, 512] {
            for nblocks in 1..=3 * per_part + 1 {
                let parts = nblocks.div_ceil(per_part);
                let mut next = 100u64;
                for part in 0..parts {
                    let (slba, n) = part_span(100, nblocks, per_part, part);
                    assert_eq!(slba, next);
                    assert!(n == per_part || (part == parts - 1 && (1..per_part).contains(&n)));
                    next += n as u64;
                }
                assert_eq!(next, 100 + nblocks as u64, "{nblocks} blocks by {per_part}");
            }
        }
        // A coded frame: 3 encoded blocks read into the 16-block chunk
        // allocated for its raw extent are one short part.
        assert_eq!(part_span(40, 3, 16, 0), (40, 3));
    }

    /// Reader 0 of `readers` over `devices`, a small dataset staged.
    fn mount_on(
        rt: &Runtime,
        cfg: DlfsConfig,
        devices: &[Arc<NvmeDevice>],
        readers: usize,
    ) -> DlfsIo {
        let targets = devices.iter().map(|d| d.clone() as Arc<dyn NvmeTarget>);
        let deployment = Deployment {
            targets: vec![targets.collect(); readers],
            cluster: None,
        };
        let source = SyntheticSource::fixed(8, 300, 2048);
        let fs = MountBuilder::new(cfg).deployment(deployment);
        fs.mount(rt, &source).unwrap().io(0)
    }

    /// Every path that enters a record in the command table takes it out
    /// again: faulted, replicated, verified, hedged cross-epoch epochs
    /// with the prefetcher on (two readers: each epoch deals this one
    /// ranges it does not hold), drained and then replaced, leave nothing.
    #[test]
    fn a_drained_and_replaced_epoch_leaves_the_handle_quiescent() {
        Runtime::simulate(12, |rt| {
            let ramdisk = |us| DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(us));
            let devices = [500, 10].map(|us| NvmeDevice::new(ramdisk(us)));
            let cfg = DlfsConfig {
                chunk_size: 8 * 1024,
                replicas: 2,
                verify_reads: true,
                hedge_reads: true,
                cache_mode: CacheMode::CrossEpoch,
                prefetch_window: 8,
                ..DlfsConfig::default()
            };
            let mut io = mount_on(rt, cfg, &devices, 2);
            let faults = FaultInjector::new(31).with_bit_flips(0, 40);
            devices[1].set_faults(faults.with_read_failures(20_000));
            for epoch in 0..2 {
                io.sequence(rt, 43, epoch);
                let end = std::iter::repeat_with(|| io.submit(rt, &ReadRequest::batch(32)))
                    .find_map(Result::err);
                assert_eq!(end, Some(DlfsError::EpochExhausted));
                // Every demand part settled; only prefetches are still out.
                let demand = |c: &&Cmd| !matches!(c.owner, Owner::Prefetch { .. });
                assert_eq!(io.cmds.values().filter(demand).count(), 0, "epoch {epoch}");
            }
            let m = io.metrics();
            for c in [
                "integrity.hedges",
                "integrity.mismatches",
                "cache.prefetch_issued",
            ] {
                assert_ne!(m.counter(&format!("dlfs.{c}")), 0, "no {c}");
            }
            io.sequence(rt, 43, 2);
            assert_eq!((io.cmds.len(), io.staged.len(), io.checks_out), (0, 0, 0));
            let cache = &io.shared.cache;
            let held = cache.total_chunks() - cache.free_chunks() - cache.resident_chunks();
            assert_eq!(held, 0, "chunks neither free nor resident");
        });
    }

    /// Each qpair is asked for its next completion: one harvested, one
    /// whose command was cancelled and discarded, one still pending.
    #[test]
    fn next_completion_is_the_earliest_pending_commands() {
        Runtime::simulate(5, |rt| {
            let devices = [0; 3].map(|_| NvmeDevice::new(DeviceConfig::optane(16 << 20)));
            let mut io = mount_on(rt, DlfsConfig::default(), &devices, 1);
            assert_eq!(io.next_completion(), None);
            for (q, nblocks) in [(0, 1), (1, 1), (2, 1024)] {
                let buf = DmaBuf::standalone(nblocks as usize * BLOCK_SIZE as usize);
                let posted = io.qpairs[q].submit_read(rt, q as u64, 0, nblocks, buf, 0);
                assert_eq!(posted, Ok(()));
            }
            // (A qpair with nothing pending would fail the next assert.)
            let due = [0, 1, 2].map(|q| io.qpairs[q].next_completion_at().unwrap_or(rt.now()));
            assert_eq!(io.next_completion(), Some(due[0].min(due[1])));
            io.qpairs[1].cancel(1);
            rt.work_until(due[0].max(due[1]));
            assert_eq!(io.qpairs[0].process_completions(rt, usize::MAX).len(), 1);
            assert_eq!(io.qpairs[1].process_completions(rt, usize::MAX).len(), 0);
            assert_eq!(io.next_completion(), Some(due[2]));
            rt.work_until(due[2]);
            assert_eq!(io.qpairs[2].process_completions(rt, usize::MAX).len(), 1);
            assert_eq!(io.next_completion(), None);
        });
    }

    /// Every way a completion can settle: status x checksum x replicas x
    /// retry budget, with the outcome, the counters and the exact error.
    #[test]
    fn settle_part_table() {
        use CmdStatus::{MediaError, Ok as Good, TransportError};
        Runtime::simulate(5, |rt| {
            for (replicas, status, clean, budget) in [1usize, 2]
                .into_iter()
                .flat_map(|r| [Good, MediaError, TransportError].map(|s| (r, s)))
                .flat_map(|(r, s)| [true, false].map(|c| (r, s, c)))
                .flat_map(|(r, s, c)| [true, false].map(|b| (r, s, c, b)))
            {
                let case = format!("replicas={replicas} {status:?} clean={clean} budget={budget}");
                let devices = [0; 2].map(|_| NvmeDevice::new(DeviceConfig::optane(16 << 20)));
                let cfg = DlfsConfig {
                    replicas,
                    verify_reads: true,
                    retry: RetryPolicy {
                        max_attempts: 3,
                        ..RetryPolicy::default()
                    },
                    ..DlfsConfig::default()
                };
                let mut io = mount_on(rt, cfg, &devices, 1);
                // Block 0 of node 0 as staged. "Unclean" is a flipped bit
                // when the command delivers bytes, and a checksum failure
                // on an earlier attempt when it delivers none.
                let buf = io.shared.cache.alloc_for(BLOCK_SIZE).0.unwrap().remove(0);
                let mut blk = vec![0u8; BLOCK_SIZE as usize];
                io.shared.targets[0].dma_read(0, &mut blk);
                blk[9] ^= (!clean && status.is_ok()) as u8;
                buf.with_mut(|d| d[..blk.len()].copy_from_slice(&blk));
                let p = Part {
                    attempt: if budget { 0 } else { 2 },
                    mismatched: !clean && !status.is_ok(),
                    ..Part::first(3, 1)
                };
                let part_io = PartIo {
                    home: 0,
                    slba: 0,
                    nblocks: 1,
                    buf,
                };
                let landed = io.judge(&part_io, status).0;
                let got = io.settle_part(rt, p, &part_io, None, landed, 4242);

                let failed = !status.is_ok() || !clean;
                let cause = [Media, Timeout][(status == TransportError) as usize];
                let want = match (failed, budget) {
                    (false, _) => Settled::Done,
                    (true, true) => Settled::Requeue {
                        part: Part {
                            attempt: 1,
                            replica: (replicas > 1) as u32,
                            mismatched: !clean,
                            ..p
                        },
                        not_before: (replicas == 1).then(|| rt.now() + Dur::micros(20)),
                    },
                    (true, false) if clean => Settled::Fatal(DlfsError::Io {
                        target: 0,
                        attempts: 3,
                        cause,
                    }),
                    (true, false) => Settled::Fatal(DlfsError::Corrupt {
                        chunk: 4242,
                        tried: 3,
                        cause: if status.is_ok() {
                            CorruptCause::Checksum
                        } else {
                            CorruptCause::Io(cause)
                        },
                    }),
                };
                assert_eq!(got, want, "{case}");
                let m = io.metrics();
                let requeued = (failed && budget) as u64;
                for (name, count) in [
                    ("dlfs.io.retries", requeued),
                    ("dlfs.io.timeouts", (status == TransportError) as u64),
                    ("dlfs.integrity.verified", status.is_ok() as u64),
                    (
                        "dlfs.integrity.mismatches",
                        (status.is_ok() && !clean) as u64,
                    ),
                    ("dlfs.integrity.failovers", requeued * (replicas as u64 - 1)),
                    ("dlfs.integrity.repairs", 0),
                ] {
                    assert_eq!(m.counter(name), count, "{case}: {name}");
                }
            }
        });
    }
}
