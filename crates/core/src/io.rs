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
//! `settle_part`. The batched engine, the prefetcher and the synchronous
//! reads are callers of those steps; they differ only in what they queue
//! and whose thread pays for the check: the copy pool's for engine parts
//! and prefetches, the caller's for a synchronous read. Both demand paths
//! queue their parts on the handle's one retry queue and wait in the one
//! reactor loop: post pass, `poll`, advance (see DESIGN.md §3).
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

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use blocksim::{covering_blocks, CmdStatus, DmaBuf, NvmeTarget, QpairError, BLOCK_SIZE};
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
use crate::integrity::{Redundancy, Verdict};
use crate::plan::{fetch_extent, reader_items, Extents, FetchItem};
use crate::rebuild::Background;
use crate::request::{Completions, Delivery, ReadRequest};
use crate::writer::io_failure;
use crate::zerocopy::ZeroCopySample;
use crate::{cache::SampleCache, copy::CopyPool};

/// More of `impl DlfsIo`, each in its own file: the callers of the part
/// lifecycle below — the batched engine, the prefetcher, the synchronous
/// reads, the storage-side offload path — the check stage (harvested →
/// settled), and the telemetry handles; and the reactor, which owns the
/// handle's qpairs and every wait on them.
#[path = "check.rs"]
mod check;
#[path = "engine.rs"]
mod engine;
#[path = "offload.rs"]
mod offload;
#[path = "prefetch.rs"]
mod prefetch;
#[path = "reactor.rs"]
pub(crate) mod reactor;
#[path = "sync.rs"]
mod sync;
#[path = "tel.rs"]
mod tel;

use engine::*;
use prefetch::*;
use reactor::{hybrid_wait, ForegroundReads, Reactor};
use tel::*;

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
    /// The instance's read commands in flight per storage node, kept by
    /// every handle's reactor: what checkpoint appends yield to.
    pub(crate) fg_reads: Arc<ForegroundReads>,
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

/// One demand part — the chunk-sized piece `part` of fetch item `idx`, or
/// of the synchronous read in progress (`sync`; `idx` 0) — queued or in
/// flight: failed submissions so far, and the replica that serves it (in
/// flight) or is preferred for it (queued).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Part {
    idx: u32,
    part: u32,
    sync: bool,
    attempt: u32,
    replica: u32,
    /// Delivered bytes of this part failed checksum verification at least
    /// once: a verified success from a replica then read-repairs the home
    /// extent, and retry exhaustion surfaces `Corrupt` instead of a plain
    /// I/O error.
    mismatched: bool,
}

impl Part {
    /// Part `part` of item `idx` or of the synchronous read, never tried,
    /// home copy preferred.
    fn first(idx: u32, part: u32, sync: bool) -> Part {
        Part {
            idx,
            part,
            sync,
            attempt: 0,
            replica: 0,
            mismatched: false,
        }
    }
}

/// What a device command is for.
enum Owner {
    /// A part of one of the epoch's fetch items or of the synchronous read.
    Demand(Part),
    /// A prefetch of range `key` (`len` bytes once published).
    Prefetch { key: RangeKey, len: u64 },
}

/// One device command, from post to settle: the one record of its fate.
/// Every harvest (`poll`) and every verdict collected ask
/// [`DlfsIo::cmds`] whose command it holds.
/// Whoever settles a command takes its record out first; besides that,
/// `abort_epoch` removes the epoch's demand parts' (discarded unsettled)
/// and `teardown` what is left.
struct Cmd {
    owner: Owner,
    /// What it reads and the chunk it lands in, fixed at post.
    io: PartIo,
    /// `None` on a device. Harvested with payload work: with the copy pool
    /// — the instant its run was published and what it landed. Until the
    /// pool answers, its chunk is the pool's to read.
    pool: Option<(Time, check::Landed)>,
}

/// What one part reads: `nblocks` blocks from `slba` in its home node's
/// coordinates (replica routing translates them), into the cache chunks
/// `bufs` it fills. The command lands in `bufs[0]`; under a codec the
/// blocks are the stored bytes of a run of `frames`, the n-th decoding
/// into `bufs[n]`.
#[derive(Clone)]
struct PartIo {
    home: u16,
    slba: u64,
    nblocks: u32,
    bufs: Vec<DmaBuf>,
    frames: Vec<Frame>,
}

/// Where a fetch range is read from and what it lands in
/// ([`DlfsIo::read_geometry`]).
#[derive(Clone)]
struct ReadGeometry {
    /// Raw address the first fetched byte stands for: the offsets of the
    /// range's samples count from it.
    base: u64,
    /// Device blocks read, in the home node's coordinates.
    slba: u64,
    nblocks: u32,
    /// Cache bytes the range lands in.
    alloc: u64,
    /// The run of stored frames read, under a codec.
    frames: Vec<Frame>,
}

impl ReadGeometry {
    /// Device commands the range is read in: one per `per_part` blocks.
    fn parts(&self, per_part: u32) -> u32 {
        self.nblocks.div_ceil(per_part)
    }
}

/// Blocks `(first, count)` of part `part` of a fetch of `nblocks` blocks
/// at `slba`, cut into parts of `per_part` blocks (one cache chunk each);
/// the last part may be short. Under a codec the fetch is the stored bytes
/// of one run of frames, which fit one chunk however many chunks their raw
/// extents are allocated — exactly one part.
fn part_span(slba: u64, nblocks: u32, per_part: u32, part: u32) -> (u64, u32) {
    let start = part * per_part;
    (slba + start as u64, (nblocks - start).min(per_part))
}

/// How a completed part settled ([`DlfsIo::settle_part`]).
#[derive(Debug, PartialEq)]
enum Settled {
    /// Verified bytes are in the part's chunk.
    Done,
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

/// A per-thread DLFS I/O handle.
pub struct DlfsIo {
    shared: Arc<DlfsShared>,
    /// The instance's batching mode, resolved once against the directory
    /// (`BatchMode::Auto` depends on the mean sample size): the planner,
    /// the prefetcher and the synchronous paths must agree on it, since it
    /// decides every sample's fetch extent and hence its cache key.
    mode: BatchMode,
    /// Its qpairs and how it waits on them.
    reactor: Reactor,
    epoch: Option<EpochState>,
    /// Demand parts awaiting qpair submission, the epoch's and the
    /// synchronous read's alike, each with what it reads.
    pending_parts: VecDeque<(Part, PartIo)>,
    /// Failed demand parts waiting out their retry backoff, by readiness
    /// instant and insertion sequence (same-instant pops stay in order).
    delayed_parts: BTreeMap<(Time, u64), (Part, PartIo)>,
    delay_seq: u64,
    /// The synchronous read in progress (`fetch_range`): its parts not yet
    /// done, and why it failed, if it did.
    sync_left: u32,
    sync_failed: Option<DlfsError>,
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
    /// Scrub and rebuild, run when the caller asks.
    background: Background,
    /// Fatal engine failure (a part exhausted its retry budget). Sticky
    /// until the epoch is replaced: the plan can no longer be completed.
    failed: Option<DlfsError>,
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
        let (qd, stats) = (shared.cfg.queue_depth, shared.cfg.reactor_stats);
        let reactor = Reactor::new(&shared.targets, qd, &shared.fg_reads, reg, stats);
        if let Some(m) = &shared.redundancy.membership {
            m.attach_telemetry(&reg.scoped("dlfs.membership"));
        }
        let io = DlfsIo {
            tel: IoTelemetry::new(reg, &shared),
            background: Background::new(shared.clone(), reg),
            registry: reg.clone(),
            mode: shared.cfg.effective_mode(shared.dir.avg_sample_bytes()),
            shared,
            reactor,
            epoch: None,
            pending_parts: VecDeque::new(),
            delayed_parts: BTreeMap::new(),
            delay_seq: 0,
            sync_left: 0,
            sync_failed: None,
            cmds: HashMap::new(),
            next_cmd: 1,
            answers: None,
            staged: Vec::new(),
            checks_out: 0,
            failed: None,
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

    /// Abandon the current epoch: wait out in-flight device commands (SPDK
    /// cannot cancel a submitted command), drop its queued parts and
    /// release every sample-cache range the plan still holds. Called by
    /// `sequence` when an epoch is replaced before being fully consumed.
    fn abort_epoch(&mut self, rt: &Runtime) {
        // A demand part is discarded unsettled, on a device or with the
        // copy pool (`teardown` returns its chunk); a prefetch completes as
        // usual, publishing its range or returning its chunk. Every
        // command is drained by poll passes, as in any other wait, and
        // every verdict waited for.
        self.cmds
            .retain(|_, c| matches!(c.owner, Owner::Prefetch { .. }));
        self.pending_parts.clear();
        self.delayed_parts.clear();
        while let Some(spun) = self.wait_event(rt, None) {
            self.poll(rt, spun);
        }
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
                let cache = &self.shared.cache;
                cmd.io.bufs.into_iter().for_each(|b| cache.free_raw(b));
            }
        }
        let Some(st) = self.epoch.take() else {
            return; // only prefetches were outstanding
        };
        for (idx, open) in st.open {
            let it = &st.dealt[idx as usize];
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
        // A deal the prefetcher dealt during the previous epoch targeted
        // *this* one: run it rather than deal it again. Whatever it
        // already warmed is found by the demand probes.
        let dealt = self
            .prefetch
            .take(seed, epoch)
            .unwrap_or_else(|| self.dealt(seed, epoch));
        self.failed = None;
        let st = EpochState::new(seed, epoch, dealt, self.shared.reader_id);
        self.epoch.insert(st).total
    }

    /// This reader's share of the deal of epoch `epoch` of `seed`, in
    /// first-use order: what the engine runs and the prefetcher warms.
    fn dealt(&self, seed: u64, epoch: u64) -> Vec<FetchItem> {
        let (readers, reader) = (self.shared.readers, self.shared.reader_id);
        reader_items(&self.shared.dir, self.cut(), readers, seed, epoch, reader)
    }

    /// Samples remaining in the current epoch plan.
    pub fn remaining(&self) -> usize {
        self.epoch
            .as_ref()
            .map(|e| e.total - e.total_dispatched)
            .unwrap_or(0)
    }

    /// How this instance cuts its bytes into fetch items.
    fn cut(&self) -> Extents<'_> {
        Extents {
            chunk_size: self.shared.cfg.chunk_size,
            batching: self.mode,
            codec: self.shared.codec.as_deref(),
        }
    }

    /// Device-read geometry of the fetch range `(nid, offset, len)`. The
    /// historical path reads exactly the covering blocks. Under a codec the
    /// range is one run of stored frames: the blocks covering their stored
    /// bytes are read off the device, but the allocation covers the frames'
    /// full raw extents so that each decodes into its own chunk after
    /// verification, and the buffers stand for the frames' raw addresses.
    fn read_geometry(&self, nid: u16, offset: u64, len: u64) -> ReadGeometry {
        let Some(tables) = self.shared.codec.as_deref() else {
            let (slba, nblocks, _) = covering_blocks(offset, len);
            return ReadGeometry {
                base: slba * BLOCK_SIZE,
                slba,
                nblocks,
                alloc: nblocks as u64 * BLOCK_SIZE,
                frames: Vec::new(),
            };
        };
        let frames = tables.frames(nid, offset, len);
        let (first, last) = (frames[0], frames[frames.len() - 1]);
        let (slba, nblocks, _) = covering_blocks(first.at, last.end() - first.at);
        let raw_end = last.start + last.raw_len as u64;
        ReadGeometry {
            base: first.start,
            slba,
            nblocks,
            alloc: (raw_end - first.start).next_multiple_of(BLOCK_SIZE),
            frames,
        }
    }

    // ------------------------------------------------ the part lifecycle --

    /// Part `part` of the fetch `g` homed on `home`, landing in its chunk
    /// of `bufs` — the first, under a codec, whose frames decode into all.
    fn part_io(&self, home: u16, g: &ReadGeometry, part: u32, bufs: &[DmaBuf]) -> PartIo {
        let (slba, nblocks) = part_span(g.slba, g.nblocks, self.per_part(), part);
        // One chunk per frame of a run (exactly one part), else the part's.
        let bufs = bufs[part as usize..][..g.frames.len().max(1)].to_vec();
        PartIo {
            home,
            slba,
            nblocks,
            bufs,
            frames: g.frames.clone(),
        }
    }

    /// Blocks per part: one cache chunk's worth.
    fn per_part(&self) -> u32 {
        (self.shared.cfg.chunk_size / BLOCK_SIZE) as u32
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
    /// table as `owner`'s. Returns the command id, or `None` when the
    /// qpair is full — capacity is a bookkeeping check, but a blocked post
    /// still pays its prep+post (the charge the legacy engine paid for the
    /// rejected submit), unrecorded in the stage histograms.
    fn post_part(
        &mut self,
        rt: &Runtime,
        dev: usize,
        slba: u64,
        io: &PartIo,
        owner: Owner,
    ) -> Option<u64> {
        let t0 = rt.now();
        rt.work(self.shared.cfg.costs.prep_request);
        let t1 = rt.now();
        rt.work(self.shared.cfg.costs.post_request);
        let cmd = self.next_cmd;
        let posted = (self.reactor).submit(rt, dev, cmd, slba, io.nblocks, io.bufs[0].clone());
        if posted == Err(QpairError::QueueFull) {
            return None;
        }
        posted.expect("a part's chunk holds its blocks");
        self.tel.prep_ns.record_dur(t1 - t0);
        self.tel.post_ns.record_dur(rt.now() - t1);
        self.next_cmd += 1;
        self.tel.requests_posted.inc();
        let record = Cmd {
            owner,
            io: io.clone(),
            pool: None,
        };
        self.cmds.insert(cmd, record);
        Some(cmd)
    }

    /// Settle a completion of demand part `p` — its record already out of
    /// the table: verify the bytes, feed the serving target's health (a
    /// success or a failed command; a checksum mismatch leaves it be), and
    /// decide what happens to the part. A
    /// mismatch or device error fails straight over to the next replica
    /// when there is one, else backs off under the retry policy;
    /// exhaustion is `Corrupt` at `corrupt_at`
    /// if the part ever failed its checksum, `Io` otherwise.
    /// [`DlfsIo::demand_complete`] applies the outcome.
    fn settle_part(
        &mut self,
        rt: &Runtime,
        p: Part,
        io: &PartIo,
        landed: check::Landed,
        corrupt_at: u64,
    ) -> Settled {
        // A client part repairs only what a checksum caught.
        let repair = self.shared.redundancy.verify() && p.replica > 0 && p.mismatched;
        let verdict = match landed {
            Ok(ok) => self.check_part(io, ok, repair),
            Err(failed) => Err(CorruptCause::Io(io_failure(failed))),
        };
        // Delivered bytes that fail their checks mark the part, good ones
        // clear it; a failed command leaves the mark as it was.
        let mismatched = (landed.is_ok() || p.mismatched) && verdict.is_err();
        let red = &self.shared.redundancy;
        let serving = red.route(io.home, p.replica, io.slba).0 as usize;
        let Err(last) = verdict else {
            red.observe(serving, fabric::Outcome::Ok, rt.now());
            return Settled::Done;
        };
        // Failed command: device media error, fabric timeout, or delivered
        // bytes that failed their checksum or do not decode. Only a failed
        // command counts against the serving target's circuit. Bad bytes
        // are their extent's fault: the target answered, and routing around
        // it would leave the rest of its damage unread and so never
        // read-repaired.
        if let Err(status) = landed {
            let transport = status == CmdStatus::TransportError;
            self.tel.timeouts.add(transport as u64);
            red.observe(serving, status.into(), rt.now());
        }
        let attempts = p.attempt + 1;
        let Some(backoff) = self.shared.cfg.retry.next_delay(attempts) else {
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
        Settled::Requeue {
            part,
            not_before: Some(rt.now() + backoff),
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
    /// pool under the shared retry policy: bounded exponential backoff,
    /// parked (another thread's release or a dropped zero-copy sample may
    /// free chunks meanwhile; there is nothing to poll). `None` once the
    /// attempts are spent.
    fn alloc_backoff(&self, rt: &Runtime, bytes: u64) -> Option<Vec<DmaBuf>> {
        let mut failures = 0u32;
        loop {
            if let Some(bufs) = self.alloc(bytes) {
                return Some(bufs);
            }
            failures += 1;
            let backoff = self.shared.cfg.retry.next_delay(failures)?;
            hybrid_wait(rt, rt.now() + backoff, false, None);
        }
    }

    /// The reactor's wait stage ([`Reactor::wait_event`]) with the earliest
    /// retry instant of a delayed part. A zero-copy batch that still
    /// `need`s samples names, by command id, the epoch's item a read is a
    /// part of, with its parts and samples left. Returns the instant the
    /// wait's spin ended if it spun until the event, or `None` with
    /// nothing on a device and no retry queued: nothing to wait for.
    fn wait_event(&mut self, rt: &Runtime, need: Option<usize>) -> Option<Option<Time>> {
        let retry = self.delayed_parts.keys().next().map(|&(t, _)| t);
        let (cmds, st) = (&self.cmds, self.epoch.as_ref());
        let item = |id| match cmds.get(&id).map(|c| &c.owner) {
            Some(&Owner::Demand(p)) if !p.sync => {
                let it = &st?.items[p.idx as usize];
                let left = it.samples_total - it.dispatched;
                Some((p.idx, it.parts_left, left as usize))
            }
            _ => None,
        };
        let need = need.filter(|_| st.is_some());
        (self.reactor).wait_event(rt, retry, need.map(|n| (n, &item as &dyn Fn(u64) -> _)))
    }

    // ------------------------------------------------- background healing --
    //
    // Scrub and rebuild execution live in [`Background`]; the handle only
    // forwards. A caller paces healing: nothing here runs unless called.

    /// One full scrub sweep over every node's data region: verify every
    /// covered block and repair what a healthy replica can provide.
    /// Returns the number of blocks scrubbed.
    pub fn scrub_pass(&mut self) -> u64 {
        self.background.scrub_pass()
    }

    /// Start automated re-replication of storage node `node` after a
    /// permanent loss: enumerate every replica slot the node hosted
    /// (`RebuildPlan::for_dead_node`) and copy each block back
    /// from a surviving verified replica as [`DlfsIo::rebuild_step`] walks
    /// it (`rebuild_step(u64::MAX)` finishes it in one call). The
    /// replacement device — the revived node, or a fresh one mounted under
    /// the same index — must be attached and serving writes first. Returns
    /// the total blocks to rebuild; a typed configuration error without
    /// `replicas >= 2` and a membership policy, or for a `node` past the
    /// deployment's storage nodes.
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

    /// Walk up to `budget` blocks of the in-flight rebuild, finishing it
    /// once the plan is walked; returns blocks walked. The only pace a
    /// rebuild has: interleave steps with foreground work, or pass
    /// `u64::MAX` to run it to completion now.
    pub fn rebuild_step(&mut self, budget: u64) -> u64 {
        self.background.rebuild_blocks(budget)
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
    use crate::{CodecKind, Deployment, MountBuilder, SyntheticSource};
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
        let source = SyntheticSource::fixed(8, 300, 2048);
        let fs = MountBuilder::new(cfg).deployment(Deployment::local(readers, devices));
        fs.mount(rt, &source).unwrap().io(0)
    }

    /// Every path that enters a record in the command table takes it out
    /// again: faulted, replicated, verified cross-epoch epochs with the
    /// prefetcher on (two readers: each epoch deals this one ranges it does
    /// not hold) and synchronous reads between their batches, drained and
    /// then replaced, leave nothing — no record, no queued part.
    #[test]
    fn a_drained_and_replaced_epoch_leaves_the_handle_quiescent() {
        Runtime::simulate(12, |rt| {
            let ramdisk = |us| DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(us));
            let devices = [500, 10].map(|us| NvmeDevice::new(ramdisk(us)));
            let cfg = DlfsConfig {
                chunk_size: 8 * 1024,
                replicas: 2,
                verify_reads: true,
                cache_mode: CacheMode::CrossEpoch,
                prefetch_window: 8,
                ..DlfsConfig::default()
            };
            let mut io = mount_on(rt, cfg, &devices, 2);
            let faults = FaultInjector::new(31).with_bit_flips(0, 40);
            devices[1].set_faults(faults.with_read_failures(20_000));
            let mut id = 0;
            for epoch in 0..2 {
                io.sequence(rt, 43, epoch);
                let end = std::iter::repeat_with(|| {
                    id = (id + 37) % 300;
                    let batch = io.submit(rt, &ReadRequest::batch(32))?;
                    io.read_by_id(rt, id).map(|_| batch)
                })
                .find_map(Result::err);
                assert_eq!(end, Some(DlfsError::EpochExhausted));
                // Every demand part settled; only prefetches are still out.
                let demand = |c: &&Cmd| !matches!(c.owner, Owner::Prefetch { .. });
                assert_eq!(io.cmds.values().filter(demand).count(), 0, "epoch {epoch}");
            }
            let m = io.metrics();
            for c in ["integrity.mismatches", "cache.prefetch_issued"] {
                assert_ne!(m.counter(&format!("dlfs.{c}")), 0, "no {c}");
            }
            io.sequence(rt, 43, 2);
            let queued = io.pending_parts.len() + io.delayed_parts.len();
            assert_eq!(
                (io.cmds.len(), io.staged.len(), io.checks_out, queued),
                (0, 0, 0, 0)
            );
            let cache = &io.shared.cache;
            let held = cache.total_chunks() - cache.free_chunks() - cache.resident_chunks();
            assert_eq!(held, 0, "chunks neither free nor resident");
            // Nor is a read counted in flight, and a handle dropped
            // mid-epoch takes its reads out of the count.
            let fg = io.shared.fg_reads.clone();
            let in_flight = || [0, 1].map(|nid| fg.in_flight(nid));
            assert_eq!(in_flight(), [0, 0]);
            let batch = io.submit(rt, &ReadRequest::batch(4));
            assert_eq!(batch.map(|b| b.len()), Ok(4));
            assert_ne!(in_flight(), [0, 0]);
            drop(io);
            assert_eq!(in_flight(), [0, 0]);
        });
    }

    /// `sequence` runs the deal the prefetcher dealt at the previous
    /// epoch's tail rather than dealing it again: the same items, and the
    /// same ids delivered, as a fresh handle deals and delivers. Two
    /// readers, so each epoch deals this one a different share.
    #[test]
    fn sequence_runs_the_deal_the_prefetcher_dealt() {
        Runtime::simulate(9, |rt| {
            let devices = [0; 2].map(|_| NvmeDevice::new(DeviceConfig::optane(16 << 20)));
            let cfg = DlfsConfig {
                chunk_size: 8 * 1024,
                cache_mode: CacheMode::CrossEpoch,
                prefetch_window: 8,
                ..DlfsConfig::default()
            };
            let mut io = mount_on(rt, cfg, &devices, 2);
            // The ids an epoch delivers, sorted.
            let epoch = |io: &mut DlfsIo, epoch: u64| {
                io.sequence(rt, 43, epoch);
                let mut ids = Vec::new();
                let end = loop {
                    match io.submit(rt, &ReadRequest::batch(16)) {
                        Ok(got) => ids.extend(got.into_copied().into_iter().map(|(id, _)| id)),
                        Err(e) => break e,
                    }
                };
                assert_eq!(end, DlfsError::EpochExhausted);
                ids.sort_unstable();
                ids
            };
            let first = epoch(&mut io, 0);
            assert_eq!(io.prefetch.built_for, Some((43, 1)), "nothing dealt ahead");
            let ahead = io.prefetch.dealt.clone();
            let ids = epoch(&mut io, 1);
            let mut fresh = DlfsIo::new(io.shared.clone());
            assert_eq!(ahead, fresh.dealt(43, 1));
            assert_eq!(ids, epoch(&mut fresh, 1));
            assert_ne!(ids, first, "the same share twice");
        });
    }

    /// A synchronous read that runs out of retries mid-epoch fails alone: it
    /// returns its typed error, gives its chunks back once its part still
    /// on the device has drained, and the epoch it interrupted delivers
    /// every sample exactly once. Nor does a failed epoch fail a
    /// synchronous read: the post pass posts it all the same.
    #[test]
    fn a_failed_sync_read_is_not_the_epochs_failure() -> Result<(), DlfsError> {
        let run = |rt: &Runtime| {
            let devices = [0; 2].map(|_| NvmeDevice::new(DeviceConfig::optane(16 << 20)));
            let cfg = DlfsConfig {
                // A 2 KiB sample is four blocks: two parts of one chunk each.
                chunk_size: 1024,
                retry: RetryPolicy {
                    max_attempts: 1,
                    ..RetryPolicy::default()
                },
                ..DlfsConfig::default()
            };
            let mut io = mount_on(rt, cfg, &devices, 1);
            let total = io.sequence(rt, 5, 0);
            let mut seen = vec![0; total];
            let mut batch = |io: &mut DlfsIo| {
                let got = io.submit(rt, &ReadRequest::batch(32))?.into_copied();
                got.iter().for_each(|&(id, _)| seen[id as usize] += 1);
                Ok::<_, DlfsError>(got[0].0)
            };
            // A delivered sample: no fetch of the epoch's reads it again.
            let id = batch(&mut io)?;
            let e = io.shared.dir.entry(id);
            let bad = FaultInjector::new(1).with_bad_extent(e.offset() / BLOCK_SIZE, 1);
            devices[e.nid() as usize].set_faults(bad);
            let free = io.shared.cache.free_chunks();
            let want = DlfsError::exhausted(e.nid(), 0, 1, false, CorruptCause::Io(Media));
            assert_eq!(io.read_by_id(rt, id), Err(want));
            let sync = |c: &&Cmd| matches!(c.owner, Owner::Demand(p) if p.sync);
            let left = io.cmds.values().filter(sync).count();
            assert_eq!((left, io.shared.cache.free_chunks()), (0, free));
            while batch(&mut io).is_ok() {}
            assert_eq!(seen, vec![1; total]);
            io.sequence(rt, 5, 1);
            io.failed = Some(DlfsError::Stalled(0));
            let cold = (id + 1) % total as u32;
            assert_eq!(io.read_by_id(rt, cold).map(|d| d.len()), Ok(2048));
            Ok(())
        };
        Runtime::simulate(7, run).0
    }

    /// Only a zero-copy batch whose landings stage no copy-pool work is
    /// told what it needs: copied delivery, verified reads and a codec
    /// wait for every landing.
    #[test]
    fn only_an_unchecked_zero_copy_batch_waits_for_what_it_needs() {
        Runtime::simulate(5, |rt| {
            let devices = [NvmeDevice::new(DeviceConfig::optane(16 << 20))];
            let plain = mount_on(rt, DlfsConfig::default(), &devices, 1);
            assert_eq!(plain.need(Delivery::ZeroCopy, 7), Some(7));
            assert_eq!(plain.need(Delivery::Copied, 7), None, "copied");
            for cfg in [
                DlfsConfig {
                    verify_reads: true,
                    ..DlfsConfig::default()
                },
                DlfsConfig {
                    codec: CodecKind::Lz,
                    ..DlfsConfig::default()
                },
            ] {
                let devices = [NvmeDevice::new(DeviceConfig::optane(16 << 20))];
                let checked = mount_on(rt, cfg, &devices, 1);
                assert_eq!(checked.need(Delivery::ZeroCopy, 7), None, "checked");
            }
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
                    ..Part::first(3, 1, false)
                };
                let part_io = PartIo {
                    home: 0,
                    slba: 0,
                    nblocks: 1,
                    bufs: vec![buf],
                    frames: Vec::new(),
                };
                let landed = io.judge(&part_io, status).0;
                let got = io.settle_part(rt, p, &part_io, landed, 4242);

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
