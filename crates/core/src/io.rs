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

use blocksim::{
    covering_blocks, CmdStatus, Completion, DmaBuf, IoQPair, NvmeTarget, QpairError, BLOCK_SIZE,
};
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
use crate::writer::{io_failure, ForegroundReads};
use crate::zerocopy::ZeroCopySample;
use crate::{cache::SampleCache, copy::CopyPool};

/// More of `impl DlfsIo`, each in its own file: the callers of the part
/// lifecycle below — the batched engine, the prefetcher, the synchronous
/// reads, the storage-side offload path — the check stage (harvested →
/// settled), and the telemetry handles.
#[path = "check.rs"]
mod check;
#[path = "engine.rs"]
mod engine;
#[path = "offload.rs"]
mod offload;
#[path = "prefetch.rs"]
mod prefetch;
#[path = "sync.rs"]
mod sync;
#[path = "tel.rs"]
mod tel;

use engine::*;
use prefetch::*;
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
    /// every handle's qpairs (`ReadQp`): what checkpoint appends yield to.
    pub fg_reads: Arc<ForegroundReads>,
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

/// The wake-up a hybrid park pays when it ends: kernsim's `irq` (the timer
/// interrupt) plus `context_switch` (out and back in). Kept beside the
/// waiting rule, not in `DlfsCosts`, which the benchmark fingerprints.
const PARK_WAKE: Dur = Dur::nanos(4_800);

/// The reads a zero-copy wait parks through at most ([`coalesce`]): each
/// landing it parks through defers the pump's refill of that read's slot.
const COALESCE: usize = 4;

/// What one wait did ([`hybrid_wait`]).
pub(crate) struct Waited {
    /// It spun until the event: a harvest that directly follows is prompt.
    pub(crate) spun: bool,
    /// The time it parked (idle), and the busy time it spun, after any
    /// wake-up.
    pub(crate) parked: Dur,
    pub(crate) spin: Dur,
    /// How far past the event it ran.
    pub(crate) late: Dur,
    /// Its spin and wake-up less a clairvoyant wait's: one [`PARK_WAKE`]
    /// for a wait of at least two, else its length spun. Zero with
    /// nothing of its own in flight, or for a late park that cost less.
    pub(crate) excess: Dur,
}

/// The one waiting rule (DESIGN §13): advance the calling thread to `t`,
/// the next event of a wait. Unless `own` — something of the caller's own
/// is in flight — it parks (idle): a pure backoff, a background driver.
/// Otherwise it hybrid-polls: `wake` is the instant by which the caller
/// must be spinning. It parks until one [`PARK_WAKE`] before `wake`, if
/// that nap is at least one wake-up, pays the wake-up, then spins to `t`
/// (busy) — late if `t` passed meanwhile. Without a `wake` it spins. `t`
/// itself never decides a park. `None` when `t` is not in the future: no
/// wait.
pub(crate) fn hybrid_wait(rt: &Runtime, t: Time, own: bool, wake: Option<Time>) -> Option<Waited> {
    let now = rt.now();
    if t <= now {
        return None;
    }
    let nap = wake.map_or(Dur::ZERO, |w| w - now - PARK_WAKE);
    // (park, end): park all of it, spin all of it, or park to one
    // wake-up before `wake` and pay it before spinning the rest.
    let (nap, end) = match own {
        false => (t - now, t),
        true if nap < PARK_WAKE => (Dur::ZERO, t),
        true => (nap, t.max(now + nap + PARK_WAKE)),
    };
    rt.sleep_then_work(nap, end - now - nap);
    // A hybrid park pays one wake-up before it spins.
    let woke = PARK_WAKE * (own && nap > Dur::ZERO) as u64;
    let spin = end - now - nap - woke;
    let ideal = if t - now < PARK_WAKE * 2 {
        t - now
    } else {
        PARK_WAKE
    };
    let (spun, parked, late) = (own && end == t, nap, end - t);
    Some(Waited {
        spun,
        parked,
        spin,
        late,
        excess: spin + woke - ideal,
    })
}

/// The hedged wake-up for `guess`, an event expected no earlier than it
/// that may yet come earlier — a retry instant, or a wire's floor for a
/// read whose device serves other reads too: one [`PARK_WAKE`] past half
/// the wait, so [`hybrid_wait`] parks half of it.
fn hedge(now: Time, guess: Time) -> Time {
    now + (guess - now) / 2 + PARK_WAKE
}

/// A read a zero-copy wait may park through ([`coalesce`]): its floor and
/// wake-up, if it has them, its landing, and, if it is a part of one of
/// the epoch's items, that item with its parts and samples left.
struct Through {
    at: Option<(Time, Time)>,
    lands: Option<Time>,
    item: Option<(u32, u32, usize)>,
}

/// Of `reads` in the order they come, the position of the first after
/// which the items they complete hold `need` samples: an item's samples
/// left count once the last of its parts left is reached.
fn fills<'a>(need: usize, mut reads: impl Iterator<Item = &'a Through>) -> Option<usize> {
    // Each item's parts reached, and the samples of the items completed.
    let (mut reached, mut held) = (BTreeMap::new(), 0);
    reads.position(|r| {
        if let Some((idx, parts, samples)) = r.item {
            let n = reached.entry(idx).or_insert(0);
            *n += 1;
            held += samples * (*n == parts) as usize;
        }
        held >= need
    })
}

/// The wait of a zero-copy batch that still needs `need` samples and whose
/// landings stage no copy-pool work, over `reads`, every read its handle
/// has in flight (DESIGN §13): `(event, wake-up)`, or `None` to wait for
/// the next landing. The *target* is the first read, in the order of their
/// floors, at which the items reached hold `need` samples ([`fills`]), or
/// the [`COALESCE`]th, whichever comes first (the last, if neither does).
/// The wait parks to the target's wake-up, and its event is the target's
/// landing or the landing after which the batch can be filled, whichever
/// is earlier: like `next_completion_at()`, that instant only ends the
/// wait. `None` for a lone read, or with a read without a floor ahead of
/// the target.
fn coalesce(need: usize, mut reads: Vec<Through>) -> Option<(Time, Time)> {
    if reads.len() < 2 {
        return None;
    }
    // `None` orders first: a read without a floor is ahead of any target.
    reads.sort_by_key(|r| r.at.map(|(floor, _)| floor));
    reads[0].at?;
    let last = fills(need, reads.iter()).unwrap_or(reads.len() - 1);
    let target = &reads[last.min(COALESCE - 1)];
    let (lands, (_, wake)) = (target.lands?, target.at?);
    // The landings up to the target's, in the order they come.
    let mut landed: Vec<&Through> = (reads.iter())
        .filter(|r| r.lands.is_some_and(|t| t <= lands))
        .collect();
    landed.sort_by_key(|r| r.lands);
    let filled = fills(need, landed.iter().copied()).and_then(|i| landed[i].lands);
    Some((filled.unwrap_or(lands), wake))
}

/// A running mean of a quantity and its mean deviation, both in the unit
/// of its samples, with TCP's round-trip weights: 1/8 for the mean and 1/4
/// for the deviation.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Ewma {
    mean: u64,
    dev: u64,
}

impl Ewma {
    fn new(mean: u64, dev: u64) -> Ewma {
        Ewma { mean, dev }
    }

    /// Fold in sample `s`; the deviation is taken from the old mean.
    fn sample(&mut self, s: u64) {
        self.dev = (3 * self.dev + s.abs_diff(self.mean)) / 4;
        self.mean = (7 * self.mean + s) / 8;
    }

    /// The earliest the next sample is expected: the mean less twice the
    /// deviation.
    fn floor(&self) -> u64 {
        self.mean.saturating_sub(2 * self.dev)
    }
}

/// The samples of one read size a qpair must have timed alone before its
/// least is trusted as a floor ([`LoneFloors::floor`]).
const LONE_SAMPLES: u32 = 4;

/// The least post-to-landing time of a qpair's reads, by bytes, each read
/// the only one its handle had in flight: timed from its post to the end
/// of the wait that spun until it landed. Queueing behind other readers
/// only delays a read, so no read of a size lands sooner than that alone.
#[derive(Default)]
struct LoneFloors(BTreeMap<u64, (Dur, u32)>);

impl LoneFloors {
    fn sample(&mut self, bytes: u64, took: Dur) {
        let (least, n) = self.0.entry(bytes).or_insert((took, 0));
        (*least, *n) = (took.min(*least), *n + 1);
    }

    /// The floor of a read of `bytes` from what this qpair timed
    /// ([`lone_floor`]).
    fn floor(&self, bytes: u64) -> Option<Dur> {
        lone_floor(self.0.iter().map(|(&b, &e)| (b, e)), bytes)
    }

    /// The floor of a read of `bytes` borrowed from `siblings`' tables
    /// taken together ([`merged`]): only if this one holds a sample at a
    /// size theirs floors, and each such sample took no less than their
    /// floor there — a target its own samples show faster is not theirs —
    /// and no more than any read up to `bytes` took here: a size theirs
    /// trust may be their slower targets' alone.
    fn borrow<'a>(
        &self,
        siblings: impl Iterator<Item = &'a LoneFloors> + Clone,
        bytes: u64,
    ) -> Option<Dur> {
        let theirs = |b| lone_floor(merged(siblings.clone()), b);
        let loan = theirs(bytes)?;
        let mut own = (self.0.iter())
            .filter_map(|(&b, e)| Some((e.0, theirs(b)?)))
            .peekable();
        if own.peek().is_none() || !own.all(|(took, floor)| took >= floor) {
            return None;
        }
        let up_to = self.0.range(..=bytes).map(|(_, e)| e.0);
        up_to.chain([loan]).min()
    }
}

/// The floor of a read of `bytes` from a lone table, (bytes, (least,
/// samples)) by ascending bytes: the least time alone of the largest size
/// up to `bytes` sampled [`LONE_SAMPLES`] times — while none is, of every
/// size up to it once they hold that many samples together — capped by
/// the least of every such size from `bytes` up: a larger read takes no
/// less, so a smaller size's least above it is noise. `None` without one.
fn lone_floor(table: impl Iterator<Item = (u64, (Dur, u32))> + Clone, bytes: u64) -> Option<Dur> {
    let trusted = |e: &(Dur, u32)| e.1 >= LONE_SAMPLES;
    let below = || table.clone().take_while(|e| e.0 <= bytes).map(|(_, e)| e);
    let samples: u64 = below().map(|e| u64::from(e.1)).sum();
    let pooled = || below().min().filter(|_| samples >= LONE_SAMPLES.into());
    let own = below().filter(trusted).last().or_else(pooled)?;
    let above = table.skip_while(|e| e.0 < bytes).map(|(_, e)| e);
    above.filter(trusted).chain([own]).map(|e| e.0).min()
}

/// `tables` taken together as one lone table, by ascending bytes: every
/// size any of them timed, at its least over them and their samples
/// summed. A merge that allocates nothing.
fn merged<'a>(
    tables: impl Iterator<Item = &'a LoneFloors> + Clone,
) -> impl Iterator<Item = (u64, (Dur, u32))> + Clone {
    let mut from = 0;
    std::iter::from_fn(move || {
        let next = |t: &LoneFloors| t.0.range(from..).next().map(|(&b, _)| b);
        let bytes = tables.clone().filter_map(next).min()?;
        from = bytes + 1;
        let at = tables.clone().filter_map(|t| t.0.get(&bytes));
        let least = at.clone().map(|e| e.0).min()?;
        Some((bytes, (least, at.map(|e| e.1).sum())))
    })
}

/// The size classes a device's clock times apart ([`class`]), as blk-mq
/// keeps its hybrid-poll statistics.
const CLASSES: usize = 12;

/// The size class of a read of `bytes`: its bytes >> 12 by log2, the last
/// class open-ended. A small read's time per byte carries its per-command
/// cost, which a larger read pays once.
fn class(bytes: u64) -> usize {
    ((u64::BITS - (bytes >> 12).leading_zeros()) as usize).min(CLASSES - 1)
}

/// `bytes` at `ps` per byte.
fn at_rate(bytes: u64, ps: u64) -> Dur {
    Dur::nanos(bytes * ps / 1_000)
}

/// A read a qpair has in flight: its post, its bytes, its end position on
/// its device ([`ForegroundReads::advance`]) and its command id.
type Posted = (Time, u64, u64, u64);

/// When a local qpair's device lands its queued reads, in *device bytes*:
/// every byte posted to the device, by any handle's reads or the
/// checkpoint appender, has a position, and the device moves them in
/// order. The anchor is only ever an instant the reader saw a read land.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct DeviceClock {
    /// When the wait before the last poll pass that took a read off the
    /// device stopped spinning, and the end position of the newest read
    /// that pass took, if the pass was prompt: it directly followed a wait
    /// that spun until a completion landed.
    anchor: Option<(Time, u64)>,
    /// What a device byte takes, in ps, per size class of the heads of the
    /// passes sampled.
    per_byte: [Option<Ewma>; CLASSES],
}

impl DeviceClock {
    /// A poll pass took reads off the device, `head` the oldest and
    /// `newest` the end position of the newest; `spun` is when the wait
    /// before it stopped spinning, if it was prompt. A prompt pass whose
    /// head was posted before the anchor times the device bytes from the
    /// anchor to the head's end — its own bytes at least — into the head's
    /// class. The pass is the anchor if prompt, and clears it if not.
    fn landed(&mut self, spun: Option<Time>, (post, bytes, end, _): Posted, newest: u64) {
        if let (Some(t), Some((anchor, at))) = (spun, self.anchor.filter(|a| post < a.0)) {
            let ps = (t - anchor).as_nanos() * 1_000 / end.saturating_sub(at).max(bytes).max(1);
            let rate = &mut self.per_byte[class(bytes)];
            *rate = Some(rate.map_or(Ewma::new(ps, ps / 2), |mut r| {
                r.sample(ps);
                r
            }));
        }
        self.anchor = spun.map(|t| (t, newest));
    }

    /// The earliest a queued head lands: no earlier than its post plus its
    /// own bytes at its class's floor, nor than the anchor plus the bytes
    /// queued ahead of it at the least floor of any class timed — the bytes
    /// of others' commands come in every size — plus its own. `None`
    /// without an anchor or a sample of its class: a small read's
    /// per-command cost misprices a large one.
    fn predict(&self, (post, bytes, end, _): Posted) -> Option<Time> {
        let (anchor, at) = self.anchor?;
        let own = at_rate(bytes, self.per_byte[class(bytes)]?.floor());
        let least = self.per_byte.iter().flatten().map(Ewma::floor).min()?;
        let ahead = at_rate((end - bytes).saturating_sub(at), least);
        Some((post + own).max(anchor + ahead + own))
    }
}

/// When a wire — the reader NIC's ingress every remote qpair of a handle
/// lands through (DESIGN §13) — lands its queued reads, from what the
/// reader saw land. A queued read starts when the one before it lands,
/// and the anchor is only ever an instant the reader saw one land.
#[derive(Clone, Copy, Debug, PartialEq)]
struct LandingClock {
    /// When the last poll pass that took a read off the wire began, if
    /// that pass was prompt.
    anchor: Option<Time>,
    /// What a read takes per byte, in ps, sampled at prompt passes from
    /// the anchor, and the bytes of the passes sampled.
    rate: Option<(Ewma, Ewma)>,
    /// The least time per byte, in ps, of any pass from the anchor, prompt
    /// or not. Every payload a pass takes crossed the wire after the
    /// anchor, one after another, so no read beats it; prompt samples miss
    /// the payloads that land back to back while the reader works, and
    /// their floor can sit above it.
    least: u64,
}

impl LandingClock {
    /// A poll pass that began at `polled`, `prompt` or not, took `bytes`
    /// off the wire, the oldest of its reads posted at `oldest`. A pass
    /// whose oldest read was posted before the anchor times the bytes
    /// since the anchor: into the least time per byte, and, if prompt,
    /// into the rate. The pass is the anchor if prompt, and clears it if
    /// not.
    fn landed(&mut self, polled: Time, prompt: bool, oldest: Time, bytes: u64) {
        if let Some(anchor) = self.anchor.filter(|&a| oldest < a) {
            let ps = (polled - anchor).as_nanos() * 1_000 / bytes.max(1);
            self.least = ps.min(self.least);
            if prompt {
                self.rate = Some(match self.rate {
                    None => (Ewma::new(ps, ps / 2), Ewma::new(bytes, 0)),
                    Some((mut rate, mut size)) => {
                        rate.sample(ps);
                        size.sample(bytes);
                        (rate, size)
                    }
                });
            }
        }
        self.anchor = prompt.then_some(polled);
    }

    /// The least time a read of `bytes` takes once it starts: its bytes,
    /// no more than twice the mean bytes sampled, at the floor of the rate,
    /// no more than the least. `None` before the first sample. A small
    /// read's time is mostly per-command cost, which a larger read does not
    /// pay per byte, but more bytes never cross faster.
    fn crossing(&self, bytes: u64) -> Option<Dur> {
        let ((rate, size), least) = (self.rate?, self.least);
        Some(at_rate(bytes.min(2 * size.mean), least.min(rate.floor())))
    }

    /// The earliest a queued read of `bytes` posted at `post` lands: the
    /// later of the anchor and its post, plus its crossing. `None` without
    /// an anchor or a crossing.
    fn predict(&self, post: Time, bytes: u64) -> Option<Time> {
        Some(self.anchor?.max(post) + self.crossing(bytes)?)
    }
}

/// The landing clock a qpair's reads feed, chosen by its target's
/// topology ([`NvmeTarget::ingress`]).
#[derive(Clone, Debug, PartialEq)]
enum Feeds {
    /// Its own: nothing another qpair's reads cross lies on its path.
    Own(Box<DeviceClock>),
    /// Wire `w` of the handle's ([`DlfsIo::wires`]): a reader NIC ingress
    /// its payloads cross one after another with other qpairs'.
    Wire(usize),
}

/// The passes a wire must take in post order before it is timed as one
/// that lands in post order ([`Wire::in_order`]): its first few have had
/// little chance to show an overtake.
const IN_ORDER_PASSES: u32 = 16;

/// What a poll pass took through a wire ([`DlfsIo::harvest`]).
#[derive(Clone, Copy)]
struct WirePass {
    /// The pass's start.
    polled: Time,
    /// Every harvest of it was prompt.
    prompt: bool,
    /// The oldest and the newest post of the reads it took.
    oldest: Time,
    newest: Time,
    bytes: u64,
}

/// A serial link several of a handle's qpairs land through, with its
/// clock, what the poll pass in progress took through it, and whether it
/// lands its reads in the order they were posted.
#[derive(Clone)]
struct Wire {
    clock: LandingClock,
    pass: Option<WirePass>,
    /// The passes that took reads off it, every one in post order, or
    /// `None` once a pass took a read while an older one on the wire was
    /// still in flight ([`Wire::judge`]).
    ordered: Option<u32>,
}

impl Wire {
    fn new() -> Wire {
        Wire {
            clock: LandingClock {
                anchor: None,
                rate: None,
                least: u64::MAX,
            },
            pass: None,
            ordered: Some(0),
        }
    }

    /// Judge a pass that took reads off the wire: `overtaken` if an older
    /// read on it was still in flight. One overtake is for good.
    fn judge(&mut self, overtaken: bool) {
        self.ordered = match overtaken {
            true => None,
            false => self.ordered.map(|n| n.saturating_add(1)),
        };
    }

    /// It has landed only in post order, over [`IN_ORDER_PASSES`] passes
    /// at least: a read lands no earlier than every read posted before it.
    fn in_order(&self) -> bool {
        self.ordered >= Some(IN_ORDER_PASSES)
    }

    /// The earliest each of `reads` — (post, bytes), oldest first — lands.
    /// On a wire that has overtaken, its own bytes from the later of the
    /// anchor and its post ([`LandingClock::predict`]). On one in post
    /// order, it starts no earlier than every read posted before it has
    /// landed, and one before the clock's first sample lands no earlier
    /// than they.
    fn floors<'a>(
        &'a self,
        reads: impl Iterator<Item = (Time, u64)> + 'a,
    ) -> impl Iterator<Item = Option<Time>> + 'a {
        // `before`: when every read posted before `last` has landed.
        let (mut last, mut before, mut landed) = (None, Time::ZERO, Time::ZERO);
        reads.map(move |(post, bytes)| {
            if !self.in_order() {
                return self.clock.predict(post, bytes);
            }
            if last != Some(post) {
                (last, before) = (Some(post), landed);
            }
            let crossing = self.clock.crossing(bytes).unwrap_or(Dur::ZERO);
            let floor = self.clock.anchor?.max(before).max(post) + crossing;
            landed = landed.max(floor);
            Some(floor)
        })
    }
}

/// One of a handle's qpairs, on storage node `nid`. Every read it holds
/// counts in the instance's [`ForegroundReads`] from the submit that enters
/// it to the harvest — or the handle's drop — that takes it out, whichever
/// path posted it; everything else is the qpair's own.
struct ReadQp {
    qp: IoQPair,
    nid: usize,
    fg: Arc<ForegroundReads>,
    /// Its slot there for the NIC ingress its payloads land through, if
    /// any ([`ReadQp::slots`]).
    link: Option<usize>,
    /// Each read in flight, oldest first.
    posted: VecDeque<Posted>,
    /// What its reads took alone, forgotten at a late wait
    /// ([`DlfsIo::advance_to`]), and, if its last read was posted with
    /// its path to itself ([`ReadQp::path`]), the reads entered there by
    /// then.
    alone: LoneFloors,
    quiet: Option<usize>,
    /// The clock its queued reads are timed on.
    clock: Feeds,
}

impl ReadQp {
    fn submit_read(
        &mut self,
        rt: &Runtime,
        id: u64,
        slba: u64,
        nblocks: u32,
        buf: DmaBuf,
        at: usize,
    ) -> Result<(), QpairError> {
        self.qp.submit_read(rt, id, slba, nblocks, buf, at)?;
        self.slots().for_each(|s| self.fg.enter(s));
        let (alone, entered) = self.path();
        self.quiet = alone.then_some(entered);
        let bytes = nblocks as u64 * BLOCK_SIZE;
        let end = self.fg.advance(self.nid, bytes);
        self.posted.push_back((rt.now(), bytes, end, id));
        Ok(())
    }

    /// Take every due completion, in a poll pass that directly followed a
    /// wait whose spin ended at `spun` as a completion landed, if one did,
    /// and feed the qpair's own clock, if it has one, the pass: its oldest
    /// read and the end position of its newest ([`DeviceClock::landed`]).
    fn harvest(&mut self, rt: &Runtime, spun: Option<Time>) -> Vec<Completion> {
        let done = self.qp.process_completions(rt, usize::MAX);
        self.slots().for_each(|s| self.fg.leave(s, done.len()));
        let (mut head, mut newest) = (None::<Posted>, 0);
        for c in &done {
            let at = self
                .posted
                .iter()
                .position(|p| (p.0, p.1) == (c.submitted, c.bytes));
            if let Some(read) = at.and_then(|at| self.posted.remove(at)) {
                head = head.filter(|h| h.0 <= read.0).or(Some(read));
                newest = newest.max(read.2);
            }
        }
        if let (Feeds::Own(clock), Some(head)) = (&mut self.clock, head) {
            clock.landed(spun, head, newest);
        }
        done
    }

    /// Time `read`, harvested alone in its handle in a pass that followed a
    /// wait whose spin ended at `end` as it landed ([`LoneFloors`]): if it
    /// was posted with its path to itself and nothing entered it since.
    fn time_alone(&mut self, read: &Completion, end: Time) {
        if self.quiet == Some(self.path().1) {
            self.alone.sample(read.bytes, end - read.submitted);
        }
    }

    /// A lone read in flight is expected no earlier than its post plus
    /// its bytes' lone floor ([`LoneFloors::floor`]), or, without one, the
    /// floor it borrows from `siblings` ([`LoneFloors::borrow`]).
    fn lone<'a>(&self, siblings: impl Iterator<Item = &'a LoneFloors> + Clone) -> Option<Time> {
        let &(post, bytes, ..) = self.posted.front()?;
        let floor = (self.alone.floor(bytes)).or_else(|| self.alone.borrow(siblings, bytes));
        Some(post + floor?)
    }

    /// Its slots in the instance's [`ForegroundReads`]: its storage node,
    /// and the NIC ingress its payloads land through, if any.
    fn slots(&self) -> impl Iterator<Item = usize> {
        std::iter::once(self.nid).chain(self.link)
    }

    /// Whether its reads have their path to themselves — no other read in
    /// flight, any handle's, on its device or through its NIC ingress —
    /// and the reads ever entered there.
    fn path(&self) -> (bool, usize) {
        let alone = self.slots().all(|s| self.fg.in_flight(s) <= 1);
        (alone, self.slots().map(|s| self.fg.entered(s)).sum())
    }

    /// Reads besides this qpair's are in flight on its storage node —
    /// another handle's, or an offload exchange's: a read on a wire may
    /// then land later than the wire alone predicts.
    fn shared(&self) -> bool {
        self.fg.in_flight(self.nid) > self.posted.len()
    }

    /// When a qpair on its own clock expects the head of its queue to
    /// complete at the earliest ([`DeviceClock::predict`]). `None` for a
    /// qpair on a wire, which the wire predicts for.
    fn predicted(&self) -> Option<Time> {
        let Feeds::Own(clock) = &self.clock else {
            return None;
        };
        clock.predict(*self.posted.front()?)
    }
}

impl std::ops::Deref for ReadQp {
    type Target = IoQPair;
    fn deref(&self) -> &IoQPair {
        &self.qp
    }
}

/// A dropped handle's reads never complete for it.
impl Drop for ReadQp {
    fn drop(&mut self) {
        self.slots()
            .for_each(|s| self.fg.leave(s, self.qp.outstanding()));
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
/// Both harvests — the reactor's `poll` and the `abort_epoch` drain — and
/// every verdict collected ask [`DlfsIo::cmds`] whose command it holds.
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
    qpairs: Vec<ReadQp>,
    /// The reader NIC ingresses its remote qpairs land through
    /// ([`Feeds::Wire`]).
    wires: Vec<Wire>,
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
        let qd = shared.cfg.queue_depth;
        // The reader NIC ingresses the targets land through: one wire each.
        let mut nodes: Vec<usize> = shared.targets.iter().filter_map(|t| t.ingress()).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let qpairs = shared
            .targets
            .iter()
            .enumerate()
            .map(|(nid, t)| {
                let mut qp = IoQPair::new(t.clone(), qd);
                qp.attach_telemetry(&reg.scoped(&format!("blocksim.dev{nid}")));
                let wire = t.ingress().and_then(|n| nodes.iter().position(|&m| m == n));
                ReadQp {
                    qp,
                    nid,
                    fg: shared.fg_reads.clone(),
                    link: t.ingress().map(|n| shared.targets.len() + n),
                    posted: VecDeque::new(),
                    alone: LoneFloors::default(),
                    quiet: None,
                    clock: wire.map_or(Feeds::Own(Box::default()), Feeds::Wire),
                }
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
            wires: vec![Wire::new(); nodes.len()],
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
        // command is drained, and every verdict waited for.
        self.cmds
            .retain(|_, c| matches!(c.owner, Owner::Prefetch { .. }));
        self.pending_parts.clear();
        self.delayed_parts.clear();
        while let Some(spun) = self.wait_event(rt, None) {
            let woke = rt.now();
            for q in 0..self.qpairs.len() {
                // Prompt only while no completion's work has moved the
                // clock since the wait ended.
                let spun = spun.filter(|_| rt.now() == woke);
                for comp in self.harvest(rt, q, rt.now(), spun) {
                    self.complete(rt, &comp);
                }
            }
            self.close_pass();
        }
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
        // The qpair's own depth: it clamps `cfg.queue_depth` to the device.
        let full = self.qpairs[dev].outstanding() >= self.qpairs[dev].queue_depth();
        let t0 = rt.now();
        rt.work(self.shared.cfg.costs.prep_request);
        let t1 = rt.now();
        rt.work(self.shared.cfg.costs.post_request);
        if full {
            return None;
        }
        let cmd = self.next_cmd;
        self.qpairs[dev]
            .submit_read(rt, cmd, slba, io.nblocks, io.bufs[0].clone(), 0)
            .expect("capacity checked before staging");
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

    /// Harvest qpair `q` in a poll pass that began at `polled` and directly
    /// followed a wait whose spin ended at `spun` as a completion landed,
    /// if one did ([`ReadQp::harvest`]), and note what it took through a
    /// wire for the pass's end ([`DlfsIo::close_pass`]).
    fn harvest(
        &mut self,
        rt: &Runtime,
        q: usize,
        polled: Time,
        spun: Option<Time>,
    ) -> Vec<Completion> {
        let prompt = spun.is_some();
        let done = self.qpairs[q].harvest(rt, spun);
        let (&Feeds::Wire(w), Some(first)) = (&self.qpairs[q].clock, done.first()) else {
            return done;
        };
        let pass = self.wires[w].pass.get_or_insert(WirePass {
            polled,
            prompt: true,
            oldest: first.submitted,
            newest: first.submitted,
            bytes: 0,
        });
        pass.prompt &= prompt;
        for c in &done {
            pass.oldest = pass.oldest.min(c.submitted);
            pass.newest = pass.newest.max(c.submitted);
            pass.bytes += c.bytes;
        }
        done
    }

    /// End a poll pass: every wire it took reads through feeds its clock
    /// the pass ([`LandingClock::landed`]) — all it took through that
    /// wire, since payloads cross it one after another — and is judged on
    /// the order it landed them in ([`Wire::judge`]).
    fn close_pass(&mut self) {
        for (w, wire) in self.wires.iter_mut().enumerate() {
            let Some(pass) = wire.pass.take() else {
                continue;
            };
            wire.clock
                .landed(pass.polled, pass.prompt, pass.oldest, pass.bytes);
            let mut on = self.qpairs.iter().filter(|q| q.clock == Feeds::Wire(w));
            wire.judge(on.any(|q| q.posted.front().is_some_and(|r| r.0 < pass.newest)));
        }
    }

    /// Every read in flight through wire `w`, oldest post first, with its
    /// qpair: a merge of the qpairs' `posted` queues, each in post order
    /// already, that allocates nothing.
    fn on_wire(&self, w: usize) -> impl Iterator<Item = (&ReadQp, Posted)> + Clone {
        // The last read yielded, as (post, qpair, place there): each step
        // takes the least such key past it.
        let (qpairs, mut last) = (&self.qpairs, None);
        std::iter::from_fn(move || {
            let on = qpairs.iter().enumerate();
            let next = on
                .filter(|(_, q)| q.clock == Feeds::Wire(w))
                .filter_map(|(j, q)| {
                    let i = match last {
                        None => 0,
                        Some((_, k, i)) if k == j => i + 1,
                        Some((post, k, _)) => q.posted.partition_point(|r| (r.0, j) < (post, k)),
                    };
                    Some((q.posted.get(i)?.0, j, i))
                });
            last = Some(next.min()?);
            let (_, j, i) = last?;
            Some((&qpairs[j], qpairs[j].posted[i]))
        })
    }

    /// When the handle must be spinning again at `now`, from what it saw
    /// land, never from `next_completion_at()`: the earliest over its busy
    /// clocks. A lone read — its handle's only one on its path, or alone
    /// on its qpair on a wire where that binds — is expected no earlier
    /// than its measured floor ([`ReadQp::lone`]); a clock's floor is a
    /// local queue's head ([`ReadQp::predicted`]), and the earliest over
    /// every read through a wire with two or more in flight
    /// ([`Wire::floors`]), since on a wire that has overtaken a read
    /// posted later on another qpair can land first; a read over twice the
    /// wire's mean bytes crosses no faster than one of twice the mean
    /// ([`LandingClock::crossing`]). Each is spun for as
    /// it is, but a wire's floor for a read whose device serves other
    /// reads ([`ReadQp::shared`]) is hedged ([`hedge`]). `None` if a busy
    /// path predicts nothing.
    fn wake_by(&self, now: Time) -> Option<Time> {
        let own = self
            .qpairs
            .iter()
            .filter(|q| matches!(q.clock, Feeds::Own(_)) && !q.posted.is_empty());
        let own = own.map(|q| match q.posted.len() {
            1 => q.lone(std::iter::empty()),
            _ => q.predicted(),
        });
        // A wire with nothing in flight has no minimum.
        let wires = (0..self.wires.len())
            .filter_map(|w| self.wire_reads(w, now).map(|(.., at)| Some(at?.1)).min());
        // `None` orders first: one clock without a guess leaves none.
        own.chain(wires).min().flatten()
    }

    /// Every read in flight through wire `w` at `now`, oldest post first,
    /// with its qpair and its (floor, wake-up), if it has them: a wire's
    /// only read at its lone floor ([`ReadQp::lone`]), or one its qpair's
    /// siblings on the wire lend it; each of two or more
    /// at the wire's floor ([`Wire::floors`]), hedged on a shared device,
    /// or at its lone floor, unhedged, where that is later for a read alone
    /// on its qpair.
    fn wire_reads(
        &self,
        w: usize,
        now: Time,
    ) -> impl Iterator<Item = (&ReadQp, Posted, Option<(Time, Time)>)> {
        let (reads, qpairs) = (self.on_wire(w), &self.qpairs);
        let only = reads.clone().nth(1).is_none();
        let floors = self.wires[w].floors(reads.clone().map(|(_, r)| (r.0, r.1)));
        reads.zip(floors).map(move |((q, read), floor)| {
            let siblings =
                (qpairs.iter()).filter(move |s| only && s.clock == q.clock && !std::ptr::eq(*s, q));
            let lone = q
                .lone(siblings.map(|s| &s.alone))
                .filter(|&l| q.posted.len() == 1 && (only || Some(l) > floor));
            let hedged = |at| (at, if q.shared() { hedge(now, at) } else { at });
            let floor = floor.filter(|_| !only).map(hedged);
            (q, read, lone.map(|l| (l, l)).or(floor))
        })
    }

    /// The wait of a zero-copy batch that still needs `need` samples
    /// ([`coalesce`]) over every read the handle has in flight, each with
    /// its floor, its landing and the item it is a part of: `(event,
    /// wake-up)`, or `None` to wait for the next landing, as a local queue
    /// does — its clock floors only its head ([`ReadQp::predicted`]). A
    /// read on a wire not timed in post order ([`Wire::in_order`]) has no
    /// floor here: the wire floors it by its own bytes, which says nothing
    /// of the landings ahead of it.
    fn target(&self, now: Time, need: usize) -> Option<(Time, Time)> {
        let st = self.epoch.as_ref()?;
        let local = |q: &ReadQp| matches!(q.clock, Feeds::Own(_));
        if self.qpairs.iter().any(|q| local(q) && !q.posted.is_empty()) {
            return None;
        }
        let reads = (0..self.wires.len()).flat_map(|w| {
            let timed = self.wires[w].in_order();
            self.wire_reads(w, now).map(move |(q, (.., id), at)| {
                let item = match self.cmds.get(&id).map(|c| &c.owner) {
                    Some(&Owner::Demand(p)) if !p.sync => {
                        let it = &st.items[p.idx as usize];
                        let left = it.samples_total - it.dispatched;
                        Some((p.idx, it.parts_left, left as usize))
                    }
                    _ => None,
                };
                let (at, lands) = (at.filter(|_| timed), q.completion_at(id));
                Through { at, lands, item }
            })
        });
        coalesce(need, reads.collect())
    }

    /// The reactor's wait stage: advance to its next event — the earliest
    /// completion over the handle's qpairs (each is asked for its own, a
    /// heap peek) or a delayed part's retry instant — by the waiting rule
    /// ([`DlfsIo::advance_to`]). The wake-up is the handle's own: the
    /// earliest of its clocks' ([`DlfsIo::wake_by`]) and the retry
    /// instant's, hedged, or none if a busy clock predicts nothing. A
    /// zero-copy batch that still `need`s samples parks through the
    /// landings it does not need instead ([`DlfsIo::target`]).
    /// Returns the instant the wait's spin ended if it spun until the
    /// event, or `None` with nothing on a device and no retry queued:
    /// nothing to wait for.
    fn wait_event(&mut self, rt: &Runtime, need: Option<usize>) -> Option<Option<Time>> {
        let retry = self.delayed_parts.keys().next().map(|&(t, _)| t);
        let due = self.qpairs.iter().filter_map(|q| q.next_completion_at());
        let t = due.chain(retry).min()?;
        let now = rt.now();
        let (t, wake) = match need.and_then(|need| self.target(now, need)) {
            Some((event, wake)) => (retry.map_or(event, |r| event.min(r)), Some(wake)),
            None => (t, self.wake_by(now)),
        };
        let wake = wake.map(|w| retry.map_or(w, |r| w.min(hedge(now, r))));
        Some(self.advance_to(rt, t, wake))
    }

    /// Advance the calling thread to `t` by the waiting rule
    /// ([`hybrid_wait`]), what is in flight being this handle's reads.
    /// Counted as a reactor wakeup, its park in `dlfs.reactor.parked_ns`,
    /// its spin in `dlfs.reactor.spin_ns` — and, without a `wake`, in
    /// `dlfs.reactor.blind_spin_ns` — its excess over a clairvoyant wait
    /// in `dlfs.reactor.excess_ns` and a late end in
    /// `dlfs.reactor.late_ns`; a late wait forgets what
    /// every qpair timed alone, so a latency step down is late once.
    /// Returns `t` if the wait spun until it: a harvest that directly
    /// follows is prompt ([`ReadQp::harvest`]).
    fn advance_to(&mut self, rt: &Runtime, t: Time, wake: Option<Time>) -> Option<Time> {
        let own = self.qpairs.iter().any(|q| q.outstanding() > 0);
        let waited = hybrid_wait(rt, t, own, wake)?;
        self.tel.wakeups.inc();
        self.tel.parked_ns.add(waited.parked.as_nanos());
        self.tel.spin_ns.add(waited.spin.as_nanos());
        if wake.is_none() {
            self.tel.blind_spin_ns.add(waited.spin.as_nanos());
        }
        self.tel.excess_ns.add(waited.excess.as_nanos());
        self.tel.late_ns.add(waited.late.as_nanos());
        if waited.late > Dur::ZERO {
            self.qpairs.iter_mut().for_each(|q| q.alone.0.clear());
        }
        waited.spun.then_some(t)
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

    /// The waiting rule's (park, end), in ns from the wait's start, for a
    /// guess and an event: spinning by the guess itself, it parks to one
    /// wake-up before it; hedged, it parks half the guessed wait and pays
    /// the wake-up — spinning under two wake-ups — and ends late where the
    /// event beat the guess. No wake-up spins; nothing in flight parks. In
    /// every arm the wait's spin, its park and one wake-up per hybrid park
    /// are its elapsed time, and its spin and wake-up are a clairvoyant
    /// wait's plus its excess, which only a late wait can make negative.
    #[test]
    fn hybrid_wait_parks_to_one_wake_up_before_its_wake() {
        // [guess, event, park and end spun for as it is, park and end
        // hedged]
        const CELLS: [[u64; 6]; 8] = [
            [9_599, 9_599, 0, 9_599, 0, 9_599],
            [9_600, 9_600, 4_800, 9_600, 4_800, 9_600],
            [12_000, 12_000, 7_200, 12_000, 6_000, 12_000],
            [20_000, 20_000, 15_200, 20_000, 10_000, 20_000],
            [20_000, 12_000, 15_200, 20_000, 10_000, 14_800],
            [100_000, 150_000, 95_200, 150_000, 50_000, 150_000],
            [100_000, 52_000, 95_200, 100_000, 50_000, 54_800],
            [20_000, 6_000, 15_200, 20_000, 10_000, 14_800],
        ];
        Runtime::simulate(3, |rt| {
            // (park, end) of a wait for `event` with a wake-up at `guess`,
            // hedged or not, checking what the rule reports of it.
            let wait = |event: u64, own: bool, guess: Option<u64>, hedged: bool| {
                let start = rt.now();
                let at = guess.map(|g| start + Dur::nanos(g));
                let wake = at.map(|at| if hedged { hedge(start, at) } else { at });
                let waited = hybrid_wait(rt, start + Dur::nanos(event), own, wake)?;
                let end = rt.now() - start;
                assert_eq!(waited.late, end - Dur::nanos(event));
                assert_eq!(waited.spun, own && waited.late == Dur::ZERO);
                let woke = PARK_WAKE * (own && waited.parked > Dur::ZERO) as u64;
                assert_eq!(waited.spin + waited.parked + woke, end, "its spin");
                // A clairvoyant wait parks with nothing in flight, else
                // pays one wake-up for a wait of two, else spins it.
                let ideal = match own {
                    false => 0,
                    true if event < 2 * PARK_WAKE.as_nanos() => event,
                    true => PARK_WAKE.as_nanos(),
                };
                let excess = (waited.spin + woke).as_nanos() as i64 - ideal as i64;
                // Only a late wait's can be negative; it counts as none.
                let late = waited.late > Dur::ZERO;
                let want = if late { excess.max(0) } else { excess };
                assert_eq!(waited.excess.as_nanos() as i64, want, "its excess");
                Some((waited.parked.as_nanos(), end.as_nanos()))
            };
            for [guess, event, park, end, h_park, h_end] in CELLS {
                let cell = format!("guess {guess} event {event}");
                let g = Some(guess);
                assert_eq!(wait(event, true, g, false), Some((park, end)), "{cell}");
                assert_eq!(wait(event, true, g, true), Some((h_park, h_end)), "{cell}");
                assert_eq!(wait(event, true, None, false), Some((0, event)), "{cell}");
                assert_eq!(wait(event, false, g, false), Some((event, event)), "{cell}");
            }
            assert_eq!(wait(0, true, None, false), None, "no wait");
        });
    }

    /// A device's clock times each size class apart: fed prompt passes
    /// whose heads alternate 64 KiB at 1 000 ps/B and 256 KiB at 500, it
    /// predicts each from its own class alone, and a class it never timed
    /// — larger than anything timed, or smaller — not at all.
    #[test]
    fn a_device_clock_predicts_each_head_from_its_own_class() {
        let (mut clock, mut t) = (DeviceClock::default(), Time::ZERO + Dur::micros(1));
        let mut end = 64 << 10;
        clock.landed(Some(t), (Time::ZERO, 64 << 10, end, 0), end);
        // Prompt passes whose heads of `bytes` took `ps` per byte.
        let mut passes = |clock: &mut DeviceClock, heads: &[(u64, u64)]| {
            for &(bytes, ps) in heads {
                (t, end) = (t + at_rate(bytes, ps), end + bytes);
                clock.landed(Some(t), (Time::ZERO, bytes, end, 0), end);
            }
        };
        passes(&mut clock, &[(64 << 10, 1_000)]);
        // What a head of `bytes` next on the device takes from the anchor.
        let at = |clock: &DeviceClock, bytes: u64| {
            let (anchor, at) = clock.anchor?;
            Some(clock.predict((Time::ZERO, bytes, at + bytes, 0))? - anchor)
        };
        assert_eq!(at(&clock, 256 << 10), None, "larger than anything timed");
        passes(&mut clock, &[(256 << 10, 500), (64 << 10, 1_000)].repeat(8));
        // `bytes` at the floor of `n` samples of `ps`.
        let own = |ps: u64, n: usize, bytes: u64| {
            let mut rate = Ewma::new(ps, ps / 2);
            (1..n).for_each(|_| rate.sample(ps));
            Some(at_rate(bytes, rate.floor()))
        };
        let want = [
            own(500, 8, 256 << 10),
            own(1_000, 9, 64 << 10),
            own(1_000, 9, 120 << 10),
        ];
        assert_eq!(
            [256 << 10, 64 << 10, 120 << 10].map(|b| at(&clock, b)),
            want
        );
        let never = [4 << 10, 16 << 10, 1 << 20].map(|b| at(&clock, b));
        assert_eq!(never, [None; 3], "classes never timed");
    }

    /// The clock of a qpair on a local device.
    fn device_clock(qp: &mut ReadQp) -> &mut DeviceClock {
        let Feeds::Own(clock) = &mut qp.clock else {
            unreachable!("a local device")
        };
        clock
    }

    /// A device's clock times every byte its device moved, whoever posted
    /// it. With nothing else on the device, a queued head is expected at
    /// the later of the anchor and its post, plus its crossing. A head
    /// behind 256 KiB another poster put on the device is expected after
    /// them, at the least floor of any class timed, and the prompt pass
    /// that takes it samples the time over both.
    #[test]
    fn a_device_clock_times_every_byte_its_device_moved() {
        Runtime::simulate(5, |rt| {
            let devices = [NvmeDevice::new(DeviceConfig::optane(16 << 20))];
            let mut io = mount_on(rt, DlfsConfig::default(), &devices, 1);
            let fg = io.shared.fg_reads.clone();
            let qp = &mut io.qpairs[0];
            let post = |qp: &mut ReadQp| {
                let buf = DmaBuf::standalone(4096);
                assert_eq!(qp.submit_read(rt, 0, 0, 8, buf, 0), Ok(()));
            };
            // Harvest the next completion promptly, as it lands: the
            // clock's anchor and 4 KiB rate after.
            let land = |qp: &mut ReadQp| {
                rt.work_until(qp.next_completion_at().unwrap_or(rt.now()));
                assert_eq!(qp.harvest(rt, Some(rt.now())).len(), 1);
                let clock = device_clock(qp);
                let rate = clock.per_byte[class(4096)].unwrap_or(Ewma::new(0, 0));
                (clock.anchor.unwrap_or_default(), rate)
            };
            (0..3).for_each(|_| post(qp));
            land(qp);
            let ((anchor, _), rate) = land(qp);
            let crossing = at_rate(4096, rate.floor());
            let alone = qp.posted[0].0.max(anchor) + crossing;
            assert_eq!(qp.predicted(), Some(alone));
            // Another poster's 256 KiB, then a 4 KiB head behind them; a
            // 64 KiB class has the least floor.
            fg.advance(0, 256 << 10);
            post(qp);
            let ((anchor, at), mut rate) = land(qp);
            device_clock(qp).per_byte[class(64 << 10)] = Some(Ewma::new(100, 0));
            assert_eq!(qp.posted[0].2 - at, (256 << 10) + 4096, "queued ahead");
            let crossing = at_rate(4096, rate.floor());
            let behind = anchor + at_rate(256 << 10, 100) + crossing;
            assert_eq!(qp.predicted(), Some(behind));
            let (_, sampled) = land(qp);
            rate.sample((rt.now() - anchor).as_nanos() * 1_000 / ((256 << 10) + 4096));
            assert_eq!(sampled, rate, "over both");
        });
    }

    /// The wait stage advances to the earliest event: each qpair is asked
    /// for its next completion, and a delayed part's retry instant counts
    /// too. Nothing on a device and no retry queued: nothing to wait for.
    #[test]
    fn the_wait_stage_advances_to_the_earliest_event() {
        Runtime::simulate(5, |rt| {
            let devices = [0; 3].map(|_| NvmeDevice::new(DeviceConfig::optane(16 << 20)));
            let mut io = mount_on(rt, DlfsConfig::default(), &devices, 1);
            // Where each wait ended; nothing is harvested, so nothing is
            // predicted and every wait spins.
            let wait = |io: &mut DlfsIo| {
                io.wait_event(rt, None)
                    .map(|spun| (spun.is_some(), rt.now()))
            };
            assert_eq!(wait(&mut io), None);
            for (q, nblocks) in [(0, 1), (1, 1), (2, 1024)] {
                let buf = DmaBuf::standalone(nblocks as usize * BLOCK_SIZE as usize);
                assert_eq!(io.qpairs[q].submit_read(rt, 0, 0, nblocks, buf, 0), Ok(()));
            }
            // (A qpair with nothing pending would fail the next assert.)
            let due = [0, 1, 2].map(|q| io.qpairs[q].next_completion_at().unwrap_or(rt.now()));
            assert_eq!(wait(&mut io), Some((true, due[0].min(due[1]))));
            rt.work_until(due[0].max(due[1]));
            assert_eq!(io.poll(rt, None), 2);
            let retry = rt.now() + (due[2] - rt.now()) / 2;
            let (g, buf) = (io.read_geometry(0, 0, 512), DmaBuf::standalone(512));
            let part = (Part::first(0, 0, false), io.part_io(0, &g, 0, &[buf]));
            io.delayed_parts.insert((retry, 1), part);
            assert_eq!(wait(&mut io), Some((true, retry)));
            io.delayed_parts.clear();
            assert_eq!(wait(&mut io), Some((true, due[2])));
            assert_eq!(io.poll(rt, None), 1);
            assert_eq!(wait(&mut io), None);
        });
    }

    /// A qpair's anchor is when the wait before its last prompt harvest
    /// stopped spinning, with the end position of the newest read it took:
    /// a prompt harvest sets it and times the queued head from it, a
    /// harvest that is not prompt clears it — a queue is then predicted
    /// nothing until a wait sees a read land again — and an empty harvest
    /// leaves it.
    #[test]
    fn a_harvest_that_is_not_prompt_clears_the_anchor() {
        Runtime::simulate(5, |rt| {
            let devices = [NvmeDevice::new(DeviceConfig::optane(16 << 20))];
            let mut io = mount_on(rt, DlfsConfig::default(), &devices, 1);
            let qp = &mut io.qpairs[0];
            let post = |qp: &mut ReadQp, n: u64| {
                for id in 0..n {
                    let buf = DmaBuf::standalone(4096);
                    assert_eq!(qp.submit_read(rt, id, 0, 8, buf, 0), Ok(()));
                }
            };
            // Harvest the next completion as it lands: when, and where
            // the read ended on the device.
            let land = |qp: &mut ReadQp, prompt: bool| {
                let end = qp.posted[0].2;
                rt.work_until(qp.next_completion_at().unwrap_or(rt.now()));
                assert_eq!(qp.harvest(rt, prompt.then(|| rt.now())).len(), 1);
                (rt.now(), end)
            };
            // A local device: the qpair keeps its own clock.
            let clock = |qp: &ReadQp| match &qp.clock {
                Feeds::Own(clock) => Some((clock.anchor, clock.per_byte[class(4096)])),
                Feeds::Wire(_) => None,
            };
            post(qp, 3);
            let first = land(qp, true);
            assert_eq!(clock(qp), Some((Some(first), None)));
            assert_eq!(qp.predicted(), None, "a queue with nothing timed");
            let second = land(qp, true);
            let ps = (second.0 - first.0).as_nanos() * 1_000 / 4096;
            let rate = Ewma::new(ps, ps / 2);
            assert_eq!(clock(qp), Some((Some(second), Some(rate))));
            post(qp, 1);
            let head = qp.posted[0].0.max(second.0);
            let due = head + Dur::nanos(4096 * rate.floor() / 1_000);
            assert_eq!(qp.predicted(), Some(due));
            assert_eq!(qp.harvest(rt, None).len(), 0);
            let anchor = clock(qp).and_then(|(anchor, _)| anchor);
            assert_eq!(anchor, Some(second), "an empty harvest");
            land(qp, false);
            assert_eq!(clock(qp), Some((None, Some(rate))));
            post(qp, 1);
            assert_eq!(qp.predicted(), None, "a queue without an anchor");
        });
    }

    /// A lone table fed (bytes, µs, times) in order.
    fn lone_table(fed: &[(u64, u64, u32)]) -> LoneFloors {
        let mut floors = LoneFloors::default();
        for &(bytes, took, times) in fed {
            (0..times).for_each(|_| floors.sample(bytes, Dur::micros(took)));
        }
        floors
    }

    /// A lone read's floor is the least time alone of the largest size up
    /// to its bytes sampled [`LONE_SAMPLES`] times, capped by every such
    /// size above it; while no size up to it is, the least of them all
    /// once they hold that many samples together; else none.
    #[test]
    fn a_lone_floor_follows_the_largest_trusted_size_at_or_below_the_bytes() {
        let (us, n) = (|t| Some(Dur::micros(t)), LONE_SAMPLES);
        // The floors at four sizes.
        let fed = |fed: &[_]| [1024, 4096, 8192, 65536].map(|b| lone_table(fed).floor(b));
        let want = [None, us(10), us(10), us(30)];
        assert_eq!(fed(&[(4096, 10, n), (65536, 30, n)]), want, "its own size");
        assert_eq!(fed(&[(1024, 20, n), (8192, 8, n)]), [us(8); 4], "capped");
        assert_eq!(fed(&[]), [None; 4], "nothing pooled");
        let three = (4096, 10, 3);
        assert_eq!(fed(&[three]), [None; 4], "three samples");
        let want = [None, us(9), us(9), us(9)];
        assert_eq!(fed(&[three, (1024, 9, 1)]), want, "pooled");
        let want = [None, us(10), us(10), us(10)];
        assert_eq!(fed(&[three, (1024, 9, 1), (4096, 13, 1)]), want, "own");
    }

    /// A qpair without a floor of its own borrows its siblings' tables
    /// taken together — least per size, samples summed — only if it holds
    /// a sample at a size theirs floors and each such sample took no less
    /// than their floor there.
    #[test]
    fn a_loan_needs_own_samples_that_agree_with_the_siblings_floor() {
        let table = lone_table;
        // 4 KiB trusted only together, at 10 µs; 1 KiB sampled once.
        let theirs = [
            table(&[(4096, 12, 2)]),
            table(&[(4096, 10, 2), (1024, 6, 1)]),
        ];
        let lend = |own: &[(u64, u64, u32)]| table(own).borrow(theirs.iter(), 8192);
        let us = |t| Some(Dur::micros(t));
        assert_eq!(lend(&[(4096, 11, 1)]), us(10), "agrees");
        assert_eq!(lend(&[(4096, 10, 1), (8192, 12, 1)]), us(10));
        assert_eq!(lend(&[(4096, 11, 1), (8192, 9, 1)]), None, "one faster");
        assert_eq!(lend(&[(1024, 7, 1), (4096, 11, 1)]), us(7), "capped");
        assert_eq!(lend(&[(1024, 9, 1), (2048, 9, 3)]), None, "none comparable");
        assert_eq!(lend(&[]), None, "no samples");
        assert_eq!(table(&[(4096, 11, 1)]).borrow([].iter(), 8192), None);
    }

    /// A lone read parks to its qpair's own floor where it has one, and
    /// only without one to the floor its siblings lend.
    #[test]
    fn an_own_lone_floor_wins_over_a_loan() {
        Runtime::simulate(5, |rt| {
            let devices = [0; 2].map(|_| NvmeDevice::new(DeviceConfig::optane(16 << 20)));
            let mut io = mount_on(rt, DlfsConfig::default(), &devices, 1);
            (0..LONE_SAMPLES).for_each(|_| io.qpairs[1].alone.sample(4096, Dur::micros(10)));
            io.qpairs[0].alone.sample(4096, Dur::micros(30));
            let buf = DmaBuf::standalone(4096);
            assert_eq!(io.qpairs[0].submit_read(rt, 0, 0, 8, buf, 0), Ok(()));
            let post = io.qpairs[0].posted[0].0;
            let lone = |io: &DlfsIo| io.qpairs[0].lone(std::iter::once(&io.qpairs[1].alone));
            assert_eq!(lone(&io), Some(post + Dur::micros(10)), "borrowed");
            (1..LONE_SAMPLES).for_each(|_| io.qpairs[0].alone.sample(4096, Dur::micros(30)));
            assert_eq!(lone(&io), Some(post + Dur::micros(30)), "its own");
        });
    }

    /// What one handle's reads on two local devices — `reads` (qpair,
    /// blocks) posted at once, then harvested by the wait stage, `work`
    /// (the pump's, say) and a poll pass until none is in flight — timed
    /// alone: (qpair, bytes, least ns).
    fn timed_alone(rt: &Runtime, reads: &[(usize, u32)], work: Dur) -> Vec<(usize, u64, u64)> {
        let devices = [0; 2].map(|_| NvmeDevice::new(DeviceConfig::optane(16 << 20)));
        let mut io = mount_on(rt, DlfsConfig::default(), &devices, 1);
        for &(q, n) in reads {
            let buf = DmaBuf::standalone(n as usize * BLOCK_SIZE as usize);
            assert_eq!(io.qpairs[q].submit_read(rt, 0, 0, n, buf, 0), Ok(()));
        }
        while let Some(spun) = io.wait_event(rt, None) {
            rt.work(work);
            io.poll(rt, spun);
        }
        let on = io.qpairs.iter().enumerate();
        let table =
            on.flat_map(|(q, p)| p.alone.0.iter().map(move |(&b, e)| (q, b, e.0.as_nanos())));
        table.collect()
    }

    /// A read is timed alone only in a poll pass that began with it its
    /// handle's one read in flight, and only if it was posted with its
    /// path to itself and nothing entered it since: of two reads posted at
    /// once on two devices, the first to land is not timed; on one, neither
    /// is. It is timed from the end of the wait that spun until it landed,
    /// not from the pass's start: what ran between does not lengthen it.
    #[test]
    fn a_read_is_timed_alone_from_the_end_of_its_spin() {
        Runtime::simulate(5, |rt| {
            let two = timed_alone(rt, &[(0, 8), (1, 64)], Dur::ZERO);
            assert_eq!(
                two.iter().map(|e| (e.0, e.1)).collect::<Vec<_>>(),
                [(1, 64 * 512)]
            );
            assert_eq!(timed_alone(rt, &[(0, 8), (0, 64)], Dur::ZERO), []);
            let quiet = timed_alone(rt, &[(0, 8)], Dur::ZERO);
            assert_eq!(
                (quiet.len(), timed_alone(rt, &[(0, 8)], Dur::micros(3))),
                (1, quiet)
            );
        });
    }

    /// A wait that ends past its completion forgets what every qpair
    /// timed alone, so what its siblings lend too: a lone read then spins
    /// until its size is timed again.
    #[test]
    fn a_late_wait_forgets_what_each_qpair_timed_alone() {
        Runtime::simulate(5, |rt| {
            let devices = [0; 2].map(|_| NvmeDevice::new(DeviceConfig::optane(16 << 20)));
            let mut io = mount_on(rt, DlfsConfig::default(), &devices, 1);
            (0..LONE_SAMPLES).for_each(|_| io.qpairs[1].alone.sample(4096, Dur::micros(1)));
            io.qpairs[0].alone.sample(4096, Dur::micros(1));
            let buf = DmaBuf::standalone(4096);
            assert_eq!(io.qpairs[0].submit_read(rt, 0, 0, 8, buf, 0), Ok(()));
            let lone = |io: &DlfsIo| io.qpairs[0].lone(std::iter::once(&io.qpairs[1].alone));
            assert_ne!(lone(&io), None, "a loan");
            let t = io.qpairs[0].next_completion_at().unwrap_or(rt.now());
            assert_eq!(io.advance_to(rt, t, Some(t + Dur::micros(20))), None);
            assert_eq!(io.qpairs.iter().map(|q| q.alone.0.len()).sum::<usize>(), 0);
            assert_eq!(lone(&io), None, "nothing to lend");
        });
    }

    /// A wire is judged on the order it lands its reads in: it is timed as
    /// one in post order after [`IN_ORDER_PASSES`] passes in post order,
    /// and one overtake is for good.
    #[test]
    fn k_passes_in_post_order_arm_the_order_rule_and_one_overtake_disarms_it() {
        // Armed after each pass judged: the overtake comes two passes
        // after arming, then only passes in post order.
        let (mut wire, k) = (Wire::new(), IN_ORDER_PASSES as usize);
        let armed: Vec<bool> = (0..4 * k)
            .map(|i| {
                wire.judge(i == k + 1);
                wire.in_order()
            })
            .collect();
        let want: Vec<bool> = (0..4 * k).map(|i| i + 1 == k || i == k).collect();
        assert_eq!(armed, want);
    }

    /// The floors of a wire's reads, at 1 ns per byte from an anchor at
    /// 0: on a wire that has overtaken, each read's own bytes from the
    /// later of the anchor and its post; in post order, after every read
    /// posted before it, two posted at once alike. A read over twice the
    /// mean bytes sampled (16 000) crosses as one of twice the mean.
    #[test]
    fn a_wire_in_post_order_floors_each_read_after_those_posted_before_it() {
        let mut wire = Wire::new();
        wire.clock.anchor = Some(Time::ZERO);
        wire.clock.rate = Some((Ewma::new(1_000, 0), Ewma::new(16_000, 0)));
        let at = |us: u64| Time::ZERO + Dur::micros(us);
        let reads = [
            (at(0), 30_000),
            (at(1), 10_000),
            (at(1), 20_000),
            (at(2), 40_000),
            (at(50), 10_000),
            (at(200), 1_000_000),
        ];
        let floors =
            |w: &Wire| Vec::from_iter(w.floors(reads.into_iter()).map(|f| f.map(Time::nanos)));
        wire.ordered = None;
        let want = [30_000, 11_000, 21_000, 34_000, 60_000, 232_000];
        assert_eq!(floors(&wire), want.map(Some));
        wire.ordered = Some(IN_ORDER_PASSES);
        let want = [30_000, 40_000, 50_000, 82_000, 92_000, 232_000];
        assert_eq!(floors(&wire), want.map(Some));
    }

    /// A zero-copy wait's target ([`coalesce`]): in the order of their
    /// floors, the first read at which the items reached hold what the
    /// batch needs — an item of two parts only once its second is reached
    /// — or the [`COALESCE`]th read, or the last. The wait parks to the
    /// target's wake-up and ends at its landing, or earlier at the landing
    /// after which the batch can be filled. A read without a floor ahead of
    /// the target, or a lone read, leaves the next landing's wait.
    #[test]
    fn a_zero_copy_wait_targets_the_read_that_fills_its_batch() {
        let at = |us: u64| Time::ZERO + Dur::micros(us);
        // A read floored at `floor` µs, woken 1 µs earlier, that lands at
        // `lands` µs: a part of `item` (item, parts left, samples left), or
        // a prefetch.
        let read = |floor: Option<u64>, lands: u64, item: Option<(u32, u32, usize)>| Through {
            at: floor.map(|f| (at(f), at(f - 1))),
            lands: Some(at(lands)),
            item,
        };
        // (event, wake-up) in µs.
        let wait = |need: usize, reads: Vec<Through>| {
            let us = |t: Time| (t - Time::ZERO).as_nanos() / 1_000;
            coalesce(need, reads).map(|(event, wake)| (us(event), us(wake)))
        };
        // Item 0 of two parts (4 samples), items 1 and 2 of one (3 and 8),
        // listed out of floor order.
        let items = || {
            vec![
                read(Some(40), 42, Some((2, 1, 8))),
                read(Some(10), 12, Some((0, 2, 4))),
                read(Some(30), 32, Some((0, 2, 4))),
                read(Some(20), 22, Some((1, 1, 3))),
            ]
        };
        assert_eq!(wait(3, items()), Some((22, 19)), "item 1 fills it");
        assert_eq!(wait(4, items()), Some((32, 29)), "at item 0's last part");
        assert_eq!(wait(8, items()), Some((42, 39)), "three items");
        assert_eq!(wait(99, items()), Some((42, 39)), "the fourth read");
        let three = items().into_iter().skip(1).collect();
        assert_eq!(wait(99, three), Some((32, 29)), "the last of three");
        // A later read that lands first fills the batch before the target
        // lands: the wait ends there, past its wake-up or not.
        let early = vec![
            read(Some(10), 40, Some((0, 1, 1))),
            read(Some(20), 30, Some((1, 1, 1))),
            read(Some(30), 15, Some((2, 1, 5))),
        ];
        assert_eq!(wait(2, early), Some((15, 19)), "filled before the target");
        // Six one-part items of one sample and a prefetch: the walk stops
        // at the fourth read.
        let mut many: Vec<_> = (0..6)
            .map(|i| read(Some(10 * i + 10), 10 * i + 12, Some((i as u32, 1, 1))))
            .collect();
        many.insert(1, read(Some(15), 17, None));
        assert_eq!(wait(6, many), Some((32, 29)), "capped");
        let mut blind = items();
        blind.push(read(None, 50, Some((3, 1, 1))));
        assert_eq!(wait(3, blind), None, "a read without a floor ahead");
        assert_eq!(wait(1, vec![read(Some(10), 12, None)]), None, "a lone read");
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
