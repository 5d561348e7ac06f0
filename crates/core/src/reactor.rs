//! The reactor of one [`DlfsIo`](super::DlfsIo), a child module of `io`:
//! the handle's qpairs, the wires their payloads land through, and the
//! one waiting decision of DESIGN §13 — when the calling thread must be
//! spinning again to harvest what it posted. Everything that decision
//! reads lives here: the waiting rule ([`hybrid_wait`]), the clocks a
//! wait is predicted by, what each qpair timed alone, the instance's
//! [`ForegroundReads`] and the `dlfs.reactor.*` counters. The handle
//! asks it to post a read ([`Reactor::submit`]), to harvest a poll pass
//! ([`Reactor::harvest`]), to wait for the next event
//! ([`Reactor::wait_event`]) and to advance to an instant
//! ([`Reactor::advance_to`]); it never reads a qpair itself.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use blocksim::{Completion, DmaBuf, IoQPair, NvmeTarget, QpairError, BLOCK_SIZE};
use simkit::runtime::Runtime;
use simkit::telemetry::{Counter, Registry};
use simkit::time::{Dur, Time};

use crate::counter_in;

/// Per storage node, the instance's read commands in flight: counted from
/// the submit that enters a reader handle's qpair to the harvest (or the
/// handle's drop) that takes it out, plus the offload exchanges touching
/// the node that their batches have not collected. Past the storage nodes,
/// a slot per cluster node counts the qpairs' reads landing through its
/// NIC ingress alike. Every reader handle shares one; it advances no
/// virtual time. Each slot also counts the reads ever entered, so a
/// handle can tell whether others came and went. A storage node's slot
/// also counts the bytes ever posted to its device, by every handle's
/// reads and the checkpoint appender: the *position* of each command,
/// which a reader's device clock times its device by (DESIGN §13).
#[derive(Debug)]
pub(crate) struct ForegroundReads(Vec<[AtomicUsize; 3]>);

impl ForegroundReads {
    pub(crate) fn new(nodes: usize) -> ForegroundReads {
        ForegroundReads((0..nodes).map(|_| Default::default()).collect())
    }

    /// Read commands in flight on storage node `nid` (0 past the last).
    pub(crate) fn in_flight(&self, nid: usize) -> usize {
        self.0.get(nid).map_or(0, |n| n[0].load(Ordering::Relaxed))
    }

    /// Read commands ever entered on storage node `nid`.
    fn entered(&self, nid: usize) -> usize {
        self.0[nid][1].load(Ordering::Relaxed)
    }

    /// Count a read in on node `nid`.
    pub(crate) fn enter(&self, nid: usize) {
        for n in &self.0[nid][..2] {
            n.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count `n` reads out of node `nid`.
    pub(crate) fn leave(&self, nid: usize, n: usize) {
        self.0[nid][0].fetch_sub(n, Ordering::Relaxed);
    }

    /// Post a command of `bytes` to storage node `nid`'s device: its end
    /// position, the bytes ever posted there with its own.
    pub(crate) fn advance(&self, nid: usize, bytes: u64) -> u64 {
        self.0[nid][2].fetch_add(bytes as usize, Ordering::Relaxed) as u64 + bytes
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
    spun: bool,
    /// The time it parked (idle), and the busy time it spun, after any
    /// wake-up.
    parked: Dur,
    spin: Dur,
    /// How far past the event it ran.
    late: Dur,
    /// Its spin and wake-up less a clairvoyant wait's: one [`PARK_WAKE`]
    /// for a wait of at least two, else its length spun. Zero with
    /// nothing of its own in flight, or for a late park that cost less.
    excess: Dur,
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
    item: PartOf,
}

/// The epoch's item a read is a part of, if it is one: its index, its
/// parts left and its samples left.
pub(super) type PartOf = Option<(u32, u32, usize)>;

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
    /// Wire `w` of the handle's ([`Reactor::wires`]): a reader NIC ingress
    /// its payloads cross one after another with other qpairs'.
    Wire(usize),
}

/// The passes a wire must take in post order before it is timed as one
/// that lands in post order ([`Wire::in_order`]): its first few have had
/// little chance to show an overtake.
const IN_ORDER_PASSES: u32 = 16;

/// What a poll pass took through a wire ([`Reactor::harvest`]).
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
    /// ([`Reactor::advance_to`]), and, if its last read was posted with
    /// its path to itself ([`ReadQp::path`]), the reads entered there by
    /// then.
    alone: LoneFloors,
    quiet: Option<usize>,
    /// The clock its queued reads are timed on.
    clock: Feeds,
}

impl ReadQp {
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

/// A dropped handle's reads never complete for it.
impl Drop for ReadQp {
    fn drop(&mut self) {
        self.slots()
            .for_each(|s| self.fg.leave(s, self.qp.outstanding()));
    }
}

/// One handle's qpairs, one per storage node, the wires they land
/// through, and its `dlfs.reactor.*` counters, registered only with
/// [`DlfsConfig::reactor_stats`](crate::DlfsConfig::reactor_stats):
/// times the thread advanced straight to a known event (a completion
/// instant, a retry coming due) instead of spinning poll iterations
/// toward it; submission-queue doorbell flushes (one per pass that
/// posted, not one per command); virtual nanoseconds parked idle, with
/// nothing in flight or in a hybrid poll's park; virtual nanoseconds a
/// wait spun busy after any wake-up, and of them those of waits with
/// nothing to wake by (its own reads in flight, it spins throughout);
/// virtual nanoseconds its waits spun and woke beyond a clairvoyant wait
/// ([`Waited::excess`]); virtual nanoseconds a harvest came after its
/// completion because the thread was parked.
pub(super) struct Reactor {
    qpairs: Vec<ReadQp>,
    /// The reader NIC ingresses its remote qpairs land through
    /// ([`Feeds::Wire`]).
    wires: Vec<Wire>,
    tel: Tel,
}

/// The reactor's counters, named as registered ([`Reactor`]).
struct Tel {
    wakeups: Counter,
    doorbells: Counter,
    parked_ns: Counter,
    spin_ns: Counter,
    blind_spin_ns: Counter,
    excess_ns: Counter,
    late_ns: Counter,
}

/// A poll pass in progress ([`Reactor::pass`]).
pub(super) struct Pass {
    /// The next qpair the sweep looks at: it goes in index order.
    next: usize,
    /// When the pass began, which a wire is timed from, or `None` in a
    /// drain, where a wire is timed from its first harvest.
    polled: Option<Time>,
    /// When the wait before it stopped spinning, if it spun until a
    /// completion landed.
    spun: Option<Time>,
    /// `spun`, if the handle had one read in flight as the pass began: a
    /// read it takes alone is timed from there ([`ReadQp::time_alone`]).
    lone: Option<Time>,
}

impl Reactor {
    /// A qpair of depth `depth` on each of `targets`, counting its reads
    /// in `fg` and its metrics under `blocksim.dev{n}.*` of `reg`, where
    /// the `dlfs.reactor.*` counters go too if `stats`.
    pub(super) fn new(
        targets: &[Arc<dyn NvmeTarget>],
        depth: usize,
        fg: &Arc<ForegroundReads>,
        reg: &Registry,
        stats: bool,
    ) -> Reactor {
        // The reader NIC ingresses the targets land through: one wire each.
        let mut nodes: Vec<usize> = targets.iter().filter_map(|t| t.ingress()).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let qpairs = (targets.iter().enumerate())
            .map(|(nid, t)| {
                let mut qp = IoQPair::new(t.clone(), depth);
                qp.attach_telemetry(&reg.scoped(&format!("blocksim.dev{nid}")));
                let wire = t.ingress().and_then(|n| nodes.iter().position(|&m| m == n));
                ReadQp {
                    qp,
                    nid,
                    fg: fg.clone(),
                    link: t.ingress().map(|n| targets.len() + n),
                    posted: VecDeque::new(),
                    alone: LoneFloors::default(),
                    quiet: None,
                    clock: wire.map_or(Feeds::Own(Box::default()), Feeds::Wire),
                }
            })
            .collect();
        let rx = stats.then(|| reg.scoped("dlfs.reactor"));
        let counter = |name| counter_in(rx.as_ref(), name);
        Reactor {
            qpairs,
            wires: vec![Wire::new(); nodes.len()],
            tel: Tel {
                wakeups: counter("wakeups"),
                doorbells: counter("doorbells"),
                parked_ns: counter("parked_ns"),
                spin_ns: counter("spin_ns"),
                blind_spin_ns: counter("blind_spin_ns"),
                excess_ns: counter("excess_ns"),
                late_ns: counter("late_ns"),
            },
        }
    }

    /// The handle's qpairs, one per storage node.
    pub(super) fn qpairs(&self) -> usize {
        self.qpairs.len()
    }

    /// Post command `id`, a read of `nblocks` blocks at `slba` into `buf`,
    /// on qpair `dev`, entering it in the instance's [`ForegroundReads`]:
    /// `QueueFull`, and nothing done, if the qpair holds its own depth
    /// already, which clamps the configured one to its device.
    pub(super) fn submit(
        &mut self,
        rt: &Runtime,
        dev: usize,
        id: u64,
        slba: u64,
        nblocks: u32,
        buf: DmaBuf,
    ) -> Result<(), QpairError> {
        let q = &mut self.qpairs[dev];
        q.qp.submit_read(rt, id, slba, nblocks, buf, 0)?;
        q.slots().for_each(|s| q.fg.enter(s));
        let (alone, entered) = q.path();
        q.quiet = alone.then_some(entered);
        let bytes = nblocks as u64 * BLOCK_SIZE;
        let end = q.fg.advance(q.nid, bytes);
        q.posted.push_back((rt.now(), bytes, end, id));
        Ok(())
    }

    /// Count a doorbell if a pass posted `posted` commands: one flush per
    /// pass that posted, not one per command.
    pub(super) fn doorbell(&self, posted: usize) {
        self.tel.doorbells.add((posted > 0) as u64);
    }

    /// A poll pass that begins at `polled`, directly after a wait whose
    /// spin ended at `spun` as a completion landed, if one did: every
    /// harvest in it is then prompt, whatever ran between the two. With
    /// `polled` `None` it is a pass of the `abort_epoch` drain: a harvest
    /// in it is prompt only while no completion's work has moved the clock
    /// since, and it times nothing alone.
    pub(super) fn pass(&self, polled: Option<Time>, spun: Option<Time>) -> Pass {
        let in_flight = self.qpairs.iter().map(|q| q.posted.len()).sum::<usize>();
        let lone = spun.filter(|_| polled.is_some() && in_flight == 1);
        Pass {
            next: 0,
            polled,
            spun,
            lone,
        }
    }

    /// The next harvest of `pass`: every due completion of the next qpair,
    /// in index order, whose earliest completion is due. The check is live
    /// (work on what an earlier qpair gave can make a later one due) and
    /// in index order, both load-bearing for determinism; a qpair with
    /// nothing due is passed over unobserved. Each read is matched to its
    /// post by command id. A qpair on its own clock is fed its oldest read
    /// taken and the end position of its newest ([`DeviceClock::landed`]);
    /// one on a wire notes what it took there for the pass's end. A read
    /// the pass takes alone is timed ([`ReadQp::time_alone`]). `None`, and
    /// the pass ends ([`Reactor::close_pass`]), once no qpair is left.
    pub(super) fn harvest(&mut self, rt: &Runtime, pass: &mut Pass) -> Option<Vec<Completion>> {
        let now = rt.now();
        let due = |q: &ReadQp| q.qp.next_completion_at().is_some_and(|t| t <= now);
        let Some(at) = self.qpairs[pass.next..].iter().position(due) else {
            pass.next = self.qpairs.len();
            self.close_pass();
            return None;
        };
        let q = &mut self.qpairs[pass.next + at];
        pass.next += at + 1;
        let (polled, spun) = match pass.polled {
            Some(polled) => (polled, pass.spun),
            None => (now, pass.spun.filter(|&s| s == now)),
        };
        let done = q.qp.process_completions(rt, usize::MAX);
        q.slots().for_each(|s| q.fg.leave(s, done.len()));
        let (mut head, mut newest) = (None::<Posted>, 0);
        for c in &done {
            let at = q.posted.iter().position(|p| p.3 == c.id);
            if let Some(read) = at.and_then(|at| q.posted.remove(at)) {
                head = head.filter(|h| h.0 <= read.0).or(Some(read));
                newest = newest.max(read.2);
            }
        }
        if let (Feeds::Own(clock), Some(head)) = (&mut q.clock, head) {
            clock.landed(spun, head, newest);
        }
        if let (&Feeds::Wire(w), Some(first)) = (&q.clock, done.first()) {
            let pass = self.wires[w].pass.get_or_insert(WirePass {
                polled,
                prompt: true,
                oldest: first.submitted,
                newest: first.submitted,
                bytes: 0,
            });
            pass.prompt &= spun.is_some();
            for c in &done {
                pass.oldest = pass.oldest.min(c.submitted);
                pass.newest = pass.newest.max(c.submitted);
                pass.bytes += c.bytes;
            }
        }
        if let (Some(end), [read]) = (pass.lone, &done[..]) {
            q.time_alone(read, end);
        }
        Some(done)
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
    /// its floor, its landing and, by `item`, the epoch's item it is a
    /// part of: `(event, wake-up)`, or `None` to wait for the next landing,
    /// as a local queue does — its clock floors only its head
    /// ([`ReadQp::predicted`]). A read on a wire not timed in post order
    /// ([`Wire::in_order`]) has no floor here: the wire floors it by its
    /// own bytes, which says nothing of the landings ahead of it.
    fn target(&self, now: Time, need: usize, item: &dyn Fn(u64) -> PartOf) -> Option<(Time, Time)> {
        let local = |q: &ReadQp| matches!(q.clock, Feeds::Own(_));
        if self.qpairs.iter().any(|q| local(q) && !q.posted.is_empty()) {
            return None;
        }
        let reads = (0..self.wires.len()).flat_map(|w| {
            let timed = self.wires[w].in_order();
            self.wire_reads(w, now).map(move |(q, (.., id), at)| {
                let (at, lands) = (at.filter(|_| timed), q.qp.completion_at(id));
                Through {
                    at,
                    lands,
                    item: item(id),
                }
            })
        });
        coalesce(need, reads.collect())
    }

    /// The wait stage: advance to the next event — the earliest completion
    /// over the qpairs (each is asked for its own, a heap peek) or `retry`,
    /// the earliest instant a delayed part is due — by the waiting rule
    /// ([`Reactor::advance_to`]). The wake-up is the handle's own: the
    /// earliest of its clocks' ([`Reactor::wake_by`]) and the retry
    /// instant's, hedged, or none if a busy clock predicts nothing. A
    /// zero-copy batch that still needs samples, with `item` naming the
    /// epoch's item a command is a part of, parks through the landings it
    /// does not need instead ([`Reactor::target`]). Returns the instant the
    /// wait's spin ended if it spun until the event, or `None` with nothing
    /// on a device and no retry queued: nothing to wait for.
    pub(super) fn wait_event(
        &mut self,
        rt: &Runtime,
        retry: Option<Time>,
        need: Option<(usize, &dyn Fn(u64) -> PartOf)>,
    ) -> Option<Option<Time>> {
        let due = self.qpairs.iter().filter_map(|q| q.qp.next_completion_at());
        let t = due.chain(retry).min()?;
        let now = rt.now();
        let (t, wake) = match need.and_then(|(need, item)| self.target(now, need, item)) {
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
    /// follows is prompt.
    pub(super) fn advance_to(&mut self, rt: &Runtime, t: Time, wake: Option<Time>) -> Option<Time> {
        let own = self.qpairs.iter().any(|q| q.qp.outstanding() > 0);
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
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use blocksim::{DeviceConfig, DmaBuf, FaultInjector, NvmeDevice, NvmeTarget, BLOCK_SIZE};
    use simkit::runtime::Runtime;
    use simkit::telemetry::Registry;
    use simkit::time::{Dur, Time};

    use super::{at_rate, class, coalesce, hedge, hybrid_wait, DeviceClock, Ewma, Feeds};
    use super::{ForegroundReads, LoneFloors, Reactor, ReadQp, Through, Wire};
    use super::{IN_ORDER_PASSES, LONE_SAMPLES, PARK_WAKE};

    /// A reactor over `N` local devices, as one reader's handle has, and
    /// the instance's count of reads in flight per device.
    fn reactor<const N: usize>() -> (Reactor, Arc<ForegroundReads>) {
        reactor_on(&[0; N].map(|_| NvmeDevice::new(DeviceConfig::optane(16 << 20))))
    }

    /// A reactor over `devices`, as [`reactor`].
    fn reactor_on(devices: &[Arc<NvmeDevice>]) -> (Reactor, Arc<ForegroundReads>) {
        let fg = Arc::new(ForegroundReads::new(devices.len()));
        let targets: Vec<Arc<dyn NvmeTarget>> = devices.iter().map(|d| d.clone() as _).collect();
        let depth = crate::DlfsConfig::default().queue_depth;
        let reactor = Reactor::new(&targets, depth, &fg, &Registry::new(), false);
        (reactor, fg)
    }

    /// Post a read of `nblocks` blocks on qpair `q`, under a command id of
    /// its own.
    fn submit(r: &mut Reactor, rt: &Runtime, q: usize, nblocks: u32) {
        static ID: AtomicU64 = AtomicU64::new(0);
        let id = ID.fetch_add(1, Ordering::Relaxed);
        let buf = DmaBuf::standalone(nblocks as usize * BLOCK_SIZE as usize);
        assert_eq!(r.submit(rt, q, id, 0, nblocks, buf), Ok(()));
    }

    /// A poll pass that begins now after a wait whose spin ended at
    /// `spun`: the completions it took.
    fn poll(r: &mut Reactor, rt: &Runtime, spun: Option<Time>) -> usize {
        let mut pass = r.pass(Some(rt.now()), spun);
        let passes = std::iter::from_fn(|| r.harvest(rt, &mut pass));
        passes.map(|d| d.len()).sum()
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
        let got = [256 << 10, 64 << 10, 120 << 10].map(|b| at(&clock, b));
        assert_eq!(got, want);
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
            let (mut r, fg) = reactor::<1>();
            let post = |r: &mut Reactor| submit(r, rt, 0, 8);
            // Harvest the next completion promptly, as it lands: the
            // clock's anchor and 4 KiB rate after.
            let land = |r: &mut Reactor| {
                rt.work_until(r.qpairs[0].qp.next_completion_at().unwrap_or(rt.now()));
                assert_eq!(poll(r, rt, Some(rt.now())), 1);
                let clock = device_clock(&mut r.qpairs[0]);
                let rate = clock.per_byte[class(4096)].unwrap_or(Ewma::new(0, 0));
                (clock.anchor.unwrap_or_default(), rate)
            };
            (0..3).for_each(|_| post(&mut r));
            land(&mut r);
            let ((anchor, _), rate) = land(&mut r);
            let crossing = at_rate(4096, rate.floor());
            let alone = r.qpairs[0].posted[0].0.max(anchor) + crossing;
            assert_eq!(r.qpairs[0].predicted(), Some(alone));
            // Another poster's 256 KiB, then a 4 KiB head behind them; a
            // 64 KiB class has the least floor.
            fg.advance(0, 256 << 10);
            post(&mut r);
            let ((anchor, at), mut rate) = land(&mut r);
            device_clock(&mut r.qpairs[0]).per_byte[class(64 << 10)] = Some(Ewma::new(100, 0));
            let ahead = r.qpairs[0].posted[0].2 - at;
            assert_eq!(ahead, (256 << 10) + 4096, "queued ahead");
            let crossing = at_rate(4096, rate.floor());
            let behind = anchor + at_rate(256 << 10, 100) + crossing;
            assert_eq!(r.qpairs[0].predicted(), Some(behind));
            let (_, sampled) = land(&mut r);
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
            let (mut r, _) = reactor::<3>();
            // Where each wait ended; nothing is harvested, so nothing is
            // predicted and every wait spins.
            let wait = |r: &mut Reactor, retry: Option<Time>| {
                r.wait_event(rt, retry, None)
                    .map(|spun| (spun.is_some(), rt.now()))
            };
            assert_eq!(wait(&mut r, None), None);
            for (q, nblocks) in [(0, 1), (1, 1), (2, 1024)] {
                submit(&mut r, rt, q, nblocks);
            }
            // (A qpair with nothing pending would fail the next assert.)
            let due = [0, 1, 2].map(|q| r.qpairs[q].qp.next_completion_at().unwrap_or(rt.now()));
            assert_eq!(wait(&mut r, None), Some((true, due[0].min(due[1]))));
            rt.work_until(due[0].max(due[1]));
            assert_eq!(poll(&mut r, rt, None), 2);
            let retry = rt.now() + (due[2] - rt.now()) / 2;
            assert_eq!(wait(&mut r, Some(retry)), Some((true, retry)));
            assert_eq!(wait(&mut r, None), Some((true, due[2])));
            assert_eq!(poll(&mut r, rt, None), 1);
            assert_eq!(wait(&mut r, None), None);
        });
    }

    /// A harvest takes each completion's own read out of the qpair's
    /// queue, found by command id: of two equal reads posted at one
    /// instant, the one a latency spike holds back stays in flight, with
    /// its end position on the device, while the other is taken.
    #[test]
    fn a_harvest_takes_out_each_completion_by_its_command_id() {
        Runtime::simulate(5, |rt| {
            let device = NvmeDevice::new(DeviceConfig::optane(16 << 20));
            let (mut r, _) = reactor_on(std::slice::from_ref(&device));
            let spike = FaultInjector::new(1).with_latency_spikes(1_000_000, Dur::micros(50));
            device.set_faults(spike);
            submit(&mut r, rt, 0, 8);
            device.set_faults(FaultInjector::new(1));
            submit(&mut r, rt, 0, 8);
            let held = r.qpairs[0].posted[0];
            rt.work_until(r.qpairs[0].qp.next_completion_at().unwrap_or(rt.now()));
            assert_eq!(poll(&mut r, rt, Some(rt.now())), 1);
            assert_eq!(Vec::from(r.qpairs[0].posted.clone()), [held]);
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
            let (mut r, _) = reactor::<1>();
            let post = |r: &mut Reactor, n: u64| (0..n).for_each(|_| submit(r, rt, 0, 8));
            // Harvest the next completion as it lands: when, and where
            // the read ended on the device.
            let land = |r: &mut Reactor, prompt: bool| {
                let end = r.qpairs[0].posted[0].2;
                rt.work_until(r.qpairs[0].qp.next_completion_at().unwrap_or(rt.now()));
                assert_eq!(poll(r, rt, prompt.then(|| rt.now())), 1);
                (rt.now(), end)
            };
            // A local device: the qpair keeps its own clock.
            let clock = |r: &Reactor| match &r.qpairs[0].clock {
                Feeds::Own(clock) => Some((clock.anchor, clock.per_byte[class(4096)])),
                Feeds::Wire(_) => None,
            };
            post(&mut r, 3);
            let first = land(&mut r, true);
            assert_eq!(clock(&r), Some((Some(first), None)));
            assert_eq!(r.qpairs[0].predicted(), None, "a queue with nothing timed");
            let second = land(&mut r, true);
            let ps = (second.0 - first.0).as_nanos() * 1_000 / 4096;
            let rate = Ewma::new(ps, ps / 2);
            assert_eq!(clock(&r), Some((Some(second), Some(rate))));
            post(&mut r, 1);
            let head = r.qpairs[0].posted[0].0.max(second.0);
            let due = head + Dur::nanos(4096 * rate.floor() / 1_000);
            assert_eq!(r.qpairs[0].predicted(), Some(due));
            assert_eq!(poll(&mut r, rt, None), 0);
            let anchor = clock(&r).and_then(|(anchor, _)| anchor);
            assert_eq!(anchor, Some(second), "an empty harvest");
            land(&mut r, false);
            assert_eq!(clock(&r), Some((None, Some(rate))));
            post(&mut r, 1);
            assert_eq!(r.qpairs[0].predicted(), None, "a queue without an anchor");
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
            let (mut r, _) = reactor::<2>();
            (0..LONE_SAMPLES).for_each(|_| r.qpairs[1].alone.sample(4096, Dur::micros(10)));
            r.qpairs[0].alone.sample(4096, Dur::micros(30));
            submit(&mut r, rt, 0, 8);
            let post = r.qpairs[0].posted[0].0;
            let lone = |r: &Reactor| r.qpairs[0].lone(std::iter::once(&r.qpairs[1].alone));
            assert_eq!(lone(&r), Some(post + Dur::micros(10)), "borrowed");
            (1..LONE_SAMPLES).for_each(|_| r.qpairs[0].alone.sample(4096, Dur::micros(30)));
            assert_eq!(lone(&r), Some(post + Dur::micros(30)), "its own");
        });
    }

    /// What one handle's reads on two local devices — `reads` (qpair,
    /// blocks) posted at once, then harvested by the wait stage, `work`
    /// (the pump's, say) and a poll pass until none is in flight — timed
    /// alone: (qpair, bytes, least ns).
    fn timed_alone(rt: &Runtime, reads: &[(usize, u32)], work: Dur) -> Vec<(usize, u64, u64)> {
        let (mut r, _) = reactor::<2>();
        for &(q, n) in reads {
            submit(&mut r, rt, q, n);
        }
        while let Some(spun) = r.wait_event(rt, None, None) {
            rt.work(work);
            poll(&mut r, rt, spun);
        }
        let on = r.qpairs.iter().enumerate();
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
            let timed: Vec<_> = two.iter().map(|e| (e.0, e.1)).collect();
            assert_eq!(timed, [(1, 64 * 512)]);
            assert_eq!(timed_alone(rt, &[(0, 8), (0, 64)], Dur::ZERO), []);
            let quiet = timed_alone(rt, &[(0, 8)], Dur::ZERO);
            let after_work = timed_alone(rt, &[(0, 8)], Dur::micros(3));
            assert_eq!((quiet.len(), after_work), (1, quiet));
        });
    }

    /// A wait that ends past its completion forgets what every qpair
    /// timed alone, so what its siblings lend too: a lone read then spins
    /// until its size is timed again.
    #[test]
    fn a_late_wait_forgets_what_each_qpair_timed_alone() {
        Runtime::simulate(5, |rt| {
            let (mut r, _) = reactor::<2>();
            (0..LONE_SAMPLES).for_each(|_| r.qpairs[1].alone.sample(4096, Dur::micros(1)));
            r.qpairs[0].alone.sample(4096, Dur::micros(1));
            submit(&mut r, rt, 0, 8);
            let lone = |r: &Reactor| r.qpairs[0].lone(std::iter::once(&r.qpairs[1].alone));
            assert_ne!(lone(&r), None, "a loan");
            let t = r.qpairs[0].qp.next_completion_at().unwrap_or(rt.now());
            assert_eq!(r.advance_to(rt, t, Some(t + Dur::micros(20))), None);
            assert_eq!(r.qpairs.iter().map(|q| q.alone.0.len()).sum::<usize>(), 0);
            assert_eq!(lone(&r), None, "nothing to lend");
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
}
