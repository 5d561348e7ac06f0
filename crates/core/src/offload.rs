//! The storage-side offload path of [`DlfsIo`] (`ReadRequest::offload`,
//! DESIGN.md §16), a child module of `io` so it shares the handle's state.
//!
//! A batch is not an exchange: the path *issues* exchanges and *delivers*
//! from what they claimed, and keeps one exchange ahead of the batch being
//! delivered. An exchange claims the next samples of the plan in item
//! order, sends one descriptor capsule per storage node touched — the
//! target reads the stored frames, verifies and decodes them locally (both
//! charged to the target's compute pool, not this reader) and ships a
//! single dense response carrying exactly the claimed sample bytes — and
//! is ready when the last response lands. The plan is seed-determined, so
//! the next exchange is known the moment the current one is claimed: it is
//! issued before the reader parks, and its response streams in behind the
//! one being waited for.
//!
//! Every plan item is read, verified and decoded once. An exchange can
//! split only the last item it claims; the target keeps that item's
//! decoded rest (the *carry*), and the next exchange ships it with no
//! descriptor, no read and no compute charge — but not before the instant
//! the item's compute finished, the floor of that node's response.
//!
//! ```text
//! submit k:   issue k (only if nothing is ahead) → issue k+1 → wait k → deliver k
//! submit k+1:                                      issue k+2 → wait k+1 → deliver k+1
//! ```
//!
//! The depth is one by design (double buffering): between calls a handle
//! holds fewer than 2 × `req.n` delivered-size payloads, plus the carry.
//! Everything ahead, the carry included, dies with the epoch state
//! (`sequence`, drop); its NIC reservation and wire bytes stay booked,
//! because the response really was sent. An exchange is foreground reads
//! on every node it touches until the batch that consumes it collects it
//! ([`Issued`]): checkpoint appends yield to it as to a qpair's reads.
//!
//! The path bypasses the qpairs and the sample cache entirely, so an epoch
//! is served by it or by the engine, never both (`claim_epoch_path`).

use std::collections::BTreeMap;

use blocksim::{OffloadExtent, OffloadPiece};
use fabric::{CAPSULE_BYTES, DESCRIPTOR_BYTES, RESPONSE_BYTES};

use super::reactor::ForegroundReads;
use super::*;
use crate::integrity::UNREADABLE;
use crate::plan::FetchItem;

/// A sample as delivered: its id and payload.
type Sample = (u32, Vec<u8>);

/// The offload half of an epoch's state: what the exchanges issued so far
/// claimed and have not delivered, and the one item the target carries.
#[derive(Default)]
pub(super) struct Ahead {
    /// Claimed samples awaiting delivery, in plan order, each with the
    /// instant the last dense response of its exchange lands. An exchange
    /// with a frame no replica could serve queues that typed error in
    /// place of its samples.
    queue: VecDeque<(Time, Result<Sample, DlfsError>)>,
    /// Samples of the plan claimed by an exchange so far. Delivery, not
    /// this, is what `remaining()` counts down.
    claimed: usize,
    /// The one item the last exchange split, as the target keeps it: its
    /// index, its decoded chunks with the node byte offset they start at
    /// ([`DlfsIo::offload_item`]), and the instant its compute finished
    /// (its node's response in that exchange was assembled). The next
    /// exchange ships the rest of its samples from here, without a
    /// descriptor or a second read.
    carry: Option<(usize, (Vec<DmaBuf>, u64), Time)>,
    /// Exchanges issued and not yet collected, oldest first.
    issued: VecDeque<Issued>,
}

/// One exchange as foreground reads: every node it touches counts in the
/// instance's [`ForegroundReads`] from its issue until the batch that
/// consumes it collects it, or the epoch state dies (`abort_epoch`, drop).
struct Issued {
    /// `Ahead::claimed` once this exchange had claimed its samples.
    end: usize,
    nodes: Vec<usize>,
    fg: Arc<ForegroundReads>,
}

impl Drop for Issued {
    fn drop(&mut self) {
        self.nodes.iter().for_each(|&nid| self.fg.leave(nid, 1));
    }
}

impl DlfsIo {
    /// Serve the next `want` samples of the plan from offload exchanges.
    pub(super) fn run_offload(
        &mut self,
        rt: &Runtime,
        want: usize,
        req: &ReadRequest,
    ) -> Result<Vec<Sample>, DlfsError> {
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
        // Issue: cover this batch (the first of an epoch finds nothing
        // ahead), then one more exchange of `req.n` unless a batch's worth
        // is already buffered behind it. Nothing is issued behind a failed
        // exchange: the plan can no longer complete, and the item it may
        // have split was never carried.
        loop {
            let st = self.st();
            let buffered = st.ahead.claimed - st.total_dispatched;
            let unclaimed = st.total - st.ahead.claimed;
            let failed = matches!(st.ahead.queue.back(), Some((_, Err(_))));
            if unclaimed == 0 || failed || buffered.saturating_sub(want) >= req.n {
                break;
            }
            self.issue_exchange(rt, req.n.min(unclaimed));
        }
        // Deliver: the next `want` samples off the front of the queue. A
        // failed exchange surfaces here, at the batch that needs it, and
        // the plan can no longer complete (sticky, like the engine's).
        let mut out = Vec::with_capacity(want);
        let mut ready = rt.now();
        while out.len() < want {
            let Some((landed, sample)) = self.split().0.ahead.queue.pop_front() else {
                break;
            };
            ready = ready.max(landed);
            match sample {
                Ok(sample) => out.push(sample),
                Err(e) => {
                    self.split().0.ahead.issued.clear();
                    self.failed = Some(e.clone());
                    return Err(e);
                }
            }
        }
        let st = self.split().0;
        st.total_dispatched += out.len();
        let done = st.total_dispatched;
        self.tel.samples_delivered.add(out.len() as u64);
        self.tel.of_samples.add(out.len() as u64);
        let bytes = out.iter().map(|(_, data)| data.len() as u64).sum();
        self.tel.bytes_delivered.add(bytes);
        // This reader parks until the last response it needs has landed,
        // and collects every exchange this batch consumed the last of.
        self.reactor.advance_to(rt, ready, None);
        let issued = &mut self.split().0.ahead.issued;
        while issued.front().is_some_and(|x| x.end <= done) {
            issued.pop_front();
        }
        Ok(out)
    }

    /// Issue one exchange for the next `n` unclaimed samples: group them by
    /// home storage node, send ONE request per node, all concurrent, and
    /// queue what the dense responses will carry.
    fn issue_exchange(&mut self, rt: &Runtime, n: usize) {
        // 1. Claim the samples, walking items in plan order: the carried
        //    item's rest first, if any, then whole items. Only the last
        //    item claimed can be split.
        let st = self.split().0;
        st.ahead.claimed += n;
        let mut carry = st.ahead.carry.take();
        let mut claims = Vec::new();
        let mut left = n as u32;
        for (idx, item) in st.items.iter_mut().enumerate() {
            if left == 0 {
                break;
            }
            let take = (item.samples_total - item.dispatched).min(left);
            if take > 0 {
                let first = item.dispatched as usize;
                claims.push((idx, first..first + take as usize));
                item.dispatched += take;
                left -= take;
            }
        }
        // 2. Per node touched: one descriptor per item this exchange reads
        //    — the target is charged the payload work the client's copy
        //    pool is spared, block verification and frame decode, on its
        //    compute pool ([`DlfsIo::offload_pieces`]) — the bytes of every
        //    sample claimed, and the instant the carried item's compute
        //    finished: its samples cannot ship before it.
        let dealt = &self.st().dealt;
        let mut per_node: BTreeMap<u16, (Vec<OffloadExtent>, u64, Time)> = BTreeMap::new();
        for (idx, ids) in &claims {
            let it = &dealt[*idx];
            let slot = per_node.entry(it.nid).or_default();
            slot.1 += it.samples[ids.clone()]
                .iter()
                .map(|&id| self.shared.dir.entry(id).len())
                .sum::<u64>();
            match &carry {
                Some(c) if c.0 == *idx => slot.2 = c.2,
                _ => {
                    let g = self.read_geometry(it.nid, it.offset, it.len);
                    slot.0.push(OffloadExtent {
                        slba: g.slba,
                        nblocks: g.nblocks,
                        pieces: self.offload_pieces(&g, &it.samples[ids.clone()]),
                    });
                }
            }
        }
        // 3. Timing: one request/process/respond exchange per node; the
        //    exchange is ready when the last dense response lands. Each
        //    node's slot keeps the instant its response was assembled.
        let mut ready = rt.now();
        for (nid, (extents, payload, floor)) in &mut per_node {
            let target = &self.shared.targets[*nid as usize];
            let (assembled, landed) = target.reserve_offload(rt.now(), extents, *payload, *floor);
            (*floor, ready) = (assembled, ready.max(landed));
            self.tel.of_requests.inc();
            self.tel.of_wire_bytes.add(
                CAPSULE_BYTES + extents.len() as u64 * DESCRIPTOR_BYTES + *payload + RESPONSE_BYTES,
            );
        }
        // 4. Functional bytes: each item read once — the first copy the
        //    check stage accepts, decoded into its chunks — or taken from
        //    the carry, then its samples sliced out; a split item's chunks
        //    become the carry.
        let samples = (|| {
            let mut samples = Vec::with_capacity(n);
            for (idx, ids) in claims {
                let it = &dealt[idx];
                let (item, done) = match carry.take() {
                    Some(c) if c.0 == idx => (c.1, c.2),
                    _ => (self.offload_item(it)?, per_node[&it.nid].2),
                };
                // Chunk n holds the raw bytes from `base + n × chunk`; under
                // a codec no sample straddles two.
                let ((bufs, base), chunk) = (&item, item.0[0].len());
                for &id in &it.samples[ids.clone()] {
                    let entry = self.shared.dir.entry(id);
                    let at = (entry.offset() - base) as usize;
                    let len = entry.len() as usize;
                    let raw = bufs[at / chunk].with(|d| d[at % chunk..][..len].to_vec());
                    samples.push((id, raw));
                }
                if ids.end < it.samples.len() {
                    carry = Some((idx, item, done));
                }
            }
            Ok(samples)
        })();
        let (st, shared) = self.split();
        st.ahead.carry = carry;
        let nodes: Vec<usize> = per_node.keys().map(|&nid| nid as usize).collect();
        nodes.iter().for_each(|&nid| shared.fg_reads.enter(nid));
        let (end, fg) = (st.ahead.claimed, shared.fg_reads.clone());
        st.ahead.issued.push_back(Issued { end, nodes, fg });
        let queue = &mut st.ahead.queue;
        match samples {
            Ok(samples) => queue.extend(samples.into_iter().map(|s| (ready, Ok(s)))),
            Err(e) => queue.push_back((ready, Err(e))),
        }
    }

    /// The target's work on the range `g` reads, in pieces: one per frame
    /// of a coded run — its decode and an even share of the run's block
    /// checks — each shipping the samples of `claimed` it holds as soon as
    /// it is decoded. An uncoded range is one piece, its bytes shipped with
    /// the assembled response.
    fn offload_pieces(&self, g: &ReadGeometry, claimed: &[u32]) -> Vec<OffloadPiece> {
        let verify = self.check_cost(g.nblocks, std::iter::empty(), true);
        let n = g.frames.len().max(1) as u64;
        let mut pieces = vec![OffloadPiece::default(); n as usize];
        pieces[0].compute = verify - verify / n * n;
        for (p, f) in pieces.iter_mut().zip(&g.frames) {
            p.compute += self.check_cost(0, std::iter::once(f), true);
        }
        pieces.iter_mut().for_each(|p| p.compute += verify / n);
        // Under a codec no sample straddles two frames.
        for &id in claimed.iter().filter(|_| !g.frames.is_empty()) {
            let e = self.shared.dir.entry(id);
            let f = g.frames.partition_point(|f| f.start <= e.offset()) - 1;
            pieces[f].ships += e.len();
        }
        pieces
    }

    /// Read one plan item's stored range (the blocks of its run of stored
    /// frames under a codec, its covering blocks without) from the first
    /// copy, in replica order, that can be read — its target not Dead, the
    /// range not unreadable — and that the check stage accepts: judged,
    /// counted, decoded into chunks and, when a copy before it was turned
    /// down, written back over the home extent ([`DlfsIo::check_part`]), as
    /// a client part is. A hop to the next copy is a failover. With no
    /// good copy left the error is the client path's: `Corrupt` if a copy
    /// failed its checksum or its decode, `Io` if none could be read.
    /// Returns the item's chunks — one holding its raw bytes, or one per
    /// frame of its run — and the node byte offset they start at. Purely
    /// functional: the time was already charged by `reserve_offload`
    /// (extent reads + target-side verify/decode).
    fn offload_item(&self, it: &FetchItem) -> Result<(Vec<DmaBuf>, u64), DlfsError> {
        let g = self.read_geometry(it.nid, it.offset, it.len);
        // One chunk per frame of a run, else one for the whole range.
        let chunk = g
            .frames
            .first()
            .map_or(g.alloc, |_| self.shared.cfg.chunk_size);
        let bufs = (0..g.alloc.div_ceil(chunk)).map(|_| DmaBuf::standalone(chunk as usize));
        let io = PartIo {
            home: it.nid,
            slba: g.slba,
            nblocks: g.nblocks,
            bufs: bufs.collect(),
            frames: g.frames,
        };
        let (red, targets) = (&self.shared.redundancy, &self.shared.targets);
        let span = io.nblocks as usize * BLOCK_SIZE as usize;
        let (mut mismatched, mut last) = (false, UNREADABLE);
        for r in 0..red.replicas {
            let (t, at) = red.route(io.home, r, io.slba);
            let target = &targets[t as usize];
            let verdict = if red.is_dead(t as usize) || target.unreadable(at, io.nblocks) {
                Err(UNREADABLE)
            } else {
                io.bufs[0].with_mut(|d| target.dma_read(at, &mut d[..span]));
                let (landed, _) = self.judge(&io, CmdStatus::Ok);
                self.check_part(&io, landed == Ok(true), r > 0)
            };
            let Err(cause) = verdict else {
                self.tel.iv_failovers.add(r as u64);
                return Ok((io.bufs, g.base));
            };
            mismatched |= cause != UNREADABLE;
            last = cause;
        }
        let tried = red.replicas;
        self.tel.iv_failovers.add(tried as u64 - 1);
        Err(DlfsError::exhausted(
            io.home, g.base, tried, mismatched, last,
        ))
    }
}
