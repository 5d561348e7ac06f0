//! The device-command driver, the batched write engine and the checkpoint
//! streams: everything set-up does to a device.
//!
//! [`CmdDriver`] is the paper's user-level submit/poll loop (§III-C) for
//! code that owns a private qpair — import, replica mirrors, remount loads,
//! checkpoint append and replay. It is the one place such a command is
//! submitted (with queue-full backpressure), harvested, parked under the
//! shared [`RetryPolicy`] with deterministic exponential backoff and
//! resubmitted in (ready instant, sequence) order, and the one place the
//! poll spin ([`crate::DlfsCosts::poll_iteration`]) of those paths is
//! charged. Budget exhaustion surfaces as the same sticky
//! [`DlfsError::Io`] the read engine uses ([`io_failure`] is the mapping
//! both share).
//!
//! A driver is *foreground* (import, mirrors, remount, replay) or
//! *background* (the checkpoint appender). A background driver posts a
//! command — a first submission or a parked retry alike — only when it has
//! none in flight or its device has no foreground read in flight: the
//! instance's [`ForegroundReads`], which every reader handle's qpairs and
//! offload exchanges keep; a background driver advances its device's
//! position there by the bytes of each command it posts, so a reader's
//! device clock counts them among the bytes its device moved (DESIGN §13).
//! On an idle device it pipelines to the queue depth like any driver;
//! beside an epoch it holds one chunk-sized command, so a read batch waits
//! behind at most one chunk instead of a whole record. Every driver waits by the one waiting rule of DESIGN §13:
//! it spins only while a foreground command of its own is in flight, and
//! parks otherwise — so a background driver never spins.
//!
//! [`BatchedWriter`] is opportunistic batching run in reverse: where the
//! read path coalesces adjacent samples into chunk-sized device *reads*
//! (paper §III-D), the writer coalesces adjacent byte-stream writes into
//! chunk-sized device *commands* and hands them to its driver, which keeps
//! up to a full qpair of them in flight. `read_timed` is the driver's
//! read client.
//!
//! [`CheckpointWriter`] / [`CheckpointReader`] append and replay
//! self-describing records in the checkpoint region of a formatted device
//! (see [`crate::layout`]): payload first, one-block header last, so a
//! torn append is invisible to readers.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use blocksim::{CmdStatus, DmaBuf, IoQPair, NvmeTarget, Op, BLOCK_SIZE};
use simkit::retry::RetryPolicy;
use simkit::rng::fnv1a;
use simkit::runtime::Runtime;
use simkit::telemetry::{Counter, Registry};
use simkit::time::{Dur, Time};

use crate::config::DlfsConfig;
use crate::counter_in;
use crate::error::{DlfsError, IoFailure, LayoutError};
use crate::io::hybrid_wait;
use crate::layout::{next_ckpt_record, CkptHeader, Superblock, CKPT_HEADER_BYTES};

/// Why a command that came back `status` (not `Ok`) failed.
pub(crate) fn io_failure(status: CmdStatus) -> IoFailure {
    match status {
        CmdStatus::TransportError => IoFailure::Timeout,
        _ => IoFailure::Media,
    }
}

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
pub struct ForegroundReads(Vec<[AtomicUsize; 3]>);

impl ForegroundReads {
    pub(crate) fn new(nodes: usize) -> ForegroundReads {
        ForegroundReads((0..nodes).map(|_| Default::default()).collect())
    }

    /// Read commands in flight on storage node `nid` (0 past the last).
    pub fn in_flight(&self, nid: usize) -> usize {
        self.0.get(nid).map_or(0, |n| n[0].load(Ordering::Relaxed))
    }

    /// Read commands ever entered on storage node `nid`.
    pub(crate) fn entered(&self, nid: usize) -> usize {
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

/// One device command, owned by its [`CmdDriver`] until it succeeds.
struct Cmd {
    op: Op,
    slba: u64,
    nblocks: u32,
    buf: DmaBuf,
    /// Byte offset of the transfer within `buf`.
    at: usize,
    /// Failed submissions so far.
    attempts: u32,
}

/// The submit/poll loop over one private qpair (module doc).
struct CmdDriver {
    qp: IoQPair,
    /// Storage node id, for `DlfsError::Io` attribution.
    nid: u16,
    retry: RetryPolicy,
    /// CPU cost of one completion-poll spin.
    poll_cost: Dur,
    next_id: u64,
    inflight: HashMap<u64, Cmd>,
    /// Failed commands waiting out their backoff, by (ready instant, id of
    /// the failed submission): the order they are resubmitted in.
    parked: BTreeMap<(Time, u64), Cmd>,
    /// First exhausted-retry error; the driver is unusable once set.
    dead: Option<DlfsError>,
    /// The reads a background driver yields to; `None` in the foreground.
    yields_to: Option<Arc<ForegroundReads>>,
    retries: Counter,
    timeouts: Counter,
}

impl CmdDriver {
    /// A driver over a fresh qpair on `target`, counting `retries` and
    /// `timeouts` under `scope` when there is one.
    fn new(
        target: Arc<dyn NvmeTarget>,
        nid: u16,
        cfg: &DlfsConfig,
        scope: Option<&Registry>,
    ) -> CmdDriver {
        CmdDriver {
            qp: IoQPair::new(target, cfg.queue_depth),
            nid,
            retry: cfg.retry,
            poll_cost: cfg.costs.poll_iteration,
            next_id: 0,
            inflight: HashMap::new(),
            parked: BTreeMap::new(),
            dead: None,
            yields_to: None,
            retries: counter_in(scope, "retries"),
            timeouts: counter_in(scope, "timeouts"),
        }
    }

    /// The sticky failure, once a command has spent its retry budget.
    fn check(&self) -> Result<(), DlfsError> {
        self.dead.clone().map_or(Ok(()), Err)
    }

    /// No room for another command: the queue is full, or this background
    /// driver has one in flight while its device serves foreground reads.
    fn full(&self) -> bool {
        let n = self.qp.outstanding();
        let yields = |fg: &Arc<ForegroundReads>| n > 0 && fg.in_flight(self.nid as usize) > 0;
        n >= self.qp.queue_depth() || self.yields_to.as_ref().is_some_and(yields)
    }

    /// Queue one command: harvest what completed, resubmit due retries
    /// ahead of it, and poll on while there is no room for it.
    fn submit(&mut self, rt: &Runtime, cmd: Cmd) -> Result<(), DlfsError> {
        self.check()?;
        self.harvest(rt)?;
        while self.full() {
            self.wait(rt);
            self.harvest(rt)?;
        }
        self.post(rt, cmd)
    }

    /// Hand `cmd` to the qpair, which has room for it.
    fn post(&mut self, rt: &Runtime, cmd: Cmd) -> Result<(), DlfsError> {
        let (id, qp, buf) = (self.next_id, &mut self.qp, cmd.buf.clone());
        match cmd.op {
            Op::Read => qp.submit_read(rt, id, cmd.slba, cmd.nblocks, buf, cmd.at),
            Op::Write => qp.submit_write(rt, id, cmd.slba, cmd.nblocks, buf, cmd.at),
        }
        .map_err(|e| DlfsError::Config(format!("node {}: command refused: {e}", self.nid)))?;
        if let Some(fg) = &self.yields_to {
            fg.advance(self.nid as usize, cmd.nblocks as u64 * BLOCK_SIZE);
        }
        self.next_id += 1;
        self.inflight.insert(id, cmd);
        Ok(())
    }

    /// Harvest completions; park failures for retry (or kill the driver
    /// once the budget is gone) and resubmit the retries whose backoff has
    /// elapsed, as far as the queue has room.
    fn harvest(&mut self, rt: &Runtime) -> Result<(), DlfsError> {
        let done = self.qp.process_completions(rt, usize::MAX);
        for c in done {
            let Some(mut cmd) = self.inflight.remove(&c.id) else {
                continue;
            };
            if c.status.is_ok() {
                continue;
            }
            if c.status == CmdStatus::TransportError {
                self.timeouts.inc();
            }
            cmd.attempts += 1;
            let Some(delay) = self.retry.next_delay(cmd.attempts) else {
                let err = DlfsError::Io {
                    target: self.nid as u32,
                    attempts: cmd.attempts,
                    cause: io_failure(c.status),
                };
                self.dead = Some(err.clone());
                return Err(err);
            };
            self.retries.inc();
            self.parked.insert((rt.now() + delay, c.id), cmd);
        }
        while !self.full() {
            let due = self.parked.first_entry().filter(|d| d.key().0 <= rt.now());
            let Some(cmd) = due.map(|d| d.remove()) else {
                break;
            };
            self.post(rt, cmd)?;
        }
        Ok(())
    }

    /// An empty poll: one spin, then on to the next event — a completion
    /// or a parked retry coming due — by the waiting rule ([`hybrid_wait`]):
    /// a foreground command of this driver's own in flight is what it
    /// spins over, and it predicts nothing, so it spins then and parks
    /// otherwise.
    fn wait(&self, rt: &Runtime) {
        rt.work(self.poll_cost.max(Dur::nanos(1)));
        let retry = self.parked.first_key_value().map(|(&(ready, _), _)| ready);
        let Some(next) = self.qp.next_completion_at().into_iter().chain(retry).min() else {
            return;
        };
        let own = self.yields_to.is_none() && self.qp.outstanding() > 0;
        hybrid_wait(rt, next, own, None);
    }

    /// Wait until every command (retries included) has completed.
    fn drain(&mut self, rt: &Runtime) -> Result<(), DlfsError> {
        self.check()?;
        loop {
            self.harvest(rt)?;
            if self.inflight.is_empty() && self.parked.is_empty() {
                return Ok(());
            }
            self.wait(rt);
        }
    }
}

/// One mirror's driver: each of its commands copies the home command
/// submitted right before it.
struct Copy {
    drv: CmdDriver,
    at: u64,
    /// Commands submitted since its last drain.
    dirty: bool,
}

/// A pipelined, coalescing writer over one target's write qpair.
///
/// Callers stream byte runs with [`BatchedWriter::write`]; contiguous runs
/// are packed into a chunk-sized staging buffer and leave as large device
/// commands, pipelined to the qpair's depth. Every run must start
/// block-aligned (the import streams are laid out that way by
/// construction); a run's tail is zero-padded to the block boundary at
/// flush time. A mirrored writer sends each run it starts in its mirrored
/// region to every mirror too, through a driver per mirror on the handle
/// [`NvmeTarget::forward_to`] gives: an NVMe-oF home forwards the payload
/// it received, a local one has the caller write the copy itself.
///
/// Counts under `dlfs.write.*` — unregistered unless the caller supplies a
/// registry, which keeps existing figure outputs byte-identical; `retries`
/// and `timeouts` are its drivers'. Every count is per device stream: a
/// mirrored run is one append, command and flush per copy.
pub struct BatchedWriter {
    drv: CmdDriver,
    copies: Vec<Copy>,
    mirrored: Range<u64>,
    /// One chunk: the run being coalesced into the next command.
    staging: Vec<u8>,
    staged_base: u64,
    staged_len: usize,
    run_active: bool,
    /// Caller-level `write` calls coalesced into commands.
    appends: Counter,
    /// Device write commands submitted (first submissions, not retries).
    commands: Counter,
    bytes: Counter,
    flushes: Counter,
}

impl BatchedWriter {
    pub fn new(
        target: Arc<dyn NvmeTarget>,
        nid: u16,
        cfg: &DlfsConfig,
        reg: Option<&Registry>,
    ) -> BatchedWriter {
        BatchedWriter::mirrored(target, nid, 0..0, Vec::new(), cfg, reg)
    }

    /// A writer whose runs inside `region` also land on every mirror
    /// `(peer, nid, at)`: storage node `nid`, as the caller reaches it, with
    /// `at` standing in for `region.start`.
    pub(crate) fn mirrored(
        target: Arc<dyn NvmeTarget>,
        nid: u16,
        region: Range<u64>,
        mirrors: Vec<(Arc<dyn NvmeTarget>, u16, u64)>,
        cfg: &DlfsConfig,
        reg: Option<&Registry>,
    ) -> BatchedWriter {
        let scope = reg.map(|r| r.scoped("dlfs.write"));
        let scope = scope.as_ref();
        let copy = |(peer, nid, at)| Copy {
            drv: CmdDriver::new(target.forward_to(&peer), nid, cfg, scope),
            at,
            dirty: false,
        };
        BatchedWriter {
            copies: mirrors.into_iter().map(copy).collect(),
            mirrored: region,
            drv: CmdDriver::new(target, nid, cfg, scope),
            staging: vec![0u8; cfg.chunk_size as usize],
            staged_base: 0,
            staged_len: 0,
            run_active: false,
            appends: counter_in(scope, "appends"),
            commands: counter_in(scope, "commands"),
            bytes: counter_in(scope, "bytes"),
            flushes: counter_in(scope, "flushes"),
        }
    }

    /// Append `data` at absolute device offset `offset`. Contiguous with
    /// the current run → coalesced; otherwise the staged run is submitted
    /// and a new run starts (which must be block-aligned).
    pub fn write(&mut self, rt: &Runtime, offset: u64, data: &[u8]) -> Result<(), DlfsError> {
        self.drv.check()?;
        let contiguous = self.run_active && offset == self.staged_base + self.staged_len as u64;
        // Checked in every build: a misaligned run would land at
        // `staged_base / BLOCK_SIZE`, the wrong LBA, without a trace.
        if !contiguous && !offset.is_multiple_of(BLOCK_SIZE) {
            return Err(DlfsError::UnalignedWrite {
                node: self.drv.nid,
                offset,
            });
        }
        let copies = self.mirrored.contains(&offset) as usize * self.copies.len();
        self.appends.add(1 + copies as u64);
        if !contiguous {
            self.submit_staged(rt)?;
            self.staged_base = offset;
            self.staged_len = 0;
            self.run_active = true;
        }
        let mut written = 0usize;
        while written < data.len() {
            if self.staged_len == self.staging.len() {
                self.submit_staged(rt)?;
                self.staged_base += self.staging.len() as u64;
                self.staged_len = 0;
            }
            let n = (self.staging.len() - self.staged_len).min(data.len() - written);
            self.staging[self.staged_len..self.staged_len + n]
                .copy_from_slice(&data[written..written + n]);
            self.staged_len += n;
            written += n;
        }
        Ok(())
    }

    /// Submit the staged run (tail zero-padded to a block), keeping the
    /// pipeline going; does not wait for completion.
    fn submit_staged(&mut self, rt: &Runtime) -> Result<(), DlfsError> {
        if !self.run_active || self.staged_len == 0 {
            return Ok(());
        }
        let nblocks = (self.staged_len as u64).div_ceil(BLOCK_SIZE) as u32;
        let buf = DmaBuf::standalone(nblocks as usize * BLOCK_SIZE as usize);
        buf.copy_from(0, &self.staging[..self.staged_len]);
        let base = self.staged_base;
        let copies = self.mirrored.contains(&base) as usize * self.copies.len();
        let write = |at: u64| Cmd {
            op: Op::Write,
            slba: at / BLOCK_SIZE,
            nblocks,
            buf: buf.clone(),
            at: 0,
            attempts: 0,
        };
        self.commands.add(1 + copies as u64);
        self.bytes
            .add((1 + copies as u64) * nblocks as u64 * BLOCK_SIZE);
        self.drv.submit(rt, write(base))?;
        for c in &mut self.copies[..copies] {
            c.dirty = true;
            c.drv.submit(rt, write(c.at + base - self.mirrored.start))?;
        }
        Ok(())
    }

    /// Submit the staged tail and close the run without waiting for it:
    /// submit every writer's tail before flushing any, and all of their
    /// devices drain at once.
    pub(crate) fn submit(&mut self, rt: &Runtime) -> Result<(), DlfsError> {
        self.drv.check()?;
        self.submit_staged(rt)?;
        self.run_active = false;
        self.staged_len = 0;
        Ok(())
    }

    /// Submit the staged tail and wait until every command (including
    /// retries) has completed. Returns the first exhausted-retry error.
    pub fn flush(&mut self, rt: &Runtime) -> Result<(), DlfsError> {
        self.submit(rt)?;
        self.flushes.inc();
        self.drv.drain(rt)?;
        for c in self.copies.iter_mut().filter(|c| c.dirty) {
            c.dirty = false;
            self.flushes.inc();
            c.drv.drain(rt)?;
        }
        Ok(())
    }
}

/// Synchronous timed read of `[offset, offset+len)` through a fresh qpair
/// on `target`, pipelined in `chunk`-sized commands with bounded retry.
/// The workhorse of `remount` and the checkpoint paths.
pub(crate) fn read_timed(
    rt: &Runtime,
    target: &Arc<dyn NvmeTarget>,
    nid: u16,
    offset: u64,
    len: usize,
    cfg: &DlfsConfig,
) -> Result<Vec<u8>, DlfsError> {
    if len == 0 {
        return Ok(Vec::new());
    }
    let head = (offset % BLOCK_SIZE) as usize;
    let base = offset - head as u64;
    let span = (head + len).next_multiple_of(BLOCK_SIZE as usize);
    let buf = DmaBuf::standalone(span);
    let chunk = cfg.chunk_size as usize;
    let mut drv = CmdDriver::new(target.clone(), nid, cfg, None);
    for at in (0..span).step_by(chunk) {
        let cmd = Cmd {
            op: Op::Read,
            slba: (base + at as u64) / BLOCK_SIZE,
            nblocks: (chunk.min(span - at) as u64).div_ceil(BLOCK_SIZE) as u32,
            buf: buf.clone(),
            at,
            attempts: 0,
        };
        drv.submit(rt, cmd)?;
    }
    drv.drain(rt)?;
    let mut out = vec![0u8; len];
    buf.with(|d| out.copy_from_slice(&d[head..head + len]));
    Ok(out)
}

/// Counters under `dlfs.ckpt.*` (unregistered without a registry).
struct CkptTelemetry {
    records_written: Counter,
    bytes_written: Counter,
    records_read: Counter,
    bytes_read: Counter,
}

impl CkptTelemetry {
    fn new(reg: Option<&Registry>) -> CkptTelemetry {
        let scope = reg.map(|r| r.scoped("dlfs.ckpt"));
        let counter = |name| counter_in(scope.as_ref(), name);
        CkptTelemetry {
            records_written: counter("records_written"),
            bytes_written: counter("bytes_written"),
            records_read: counter("records_read"),
            bytes_read: counter("bytes_read"),
        }
    }
}

/// Appends checkpoint records to a formatted device's checkpoint region.
///
/// Opening scans the stream (timed reads) to find the append tail, so a
/// writer opened after `remount` continues an existing stream. Each
/// `append` writes the payload first and commits it with the one-block
/// header afterwards — a crash mid-append never yields a half-record to
/// readers.
pub struct CheckpointWriter {
    w: BatchedWriter,
    target: Arc<dyn NvmeTarget>,
    sb: Superblock,
    cfg: DlfsConfig,
    /// Absolute device offset of the next record.
    append_at: u64,
    next_seq: u64,
    tel: CkptTelemetry,
}

impl CheckpointWriter {
    /// A writer at the stream's tail whose appends are background work:
    /// they yield the device to `fg`'s reads (module doc).
    pub(crate) fn open(
        rt: &Runtime,
        target: Arc<dyn NvmeTarget>,
        sb: &Superblock,
        cfg: &DlfsConfig,
        reg: Option<&Registry>,
        fg: Arc<ForegroundReads>,
    ) -> Result<CheckpointWriter, DlfsError> {
        // Walk the stream to its tail: the first invalid, stale or torn
        // record is where the next append goes.
        let mut tail = CheckpointReader::open(target.clone(), sb, cfg, None);
        while tail.next(rt)?.is_some() {}
        let mut w = BatchedWriter::new(target.clone(), sb.node_id, cfg, reg);
        w.drv.yields_to = Some(fg);
        Ok(CheckpointWriter {
            w,
            target,
            sb: sb.clone(),
            cfg: cfg.clone(),
            append_at: tail.pos,
            next_seq: tail.seq + 1,
            tel: CkptTelemetry::new(reg),
        })
    }

    /// Records already in the stream when the writer opened (plus those it
    /// appended since).
    pub fn records(&self) -> u64 {
        self.next_seq - 1
    }

    /// Bytes left in the checkpoint region.
    pub fn remaining(&self) -> u64 {
        (self.sb.ckpt_base + self.sb.ckpt_capacity).saturating_sub(self.append_at)
    }

    /// Append one record; durable (flushed through the device) when this
    /// returns. Returns the record's sequence number.
    pub fn append(&mut self, rt: &Runtime, payload: &[u8]) -> Result<u64, DlfsError> {
        let need = CkptHeader::record_bytes(payload.len() as u64);
        if need > self.remaining() {
            return Err(DlfsError::Layout(LayoutError::CheckpointFull {
                need,
                capacity: self.remaining(),
            }));
        }
        let seq = self.next_seq;
        // Payload first…
        self.w
            .write(rt, self.append_at + CKPT_HEADER_BYTES, payload)?;
        self.w.flush(rt)?;
        // …then the header commits the record.
        let hdr = CkptHeader {
            generation: self.sb.generation,
            seq,
            payload_len: payload.len() as u64,
            payload_checksum: fnv1a(payload),
        };
        self.w.write(rt, self.append_at, &hdr.encode())?;
        self.w.flush(rt)?;
        self.append_at += need;
        self.next_seq += 1;
        self.tel.records_written.inc();
        self.tel.bytes_written.add(payload.len() as u64);
        Ok(seq)
    }

    /// Reader over the same stream (e.g. to verify what was written).
    pub fn reader(&self, reg: Option<&Registry>) -> CheckpointReader {
        CheckpointReader::open(self.target.clone(), &self.sb, &self.cfg, reg)
    }
}

/// Sequential reader over a device's checkpoint stream.
pub struct CheckpointReader {
    target: Arc<dyn NvmeTarget>,
    sb: Superblock,
    cfg: DlfsConfig,
    pos: u64,
    seq: u64,
    tel: CkptTelemetry,
}

impl CheckpointReader {
    pub(crate) fn open(
        target: Arc<dyn NvmeTarget>,
        sb: &Superblock,
        cfg: &DlfsConfig,
        reg: Option<&Registry>,
    ) -> CheckpointReader {
        CheckpointReader {
            target,
            sb: sb.clone(),
            cfg: cfg.clone(),
            pos: sb.ckpt_base,
            seq: 0,
            tel: CkptTelemetry::new(reg),
        }
    }

    /// The next record's payload, or `None` at the end of the stream (an
    /// invalid header, a generation from an earlier import, or a torn
    /// tail all terminate it — `layout::next_ckpt_record` decides), read with
    /// timed reads.
    pub fn next(&mut self, rt: &Runtime) -> Result<Option<Vec<u8>>, DlfsError> {
        let (target, nid, cfg) = (&self.target, self.sb.node_id, &self.cfg);
        let read = |at, len| read_timed(rt, target, nid, at, len, cfg);
        let payload = next_ckpt_record(read, &self.sb, (&mut self.pos, &mut self.seq))?;
        if let Some(p) = &payload {
            self.tel.records_read.inc();
            self.tel.bytes_read.add(p.len() as u64);
        }
        Ok(payload)
    }

    /// Read through the stream and return the final record (the natural
    /// restart point), if any.
    pub fn last(&mut self, rt: &Runtime) -> Result<Option<Vec<u8>>, DlfsError> {
        let mut latest = None;
        while let Some(p) = self.next(rt)? {
            latest = Some(p);
        }
        Ok(latest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blocksim::{DeviceConfig, FaultInjector, NvmeDevice};

    fn dev() -> Arc<NvmeDevice> {
        NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10)))
    }

    #[test]
    fn coalesces_contiguous_runs_into_chunk_commands() {
        Runtime::simulate(0, |rt| {
            let d = dev();
            let cfg = DlfsConfig::default(); // 256 KiB chunks
            let mut w = BatchedWriter::new(d.clone(), 0, &cfg, None);
            // 1024 contiguous 1 KiB writes = 1 MiB = 4 chunk commands.
            let payload: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
            for i in 0..1024u64 {
                w.write(rt, i * 1024, &payload).unwrap();
            }
            w.flush(rt).unwrap();
            let (_r, writes, _br, bw) = d.stats();
            assert_eq!(writes, 4, "expected 4 chunk-sized commands");
            assert_eq!(bw, 1 << 20);
            let mut back = vec![0u8; 1024];
            d.storage().read_at(512 * 1024, &mut back);
            assert_eq!(back, payload);
        });
    }

    /// Command `i` of a test stream: 4 KiB at block `8 * i`, to or from
    /// byte `4096 * i` of `buf`.
    fn cmd(op: Op, i: u64, buf: &DmaBuf) -> Cmd {
        Cmd {
            op,
            slba: 8 * i,
            nblocks: 8,
            buf: buf.clone(),
            at: 4096 * i as usize,
            attempts: 0,
        }
    }

    /// The driver in every direction x queue depth x failure rate:
    /// backpressure at the queue's depth, retries that never overfill it
    /// and land every byte, sticky typed exhaustion — and a full queue
    /// beating a shallow one.
    #[test]
    fn command_driver_table() {
        const N: u64 = 32;
        let image: Vec<u8> = (0..N * 4096).map(|i| (i % 251) as u8).collect();
        let mut clean_ns = Vec::new();
        for (op, depth, fail_ppm) in [Op::Read, Op::Write]
            .into_iter()
            .flat_map(|op| [2usize, 128].map(|d| (op, d)))
            .flat_map(|(op, d)| [0u32, 100_000, 1_000_000].map(|f| (op, d, f)))
        {
            let case = format!("{op:?} depth={depth} fail_ppm={fail_ppm}");
            let took = Runtime::simulate(7, |rt| {
                let (d, buf) = (dev(), DmaBuf::standalone(image.len()));
                match op {
                    Op::Read => d.storage().write_at(0, &image),
                    Op::Write => buf.copy_from(0, &image),
                }
                let faults = FaultInjector::new(3).with_read_failures(fail_ppm);
                d.set_faults(faults.with_write_failures(fail_ppm));
                let cfg = DlfsConfig {
                    queue_depth: depth,
                    ..DlfsConfig::default()
                };
                let reg = Registry::new();
                let (mut drv, retries) = (
                    CmdDriver::new(d.clone(), 9, &cfg, Some(&reg)),
                    reg.counter("retries"),
                );
                let t0 = rt.now();
                let mut run = (0..N).try_for_each(|i| {
                    let sent = drv.submit(rt, cmd(op, i, &buf));
                    // A full queue holds a submission back, and neither it
                    // nor a due retry ever takes a slot that is not there.
                    assert!(drv.qp.outstanding() <= depth, "{case}: submit {i}");
                    if fail_ppm == 0 {
                        assert_eq!(rt.now() > t0, i >= depth as u64, "{case}: submit {i}");
                    }
                    sent
                });
                run = run.and_then(|()| drv.drain(rt));
                if fail_ppm == 1_000_000 {
                    let spent = Err(DlfsError::Io {
                        target: 9,
                        attempts: cfg.retry.max_attempts,
                        cause: IoFailure::Media,
                    });
                    assert_eq!(run, spent, "{case}");
                    // Sticky: the driver refuses further work.
                    assert_eq!(drv.submit(rt, cmd(op, 0, &buf)), spent, "{case}");
                    assert_eq!(drv.drain(rt), spent, "{case}");
                    return 0;
                }
                assert_eq!(run, Ok(()), "{case}");
                assert_eq!(retries.get() > 0, fail_ppm > 0, "{case}");
                // A foreground driver spins while a command of its own is
                // in flight and parks only on a pure backoff. At depth 128
                // every command is out at once, so the last retries wait
                // with nothing in flight; at depth 2 a command always is.
                let idle = rt.total_idle();
                let pure_backoff = fail_ppm > 0 && depth as u64 > N;
                assert_eq!(!idle.is_zero(), pure_backoff, "{case}: idle {idle:?}");
                assert_eq!(rt.my_busy() + idle, rt.now() - t0, "{case}");
                assert_eq!(drv.qp.counters().0, N + retries.get(), "{case}");
                let mut back = vec![0u8; image.len()];
                match op {
                    Op::Read => buf.with(|b| back.copy_from_slice(b)),
                    Op::Write => d.storage().read_at(0, &mut back),
                }
                assert_eq!(back, image, "{case}");
                (rt.now() - t0).as_nanos()
            });
            if fail_ppm == 0 {
                clean_ns.push(took.0);
            }
        }
        // Per direction, depth 2 then depth 128: small commands are bound by
        // media latency, so keeping the qpair full clearly beats 2 at a time.
        for pair in clean_ns.chunks(2) {
            assert!(pair[1] * 2 < pair[0], "depth 128 vs 2: {pair:?}");
        }
    }

    #[test]
    fn same_instant_failures_resubmit_in_sequence_order() {
        Runtime::simulate(1, |rt| {
            let d = dev();
            d.set_faults(FaultInjector::new(5).with_read_failures(1_000_000));
            let buf = DmaBuf::standalone(4 * 4096);
            let mut drv = CmdDriver::new(d.clone(), 0, &DlfsConfig::default(), None);
            // Sequence order is not address order.
            for i in [3u64, 1, 2, 0] {
                drv.submit(rt, cmd(Op::Read, i, &buf)).unwrap();
            }
            // One harvest sees all four fail: one ready instant for all.
            rt.work(Dur::millis(1));
            drv.harvest(rt).unwrap();
            assert_eq!((drv.inflight.len(), drv.parked.len()), (0, 4));
            d.set_faults(FaultInjector::new(5));
            drv.wait(rt);
            drv.harvest(rt).unwrap();
            let resubmitted: Vec<u64> = (4..8).map(|id| drv.inflight[&id].slba / 8).collect();
            assert_eq!(resubmitted, [3, 1, 2, 0]);
            drv.drain(rt).unwrap();
        });
    }

    /// The set-up paths spin at the configured poll cost, like the read
    /// engine (they used to carry a private constant).
    #[test]
    fn poll_iteration_is_charged_to_writes_and_reads() {
        let took = |poll_ns: u64| {
            let mut cfg = DlfsConfig {
                queue_depth: 2,
                chunk_size: 4096,
                ..DlfsConfig::default()
            };
            cfg.costs.poll_iteration = Dur::nanos(poll_ns);
            let run = Runtime::simulate(0, |rt| {
                let d = dev();
                let mut w = BatchedWriter::new(d.clone(), 0, &cfg, None);
                w.write(rt, 0, &vec![7u8; 64 << 10]).unwrap();
                w.flush(rt).unwrap();
                let wrote = rt.now().nanos();
                read_timed(rt, &(d as Arc<dyn NvmeTarget>), 0, 0, 64 << 10, &cfg).unwrap();
                (wrote, rt.now().nanos() - wrote)
            });
            run.0
        };
        let (fast, slow) = (took(120), took(20_000));
        assert!(slow.0 > fast.0 && slow.1 > fast.1, "{slow:?} vs {fast:?}");
    }

    #[test]
    fn unaligned_run_start_is_a_typed_error_in_every_build() {
        Runtime::simulate(0, |rt| {
            let d = dev();
            let mut w = BatchedWriter::new(d.clone(), 3, &DlfsConfig::default(), None);
            w.write(rt, 4096, &[1u8; 1000]).unwrap();
            // Contiguous with the open run: any offset is fine.
            w.write(rt, 5096, &[2u8; 1000]).unwrap();
            // A new run off a block boundary is refused and leaves the
            // writer as it was: the open run still lands, nothing else does.
            let err = w.write(rt, 9000, &[3u8; 1000]).unwrap_err();
            let want = DlfsError::UnalignedWrite {
                node: 3,
                offset: 9000,
            };
            assert_eq!(err, want);
            w.flush(rt).unwrap();
            let mut back = vec![0u8; 8192];
            d.storage().read_at(4096, &mut back);
            assert!(back[..1000].iter().all(|&b| b == 1));
            assert!(back[1000..2000].iter().all(|&b| b == 2));
            assert!(back[2000..].iter().all(|&b| b == 0));
        });
    }

    /// A device that notes, as each write is booked, how many writes are
    /// then unfinished on it (this one included) and how many of the
    /// instance's reads are in flight.
    struct Watched {
        dev: Arc<NvmeDevice>,
        fg: std::sync::OnceLock<Arc<ForegroundReads>>,
        /// Finish instant of every write booked so far.
        done: std::sync::Mutex<Vec<Time>>,
        /// Per write booked: (writes unfinished, reads in flight).
        seen: std::sync::Mutex<Vec<(usize, usize)>>,
    }

    impl NvmeTarget for Watched {
        fn reserve_read(&self, now: Time, slba: u64, nblocks: u32) -> Time {
            self.dev.reserve_read(now, slba, nblocks)
        }
        fn reserve_write(&self, now: Time, slba: u64, nblocks: u32) -> Time {
            let mut done = self.done.lock().unwrap();
            let writes = 1 + done.iter().filter(|&&t| t > now).count();
            let reads = self.fg.get().map_or(0, |fg| fg.in_flight(0));
            self.seen.lock().unwrap().push((writes, reads));
            done.push(self.dev.reserve_write(now, slba, nblocks));
            done[done.len() - 1]
        }
        fn dma_read(&self, slba: u64, dst: &mut [u8]) {
            self.dev.dma_read(slba, dst)
        }
        fn dma_write(&self, slba: u64, src: &[u8]) {
            self.dev.dma_write(slba, src)
        }
        fn max_queue_depth(&self) -> usize {
            self.dev.max_queue_depth()
        }
        fn blocks(&self) -> u64 {
            self.dev.blocks()
        }
        fn describe(&self) -> String {
            self.dev.describe()
        }
    }

    /// A persistent `cfg` mount of 16 MiB over one [`Watched`] device.
    fn watched_mount(rt: &Runtime, cfg: DlfsConfig) -> (Arc<Watched>, crate::DlfsInstance) {
        let watched = Arc::new(Watched {
            dev: dev(),
            fg: Default::default(),
            done: Default::default(),
            seen: Default::default(),
        });
        let mut deployment = crate::Deployment::local(1, std::slice::from_ref(&watched.dev));
        deployment.targets[0][0] = watched.clone();
        let source = crate::SyntheticSource::fixed(5, 1024, 16 << 10);
        let fs = crate::MountBuilder::new(cfg)
            .deployment(deployment)
            .persistent()
            .mount(rt, &source)
            .unwrap();
        watched.fg.set(fs.shared(0).fg_reads.clone()).unwrap();
        watched.seen.lock().unwrap().clear();
        (watched, fs)
    }

    /// Three 1 MiB appends from their own task while `req` batches drain an
    /// epoch: the writes booked beside reads (each must be the only one
    /// unfinished on the device), and the appender's busy CPU, elapsed
    /// time and writes.
    fn append_beside_epoch(
        rt: &Runtime,
        (watched, fs): (&Watched, &crate::DlfsInstance),
        mut w: CheckpointWriter,
        req: crate::ReadRequest,
    ) -> (Vec<usize>, (Dur, Dur, usize)) {
        let mut io = fs.io(0);
        io.sequence(rt, 9, 0);
        let appender = rt.spawn_with("ckpt", move |rt| {
            let t0 = rt.now();
            for _ in 0..3 {
                w.append(rt, &[0x5au8; 1 << 20]).unwrap();
            }
            (rt.my_busy(), rt.now() - t0)
        });
        while io.submit(rt, &req).is_ok() {}
        let (busy, took) = appender.join();
        let seen = watched.seen.lock().unwrap();
        let beside_reads = (seen.iter())
            .filter_map(|&(writes, reads)| (reads > 0).then_some(writes))
            .collect();
        (beside_reads, (busy, took, seen.len()))
    }

    /// The background class: on an idle device a 1 MiB append pipelines
    /// its four chunk commands exactly as a foreground writer does (the
    /// instants were measured before the class existed); beside an epoch
    /// streaming from the same device it never has a second command out
    /// while reads are in flight, and parks instead of spinning: its busy
    /// CPU is one poll per empty poll, under 1 % of its time.
    #[test]
    fn checkpoint_appends_pipeline_alone_and_yield_to_reads() {
        const IDLE_APPENDS_DONE_NS: [u64; 3] = [8_203_346, 8_701_203, 9_199_060];
        Runtime::simulate(3, |rt| {
            let cfg = DlfsConfig::default();
            let (watched, fs) = watched_mount(rt, cfg.clone());
            let mut w = fs.checkpoint_writer(rt, 0, 0, None).unwrap();
            let idle = [0; 3].map(|_| {
                w.append(rt, &[0x5au8; 1 << 20]).unwrap();
                rt.now().nanos()
            });
            assert_eq!(idle, IDLE_APPENDS_DONE_NS);
            let seen = std::mem::take(&mut *watched.seen.lock().unwrap());
            assert!(seen.iter().any(|&(writes, _)| writes > 1), "{seen:?}");

            let req = crate::ReadRequest::batch(16);
            let (beside_reads, (busy, took, writes)) =
                append_beside_epoch(rt, (&watched, &fs), w, req);
            assert!(!beside_reads.is_empty());
            assert!(beside_reads.iter().all(|&w| w == 1), "{beside_reads:?}");
            // Every empty poll is followed by a harvest that takes at least
            // one completion, so there are at most as many as writes.
            assert!(busy <= cfg.costs.poll_iteration * writes as u64, "{busy:?}");
            assert!(
                busy.as_nanos() * 100 < took.as_nanos(),
                "{busy:?} of {took:?}"
            );
        });
    }

    /// An offloaded epoch reads through exchanges, not qpairs: every node
    /// an exchange touches counts as foreground reads until the batch that
    /// consumes it collects it, so the appender holds one command then too.
    #[test]
    fn checkpoint_appends_yield_to_offload_exchanges() {
        Runtime::simulate(3, |rt| {
            let cfg = DlfsConfig {
                offload: true,
                ..DlfsConfig::default()
            };
            let (watched, fs) = watched_mount(rt, cfg);
            let w = fs.checkpoint_writer(rt, 0, 0, None).unwrap();
            let req = crate::ReadRequest::batch(16).offload();
            let (beside_reads, _) = append_beside_epoch(rt, (&watched, &fs), w, req);
            assert!(!beside_reads.is_empty());
            assert!(beside_reads.iter().all(|&w| w == 1), "{beside_reads:?}");
            assert_eq!(fs.shared(0).fg_reads.in_flight(0), 0);
        });
    }

    #[test]
    fn read_timed_roundtrip_with_offset() {
        Runtime::simulate(0, |rt| {
            let d = dev();
            let data: Vec<u8> = (0..100_000).map(|i| (i * 13 % 251) as u8).collect();
            d.storage().write_at(4096, &data);
            let target: Arc<dyn NvmeTarget> = d;
            let got =
                read_timed(rt, &target, 0, 4096 + 777, 50_000, &DlfsConfig::default()).unwrap();
            assert_eq!(got, data[777..777 + 50_000]);
        });
    }
}
