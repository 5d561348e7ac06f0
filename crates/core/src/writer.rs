//! The DLFS batched write engine and checkpoint streams.
//!
//! [`BatchedWriter`] is opportunistic batching run in reverse: where the
//! read path coalesces adjacent samples into chunk-sized device *reads*
//! (paper §III-D), the writer coalesces adjacent byte-stream writes into
//! chunk-sized device *commands* and keeps up to a full qpair of them in
//! flight. Failed commands are resubmitted under the shared
//! [`RetryPolicy`] with deterministic exponential backoff; budget
//! exhaustion surfaces as the same sticky [`DlfsError::Io`] the read
//! engine uses.
//!
//! [`CheckpointWriter`] / [`CheckpointReader`] append and replay
//! self-describing records in the checkpoint region of a formatted device
//! (see [`crate::layout`]): payload first, one-block header last, so a
//! torn append is invisible to readers.

use std::collections::HashMap;
use std::sync::Arc;

use blocksim::{DmaBuf, IoQPair, NvmeTarget, QpairError, BLOCK_SIZE};
use simkit::retry::RetryPolicy;
use simkit::rng::fnv1a;
use simkit::runtime::Runtime;
use simkit::telemetry::{Counter, Registry};
use simkit::time::{Dur, Time};

use crate::config::DlfsConfig;
use crate::error::{DlfsError, IoFailure, LayoutError};
use crate::layout::{CkptHeader, Superblock, CKPT_HEADER_BYTES};

/// CPU cost of one completion-poll spin in the writer's wait loops.
const POLL_COST: Dur = Dur::nanos(120);

/// Counters under `dlfs.write.*`. Bound to a detached registry unless the
/// caller supplies one (the throwaway-registry default keeps existing
/// figure outputs byte-identical).
struct WriteTelemetry {
    /// Caller-level `write` calls coalesced into commands.
    appends: Counter,
    /// Device write commands submitted (first submissions, not retries).
    commands: Counter,
    bytes: Counter,
    retries: Counter,
    timeouts: Counter,
    flushes: Counter,
}

impl WriteTelemetry {
    fn new(reg: Option<&Registry>) -> WriteTelemetry {
        let scope = crate::scoped_or_detached(reg, "dlfs.write");
        WriteTelemetry {
            appends: scope.counter("appends"),
            commands: scope.counter("commands"),
            bytes: scope.counter("bytes"),
            retries: scope.counter("retries"),
            timeouts: scope.counter("timeouts"),
            flushes: scope.counter("flushes"),
        }
    }
}

struct InflightWrite {
    slba: u64,
    nblocks: u32,
    buf: DmaBuf,
    /// Failed submissions so far.
    attempts: u32,
}

/// A pipelined, coalescing writer over one target's write qpair.
///
/// Callers stream byte runs with [`BatchedWriter::write`]; contiguous runs
/// are packed into a chunk-sized staging buffer and leave as large device
/// commands, pipelined to the qpair's depth. Every run must start
/// block-aligned (the import streams are laid out that way by
/// construction); a run's tail is zero-padded to the block boundary at
/// flush time.
pub struct BatchedWriter {
    qp: IoQPair,
    /// Storage node id, for `DlfsError::Io` attribution.
    nid: u16,
    chunk: usize,
    retry: RetryPolicy,
    staging: Vec<u8>,
    staged_base: u64,
    staged_len: usize,
    run_active: bool,
    next_cmd: u64,
    inflight: HashMap<u64, InflightWrite>,
    /// Failed commands waiting out their backoff: (ready instant, cmd).
    delayed: Vec<(Time, u64)>,
    /// First exhausted-retry error; the writer is unusable once set.
    dead: Option<DlfsError>,
    tel: WriteTelemetry,
}

impl BatchedWriter {
    pub fn new(
        target: Arc<dyn NvmeTarget>,
        nid: u16,
        cfg: &DlfsConfig,
        reg: Option<&Registry>,
    ) -> BatchedWriter {
        BatchedWriter {
            qp: IoQPair::new(target, cfg.queue_depth),
            nid,
            chunk: cfg.chunk_size as usize,
            retry: cfg.retry,
            staging: vec![0u8; cfg.chunk_size as usize],
            staged_base: 0,
            staged_len: 0,
            run_active: false,
            next_cmd: 0,
            inflight: HashMap::new(),
            delayed: Vec::new(),
            dead: None,
            tel: WriteTelemetry::new(reg),
        }
    }

    /// Append `data` at absolute device offset `offset`. Contiguous with
    /// the current run → coalesced; otherwise the staged run is submitted
    /// and a new run starts (which must be block-aligned).
    pub fn write(&mut self, rt: &Runtime, offset: u64, data: &[u8]) -> Result<(), DlfsError> {
        if let Some(e) = &self.dead {
            return Err(e.clone());
        }
        let contiguous = self.run_active && offset == self.staged_base + self.staged_len as u64;
        // Checked in every build: a misaligned run would land at
        // `staged_base / BLOCK_SIZE`, the wrong LBA, without a trace.
        if !contiguous && !offset.is_multiple_of(BLOCK_SIZE) {
            return Err(DlfsError::UnalignedWrite {
                node: self.nid,
                offset,
            });
        }
        self.tel.appends.inc();
        if !contiguous {
            self.submit_staged(rt)?;
            self.staged_base = offset;
            self.staged_len = 0;
            self.run_active = true;
        }
        let mut written = 0usize;
        while written < data.len() {
            if self.staged_len == self.chunk {
                self.submit_staged(rt)?;
                self.staged_base += self.chunk as u64;
                self.staged_len = 0;
            }
            let n = (self.chunk - self.staged_len).min(data.len() - written);
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
        let slba = self.staged_base / BLOCK_SIZE;
        self.tel.commands.inc();
        self.tel.bytes.add(nblocks as u64 * BLOCK_SIZE);
        self.submit_cmd(rt, slba, nblocks, buf, 0)
    }

    /// Submit one device command, polling completions while the queue is
    /// full and resubmitting ready retries along the way.
    fn submit_cmd(
        &mut self,
        rt: &Runtime,
        slba: u64,
        nblocks: u32,
        buf: DmaBuf,
        attempts: u32,
    ) -> Result<(), DlfsError> {
        loop {
            self.harvest(rt)?;
            let id = self.next_cmd;
            match self.qp.submit_write(rt, id, slba, nblocks, buf.clone(), 0) {
                Ok(()) => {
                    self.next_cmd += 1;
                    self.inflight.insert(
                        id,
                        InflightWrite {
                            slba,
                            nblocks,
                            buf,
                            attempts,
                        },
                    );
                    return Ok(());
                }
                Err(QpairError::QueueFull) => self.wait_for_progress(rt)?,
                Err(e) => unreachable!("writer buffers are sized to their commands: {e}"),
            }
        }
    }

    /// Harvest completions; park failures for retry (or kill the writer
    /// once the budget is gone) and resubmit any retries whose backoff has
    /// elapsed.
    fn harvest(&mut self, rt: &Runtime) -> Result<(), DlfsError> {
        for c in self.qp.process_completions(rt, usize::MAX) {
            let Some(mut w) = self.inflight.remove(&c.id) else {
                continue;
            };
            match c.status {
                blocksim::CmdStatus::Ok => {}
                status => {
                    if status == blocksim::CmdStatus::TransportError {
                        self.tel.timeouts.inc();
                    }
                    w.attempts += 1;
                    match self.retry.next_delay(w.attempts) {
                        Some(delay) => {
                            self.tel.retries.inc();
                            self.delayed.push((rt.now() + delay, c.id));
                            self.inflight.insert(c.id, w);
                        }
                        None => {
                            let err = DlfsError::Io {
                                target: self.nid as u32,
                                attempts: w.attempts,
                                cause: match status {
                                    blocksim::CmdStatus::TransportError => IoFailure::Timeout,
                                    _ => IoFailure::Media,
                                },
                            };
                            self.dead = Some(err.clone());
                            return Err(err);
                        }
                    }
                }
            }
        }
        // Resubmit ready retries (deterministic order: by ready time, then
        // command id).
        self.delayed.sort_unstable();
        let now = rt.now();
        while let Some(&(ready, id)) = self.delayed.first() {
            if ready > now || self.qp.outstanding() >= self.qp.queue_depth() {
                break;
            }
            self.delayed.remove(0);
            let w = self.inflight.remove(&id).expect("delayed cmd inflight");
            let new_id = self.next_cmd;
            self.next_cmd += 1;
            self.qp
                .submit_write(rt, new_id, w.slba, w.nblocks, w.buf.clone(), 0)
                .expect("queue depth checked above");
            self.inflight.insert(new_id, w);
        }
        Ok(())
    }

    /// Advance virtual time to the next event (completion or retry
    /// readiness), charging one poll spin.
    fn wait_for_progress(&mut self, rt: &Runtime) -> Result<(), DlfsError> {
        rt.work(POLL_COST);
        let mut next = self.qp.next_completion_at();
        if let Some(&(ready, _)) = self.delayed.iter().min() {
            next = Some(next.map_or(ready, |t| t.min(ready)));
        }
        if let Some(t) = next {
            let now = rt.now();
            if t > now {
                rt.work(t - now);
            }
        }
        Ok(())
    }

    /// Submit the staged tail and wait until every command (including
    /// retries) has completed. Returns the first exhausted-retry error.
    pub fn flush(&mut self, rt: &Runtime) -> Result<(), DlfsError> {
        if let Some(e) = &self.dead {
            return Err(e.clone());
        }
        self.submit_staged(rt)?;
        self.run_active = false;
        self.staged_len = 0;
        self.tel.flushes.inc();
        while !self.inflight.is_empty() {
            self.harvest(rt)?;
            if !self.inflight.is_empty() {
                self.wait_for_progress(rt)?;
            }
        }
        Ok(())
    }

    /// Device write commands issued so far (first submissions + retries).
    pub fn commands_submitted(&self) -> u64 {
        self.qp.counters().0
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
    let mut qp = IoQPair::new(target.clone(), cfg.queue_depth);
    // cmd id -> (buf offset, nblocks, attempts)
    let mut live: HashMap<u64, (usize, u32, u32)> = HashMap::new();
    let mut delayed: Vec<(Time, u64)> = Vec::new();
    let mut next_cmd = 0u64;
    let mut submitted = 0usize;
    let mut done = 0usize;
    let total_cmds = span.div_ceil(chunk);
    while done < total_cmds {
        // Submit fresh commands while there is queue space.
        while submitted < total_cmds && qp.outstanding() < qp.queue_depth() {
            let at = submitted * chunk;
            let bytes = chunk.min(span - at);
            let nblocks = (bytes as u64).div_ceil(BLOCK_SIZE) as u32;
            let id = next_cmd;
            next_cmd += 1;
            qp.submit_read(
                rt,
                id,
                (base + at as u64) / BLOCK_SIZE,
                nblocks,
                buf.clone(),
                at,
            )
            .expect("queue space checked");
            live.insert(id, (at, nblocks, 0));
            submitted += 1;
        }
        // Resubmit ready retries.
        delayed.sort_unstable();
        let now = rt.now();
        while let Some(&(ready, id)) = delayed.first() {
            if ready > now || qp.outstanding() >= qp.queue_depth() {
                break;
            }
            delayed.remove(0);
            let (at, nblocks, attempts) = live.remove(&id).expect("delayed read live");
            let new_id = next_cmd;
            next_cmd += 1;
            qp.submit_read(
                rt,
                new_id,
                (base + at as u64) / BLOCK_SIZE,
                nblocks,
                buf.clone(),
                at,
            )
            .expect("queue space checked");
            live.insert(new_id, (at, nblocks, attempts));
        }
        let comps = qp.process_completions(rt, usize::MAX);
        if comps.is_empty() {
            rt.work(POLL_COST);
            let mut next = qp.next_completion_at();
            if let Some(&(ready, _)) = delayed.iter().min() {
                next = Some(next.map_or(ready, |t| t.min(ready)));
            }
            if let Some(t) = next {
                let now = rt.now();
                if t > now {
                    rt.work(t - now);
                }
            }
            continue;
        }
        for c in comps {
            let Some((at, nblocks, mut attempts)) = live.remove(&c.id) else {
                continue;
            };
            if c.status.is_ok() {
                done += 1;
                continue;
            }
            attempts += 1;
            match cfg.retry.next_delay(attempts) {
                Some(delay) => {
                    delayed.push((rt.now() + delay, c.id));
                    live.insert(c.id, (at, nblocks, attempts));
                }
                None => {
                    return Err(DlfsError::Io {
                        target: nid as u32,
                        attempts,
                        cause: match c.status {
                            blocksim::CmdStatus::TransportError => IoFailure::Timeout,
                            _ => IoFailure::Media,
                        },
                    })
                }
            }
        }
    }
    let mut out = vec![0u8; len];
    buf.with(|d| out.copy_from_slice(&d[head..head + len]));
    Ok(out)
}

/// Counters under `dlfs.ckpt.*` (throwaway registry by default).
struct CkptTelemetry {
    records_written: Counter,
    bytes_written: Counter,
    records_read: Counter,
    bytes_read: Counter,
}

impl CkptTelemetry {
    fn new(reg: Option<&Registry>) -> CkptTelemetry {
        let scope = crate::scoped_or_detached(reg, "dlfs.ckpt");
        CkptTelemetry {
            records_written: scope.counter("records_written"),
            bytes_written: scope.counter("bytes_written"),
            records_read: scope.counter("records_read"),
            bytes_read: scope.counter("bytes_read"),
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
    pub fn open(
        rt: &Runtime,
        target: Arc<dyn NvmeTarget>,
        sb: &Superblock,
        cfg: &DlfsConfig,
        reg: Option<&Registry>,
    ) -> Result<CheckpointWriter, DlfsError> {
        // Walk the stream to its tail: the first invalid, stale or torn
        // record is where the next append goes.
        let mut tail = CheckpointReader::open(target.clone(), sb, cfg, None);
        while tail.next(rt)?.is_some() {}
        Ok(CheckpointWriter {
            w: BatchedWriter::new(target.clone(), sb.node_id, cfg, reg),
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
    pub fn open(
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
    /// tail all terminate it).
    pub fn next(&mut self, rt: &Runtime) -> Result<Option<Vec<u8>>, DlfsError> {
        let end = self.sb.ckpt_base + self.sb.ckpt_capacity;
        if self.pos + CKPT_HEADER_BYTES > end {
            return Ok(None);
        }
        let hdr = read_timed(
            rt,
            &self.target,
            self.sb.node_id,
            self.pos,
            BLOCK_SIZE as usize,
            &self.cfg,
        )?;
        let Some(h) = CkptHeader::decode(&hdr) else {
            return Ok(None);
        };
        if h.generation != self.sb.generation || h.seq != self.seq + 1 {
            return Ok(None);
        }
        let span = CkptHeader::record_bytes(h.payload_len);
        if self.pos + span > end {
            return Ok(None);
        }
        let payload = read_timed(
            rt,
            &self.target,
            self.sb.node_id,
            self.pos + CKPT_HEADER_BYTES,
            h.payload_len as usize,
            &self.cfg,
        )?;
        if fnv1a(&payload) != h.payload_checksum {
            return Ok(None);
        }
        self.pos += span;
        self.seq = h.seq;
        self.tel.records_read.inc();
        self.tel.bytes_read.add(payload.len() as u64);
        Ok(Some(payload))
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

    #[test]
    fn pipelined_writes_beat_sync_per_chunk() {
        // Small commands: the per-command media latency (parallel across
        // the device's channels) dominates the serialized bandwidth term,
        // so keeping the qpair full must clearly beat write-then-wait.
        let n_cmds = 256u64;
        let cmd_bytes = 4096u64;
        let cfg = DlfsConfig {
            chunk_size: cmd_bytes,
            ..Default::default()
        };
        let pipelined = Runtime::simulate(0, |rt| {
            let d = dev();
            let mut w = BatchedWriter::new(d, 0, &cfg, None);
            let data = vec![7u8; cmd_bytes as usize];
            for i in 0..n_cmds {
                w.write(rt, i * cmd_bytes, &data).unwrap();
            }
            w.flush(rt).unwrap();
            rt.now().nanos()
        })
        .0;
        let sync = Runtime::simulate(0, |rt| {
            let d = dev();
            let mut qp = IoQPair::new(d, 128);
            let data = DmaBuf::standalone(cmd_bytes as usize);
            let nblocks = (cmd_bytes / BLOCK_SIZE) as u32;
            for i in 0..n_cmds {
                qp.submit_write(rt, i, i * nblocks as u64, nblocks, data.clone(), 0)
                    .unwrap();
                qp.drain(rt, Dur::nanos(100));
            }
            rt.now().nanos()
        })
        .0;
        assert!(pipelined * 2 < sync, "pipelined {pipelined} vs sync {sync}");
    }

    #[test]
    fn retries_media_errors_then_succeeds() {
        Runtime::simulate(7, |rt| {
            let d = dev();
            // ~5% write failures: every command eventually lands within the
            // 12-attempt budget.
            d.set_faults(FaultInjector::new(3).with_write_failures(50_000));
            let cfg = DlfsConfig::default();
            let mut w = BatchedWriter::new(d.clone(), 2, &cfg, None);
            let data = vec![0xa5u8; 64 << 10];
            for i in 0..32u64 {
                w.write(rt, i * (64 << 10), &data).unwrap();
            }
            w.flush(rt).unwrap();
            let mut back = vec![0u8; 64 << 10];
            d.storage().read_at(31 * (64 << 10), &mut back);
            assert!(back.iter().all(|&b| b == 0xa5));
        });
    }

    #[test]
    fn exhausted_retries_surface_sticky_io_error() {
        Runtime::simulate(1, |rt| {
            let d = dev();
            d.set_faults(FaultInjector::new(5).with_write_failures(1_000_000));
            let cfg = DlfsConfig::default();
            let mut w = BatchedWriter::new(d, 9, &cfg, None);
            w.write(rt, 0, &vec![1u8; 4096]).unwrap();
            let err = w.flush(rt).expect_err("all writes fail");
            match &err {
                DlfsError::Io {
                    target: 9,
                    attempts,
                    cause: IoFailure::Media,
                } => {
                    assert_eq!(*attempts, cfg.retry.max_attempts)
                }
                other => panic!("unexpected error {other:?}"),
            }
            // Sticky: the writer refuses further work.
            assert_eq!(w.write(rt, 8192, &[0u8; 512]), Err(err));
        });
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
