//! SPDK-style I/O queue pairs.
//!
//! An [`IoQPair`] pairs a submission queue and a completion queue against one
//! target (paper §III-C2). Semantics mirror SPDK's:
//!
//! * `submit_*` is non-blocking and fails with [`QpairError::QueueFull`]
//!   once the configured queue depth is outstanding;
//! * completions are discovered only by **polling**
//!   [`IoQPair::process_completions`] — there are no interrupts;
//! * a qpair is **not** thread-safe (`&mut self` everywhere); concurrent
//!   submitters need their own qpairs, exactly as in SPDK.

use std::cmp::Ordering as CmpOrd;
use std::collections::BinaryHeap;
use std::sync::Arc;

use simkit::runtime::Runtime;
use simkit::telemetry::{Counter, Gauge, Histo, Registry};
use simkit::time::{Dur, Time};

use crate::config::BLOCK_SIZE;
use crate::device::NvmeTarget;
use crate::dma::DmaBuf;
use crate::fault::CmdStatus;

/// Block I/O opcode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Read,
    Write,
}

/// Errors surfaced by qpair operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QpairError {
    /// The submission queue already holds `queue_depth` outstanding commands.
    QueueFull,
    /// The DMA buffer is too small for the requested transfer.
    BufferTooSmall,
}

impl std::fmt::Display for QpairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QpairError::QueueFull => write!(f, "submission queue full"),
            QpairError::BufferTooSmall => write!(f, "DMA buffer too small for transfer"),
        }
    }
}

impl std::error::Error for QpairError {}

/// A completed command, as returned by `process_completions`.
#[derive(Clone, Debug)]
pub struct Completion {
    /// Caller-chosen command id.
    pub id: u64,
    pub op: Op,
    pub bytes: u64,
    /// When the command was submitted.
    pub submitted: Time,
    /// When the device finished it.
    pub done: Time,
    /// Command outcome; initiators must resubmit on `MediaError`.
    pub status: CmdStatus,
}

struct Pending {
    done: Time,
    seq: u64,
    id: u64,
    op: Op,
    slba: u64,
    nblocks: u32,
    buf: DmaBuf,
    buf_offset: usize,
    submitted: Time,
    status: CmdStatus,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.done, self.seq) == (other.done, other.seq)
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrd> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> CmpOrd {
        // Min-heap by (done, seq) via reversed comparison.
        (other.done, other.seq).cmp(&(self.done, self.seq))
    }
}

/// Telemetry handles of one qpair (see [`IoQPair::attach_telemetry`]).
#[derive(Clone, Debug)]
struct QpTelemetry {
    /// Instantaneous submission-queue occupancy.
    queue_depth: Gauge,
    /// Commands submitted.
    commands: Counter,
    /// Bytes moved by completed commands.
    bytes: Counter,
    /// Completions that carried a media error (initiator must retry).
    media_errors: Counter,
    /// Completions that carried a transport error (command never reached
    /// the target; surfaced after the I/O timeout).
    timeouts: Counter,
    /// Device service latency (submit → device done) per command, ns.
    cmd_latency_ns: Histo,
}

/// An SPDK-like I/O queue pair bound to one [`NvmeTarget`].
pub struct IoQPair {
    target: Arc<dyn NvmeTarget>,
    depth: usize,
    pending: BinaryHeap<Pending>,
    seq: u64,
    submitted: u64,
    completed: u64,
    telemetry: Option<QpTelemetry>,
}

impl std::fmt::Debug for IoQPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoQPair")
            .field("target", &self.target.describe())
            .field("depth", &self.depth)
            .field("outstanding", &self.pending.len())
            .finish()
    }
}

impl IoQPair {
    /// Create a qpair with the given queue depth (clamped to the target's
    /// maximum).
    pub fn new(target: Arc<dyn NvmeTarget>, depth: usize) -> IoQPair {
        let depth = depth.clamp(1, target.max_queue_depth());
        IoQPair {
            target,
            depth,
            pending: BinaryHeap::new(),
            seq: 0,
            submitted: 0,
            completed: 0,
            telemetry: None,
        }
    }

    /// Register this qpair's metrics in `reg` (typically a registry scoped
    /// to the device, e.g. `blocksim.dev0`): `queue_depth`, `commands`,
    /// `bytes`, `media_errors` (retryable failures), `timeouts` (transport
    /// errors) and the per-command device service latency histogram
    /// `cmd_latency_ns`.
    pub fn attach_telemetry(&mut self, reg: &Registry) {
        self.telemetry = Some(QpTelemetry {
            queue_depth: reg.gauge("queue_depth"),
            commands: reg.counter("commands"),
            bytes: reg.counter("bytes"),
            media_errors: reg.counter("media_errors"),
            timeouts: reg.counter("timeouts"),
            cmd_latency_ns: reg.histogram("cmd_latency_ns"),
        });
    }

    pub fn queue_depth(&self) -> usize {
        self.depth
    }

    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Total commands submitted / completed over the qpair's lifetime.
    pub fn counters(&self) -> (u64, u64) {
        (self.submitted, self.completed)
    }

    /// Submit a read of `nblocks` logical blocks from `slba` into `buf` at
    /// `buf_offset`. Non-blocking.
    pub fn submit_read(
        &mut self,
        rt: &Runtime,
        id: u64,
        slba: u64,
        nblocks: u32,
        buf: DmaBuf,
        buf_offset: usize,
    ) -> Result<(), QpairError> {
        self.submit(rt, id, Op::Read, slba, nblocks, buf, buf_offset)
    }

    /// Submit a write of `nblocks` logical blocks to `slba` taken from `buf`
    /// at `buf_offset`. The payload is captured at submission time.
    pub fn submit_write(
        &mut self,
        rt: &Runtime,
        id: u64,
        slba: u64,
        nblocks: u32,
        buf: DmaBuf,
        buf_offset: usize,
    ) -> Result<(), QpairError> {
        self.submit(rt, id, Op::Write, slba, nblocks, buf, buf_offset)
    }

    #[allow(clippy::too_many_arguments)]
    fn submit(
        &mut self,
        rt: &Runtime,
        id: u64,
        op: Op,
        slba: u64,
        nblocks: u32,
        buf: DmaBuf,
        buf_offset: usize,
    ) -> Result<(), QpairError> {
        if self.pending.len() >= self.depth {
            return Err(QpairError::QueueFull);
        }
        let bytes = nblocks as usize * BLOCK_SIZE as usize;
        if buf_offset + bytes > buf.len() {
            return Err(QpairError::BufferTooSmall);
        }
        let now = rt.now();
        // Fault injection: the command's fate (and any latency spike) is
        // decided up front so the simulation stays deterministic.
        let fault = self
            .target
            .fault_decide_range(now, op == Op::Write, slba, nblocks);
        let done = match op {
            Op::Read => self.target.reserve_read(now, slba, nblocks),
            Op::Write => {
                if fault.status.is_ok() {
                    // Data leaves the source buffer at submission time.
                    buf.with(|d| {
                        self.target
                            .dma_write(slba, &d[buf_offset..buf_offset + bytes])
                    });
                }
                self.target.reserve_write(now, slba, nblocks)
            }
        } + fault.extra_latency;
        self.seq += 1;
        self.submitted += 1;
        self.pending.push(Pending {
            done,
            seq: self.seq,
            id,
            op,
            slba,
            nblocks,
            buf,
            buf_offset,
            submitted: now,
            status: fault.status,
        });
        if let Some(t) = &self.telemetry {
            t.commands.inc();
            t.queue_depth.set(self.pending.len() as i64);
        }
        Ok(())
    }

    /// Poll the completion queue: harvest up to `max` commands whose device
    /// completion time has passed. Read payloads are DMA'd into their
    /// buffers here (the data was in flight until now). Returns completions
    /// in device-completion order.
    pub fn process_completions(&mut self, rt: &Runtime, max: usize) -> Vec<Completion> {
        let now = rt.now();
        let mut out = Vec::new();
        while out.len() < max {
            match self.pending.peek() {
                Some(p) if p.done <= now => {}
                _ => break,
            }
            let p = self.pending.pop().expect("peeked entry");
            let bytes = p.nblocks as u64 * BLOCK_SIZE;
            let mut status = p.status;
            if p.op == Op::Read && status.is_ok() {
                // The fate drawn at submit stands, except that data which
                // is no longer there cannot land: the device died (or the
                // range went bad) while the command was in flight.
                if self.target.unreadable(p.slba, p.nblocks) {
                    status = CmdStatus::MediaError;
                } else {
                    p.buf.with_mut(|d| {
                        self.target
                            .dma_read(p.slba, &mut d[p.buf_offset..p.buf_offset + bytes as usize]);
                    });
                }
            }
            self.completed += 1;
            if let Some(t) = &self.telemetry {
                t.bytes.add(bytes);
                t.cmd_latency_ns.record_dur(p.done - p.submitted);
                match status {
                    CmdStatus::Ok => {}
                    CmdStatus::MediaError => t.media_errors.inc(),
                    CmdStatus::TransportError => t.timeouts.inc(),
                }
                t.queue_depth.set(self.pending.len() as i64);
            }
            out.push(Completion {
                id: p.id,
                op: p.op,
                bytes,
                submitted: p.submitted,
                done: p.done,
                status,
            });
        }
        out
    }

    /// The completion instant of the next pending command, if any. Used by
    /// poll loops to idle efficiently without changing polling semantics.
    pub fn next_completion_at(&self) -> Option<Time> {
        self.pending.peek().map(|p| p.done)
    }

    /// The completion instant of pending command `id`, if it is pending:
    /// like [`IoQPair::next_completion_at`], for a command not at the head.
    pub fn completion_at(&self, id: u64) -> Option<Time> {
        self.pending.iter().find(|p| p.id == id).map(|p| p.done)
    }

    /// Busy-poll until all outstanding commands complete. Returns all
    /// completions. An empty poll models one spin (`poll_cost` of CPU),
    /// then (in virtual time) a jump to the next completion if it is
    /// further away: the loop would have spun until then anyway.
    pub fn drain(&mut self, rt: &Runtime, poll_cost: Dur) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(next) = self.next_completion_at() {
            let got = self.process_completions(rt, usize::MAX);
            if got.is_empty() {
                rt.work(poll_cost.max(Dur::nanos(1)));
                rt.work_until(next);
            } else {
                out.extend(got);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::device::NvmeDevice;

    fn setup(rt: &Runtime) -> (Arc<NvmeDevice>, IoQPair) {
        let _ = rt;
        let dev = NvmeDevice::new(DeviceConfig::optane(64 << 20));
        let qp = IoQPair::new(dev.clone(), 32);
        (dev, qp)
    }

    #[test]
    fn submit_poll_roundtrip() {
        Runtime::simulate(0, |rt| {
            let (dev, mut qp) = setup(rt);
            let payload = vec![0xabu8; 4096];
            dev.storage().write_at(0, &payload);

            let buf = DmaBuf::standalone(4096);
            qp.submit_read(rt, 1, 0, 8, buf.clone(), 0).unwrap();
            assert_eq!(qp.outstanding(), 1);
            // Nothing completes before the device is done.
            assert!(qp.process_completions(rt, 16).is_empty());
            let done = qp.next_completion_at().unwrap();
            rt.sleep(done - rt.now());
            let comps = qp.process_completions(rt, 16);
            assert_eq!(comps.len(), 1);
            assert_eq!(comps[0].id, 1);
            assert_eq!(comps[0].bytes, 4096);
            buf.with(|d| assert!(d.iter().all(|&b| b == 0xab)));
            assert_eq!(qp.outstanding(), 0);
        });
    }

    #[test]
    fn queue_depth_enforced() {
        Runtime::simulate(0, |rt| {
            let (_dev, mut qp) = setup(rt);
            let mut bufs = Vec::new();
            for i in 0..32 {
                let b = DmaBuf::standalone(512);
                qp.submit_read(rt, i, i, 1, b.clone(), 0).unwrap();
                bufs.push(b);
            }
            let b = DmaBuf::standalone(512);
            assert_eq!(
                qp.submit_read(rt, 99, 0, 1, b, 0),
                Err(QpairError::QueueFull)
            );
            let comps = qp.drain(rt, Dur::nanos(50));
            assert_eq!(comps.len(), 32);
            let (s, c) = qp.counters();
            assert_eq!((s, c), (32, 32));
        });
    }

    #[test]
    fn write_then_read_roundtrip() {
        Runtime::simulate(0, |rt| {
            let (dev, mut qp) = setup(rt);
            let wbuf = DmaBuf::standalone(1024);
            wbuf.with_mut(|d| {
                d.iter_mut()
                    .enumerate()
                    .for_each(|(i, b)| *b = (i % 251) as u8)
            });
            qp.submit_write(rt, 1, 10, 2, wbuf.clone(), 0).unwrap();
            qp.drain(rt, Dur::nanos(50));

            let rbuf = DmaBuf::standalone(1024);
            qp.submit_read(rt, 2, 10, 2, rbuf.clone(), 0).unwrap();
            qp.drain(rt, Dur::nanos(50));
            let expect: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
            rbuf.with(|d| assert_eq!(d, &expect[..]));
            let (r, w, _, _) = dev.stats();
            assert_eq!((r, w), (1, 1));
        });
    }

    #[test]
    fn pipelining_beats_serial() {
        // Queue-depth-32 submission should finish much faster than
        // synchronous one-at-a-time reads — the mechanism behind the paper's
        // DLFS-Base vs DLFS gap.
        let serial = Runtime::simulate(0, |rt| {
            let (_d, mut qp) = setup(rt);
            for i in 0..64u64 {
                let b = DmaBuf::standalone(4096);
                qp.submit_read(rt, i, (i * 8) % 1024, 8, b, 0).unwrap();
                qp.drain(rt, Dur::nanos(50));
            }
            rt.now().nanos()
        })
        .0;
        let pipelined = Runtime::simulate(0, |rt| {
            let (_d, mut qp) = setup(rt);
            let mut i = 0u64;
            let mut done = 0;
            while done < 64 {
                while i < 64 {
                    let b = DmaBuf::standalone(4096);
                    if qp.submit_read(rt, i, (i * 8) % 1024, 8, b, 0).is_err() {
                        break;
                    }
                    i += 1;
                }
                let got = qp.process_completions(rt, usize::MAX);
                if got.is_empty() {
                    // One 100 ns spin, then on to the next completion.
                    let next = qp.next_completion_at().expect("commands in flight");
                    rt.work_until(next.max(rt.now() + Dur::nanos(100)));
                }
                done += got.len();
            }
            rt.now().nanos()
        })
        .0;
        assert!(
            pipelined * 3 < serial,
            "pipelined {pipelined} vs serial {serial}"
        );
    }

    #[test]
    fn read_in_flight_across_a_kill_completes_media_error() {
        Runtime::simulate(0, |rt| {
            let (dev, mut qp) = setup(rt);
            dev.storage().write_at(0, &[0xabu8; 512]);
            let buf = DmaBuf::standalone(512);
            buf.with_mut(|d| d.fill(0x11));
            qp.submit_read(rt, 1, 0, 1, buf.clone(), 0).unwrap();
            dev.kill();
            let comps = qp.drain(rt, Dur::nanos(50));
            assert_eq!(comps[0].status, CmdStatus::MediaError);
            buf.with(|d| assert!(d.iter().all(|&b| b == 0x11), "nothing may land"));
            // A command submitted and harvested while alive is untouched.
            dev.revive();
            qp.submit_read(rt, 2, 0, 1, buf.clone(), 0).unwrap();
            assert_eq!(qp.drain(rt, Dur::nanos(50))[0].status, CmdStatus::Ok);
            buf.with(|d| assert!(d.iter().all(|&b| b == 0xab)));
        });
    }

    #[test]
    fn buffer_too_small_rejected() {
        Runtime::simulate(0, |rt| {
            let (_d, mut qp) = setup(rt);
            let b = DmaBuf::standalone(512);
            assert_eq!(
                qp.submit_read(rt, 0, 0, 2, b, 0),
                Err(QpairError::BufferTooSmall)
            );
        });
    }
}
