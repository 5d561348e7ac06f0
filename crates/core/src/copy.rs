//! The copy-thread pool (paper §III-C2).
//!
//! "We use the pool of copy threads to process all completed requests in
//! the SCQ ... a shared queue helps balance the workload distribution to
//! all copying threads." Jobs carry segments of DMA chunks; a copy thread
//! charges the memcpy time and hands the assembled sample back through the
//! job's completion channel. The frontend publishes jobs by the *run* — the
//! samples one deliver pass drew, in one enqueue, or in two when the pass
//! wants more samples than there are threads: its first half as soon as it
//! is drawn — and the threads take a run's entries one at a time, first in
//! first out, whichever is free.
//!
//! The same queue carries the other per-byte work of a read: a *check*
//! entry is the block checksums (and frame decode) of one fetched part,
//! published by the run per poll pass. A copy thread charges its cost and
//! answers with its tag; the frontend applies the verdict when it collects
//! the answer, so the polling thread never pays for a payload byte.

use blocksim::DmaBuf;
use simkit::chan::Sender;
use simkit::runtime::Runtime;
use simkit::time::{Dur, Time};

use crate::config::DlfsCosts;
use crate::error::DlfsError;

/// One contiguous piece of a sample inside a DMA chunk.
#[derive(Clone, Debug)]
pub struct Segment {
    pub buf: DmaBuf,
    pub offset: usize,
    pub len: usize,
}

/// A segment list that stores up to two segments inline. Nearly every
/// sample spans one chunk (two when it straddles a chunk boundary), so the
/// steady-state read path never heap-allocates for segment bookkeeping;
/// pathological spans spill to a `Vec`.
#[derive(Clone, Debug, Default)]
pub struct SegList(Segs);

#[derive(Clone, Debug, Default)]
enum Segs {
    #[default]
    Empty,
    One([Segment; 1]),
    Two([Segment; 2]),
    Many(Vec<Segment>),
}

impl SegList {
    pub fn new() -> SegList {
        SegList(Segs::Empty)
    }

    pub fn push(&mut self, s: Segment) {
        self.0 = match std::mem::take(&mut self.0) {
            Segs::Empty => Segs::One([s]),
            Segs::One([a]) => Segs::Two([a, s]),
            Segs::Two([a, b]) => Segs::Many(vec![a, b, s]),
            Segs::Many(mut v) => {
                v.push(s);
                Segs::Many(v)
            }
        };
    }

    pub fn as_slice(&self) -> &[Segment] {
        match &self.0 {
            Segs::Empty => &[],
            Segs::One(a) => a,
            Segs::Two(a) => a,
            Segs::Many(v) => v,
        }
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Segment> {
        self.as_slice().iter()
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Total payload bytes across all segments.
    pub fn total_bytes(&self) -> usize {
        self.iter().map(|s| s.len).sum()
    }
}

impl FromIterator<Segment> for SegList {
    fn from_iter<I: IntoIterator<Item = Segment>>(iter: I) -> SegList {
        let mut out = SegList::new();
        for s in iter {
            out.push(s);
        }
        out
    }
}

impl<'a> IntoIterator for &'a SegList {
    type Item = &'a Segment;
    type IntoIter = std::slice::Iter<'a, Segment>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A sample copy job: cache → application buffer.
pub struct CopyJob {
    /// Caller-defined tag (delivery slot).
    pub tag: u64,
    /// Sample id being delivered.
    pub sample: u32,
    /// Pieces to concatenate.
    pub segments: SegList,
    /// Where the finished sample goes.
    pub done: Sender<CopyDone>,
}

impl std::fmt::Debug for CopyJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CopyJob")
            .field("tag", &self.tag)
            .field("sample", &self.sample)
            .field("segments", &self.segments.len())
            .finish()
    }
}

/// The pool's answer to one queue entry, with the instant the copy thread
/// finished it — the end of the entry's stage, however late the frontend
/// collects the answer.
#[derive(Debug)]
pub enum CopyDone {
    /// A completed copy: the job's tag and sample, and the assembled bytes.
    Copy {
        tag: u64,
        sample: u32,
        data: Vec<u8>,
        finished: Time,
    },
    /// A check entry's cost has been paid: its tag.
    Check { tag: u64, finished: Time },
}

/// One entry of the shared queue.
#[derive(Debug)]
enum Entry {
    Copy(CopyJob),
    /// Per-byte work worth `cost` on a fetched part.
    Check {
        tag: u64,
        cost: Dur,
        done: Sender<CopyDone>,
    },
}

/// Handle to the shared copy queue.
#[derive(Clone, Debug)]
pub struct CopyPool {
    jobs: Sender<Entry>,
}

impl CopyPool {
    /// Spawn `threads` copy threads. They exit when the pool handle (and
    /// every cloned sender) is dropped.
    pub fn spawn(rt: &Runtime, name: &str, threads: usize, costs: &DlfsCosts) -> CopyPool {
        let (tx, rx) = rt.channel::<Entry>(None);
        for t in 0..threads {
            let rx = rx.clone();
            let costs = costs.clone();
            rt.spawn(&format!("{name}-copy{t}"), move |rt| {
                while let Ok(entry) = rx.recv() {
                    let (done, answer) = match entry {
                        Entry::Copy(job) => {
                            let total = job.segments.total_bytes();
                            let mut data = vec![0u8; total];
                            let mut at = 0;
                            for seg in &job.segments {
                                seg.buf.copy_to(seg.offset, &mut data[at..at + seg.len]);
                                at += seg.len;
                            }
                            rt.work(costs.memcpy(total as u64));
                            let (tag, sample, finished) = (job.tag, job.sample, rt.now());
                            let copy = CopyDone::Copy {
                                tag,
                                sample,
                                data,
                                finished,
                            };
                            (job.done, copy)
                        }
                        Entry::Check { tag, cost, done } => {
                            rt.work(cost);
                            let finished = rt.now();
                            (done, CopyDone::Check { tag, finished })
                        }
                    };
                    // Receiver may be gone during teardown; that's fine.
                    let _ = done.send(answer);
                }
            });
        }
        CopyPool { jobs: tx }
    }

    /// Publish a run of entries onto the shared queue at one instant, in
    /// order. The queue stays per entry: each free copy thread takes the
    /// next one, so a run spreads over the pool however long its entries
    /// are. `CopyPoolDown` if no copy thread is left to take them.
    fn publish(&self, run: impl IntoIterator<Item = Entry>) -> Result<(), DlfsError> {
        run.into_iter()
            .try_for_each(|e| self.jobs.send(e).map_err(|_| DlfsError::CopyPoolDown))
    }

    /// Publish a run of copy jobs (`CopyPool::publish`).
    pub fn submit_run(&self, run: impl IntoIterator<Item = CopyJob>) -> Result<(), DlfsError> {
        self.publish(run.into_iter().map(Entry::Copy))
    }

    /// Publish a run of check entries, `(tag, cost)` each, answered on
    /// `done` (`CopyPool::publish`).
    pub(crate) fn check_run(
        &self,
        run: impl IntoIterator<Item = (u64, Dur)>,
        done: &Sender<CopyDone>,
    ) -> Result<(), DlfsError> {
        let entry = |(tag, cost)| Entry::Check {
            tag,
            cost,
            done: done.clone(),
        };
        self.publish(run.into_iter().map(entry))
    }

    /// A run of one.
    pub fn submit(&self, job: CopyJob) -> Result<(), DlfsError> {
        self.submit_run([job])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job copying the first `len` bytes of `buf`.
    fn job(tag: u64, buf: &DmaBuf, len: usize, done: &Sender<CopyDone>) -> CopyJob {
        let segments = SegList::from_iter([Segment {
            buf: buf.clone(),
            offset: 0,
            len,
        }]);
        CopyJob {
            tag,
            sample: tag as u32,
            segments,
            done: done.clone(),
        }
    }

    #[test]
    fn copies_assemble_segments_in_order() {
        Runtime::simulate(0, |rt| {
            let pool = CopyPool::spawn(rt, "t", 2, &DlfsCosts::default());
            let a = DmaBuf::standalone(64);
            let b = DmaBuf::standalone(64);
            a.copy_from(0, b"hello ");
            b.copy_from(10, b"world");
            let (tx, rx) = rt.channel(None);
            pool.submit(CopyJob {
                tag: 9,
                sample: 3,
                segments: SegList::from_iter([
                    Segment {
                        buf: a,
                        offset: 0,
                        len: 6,
                    },
                    Segment {
                        buf: b,
                        offset: 10,
                        len: 5,
                    },
                ]),
                done: tx,
            })
            .unwrap();
            let CopyDone::Copy {
                tag, sample, data, ..
            } = rx.recv().unwrap()
            else {
                panic!("a copy job is answered with a copy");
            };
            assert_eq!((tag, sample, &data[..]), (9, 3, &b"hello world"[..]));
        });
    }

    /// A run lands on the queue at one instant and is drained an entry at a
    /// time by whichever thread is free, and check and copy entries share
    /// the one FIFO: eight entries of eight costs, published interleaved as
    /// runs of one, two and three, are each taken in publish order and
    /// answered their own cost later — the list schedule, on four threads
    /// and on one — and the pool is busy for exactly Σ check costs +
    /// Σ memcpys. A run of one is `submit`.
    #[test]
    fn a_run_spreads_over_the_pool_entry_by_entry() {
        let costs = DlfsCosts::default();
        // Entry `i`: a copy of (i + 2) × 2 KiB when even, a check of
        // (i + 1) × 300 ns when odd — no two answers at one instant.
        let len = |i: u64| (i as usize + 2) << 11;
        let cost = |i: u64| match i % 2 {
            0 => costs.memcpy(len(i) as u64),
            _ => Dur::nanos(300 * (i + 1)),
        };
        for threads in [4, 1] {
            Runtime::simulate(0, |rt| {
                let pool = CopyPool::spawn(rt, "t", threads, &costs);
                let buf = DmaBuf::standalone(len(8));
                let (tx, rx) = rt.channel(None);
                let copy = |i| job(i, &buf, len(i), &tx);
                let t0 = rt.now();
                pool.submit(copy(0)).unwrap();
                pool.check_run([1, 3].map(|i| (i, cost(i))), &tx).unwrap();
                pool.submit_run([2, 4, 6].map(copy)).unwrap();
                pool.check_run([5, 7].map(|i| (i, cost(i))), &tx).unwrap();
                assert_eq!(rt.now(), t0, "publishing takes no time of its own");
                // The list schedule of the entries, in publish order.
                let mut free = vec![Dur::ZERO; threads];
                let mut expect = [0, 1, 3, 2, 4, 6, 5, 7].map(|i| {
                    let t = free.iter_mut().min().unwrap();
                    *t += cost(i);
                    (*t, i)
                });
                expect.sort();
                let got = [(); 8].map(|()| {
                    let (tag, finished) = match rx.recv().unwrap() {
                        CopyDone::Copy { tag, finished, .. }
                        | CopyDone::Check { tag, finished } => (tag, finished),
                    };
                    (finished - t0, tag)
                });
                assert_eq!(got, expect, "{threads} thread(s)");
                let total = (0..8).map(cost).fold(Dur::ZERO, |a, c| a + c);
                assert_eq!(rt.total_busy(), total);
            });
        }
    }

    /// A pool with no thread to take an entry says so and keeps nothing:
    /// once the caller's own sender is gone the answer channel disconnects,
    /// so nothing waits on a dead pool.
    #[test]
    fn a_dead_pool_is_a_typed_error() {
        Runtime::simulate(0, |rt| {
            let pool = CopyPool::spawn(rt, "t", 0, &DlfsCosts::default());
            let (tx, rx) = rt.channel(None);
            let run = job(0, &DmaBuf::standalone(8), 8, &tx);
            assert_eq!(pool.submit(run), Err(DlfsError::CopyPoolDown));
            let check = pool.check_run([(1, Dur::nanos(300))], &tx);
            assert_eq!(check, Err(DlfsError::CopyPoolDown));
            drop(tx);
            assert!(rx.recv().is_err());
        });
    }
}
