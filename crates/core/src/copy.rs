//! The copy-thread pool (paper §III-C2).
//!
//! "We use the pool of copy threads to process all completed requests in
//! the SCQ ... a shared queue helps balance the workload distribution to
//! all copying threads." Jobs carry segments of DMA chunks; a copy thread
//! charges the memcpy time and hands the assembled sample back through the
//! job's completion channel. The frontend publishes jobs by the *run* — all
//! the samples one deliver pass drew, in one enqueue — and the threads take
//! a run's entries one at a time, first in first out, whichever is free.

use blocksim::DmaBuf;
use simkit::chan::Sender;
use simkit::runtime::Runtime;

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

/// A completed copy.
#[derive(Debug)]
pub struct CopyDone {
    pub tag: u64,
    pub sample: u32,
    pub data: Vec<u8>,
}

/// Handle to the shared copy queue.
#[derive(Clone, Debug)]
pub struct CopyPool {
    jobs: Sender<CopyJob>,
}

impl CopyPool {
    /// Spawn `threads` copy threads. They exit when the pool handle (and
    /// every cloned sender) is dropped.
    pub fn spawn(rt: &Runtime, name: &str, threads: usize, costs: &DlfsCosts) -> CopyPool {
        let (tx, rx) = rt.channel::<CopyJob>(None);
        for t in 0..threads {
            let rx = rx.clone();
            let costs = costs.clone();
            rt.spawn(&format!("{name}-copy{t}"), move |rt| {
                while let Ok(job) = rx.recv() {
                    let total: usize = job.segments.iter().map(|s| s.len).sum();
                    let mut data = vec![0u8; total];
                    let mut at = 0;
                    for seg in &job.segments {
                        seg.buf.copy_to(seg.offset, &mut data[at..at + seg.len]);
                        at += seg.len;
                    }
                    rt.work(costs.memcpy(total as u64));
                    // Receiver may be gone during teardown; that's fine.
                    let _ = job.done.send(CopyDone {
                        tag: job.tag,
                        sample: job.sample,
                        data,
                    });
                }
            });
        }
        CopyPool { jobs: tx }
    }

    /// Publish a run of jobs onto the shared queue at one instant, in
    /// order. The queue stays per job: each free copy thread takes the
    /// next one, so a run spreads over the pool however long its entries
    /// are. `CopyPoolDown` if no copy thread is left to take them.
    pub fn submit_run(&self, run: impl IntoIterator<Item = CopyJob>) -> Result<(), DlfsError> {
        run.into_iter()
            .try_for_each(|job| self.jobs.send(job).map_err(|_| DlfsError::CopyPoolDown))
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
            let done = rx.recv().unwrap();
            assert_eq!(done.tag, 9);
            assert_eq!(done.sample, 3);
            assert_eq!(done.data, b"hello world");
        });
    }

    /// A run lands on the queue at one instant and is drained an entry at a
    /// time by whichever thread is free: 8 equal entries are answered one
    /// by one, on 4 threads four after one memcpy and four after two, on
    /// one thread (or handed whole to one) the last after eight, the pool
    /// busy for eight memcpys either way; and a run of one is `submit`.
    #[test]
    fn a_run_spreads_over_the_pool_entry_by_entry() {
        let costs = DlfsCosts::default();
        let len = 64 << 10;
        let memcpy = costs.memcpy(len as u64);
        let answered_at = |threads: usize, entries: u64| {
            Runtime::simulate(0, |rt| {
                let pool = CopyPool::spawn(rt, "t", threads, &costs);
                let buf = DmaBuf::standalone(len);
                let (tx, rx) = rt.channel(None);
                let t0 = rt.now();
                if entries == 1 {
                    pool.submit(job(0, &buf, len, &tx)).unwrap();
                } else {
                    pool.submit_run((0..entries).map(|tag| job(tag, &buf, len, &tx)))
                        .unwrap();
                }
                assert_eq!(rt.now(), t0, "publishing takes no time of its own");
                let mut done: Vec<_> = (0..entries)
                    .map(|_| (rx.recv().unwrap().tag, rt.now() - t0))
                    .collect();
                done.sort();
                assert_eq!(rt.total_busy(), memcpy * entries);
                done
            })
            .0
        };
        for threads in [4, 1] {
            let wave = |tag| 1 + tag / threads as u64;
            let expect: Vec<_> = (0..8).map(|tag| (tag, memcpy * wave(tag))).collect();
            assert_eq!(answered_at(threads, 8), expect);
            assert_eq!(answered_at(threads, 1), [(0, memcpy)]);
        }
    }

    /// A pool with no thread to take a job says so; nothing waits on it.
    #[test]
    fn a_dead_pool_is_a_typed_error() {
        Runtime::simulate(0, |rt| {
            let pool = CopyPool::spawn(rt, "t", 0, &DlfsCosts::default());
            let (tx, _rx) = rt.channel(None);
            let run = job(0, &DmaBuf::standalone(8), 8, &tx);
            assert_eq!(pool.submit(run), Err(DlfsError::CopyPoolDown));
        });
    }
}
