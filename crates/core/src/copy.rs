//! The copy-thread pool (paper §III-C2).
//!
//! "We use the pool of copy threads to process all completed requests in
//! the SCQ ... a shared queue helps balance the workload distribution to
//! all copying threads." Jobs carry segments of DMA chunks; a copy thread
//! charges the memcpy time and hands the assembled sample back through the
//! job's completion channel.

use blocksim::DmaBuf;
use simkit::chan::Sender;
use simkit::runtime::Runtime;

use crate::config::DlfsCosts;

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
    threads: usize,
}

impl CopyPool {
    /// Spawn `threads` copy threads. They exit when the pool handle (and
    /// every cloned sender) is dropped.
    pub fn spawn(rt: &Runtime, name: &str, threads: usize, costs: &DlfsCosts) -> CopyPool {
        assert!(threads > 0);
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
        CopyPool { jobs: tx, threads }
    }

    /// Enqueue a job onto the shared completion queue.
    pub fn submit(&self, job: CopyJob) {
        if self.jobs.send(job).is_err() {
            panic!("copy pool threads terminated early");
        }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            });
            let done = rx.recv().unwrap();
            assert_eq!(done.tag, 9);
            assert_eq!(done.sample, 3);
            assert_eq!(done.data, b"hello world");
        });
    }

    #[test]
    fn pool_parallelism_speeds_up_many_jobs() {
        let run = |threads: usize| {
            Runtime::simulate(0, |rt| {
                let pool = CopyPool::spawn(rt, "t", threads, &DlfsCosts::default());
                let buf = DmaBuf::standalone(1 << 20);
                let (tx, rx) = rt.channel(None);
                let jobs = 16;
                for i in 0..jobs {
                    pool.submit(CopyJob {
                        tag: i,
                        sample: i as u32,
                        segments: SegList::from_iter([Segment {
                            buf: buf.clone(),
                            offset: 0,
                            len: 1 << 20,
                        }]),
                        done: tx.clone(),
                    });
                }
                drop(tx);
                for _ in 0..jobs {
                    rx.recv().unwrap();
                }
                rt.now().nanos()
            })
            .0
        };
        let one = run(1);
        let four = run(4);
        assert!(four * 3 < one, "four={four} one={one}");
    }

    #[test]
    fn work_distributes_across_threads() {
        Runtime::simulate(0, |rt| {
            let pool = CopyPool::spawn(rt, "t", 4, &DlfsCosts::default());
            assert_eq!(pool.threads(), 4);
            let buf = DmaBuf::standalone(4096);
            let (tx, rx) = rt.channel(None);
            for i in 0..32 {
                pool.submit(CopyJob {
                    tag: i,
                    sample: 0,
                    segments: SegList::from_iter([Segment {
                        buf: buf.clone(),
                        offset: 0,
                        len: 4096,
                    }]),
                    done: tx.clone(),
                });
            }
            drop(tx);
            let mut got = 0;
            while rx.recv().is_ok() {
                got += 1;
            }
            assert_eq!(got, 32);
            // All four threads should have accumulated busy time; total
            // busy ≥ 32 copies of 4 KB at 8 GB/s each.
            let total = rt.total_busy();
            assert!(total.as_nanos() >= 32 * 500, "{total:?}");
        });
    }
}
