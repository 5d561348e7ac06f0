//! Throughput measurement helpers: read N samples through a backend and
//! report rates in virtual time, single-reader or aggregated across a
//! cluster of readers.

use dlio::backend::ReaderBackend;
use simkit::runtime::Runtime;
use simkit::stats::Histogram;
use simkit::time::{Dur, Time};

/// One measurement window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Measured {
    pub samples: u64,
    pub bytes: u64,
    pub elapsed_ns: u64,
}

impl Measured {
    pub fn elapsed(&self) -> Dur {
        Dur::nanos(self.elapsed_ns)
    }

    /// Samples per second of virtual time.
    pub fn sample_rate(&self) -> f64 {
        let s = self.elapsed().as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.samples as f64 / s
        }
    }

    /// Bytes per second of virtual time.
    pub fn byte_rate(&self) -> f64 {
        let s = self.elapsed().as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / s
        }
    }

    pub fn merge_parallel(&mut self, other: Measured) {
        self.samples += other.samples;
        self.bytes += other.bytes;
        self.elapsed_ns = self.elapsed_ns.max(other.elapsed_ns);
    }
}

/// Read `n` samples in `batch`-sized requests on the calling task,
/// starting new epochs as needed (training reads the dataset repeatedly,
/// so spanning epochs is the natural way to get a steady-state window even
/// when the staged dataset is smaller than the measurement).
pub fn read_n(
    rt: &Runtime,
    backend: &mut dyn ReaderBackend,
    seed: u64,
    epoch: u64,
    n: usize,
    batch: usize,
) -> Measured {
    read_n_latency(rt, backend, seed, epoch, n, batch).0
}

/// Like [`read_n`], additionally recording each batch's fetch latency
/// into a histogram (nanoseconds).
pub fn read_n_latency(
    rt: &Runtime,
    backend: &mut dyn ReaderBackend,
    seed: u64,
    epoch: u64,
    n: usize,
    batch: usize,
) -> (Measured, Histogram) {
    let mut epoch = epoch;
    let available = backend.begin_epoch(rt, seed, epoch);
    let mut h = Histogram::new();
    if available == 0 {
        return (Measured::default(), h);
    }
    let t0 = rt.now();
    let mut m = Measured::default();
    while (m.samples as usize) < n {
        let ask = batch.min(n - m.samples as usize);
        let b0 = rt.now();
        match backend.next_batch(rt, ask) {
            Some(samples) => {
                h.add_dur(rt.now() - b0);
                m.samples += samples.len() as u64;
                m.bytes += samples.iter().map(|s| s.bytes.len() as u64).sum::<u64>();
            }
            None => {
                epoch += 1;
                backend.begin_epoch(rt, seed, epoch);
            }
        }
    }
    m.elapsed_ns = (rt.now() - t0).as_nanos();
    (m, h)
}

/// Factory building a reader backend inside its own task.
pub type BackendFactory = Box<dyn FnOnce(&Runtime) -> Box<dyn ReaderBackend> + Send>;

/// Run one reader task per factory concurrently; every reader reads up to
/// `n_per_reader` samples. Returns the aggregate (elapsed = slowest
/// reader, samples/bytes summed) — the paper's "aggregated throughput".
pub fn read_parallel(
    rt: &Runtime,
    factories: Vec<BackendFactory>,
    seed: u64,
    epoch: u64,
    n_per_reader: usize,
    batch: usize,
) -> Measured {
    let start: Time = rt.now();
    let mut handles = Vec::new();
    for (i, f) in factories.into_iter().enumerate() {
        handles.push(rt.spawn_with(&format!("bench-reader{i}"), move |rt| {
            let mut backend = f(rt);
            read_n(rt, backend.as_mut(), seed, epoch, n_per_reader, batch)
        }));
    }
    let mut agg = Measured::default();
    for h in handles {
        let m = h.join();
        agg.samples += m.samples;
        agg.bytes += m.bytes;
    }
    agg.elapsed_ns = (rt.now() - start).as_nanos();
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlio::backend::Sample;

    struct FakeBackend {
        total: usize,
        served: usize,
        per_sample: Dur,
        size: usize,
    }

    impl ReaderBackend for FakeBackend {
        fn begin_epoch(&mut self, _rt: &Runtime, _seed: u64, _epoch: u64) -> usize {
            self.served = 0;
            self.total
        }
        fn next_batch(&mut self, rt: &Runtime, n: usize) -> Option<Vec<Sample>> {
            if self.served >= self.total {
                return None;
            }
            let k = n.min(self.total - self.served);
            rt.work(self.per_sample * k as u64);
            self.served += k;
            Some(
                (0..k)
                    .map(|i| Sample {
                        id: i as u32,
                        bytes: vec![0u8; self.size],
                    })
                    .collect(),
            )
        }
        fn label(&self) -> &'static str {
            "fake"
        }
    }

    #[test]
    fn read_n_counts_and_times() {
        let (m, _) = Runtime::simulate(0, |rt| {
            let mut b = FakeBackend {
                total: 100,
                served: 0,
                per_sample: Dur::micros(10),
                size: 512,
            };
            read_n(rt, &mut b, 1, 0, 50, 8)
        });
        assert_eq!(m.samples, 50);
        assert_eq!(m.bytes, 50 * 512);
        assert_eq!(m.elapsed_ns, 500_000);
        assert!((m.sample_rate() - 1e5).abs() < 1.0);
    }

    #[test]
    fn parallel_aggregates() {
        let (m, _) = Runtime::simulate(0, |rt| {
            let factories: Vec<BackendFactory> = (0..4)
                .map(|_| {
                    Box::new(|_rt: &Runtime| {
                        Box::new(FakeBackend {
                            total: 100,
                            served: 0,
                            per_sample: Dur::micros(10),
                            size: 100,
                        }) as Box<dyn ReaderBackend>
                    }) as BackendFactory
                })
                .collect();
            read_parallel(rt, factories, 1, 0, 100, 10)
        });
        assert_eq!(m.samples, 400);
        // Four independent readers run concurrently: elapsed ≈ one reader.
        assert_eq!(m.elapsed_ns, 1_000_000);
        assert!((m.sample_rate() - 4e5).abs() < 1.0);
    }
}
