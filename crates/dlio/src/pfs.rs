//! A stub of the HPC backend parallel file system (Lustre/GPFS-class).
//!
//! DLFS stages datasets *from* the PFS at `dlfs_mount` time (paper §III).
//! The stub is an in-memory named object store with shared aggregate
//! bandwidth and a per-operation latency — the two properties that matter
//! for staging time. It is deliberately good at large sequential reads and
//! (implicitly) bad at small random ones: every operation pays the fixed
//! latency.

use std::collections::HashMap;
use std::sync::Arc;

use simkit::plock::Mutex;
use simkit::resource::Link;
use simkit::runtime::Runtime;
use simkit::time::Dur;

/// Shared parallel file system handle.
#[derive(Clone)]
pub struct Pfs {
    objects: Arc<Mutex<HashMap<String, Arc<Vec<u8>>>>>,
    /// Aggregate bandwidth shared by all clients.
    link: Link,
    /// Fixed metadata/RPC latency per operation.
    op_latency: Dur,
}

impl std::fmt::Debug for Pfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pfs")
            .field("objects", &self.objects.lock().len())
            .finish()
    }
}

impl Pfs {
    /// `bytes_per_sec` aggregate bandwidth, `op_latency` per request.
    pub fn new(bytes_per_sec: f64, op_latency: Dur) -> Pfs {
        Pfs {
            objects: Arc::new(Mutex::new(HashMap::new())),
            link: Link::new(bytes_per_sec, Dur::ZERO),
            op_latency,
        }
    }

    /// A Lustre-ish default: 20 GB/s aggregate, 500 us per op.
    pub fn hpc_default() -> Pfs {
        Pfs::new(20e9, Dur::micros(500))
    }

    /// The bandwidth link (to hand to `dlfs::MountBuilder::pfs`).
    pub fn link(&self) -> Link {
        self.link.clone()
    }

    /// Store an object (untimed; dataset generation).
    pub fn put_untimed(&self, name: &str, data: Vec<u8>) {
        self.objects.lock().insert(name.to_string(), Arc::new(data));
    }

    /// Timed write.
    pub fn put(&self, rt: &Runtime, name: &str, data: Vec<u8>) {
        rt.sleep(self.op_latency);
        self.link.transfer(rt, data.len() as u64);
        self.put_untimed(name, data);
    }

    /// Timed whole-object read.
    pub fn get(&self, rt: &Runtime, name: &str) -> Option<Arc<Vec<u8>>> {
        rt.sleep(self.op_latency);
        let obj = self.objects.lock().get(name).cloned()?;
        self.link.transfer(rt, obj.len() as u64);
        Some(obj)
    }

    /// Untimed read (verification).
    pub fn get_untimed(&self, name: &str) -> Option<Arc<Vec<u8>>> {
        self.objects.lock().get(name).cloned()
    }

    pub fn len(&self) -> usize {
        self.objects.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.objects.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        Runtime::simulate(0, |rt| {
            let pfs = Pfs::new(1e9, Dur::micros(100));
            pfs.put(rt, "a", vec![5u8; 1000]);
            let got = pfs.get(rt, "a").unwrap();
            assert_eq!(got.len(), 1000);
            assert!(pfs.get(rt, "missing").is_none());
        });
    }

    #[test]
    fn ops_pay_latency_and_bandwidth() {
        Runtime::simulate(0, |rt| {
            let pfs = Pfs::new(1e9, Dur::micros(100));
            pfs.put_untimed("big", vec![0u8; 10_000_000]);
            let t0 = rt.now();
            pfs.get(rt, "big").unwrap();
            let elapsed = rt.now() - t0;
            // 100us latency + 10MB at 1GB/s = 10ms.
            assert!(elapsed >= Dur::millis(10), "{elapsed:?}");
            assert!(elapsed < Dur::millis(11), "{elapsed:?}");
        });
    }

    #[test]
    fn bandwidth_is_shared() {
        Runtime::simulate(0, |rt| {
            let pfs = Pfs::new(1e9, Dur::ZERO);
            for i in 0..4 {
                pfs.put_untimed(&format!("o{i}"), vec![0u8; 5_000_000]);
            }
            let mut handles = Vec::new();
            for i in 0..4 {
                let pfs = pfs.clone();
                handles.push(rt.spawn(&format!("c{i}"), move |rt| {
                    pfs.get(rt, &format!("o{i}")).unwrap();
                }));
            }
            for h in handles {
                h.join();
            }
            // 20 MB total at 1 GB/s shared: no faster than 20 ms.
            assert!(rt.now().nanos() >= 20_000_000, "{}", rt.now());
        });
    }
}
