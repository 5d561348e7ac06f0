//! A reusable barrier over the simulation runtime, built on the
//! deterministic channels so release order is reproducible.

use std::sync::Arc;

use crate::plock::Mutex;

use crate::chan::Sender;
use crate::runtime::Runtime;

/// A reusable barrier for `n` tasks (collective operations: the paper's
/// `dlfs_mount` and `dlfs_sequence` are collectives).
#[derive(Clone)]
pub struct Barrier {
    inner: Arc<BarrierInner>,
}

struct BarrierInner {
    n: usize,
    state: Mutex<BarrierState>,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    waiters: Vec<Sender<u64>>,
}

impl std::fmt::Debug for Barrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Barrier").field("n", &self.inner.n).finish()
    }
}

impl Barrier {
    pub fn new(n: usize) -> Barrier {
        assert!(n > 0);
        Barrier {
            inner: Arc::new(BarrierInner {
                n,
                state: Mutex::new(BarrierState {
                    arrived: 0,
                    generation: 0,
                    waiters: Vec::new(),
                }),
            }),
        }
    }

    /// Block until all `n` tasks have arrived. Returns true for exactly one
    /// arrival per generation (the "leader", as `std::sync::Barrier` does).
    pub fn wait(&self, rt: &Runtime) -> bool {
        let (tx, rx) = rt.channel::<u64>(None);
        let leader = {
            let mut st = self.inner.state.lock();
            st.arrived += 1;
            if st.arrived == self.inner.n {
                st.arrived = 0;
                st.generation += 1;
                let generation = st.generation;
                for w in st.waiters.drain(..) {
                    let _ = w.send(generation);
                }
                return true;
            }
            st.waiters.push(tx);
            false
        };
        debug_assert!(!leader);
        rx.recv().expect("barrier leader releases waiters");
        false
    }

    /// Generations completed so far.
    pub fn generation(&self) -> u64 {
        self.inner.state.lock().generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    #[test]
    fn barrier_synchronizes_arrivals() {
        let (times, _) = Runtime::simulate(0, |rt| {
            let b = Barrier::new(4);
            let (tx, rx) = rt.channel::<u64>(None);
            let mut handles = Vec::new();
            for i in 0..4u64 {
                let b = b.clone();
                let tx = tx.clone();
                handles.push(rt.spawn(&format!("t{i}"), move |rt| {
                    rt.sleep(Dur::micros(10 * (i + 1)));
                    b.wait(rt);
                    tx.send(rt.now().nanos()).unwrap();
                }));
            }
            drop(tx);
            for h in handles {
                h.join();
            }
            rx.drain()
        });
        // Everyone leaves the barrier at the last arrival (40us).
        assert_eq!(times, vec![40_000; 4]);
    }

    #[test]
    fn barrier_elects_one_leader_per_generation() {
        let (leaders, _) = Runtime::simulate(1, |rt| {
            let b = Barrier::new(3);
            let (tx, rx) = rt.channel::<bool>(None);
            let mut handles = Vec::new();
            for i in 0..3u64 {
                let b = b.clone();
                let tx = tx.clone();
                handles.push(rt.spawn(&format!("t{i}"), move |rt| {
                    for _ in 0..5 {
                        let lead = b.wait(rt);
                        tx.send(lead).unwrap();
                        rt.sleep(Dur::micros(i + 1));
                    }
                }));
            }
            drop(tx);
            for h in handles {
                h.join();
            }
            rx.drain()
        });
        assert_eq!(leaders.len(), 15);
        assert_eq!(
            leaders.iter().filter(|&&l| l).count(),
            5,
            "one leader per round"
        );
    }
}
