//! The `Runtime` facade: one handle for spawning tasks, telling time,
//! sleeping, and creating channels, backed by the deterministic
//! virtual-time scheduler ([`Runtime::simulate`]).
//!
//! Components throughout the workspace are written against this handle only,
//! so the DLFS/Ext4/Octopus code runs inside exact, reproducible
//! simulations: every figure, test and example is measured in virtual time.

use std::sync::Arc;

use crate::plock::Mutex;

use crate::chan::{sim_channel, Receiver, Sender};
use crate::rng::SplitMix64;
use crate::sched::{Pid, SimCore};
use crate::time::{Dur, Time};

/// A handle to the execution environment. Cheap to clone; pass it to every
/// spawned task.
#[derive(Clone)]
pub struct Runtime(Arc<SimCore>);

impl Runtime {
    /// Run `f` inside a fresh deterministic simulation and return its result
    /// together with the final virtual time.
    ///
    /// The calling thread becomes the *root* participant. When `f` returns,
    /// all remaining participants (e.g. device engines in endless poll
    /// loops) are shut down and joined. Panics inside any participant, and
    /// deadlocks, abort the simulation with the original message.
    pub fn simulate<T>(seed: u64, f: impl FnOnce(&Runtime) -> T) -> (T, Time) {
        let core = SimCore::new(seed);
        core.enter_root();
        // Ensure threads are joined even if `f` panics.
        struct Guard(Arc<SimCore>, Option<Time>);
        impl Drop for Guard {
            fn drop(&mut self) {
                if self.1.is_none() {
                    self.1 = Some(self.0.exit_root());
                }
            }
        }
        let mut guard = Guard(core.clone(), None);
        let rt = Runtime(core);
        let out = f(&rt);
        let end = guard.0.exit_root();
        guard.1 = Some(end);
        (out, end)
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.0.now()
    }

    /// Suspend the calling task for `d` (idle time; models waiting). A zero
    /// `d` yields: the task goes to the back of the ready queue.
    pub fn sleep(&self, d: Dur) {
        self.0.sleep(d)
    }

    /// Consume `d` of CPU (busy time; models computation / memcpy / polling).
    pub fn work(&self, d: Dur) {
        self.0.work(d)
    }

    /// Sleep until the absolute instant `t` (idle time). A no-op when `t`
    /// is not in the future. The event-driven idiom for parking until a
    /// known completion instant.
    pub fn sleep_until(&self, t: Time) {
        let now = self.now();
        if t > now {
            self.sleep(t - now);
        }
    }

    /// Spin until the absolute instant `t` (busy time). A no-op when `t`
    /// is not in the future. Models a polling loop that would have kept
    /// the CPU hot until then anyway.
    pub fn work_until(&self, t: Time) {
        let now = self.now();
        if t > now {
            self.work(t - now);
        }
    }

    /// Busy CPU time consumed so far by the calling task.
    pub fn my_busy(&self) -> Dur {
        self.0.my_busy()
    }

    /// Total busy CPU time across all tasks.
    pub fn total_busy(&self) -> Dur {
        self.0.total_busy()
    }

    /// Total parked idle time across all tasks: the complement of
    /// [`Runtime::total_busy`]. An event-driven loop parks instead of
    /// spinning, and the difference shows up here.
    pub fn total_idle(&self) -> Dur {
        self.0.total_idle()
    }

    /// The experiment seed this runtime was created with.
    pub fn seed(&self) -> u64 {
        self.0.seed
    }

    /// Derive a deterministic RNG stream labelled `stream` from the runtime
    /// seed. Equal (seed, stream) pairs always yield equal sequences.
    pub fn rng(&self, stream: u64) -> SplitMix64 {
        SplitMix64::derive(self.seed(), stream)
    }

    /// Spawn a task; it becomes a scheduler participant.
    pub fn spawn(&self, name: &str, f: impl FnOnce(&Runtime) + Send + 'static) -> JoinHandle<()> {
        self.spawn_with(name, move |rt| {
            f(rt);
        })
    }

    /// Spawn a task that returns a value retrievable through its handle.
    pub fn spawn_with<T: Send + 'static>(
        &self,
        name: &str,
        f: impl FnOnce(&Runtime) -> T + Send + 'static,
    ) -> JoinHandle<T> {
        let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let rt = self.clone();
        let s2 = slot.clone();
        let pid = self.0.spawn_participant(
            name,
            Box::new(move || {
                let v = f(&rt);
                *s2.lock() = Some(v);
            }),
        );
        JoinHandle {
            core: self.0.clone(),
            pid,
            slot,
        }
    }

    /// Create a channel. `cap = None` means unbounded.
    pub fn channel<T: Send>(&self, cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        sim_channel(self.0.clone(), cap)
    }
}

/// Handle to a spawned task.
pub struct JoinHandle<T> {
    core: Arc<SimCore>,
    pid: Pid,
    slot: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Wait for the task to finish and return its value.
    ///
    /// A task that panicked poisons the whole simulation (see the scheduler
    /// docs), so `join` on it never returns normally.
    pub fn join(self) -> T {
        self.core.join_participant(self.pid);
        self.slot
            .lock()
            .take()
            .expect("joined task did not produce a value")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_advances_only_by_sleep() {
        let ((), end) = Runtime::simulate(0, |rt| {
            assert_eq!(rt.now(), Time::ZERO);
            rt.sleep(Dur::micros(10));
            assert_eq!(rt.now(), Time(10_000));
            rt.work(Dur::micros(5));
            assert_eq!(rt.now(), Time(15_000));
        });
        assert_eq!(end, Time(15_000));
    }

    #[test]
    fn spawned_tasks_interleave_deterministically() {
        let (order, _) = Runtime::simulate(0, |rt| {
            let (tx, rx) = rt.channel::<(u32, u64)>(None);
            for i in 0..3u32 {
                let tx = tx.clone();
                rt.spawn_with(&format!("w{i}"), move |rt| {
                    rt.sleep(Dur::micros(10 * (3 - i as u64)));
                    tx.send((i, rt.now().nanos())).unwrap();
                });
            }
            drop(tx);
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        });
        // Worker 2 sleeps 10us, worker 1 20us, worker 0 30us.
        assert_eq!(order, vec![(2, 10_000), (1, 20_000), (0, 30_000)]);
    }

    #[test]
    fn join_returns_value_and_advances_clock() {
        let (v, end) = Runtime::simulate(7, |rt| {
            let h = rt.spawn_with("calc", |rt| {
                rt.sleep(Dur::millis(2));
                42u64
            });
            h.join()
        });
        assert_eq!(v, 42);
        assert_eq!(end, Time(2_000_000));
    }

    #[test]
    fn bounded_channel_applies_backpressure() {
        let (produced_at, _) = Runtime::simulate(0, |rt| {
            let (tx, rx) = rt.channel::<u32>(Some(1));
            let consumer = rt.spawn_with("consumer", move |rt| {
                let mut last = 0;
                while let Ok(v) = rx.recv() {
                    rt.sleep(Dur::micros(100)); // slow consumer
                    last = v;
                }
                last
            });
            let mut times = Vec::new();
            for i in 0..4u32 {
                tx.send(i).unwrap();
                times.push(rt.now().nanos());
            }
            drop(tx);
            consumer.join();
            times
        });
        // First send is immediate; later sends are throttled by the consumer.
        assert_eq!(produced_at[0], 0);
        assert!(produced_at[3] >= 200_000, "{produced_at:?}");
    }

    #[test]
    fn recv_on_closed_channel_errors() {
        Runtime::simulate(0, |rt| {
            let (tx, rx) = rt.channel::<u8>(None);
            tx.send(9).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(9));
            assert!(rx.recv().is_err());
            // A sender made from the receiver reconnects it.
            rx.sender().send(7).unwrap();
            assert_eq!(rx.recv(), Ok(7));
            // The last receiver takes the queue with it: a reply sender
            // queued in a request nobody will serve disconnects its channel.
            let (req_tx, req_rx) = rt.channel(None);
            req_tx.send(rx.sender()).unwrap();
            drop(req_rx);
            assert!(rx.recv().is_err());
        });
    }

    #[test]
    fn busy_accounting() {
        let ((me, total), _) = Runtime::simulate(0, |rt| {
            let h = rt.spawn_with("busy", |rt| {
                rt.work(Dur::micros(30));
            });
            rt.work(Dur::micros(10));
            rt.sleep(Dur::micros(100));
            h.join();
            (rt.my_busy(), rt.total_busy())
        });
        assert_eq!(me, Dur::micros(10));
        assert_eq!(total, Dur::micros(40));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        Runtime::simulate(0, |rt| {
            let (_tx, rx) = rt.channel::<u8>(None);
            // _tx is alive, so recv blocks forever with nobody to wake us.
            let _ = rx.recv();
        });
    }

    #[test]
    #[should_panic(expected = "participant 'boom' panicked")]
    fn participant_panic_poisons_simulation() {
        Runtime::simulate(0, |rt| {
            let h = rt.spawn_with("boom", |_rt| {
                panic!("intentional");
            });
            h.join()
        });
    }

    #[test]
    fn zero_sleep_yields_fifo() {
        let (seqs, _) = Runtime::simulate(0, |rt| {
            let (tx, rx) = rt.channel::<u32>(None);
            for i in 0..2u32 {
                let tx = tx.clone();
                rt.spawn_with(&format!("y{i}"), move |rt| {
                    for k in 0..3u32 {
                        tx.send(i * 10 + k).unwrap();
                        rt.sleep(Dur::ZERO);
                    }
                });
            }
            drop(tx);
            rt.sleep(Dur::micros(1));
            rx.drain()
        });
        // Strict round-robin between the two yielding workers.
        assert_eq!(seqs, vec![0, 10, 1, 11, 2, 12]);
    }
}
