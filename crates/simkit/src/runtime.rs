//! The `Runtime` facade: one handle for spawning tasks, telling time,
//! sleeping, and creating channels — backed either by the deterministic
//! virtual-time scheduler ([`Runtime::simulate`]) or by real OS threads and
//! the wall clock ([`Runtime::real`]).
//!
//! Components throughout the workspace are written against this handle only,
//! so the same DLFS/Ext4/Octopus code runs both inside exact, reproducible
//! simulations (for the paper's figures) and live on real threads (for the
//! interactive examples).

use std::sync::Arc;
use std::time::Instant;

use crate::plock::Mutex;

use crate::chan::{real_channel, sim_channel, Receiver, Sender};
use crate::rng::SplitMix64;
use crate::sched::{Pid, SimCore};
use crate::time::{Dur, Time};

#[derive(Clone)]
enum RtImpl {
    Sim(Arc<SimCore>),
    Real(Arc<RealCore>),
}

struct RealCore {
    epoch: Instant,
    seed: u64,
}

/// A handle to the execution environment. Cheap to clone; pass it to every
/// spawned task.
#[derive(Clone)]
pub struct Runtime(RtImpl);

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
        let rt = Runtime(RtImpl::Sim(core));
        let out = f(&rt);
        let end = guard.0.exit_root();
        guard.1 = Some(end);
        (out, end)
    }

    /// A runtime backed by real OS threads and the wall clock. Virtual time
    /// maps to wall time since creation.
    pub fn real(seed: u64) -> Runtime {
        Runtime(RtImpl::Real(Arc::new(RealCore {
            epoch: Instant::now(),
            seed,
        })))
    }

    /// Whether this runtime is a deterministic simulation.
    pub fn is_sim(&self) -> bool {
        matches!(self.0, RtImpl::Sim(_))
    }

    /// Current (virtual or wall) time.
    pub fn now(&self) -> Time {
        match &self.0 {
            RtImpl::Sim(c) => c.now(),
            RtImpl::Real(c) => Time(c.epoch.elapsed().as_nanos() as u64),
        }
    }

    /// Suspend the calling task for `d` (idle time; models waiting).
    pub fn sleep(&self, d: Dur) {
        match &self.0 {
            RtImpl::Sim(c) => c.sleep(d),
            RtImpl::Real(c) => c.sleep_real(d),
        }
    }

    /// Consume `d` of CPU (busy time; models computation / memcpy / polling).
    pub fn work(&self, d: Dur) {
        match &self.0 {
            RtImpl::Sim(c) => c.work(d),
            RtImpl::Real(c) => c.spin(d),
        }
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

    /// Yield to other runnable tasks without advancing time.
    pub fn yield_now(&self) {
        match &self.0 {
            RtImpl::Sim(c) => c.sleep(Dur::ZERO),
            RtImpl::Real(_) => std::thread::yield_now(),
        }
    }

    /// Busy CPU time consumed so far by the calling task (sim mode only;
    /// real mode approximates with zero).
    pub fn my_busy(&self) -> Dur {
        match &self.0 {
            RtImpl::Sim(c) => c.my_busy(),
            RtImpl::Real(_) => Dur::ZERO,
        }
    }

    /// Total busy CPU time across all tasks (sim mode only).
    pub fn total_busy(&self) -> Dur {
        match &self.0 {
            RtImpl::Sim(c) => c.total_busy(),
            RtImpl::Real(_) => Dur::ZERO,
        }
    }

    /// Idle (parked) time spent so far by the calling task in `sleep`
    /// (sim mode only). The complement of [`Runtime::my_busy`]: an
    /// event-driven loop parks instead of spinning, and the difference
    /// shows up here.
    pub fn my_idle(&self) -> Dur {
        match &self.0 {
            RtImpl::Sim(c) => c.my_idle(),
            RtImpl::Real(_) => Dur::ZERO,
        }
    }

    /// Total parked idle time across all tasks (sim mode only).
    pub fn total_idle(&self) -> Dur {
        match &self.0 {
            RtImpl::Sim(c) => c.total_idle(),
            RtImpl::Real(_) => Dur::ZERO,
        }
    }

    /// The experiment seed this runtime was created with.
    pub fn seed(&self) -> u64 {
        match &self.0 {
            RtImpl::Sim(c) => c.seed,
            RtImpl::Real(c) => c.seed,
        }
    }

    /// Derive a deterministic RNG stream labelled `stream` from the runtime
    /// seed. Equal (seed, stream) pairs always yield equal sequences.
    pub fn rng(&self, stream: u64) -> SplitMix64 {
        SplitMix64::derive(self.seed(), stream)
    }

    /// Spawn a task. In simulation mode the task becomes a scheduler
    /// participant; in real mode it is a plain OS thread.
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
        match &self.0 {
            RtImpl::Sim(core) => {
                let rt = self.clone();
                let s2 = slot.clone();
                let pid = core.spawn_participant(
                    name,
                    Box::new(move || {
                        let v = f(&rt);
                        *s2.lock() = Some(v);
                    }),
                );
                JoinHandle {
                    inner: JoinImpl::Sim(core.clone(), pid),
                    slot,
                }
            }
            RtImpl::Real(_) => {
                let rt = self.clone();
                let s2 = slot.clone();
                let h = std::thread::Builder::new()
                    .name(name.to_string())
                    .spawn(move || {
                        let v = f(&rt);
                        *s2.lock() = Some(v);
                    })
                    .expect("failed to spawn thread");
                JoinHandle {
                    inner: JoinImpl::Real(Some(h)),
                    slot,
                }
            }
        }
    }

    /// Create a channel. `cap = None` means unbounded.
    pub fn channel<T: Send>(&self, cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        match &self.0 {
            RtImpl::Sim(core) => sim_channel(core.clone(), cap),
            RtImpl::Real(_) => real_channel(cap),
        }
    }
}

impl RealCore {
    fn sleep_real(&self, d: Dur) {
        let ns = d.as_nanos();
        if ns == 0 {
            std::thread::yield_now();
        } else if ns >= 200_000 {
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        } else {
            self.spin(d);
        }
    }

    fn spin(&self, d: Dur) {
        let until = Instant::now() + std::time::Duration::from_nanos(d.as_nanos());
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }
}

enum JoinImpl {
    Sim(Arc<SimCore>, Pid),
    Real(Option<std::thread::JoinHandle<()>>),
}

/// Handle to a spawned task.
pub struct JoinHandle<T> {
    inner: JoinImpl,
    slot: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Wait for the task to finish and return its value.
    ///
    /// In simulation mode, a task that panicked poisons the whole simulation
    /// (see the scheduler docs), so `join` on it never returns normally.
    pub fn join(mut self) -> T {
        match &mut self.inner {
            JoinImpl::Sim(core, pid) => {
                core.join_participant(*pid);
            }
            JoinImpl::Real(h) => {
                if let Some(h) = h.take() {
                    if let Err(p) = h.join() {
                        std::panic::resume_unwind(p);
                    }
                }
            }
        }
        self.slot
            .lock()
            .take()
            .expect("joined task did not produce a value")
    }

    /// Whether the task has finished (non-blocking).
    pub fn is_finished(&self) -> bool {
        match &self.inner {
            JoinImpl::Sim(core, pid) => core.is_finished(*pid),
            JoinImpl::Real(h) => h.as_ref().map(|h| h.is_finished()).unwrap_or(true),
        }
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
    fn real_runtime_smoke() {
        let rt = Runtime::real(1);
        let (tx, rx) = rt.channel::<u32>(None);
        let h = rt.spawn_with("w", move |rt| {
            rt.sleep(Dur::micros(50));
            tx.send(5).unwrap();
        });
        assert_eq!(rx.recv(), Ok(5));
        h.join();
        assert!(rt.now().nanos() > 0);
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
                        rt.yield_now();
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
