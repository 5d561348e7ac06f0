//! The deterministic virtual-time scheduler.
//!
//! Simulated "threads" (participants) are real OS threads, but the scheduler
//! enforces that **exactly one participant executes at any moment**. When the
//! running participant blocks — on a virtual-time sleep, a channel, or a join
//! — it hands control to the next runnable participant; if none is runnable,
//! the virtual clock jumps forward to the earliest sleeper. Because execution
//! is fully serialized and all tie-breaks are FIFO by a monotonically
//! increasing sequence number, a simulation is a deterministic function of
//! its inputs: identical runs produce identical event orders and identical
//! virtual timestamps, regardless of the host machine.
//!
//! This gives us the best of both worlds for reproducing a systems paper on
//! hardware we don't have: components are written in natural blocking style
//! (poll loops, queue pairs, copy-thread pools) and still produce exact,
//! machine-independent measurements.
//!
//! # Failure semantics
//!
//! Any panic inside a participant, and any detected deadlock, *poisons* the
//! simulation: every parked participant is woken with a shutdown signal and
//! the root call to [`crate::runtime::Runtime::simulate`]'s closure panics with
//! the original message. A buggy simulation therefore fails fast and loud
//! instead of hanging the test suite.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::plock::{Condvar, Mutex, MutexGuard};

use crate::time::{Dur, Time};

/// Participant id within one simulation.
pub(crate) type Pid = usize;

/// Globally unique id per `SimCore`, used to verify a thread calls into the
/// simulation it actually belongs to.
static NEXT_CORE_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (core id, pid) of the simulation this OS thread participates in.
    static CURRENT: Cell<Option<(u64, Pid)>> = const { Cell::new(None) };
}

/// Panic payload used to unwind non-root participants on shutdown/poison.
pub(crate) struct Shutdown;

thread_local! {
    /// Set just before raising `Shutdown` so the panic hook stays silent
    /// for this expected, internal unwind.
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

/// Install (once) a panic hook that suppresses output for the internal
/// `Shutdown` unwind while delegating everything else to the previous hook.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SUPPRESS_PANIC_OUTPUT.get() {
                return;
            }
            prev(info);
        }));
    });
}

/// Raise the quiet shutdown unwind.
fn raise_shutdown() -> ! {
    SUPPRESS_PANIC_OUTPUT.set(true);
    std::panic::panic_any(Shutdown);
}

struct Parker {
    flag: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    fn new() -> Arc<Self> {
        Arc::new(Parker {
            flag: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn park(&self) {
        let mut g = self.flag.lock();
        while !*g {
            self.cv.wait(&mut g);
        }
        *g = false;
    }

    fn unpark(&self) {
        let mut g = self.flag.lock();
        *g = true;
        self.cv.notify_one();
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Running,
    Ready,
    Sleeping,
    Blocked,
    Finished,
}

struct Part {
    name: String,
    parker: Arc<Parker>,
    status: Status,
    /// Virtual nanoseconds this participant spent in `work()` (busy CPU).
    busy_ns: u64,
    /// Virtual nanoseconds this participant spent in `sleep()` (parked,
    /// CPU idle — the complement of `busy_ns` for event-driven loops).
    idle_ns: u64,
    /// Participants blocked in `join()` on this one.
    join_waiters: Vec<Pid>,
    handle: Option<std::thread::JoinHandle<()>>,
}

struct Sched {
    now: u64,
    seq: u64,
    ready: VecDeque<Pid>,
    /// Min-heap of (wake time, seq, pid).
    sleepers: BinaryHeap<Reverse<(u64, u64, Pid)>>,
    parts: Vec<Part>,
    stopping: bool,
    /// Failure message when the simulation was poisoned by a panic/deadlock.
    poisoned: Option<String>,
}

/// One deterministic simulation instance.
pub(crate) struct SimCore {
    pub(crate) core_id: u64,
    state: Mutex<Sched>,
    pub(crate) seed: u64,
}

impl SimCore {
    pub(crate) fn new(seed: u64) -> Arc<Self> {
        install_quiet_hook();
        Arc::new(SimCore {
            core_id: NEXT_CORE_ID.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(Sched {
                now: 0,
                seq: 0,
                ready: VecDeque::new(),
                sleepers: BinaryHeap::new(),
                parts: Vec::new(),
                stopping: false,
                poisoned: None,
            }),
            seed,
        })
    }

    /// The pid of the calling thread within this core, or panic.
    fn my_pid(&self) -> Pid {
        match CURRENT.get() {
            Some((cid, pid)) if cid == self.core_id => pid,
            Some(_) => panic!("thread belongs to a different simulation runtime"),
            None => panic!("calling thread is not a participant of this simulation runtime"),
        }
    }

    pub(crate) fn now(&self) -> Time {
        Time(self.state.lock().now)
    }

    pub(crate) fn my_busy(&self) -> Dur {
        let pid = self.my_pid();
        Dur(self.state.lock().parts[pid].busy_ns)
    }

    pub(crate) fn total_busy(&self) -> Dur {
        Dur(self.state.lock().parts.iter().map(|p| p.busy_ns).sum())
    }

    pub(crate) fn total_idle(&self) -> Dur {
        Dur(self.state.lock().parts.iter().map(|p| p.idle_ns).sum())
    }

    /// Register the calling thread as root participant (pid 0).
    pub(crate) fn enter_root(self: &Arc<Self>) {
        let mut g = self.state.lock();
        assert!(g.parts.is_empty(), "root already registered");
        g.parts.push(Part {
            name: "root".to_string(),
            parker: Parker::new(),
            status: Status::Running,
            busy_ns: 0,
            idle_ns: 0,
            join_waiters: Vec::new(),
            handle: None,
        });
        drop(g);
        CURRENT.set(Some((self.core_id, 0)));
    }

    /// Root finished: shut everything down and join all participant threads.
    pub(crate) fn exit_root(self: &Arc<Self>) -> Time {
        let mut g = self.state.lock();
        g.stopping = true;
        g.parts[0].status = Status::Finished;
        let end = Time(g.now);
        // Wake every parked participant; their next interaction with the
        // scheduler raises `Shutdown`, which their wrapper catches.
        let parkers: Vec<Arc<Parker>> = g
            .parts
            .iter()
            .filter(|p| p.status != Status::Finished)
            .map(|p| p.parker.clone())
            .collect();
        let handles: Vec<std::thread::JoinHandle<()>> =
            g.parts.iter_mut().filter_map(|p| p.handle.take()).collect();
        drop(g);
        for p in parkers {
            p.unpark();
        }
        for h in handles {
            let _ = h.join();
        }
        CURRENT.set(None);
        end
    }

    /// Poison the simulation: record the failure, wake everyone.
    fn poison(&self, msg: String) {
        let mut g = self.state.lock();
        if g.poisoned.is_none() {
            g.poisoned = Some(msg);
        }
        g.stopping = true;
        let parkers: Vec<Arc<Parker>> = g
            .parts
            .iter()
            .filter(|p| p.status != Status::Finished && p.status != Status::Running)
            .map(|p| p.parker.clone())
            .collect();
        drop(g);
        for p in parkers {
            p.unpark();
        }
    }

    /// Raise the appropriate unwind for the calling participant if the
    /// simulation is stopping. Root gets the poison message (a real panic);
    /// other participants get the quiet `Shutdown` signal.
    fn raise_if_stopping(&self, g: &MutexGuard<'_, Sched>, my: Pid) {
        if g.stopping {
            if my == 0 {
                let msg = g
                    .poisoned
                    .clone()
                    .unwrap_or_else(|| "simulation stopped".to_string());
                panic!("{msg}");
            }
            raise_shutdown();
        }
    }

    /// Hand control to the next runnable participant. The caller must have
    /// already recorded its own new status (and queued itself if Ready or
    /// Sleeping). If `park` is true, the caller parks until rescheduled.
    fn dispatch(&self, g: MutexGuard<'_, Sched>, my: Pid, park: bool) {
        let mut g = g;
        let next = if let Some(p) = g.ready.pop_front() {
            Some(p)
        } else if let Some(&Reverse((t, _, p))) = g.sleepers.peek() {
            g.sleepers.pop();
            debug_assert!(t >= g.now, "time went backwards");
            g.now = t;
            Some(p)
        } else {
            None
        };
        match next {
            Some(p) if p == my => {
                // We were the earliest sleeper / only ready entry: keep going.
                g.parts[my].status = Status::Running;
            }
            Some(p) => {
                g.parts[p].status = Status::Running;
                let parker = g.parts[p].parker.clone();
                drop(g);
                parker.unpark();
                if park {
                    self.park_current(my);
                }
            }
            None => {
                if park {
                    // Nothing can ever run again: hard deadlock. Poison so
                    // the whole simulation aborts instead of hanging.
                    let blocked: Vec<String> = g
                        .parts
                        .iter()
                        .filter(|p| p.status == Status::Blocked || p.status == Status::Sleeping)
                        .map(|p| p.name.clone())
                        .collect();
                    let me = g.parts[my].name.clone();
                    drop(g);
                    let msg = format!(
                        "simkit deadlock: '{me}' blocked with no runnable participant \
                         (blocked/sleeping: {blocked:?})"
                    );
                    self.poison(msg.clone());
                    panic!("{msg}");
                }
                // We're finishing and nothing is runnable; fine.
            }
        }
    }

    fn park_current(&self, my: Pid) {
        let parker = { self.state.lock().parts[my].parker.clone() };
        parker.park();
        let g = self.state.lock();
        self.raise_if_stopping(&g, my);
        debug_assert_eq!(g.parts[my].status, Status::Running);
    }

    /// Advance virtual time for the calling participant, parked idle.
    pub(crate) fn sleep(&self, d: Dur) {
        if !d.is_zero() {
            let my = self.my_pid();
            self.state.lock().parts[my].idle_ns += d.as_nanos();
        }
        self.advance(d);
    }

    /// Advance virtual time without touching busy/idle accounting. `sleep`
    /// and `work` differ only in which ledger they charge; the scheduling
    /// (and therefore every timestamp) is identical.
    fn advance(&self, d: Dur) {
        let my = self.my_pid();
        let mut g = self.state.lock();
        self.raise_if_stopping(&g, my);
        if d.is_zero() {
            // Zero-length sleep is a yield: go to the back of the ready queue.
            if g.ready.is_empty() && g.sleepers.is_empty() {
                return; // nobody else to run
            }
            g.parts[my].status = Status::Ready;
            g.ready.push_back(my);
            self.dispatch(g, my, true);
            return;
        }
        let wake = g.now + d.as_nanos();
        let seq = g.seq;
        g.seq += 1;
        g.parts[my].status = Status::Sleeping;
        g.sleepers.push(Reverse((wake, seq, my)));
        self.dispatch(g, my, true);
    }

    /// Like [`SimCore::sleep`] but accounted as busy CPU time.
    pub(crate) fn work(&self, d: Dur) {
        let my = self.my_pid();
        {
            let mut g = self.state.lock();
            g.parts[my].busy_ns += d.as_nanos();
        }
        self.advance(d);
    }

    /// [`SimCore::sleep`] for `idle`, then [`SimCore::work`] for `busy`,
    /// in one scheduling step.
    pub(crate) fn sleep_then_work(&self, idle: Dur, busy: Dur) {
        let my = self.my_pid();
        {
            let mut g = self.state.lock();
            g.parts[my].idle_ns += idle.as_nanos();
            g.parts[my].busy_ns += busy.as_nanos();
        }
        self.advance(idle + busy);
    }

    /// Block the calling participant (channel/join wait). The waker must call
    /// [`SimCore::make_ready`]. Returns after being rescheduled.
    pub(crate) fn block(&self) {
        let my = self.my_pid();
        let mut g = self.state.lock();
        self.raise_if_stopping(&g, my);
        g.parts[my].status = Status::Blocked;
        self.dispatch(g, my, true);
    }

    /// Move a blocked participant to the ready queue (no-op for participants
    /// that are not blocked).
    pub(crate) fn make_ready(&self, pid: Pid) {
        let mut g = self.state.lock();
        if g.parts[pid].status == Status::Blocked {
            g.parts[pid].status = Status::Ready;
            g.ready.push_back(pid);
        }
    }

    /// Pid of the calling participant (for channel wait registration).
    pub(crate) fn current_pid(&self) -> Pid {
        self.my_pid()
    }

    /// Spawn a new participant running `f`.
    pub(crate) fn spawn_participant(
        self: &Arc<Self>,
        name: &str,
        f: Box<dyn FnOnce() + Send>,
    ) -> Pid {
        let mut g = self.state.lock();
        let my = CURRENT.get().map(|(_, p)| p).unwrap_or(0);
        self.raise_if_stopping(&g, my);
        let pid = g.parts.len();
        let parker = Parker::new();
        g.parts.push(Part {
            name: name.to_string(),
            parker: parker.clone(),
            status: Status::Ready,
            busy_ns: 0,
            idle_ns: 0,
            join_waiters: Vec::new(),
            handle: None,
        });
        g.ready.push_back(pid);
        drop(g);

        let core = Arc::clone(self);
        let tname = name.to_string();
        let handle = std::thread::Builder::new()
            .name(format!("sim:{tname}"))
            .spawn(move || {
                CURRENT.set(Some((core.core_id, pid)));
                // Wait to be scheduled for the first time.
                parker.park();
                {
                    let g = core.state.lock();
                    if g.stopping {
                        return;
                    }
                    debug_assert_eq!(g.parts[pid].status, Status::Running);
                }
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                match result {
                    Ok(()) => core.finish_participant(pid),
                    Err(payload) => {
                        if payload.downcast_ref::<Shutdown>().is_some() {
                            // Simulation is tearing down; exit quietly.
                            return;
                        }
                        let msg = payload
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "<non-string panic>".to_string());
                        let name = {
                            let g = core.state.lock();
                            g.parts[pid].name.clone()
                        };
                        core.poison(format!("participant '{name}' panicked: {msg}"));
                    }
                }
            })
            .expect("failed to spawn participant thread");
        self.state.lock().parts[pid].handle = Some(handle);
        pid
    }

    fn finish_participant(&self, pid: Pid) {
        let mut g = self.state.lock();
        if g.stopping {
            return;
        }
        g.parts[pid].status = Status::Finished;
        let waiters = std::mem::take(&mut g.parts[pid].join_waiters);
        for w in waiters {
            if g.parts[w].status == Status::Blocked {
                g.parts[w].status = Status::Ready;
                g.ready.push_back(w);
            }
        }
        self.dispatch(g, pid, false);
    }

    /// Block until participant `pid` finishes.
    pub(crate) fn join_participant(&self, pid: Pid) {
        loop {
            let my = self.my_pid();
            let mut g = self.state.lock();
            self.raise_if_stopping(&g, my);
            if g.parts[pid].status == Status::Finished {
                return;
            }
            g.parts[pid].join_waiters.push(my);
            g.parts[my].status = Status::Blocked;
            self.dispatch(g, my, true);
        }
    }
}
