//! Channels integrated with the deterministic scheduler.
//!
//! A blocked receiver/sender is descheduled through the scheduler; wake
//! order is FIFO, so message delivery order is reproducible. Sending and
//! receiving consume **zero virtual time**; processing costs are modelled
//! explicitly by the components via `Runtime::work`.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::plock::Mutex;
use crate::sched::{Pid, SimCore};

/// Error returned by `recv` when the channel is empty and all senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by `send` when all receivers are gone (payload returned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by `try_recv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

struct SimState<T> {
    queue: VecDeque<T>,
    cap: Option<usize>,
    senders: usize,
    receivers: usize,
    recv_waiters: VecDeque<Pid>,
    send_waiters: VecDeque<Pid>,
}

struct SimChan<T> {
    core: Arc<SimCore>,
    st: Mutex<SimState<T>>,
}

impl<T> SimChan<T> {
    fn wake_one_recv(&self, st: &mut SimState<T>) {
        if let Some(p) = st.recv_waiters.pop_front() {
            self.core.make_ready(p);
        }
    }

    fn wake_one_send(&self, st: &mut SimState<T>) {
        if let Some(p) = st.send_waiters.pop_front() {
            self.core.make_ready(p);
        }
    }

    fn wake_all(&self, st: &mut SimState<T>) {
        for p in st.recv_waiters.drain(..) {
            self.core.make_ready(p);
        }
        for p in st.send_waiters.drain(..) {
            self.core.make_ready(p);
        }
    }
}

/// Sending half of a channel (cloneable; MPMC).
pub struct Sender<T>(Arc<SimChan<T>>);

/// Receiving half of a channel (cloneable; MPMC).
pub struct Receiver<T>(Arc<SimChan<T>>);

pub(crate) fn sim_channel<T: Send>(
    core: Arc<SimCore>,
    cap: Option<usize>,
) -> (Sender<T>, Receiver<T>) {
    let ch = Arc::new(SimChan {
        core,
        st: Mutex::new(SimState {
            queue: VecDeque::new(),
            cap,
            senders: 1,
            receivers: 1,
            recv_waiters: VecDeque::new(),
            send_waiters: VecDeque::new(),
        }),
    });
    (Sender(ch.clone()), Receiver(ch))
}

impl<T: Send> Sender<T> {
    /// Send a value, blocking in virtual time while the channel is at
    /// capacity. Returns the value back if all receivers are gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let ch = &self.0;
        loop {
            let mut st = ch.st.lock();
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            let full = st.cap.is_some_and(|c| st.queue.len() >= c);
            if !full {
                st.queue.push_back(value);
                ch.wake_one_recv(&mut st);
                return Ok(());
            }
            let me = ch.core.current_pid();
            st.send_waiters.push_back(me);
            drop(st);
            // `block()` returns when a receiver frees space; retry.
            ch.core.block();
        }
    }

    /// Number of queued messages (snapshot).
    pub fn len(&self) -> usize {
        self.0.st.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Send> Receiver<T> {
    /// Receive a value, blocking until one is available or all senders drop.
    pub fn recv(&self) -> Result<T, RecvError> {
        let ch = &self.0;
        loop {
            let mut st = ch.st.lock();
            if let Some(v) = st.queue.pop_front() {
                ch.wake_one_send(&mut st);
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            let me = ch.core.current_pid();
            st.recv_waiters.push_back(me);
            drop(st);
            ch.core.block();
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.0.st.lock();
        if let Some(v) = st.queue.pop_front() {
            self.0.wake_one_send(&mut st);
            return Ok(v);
        }
        if st.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Drain everything currently queued without blocking.
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let Ok(v) = self.try_recv() {
            out.push(v);
        }
        out
    }

    /// Number of queued messages (snapshot).
    pub fn len(&self) -> usize {
        self.0.st.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A new sending half of this channel — also after every sender is
    /// gone, which reconnects it. A holder that only ever waits on the
    /// channel keeps no sender of its own between sends, so its `recv`
    /// fails once nobody else can answer.
    pub fn sender(&self) -> Sender<T> {
        self.0.st.lock().senders += 1;
        Sender(self.0.clone())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.st.lock().senders += 1;
        Sender(self.0.clone())
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.st.lock().receivers += 1;
        Receiver(self.0.clone())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let ch = &self.0;
        let mut st = ch.st.lock();
        st.senders -= 1;
        if st.senders == 0 {
            // Receivers must observe disconnection.
            ch.wake_all(&mut st);
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let ch = &self.0;
        let mut st = ch.st.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            ch.wake_all(&mut st);
            // Nobody can take what is queued: drop it (outside the
            // lock), and with it whatever it holds — a reply sender, say.
            let unread = std::mem::take(&mut st.queue);
            drop(st);
            drop(unread);
        }
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sender")
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Receiver")
    }
}
