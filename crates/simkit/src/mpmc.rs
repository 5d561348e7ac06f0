//! A small blocking MPMC channel for the real-time runtime.
//!
//! Replaces `crossbeam_channel` in [`crate::chan`]'s real mode: cloneable
//! senders *and* receivers, optional capacity bound, and disconnect
//! semantics (`recv` fails once the queue is empty and every sender is
//! gone; `send` fails once every receiver is gone). Built on
//! [`crate::plock`] so the whole workspace stays dependency-free.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::plock::{Condvar, Mutex};

struct State<T> {
    queue: VecDeque<T>,
    cap: Option<usize>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    st: Mutex<State<T>>,
    /// Signalled when the queue gains an element or the last sender leaves.
    readable: Condvar,
    /// Signalled when the queue loses an element or the last receiver leaves.
    writable: Condvar,
}

pub(crate) struct Tx<T>(Arc<Shared<T>>);
pub(crate) struct Rx<T>(Arc<Shared<T>>);

pub(crate) fn channel<T>(cap: Option<usize>) -> (Tx<T>, Rx<T>) {
    let shared = Arc::new(Shared {
        st: Mutex::new(State {
            queue: VecDeque::new(),
            cap,
            senders: 1,
            receivers: 1,
        }),
        readable: Condvar::new(),
        writable: Condvar::new(),
    });
    (Tx(shared.clone()), Rx(shared))
}

impl<T> Tx<T> {
    /// Blocking send; returns the value back once all receivers are gone.
    pub(crate) fn send(&self, value: T) -> Result<(), T> {
        let mut st = self.0.st.lock();
        loop {
            if st.receivers == 0 {
                return Err(value);
            }
            if st.cap.is_none_or(|c| st.queue.len() < c) {
                st.queue.push_back(value);
                self.0.readable.notify_one();
                return Ok(());
            }
            self.0.writable.wait(&mut st);
        }
    }

    /// Non-blocking send; `Err` returns the value on a full/closed channel.
    pub(crate) fn try_send(&self, value: T) -> Result<(), T> {
        let mut st = self.0.st.lock();
        if st.receivers == 0 || st.cap.is_some_and(|c| st.queue.len() >= c) {
            return Err(value);
        }
        st.queue.push_back(value);
        self.0.readable.notify_one();
        Ok(())
    }

    pub(crate) fn len(&self) -> usize {
        self.0.st.lock().queue.len()
    }
}

/// Error from [`Rx::try_recv`].
pub(crate) enum TryRecvErr {
    Empty,
    Disconnected,
}

impl<T> Rx<T> {
    /// Blocking receive; fails once the queue is empty and all senders gone.
    pub(crate) fn recv(&self) -> Result<T, ()> {
        let mut st = self.0.st.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                self.0.writable.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(());
            }
            self.0.readable.wait(&mut st);
        }
    }

    pub(crate) fn try_recv(&self) -> Result<T, TryRecvErr> {
        let mut st = self.0.st.lock();
        match st.queue.pop_front() {
            Some(v) => {
                self.0.writable.notify_one();
                Ok(v)
            }
            None if st.senders == 0 => Err(TryRecvErr::Disconnected),
            None => Err(TryRecvErr::Empty),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.0.st.lock().queue.len()
    }

    /// A new sending half, also of a channel whose senders are all gone.
    pub(crate) fn sender(&self) -> Tx<T> {
        self.0.st.lock().senders += 1;
        Tx(self.0.clone())
    }
}

impl<T> Clone for Tx<T> {
    fn clone(&self) -> Self {
        self.0.st.lock().senders += 1;
        Tx(self.0.clone())
    }
}

impl<T> Clone for Rx<T> {
    fn clone(&self) -> Self {
        self.0.st.lock().receivers += 1;
        Rx(self.0.clone())
    }
}

impl<T> Drop for Tx<T> {
    fn drop(&mut self) {
        let mut st = self.0.st.lock();
        st.senders -= 1;
        if st.senders == 0 {
            self.0.readable.notify_all();
        }
    }
}

impl<T> Drop for Rx<T> {
    fn drop(&mut self) {
        let mut st = self.0.st.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            self.0.writable.notify_all();
            // Nobody can take what is queued: drop it (outside the lock),
            // and with it whatever it holds — a reply sender, say.
            let unread = std::mem::take(&mut st.queue);
            drop(st);
            drop(unread);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpmc_fanout_fanin() {
        let (tx, rx) = channel::<u64>(None);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(t * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let rx2 = rx.clone();
        let consumer = std::thread::spawn(move || {
            let mut n = 0;
            while rx2.recv().is_ok() {
                n += 1;
            }
            n
        });
        let mut n = 0;
        while rx.recv().is_ok() {
            n += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n + consumer.join().unwrap(), 400);
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = channel::<u32>(Some(1));
        tx.send(1).unwrap();
        assert!(tx.try_send(2).is_err());
        assert_eq!(rx.recv(), Ok(1));
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn disconnect_surfaces() {
        let (tx, rx) = channel::<u32>(None);
        drop(rx);
        assert!(tx.send(5).is_err());
        let (tx, rx) = channel::<u32>(None);
        drop(tx);
        assert!(rx.recv().is_err());
        assert!(matches!(rx.try_recv(), Err(TryRecvErr::Disconnected)));
        // A sender made from the receiver reconnects it.
        let tx = rx.sender();
        tx.send(7).unwrap();
        assert_eq!(rx.recv(), Ok(7));
        // The last receiver takes the queue with it: a reply sender queued
        // in a request nobody will serve disconnects its reply channel.
        let (reply_tx, reply_rx) = channel::<u32>(None);
        let (req_tx, req_rx) = channel::<Tx<u32>>(None);
        assert!(req_tx.send(reply_tx).is_ok());
        drop(req_rx);
        assert!(reply_rx.recv().is_err());
    }
}
