//! The batched read-request API: a builder describing *what* to deliver
//! (`ReadRequest`) and a typed completion iterator carrying *how* it was
//! delivered (`Completions`), executed by
//! [`DlfsIo::submit`](crate::DlfsIo::submit).
//!
//! This replaces the older positional `bread(rt, n, inject)` /
//! `bread_zero_copy(rt, n)` pair: one entry point, with the delivery mode
//! and the injected-compute hook (Fig. 7b) expressed as explicit request
//! fields.

use simkit::time::Dur;

use crate::zerocopy::ZeroCopySample;

/// How sample payloads reach the application.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Delivery {
    /// Copy-thread pool moves bytes into application buffers (the paper's
    /// normal `dlfs_bread` path).
    #[default]
    Copied,
    /// Samples reference pinned sample-cache chunks; no memcpy, and the
    /// chunks return to the pool when the application drops them.
    ZeroCopy,
}

/// A batched read of the current epoch plan.
///
/// ```
/// use dlfs::{Delivery, ReadRequest};
/// use simkit::time::Dur;
///
/// let req = ReadRequest::batch(32)
///     .delivery(Delivery::ZeroCopy)
///     .inject_compute(Dur::micros(5));
/// assert_eq!(req.n, 32);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadRequest {
    /// Number of samples requested. The engine delivers
    /// `min(n, remaining)` and errors with `EpochExhausted` at zero.
    pub n: usize,
    /// Payload delivery mode.
    pub delivery: Delivery,
    /// Application computation executed inside the busy-poll loop while
    /// device commands are in flight (the Fig. 7b experiment). Normally
    /// zero.
    pub inject_compute: Dur,
    /// Storage-side offload: each storage node reads, verifies and
    /// decodes the batch's stored frames *locally* and ships ONE dense
    /// response carrying exactly the requested sample bytes — fewer,
    /// denser fabric transfers, with decode charged to the target's
    /// compute pool instead of the trainer. Requires
    /// [`DlfsConfig::offload`](crate::DlfsConfig::offload) and copied
    /// delivery (an offloaded batch is assembled remotely, so there is
    /// nothing to zero-copy from the local sample cache).
    pub offload: bool,
}

impl ReadRequest {
    /// A copied-delivery request for `n` samples.
    pub fn batch(n: usize) -> ReadRequest {
        ReadRequest {
            n,
            delivery: Delivery::default(),
            inject_compute: Dur::ZERO,
            offload: false,
        }
    }

    /// Set the delivery mode.
    pub fn delivery(mut self, delivery: Delivery) -> ReadRequest {
        self.delivery = delivery;
        self
    }

    /// Shorthand for `delivery(Delivery::ZeroCopy)`.
    pub fn zero_copy(self) -> ReadRequest {
        self.delivery(Delivery::ZeroCopy)
    }

    /// Inject application compute into the polling loop.
    pub fn inject_compute(mut self, work: Dur) -> ReadRequest {
        self.inject_compute = work;
        self
    }

    /// Assemble this batch storage-side (see [`ReadRequest::offload`]).
    pub fn offload(mut self) -> ReadRequest {
        self.offload = true;
        self
    }
}

/// One delivered sample, tagged by how its payload reached the
/// application.
#[derive(Debug)]
pub enum Completion {
    /// Sample id plus a private payload copy from the copy pool.
    Copied { id: u32, data: Vec<u8> },
    /// A zero-copy sample referencing pinned sample-cache chunks.
    ZeroCopy(ZeroCopySample),
}

impl Completion {
    /// The delivered sample id.
    pub fn id(&self) -> u32 {
        match self {
            Completion::Copied { id, .. } => *id,
            Completion::ZeroCopy(s) => s.id,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Completion::Copied { data, .. } => data.len(),
            Completion::ZeroCopy(s) => s.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The result of one [`ReadRequest`]: a typed iterator of
/// [`Completion`]s in delivery order.
///
/// All samples of a batch share one delivery mode, so the whole-batch
/// unwrappers [`Completions::into_copied`] / [`Completions::into_zero_copy`]
/// stay available; iterate for mode-agnostic consumption.
#[derive(Debug)]
pub struct Completions {
    inner: CompletionsInner,
}

#[derive(Debug)]
enum CompletionsInner {
    Copied(std::vec::IntoIter<(u32, Vec<u8>)>),
    ZeroCopy(std::vec::IntoIter<ZeroCopySample>),
}

impl Completions {
    pub(crate) fn copied(v: Vec<(u32, Vec<u8>)>) -> Completions {
        Completions {
            inner: CompletionsInner::Copied(v.into_iter()),
        }
    }

    pub(crate) fn zero_copy(v: Vec<ZeroCopySample>) -> Completions {
        Completions {
            inner: CompletionsInner::ZeroCopy(v.into_iter()),
        }
    }

    /// Samples remaining (all of them, before any `next()` call).
    pub fn len(&self) -> usize {
        match &self.inner {
            CompletionsInner::Copied(it) => it.len(),
            CompletionsInner::ZeroCopy(it) => it.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The remaining sample ids, in delivery order (does not consume).
    pub fn sample_ids(&self) -> Vec<u32> {
        match &self.inner {
            CompletionsInner::Copied(it) => it.as_slice().iter().map(|(id, _)| *id).collect(),
            CompletionsInner::ZeroCopy(it) => it.as_slice().iter().map(|s| s.id).collect(),
        }
    }

    /// Unwrap a copied-delivery batch.
    ///
    /// # Panics
    /// If the batch was delivered zero-copy.
    pub fn into_copied(self) -> Vec<(u32, Vec<u8>)> {
        match self.inner {
            CompletionsInner::Copied(it) => it.collect(),
            CompletionsInner::ZeroCopy(_) => panic!("batch was delivered zero-copy"),
        }
    }

    /// Unwrap a zero-copy batch.
    ///
    /// # Panics
    /// If the batch was delivered through the copy pool.
    pub fn into_zero_copy(self) -> Vec<ZeroCopySample> {
        match self.inner {
            CompletionsInner::ZeroCopy(it) => it.collect(),
            CompletionsInner::Copied(_) => panic!("batch was delivered through the copy pool"),
        }
    }
}

impl Iterator for Completions {
    type Item = Completion;

    fn next(&mut self) -> Option<Completion> {
        match &mut self.inner {
            CompletionsInner::Copied(it) => {
                it.next().map(|(id, data)| Completion::Copied { id, data })
            }
            CompletionsInner::ZeroCopy(it) => it.next().map(Completion::ZeroCopy),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Completions {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let req = ReadRequest::batch(16);
        assert_eq!(req.n, 16);
        assert_eq!(req.delivery, Delivery::Copied);
        assert!(req.inject_compute.is_zero());
        assert!(!req.offload);
        assert!(ReadRequest::batch(16).offload().offload);

        let req = ReadRequest::batch(8)
            .zero_copy()
            .inject_compute(Dur::micros(2));
        assert_eq!(req.delivery, Delivery::ZeroCopy);
        assert_eq!(req.inject_compute, Dur::micros(2));
    }

    #[test]
    fn completions_accessors() {
        let b = Completions::copied(vec![(3, vec![1, 2]), (5, vec![4])]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.sample_ids(), vec![3, 5]);
        assert_eq!(b.into_copied().len(), 2);
    }

    #[test]
    fn completions_iterate_in_delivery_order() {
        let mut b = Completions::copied(vec![(3, vec![1, 2]), (5, vec![4])]);
        assert_eq!(b.size_hint(), (2, Some(2)));
        let first = b.next().unwrap();
        assert_eq!(first.id(), 3);
        assert_eq!(first.len(), 2);
        assert_eq!(b.len(), 1, "len tracks the un-consumed remainder");
        match b.next().unwrap() {
            Completion::Copied { id, data } => {
                assert_eq!(id, 5);
                assert_eq!(data, vec![4]);
            }
            Completion::ZeroCopy(_) => panic!("copied batch"),
        }
        assert!(b.next().is_none());
    }

    #[test]
    #[should_panic(expected = "zero-copy")]
    fn wrong_variant_panics() {
        Completions::zero_copy(Vec::new()).into_copied();
    }
}
