//! The plan-aware prefetcher of [`DlfsIo`], a child module of `io`: what it
//! queues, what it posts in the engine's idle tail, and how a prefetch
//! settles. What is in flight is in the command table, nowhere else.

use super::*;

/// Plan-aware prefetcher state: once the current epoch's fetch list is
/// exhausted, the engine warms the *next* epoch's items (this reader's
/// share of the `(seed, epoch+1)` deal) into the cross-epoch cache.
#[derive(Default)]
pub(super) struct PrefetchState {
    /// `(seed, epoch)` the deal was dealt for; dealt again when it goes
    /// stale.
    pub(super) built_for: Option<(u64, u64)>,
    /// That epoch's deal, in first-use order: what `sequence` runs when
    /// it is called for it.
    pub(super) dealt: Vec<FetchItem>,
    /// The next of its items to warm. (What is in flight is in the command
    /// table: [`DlfsIo::prefetches`].)
    cursor: usize,
}

impl PrefetchState {
    /// The deal of epoch `epoch` of `seed`, if it was dealt ahead of it;
    /// either way the state starts over.
    pub(super) fn take(&mut self, seed: u64, epoch: u64) -> Option<Vec<FetchItem>> {
        let dealt = std::mem::take(self);
        (dealt.built_for == Some((seed, epoch))).then_some(dealt.dealt)
    }
}

impl DlfsIo {
    /// Plan-aware prefetch (paper-adjacent: the epoch access sequence is
    /// known at `dlfs_sequence` time, so the *next* epoch's is too). Once
    /// the current epoch has no more items to open, post one-command
    /// fetches for the ranges epoch+1 will deal to this reader — newest
    /// data lands in the cross-epoch cache as released (evictable)
    /// ranges, warming the next epoch's head during this one's tail.
    /// Clamped by the prefetch window, pool headroom (demand fetches keep
    /// `window_chunks` of reserve) and qpair depth.
    pub(super) fn pump_prefetch(&mut self, rt: &Runtime) -> usize {
        let cfg = &self.shared.cfg;
        let pf_window = cfg.prefetch_window;
        if pf_window == 0 || cfg.cache_mode != CacheMode::CrossEpoch {
            return 0;
        }
        let Some(st) = self.epoch.as_ref() else {
            return 0;
        };
        if st.next_fetch < st.dealt.len() {
            return 0; // demand fetches still pending; they have priority
        }
        let next = (st.seed, st.epoch + 1);
        if self.prefetch.built_for != Some(next) {
            self.prefetch = PrefetchState {
                built_for: Some(next),
                dealt: self.dealt(next.0, next.1),
                cursor: 0,
            };
        }
        let reserve = cfg.window_chunks;
        let (out, mut progressed) = (self.prefetches().count(), 0);
        while out + progressed < pf_window {
            let Some(it) = self.prefetch.dealt.get(self.prefetch.cursor) else {
                break;
            };
            let (nid, offset, len) = (it.nid, it.offset, it.len);
            let key = self.shared.rkey(nid, offset);
            let g = self.read_geometry(nid, offset, len);
            if g.parts(self.per_part()) > 1
                || self.shared.cache.contains(key)
                || self.prefetches().any(|k| k == key)
                || self.demand_fetch_in_flight(key)
            {
                // Multi-command edge items aren't worth speculative slots;
                // already-resident or in-flight ranges need no warming.
                self.prefetch.cursor += 1;
                continue;
            }
            let Some(bufs) = self.shared.cache.alloc_prefetch(g.alloc, reserve) else {
                break; // no speculative headroom; retry when pressure drops
            };
            let io = self.part_io(nid, &g, 0, &bufs);
            let owner = Owner::Prefetch { key, len };
            if self
                .post_part(rt, nid as usize, g.slba, &io, owner)
                .is_none()
            {
                bufs.into_iter().for_each(|b| self.shared.cache.free_raw(b));
                break; // qpair full; demand completions first
            }
            self.tel.prefetch_issued.inc();
            self.prefetch.cursor += 1;
            progressed += 1;
        }
        if progressed > 0 {
            self.tel.doorbells.inc();
        }
        progressed
    }

    /// The ranges with a prefetch in flight — on a device or with the pool.
    pub(super) fn prefetches(&self) -> impl Iterator<Item = RangeKey> + '_ {
        self.cmds.values().filter_map(|c| match c.owner {
            Owner::Prefetch { key, .. } => Some(key),
            _ => None,
        })
    }

    /// Is `key` currently being fetched by the demand path (allocated but
    /// not yet published)? The prefetcher must not double-fetch it.
    fn demand_fetch_in_flight(&self, key: RangeKey) -> bool {
        let Some(st) = self.epoch.as_ref() else {
            return false;
        };
        st.open.keys().any(|&idx| {
            let it = &st.dealt[idx as usize];
            self.shared.rkey(it.nid, it.offset) == key && st.items[idx as usize].parts_left > 0
        })
    }

    /// Apply the completion of the prefetch `io` of range `key`: publish
    /// the warmed range (born released/evictable), or — on failure, or if
    /// the range became resident meanwhile — return the chunk. Prefetched
    /// bytes are published into the cache, so they must pass verification like any
    /// demand read. Prefetches are best-effort: no retries, no repair; a
    /// miss or a corrupt frame simply falls back to a demand fetch next
    /// epoch (which repairs via replicas).
    pub(super) fn prefetch_complete(
        &mut self,
        key: RangeKey,
        io: PartIo,
        len: u64,
        landed: check::Landed,
    ) {
        let checked = landed.is_ok_and(|ok| self.check_part(&io, ok, false).is_ok());
        if checked && !self.shared.cache.contains(key) {
            // Born evictable: nobody keeps the pin `publish` hands back.
            self.shared.cache.publish(key, io.bufs, len, true);
            self.report_residency(0);
        } else {
            if landed == Err(CmdStatus::TransportError) {
                self.tel.timeouts.inc();
            }
            let cache = &self.shared.cache;
            io.bufs.into_iter().for_each(|b| cache.free_raw(b));
        }
    }
}
