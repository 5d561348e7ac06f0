//! The synchronous reads of [`DlfsIo`] (`dlfs_read`), a child module of
//! `io`. They post, judge and settle parts through the same steps as the
//! engine; the wait is their own: only the range's devices are harvested,
//! one poll iteration is charged per pass, and the caller's thread pays
//! for the check.

use super::*;

/// A synchronous read in progress ([`DlfsIo::fetch_range`]).
struct SyncFetch {
    nid: u16,
    g: ReadGeometry,
    bufs: Vec<DmaBuf>,
    /// Parts to (re)submit, each with its not-before instant.
    waiting: Vec<(Part, Time)>,
}

impl DlfsIo {
    /// `dlfs_read` by name: synchronous single-sample read (the DLFS-Base
    /// configuration of Fig. 6). Checks the V field, then fetches the
    /// sample's covering blocks and waits for completion.
    pub fn read(&mut self, rt: &Runtime, name: &str) -> Result<Vec<u8>, DlfsError> {
        let costs = self.shared.cfg.costs.clone();
        let (id, _) = self
            .shared
            .dir
            .lookup(rt, &costs, name)
            .ok_or_else(|| DlfsError::NotFound(name.to_string()))?;
        self.sync_read(rt, id)
    }

    /// `dlfs_read` by sample id (no name lookup).
    pub fn read_by_id(&mut self, rt: &Runtime, id: u32) -> Result<Vec<u8>, DlfsError> {
        self.sync_read(rt, id)
    }

    /// Move the sample bytes `segments` out of the sample cache through the
    /// copy pool into a fresh application buffer, and account the delivery.
    /// The caller holds the range under them until this returns.
    fn copy_out(&mut self, rt: &Runtime, segments: SegList) -> Result<Vec<u8>, DlfsError> {
        // One copy and one answer: a channel of its own, so the read
        // need not sift the engine's verdicts for it.
        let (done, copied) = rt.channel(None);
        let t_copy = rt.now();
        rt.work(self.shared.cfg.costs.copy_dispatch);
        self.shared.copy.submit(CopyJob {
            tag: 0,
            sample: 0,
            segments,
            done,
        })?;
        let Ok(CopyDone::Copy { data, finished, .. }) = copied.recv() else {
            return Err(DlfsError::CopyPoolDown);
        };
        self.tel.samples_delivered.inc();
        self.tel.bytes_delivered.add(data.len() as u64);
        self.tel.copy_ns.record_dur(finished - t_copy);
        Ok(data)
    }

    /// Post every due (re)submission of a synchronous fetch, first queued
    /// first, stopping at qpair backpressure.
    fn sync_post_due(&mut self, rt: &Runtime, f: &mut SyncFetch) {
        while let Some(i) = f.waiting.iter().position(|&(_, at)| at <= rt.now()) {
            let p = f.waiting[i].0;
            let io = self.part_io(f.nid, &f.g, p.part, &f.bufs);
            let (replica, dev, slba) = self.route_part(rt, &io, p.replica);
            let owner = Owner::Sync(Part { replica, ..p });
            if self.post_part(rt, dev, slba, &io, owner).is_none() {
                break; // queue full: poll completions, then retry
            }
            f.waiting.remove(i);
        }
    }

    /// Synchronously fetch the range `g` of node `nid` into freshly
    /// allocated sample-cache chunks.
    ///
    /// The parts go through the same post / verify / settle steps as the
    /// batched engine's; what differs is the wait: this loop polls only
    /// the devices that can serve the range, charges one poll iteration
    /// per pass and records the whole wait as one poll stage. It harvests
    /// (and routes) any batched-engine or prefetcher strays that complete
    /// meanwhile. On retry exhaustion the buffers go back to the pool once
    /// the commands still in flight have drained (SPDK cannot cancel a
    /// submitted command).
    fn fetch_range(
        &mut self,
        rt: &Runtime,
        nid: u16,
        g: ReadGeometry,
    ) -> Result<Vec<DmaBuf>, DlfsError> {
        let costs = self.shared.cfg.costs.clone();
        // Under a codec the read is the stored extent of one frame; the
        // allocation still covers the frame's raw extent so the caller can
        // decode it in place. A momentarily full pool is waited out, as the
        // batched path parks and retries after releases.
        let bufs = self
            .alloc_backoff(rt, g.alloc)
            .ok_or(DlfsError::CacheExhausted)?;
        // Devices that may serve this range (home + replicas): the poll
        // loop below must harvest all of them once reads fail over.
        let red = &self.shared.redundancy;
        let devs: Vec<usize> = (0..red.replicas)
            .map(|r| red.route(nid, r, g.slba).0 as usize)
            .collect();
        let mut left = bufs.len();
        let mut f = SyncFetch {
            nid,
            g,
            waiting: (0..left as u32)
                .map(|part| (Part::first(0, part), Time::ZERO))
                .collect(),
            bufs,
        };
        let mut fatal: Option<DlfsError> = None;
        self.sync_post_due(rt, &mut f);
        // Poll until all parts complete, resubmitting failed commands under
        // the retry policy. Empty polls advance straight to the next known
        // event (device completion or retry instant) instead of spinning
        // toward it.
        let t_poll = rt.now();
        let mine = |c: &Cmd| matches!(c.owner, Owner::Sync(_));
        while (left > 0 && fatal.is_none()) || self.cmds.values().any(mine) {
            if fatal.is_none() {
                self.sync_post_due(rt, &mut f);
            }
            rt.work(costs.poll_iteration);
            self.tel.poll_spins.inc();
            let mut comps = Vec::new();
            for &d in &devs {
                comps.extend(self.qpairs[d].process_completions(rt, usize::MAX));
            }
            if comps.is_empty() {
                self.tel.scq_empty_polls.inc();
                let next_dev = devs
                    .iter()
                    .filter_map(|&d| self.qpairs[d].next_completion_at());
                let next_retry = f.waiting.iter().map(|&(_, at)| at);
                if let Some(t) = next_dev.chain(next_retry).min() {
                    self.advance_to(rt, t);
                }
                continue;
            }
            self.tel.scq_drains.inc();
            self.tel.scq_drain_batch.record(comps.len() as u64);
            for c in &comps {
                rt.work(costs.per_completion);
                self.tel.completions.inc();
                // Not ours — the batched engine and its prefetcher share
                // these qpairs — is settled by the router (a failed engine
                // part is re-queued for retry) or staged for the pool.
                let Some((p, Cmd { io, .. })) = self.complete(rt, c) else {
                    continue;
                };
                // One range in flight and nothing to overlap its check
                // with: this thread pays for it, as it waits for it.
                let (landed, cost) = self.judge(&io, c.status);
                if !cost.is_zero() {
                    rt.work(cost);
                }
                let corrupt_at = io.frame.map_or(io.slba * BLOCK_SIZE, |f| f.start);
                match self.settle_part(rt, p, &io, landed, corrupt_at) {
                    Settled::Done => left -= 1,
                    Settled::Requeue { part, not_before } => {
                        f.waiting.push((part, not_before.unwrap_or(rt.now())));
                    }
                    Settled::Fatal(e) => {
                        fatal.get_or_insert(e);
                        f.waiting.clear();
                    }
                }
            }
            self.publish_checks(rt);
        }
        self.tel.poll_ns.record_dur(rt.now() - t_poll);
        if let Some(e) = fatal {
            for b in f.bufs {
                self.shared.cache.free_raw(b);
            }
            return Err(e);
        }
        Ok(f.bufs)
    }

    /// Geometry of a synchronous read of sample `id`: `(resident key, byte
    /// base of the resident buffers, (offset, len) a miss fetches)`. Key
    /// and base are those of the sample's canonical [`fetch_extent`] — the
    /// range the batched engine and the prefetcher publish — so a sync
    /// read pins what a batched epoch left resident, and the reverse. A
    /// miss fetches that same extent when the bytes outlive the call
    /// (cross-epoch residency) or the read unit is the stored frame anyway
    /// (codec); an epoch-scoped raw mount drops them straight after the
    /// read, so it fetches the sample's covering blocks alone.
    fn sync_geometry(&self, id: u32, entry: SampleEntry) -> (RangeKey, u64, (u64, u64)) {
        let cfg = &self.shared.cfg;
        let (nid, off, len) = fetch_extent(&self.shared.dir, cfg.chunk_size, self.mode, id);
        let base = self.read_geometry(nid, off, len).base;
        let miss = if cfg.cache_mode == CacheMode::CrossEpoch || self.shared.codec.is_some() {
            (off, len)
        } else {
            (entry.offset(), entry.len())
        };
        (self.shared.rkey(nid, off), base, miss)
    }

    /// The synchronous read: find or fetch the range holding sample `id`,
    /// copy the sample out of it ([`DlfsIo::copy_out`]), then let it go.
    ///
    /// Probe (paper §III-C1: "we first check the sample entry and return
    /// the data if the V field is on" — the residency map is asked
    /// directly, since a cross-epoch release clears the V field while the
    /// extent still sits on the LRU tail): a hit pins the resident range.
    /// Miss: fetch through [`DlfsIo::fetch_range`] and decode. Cross-epoch,
    /// the extent is then parked on the evictable LRU tail — unless the
    /// batched engine published it while this read polled — so later reads
    /// of the sample or its extent neighbors skip the device; otherwise the
    /// fetch stays this read's own and its chunks go home with it.
    fn sync_read(&mut self, rt: &Runtime, id: u32) -> Result<Vec<u8>, DlfsError> {
        if id as usize >= self.shared.dir.len() {
            return Err(DlfsError::BadSampleId(id));
        }
        let entry = self.shared.dir.entry(id);
        let cross = self.shared.cfg.cache_mode == CacheMode::CrossEpoch;
        let chunk = self.shared.cfg.chunk_size as usize;
        let (key, base, (off, len)) = self.sync_geometry(id, entry);
        if let Some((range, prefetched)) = self.shared.cache.pin(key, false) {
            debug_assert!(
                entry.offset() + entry.len() <= key.1 + range.bytes(),
                "a resident range is its samples' whole extent"
            );
            self.tel.cache_hits.inc();
            if prefetched {
                self.tel.prefetch_hits.inc();
            }
            if cross {
                self.tel.ce_hits.inc();
            }
            self.tel.cache_pins.inc();
            let within = (entry.offset() - base) as usize;
            let segments = segments_at(range.bufs(), chunk, within, entry.len() as usize);
            return self.copy_out(rt, segments);
        }
        self.tel.cache_misses.inc();
        if cross {
            self.tel.ce_misses.inc();
        }
        let nid = entry.nid();
        let g = self.read_geometry(nid, off, len);
        let bufs = self.fetch_range(rt, nid, g)?;
        let head = (entry.offset() - g.base) as usize;
        let segments = segments_at(&bufs, chunk, head, entry.len() as usize);
        let cache = &self.shared.cache;
        if cross && !cache.contains(key) {
            let _parked = cache.publish(key, bufs, len, false);
            cache.release(key);
            self.report_residency(0);
            self.copy_out(rt, segments)
        } else {
            // Published nowhere: held by value, so the read of an
            // epoch-scoped mount never allocates for it.
            let _own = cache.wrap(bufs, len);
            self.copy_out(rt, segments)
        }
    }
}
