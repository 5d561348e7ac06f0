//! The synchronous reads of [`DlfsIo`] (`dlfs_read`), a child module of
//! `io`. A miss queues its parts where the engine queues its own and waits
//! in the reactor's steps; only the check is paid differently — by the
//! waiting thread, since nothing can overlap it.

use super::*;

impl DlfsIo {
    /// `dlfs_read` by name: synchronous single-sample read (the DLFS-Base
    /// configuration of Fig. 6). Checks the V field, then fetches the
    /// sample's covering blocks and waits for completion.
    pub fn read(&mut self, rt: &Runtime, name: &str) -> Result<Vec<u8>, DlfsError> {
        let found = self.shared.dir.lookup(rt, &self.shared.cfg.costs, name);
        let (id, _) = found.ok_or_else(|| DlfsError::NotFound(name.to_string()))?;
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

    /// Synchronously fetch the range `g` of node `nid` into freshly
    /// allocated sample-cache chunks: queue its parts with the engine's,
    /// then run the reactor's steps — post pass, `poll`, and after an empty
    /// harvest the wait stage (`wait_event`) — until the fetch
    /// settles. Whatever else those steps post or harvest meanwhile goes
    /// its own way. On retry exhaustion the chunks go back to the pool
    /// once the fetch's commands still in flight have drained (SPDK cannot
    /// cancel a submitted command); with nothing on a device or due, a
    /// fetch not done has lost a part: `Stalled`.
    fn fetch_range(
        &mut self,
        rt: &Runtime,
        nid: u16,
        g: ReadGeometry,
    ) -> Result<Vec<DmaBuf>, DlfsError> {
        // Under a codec the read is the stored bytes of one run of frames;
        // the allocation covers the frames' raw extents, each decoded into
        // its own chunk. A momentarily full pool is waited out, as the
        // batched path parks and retries after releases.
        let bufs = self
            .alloc_backoff(rt, g.alloc)
            .ok_or(DlfsError::CacheExhausted)?;
        self.sync_left = g.parts(self.per_part());
        for part in 0..self.sync_left {
            let io = self.part_io(nid, &g, part, &bufs);
            self.pending_parts
                .push_back((Part::first(0, part, true), io));
        }
        // Until every part is done or the fetch failed, and none of its
        // commands is still on a device.
        let mine = |c: &Cmd| matches!(c.owner, Owner::Demand(p) if p.sync);
        let mut spun = false;
        while (self.sync_left > 0 && self.sync_failed.is_none()) || self.cmds.values().any(mine) {
            self.post_queued(rt);
            if self.poll(rt, std::mem::take(&mut spun)) > 0 {
                continue;
            }
            match self.wait_event(rt) {
                Some(waited) => spun = waited,
                None => self.sync_failed = Some(DlfsError::Stalled(self.shared.reader_id)),
            }
        }
        let Some(e) = self.sync_failed.take() else {
            return Ok(bufs);
        };
        bufs.into_iter().for_each(|b| self.shared.cache.free_raw(b));
        Err(e)
    }

    /// Geometry of a synchronous read of sample `id`: `(resident key, byte
    /// base of the resident buffers, (offset, len) a miss fetches)`. Key
    /// and base are those of the sample's canonical [`fetch_extent`] — the
    /// range the batched engine and the prefetcher publish — so a sync
    /// read pins what a batched epoch left resident, and the reverse. A
    /// miss fetches that same extent when the bytes outlive the call
    /// (cross-epoch residency); an epoch-scoped mount drops them straight
    /// after the read, so it fetches the sample's covering blocks alone —
    /// under a codec, the one frame holding it.
    fn sync_geometry(&self, id: u32, entry: SampleEntry) -> (RangeKey, u64, (u64, u64)) {
        let (nid, off, len) = fetch_extent(&self.shared.dir, self.cut(), id);
        let base = self.read_geometry(nid, off, len).base;
        let miss = if self.shared.cfg.cache_mode == CacheMode::CrossEpoch {
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
        let head = (entry.offset() - g.base) as usize;
        let bufs = self.fetch_range(rt, nid, g)?;
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
