//! The batched engine of [`DlfsIo`] — the epoch's state and the loop that
//! runs a [`ReadRequest`] against it: pump (open items, post their parts),
//! poll, deliver, collect. A child module of `io` so it shares the
//! handle's state; the part lifecycle it drives is `io.rs`'s. The post
//! pass, `poll` and the outcome of a demand part are the synchronous
//! read's too: it waits in the same steps.

use super::*;

#[derive(Debug)]
pub(super) struct ItemRt {
    pub(super) parts_left: u32,
    pub(super) samples_total: u32,
    /// Samples handed to copy threads so far (cursor into the item's
    /// shuffled sample list).
    pub(super) dispatched: u32,
    copies_done: u32,
    /// Block-aligned base offset of the fetched range.
    base: u64,
}

/// The chunks of an open fetch item.
pub(super) enum Open {
    /// Parts still in flight: the chunks are loose, because a device
    /// command holds a view of each and writes it at harvest. Whoever
    /// gives the item up frees them explicitly, after the harvest.
    Fetching(Vec<DmaBuf>),
    /// Completely fetched and published (or found resident): a pin on the
    /// range, held until the item is drained.
    Resident(Arc<CachedRange>),
}

impl Open {
    fn bufs(&self) -> &[DmaBuf] {
        match self {
            Open::Fetching(bufs) => bufs,
            Open::Resident(range) => range.bufs(),
        }
    }
}

/// Epoch execution state.
pub(super) struct EpochState {
    /// The collective seed and epoch number `sequence` was called with
    /// (the prefetcher derives the *next* epoch's item deal from them).
    pub(super) seed: u64,
    pub(super) epoch: u64,
    /// This reader's share of the deal, in first-use order
    /// ([`crate::plan::reader_items`]).
    pub(super) dealt: Vec<FetchItem>,
    pub(super) items: Vec<ItemRt>,
    /// Items resident with undelivered samples (the sample-cache draw set).
    resident_ready: Vec<u32>,
    /// Samples dispatched to copy threads this epoch.
    pub(super) total_dispatched: usize,
    pub(super) total: usize,
    /// Next item to start fetching.
    pub(super) next_fetch: usize,
    /// Items fetched or fetching and not yet drained, with their chunks —
    /// ordered by item, because `teardown` walks it: the order it releases
    /// ranges in stamps the LRU, and with it which of them the next epoch
    /// evicts first (same seed, same timeline, whatever the hasher).
    pub(super) open: BTreeMap<u32, Open>,
    /// Seeded draw for the random selection among resident items.
    rng: SplitMix64,
    /// Which path serves this epoch, fixed by its first batch: `true` for
    /// storage-side offload, `false` for the client-side engine.
    offloaded: Option<bool>,
    /// Offload exchanges issued ahead of delivery; gone with the epoch.
    pub(super) ahead: offload::Ahead,
}

impl EpochState {
    /// Epoch `epoch` of `seed` with nothing fetched yet; `dealt` is reader
    /// `reader`'s share of the deal.
    pub(super) fn new(seed: u64, epoch: u64, dealt: Vec<FetchItem>, reader: usize) -> EpochState {
        let item = |it: &FetchItem| ItemRt {
            parts_left: 0,
            samples_total: it.samples.len() as u32,
            dispatched: 0,
            copies_done: 0,
            base: 0,
        };
        EpochState {
            seed,
            epoch,
            items: dealt.iter().map(item).collect(),
            resident_ready: Vec::new(),
            total_dispatched: 0,
            total: dealt.iter().map(|it| it.samples.len()).sum(),
            dealt,
            next_fetch: 0,
            open: BTreeMap::new(),
            rng: SplitMix64::derive(seed ^ 0xD15B, epoch * 7919 + reader as u64),
            offloaded: None,
            ahead: Default::default(),
        }
    }

    /// The relaxed-randomization draw (§III-D2): the next undelivered
    /// sample of a uniformly random resident item, as `(item, sample)`.
    fn draw(&mut self) -> Option<(u32, u32)> {
        if self.resident_ready.is_empty() {
            return None;
        }
        let pick = self.rng.below(self.resident_ready.len() as u64) as usize;
        let idx = self.resident_ready[pick];
        let item = &mut self.items[idx as usize];
        let sample = self.dealt[idx as usize].samples[item.dispatched as usize];
        item.dispatched += 1;
        if item.dispatched == item.samples_total {
            self.resident_ready.swap_remove(pick);
        }
        self.total_dispatched += 1;
        Some((idx, sample))
    }

    /// Item `idx` is fully resident: flip the V field of its samples and
    /// offer it to the delivery draw.
    fn mark_resident(&mut self, dir: &SampleDirectory, idx: u32) {
        for &s in &self.dealt[idx as usize].samples {
            dir.set_valid(s, true);
        }
        self.resident_ready.push(idx);
    }
}

/// Outcome of [`DlfsIo::start_fetch`].
enum FetchStart {
    /// The item is being fetched (or was already resident).
    Started,
    /// No cache chunks available even after eviction; retry after a
    /// release frees or unpins something.
    Backpressure,
    /// A prefetch of exactly this range is in flight: don't double-fetch,
    /// its completion will publish the range.
    AwaitPrefetch,
}

/// One engine batch being assembled. Copied delivery (`copy`) hands
/// samples to the copy threads in runs — one or two per deliver pass — and
/// lands them in `copied` by slot as they finish;
/// zero-copy delivery pushes samples pinning their item's range onto
/// `pinned` the moment they are drawn, so it never has anything
/// outstanding.
#[derive(Default)]
pub(super) struct Batch {
    want: usize,
    copy: bool,
    /// Each published run: its first slot and its publish instant.
    runs: Vec<(usize, Time)>,
    copied: Vec<Option<(u32, Vec<u8>)>>,
    pinned: Vec<ZeroCopySample>,
    /// Samples handed out / finished; they differ only while copies are
    /// outstanding.
    dispatched: usize,
    received: usize,
}

impl DlfsIo {
    /// The epoch a batched call runs against, with the shared state its
    /// bookkeeping touches. Engine internals run only under
    /// [`DlfsIo::submit`], which has already turned a missing epoch into
    /// `NoSequence`.
    pub(super) fn split(&mut self) -> (&mut EpochState, &DlfsShared) {
        let st = self.epoch.as_mut().expect("engine runs under an epoch");
        (st, &self.shared)
    }

    pub(super) fn st(&self) -> &EpochState {
        self.epoch.as_ref().expect("engine runs under an epoch")
    }

    /// Start fetching item `idx`: probe the cross-epoch cache first, else
    /// allocate cache chunks and queue the item's parts for the device.
    /// With nothing else open (`starving`) a full pool is waited out
    /// before reporting backpressure: no release of this epoch's can come
    /// to the rescue.
    fn start_fetch(&mut self, rt: &Runtime, idx: u32, starving: bool) -> FetchStart {
        let cross = self.shared.cfg.cache_mode == CacheMode::CrossEpoch;
        let it = &self.st().dealt[idx as usize];
        let g = self.read_geometry(it.nid, it.offset, it.len);
        let (key, len) = (self.shared.rkey(it.nid, it.offset), it.len);
        if cross {
            // Residency probe: a previous epoch (or the prefetcher) may
            // already hold this exact range — warm items skip the device
            // entirely.
            if let Some((range, was_prefetched)) = self.shared.cache.pin(key, true) {
                debug_assert_eq!(range.bytes(), len, "cached range geometry drifted");
                self.tel.ce_hits.inc();
                if was_prefetched {
                    self.tel.prefetch_hits.inc();
                }
                self.open_item(idx, &g, Open::Resident(range));
                return FetchStart::Started;
            }
            if self.prefetches().any(|k| k == key) {
                // The range is already on the wire as a prefetch; fetching
                // it again would double-publish. Its completion will
                // publish it, and the next probe will hit.
                return FetchStart::AwaitPrefetch;
            }
            self.tel.ce_misses.inc();
        }
        let bufs = if starving {
            self.alloc_backoff(rt, g.alloc)
        } else {
            self.alloc(g.alloc)
        };
        let Some(bufs) = bufs else {
            return FetchStart::Backpressure;
        };
        self.open_item(idx, &g, Open::Fetching(bufs));
        FetchStart::Started
    }

    /// Open item `idx`, read as `g`: `parts` device parts to fetch into
    /// its loose chunks, none when the range was resident.
    fn open_item(&mut self, idx: u32, g: &ReadGeometry, open: Open) {
        let parts = match &open {
            Open::Fetching(_) => g.parts(self.per_part()),
            Open::Resident(_) => 0,
        };
        let home = self.st().dealt[idx as usize].nid;
        for part in 0..parts {
            let io = self.part_io(home, g, part, open.bufs());
            self.pending_parts
                .push_back((Part::first(idx, part, false), io));
        }
        let (st, shared) = self.split();
        let item = &mut st.items[idx as usize];
        item.parts_left = parts;
        item.base = g.base;
        st.open.insert(idx, open);
        if parts == 0 {
            st.mark_resident(&shared.dir, idx);
        }
    }

    /// Pump stage: keep the fetch window full and the qpairs fed. Returns
    /// the progress made, or `None` when the epoch cannot be pumped: a
    /// part is lost for good (`failed`), or the pump is starved — nothing
    /// is open and there is no cache chunk to open anything with, even
    /// after the allocation backoff.
    pub(super) fn pump(&mut self, rt: &Runtime) -> Option<usize> {
        if self.failed.is_some() {
            return None;
        }
        let window = self.shared.cfg.window_chunks;
        let mut progressed = 0;

        // Open new items up to the window.
        loop {
            let st = self.st();
            let (next_fetch, open) = (st.next_fetch, st.open.len());
            if next_fetch >= st.dealt.len() {
                break;
            }
            // The pipeline must never starve: with nothing open at all, a
            // fetch is mandatory regardless of the window budget.
            let starving = open == 0;
            if open >= 2 * window && !starving {
                break;
            }
            match self.start_fetch(rt, next_fetch as u32, starving) {
                FetchStart::Started => {
                    self.split().0.next_fetch += 1;
                    progressed += 1;
                }
                // An in-flight prefetch owns this range; progress comes
                // from polling its completion.
                FetchStart::AwaitPrefetch => break,
                // Cache backpressure: retry after releases — unless
                // nothing of this epoch's is left to release.
                FetchStart::Backpressure if starving => return None,
                FetchStart::Backpressure => break,
            }
        }

        progressed += self.post_queued(rt);
        // With the epoch's own fetch list exhausted, spend the idle tail
        // warming the next epoch (plan-aware prefetch).
        progressed += self.pump_prefetch(rt);
        Some(progressed)
    }

    /// Post pass: move the retries whose backoff has elapsed into the
    /// submit queue, then route and post every queued part the qpairs have
    /// room for, each submitted at once, stopping at the first full qpair
    /// (which still pays its prep+post, see `post_part`). Opens nothing and
    /// posts whatever is queued, the epoch's parts or the synchronous
    /// read's, failed epoch or not. Returns the progress made.
    pub(super) fn post_queued(&mut self, rt: &Runtime) -> usize {
        let mut progressed = 0;
        while let Some(due) = self.delayed_parts.first_entry() {
            if due.key().0 > rt.now() {
                break;
            }
            self.pending_parts.push_back(due.remove());
            progressed += 1;
        }
        let mut posted = 0;
        while let Some((p, io)) = self.pending_parts.pop_front() {
            let (replica, dev, slba) = self.route_part(rt, &io, p.replica);
            let owner = Owner::Demand(Part { replica, ..p });
            if self.post_part(rt, dev, slba, &io, owner).is_none() {
                self.pending_parts.push_front((p, io));
                break; // queue full; poll first
            }
            posted += 1;
        }
        self.tel.doorbells.add((posted > 0) as u64);
        progressed + posted
    }

    /// Where the failure of demand part `p`'s fetch is kept: the
    /// synchronous read's, or the epoch's (sticky until `sequence`).
    fn failure_of(&mut self, p: Part) -> &mut Option<DlfsError> {
        match p.sync {
            true => &mut self.sync_failed,
            false => &mut self.failed,
        }
    }

    /// Apply the completion of demand part `p`, which read `io` — the one
    /// place a demand part's outcome is applied: settle it, then count it
    /// off its fetch (a finished item is published and offered to the
    /// delivery draw), queue it for retry (never just routed and forgotten,
    /// unless its fetch has failed already), or fail its fetch and drop
    /// the fetch's queued parts.
    pub(super) fn demand_complete(
        &mut self,
        rt: &Runtime,
        p: Part,
        io: &PartIo,
        landed: check::Landed,
    ) {
        let corrupt_at = match p.sync {
            true => io.frames.first().map_or(io.slba * BLOCK_SIZE, |f| f.start),
            false => self.st().dealt[p.idx as usize].offset,
        };
        match self.settle_part(rt, p, io, landed, corrupt_at) {
            Settled::Done if p.sync => self.sync_left -= 1,
            Settled::Done => {
                let item = &mut self.split().0.items[p.idx as usize];
                item.parts_left -= 1;
                if item.parts_left == 0 {
                    self.publish_item(p.idx);
                }
            }
            Settled::Requeue { .. } if self.failure_of(p).is_some() => {}
            Settled::Requeue { part, not_before } => match not_before {
                None => self.pending_parts.push_back((part, io.clone())),
                Some(t) => {
                    self.delay_seq += 1;
                    self.delayed_parts
                        .insert((t, self.delay_seq), (part, io.clone()));
                }
            },
            Settled::Fatal(e) => {
                self.failure_of(p).get_or_insert(e);
                self.pending_parts.retain(|(q, _)| q.sync != p.sync);
                self.delayed_parts.retain(|_, (q, _)| q.sync != p.sync);
            }
        }
    }

    /// Item `idx` is fully fetched, checked and decoded: publish it in the
    /// sample cache, flip the V field of its samples and offer it to the
    /// delivery draw. A part waits for its verdict, and a synchronous read
    /// of the same extent may have published the range meanwhile: then that
    /// range serves the item (claimed, as a warm probe would) and the
    /// fetch's own chunks go back to the pool.
    fn publish_item(&mut self, idx: u32) {
        let st = self.split().0;
        let it = &st.dealt[idx as usize];
        let (nid, offset, len) = (it.nid, it.offset, it.len);
        // Its last part just settled, so the item is still fetching.
        let Some(Open::Fetching(bufs)) = st.open.remove(&idx) else {
            return;
        };
        let (cache, key) = (&self.shared.cache, self.shared.rkey(nid, offset));
        let range = match cache.pin(key, true) {
            Some((resident, _)) => {
                bufs.into_iter().for_each(|b| cache.free_raw(b));
                resident
            }
            None => cache.publish(key, bufs, len, false),
        };
        self.report_residency(0);
        let (st, shared) = self.split();
        st.open.insert(idx, Open::Resident(range));
        st.mark_resident(&shared.dir, idx);
    }

    /// Poll stage: harvest completions across all qpairs (the shared
    /// completion queue consolidates this into one pass), then publish the
    /// pass's check entries. The one harvest of every read but the
    /// `abort_epoch` drain, and one `stage.poll_ns` record per pass.
    /// `spun`: the pass directly follows a wait that spun until a
    /// completion landed, at that instant (what [`DlfsIo::wait_event`]
    /// returned), so every harvest in it is prompt; if the handle then had
    /// one read in flight, it is timed alone from that instant
    /// ([`ReadQp::time_alone`]), whatever ran between the two.
    pub(super) fn poll(&mut self, rt: &Runtime, spun: Option<Time>) -> usize {
        let costs = self.shared.cfg.costs.clone();
        let t0 = rt.now();
        let in_flight = self.qpairs.iter().map(|q| q.posted.len()).sum::<usize>();
        let lone = spun.filter(|_| in_flight == 1);
        self.tel.poll_spins.inc();
        if self.shared.cfg.shared_completion_queue {
            rt.work(costs.poll_iteration);
        } else {
            rt.work(costs.poll_iteration * self.qpairs.len() as u64);
        }
        let mut harvested = 0;
        for q in 0..self.qpairs.len() {
            // Event-driven sweep: only queues whose earliest completion is
            // due get a harvest pass. The check is live (per-completion
            // work advances the clock mid-sweep, so a later queue may
            // become due during this pass) and in index order — both are
            // load-bearing for determinism. An empty harvest charges and
            // records nothing, so the skip is unobservable.
            match self.qpairs[q].next_completion_at() {
                Some(t) if t <= rt.now() => {}
                _ => continue,
            }
            let done = self.harvest(rt, q, t0, spun);
            if let (Some(end), [read]) = (lone, &done[..]) {
                self.qpairs[q].time_alone(read, end);
            }
            for comp in done {
                rt.work(costs.per_completion);
                self.tel.completions.inc();
                harvested += 1;
                self.complete(rt, &comp);
            }
        }
        self.close_pass();
        if harvested == 0 {
            self.tel.scq_empty_polls.inc();
        } else {
            self.tel.scq_drains.inc();
            self.tel.scq_drain_batch.record(harvested as u64);
        }
        self.tel.poll_ns.record_dur(rt.now() - t0);
        self.publish_checks(rt);
        harvested
    }

    /// Deliver stage: draw samples from random resident items into the
    /// batch until it is full or nothing is resident — zero-copy pins each
    /// sample's range and hands out references; copied delivery books each
    /// into a run and publishes it to the copy pool with one enqueue. A pass
    /// that wants more samples than there are copy threads publishes its
    /// first half the moment it is drawn, so the pool copies it while the
    /// frontend draws the rest; the rest goes as the pass ends. Nothing
    /// stays staged past the pass.
    fn deliver(&mut self, rt: &Runtime, batch: &mut Batch) -> Result<usize, DlfsError> {
        let costs = self.shared.cfg.costs.clone();
        let chunk = self.shared.cfg.chunk_size as usize;
        let (first, n) = (batch.dispatched, batch.want - batch.dispatched);
        let threads = self.shared.cfg.copy_threads;
        let half = first + if n > threads { n.div_ceil(2) } else { n };
        let done = batch.copy.then(|| self.done(rt));
        let mut run = Vec::with_capacity(done.as_ref().map_or(0, |_| n));
        // A run of the last-drawn slots: one `copy_dispatch`, one enqueue,
        // one publish instant.
        let pool = self.shared.copy.clone();
        let publish = |batch: &mut Batch, run: Vec<CopyJob>| {
            if run.is_empty() {
                return Ok(());
            }
            rt.work(costs.copy_dispatch);
            batch.runs.push((batch.dispatched - run.len(), rt.now()));
            pool.submit_run(run)
        };
        while batch.dispatched < batch.want {
            let Some((idx, sample)) = self.split().0.draw() else {
                break;
            };
            let entry = self.shared.dir.entry(sample);
            let st = self.st();
            let it = &st.dealt[idx as usize];
            debug_assert_eq!(entry.nid(), it.nid);
            let within = (entry.offset() - st.items[idx as usize].base) as usize;
            let Open::Resident(range) = &st.open[&idx] else {
                unreachable!("only resident items are drawn");
            };
            let segments = segments_at(range.bufs(), chunk, within, entry.len() as usize);
            rt.work(costs.frontend_per_sample);
            if let Some(done) = &done {
                run.push(CopyJob {
                    tag: (idx as u64) << 32 | batch.dispatched as u64,
                    sample,
                    segments,
                    done: done.clone(),
                });
            } else {
                // The sample pins the range for its lifetime; no memcpy.
                let sample = ZeroCopySample::new(sample, segments, range.clone());
                self.tel.cache_pins.inc();
                batch.pinned.push(sample);
                self.account_delivery(idx, entry.len(), batch);
            }
            batch.dispatched += 1;
            if batch.dispatched == half {
                publish(batch, std::mem::take(&mut run))?;
            }
        }
        publish(batch, run)?;
        Ok(batch.dispatched - first)
    }

    /// Account one sample of `idx`, `bytes` long, landed in `batch`; release
    /// its item when fully drained. `EpochScoped`: chunks go back to the
    /// pool (or, if zero-copy samples still pin them, when the last pin
    /// drops). `CrossEpoch`: the range joins the evictable LRU tail and may
    /// serve the next epoch without device I/O.
    fn account_delivery(&mut self, idx: u32, bytes: u64, batch: &mut Batch) {
        self.tel.samples_delivered.inc();
        self.tel.bytes_delivered.add(bytes);
        batch.received += 1;
        let (st, shared) = self.split();
        let item = &mut st.items[idx as usize];
        item.copies_done += 1;
        if item.copies_done == item.samples_total {
            // Drops the engine's pin; what samples still hold are theirs.
            st.open.remove(&idx);
            let it = &st.dealt[idx as usize];
            shared.cache.release(shared.rkey(it.nid, it.offset));
            for &s in &it.samples {
                shared.dir.set_valid(s, false);
            }
        }
    }

    /// Account a finished copy — retiring its item when fully drained — and
    /// land it in its result slot. Its stage ran from its run's publish to
    /// the instant the copy thread finished it.
    pub(super) fn finish_copy(
        &mut self,
        copy: (u64, u32, Vec<u8>),
        finished: Time,
        batch: &mut Batch,
    ) {
        let (tag, sample, data) = copy;
        let idx = (tag >> 32) as u32;
        let slot = (tag & 0xFFFF_FFFF) as usize;
        self.account_delivery(idx, data.len() as u64, batch);
        // The run that holds `slot` is the last one starting at or before it.
        let run = batch.runs.partition_point(|&(first, _)| first <= slot) - 1;
        self.tel.copy_ns.record_dur(finished - batch.runs[run].1);
        batch.copied[slot] = Some((sample, data));
    }

    /// Execute a [`ReadRequest`] against the current epoch plan: the one
    /// batched-read entry point, whatever the delivery.
    ///
    /// Returns `EpochExhausted` once the plan is drained and `NoSequence`
    /// before the first [`DlfsIo::sequence`]. A batch comes back shorter
    /// than `req.n` in one way only: the pool is starved by samples the
    /// caller still holds (never torn: samples already handed to the copy
    /// threads always drain). `dlfs.io.deadline_misses` counts such
    /// batches.
    pub fn submit(&mut self, rt: &Runtime, req: &ReadRequest) -> Result<Completions, DlfsError> {
        if self.epoch.is_none() {
            return Err(DlfsError::NoSequence);
        }
        if let Some(e) = &self.failed {
            // A part of this epoch is permanently lost; the plan cannot
            // complete until `sequence` installs a fresh one.
            return Err(e.clone());
        }
        let want = req.n.min(self.remaining());
        if want == 0 {
            return Err(DlfsError::EpochExhausted);
        }
        self.tel.batches.inc();
        // QoS admission (multi-tenant mounts only): a WFQ device-slot
        // grant, charged to the handle's tenant. The slot is held for the
        // whole batch and released below even on error.
        let qos = self.shared.qos.clone();
        let grant = match &qos {
            Some(q) => Some((q, q.admit(rt, self.shared.tenant, q.batch_cost(want))?)),
            None => None,
        };
        let outcome = if req.offload {
            self.run_offload(rt, want, req).map(Completions::copied)
        } else {
            self.claim_epoch_path(false)
                .and_then(|()| self.run_engine(rt, want, req))
        };
        if let Some((q, grant)) = grant {
            let delivered = outcome.as_ref().map(|b| b.len()).unwrap_or(0);
            q.complete(grant, delivered as u64, q.batch_cost(delivered));
        }
        let batch = outcome?;
        if batch.len() < want {
            self.tel.deadline_misses.inc();
        }
        Ok(batch)
    }

    /// Commit the current epoch to the offload path or the client-side
    /// engine. The offload path claims samples by walking the plan's items
    /// in order while the engine draws them from whichever fetched items
    /// are resident, so the two cannot share one epoch's cursors: a batch
    /// on the other path is a typed error until `sequence` starts the next
    /// epoch (it used to be an out-of-bounds panic in `dispatch`).
    pub(super) fn claim_epoch_path(&mut self, offload: bool) -> Result<(), DlfsError> {
        let st = self.split().0;
        if *st.offloaded.get_or_insert(offload) == offload {
            return Ok(());
        }
        Err(DlfsError::Config(
            "one epoch is served by one path: offloaded and client-path batches \
             cannot be mixed before the next sequence()"
                .into(),
        ))
    }

    /// What a wait of a batch delivered by `delivery` with `left` samples
    /// not yet drawn is told it still needs ([`DlfsIo::wait_event`]): those
    /// samples, if it is delivered zero-copy and its landings stage no
    /// copy-pool work — neither verified nor coded. `None` otherwise: a
    /// copy or a check is work the wait may not park through.
    pub(super) fn need(&self, delivery: Delivery, left: usize) -> Option<usize> {
        let checked = self.shared.redundancy.verify() || self.shared.codec.is_some();
        (delivery == Delivery::ZeroCopy && !checked).then_some(left)
    }

    /// The engine loop (prep → post → poll → copy): pump, poll, deliver,
    /// collect, under one failure / stall policy. Copied and
    /// zero-copy batches differ only in the deliver step.
    fn run_engine(
        &mut self,
        rt: &Runtime,
        want: usize,
        req: &ReadRequest,
    ) -> Result<Completions, DlfsError> {
        let copied = req.delivery == Delivery::Copied;
        let mut batch = Batch {
            want,
            copy: copied,
            copied: vec![None; if copied { want } else { 0 }],
            ..Batch::default()
        };
        // When the last wait's spin ended, if it spun until a completion
        // landed: only the poll pass right after it harvests promptly.
        let mut spun = None;
        while batch.received < want {
            let Some(pumped) = self.pump(rt) else {
                // Drain the copies already dispatched (never tear a
                // sample), then stop. A fatal I/O failure surfaces as the
                // error. A starved pump — every chunk pinned by samples
                // the caller still holds — ends the batch short with what
                // was delivered, or `CacheExhausted` if that is nothing;
                // the epoch resumes once pins drop.
                while batch.received < batch.dispatched {
                    self.collect(rt, true, Some(&mut batch))?;
                }
                match self.failed.clone() {
                    Some(e) => return Err(e),
                    None if batch.received == 0 => return Err(DlfsError::CacheExhausted),
                    None => break,
                }
            };
            let mut progress = pumped + self.poll(rt, std::mem::take(&mut spun));
            loop {
                progress += self.deliver(rt, &mut batch)?;
                if batch.dispatched == want || self.checks_out == 0 {
                    break;
                }
                // The pass came up short with verdicts outstanding: what
                // the next one makes resident is worth more than another
                // spin of the poll loop.
                progress += self.collect(rt, true, Some(&mut batch))?;
            }
            // The whole batch is with the copy pool: collect it as it was
            // published, in one blocking wait.
            while batch.dispatched == want && batch.received < want {
                self.collect(rt, true, Some(&mut batch))?;
            }
            // Collect what the pool has answered meanwhile — or, with
            // answers outstanding and nothing else to do, its next one.
            let idle = progress == 0 && (batch.dispatched > batch.received || self.checks_out > 0);
            progress += self.collect(rt, idle, Some(&mut batch))?;
            if progress > 0 || batch.received >= want {
                continue;
            }
            // Waiting on device completions: this is the busy-poll loop
            // the Fig. 7b experiment adds application computation to —
            // the compute overlaps with the in-flight SPDK requests.
            if !req.inject_compute.is_zero() {
                rt.work(req.inject_compute);
                continue;
            }
            // Wait for the next event — a completion or a delayed part's
            // retry instant. With none — nothing on a device, nothing with
            // the copy pool, nothing deliverable — the engine lost track of
            // a part, for good.
            let stalled = DlfsError::Stalled(self.shared.reader_id);
            let need = self.need(req.delivery, want - batch.dispatched);
            spun = self
                .wait_event(rt, need)
                .ok_or_else(|| self.failed.insert(stalled).clone())?;
        }
        Ok(if copied {
            Completions::copied(batch.copied.into_iter().flatten().collect())
        } else {
            Completions::zero_copy(batch.pinned)
        })
    }
}
