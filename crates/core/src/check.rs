//! The check stage of [`DlfsIo`] — the state of a part between harvested
//! and settled — a child module of `io` so it shares the handle's state.
//!
//! Everything that touches a fetched part's bytes before they are
//! published is *payload work*: the block checksums when reads are
//! verified, the decode of a coded frame into the part's chunks, and the
//! read-repair of the home copy. `judge` compares the bytes a completion
//! landed with the integrity table and prices the work, `check_part` acts
//! on the judgement: the one place a data path counts, decodes and
//! repairs a copy — a client part's, a prefetch's, or one the offload
//! path read (`offload.rs`, which walks the copies itself). The polling
//! thread pays for neither on the engine's parts and prefetches: the
//! completion router judges and stages them, a harvest pass publishes what
//! it staged as one run of check entries on the copy queue (one
//! `copy_dispatch`), a copy thread pays each entry's cost, and the part is
//! settled — by the same `settle_part` / `prefetch_complete` that settle a
//! part with nothing to check — when the frontend collects the answer;
//! nothing of the judgement is visible before. A synchronous read has one
//! range in flight and nothing to overlap the work with, so the router
//! has the thread waiting on it pay for its parts' work and settles them
//! on the spot.

use super::*;

/// What a completion brought: bytes that hold against their block
/// checksums (`Ok(true)`; vacuously when reads are not verified), bytes
/// that do not (`Ok(false)`), or a failed command.
pub(super) type Landed = Result<bool, CmdStatus>;

impl DlfsIo {
    /// What the payload work on `nblocks` blocks read — under a codec, the
    /// stored bytes of a run of `frames` — costs whoever runs it: a copy
    /// thread, a synchronous read, an offload target. That is the block
    /// checksums when reads are verified, per block, and with `decode` (the
    /// checksums held) the decode of each frame. Zero without either.
    pub(super) fn check_cost<'f>(
        &self,
        nblocks: u32,
        frames: impl Iterator<Item = &'f Frame>,
        decode: bool,
    ) -> Dur {
        let costs = &self.shared.cfg.costs;
        let verified = self.shared.redundancy.verify() as u64 * nblocks as u64;
        let decoded: Dur = (frames.filter(|_| decode))
            .map(|f| costs.decode(f.raw_len as u64))
            .sum();
        costs.verify_block * verified + decoded
    }

    /// Judge what the completion with `status` landed in `io`'s chunk —
    /// now, while the bytes are that command's — and price the payload
    /// work it leaves ([`DlfsIo::check_cost`]). Host-side and untimed:
    /// whoever pays the price finds out what the judgement already says.
    pub(super) fn judge(&self, io: &PartIo, status: CmdStatus) -> (Landed, Dur) {
        if !status.is_ok() {
            return (Err(status), Dur::ZERO);
        }
        let red = &self.shared.redundancy;
        let span = io.nblocks as usize * BLOCK_SIZE as usize;
        let ok =
            !red.verify() || io.bufs[0].with(|d| red.verify_blocks(io.home, io.slba, &d[..span]));
        (Ok(ok), self.check_cost(io.nblocks, io.frames.iter(), ok))
    }

    /// Act on the judgement `ok` of the bytes in `io`'s chunk, the one gate
    /// before they can be published: count the block checksums and a
    /// mismatch; under a codec, decode each frame of the run (stored bytes
    /// → raw bytes; the sample cache only ever holds decoded bytes) and
    /// count it in `dlfs.codec.*`; when the bytes decode and `repair` says
    /// an earlier copy was turned down and these came from another, rewrite
    /// the home extent from the stored bytes (clears sticky media faults
    /// too); then land each decoded frame in its own chunk. Verification
    /// covers the stored bytes, so decode runs strictly after it. Takes no
    /// virtual time: whoever calls it has paid what [`DlfsIo::judge`]
    /// asked. Returns why the bytes cannot be published: they fail their
    /// checksums, or do not decode (counted as a mismatch too).
    pub(super) fn check_part(&self, io: &PartIo, ok: bool, repair: bool) -> Verdict {
        let (red, tel) = (&self.shared.redundancy, &self.tel);
        if red.verify() {
            tel.iv_verified.add(io.nblocks as u64);
        }
        if !ok {
            tel.iv_mismatches.inc();
            return Err(CorruptCause::Checksum);
        }
        // Each frame of the run from where its stored bytes landed: `None`
        // for one stored verbatim, whose run is itself and whose bytes
        // already are raw there; a `Frame` verdict for bytes that are not a
        // frame: they decode short.
        let decode = |f: &Frame, stored: &[u8]| {
            tel.codec_bytes_in.add(f.enc_len as u64);
            tel.codec_bytes_out.add(f.raw_len as u64);
            if f.enc_len == f.raw_len {
                return Ok(None);
            }
            let at = (f.at - io.slba * BLOCK_SIZE) as usize;
            let raw = f.kind.codec().decode(&stored[at..][..f.enc_len], f.raw_len);
            (raw.len() >= f.raw_len)
                .then_some(Some(raw))
                .ok_or(CorruptCause::Frame)
        };
        let run = |d: &[u8]| io.frames.iter().map(|f| decode(f, d)).collect();
        let raws: Result<Vec<_>, _> = io.bufs[0].with(run);
        let raws = raws.inspect_err(|_| tel.iv_mismatches.inc())?;
        if repair {
            let span = io.nblocks as usize * BLOCK_SIZE as usize;
            let targets = &self.shared.targets;
            io.bufs[0].with(|d| red.rewrite(targets, io.home, 0, io.slba, &d[..span]));
            tel.iv_repairs.inc();
        }
        for ((f, buf), raw) in io.frames.iter().zip(&io.bufs).zip(raws) {
            if let Some(raw) = raw {
                buf.with_mut(|d| d[..f.raw_len].copy_from_slice(&raw));
            }
        }
        Ok(())
    }

    /// The completion router: look up whose command `c` was, judge what it
    /// landed and route it. A synchronous read's part is checked on this
    /// thread — the one waiting on it — and settled. An engine part or a
    /// prefetch that leaves payload work stays in the table, now with the
    /// pool, enters the pass's run of check entries, and is settled when
    /// its verdict is collected. Anything else — a failed command, a part
    /// with nothing to check — is settled here and now.
    pub(super) fn complete(&mut self, rt: &Runtime, c: &Completion) {
        let Some(mut cmd) = self.cmds.remove(&c.id) else {
            return;
        };
        let (landed, cost) = self.judge(&cmd.io, c.status);
        let inline = matches!(cmd.owner, Owner::Demand(p) if p.sync);
        if inline && !cost.is_zero() {
            rt.work(cost);
        }
        if inline || cost.is_zero() {
            return self.settle(rt, cmd, landed);
        }
        self.staged.push((c.id, cost));
        cmd.pool = Some((rt.now(), landed));
        self.cmds.insert(c.id, cmd);
    }

    /// Apply the completion `cmd`, its record out of the table: what it
    /// landed, checked or with nothing to check.
    pub(super) fn settle(&mut self, rt: &Runtime, cmd: Cmd, landed: Landed) {
        match cmd.owner {
            Owner::Demand(p) => self.demand_complete(rt, p, &cmd.io, landed),
            Owner::Prefetch { key, len } => self.prefetch_complete(key, cmd.io, len, landed),
        }
    }

    /// A harvest pass is over: publish the check entries it staged as one
    /// run, for one enqueue charge. A dead pool fails the epoch.
    pub(super) fn publish_checks(&mut self, rt: &Runtime) {
        if self.staged.is_empty() {
            return;
        }
        rt.work(self.shared.cfg.costs.copy_dispatch);
        for (cmd, _) in &self.staged {
            if let Some((published, _)) = self.cmds.get_mut(cmd).and_then(|c| c.pool.as_mut()) {
                *published = rt.now();
            }
        }
        let (done, run) = (self.done(rt), self.staged.len());
        match self.shared.copy.check_run(self.staged.drain(..), &done) {
            Ok(()) => self.checks_out += run,
            Err(e) => drop(self.failed.get_or_insert(e)),
        }
    }

    /// A sending half of this handle's answer channel, for the entries of
    /// one run. The handle keeps none between runs: with nobody left to
    /// answer, a wait on the channel fails instead of hanging.
    pub(super) fn done(&mut self, rt: &Runtime) -> Sender<CopyDone> {
        let answers = self.answers.get_or_insert_with(|| rt.channel(None).1);
        answers.sender()
    }

    /// The copy pool's next answer to this handle — waited for if `block`,
    /// else `None` when there is none yet — with a verdict counted off
    /// `checks_out`. `CopyPoolDown` when the pool went away owing one.
    fn answer(&mut self, block: bool) -> Result<Option<CopyDone>, DlfsError> {
        let Some(answers) = &self.answers else {
            return Ok(None);
        };
        let done = match block {
            true => Some(answers.recv().map_err(|_| DlfsError::CopyPoolDown)?),
            false => answers.try_recv().ok(),
        };
        self.checks_out -= matches!(done, Some(CopyDone::Check { .. })) as usize;
        Ok(done)
    }

    /// Collect stage: take the copy pool's answers off this handle's
    /// channel — all that are there, after waiting for the first if
    /// `block`. A finished copy lands in `batch` (one that outlived its
    /// batch is dropped); a verdict settles the part it stood for, unless
    /// the epoch it belonged to was aborted. Returns how many answers that
    /// was.
    pub(super) fn collect(
        &mut self,
        rt: &Runtime,
        mut block: bool,
        mut batch: Option<&mut Batch>,
    ) -> Result<usize, DlfsError> {
        let mut collected = 0;
        while let Some(done) = self.answer(block)? {
            (block, collected) = (false, collected + 1);
            match (done, &mut batch) {
                (
                    CopyDone::Copy {
                        tag,
                        sample,
                        data,
                        finished,
                    },
                    Some(batch),
                ) => self.finish_copy((tag, sample, data), finished, batch),
                (CopyDone::Copy { .. }, None) => {}
                (CopyDone::Check { tag, finished }, _) => {
                    // Not in the table: aborted.
                    let Some(cmd) = self.cmds.remove(&tag) else {
                        continue;
                    };
                    if let Some((published, landed)) = cmd.pool {
                        self.tel.check_ns.record_dur(finished - published);
                        self.settle(rt, cmd, landed);
                    }
                }
            }
        }
        Ok(collected)
    }

    /// Wait until the copy pool owes this handle no verdict, so that no
    /// chunk goes back to the cache under a check: the one wait of
    /// `abort_epoch`, which has a runtime and applies each verdict (a
    /// prefetch publishes its range), and of a dropped handle, which has
    /// none and discards them. A dead pool checks nothing.
    pub(super) fn await_verdicts(&mut self, rt: Option<&Runtime>) {
        while self.checks_out > 0 {
            let answered = match rt {
                Some(rt) => self.collect(rt, true, None).is_ok(),
                None => self.answer(true).is_ok(),
            };
            if !answered {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MountBuilder, SyntheticSource};
    use blocksim::{DeviceConfig, NvmeDevice};

    /// An engine that has lost track of its parts — samples left to
    /// deliver, nothing on a device it knows of, nothing with the copy
    /// pool — fails the caller with `Stalled` once the devices are quiet,
    /// and keeps failing until `sequence` installs a fresh epoch.
    #[test]
    fn a_stalled_engine_is_a_sticky_typed_error() -> Result<(), DlfsError> {
        let run = |rt: &Runtime| {
            let source = SyntheticSource::fixed(1, 64, 2048);
            let fs = MountBuilder::new(DlfsConfig::default())
                .local(NvmeDevice::new(DeviceConfig::optane(16 << 20)))
                .mount(rt, &source)?;
            let mut io = fs.io(0);
            let total = io.sequence(rt, 1, 0);
            io.pump(rt);
            io.cmds.clear();
            let batch = |io: &mut DlfsIo| io.submit(rt, &ReadRequest::batch(8)).map(|b| b.len());
            assert_eq!(batch(&mut io), Err(DlfsError::Stalled(0)));
            assert_eq!(batch(&mut io), Err(DlfsError::Stalled(0)), "sticky");
            assert_eq!(io.sequence(rt, 1, 1), total);
            let delivered: usize = std::iter::from_fn(|| batch(&mut io).ok()).sum();
            assert_eq!(delivered, total);
            Ok(())
        };
        Runtime::simulate(3, run).0
    }
}
