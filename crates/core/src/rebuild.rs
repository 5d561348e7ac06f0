//! Background healing: rebuild planning after permanent target loss, and
//! the execution of scrub and rebuild for one I/O handle.
//!
//! When the membership view declares a storage node Dead, every replica
//! slot that node hosted has lost one copy. [`RebuildPlan`] enumerates
//! those slots deterministically so re-replication can restore full
//! redundancy onto a replacement device (a revived node, or a fresh one
//! joining under the same index):
//!
//! * **Slot 0** of dead node `d` held `d`'s own data. Surviving copies are
//!   replicas `1..k` of home `d`, hosted by peers `(d + r) mod N`.
//! * **Slot `r`** (`1 <= r < k`) of `d` held replica `r` of home `h`,
//!   the inverse of the host rule [`Redundancy::route`] places copies by
//!   (`layout::replica_home`). Surviving copies are `h`'s other replicas,
//!   including the home copy itself.
//!
//! The plan is pure geometry — no I/O, no clock — so the same dead node
//! under the same deployment always yields the same extent list, and a
//! same-seed rerun of a chaos scenario replays the rebuild byte-for-byte.
//!
//! [`Background`] executes it, and the scrubber: untimed bookkeeping that
//! models a housekeeping thread, not reactor CPU, run only when a caller
//! asks — a caller paces healing, the reactor lends it nothing. It touches
//! only [`DlfsShared`] and its own counters; [`crate::io::DlfsIo`] owns one
//! and forwards its public scrub/rebuild methods here. Both are one walk:
//! a [`Walk`] over `(home, dest)` extents — copy 0 of every node for
//! scrub, the plan's extents for a rebuild — and one step per stored
//! block, [`Background::mend`], that each counts its own way. What
//! a good copy is, and how a bad one is healed, is [`Redundancy`]'s to say
//! ([`Redundancy::heal`]).

use std::sync::Arc;

use blocksim::BLOCK_SIZE;
use simkit::telemetry::{Counter, Gauge, Registry};

use crate::counter_in;
use crate::error::{CorruptCause, DlfsError};
use crate::integrity::Redundancy;
use crate::io::DlfsShared;
use crate::layout::{read_logical, read_untimed, replica_home, BlockChecksums, MetaRecord};

/// One contiguous run of blocks the dead node must get back: the copy of
/// `home`'s data that lived in the dead node's replica slot `slot_r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildExtent {
    /// Home node whose data this extent mirrors.
    pub home: u16,
    /// Replica slot index on the dead node (`0` = the node's own data).
    pub slot_r: u32,
    /// Stored blocks in the extent (a coded home's frames back to back).
    pub blocks: u64,
}

/// Deterministic work list for re-replicating one dead node.
#[derive(Debug, Clone)]
pub struct RebuildPlan {
    /// The node being rebuilt.
    pub node: u16,
    /// Extents in fixed order: slot 0 first, then replica slots ascending.
    pub extents: Vec<RebuildExtent>,
    /// Sum of `blocks` over all extents.
    pub total_blocks: u64,
}

impl RebuildPlan {
    /// Enumerate everything dead node `node` — one of `red`'s storage
    /// nodes — hosted, each extent as long as its home's stored run
    /// (`Redundancy::stored_blocks`).
    pub fn for_dead_node(red: &Redundancy, node: u16) -> RebuildPlan {
        let hosted = |slot_r: u32| {
            let home = replica_home(node as usize, slot_r as usize, red.slots.len());
            RebuildExtent {
                home: home as u16,
                slot_r,
                blocks: red.stored[home],
            }
        };
        let extents: Vec<_> = (0..red.replicas).map(hosted).collect();
        let total_blocks = extents.iter().map(|e| e.blocks).sum();
        RebuildPlan {
            node,
            extents,
            total_blocks,
        }
    }
}

/// A resumable walk over the stored blocks of `(home, dest)` extents —
/// copy `dest` of `home`'s stored run, in home coordinates — in order, the
/// first again after the last: the one cursor under scrub and rebuild.
struct Walk {
    extents: Vec<(u16, u32)>,
    /// The extent walking, and the next of its home's stored blocks.
    at: (usize, u64),
}

impl Walk {
    fn new(extents: impl IntoIterator<Item = (u16, u32)>) -> Walk {
        let extents = extents.into_iter().collect();
        Walk {
            extents,
            at: (0, 0),
        }
    }

    /// The next block as `(home, dest, slba)`; `None` at the end of an
    /// extent, where the walk moves on to the next one.
    fn next(&mut self, red: &Redundancy) -> Option<(u16, u32, u64)> {
        let (home, dest) = self.extents[self.at.0];
        let at = self.at.1;
        if at < red.stored[home as usize] {
            self.at.1 += 1;
            return Some((home, dest, red.slots[home as usize].0 / BLOCK_SIZE + at));
        }
        self.at = ((self.at.0 + 1) % self.extents.len(), 0);
        None
    }
}

/// In-flight re-replication of one dead node, executed in slices of the
/// caller's size ([`Background::rebuild_blocks`]).
struct RebuildState {
    plan: RebuildPlan,
    /// Over the plan's extents, each onto the dead node.
    walk: Walk,
    /// Blocks walked so far (copied, found clean, or failed).
    walked: u64,
    /// Blocks no surviving replica could serve.
    failed: u64,
}

/// Scrub walk, in-flight rebuild and their counters for one I/O handle.
pub(crate) struct Background {
    shared: Arc<DlfsShared>,
    /// In-flight node rebuild; `None` when full redundancy holds.
    rebuild: Option<RebuildState>,
    /// `dlfs.integrity.{scrubbed,repairs}` (the read path's read-repair
    /// counts into the same `repairs`).
    scrubbed: Counter,
    repairs: Counter,
    /// `dlfs.rebuild.*`, registered only when the instance's target
    /// states carry a death policy (`Redundancy::membership`).
    rb_blocks: Counter,
    /// Blocks a catch-up resync found already verified on the replacement
    /// device (a restarted node that kept its media skips them).
    rb_clean: Counter,
    /// Blocks no surviving replica could serve cleanly.
    rb_failed: Counter,
    rb_completed: Counter,
    /// Chunks with less than full redundancy right now (drops toward zero
    /// as the rebuild progresses).
    rb_at_risk: Gauge,
}

impl Background {
    pub fn new(shared: Arc<DlfsShared>, reg: &Registry) -> Background {
        let red = &shared.redundancy;
        let iv = red.in_use().then(|| reg.scoped("dlfs.integrity"));
        let rb = red.membership.as_ref().map(|_| reg.scoped("dlfs.rebuild"));
        let (iv, rb) = (iv.as_ref(), rb.as_ref());
        Background {
            rebuild: None,
            scrubbed: counter_in(iv, "scrubbed"),
            repairs: counter_in(iv, "repairs"),
            rb_blocks: counter_in(rb, "blocks_rebuilt"),
            rb_clean: counter_in(rb, "blocks_clean"),
            rb_failed: counter_in(rb, "blocks_failed"),
            rb_completed: counter_in(rb, "completed"),
            rb_at_risk: rb.map_or_else(Gauge::default, |s| s.gauge("chunks_at_risk")),
            shared,
        }
    }

    /// The one step of scrub and rebuild over the block `at`, `(home, dest,
    /// slba)` of a walk: judge copy `dest` (only a table can vouch for one)
    /// and, unless it is vouched for, heal it from the first good of the
    /// home's other copies. Every one of them survives a dead node: the
    /// placement puts the copies of one home on distinct nodes. `Ok(false)`
    /// when the copy was good, `Ok(true)` when it was healed, else the
    /// verdict on the last source.
    fn mend(&self, at: (u16, u32, u64), blk: &mut [u8]) -> Result<bool, CorruptCause> {
        let (home, dest, slba) = at;
        let (red, targets) = (&self.shared.redundancy, &self.shared.targets);
        let any = |_: &[u8]| Ok(());
        if red.verify() && red.read_copy(targets, home, dest, slba, blk, any).is_ok() {
            return Ok(false);
        }
        let sources = (0..red.replicas).filter(|&r| r != dest);
        red.heal(targets, (home, slba), sources, dest, blk, any)?;
        Ok(true)
    }

    /// One scrub sweep: mend every node's home copy, each stored block
    /// once. Returns the number of blocks scrubbed; no-op without
    /// checksums.
    pub fn scrub_pass(&self) -> u64 {
        let red = &self.shared.redundancy;
        if !red.verify() {
            return 0;
        }
        let total = red.stored.iter().sum();
        let mut walk = Walk::new((0..red.stored.len() as u16).map(|n| (n, 0)));
        let mut blk = vec![0u8; BLOCK_SIZE as usize];
        let mut scrubbed = 0;
        while scrubbed < total {
            let Some(at) = walk.next(red) else {
                continue;
            };
            if self.mend(at, &mut blk) == Ok(true) {
                self.repairs.inc();
            }
            scrubbed += 1;
        }
        self.scrubbed.add(scrubbed);
        scrubbed
    }

    /// Plan the re-replication of storage node `node` and arm it; returns
    /// the total blocks to rebuild. A rebuild needs surviving copies to
    /// read from (`replicas >= 2`) and a membership view to rejoin the
    /// node into afterwards — asking for one on an instance missing either,
    /// or for a node the deployment does not have, is a typed
    /// configuration error that leaves no rebuild armed.
    pub fn begin_rebuild(&mut self, node: u16) -> Result<u64, DlfsError> {
        let red = &self.shared.redundancy;
        if red.replicas < 2 {
            return Err(DlfsError::Config(format!(
                "rebuild of storage node {node} requires replicas >= 2 (have \
                 {}): a lone copy has no surviving source to rebuild from",
                red.replicas
            )));
        }
        if red.membership.is_none() {
            return Err(DlfsError::Config(format!(
                "rebuild of storage node {node} requires a membership policy: \
                 set fail_dead_after so the rebuilt node can be declared Dead \
                 and rejoined"
            )));
        }
        let nodes = red.slots.len();
        if node as usize >= nodes {
            return Err(DlfsError::Config(format!(
                "rebuild of storage node {node}: the deployment has {nodes} storage node(s)"
            )));
        }
        let plan = RebuildPlan::for_dead_node(red, node);
        let total = plan.total_blocks;
        self.rb_at_risk.set(self.chunks_at_risk(total) as i64);
        self.rebuild = Some(RebuildState {
            walk: Walk::new(plan.extents.iter().map(|e| (e.home, e.slot_r))),
            plan,
            walked: 0,
            failed: 0,
        });
        Ok(total)
    }

    pub fn rebuild_active(&self) -> bool {
        self.rebuild.is_some()
    }

    /// Blocks the in-flight rebuild has not walked yet (0 when idle).
    pub fn rebuild_remaining(&self) -> u64 {
        self.rebuild
            .as_ref()
            .map(|r| r.plan.total_blocks - r.walked)
            .unwrap_or(0)
    }

    /// Chunks not yet at full redundancy when `blocks` blocks are missing.
    fn chunks_at_risk(&self, blocks: u64) -> u64 {
        let per_chunk = (self.shared.cfg.chunk_size / BLOCK_SIZE).max(1);
        blocks.div_ceil(per_chunk)
    }

    /// Walk up to `budget` stored blocks of the in-flight rebuild, mending
    /// each copy on the replacement device (a restarted node keeps its
    /// media — catch-up resync skips clean blocks), and finish with the
    /// on-device layout restore + membership rejoin once the plan is
    /// exhausted.
    pub fn rebuild_blocks(&mut self, budget: u64) -> u64 {
        let Some(mut rb) = self.rebuild.take() else {
            return 0;
        };
        let mut blk = vec![0u8; BLOCK_SIZE as usize];
        let mut walked = 0u64;
        while walked < budget && rb.walked < rb.plan.total_blocks {
            let Some(at) = rb.walk.next(&self.shared.redundancy) else {
                continue;
            };
            match self.mend(at, &mut blk) {
                Ok(false) => self.rb_clean.inc(),
                Ok(true) => self.rb_blocks.inc(),
                Err(_) => {
                    rb.failed += 1;
                    self.rb_failed.inc();
                }
            }
            rb.walked += 1;
            walked += 1;
        }
        let remaining = rb.plan.total_blocks - rb.walked;
        self.rb_at_risk
            .set(self.chunks_at_risk(remaining + rb.failed) as i64);
        if remaining == 0 {
            self.rebuild_finish(rb.plan.node, rb.failed);
        } else {
            self.rebuild = Some(rb);
        }
        walked
    }

    /// Final pass of a completed rebuild: on persistent instances, restore
    /// the replacement device's regions through the import's own commit
    /// writes (`Superblock::commit_writes`: integrity table, metadata
    /// reconstructed from the sample directory with payload checksums
    /// re-hashed from the rebuilt bytes, codec table), then its committed
    /// superblock — a fresh device comes out `fsck`-clean, its bytes before
    /// `data_base` those the import wrote, except for the checkpoint
    /// region, whose stream died with the old node (the fsck checkpoint
    /// walk treats the zeroed region as an empty stream).
    /// Only a fully successful rebuild rejoins the node into the
    /// membership view; failed blocks leave it Dead for another attempt.
    fn rebuild_finish(&self, node: u16, failed: u64) {
        let sh = &self.shared;
        let red = &sh.redundancy;
        if let Some(layouts) = sh.layouts.as_deref() {
            let dest = &sh.targets[node as usize];
            let mut sb = layouts[node as usize].clone();
            // The logical bytes, as the import hashed them.
            let frames = sh.codec.as_deref();
            let record = |&id: &u32| {
                let e = sh.dir.entry(id);
                let frame = frames.map(|t| t.frame(node, e.offset()));
                MetaRecord::new(id, e, &read_logical(dest, frame, e.offset(), e.len()))
            };
            let records: Vec<_> = sh.dir.samples_on(node).iter().map(record).collect();
            // The import's table, or — on an instance remounted without
            // `verify_reads`, which never loaded it — the rebuilt stored run
            // hashed afresh.
            let sums = match red.sums.get(node as usize) {
                Some(sums) => sums.to_vec(),
                None if sb.integrity_bytes > 0 => {
                    let run = red.stored[node as usize] * BLOCK_SIZE;
                    let mut sums = BlockChecksums::new();
                    sums.update(&read_untimed(dest, sb.data_base, run as usize));
                    sums.finish()
                }
                None => Vec::new(),
            };
            // The stored run was copied back verbatim, so the frame table
            // written at import still describes it exactly.
            let lens = frames.map_or(&[][..], |t| &t.per_node[node as usize].lens);
            for (at, bytes) in sb.commit_writes(&records, &sums, lens) {
                dest.dma_write(at / BLOCK_SIZE, &bytes);
            }
            sb.committed = true;
            dest.dma_write(0, &sb.encode());
        }
        if failed == 0 {
            // `begin_rebuild` refuses to start without a membership policy,
            // so the rejoin cannot fail here.
            let r = red.rejoin(node as usize);
            debug_assert!(r.is_ok(), "rebuild ran without membership");
        }
        self.rb_completed.inc();
        self.rb_at_risk.set(self.chunks_at_risk(failed) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `nodes` nodes holding 10, 20, 30, ... blocks of data.
    fn red(nodes: usize, k: u32) -> Redundancy {
        let stored = (1..=nodes as u64).map(|n| n * 10).collect();
        Redundancy::with_geometry(k, vec![(4096u64, 1 << 20); nodes], stored, vec![])
    }
    /// A plan's extents as `(home, slot_r, blocks)`.
    fn extents(plan: &RebuildPlan) -> Vec<(u16, u32, u64)> {
        let tuple = |e: &RebuildExtent| (e.home, e.slot_r, e.blocks);
        plan.extents.iter().map(tuple).collect()
    }

    #[test]
    fn plan_covers_every_slot_the_dead_node_hosted() {
        let r = red(4, 3);
        let plan = RebuildPlan::for_dead_node(&r, 2);
        assert_eq!(plan.node, 2);
        // Slot 0: node 2's own data. Slot 1: replica 1 of home 1
        // (1 + 1 = 2). Slot 2: replica 2 of home 0 (0 + 2 = 2).
        assert_eq!(extents(&plan), vec![(2, 0, 30), (1, 1, 20), (0, 2, 10)]);
        assert_eq!(plan.total_blocks, 60);
        // Every extent's destination routes onto the dead node, and every
        // other replica of its home — the rebuild's sources — off it.
        for e in &plan.extents {
            let home_blk = r.slots[e.home as usize].0 / BLOCK_SIZE;
            for replica in 0..r.replicas {
                let on_dead = r.route(e.home, replica, home_blk).0 == 2;
                assert_eq!(on_dead, replica == e.slot_r);
            }
        }
    }

    #[test]
    fn plan_is_deterministic_and_wraps_homes() {
        let r = red(3, 2);
        let a = RebuildPlan::for_dead_node(&r, 0);
        let b = RebuildPlan::for_dead_node(&r, 0);
        assert_eq!(a.extents, b.extents);
        // Replica 1 of home 2 lives on node (2 + 1) % 3 = 0.
        assert_eq!(extents(&a)[1], (2, 1, 30));
    }

    /// A coded home is planned, and walked, by its stored run: its frames'
    /// encoded bytes back to back from the start of its data region (three
    /// one-byte frames are one block).
    #[test]
    fn a_coded_home_is_walked_by_its_stored_run() {
        let stored =
            |lens: &[u32]| crate::codec::stored_blocks(3 * 4096, crate::CodecKind::Lz, 4096, lens);
        let stored = vec![stored(&[100, 4096, 600]), stored(&[1, 1, 1])];
        let r = Redundancy::with_geometry(2, vec![(4096, 1 << 20); 2], stored, vec![]);
        assert_eq!(
            extents(&RebuildPlan::for_dead_node(&r, 1)),
            vec![(1, 0, 1), (0, 1, 11)]
        );
        let mut walk = Walk::new([(0, 1), (1, 0)]);
        let blocks: Vec<_> = std::iter::from_fn(|| walk.next(&r)).collect();
        let base = 4096 / BLOCK_SIZE;
        assert_eq!(
            blocks,
            (0..11).map(|b| (0, 1, base + b)).collect::<Vec<_>>()
        );
        assert_eq!(walk.next(&r), Some((1, 0, base)), "then the next extent's");
        assert_eq!(walk.next(&r), None);
        assert_eq!(walk.next(&r), Some((0, 1, base)), "and round again");
    }
}
