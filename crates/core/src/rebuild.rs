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
//! * **Slot `r`** (`1 <= r < k`) of `d` held replica `r` of home
//!   `h = (d + N - r) mod N` (the inverse of [`Redundancy::route`]'s
//!   `(h + r) mod N` placement). Surviving copies are `h`'s other
//!   replicas, including the home copy itself.
//!
//! The plan is pure geometry — no I/O, no clock — so the same dead node
//! under the same deployment always yields the same extent list, and a
//! same-seed rerun of a chaos scenario replays the rebuild byte-for-byte.
//!
//! [`Background`] executes it, and the scrubber, in slices: untimed
//! bookkeeping that models a housekeeping thread running in the reactor's
//! idle gaps, not reactor CPU. It touches only [`DlfsShared`] and its own
//! counters; [`crate::io::DlfsIo`] owns one, calls [`Background::idle_gap`]
//! when it parks, and forwards its public scrub/rebuild methods here.
//! What a good copy is, and how a bad one is healed, is
//! [`Redundancy`]'s to say ([`Redundancy::heal`]).

use std::sync::Arc;

use blocksim::BLOCK_SIZE;
use simkit::rng::fnv1a;
use simkit::telemetry::{Counter, Gauge, Registry};

use crate::counter_in;
use crate::error::DlfsError;
use crate::integrity::{Probe, Redundancy};
use crate::io::DlfsShared;
use crate::layout::{
    encode_codec_table, encode_integrity, encode_meta, read_logical, read_untimed, BlockChecksums,
    MetaRecord,
};

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
        let n = red.slots.len() as u32;
        let extent = |home: u16, slot_r: u32| RebuildExtent {
            home,
            slot_r,
            blocks: red.stored[home as usize],
        };
        let hosted = |r: u32| extent(((node as u32 + n - r) % n) as u16, r);
        let extents: Vec<_> = (0..red.replicas).map(hosted).collect();
        let total_blocks = extents.iter().map(|e| e.blocks).sum();
        RebuildPlan {
            node,
            extents,
            total_blocks,
        }
    }
}

/// Blocks the background scrubber walks per idle reactor gap.
const SCRUB_GAP_BLOCKS: u64 = 64;

/// In-flight re-replication of one dead node, executed in slices through
/// idle reactor gaps (see [`Background::begin_rebuild`]).
struct RebuildState {
    plan: RebuildPlan,
    /// Current extent index into `plan.extents`.
    ext: usize,
    /// Where the walk of the current extent's home stands
    /// ([`Redundancy::next_stored`]).
    at: u64,
    /// Blocks walked so far (copied, found clean, or failed).
    walked: u64,
    /// Blocks no surviving replica could serve.
    failed: u64,
}

/// Scrub cursor, in-flight rebuild and their counters for one I/O handle.
pub(crate) struct Background {
    shared: Arc<DlfsShared>,
    /// Scrub position: storage node, and where the walk of its stored
    /// blocks stands ([`Redundancy::next_stored`]).
    scrub_cursor: (usize, u64),
    /// In-flight node rebuild, throttled to `rebuild_gap_blocks` per idle
    /// gap so foreground reads keep their latency; `None` when full
    /// redundancy holds.
    rebuild: Option<RebuildState>,
    /// `dlfs.integrity.{scrubbed,repairs}` (the read path's read-repair
    /// counts into the same `repairs`).
    scrubbed: Counter,
    repairs: Counter,
    /// `dlfs.rebuild.*`, registered only when the instance carries a
    /// cluster [`fabric::Membership`] view.
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
            scrub_cursor: (0, 0),
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

    /// The reactor is about to park with nothing in flight: spend the gap
    /// on a slice of scrubbing (config `scrub`) and of the rebuild.
    pub fn idle_gap(&mut self) {
        if self.shared.cfg.scrub {
            self.scrub_blocks(SCRUB_GAP_BLOCKS);
        }
        if self.rebuild.is_some() {
            self.rebuild_blocks(self.shared.cfg.rebuild_gap_blocks);
        }
    }

    /// Walk `budget` stored blocks from the scrub cursor, judging each
    /// home block against the integrity table (and probing for latent media
    /// faults) and healing bad ones from the first good replica. Returns
    /// the number of blocks scrubbed. No-op without checksums.
    fn scrub_blocks(&mut self, budget: u64) -> u64 {
        let sh = &self.shared;
        let red = &sh.redundancy;
        if !red.verify() {
            return 0;
        }
        let nodes = sh.targets.len();
        let mut blk = vec![0u8; BLOCK_SIZE as usize];
        let mut scrubbed = 0u64;
        let mut hops = 0usize;
        while scrubbed < budget && hops <= nodes {
            let n = self.scrub_cursor.0;
            let Some(at) = red.next_stored(n as u16, &mut self.scrub_cursor.1) else {
                self.scrub_cursor = ((n + 1) % nodes, 0);
                hops += 1;
                continue;
            };
            let (home, slba) = (n as u16, red.slots[n].0 / BLOCK_SIZE + at);
            let good = red.read_copy(&sh.targets, home, 0, slba, &mut blk, Probe::Oracle);
            let peers = 1..red.replicas;
            if good.is_err() && red.heal(&sh.targets, home, slba, peers, 0, &mut blk) {
                self.repairs.inc();
            }
            scrubbed += 1;
        }
        self.scrubbed.add(scrubbed);
        scrubbed
    }

    /// One full scrub sweep over every node's stored blocks; returns the
    /// number of blocks scrubbed.
    pub fn scrub_pass(&mut self) -> u64 {
        let total = self.shared.redundancy.stored.iter().sum();
        self.scrub_cursor = (0, 0);
        self.scrub_blocks(total)
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
            plan,
            ext: 0,
            at: 0,
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

    /// Run the in-flight rebuild to completion; returns blocks walked.
    pub fn drive_rebuild(&mut self) -> u64 {
        let mut done = 0;
        while self.rebuild.is_some() {
            done += self.rebuild_blocks(u64::MAX);
        }
        done
    }

    /// Chunks not yet at full redundancy when `blocks` blocks are missing.
    fn chunks_at_risk(&self, blocks: u64) -> u64 {
        let per_chunk = (self.shared.cfg.chunk_size / BLOCK_SIZE).max(1);
        blocks.div_ceil(per_chunk)
    }

    /// Walk up to `budget` stored blocks of the in-flight rebuild: verify what
    /// the replacement device already holds (a restarted node keeps its
    /// media — catch-up resync skips clean blocks), copy the rest from the
    /// first surviving replica whose bytes verify, and finish with the
    /// on-device layout restore + membership rejoin once the plan is
    /// exhausted.
    pub fn rebuild_blocks(&mut self, budget: u64) -> u64 {
        let sh = &self.shared;
        let red = &sh.redundancy;
        let Some(mut rb) = self.rebuild.take() else {
            return 0;
        };
        let mut blk = vec![0u8; BLOCK_SIZE as usize];
        let mut walked = 0u64;
        while walked < budget {
            let Some(ext) = rb.plan.extents.get(rb.ext).copied() else {
                break;
            };
            let (home, dest) = (ext.home, ext.slot_r);
            let Some(at) = red.next_stored(home, &mut rb.at) else {
                rb.ext += 1;
                rb.at = 0;
                continue;
            };
            let slba = red.slots[home as usize].0 / BLOCK_SIZE + at;
            // Every other replica of the home survives the dead node: the
            // placement puts the copies of one home on distinct nodes.
            let survivors = (0..red.replicas).filter(|&r| r != dest);
            // Only a table can vouch for what the replacement already holds.
            let have = red.verify()
                && red
                    .read_copy(&sh.targets, home, dest, slba, &mut blk, Probe::Oracle)
                    .is_ok();
            if have {
                self.rb_clean.inc();
            } else if red.heal(&sh.targets, home, slba, survivors, dest, &mut blk) {
                self.rb_blocks.inc();
            } else {
                rb.failed += 1;
                self.rb_failed.inc();
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
    /// the replacement device's metadata region (reconstructed from the
    /// sample directory, payload checksums re-hashed from the rebuilt
    /// bytes), integrity table, and committed superblock — a fresh device
    /// comes out `fsck`-clean, indistinguishable from the import, except
    /// for the checkpoint region, whose stream died with the old node (the
    /// fsck checkpoint walk treats the zeroed region as an empty stream).
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
                let frame = frames.map(|t| t.frame(sh.cfg.chunk_size, node, e.offset()));
                MetaRecord::new(id, e, &read_logical(dest, frame, e.offset(), e.len()))
            };
            let records: Vec<_> = sh.dir.samples_on(node).iter().map(record).collect();
            let meta = encode_meta(&records);
            debug_assert_eq!(meta.len() as u64, sb.meta_bytes);
            if !meta.is_empty() {
                dest.dma_write(sb.meta_base / BLOCK_SIZE, &meta);
            }
            if sb.integrity_bytes > 0 {
                // The import's table, or — on an instance remounted without
                // `verify_reads`, which never loaded it — the rebuilt stored
                // run hashed afresh.
                let enc = match red.sums.get(node as usize) {
                    Some(sums) => encode_integrity(sums),
                    None => {
                        let run = red.stored[node as usize] * BLOCK_SIZE;
                        let mut sums = BlockChecksums::new();
                        sums.update(&read_untimed(dest, sb.data_base, run as usize));
                        encode_integrity(&sums.finish())
                    }
                };
                debug_assert_eq!(enc.len() as u64, sb.integrity_bytes);
                dest.dma_write(sb.integrity_base / BLOCK_SIZE, &enc);
            }
            if let Some(tables) = sh.codec.as_deref() {
                // Restore the per-frame encoded-length table (a coded
                // layout has one); the stored run was copied back verbatim,
                // so the table written at import still describes it exactly.
                let table = encode_codec_table(&tables.per_node[node as usize].lens);
                debug_assert_eq!(table.len() as u64, sb.codec_table_bytes);
                dest.dma_write(sb.codec_base() / BLOCK_SIZE, &table);
            }
            sb.meta_checksum = fnv1a(&meta);
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
    /// extents back to back from the start of its data region.
    #[test]
    fn a_coded_home_is_walked_by_its_stored_run() {
        let stored =
            |lens: &[u32]| crate::codec::stored_blocks(3 * 4096, crate::CodecKind::Lz, 4096, lens);
        let stored = vec![stored(&[100, 4096, 600]), stored(&[1, 1, 1])];
        let r = Redundancy::with_geometry(2, vec![(4096, 1 << 20); 2], stored, vec![]);
        assert_eq!(
            extents(&RebuildPlan::for_dead_node(&r, 1)),
            vec![(1, 0, 3), (0, 1, 11)]
        );
        let mut cursor = 0;
        let walk: Vec<u64> = std::iter::from_fn(|| r.next_stored(0, &mut cursor)).collect();
        assert_eq!(walk, (0..11).collect::<Vec<u64>>());
        assert_eq!(r.next_stored(0, &mut cursor), None, "and stays at the end");
    }
}
