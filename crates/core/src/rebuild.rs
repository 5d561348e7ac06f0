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
//! Scrub repair and rebuild copy share [`heal_block`].

use std::sync::Arc;

use blocksim::{NvmeTarget, BLOCK_SIZE};
use simkit::rng::fnv1a;
use simkit::telemetry::{Counter, Gauge, Registry};

use crate::counter_in;
use crate::error::DlfsError;
use crate::io::DlfsShared;
use crate::layout::{encode_codec_table, encode_integrity, encode_meta, read_untimed, MetaRecord};

use crate::integrity::Redundancy;

/// One contiguous run of blocks the dead node must get back: the copy of
/// `home`'s data that lived in the dead node's replica slot `slot_r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildExtent {
    /// Home node whose data this extent mirrors.
    pub home: u16,
    /// Replica slot index on the dead node (`0` = the node's own data).
    pub slot_r: u32,
    /// Blocks of staged data in the extent.
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
    /// Enumerate everything dead node `node` hosted. `blocks_of[h]` is the
    /// number of staged data blocks on home node `h` (from the superblock's
    /// `data_bytes` on persistent instances, or the integrity table length
    /// on verified ephemeral mounts).
    pub fn for_dead_node(red: &Redundancy, node: u16, blocks_of: &[u64]) -> RebuildPlan {
        let n = red.slots.len();
        assert_eq!(blocks_of.len(), n);
        assert!((node as usize) < n);
        let mut extents = Vec::with_capacity(red.replicas as usize);
        extents.push(RebuildExtent {
            home: node,
            slot_r: 0,
            blocks: blocks_of[node as usize],
        });
        for r in 1..red.replicas {
            let home = ((node as u32 + n as u32 - r) % n as u32) as u16;
            extents.push(RebuildExtent {
                home,
                slot_r: r,
                blocks: blocks_of[home as usize],
            });
        }
        let total_blocks = extents.iter().map(|e| e.blocks).sum();
        RebuildPlan {
            node,
            extents,
            total_blocks,
        }
    }

    /// Surviving replica indices a block of `ext` can be read from, in
    /// deterministic preference order (lowest replica index first). Every
    /// entry routes away from the dead node by construction — the dead
    /// node hosted exactly the one slot being rebuilt.
    pub fn sources(&self, ext: &RebuildExtent, red: &Redundancy) -> Vec<u32> {
        (0..red.replicas)
            .filter(|&r| r != ext.slot_r)
            .inspect(|&r| {
                let home_blk = red.slots[ext.home as usize].0 / BLOCK_SIZE;
                debug_assert_ne!(red.route(ext.home, r, home_blk).0, self.node);
            })
            .collect()
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
    /// Next block within the current extent.
    blk: u64,
    /// Blocks walked so far (copied, found clean, or failed).
    walked: u64,
    /// Blocks no surviving replica could serve.
    failed: u64,
}

/// Copy block `home_blk` of `home` (home coordinates) onto `dest` —
/// `(target, device block)` — from the first of the replica indices
/// `sources` whose serving target is not Dead, whose extent is readable
/// and whose bytes match the integrity table. Returns whether a copy
/// landed; unhealable blocks are left for the read path to surface as
/// [`DlfsError::Corrupt`].
fn heal_block(
    targets: &[Arc<dyn NvmeTarget>],
    red: &Redundancy,
    home: u16,
    home_blk: u64,
    sources: impl IntoIterator<Item = u32>,
    dest: (u16, u64),
) -> bool {
    for r in sources {
        let (peer, pslba) = red.route(home, r, home_blk);
        let src = &targets[peer as usize];
        if red.is_dead(peer as usize) || src.probe_extent(pslba, 1) {
            continue;
        }
        let mut blk = vec![0u8; BLOCK_SIZE as usize];
        src.dma_read(pslba, &mut blk);
        if !red.verify_blocks(home, home_blk, &blk) {
            continue;
        }
        targets[dest.0 as usize].dma_write(dest.1, &blk);
        return true;
    }
    false
}

/// Scrub cursor, in-flight rebuild and their counters for one I/O handle.
pub(crate) struct Background {
    shared: Arc<DlfsShared>,
    /// Scrub position: (storage node, block within its data region).
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
        let red = shared.redundancy.as_deref();
        let iv = red.map(|_| reg.scoped("dlfs.integrity"));
        let membership = red.and_then(|r| r.membership.as_ref());
        let rb = membership.map(|_| reg.scoped("dlfs.rebuild"));
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

    /// Walk `budget` data blocks of the scrub cursor, verifying each block
    /// against the integrity tables (and probing for latent media faults),
    /// repairing bad blocks from the first healthy replica. Returns the
    /// number of blocks scrubbed. No-op without checksums.
    fn scrub_blocks(&mut self, budget: u64) -> u64 {
        let sh = &self.shared;
        let Some(red) = sh.redundancy.as_deref().filter(|r| r.verify()) else {
            return 0;
        };
        let nodes = sh.targets.len();
        let mut scrubbed = 0u64;
        let mut hops = 0usize;
        let mut left = budget;
        while left > 0 && hops <= nodes {
            let (n, blk) = self.scrub_cursor;
            let total = red.data_blocks(n as u16);
            if blk >= total {
                self.scrub_cursor = ((n + 1) % nodes, 0);
                hops += 1;
                continue;
            }
            let run = left.min(total - blk);
            let base_blk = red.slots[n].0 / BLOCK_SIZE + blk;
            let mut data = vec![0u8; (run * BLOCK_SIZE) as usize];
            sh.targets[n].dma_read(base_blk, &mut data);
            for i in 0..run {
                let slba = base_blk + i;
                let span = &data[(i * BLOCK_SIZE) as usize..][..BLOCK_SIZE as usize];
                let good =
                    red.verify_blocks(n as u16, slba, span) && !sh.targets[n].probe_extent(slba, 1);
                let peers = 1..red.replicas;
                if !good && heal_block(&sh.targets, red, n as u16, slba, peers, (n as u16, slba)) {
                    self.repairs.inc();
                }
            }
            scrubbed += run;
            left -= run;
            self.scrub_cursor = (n, blk + run);
        }
        self.scrubbed.add(scrubbed);
        scrubbed
    }

    /// One full scrub sweep over every node's data region; returns the
    /// number of blocks scrubbed.
    pub fn scrub_pass(&mut self) -> u64 {
        let Some(red) = self.shared.redundancy.as_deref() else {
            return 0;
        };
        let total: u64 = (0..self.shared.targets.len())
            .map(|n| red.data_blocks(n as u16))
            .sum();
        if total == 0 {
            return 0;
        }
        self.scrub_cursor = (0, 0);
        self.scrub_blocks(total)
    }

    /// Plan the re-replication of storage node `node` and arm it; returns
    /// the total blocks to rebuild. A rebuild needs surviving copies to
    /// read from (`replicas >= 2`) and a membership view to rejoin the
    /// node into afterwards — asking for one on an instance missing either
    /// is a typed configuration error, not a silent no-op.
    pub fn begin_rebuild(&mut self, node: u16) -> Result<u64, DlfsError> {
        let sh = &self.shared;
        let Some(red) = sh.redundancy.as_deref() else {
            return Err(DlfsError::Config(
                "rebuild requires redundancy: configure replicas >= 2 and a \
                 membership policy (fail_dead_after)"
                    .into(),
            ));
        };
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
        let blocks_of: Vec<u64> = (0..sh.targets.len())
            .map(|h| match sh.layouts.as_deref() {
                Some(l) => l[h].data_bytes.div_ceil(BLOCK_SIZE),
                None => red.data_blocks(h as u16),
            })
            .collect();
        let plan = RebuildPlan::for_dead_node(red, node, &blocks_of);
        let total = plan.total_blocks;
        self.rb_at_risk.set(self.chunks_at_risk(total) as i64);
        self.rebuild = Some(RebuildState {
            plan,
            ext: 0,
            blk: 0,
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

    /// Walk up to `budget` blocks of the in-flight rebuild: verify what
    /// the replacement device already holds (a restarted node keeps its
    /// media — catch-up resync skips clean blocks), copy the rest from the
    /// first surviving replica whose bytes verify, and finish with the
    /// on-device layout restore + membership rejoin once the plan is
    /// exhausted.
    pub fn rebuild_blocks(&mut self, budget: u64) -> u64 {
        let sh = &self.shared;
        let Some(red) = sh.redundancy.as_deref() else {
            self.rebuild = None;
            return 0;
        };
        let Some(mut rb) = self.rebuild.take() else {
            return 0;
        };
        let mut left = budget;
        let mut walked = 0u64;
        while left > 0 {
            let Some(ext) = rb.plan.extents.get(rb.ext).copied() else {
                break;
            };
            if rb.blk >= ext.blocks {
                rb.ext += 1;
                rb.blk = 0;
                continue;
            }
            let run = left.min(ext.blocks - rb.blk).min(128);
            let home_base_blk = red.slots[ext.home as usize].0 / BLOCK_SIZE;
            for i in 0..run {
                let home_blk = home_base_blk + rb.blk + i;
                let (dt, dslba) = red.route(ext.home, ext.slot_r, home_blk);
                debug_assert_eq!(dt, rb.plan.node);
                if red.verify() {
                    let dest = &sh.targets[dt as usize];
                    let mut have = vec![0u8; BLOCK_SIZE as usize];
                    dest.dma_read(dslba, &mut have);
                    if red.verify_blocks(ext.home, home_blk, &have) && !dest.probe_extent(dslba, 1)
                    {
                        self.rb_clean.inc();
                        continue;
                    }
                }
                let sources = rb.plan.sources(&ext, red);
                if heal_block(&sh.targets, red, ext.home, home_blk, sources, (dt, dslba)) {
                    self.rb_blocks.inc();
                } else {
                    rb.failed += 1;
                    self.rb_failed.inc();
                }
            }
            rb.blk += run;
            rb.walked += run;
            walked += run;
            left -= run;
        }
        while rb
            .plan
            .extents
            .get(rb.ext)
            .is_some_and(|e| rb.blk >= e.blocks)
        {
            rb.ext += 1;
            rb.blk = 0;
        }
        let remaining = rb.plan.total_blocks - rb.walked;
        self.rb_at_risk
            .set(self.chunks_at_risk(remaining + rb.failed) as i64);
        if rb.ext >= rb.plan.extents.len() {
            self.rebuild_finish(red, rb.plan.node, rb.failed);
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
    fn rebuild_finish(&self, red: &Redundancy, node: u16, failed: u64) {
        let sh = &self.shared;
        if let Some(layouts) = sh.layouts.as_deref() {
            let dest = &sh.targets[node as usize];
            let mut sb = layouts[node as usize].clone();
            let mut records = Vec::with_capacity(sb.node_samples as usize);
            for &id in sh.dir.samples_on(node) {
                let e = sh.dir.entry(id);
                let stored = read_untimed(dest, e.offset(), e.len() as usize);
                records.push(MetaRecord::new(id, e, &stored));
            }
            let meta = encode_meta(&records);
            debug_assert_eq!(meta.len() as u64, sb.meta_bytes);
            if !meta.is_empty() {
                dest.dma_write(sb.meta_base / BLOCK_SIZE, &meta);
            }
            if sb.integrity_bytes > 0 {
                let enc = encode_integrity(&red.sums[node as usize]);
                debug_assert_eq!(enc.len() as u64, sb.integrity_bytes);
                dest.dma_write(sb.integrity_base / BLOCK_SIZE, &enc);
            }
            if sb.codec_table_bytes > 0 {
                if let Some(tables) = sh.codec.as_deref() {
                    // Restore the per-frame encoded-length table; the data
                    // blocks were copied back verbatim (stored/encoded
                    // bytes), so the table written at import still
                    // describes them exactly.
                    let table = encode_codec_table(&tables.per_node[node as usize].lens);
                    debug_assert_eq!(table.len() as u64, sb.codec_table_bytes);
                    dest.dma_write(sb.codec_base() / BLOCK_SIZE, &table);
                }
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

    fn red(nodes: usize, k: u32) -> Redundancy {
        Redundancy::new(k, vec![(4096u64, 1 << 20); nodes], vec![])
    }

    #[test]
    fn plan_covers_every_slot_the_dead_node_hosted() {
        let r = red(4, 3);
        let blocks = [10u64, 20, 30, 40];
        let plan = RebuildPlan::for_dead_node(&r, 2, &blocks);
        assert_eq!(plan.node, 2);
        // Slot 0: node 2's own data. Slot 1: replica 1 of home 1
        // (1 + 1 = 2). Slot 2: replica 2 of home 0 (0 + 2 = 2).
        assert_eq!(
            plan.extents,
            vec![
                RebuildExtent {
                    home: 2,
                    slot_r: 0,
                    blocks: 30
                },
                RebuildExtent {
                    home: 1,
                    slot_r: 1,
                    blocks: 20
                },
                RebuildExtent {
                    home: 0,
                    slot_r: 2,
                    blocks: 10
                },
            ]
        );
        assert_eq!(plan.total_blocks, 60);
        // Every extent's destination routes onto the dead node.
        for e in &plan.extents {
            let home_blk = r.slots[e.home as usize].0 / BLOCK_SIZE;
            assert_eq!(r.route(e.home, e.slot_r, home_blk).0, 2);
        }
    }

    #[test]
    fn sources_avoid_the_dead_node_and_rebuilt_slot() {
        let r = red(4, 3);
        let plan = RebuildPlan::for_dead_node(&r, 2, &[10, 10, 10, 10]);
        for e in &plan.extents {
            let srcs = plan.sources(e, &r);
            assert_eq!(srcs.len(), 2);
            assert!(!srcs.contains(&e.slot_r));
            let home_blk = r.slots[e.home as usize].0 / BLOCK_SIZE;
            for s in srcs {
                assert_ne!(r.route(e.home, s, home_blk).0, 2);
            }
        }
    }

    #[test]
    fn plan_is_deterministic_and_wraps_homes() {
        let r = red(3, 2);
        let a = RebuildPlan::for_dead_node(&r, 0, &[5, 6, 7]);
        let b = RebuildPlan::for_dead_node(&r, 0, &[5, 6, 7]);
        assert_eq!(a.extents, b.extents);
        // Replica 1 of home 2 lives on node (2 + 1) % 3 = 0.
        assert_eq!(
            a.extents[1],
            RebuildExtent {
                home: 2,
                slot_r: 1,
                blocks: 7
            }
        );
    }
    #[test]
    fn heal_block_skips_dead_unreadable_and_mismatching_sources() {
        use blocksim::{DeviceConfig, FaultInjector, NvmeDevice};
        use simkit::time::{Dur, Time};

        let devices: Vec<_> = (0..4)
            .map(|_| NvmeDevice::new(DeviceConfig::optane(1 << 20)))
            .collect();
        let targets: Vec<Arc<dyn NvmeTarget>> = devices.iter().map(|d| d.clone() as _).collect();
        let good = vec![0xA5u8; BLOCK_SIZE as usize];
        let sums = [vec![fnv1a(&good)], vec![], vec![], vec![]].map(Arc::new);
        // Four copies of home 0's block 0: replica r sits on node r, 8
        // blocks per replica slot.
        let r =
            Redundancy::new(4, vec![(0, 4096); 4], sums.to_vec()).with_membership(Dur::micros(100));
        for node in 1..4u64 {
            targets[node as usize].dma_write(8 * node, &good);
        }
        // Replica 1 is on a Dead node, replica 2 under a bad extent,
        // replica 3 holds the wrong bytes.
        for at in [0, 0, 0, 100] {
            r.record_failure(1, Time::ZERO + Dur::micros(at));
        }
        assert!(r.is_dead(1));
        devices[2].set_faults(FaultInjector::new(1).with_bad_extent(16, 1));
        targets[3].dma_write(24, &vec![0x5Au8; BLOCK_SIZE as usize]);
        assert!(!heal_block(&targets, &r, 0, 0, 1..4, (0, 0)));
        let mut home = vec![0u8; BLOCK_SIZE as usize];
        targets[0].dma_read(0, &mut home);
        assert_ne!(home, good, "nothing healthy to copy from");
        // Once one source is healthy it heals from exactly that one.
        targets[3].dma_write(24, &good);
        assert!(heal_block(&targets, &r, 0, 0, 1..4, (0, 0)));
        targets[0].dma_read(0, &mut home);
        assert_eq!(home, good);
    }
}
