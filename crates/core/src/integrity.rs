//! End-to-end chunk integrity and replica routing: the one module that
//! knows replicas.
//!
//! Every instance carries a [`Redundancy`] in [`crate::io::DlfsShared`]
//! (built by bring-up for `replicas >= 1`, with an integrity table or
//! none), and every question about a copy is asked here:
//!
//! 1. **Where does replica `r` of home node `h`'s blocks live?**
//!    Replica `r` of home `h` is hosted by node `(h + r) mod N`, inside
//!    that node's replica slot `r` (see
//!    [`crate::layout::Superblock::plan`]). Slot 0 is always the
//!    node's own data, so `r = 0` routes to the home node unchanged
//!    ([`Redundancy::route`]).
//! 2. **Which replica should serve the next timed attempt?** A shared
//!    [`TargetHealth`] circuit breaker records per-target failed commands
//!    (not checksum mismatches, which are an extent's fault; and only on
//!    replicated instances: a lone copy has nowhere to route to);
//!    [`Redundancy::pick_replica`] rotates to the first replica whose
//!    target circuit is closed, so a dead or quarantined node stops
//!    eating retry budget.
//! 3. **Are these bytes the bytes the import staged?** The per-block
//!    FNV-1a table computed client-side during upload (and persisted in
//!    the layout's integrity region) is checked against every block a
//!    read path delivers, *before* anything is published into the sample
//!    cache ([`Redundancy::verify_blocks`]; vacuous without a table).
//! 4. **Is this copy good, which copy is, and how is a bad one healed?**
//!    The untimed copy primitive — `read_copy` (read replica `r` of a
//!    home extent and judge it: serving device readable, bytes matching
//!    the table when there is one), `first_good` (the first good copy of
//!    a candidate list whose target is not membership-Dead, with what it
//!    rejected), `rewrite` and `heal` — serves the offload path, scrub,
//!    rebuild and `fsck_repair` alike.
//! 5. **Which blocks of a home's data region hold data at all?** Its
//!    *stored blocks*, one run from the start of the region: all of its
//!    data without a codec, its frames' stored extents back to back with
//!    one ([`crate::codec`]). Scrub and rebuild walk them through
//!    `Redundancy::next_stored`; what lies past the run was never written
//!    by this import and is never judged, copied or repaired.
//!
//! `Redundancy::in_use` is what "redundancy is configured" means
//! (`replicas > 1` or `verify_reads`): the `dlfs.integrity.*` scope and
//! [`crate::DlfsInstance::redundancy`] exist only then, so outputs of the
//! default configuration stay byte-identical.

use std::sync::Arc;

use crate::error::DlfsError;
use crate::layout::replica_offset;
use blocksim::{NvmeTarget, BLOCK_SIZE};
use fabric::{Membership, MembershipPolicy, TargetHealth};
use simkit::rng::fnv1a;
use simkit::time::{Dur, Time};

/// Consecutive failures before a target's circuit opens.
pub const HEALTH_THRESHOLD: u32 = 3;

/// How long an opened circuit keeps a target quarantined (virtual time).
pub fn health_cooldown() -> Dur {
    Dur::micros(500)
}

/// Replica geometry + integrity tables + target health for one instance.
pub struct Redundancy {
    /// Copies of every chunk (1 = no replication).
    pub replicas: u32,
    /// Per storage node `(data_base, replica_slot_bytes)`, both in bytes.
    /// Ephemeral mounts use `(0, slot)`; persistent instances carry the
    /// superblock's geometry.
    pub slots: Vec<(u64, u64)>,
    /// Per storage node: the blocks of its own (slot 0) data — one run
    /// from the start of the data region — which is what every replica
    /// slot mirroring it holds.
    pub stored: Vec<u64>,
    /// Per storage node: expected FNV-1a of each stored 512 B block of its
    /// own (slot 0) data region, in block order. Empty when reads are not
    /// verified.
    pub sums: Vec<Arc<Vec<u64>>>,
    /// Circuit breaker over the storage nodes, shared by every reader.
    pub health: TargetHealth,
    /// Cluster membership view, present when the configuration set
    /// [`crate::DlfsConfig::fail_dead_after`]: sustained circuit-open
    /// escalates a target to permanently Dead, which routing then skips
    /// entirely (no probes, no retries — replicas serve).
    pub membership: Option<Membership>,
}

impl std::fmt::Debug for Redundancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Redundancy")
            .field("replicas", &self.replicas)
            .field("nodes", &self.slots.len())
            .field("verify", &self.verify())
            .finish()
    }
}

/// How much the untimed judge of a copy may know about its device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Probe {
    /// What a read of the range would hit: a dead device or a sticky bad
    /// extent. The only honest question on a data path — a silent flip is
    /// for the checksum table to catch, or nobody.
    Media,
    /// Plus the simulator's knowledge of silent corruption: scrub, rebuild
    /// and fsck exist to locate latent damage.
    Oracle,
}

/// Why the judge turned a copy down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Reject {
    /// Never read: its target is membership-Dead, its device dead, or the
    /// range under a persistent fault.
    Unreadable,
    /// Read, and the bytes fail the integrity table.
    Mismatch,
}

impl Redundancy {
    /// Wire up redundancy over `slots.len()` storage nodes. `sums` may be
    /// empty (no verification) or one table per node; each node's data is
    /// taken to be what its table covers.
    pub fn new(replicas: u32, slots: Vec<(u64, u64)>, sums: Vec<Arc<Vec<u64>>>) -> Redundancy {
        let covered = |n: usize| sums.get(n).map_or(0, |t| t.len() as u64);
        let stored = (0..slots.len()).map(covered).collect();
        Redundancy::with_geometry(replicas, slots, stored, sums)
    }

    /// [`Redundancy::new`] with every node's stored blocks stated
    /// ([`crate::codec::stored_blocks`]), so that extents are sized from the
    /// geometry whether or not there is a table.
    pub(crate) fn with_geometry(
        replicas: u32,
        slots: Vec<(u64, u64)>,
        stored: Vec<u64>,
        sums: Vec<Arc<Vec<u64>>>,
    ) -> Redundancy {
        assert!(replicas >= 1 && replicas as usize <= slots.len());
        assert!(sums.is_empty() || sums.len() == slots.len());
        assert_eq!(stored.len(), slots.len());
        let health = TargetHealth::new(slots.len(), HEALTH_THRESHOLD, health_cooldown());
        Redundancy {
            replicas,
            slots,
            stored,
            sums,
            health,
            membership: None,
        }
    }

    /// Enable the membership layer: a target continuously circuit-open for
    /// `dead_after` is escalated to Dead on the next failure observation.
    pub fn with_membership(mut self, dead_after: Dur) -> Redundancy {
        self.membership = Some(Membership::new(
            self.slots.len(),
            MembershipPolicy { dead_after },
        ));
        self
    }

    /// Is redundancy configured at all — more than one copy, or checksummed
    /// reads? Only then do its metrics and accessors exist.
    pub(crate) fn in_use(&self) -> bool {
        self.replicas > 1 || self.verify()
    }

    /// Is `target` declared permanently Dead by the membership view?
    /// Always `false` without a membership layer.
    pub fn is_dead(&self, target: usize) -> bool {
        self.membership.as_ref().is_some_and(|m| m.is_dead(target))
    }

    /// Degraded mode for writers: a typed [`DlfsError::Degraded`] naming
    /// the view that declared `node` Dead, instead of letting every write
    /// burn its retry budget timing out against it.
    pub(crate) fn check_alive(&self, node: u16) -> Result<(), DlfsError> {
        match &self.membership {
            Some(m) if m.is_dead(node as usize) => Err(DlfsError::Degraded {
                node,
                view_epoch: m.view_epoch(),
            }),
            _ => Ok(()),
        }
    }

    /// Record a successful operation against `target`: closes its health
    /// circuit and clears a Suspect membership state (Dead stays Dead).
    /// Health is tracked only where it can change a routing decision: a
    /// no-op on an unreplicated instance.
    pub fn record_ok(&self, target: usize) {
        if self.replicas == 1 {
            return;
        }
        self.health.record_ok(target);
        if let Some(m) = &self.membership {
            m.observe_alive(target);
        }
    }

    /// Re-admit a rebuilt target: close its health circuit *and* clear the
    /// Dead membership state. The circuit reset is load-bearing — the
    /// outage's stale `open_since` would otherwise survive the rejoin and
    /// the next routing decision would re-declare the node Dead on sight.
    ///
    /// Without a membership layer there is no Dead state to clear, so a
    /// rejoin is a configuration contradiction (replicas + rebuild were
    /// asked for, but no policy can declare or re-admit Dead targets) —
    /// surfaced as a typed error instead of silently doing nothing.
    pub fn rejoin(&self, target: usize) -> Result<(), DlfsError> {
        let Some(m) = &self.membership else {
            return Err(DlfsError::Config(format!(
                "rejoin of storage node {target} requires a membership policy: \
                 set fail_dead_after so replicas+rebuild can declare and \
                 re-admit Dead targets"
            )));
        };
        self.health.record_ok(target);
        m.rejoin(target);
        Ok(())
    }

    /// Record a failed operation against `target` at `now`, escalating a
    /// sustained outage through the membership policy. Returns `true` when
    /// this failure opened (or re-armed) the circuit. A no-op (`false`) on
    /// an unreplicated instance, like [`Redundancy::record_ok`].
    pub fn record_failure(&self, target: usize, now: Time) -> bool {
        if self.replicas == 1 {
            return false;
        }
        let opened = self.health.record_failure(target, now);
        if let Some(m) = &self.membership {
            if let Some(since) = self.health.open_since(target) {
                m.observe_open(target, since, now);
            }
        }
        opened
    }

    /// Are reads checksum-verified on this instance?
    pub fn verify(&self) -> bool {
        !self.sums.is_empty()
    }

    /// Target node and LBA serving replica `r` of home node `home`'s
    /// blocks at `slba` (home coordinates). `r = 0` is the home copy.
    pub fn route(&self, home: u16, r: u32, slba: u64) -> (u16, u64) {
        if r == 0 {
            return (home, slba);
        }
        let n = self.slots.len() as u32;
        let peer = (home as u32 + r) % n;
        let (home_base, _) = self.slots[home as usize];
        let (peer_base, peer_slot) = self.slots[peer as usize];
        debug_assert_eq!(home_base % BLOCK_SIZE, 0);
        debug_assert_eq!(peer_base % BLOCK_SIZE, 0);
        debug_assert_eq!(peer_slot % BLOCK_SIZE, 0);
        let rel = slba * BLOCK_SIZE - home_base;
        (
            peer as u16,
            replica_offset(peer_base, peer_slot, r, rel) / BLOCK_SIZE,
        )
    }

    /// First replica index, rotating from `start`, whose serving target is
    /// routable at `now`: not membership-Dead, and with a closed circuit —
    /// or the single half-open probe this cooldown expiry grants
    /// ([`TargetHealth::try_probe`]; concurrent callers at the same expiry
    /// don't all hammer the recovering target). Falls back to the first
    /// non-Dead replica when every circuit is open (better to probe a
    /// quarantined target than to give up without trying), and to `start`
    /// only when the whole rotation is Dead.
    pub fn pick_replica(&self, home: u16, start: u32, now: Time) -> u32 {
        if self.replicas == 1 {
            return 0;
        }
        let start = start % self.replicas;
        let mut fallback = None;
        for i in 0..self.replicas {
            let r = (start + i) % self.replicas;
            let (t, _) = self.route(home, r, self.slots[home as usize].0 / BLOCK_SIZE);
            let t = t as usize;
            if self.is_dead(t) {
                continue;
            }
            // Routing-time escalation: a target whose circuit has been
            // continuously open past the death policy is declared Dead
            // right here, without waiting for a half-open probe to burn
            // another request on it.
            if let (Some(m), Some(since)) = (&self.membership, self.health.open_since(t)) {
                if m.observe_open(t, since, now) == fabric::NodeState::Dead {
                    continue;
                }
            }
            if fallback.is_none() {
                fallback = Some(r);
            }
            if self.health.try_probe(t, now) {
                return r;
            }
        }
        fallback.unwrap_or(start)
    }

    /// Verify whole blocks read from home coordinates `(home, slba)`.
    /// `data` must be a whole number of blocks; blocks past the end of the
    /// staged data region (chunk-rounded reads) are vacuously good, and so
    /// is everything on an instance without a table. Returns `true` when
    /// every covered block matches its table entry.
    pub fn verify_blocks(&self, home: u16, slba: u64, data: &[u8]) -> bool {
        let Some(sums) = self.sums.get(home as usize) else {
            return true;
        };
        let (home_base, _) = self.slots[home as usize];
        debug_assert!(slba >= home_base / BLOCK_SIZE, "read below data region");
        let start = (slba - home_base / BLOCK_SIZE) as usize;
        debug_assert_eq!(data.len() % BLOCK_SIZE as usize, 0);
        data.chunks_exact(BLOCK_SIZE as usize)
            .enumerate()
            .all(|(i, blk)| sums.get(start + i).is_none_or(|&s| fnv1a(blk) == s))
    }

    /// Step a walk over `home`'s stored blocks: the block (relative to the
    /// data region) at `cursor`, which moves on; `None` once the run is
    /// exhausted. The one iterator under scrub and rebuild, resumable
    /// across their budgets.
    pub(crate) fn next_stored(&self, home: u16, cursor: &mut u64) -> Option<u64> {
        let at = *cursor;
        (at < self.stored[home as usize]).then(|| {
            *cursor += 1;
            at
        })
    }

    // ------------------------------------------ the untimed copy primitive --
    //
    // Untimed and draw-free: `fault_decide*` is never asked here (it draws,
    // and would shift every seeded fault replay).

    /// Read replica `r`'s copy of the home extent at `slba` (home
    /// coordinates, `data.len()` whole blocks) into `data` and judge it:
    /// the serving device must be able to return the range (`probe` says
    /// how much the judge may know) and the bytes must match the integrity
    /// table when there is one. Membership is not asked: a copy on a Dead
    /// node that a rebuild has already written is a good copy.
    pub(crate) fn read_copy(
        &self,
        targets: &[Arc<dyn NvmeTarget>],
        home: u16,
        r: u32,
        slba: u64,
        data: &mut [u8],
        probe: Probe,
    ) -> Result<(), Reject> {
        let (t, at) = self.route(home, r, slba);
        let target = &targets[t as usize];
        let nblocks = (data.len() / BLOCK_SIZE as usize) as u32;
        let faulted = match probe {
            Probe::Media => target.unreadable(at, nblocks),
            Probe::Oracle => target.probe_extent(at, nblocks),
        };
        if faulted {
            return Err(Reject::Unreadable);
        }
        target.dma_read(at, data);
        if self.verify_blocks(home, slba, data) {
            Ok(())
        } else {
            Err(Reject::Mismatch)
        }
    }

    /// The first of `candidates` (replica indices, tried in order) whose
    /// serving target is not membership-Dead and whose copy
    /// [`Redundancy::read_copy`] accepts — its bytes are then in `data` —
    /// together with why each copy before it was turned down.
    pub(crate) fn first_good(
        &self,
        targets: &[Arc<dyn NvmeTarget>],
        home: u16,
        slba: u64,
        candidates: impl IntoIterator<Item = u32>,
        data: &mut [u8],
        probe: Probe,
    ) -> (Option<u32>, Vec<Reject>) {
        let mut rejected = Vec::new();
        for r in candidates {
            let serving = self.route(home, r, slba).0 as usize;
            let verdict = if self.is_dead(serving) {
                Err(Reject::Unreadable)
            } else {
                self.read_copy(targets, home, r, slba, data, probe)
            };
            match verdict {
                Ok(()) => return (Some(r), rejected),
                Err(why) => rejected.push(why),
            }
        }
        (None, rejected)
    }

    /// Overwrite replica `r`'s copy of the home extent at `slba` with
    /// `data` (whole blocks). A rewrite also clears the device's sticky
    /// and bit-flip marks over the range; one aimed at a dead device
    /// vanishes there.
    pub(crate) fn rewrite(
        &self,
        targets: &[Arc<dyn NvmeTarget>],
        home: u16,
        r: u32,
        slba: u64,
        data: &[u8],
    ) {
        let (t, at) = self.route(home, r, slba);
        targets[t as usize].dma_write(at, data);
    }

    /// Heal replica `dest` of the home extent at `slba` from the first
    /// good copy among `sources`, judged with everything the simulator
    /// knows. Returns whether a copy was found and written; an unhealable
    /// extent is left for the read path to surface as
    /// [`DlfsError::Corrupt`].
    pub(crate) fn heal(
        &self,
        targets: &[Arc<dyn NvmeTarget>],
        home: u16,
        slba: u64,
        sources: impl IntoIterator<Item = u32>,
        dest: u32,
        data: &mut [u8],
    ) -> bool {
        let (found, _) = self.first_good(targets, home, slba, sources, data, Probe::Oracle);
        if found.is_some() {
            self.rewrite(targets, home, dest, slba, data);
        }
        found.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sums_of(data: &[u8]) -> Arc<Vec<u64>> {
        Arc::new(
            data.chunks(BLOCK_SIZE as usize)
                .map(|b| {
                    let mut blk = b.to_vec();
                    blk.resize(BLOCK_SIZE as usize, 0);
                    fnv1a(&blk)
                })
                .collect(),
        )
    }

    #[test]
    fn routes_replicas_round_robin() {
        // 3 nodes, k=2: data_base 4096, slot 8192 everywhere.
        let slots = vec![(4096u64, 8192u64); 3];
        let r = Redundancy::new(2, slots, vec![]);
        // Home copy routes unchanged.
        assert_eq!(r.route(0, 0, 8), (0, 8));
        // Replica 1 of node 0 lives on node 1, at peer data_base + 1 slot,
        // preserving the block offset within the home data region.
        let (t, slba) = r.route(0, 1, 8);
        assert_eq!(t, 1);
        assert_eq!(slba, (4096 + 8192) / BLOCK_SIZE + (8 - 4096 / BLOCK_SIZE));
        // Wraps: replica 1 of node 2 lives on node 0.
        assert_eq!(r.route(2, 1, 8).0, 0);
    }

    #[test]
    fn pick_replica_skips_open_circuits() {
        let slots = vec![(0u64, 4096u64); 2];
        let r = Redundancy::new(2, slots, vec![]);
        let now = Time::ZERO + Dur::micros(10);
        assert_eq!(r.pick_replica(0, 0, now), 0);
        for _ in 0..HEALTH_THRESHOLD {
            r.health.record_failure(0, now);
        }
        // Node 0's circuit is open: replica 1 (on node 1) serves.
        assert_eq!(r.pick_replica(0, 0, now), 1);
        // Both open: fall back to the requested start.
        for _ in 0..HEALTH_THRESHOLD {
            r.health.record_failure(1, now);
        }
        assert_eq!(r.pick_replica(0, 0, now), 0);
        // Cooldown expiry half-opens node 0 again.
        assert_eq!(r.pick_replica(0, 0, now + health_cooldown()), 0);
    }

    #[test]
    fn pick_replica_never_routes_to_dead_targets() {
        let slots = vec![(0u64, 4096u64); 3];
        let r = Redundancy::new(2, slots, vec![]).with_membership(Dur::micros(100));
        let now = Time::ZERO + Dur::micros(10);
        // Sustained failures on node 0 escalate it to Dead.
        for _ in 0..HEALTH_THRESHOLD {
            r.record_failure(0, now);
        }
        assert!(!r.is_dead(0), "circuit open but outage not sustained yet");
        r.record_failure(0, now + Dur::micros(100));
        assert!(r.is_dead(0));
        // Replica 1 of home 0 (on node 1) serves; node 0 is skipped even
        // after its cooldown expires — Dead targets are never probed.
        let later = now + health_cooldown() * 10;
        assert_eq!(r.pick_replica(0, 0, later), 1);
        assert_eq!(r.pick_replica(0, 0, later), 1, "no half-open probe granted");
        // A stray success does not resurrect it…
        r.record_ok(0);
        assert!(r.is_dead(0));
        // …only an explicit rejoin does.
        r.rejoin(0).unwrap();
        assert!(!r.is_dead(0));
        assert_eq!(r.pick_replica(0, 0, later), 0);
    }

    #[test]
    fn rejoin_without_membership_is_a_typed_error() {
        let r = Redundancy::new(2, vec![(0u64, 4096u64); 2], vec![]);
        match r.rejoin(0) {
            Err(DlfsError::Config(m)) => assert!(m.contains("membership")),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn wrappers_track_suspect_recovery() {
        let slots = vec![(0u64, 4096u64); 2];
        let r = Redundancy::new(2, slots, vec![]).with_membership(Dur::micros(500));
        let now = Time::ZERO;
        for _ in 0..HEALTH_THRESHOLD {
            r.record_failure(1, now);
        }
        let m = r.membership.as_ref().unwrap();
        assert_eq!(m.state(1), fabric::NodeState::Suspect);
        r.record_ok(1);
        assert_eq!(m.state(1), fabric::NodeState::Alive);
        assert!(r.health.available(1, now));
    }

    /// The copy primitive over four copies of home 0's block 0 (replica
    /// `r` on node `r`, 8 blocks per replica slot): replica 1 on a
    /// membership-Dead node, replica 2 under a sticky bad extent, replica 3
    /// holding bytes the table does not know — with a table and without.
    #[test]
    fn copy_primitive_skips_dead_unreadable_and_mismatching_copies() {
        use blocksim::{DeviceConfig, FaultInjector, NvmeDevice};
        use Reject::{Mismatch, Unreadable};

        let block = BLOCK_SIZE as usize;
        let (good, wrong) = (vec![0xA5u8; block], vec![0x5Au8; block]);
        for table in [true, false] {
            let devices: Vec<_> = (0..4)
                .map(|_| NvmeDevice::new(DeviceConfig::optane(1 << 20)))
                .collect();
            let targets: Vec<Arc<dyn NvmeTarget>> =
                devices.iter().map(|d| d.clone() as _).collect();
            let sums = if table { 0..4 } else { 0..0 };
            let sums = sums.map(|_| Arc::new(vec![fnv1a(&good)])).collect();
            let r = Redundancy::with_geometry(4, vec![(0, 4096); 4], vec![1; 4], sums)
                .with_membership(Dur::micros(100));
            assert_eq!(r.stored[0], 1, "extent sized from geometry");
            let verdict =
                |copy, probe| r.read_copy(&targets, 0, copy, 0, &mut vec![0u8; block], probe);
            for (copy, bytes) in [(1, &good), (2, &good), (3, &wrong)] {
                r.rewrite(&targets, 0, copy, 0, bytes);
            }
            for at in [0, 0, 0, 100] {
                r.record_failure(1, Time::ZERO + Dur::micros(at));
            }
            assert!(r.is_dead(1));
            devices[2].set_faults(FaultInjector::new(1).with_bad_extent(16, 1));
            let mut blk = vec![0u8; block];
            if table {
                // Nothing healthy to copy from: the home block stays as it was.
                let found = r.first_good(&targets, 0, 0, 1..4, &mut blk, Probe::Oracle);
                assert_eq!(found, (None, vec![Unreadable, Unreadable, Mismatch]));
                assert!(!r.heal(&targets, 0, 0, 1..4, 0, &mut blk));
                assert_eq!(verdict(0, Probe::Oracle), Err(Mismatch));
                r.rewrite(&targets, 0, 3, 0, &good);
            }
            // The first copy that can be read and is not known to be wrong
            // heals — which, without a table, is whatever replica 3 holds.
            let found = r.first_good(&targets, 0, 0, 1..4, &mut blk, Probe::Oracle);
            assert_eq!(found, (Some(3), vec![Unreadable, Unreadable]));
            assert!(r.heal(&targets, 0, 0, 1..4, 0, &mut blk));
            assert_eq!(&blk, if table { &good } else { &wrong });
            assert_eq!(verdict(0, Probe::Oracle), Ok(()));
            // Membership is the candidate list's business, not the judge's:
            // the copy on the Dead node itself reads fine.
            assert_eq!(verdict(1, Probe::Media), Ok(()));
            // A silent flip: the oracle knows, a data path learns of it only
            // from the table.
            devices[0].set_faults(FaultInjector::new(2).with_bit_flips(0, 1));
            assert_eq!(verdict(0, Probe::Oracle), Err(Unreadable));
            let by_table = if table { Err(Mismatch) } else { Ok(()) };
            assert_eq!(verdict(0, Probe::Media), by_table);
            // A dead device is unreadable whoever asks; a rewrite heals a flip.
            devices[0].kill();
            assert_eq!(verdict(0, Probe::Media), Err(Unreadable));
            devices[0].revive();
            r.rewrite(&targets, 0, 0, 0, &blk);
            assert_eq!(verdict(0, Probe::Oracle), Ok(()));
        }
    }

    #[test]
    fn unreplicated_instances_track_no_health() {
        let r = Redundancy::new(1, vec![(0, 4096)], vec![]).with_membership(Dur::micros(100));
        assert!(!r.in_use());
        for at in [0, 0, 0, 100, 200] {
            assert!(!r.record_failure(0, Time::ZERO + Dur::micros(at)));
        }
        assert!(!r.is_dead(0) && r.check_alive(0).is_ok());
        assert!(r.health.available(0, Time::ZERO + Dur::micros(200)));
        assert!(r.verify_blocks(0, 0, &[7u8; 512]), "no table: vacuous");
    }

    #[test]
    fn verifies_blocks_against_table() {
        let data: Vec<u8> = (0..2 * BLOCK_SIZE as usize + 100)
            .map(|i| (i % 251) as u8)
            .collect();
        let mut padded = data.clone();
        padded.resize(3 * BLOCK_SIZE as usize, 0);
        let r = Redundancy::new(1, vec![(1024, 4096)], vec![sums_of(&data)]);
        assert!(r.verify());
        assert_eq!(r.stored[0], 3);
        let base = 1024 / BLOCK_SIZE;
        assert!(r.verify_blocks(0, base, &padded));
        assert!(r.verify_blocks(0, base + 1, &padded[BLOCK_SIZE as usize..]));
        let mut bad = padded.clone();
        bad[600] ^= 0x40;
        assert!(!r.verify_blocks(0, base, &bad));
        // Blocks past the table (unstaged tail of a chunk) are vacuous.
        assert!(r.verify_blocks(0, base + 3, &vec![7u8; BLOCK_SIZE as usize]));
    }
}
