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
//! 2. **Which replica should serve the next timed attempt?** One shared
//!    [`TargetStates`] machine hears what every command came to (an
//!    [`Outcome`]: a checksum mismatch has none, it is an extent's fault;
//!    and only on replicated instances: a lone copy has nowhere to route
//!    to); [`Redundancy::pick_replica`] rotates to the first replica whose
//!    target is routable, so a dead or quarantined node stops eating retry
//!    budget.
//! 3. **Are these bytes the bytes the import staged?** The per-block
//!    FNV-1a table computed client-side during upload (and persisted in
//!    the layout's integrity region) is checked against every block a
//!    read path delivers, *before* anything is published into the sample
//!    cache ([`Redundancy::verify_blocks`]; vacuous without a table).
//! 4. **Is this copy good, which copy is, and how is a bad one healed?**
//!    The untimed copy primitive of the healers — `read_copy` (read
//!    replica `r` of a home extent and judge it: serving device readable
//!    as far as the simulator knows, bytes matching the table when there
//!    is one, then the caller's own acceptance test), `first_good` (the
//!    first copy of a candidate list whose target is not Dead and that
//!    `read_copy` accepts), `rewrite` and `heal` — serves scrub, rebuild
//!    and `fsck_repair` alike. Every judgement is a [`Verdict`], the one a
//!    fetched part gets in the check stage (`check.rs`), which is
//!    where a data path — client parts and the offload path alike —
//!    judges, decodes and read-repairs a copy.
//! 5. **Which blocks of a home's data region hold data at all?** Its
//!    *stored blocks* (`Redundancy::stored`), one run from the start of
//!    the region: all of its data without a codec, its frames' encoded
//!    bytes back to back with one ([`crate::codec`]). Scrub and rebuild
//!    walk them (`rebuild::Background`); what lies past the run was never
//!    written by this import and is never judged, copied or repaired.
//!
//! `Redundancy::in_use` is what "redundancy is configured" means
//! (`replicas > 1` or `verify_reads`): the `dlfs.integrity.*` scope and
//! [`crate::DlfsInstance::redundancy`] exist only then, so outputs of the
//! default configuration stay byte-identical.

use std::sync::Arc;

use crate::error::{CorruptCause, DlfsError, IoFailure};
use crate::layout::{replica_host, replica_offset};
use blocksim::{NvmeTarget, BLOCK_SIZE};
use fabric::{Outcome, TargetState, TargetStates};
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
    /// The state of every storage node, shared by every reader.
    pub states: Arc<TargetStates>,
    /// `states` again when the configuration set
    /// [`crate::DlfsConfig::fail_dead_after`], its death policy: a target
    /// Suspect that long is Dead, which routing then skips entirely (no
    /// probes, no retries — replicas serve) until a rebuild rejoins it.
    pub membership: Option<Arc<TargetStates>>,
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

/// Why a copy's bytes cannot be served, if they cannot: never read
/// (`Io`), failing the integrity table (`Checksum`), not a frame
/// (`Frame`), or whatever else the caller's acceptance test says.
pub(crate) type Verdict = Result<(), CorruptCause>;

/// The verdict on a copy that was never read: its target Dead, its
/// device dead, or the range under a persistent fault.
pub(crate) const UNREADABLE: CorruptCause = CorruptCause::Io(IoFailure::Media);

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
        let states = TargetStates::new(slots.len(), HEALTH_THRESHOLD, health_cooldown(), None);
        Redundancy {
            replicas,
            slots,
            stored,
            sums,
            states: Arc::new(states),
            membership: None,
        }
    }

    /// Give the machine a death policy: a target continuously Suspect for
    /// `dead_after` is declared Dead at its next failure or probe.
    pub fn with_membership(mut self, dead_after: Dur) -> Redundancy {
        let n = self.slots.len();
        let states = TargetStates::new(n, HEALTH_THRESHOLD, health_cooldown(), Some(dead_after));
        self.states = Arc::new(states);
        self.membership = Some(self.states.clone());
        self
    }

    /// Is redundancy configured at all — more than one copy, or checksummed
    /// reads? Only then do its metrics and accessors exist.
    pub(crate) fn in_use(&self) -> bool {
        self.replicas > 1 || self.verify()
    }

    /// Is `target` declared permanently Dead? Never without a death
    /// policy.
    pub fn is_dead(&self, target: usize) -> bool {
        self.states.state(target) == TargetState::Dead
    }

    /// Degraded mode for writers: a typed [`DlfsError::Degraded`] naming
    /// the view that declared `node` Dead, instead of letting every write
    /// burn its retry budget timing out against it.
    pub(crate) fn check_alive(&self, node: u16) -> Result<(), DlfsError> {
        if !self.is_dead(node as usize) {
            return Ok(());
        }
        Err(DlfsError::Degraded {
            node,
            view_epoch: self.states.view_epoch(),
        })
    }

    /// Record what a command against `target` came to at `now`. Routing
    /// state is kept only where it can change a routing decision: a no-op
    /// on an unreplicated instance.
    pub fn observe(&self, target: usize, outcome: Outcome, now: Time) {
        if self.replicas > 1 {
            self.states.observe(target, outcome, now);
        }
    }

    /// Re-admit a rebuilt target: Alive, its circuit closed, the view
    /// epoch bumped.
    ///
    /// Without a death policy there is no Dead state to clear, so a rejoin
    /// is a configuration contradiction (replicas + rebuild were asked for,
    /// but no policy can declare or re-admit Dead targets) — surfaced as a
    /// typed error instead of silently doing nothing.
    pub fn rejoin(&self, target: usize) -> Result<(), DlfsError> {
        if self.membership.is_none() {
            return Err(DlfsError::Config(format!(
                "rejoin of storage node {target} requires a membership policy: \
                 set fail_dead_after so replicas+rebuild can declare and \
                 re-admit Dead targets"
            )));
        }
        self.states.rejoin(target);
        Ok(())
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
        let peer = replica_host(home as usize, r as usize, self.slots.len());
        let (home_base, _) = self.slots[home as usize];
        let (peer_base, peer_slot) = self.slots[peer];
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
    /// routable at `now` ([`TargetStates::try_probe`]: Alive, or granted the
    /// one half-open probe of this cooldown expiry). Falls back to the first
    /// replica not Dead when none is (better to probe a quarantined target
    /// than to give up without trying), and to `start` only when the whole
    /// rotation is Dead.
    pub fn pick_replica(&self, home: u16, start: u32, now: Time) -> u32 {
        if self.replicas == 1 {
            return 0;
        }
        let start = start % self.replicas;
        let mut fallback = None;
        for i in 0..self.replicas {
            let r = (start + i) % self.replicas;
            let (t, _) = self.route(home, r, self.slots[home as usize].0 / BLOCK_SIZE);
            if self.states.try_probe(t as usize, now) {
                return r;
            }
            if fallback.is_none() && !self.is_dead(t as usize) {
                fallback = Some(r);
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

    // ------------------------------------------ the untimed copy primitive --
    //
    // Untimed and draw-free: `fault_decide*` is never asked here (it draws,
    // and would shift every seeded fault replay). The healers exist to
    // locate latent damage, so their judge knows what the simulator knows
    // (`probe_extent`: silent flips too).

    /// Read replica `r`'s copy of the home extent at `slba` (home
    /// coordinates, `data.len()` whole blocks) into `data` and judge it:
    /// the serving device must be able to return the range, the bytes must
    /// match the integrity table when there is one, and then pass the
    /// caller's `accept`. Membership is not asked: a copy on a Dead node
    /// that a rebuild has already written is a good copy.
    pub(crate) fn read_copy(
        &self,
        targets: &[Arc<dyn NvmeTarget>],
        home: u16,
        r: u32,
        slba: u64,
        data: &mut [u8],
        accept: impl FnOnce(&[u8]) -> Verdict,
    ) -> Verdict {
        let (t, at) = self.route(home, r, slba);
        let target = &targets[t as usize];
        if target.probe_extent(at, (data.len() / BLOCK_SIZE as usize) as u32) {
            return Err(UNREADABLE);
        }
        target.dma_read(at, data);
        if !self.verify_blocks(home, slba, data) {
            return Err(CorruptCause::Checksum);
        }
        accept(data)
    }

    /// The first of `candidates` (replica indices, tried in order) whose
    /// serving target is not Dead and whose copy
    /// [`Redundancy::read_copy`] accepts — its bytes are then in `data` —
    /// or the verdict on the last one tried.
    pub(crate) fn first_good(
        &self,
        targets: &[Arc<dyn NvmeTarget>],
        home: u16,
        slba: u64,
        candidates: impl IntoIterator<Item = u32>,
        data: &mut [u8],
        mut accept: impl FnMut(&[u8]) -> Verdict,
    ) -> Result<u32, CorruptCause> {
        let mut last = UNREADABLE;
        for r in candidates {
            let verdict = match self.is_dead(self.route(home, r, slba).0 as usize) {
                true => Err(UNREADABLE),
                false => self.read_copy(targets, home, r, slba, data, &mut accept),
            };
            match verdict {
                Ok(()) => return Ok(r),
                Err(why) => last = why,
            }
        }
        Err(last)
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
    /// good copy among `sources` ([`Redundancy::first_good`]). Returns the
    /// verdict on the last source when none was good, and writes nothing:
    /// an unhealable extent is left for the read path to surface as
    /// [`DlfsError::Corrupt`].
    pub(crate) fn heal(
        &self,
        targets: &[Arc<dyn NvmeTarget>],
        (home, slba): (u16, u64),
        sources: impl IntoIterator<Item = u32>,
        dest: u32,
        data: &mut [u8],
        accept: impl FnMut(&[u8]) -> Verdict,
    ) -> Verdict {
        self.first_good(targets, home, slba, sources, data, accept)?;
        self.rewrite(targets, home, dest, slba, data);
        Ok(())
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
            r.observe(0, Outcome::Media, now);
        }
        // Node 0's circuit is open: replica 1 (on node 1) serves.
        assert_eq!(r.pick_replica(0, 0, now), 1);
        // Both open: fall back to the requested start.
        for _ in 0..HEALTH_THRESHOLD {
            r.observe(1, Outcome::Media, now);
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
            r.observe(0, Outcome::Timeout, now);
        }
        assert!(!r.is_dead(0), "circuit open but outage not sustained yet");
        r.observe(0, Outcome::Timeout, now + Dur::micros(100));
        assert!(r.is_dead(0));
        // Replica 1 of home 0 (on node 1) serves; node 0 is skipped even
        // after its cooldown expires — Dead targets are never probed.
        let later = now + health_cooldown() * 10;
        assert_eq!(r.pick_replica(0, 0, later), 1);
        assert_eq!(r.pick_replica(0, 0, later), 1, "no half-open probe granted");
        // A stray success does not resurrect it…
        r.observe(0, Outcome::Ok, later);
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

    /// The copy primitive over four copies of home 0's block 0 (replica
    /// `r` on node `r`, 8 blocks per replica slot): replica 1 on a
    /// Dead node, replica 2 under a sticky bad extent, replica 3
    /// holding bytes the table does not know — with a table and without —
    /// and a caller's acceptance test with the last word.
    #[test]
    fn copy_primitive_skips_dead_unreadable_and_mismatching_copies() {
        use blocksim::{DeviceConfig, FaultInjector, NvmeDevice};
        use CorruptCause::{Checksum, Frame};

        let block = BLOCK_SIZE as usize;
        let (good, wrong) = (vec![0xA5u8; block], vec![0x5Au8; block]);
        let any = |_: &[u8]| Ok(());
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
            let verdict = |copy| r.read_copy(&targets, 0, copy, 0, &mut vec![0u8; block], any);
            for (copy, bytes) in [(1, &good), (2, &good), (3, &wrong)] {
                r.rewrite(&targets, 0, copy, 0, bytes);
            }
            for at in [0, 0, 0, 100] {
                r.observe(1, Outcome::Timeout, Time::ZERO + Dur::micros(at));
            }
            assert!(r.is_dead(1));
            devices[2].set_faults(FaultInjector::new(1).with_bad_extent(16, 1));
            let mut blk = vec![0u8; block];
            if table {
                // Nothing healthy to copy from: the home block stays as it
                // was, and the verdict is the last copy's.
                let found = r.first_good(&targets, 0, 0, 1..4, &mut blk, any);
                assert_eq!(found, Err(Checksum));
                assert_eq!(
                    r.heal(&targets, (0, 0), 1..4, 0, &mut blk, any),
                    Err(Checksum)
                );
                assert_eq!(verdict(0), Err(Checksum));
                r.rewrite(&targets, 0, 3, 0, &good);
            }
            // The caller's test turns down what the table accepts.
            let picky = |_: &[u8]| Err(Frame);
            assert_eq!(
                r.first_good(&targets, 0, 0, 1..4, &mut blk, picky),
                Err(Frame)
            );
            // The first copy that can be read and is not known to be wrong
            // heals — which, without a table, is whatever replica 3 holds.
            assert_eq!(r.first_good(&targets, 0, 0, 1..4, &mut blk, any), Ok(3));
            assert_eq!(r.heal(&targets, (0, 0), 1..4, 0, &mut blk, any), Ok(()));
            assert_eq!(&blk, if table { &good } else { &wrong });
            assert_eq!(verdict(0), Ok(()));
            // Membership is the candidate list's business, not the judge's:
            // the copy on the Dead node itself reads fine.
            assert_eq!(verdict(1), Ok(()));
            // A silent flip: the healers' judge knows what the simulator
            // knows.
            devices[0].set_faults(FaultInjector::new(2).with_bit_flips(0, 1));
            assert_eq!(verdict(0), Err(UNREADABLE));
            // A dead device is unreadable; a rewrite heals a flip.
            devices[0].kill();
            assert_eq!(verdict(0), Err(UNREADABLE));
            devices[0].revive();
            r.rewrite(&targets, 0, 0, 0, &blk);
            assert_eq!(verdict(0), Ok(()));
        }
    }

    #[test]
    fn unreplicated_instances_track_no_health() {
        let r = Redundancy::new(1, vec![(0, 4096)], vec![]).with_membership(Dur::micros(100));
        assert!(!r.in_use());
        for at in [0, 0, 0, 100, 200] {
            r.observe(0, Outcome::Timeout, Time::ZERO + Dur::micros(at));
        }
        assert_eq!(r.states.state(0), TargetState::Alive { failures: 0 });
        assert!(!r.is_dead(0) && r.check_alive(0).is_ok());
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
