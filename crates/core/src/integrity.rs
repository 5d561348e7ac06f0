//! End-to-end chunk integrity and replica routing.
//!
//! A [`Redundancy`] is built at mount time whenever the configuration asks
//! for more than the bare default — `replicas > 1` and/or
//! `verify_reads` — and travels in [`crate::io::DlfsShared`]. It answers
//! three questions the read engine keeps asking:
//!
//! 1. **Where does replica `r` of home node `h`'s blocks live?**
//!    Replica `r` of home `h` is hosted by node `(h + r) mod N`, inside
//!    that node's replica slot `r` (see
//!    [`crate::layout::Superblock::plan`]). Slot 0 is always the
//!    node's own data, so `r = 0` routes to the home node unchanged.
//! 2. **Are these bytes the bytes the import staged?** The per-block
//!    FNV-1a table computed client-side during upload (and persisted in
//!    the layout's integrity region) is checked against every block a
//!    read path delivers — batched engine completions, prefetches, the
//!    sync `read_entry` path and the zero-copy path all verify *before*
//!    anything is published into the sample cache.
//! 3. **Which replica should serve the next attempt?** A shared
//!    [`TargetHealth`] circuit breaker records per-target failures;
//!    [`Redundancy::pick_replica`] rotates to the first replica whose
//!    target circuit is closed, so a dead or quarantined node stops
//!    eating retry budget.
//!
//! With the default configuration (`replicas == 1`, `verify_reads` off)
//! no `Redundancy` is built at all and every read path takes its
//! historical branch — outputs stay byte-identical.

use std::sync::Arc;

use crate::error::DlfsError;
use crate::layout::replica_offset;
use blocksim::BLOCK_SIZE;
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
    /// Per storage node: expected FNV-1a of each 512 B block of its own
    /// (slot 0) data region, in block order. Empty when reads are not
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

impl Redundancy {
    /// Wire up redundancy over `slots.len()` storage nodes. `sums` may be
    /// empty (no verification) or one table per node.
    pub fn new(replicas: u32, slots: Vec<(u64, u64)>, sums: Vec<Arc<Vec<u64>>>) -> Redundancy {
        assert!(replicas >= 1 && replicas as usize <= slots.len());
        assert!(sums.is_empty() || sums.len() == slots.len());
        let health = TargetHealth::new(slots.len(), HEALTH_THRESHOLD, health_cooldown());
        Redundancy {
            replicas,
            slots,
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

    /// Is `target` declared permanently Dead by the membership view?
    /// Always `false` without a membership layer.
    pub fn is_dead(&self, target: usize) -> bool {
        self.membership.as_ref().is_some_and(|m| m.is_dead(target))
    }

    /// Record a successful operation against `target`: closes its health
    /// circuit and clears a Suspect membership state (Dead stays Dead).
    pub fn record_ok(&self, target: usize) {
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
    /// this failure opened (or re-armed) the circuit.
    pub fn record_failure(&self, target: usize, now: Time) -> bool {
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
    /// staged data region (chunk-rounded reads) are vacuously good.
    /// Returns `true` when every covered block matches its table entry.
    pub fn verify_blocks(&self, home: u16, slba: u64, data: &[u8]) -> bool {
        let sums = &self.sums[home as usize];
        if sums.is_empty() {
            return true;
        }
        let (home_base, _) = self.slots[home as usize];
        debug_assert!(slba >= home_base / BLOCK_SIZE, "read below data region");
        let start = (slba - home_base / BLOCK_SIZE) as usize;
        debug_assert_eq!(data.len() % BLOCK_SIZE as usize, 0);
        data.chunks_exact(BLOCK_SIZE as usize)
            .enumerate()
            .all(|(i, blk)| sums.get(start + i).is_none_or(|&s| fnv1a(blk) == s))
    }

    /// Number of data blocks the integrity table covers on `home` (0 when
    /// verification is off).
    pub fn data_blocks(&self, home: u16) -> u64 {
        self.sums
            .get(home as usize)
            .map(|s| s.len() as u64)
            .unwrap_or(0)
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

    #[test]
    fn verifies_blocks_against_table() {
        let data: Vec<u8> = (0..2 * BLOCK_SIZE as usize + 100)
            .map(|i| (i % 251) as u8)
            .collect();
        let mut padded = data.clone();
        padded.resize(3 * BLOCK_SIZE as usize, 0);
        let r = Redundancy::new(1, vec![(1024, 4096)], vec![sums_of(&data)]);
        assert!(r.verify());
        assert_eq!(r.data_blocks(0), 3);
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
