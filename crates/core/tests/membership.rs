//! Cluster membership, degraded-mode serving, and automated rebuild under
//! permanent target loss: sustained circuit-open escalates a node to Dead
//! under `fail_dead_after`, reads route around it via replicas, writes
//! fail fast with a typed `Degraded` error, and re-replication restores
//! full redundancy onto a replacement device — ending `fsck`-clean. All
//! deterministic: same-seed runs are byte-identical, and configurations
//! without the membership knob build none of it.

mod common;

use std::sync::Arc;

use blocksim::{NvmeDevice, NvmeTarget};
use common::{ramdisk, test_seed};
use dlfs::source::SampleSource;
use dlfs::{
    fsck_node, Completions, Deployment, DlfsConfig, DlfsError, DlfsIo, FsckState, ReadRequest,
    SyntheticSource,
};
use fabric::{Outcome, TargetState};
use simkit::prelude::*;
use simkit::rng::{fnv1a, SplitMix64};
use simkit::telemetry::Registry;

/// The chunk size of every import here.
const CHUNK: u64 = 8 * 1024;

/// Replicated + verified + membership-enabled config over small chunks.
fn membership_cfg(replicas: usize) -> DlfsConfig {
    DlfsConfig {
        chunk_size: CHUNK,
        replicas,
        verify_reads: true,
        fail_dead_after: Some(Dur::micros(300)),
        ..DlfsConfig::default()
    }
}

/// Drain the rest of the current epoch, verifying every payload, with a
/// hook invoked once after `kill_after` samples (pass `usize::MAX` for
/// none). Returns an order-insensitive checksum of the delivered bytes.
fn drain_epoch(
    rt: &Runtime,
    io: &mut DlfsIo,
    source: &dyn SampleSource,
    total: usize,
    kill_after: usize,
    mut hook: impl FnMut(),
) -> u64 {
    let mut seen = vec![false; source.count()];
    let mut delivered = 0usize;
    let mut checksum = 0u64;
    let mut fired = false;
    loop {
        if delivered >= kill_after && !fired {
            fired = true;
            hook();
        }
        match io
            .submit(rt, &ReadRequest::batch(32))
            .map(Completions::into_copied)
        {
            Ok(batch) => {
                for (id, data) in batch {
                    let mut expect = vec![0u8; source.size(id) as usize];
                    source.fill(id, &mut expect);
                    assert_eq!(data, expect, "sample {id} corrupted");
                    assert!(!seen[id as usize], "sample {id} delivered twice");
                    seen[id as usize] = true;
                    delivered += 1;
                    checksum ^= fnv1a(&data).wrapping_mul(2 * id as u64 + 1);
                }
            }
            Err(DlfsError::EpochExhausted) => break,
            Err(e) => panic!("epoch failed: {e}"),
        }
    }
    assert_eq!(delivered, total, "epoch must complete");
    checksum
}

/// Simulate swapping in a factory-fresh replacement device under the same
/// node index: bring the (previously killed) device back online and wipe
/// its media clean.
/// A device's bytes before `data_base`: superblock, metadata and tables.
fn regions(dev: &NvmeDevice, data_base: u64) -> Vec<u8> {
    let mut bytes = vec![0u8; data_base as usize];
    dev.storage().read_at(0, &mut bytes);
    bytes
}

fn replace_with_fresh(dev: &Arc<NvmeDevice>, bytes: u64) {
    dev.revive();
    dev.dma_write(0, &vec![0u8; bytes as usize]);
}

fn assert_fsck_clean(targets: &[Arc<dyn NvmeTarget>]) {
    for node in 0..targets.len() as u16 {
        let rep = fsck_node(&targets[node as usize], node, true);
        assert!(
            matches!(rep.state, FsckState::Clean { .. }),
            "node {node} not fsck-clean: {:?}",
            rep.state
        );
        assert!(rep.meta_checksum_ok, "node {node} meta checksum bad");
        assert_eq!(
            rep.data_checksum_ok,
            Some(true),
            "node {node} deep data checksums bad"
        );
    }
}

/// Configurations without `fail_dead_after` — including replicated,
/// verified ones — build no membership view and register no
/// `dlfs.membership.*` / `dlfs.rebuild.*` metrics.
#[test]
fn replica_configs_without_the_knob_build_no_membership() {
    Runtime::simulate(test_seed(90), |rt| {
        let source = SyntheticSource::fixed(21, 300, 2048);
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let cfg = DlfsConfig {
            chunk_size: CHUNK,
            replicas: 2,
            verify_reads: true,
            ..DlfsConfig::default()
        };
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(Deployment::local(1, &devices))
            .mount(rt, &source)
            .unwrap();
        let red = fs.redundancy().expect("replicas build redundancy");
        assert!(red.membership.is_none());
        assert!(!red.is_dead(0));
        let mut io = fs.io(0);
        io.sequence(rt, 1, 0);
        io.submit(rt, &ReadRequest::batch(8)).unwrap();
        // Asking for a rebuild anyway is a configuration contradiction:
        // without a membership policy nothing can be declared Dead or
        // rejoined, so it surfaces typed instead of silently planning 0.
        match io.begin_rebuild(0) {
            Err(DlfsError::Config(m)) => assert!(m.contains("membership"), "{m}"),
            other => panic!("want Config error, got {other:?}"),
        }
        assert!(!io.rebuild_active(), "refused rebuild must not start");
        let render = io.metrics().render();
        assert!(!render.contains("dlfs.membership"));
        assert!(!render.contains("dlfs.rebuild"));
        // No outage escalates without the knob, however long it lasts, and
        // a rejoin is a typed configuration error.
        let at = |ms| rt.now() + Dur::millis(ms);
        for ms in 0..20 {
            red.observe(0, Outcome::Timeout, at(ms));
        }
        assert!(!red.is_dead(0), "no escalation");
        assert!(
            red.states.try_probe(0, at(21)),
            "probed after every cooldown"
        );
        assert!(matches!(red.rejoin(0), Err(DlfsError::Config(_))));
    });
}

/// Regression: a rebuild of a node the deployment does not have is refused
/// typed, naming the node and the node count, and arms nothing. It used to
/// be an assertion panic in `RebuildPlan::for_dead_node`, in release too.
#[test]
fn rebuild_of_a_node_past_the_deployment_is_refused() {
    Runtime::simulate(test_seed(99), |rt| {
        let source = SyntheticSource::fixed(29, 300, 2048);
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(membership_cfg(2))
            .deployment(Deployment::local(1, &devices))
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        match io.begin_rebuild(7) {
            Err(DlfsError::Config(m)) => {
                assert!(m.contains("node 7") && m.contains("2 storage node"), "{m}")
            }
            other => panic!("want Config error, got {other:?}"),
        }
        assert!(!io.rebuild_active(), "refused rebuild must not start");
        assert_eq!(io.rebuild_remaining(), 0);
    });
}

/// Regression: a rebuild moves only when its caller steps it. An armed
/// rebuild used to be walked 64 blocks at a time whenever the reactor
/// parked with nothing in flight — which only an offloaded batch's wait
/// did — so its pace hung on the read path an epoch took.
#[test]
fn an_armed_rebuild_waits_for_its_caller_on_either_read_path() {
    Runtime::simulate(test_seed(100), |rt| {
        let source = SyntheticSource::fixed(30, 600, 2048);
        let devices: Vec<_> = (0..3).map(|_| ramdisk(64 << 20)).collect();
        let cfg = DlfsConfig {
            offload: true,
            ..membership_cfg(2)
        };
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(Deployment::local(1, &devices))
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let planned = io.begin_rebuild(1).unwrap();
        // One epoch per path: an epoch is served by one of them.
        for (epoch, req) in [ReadRequest::batch(32).offload(), ReadRequest::batch(32)]
            .into_iter()
            .enumerate()
        {
            io.sequence(rt, 85, epoch as u64);
            let batch = io.submit(rt, &req).unwrap().into_copied();
            assert_eq!(batch.len(), 32);
            assert_eq!(io.rebuild_remaining(), planned, "offload={}", req.offload);
        }
        assert_eq!(io.rebuild_step(u64::MAX), planned);
        assert!(!io.rebuild_active());
    });
}

/// The acceptance scenario end to end: kill one target permanently
/// mid-epoch with `replicas = 2`. The epoch completes byte-correct in
/// degraded mode, the membership view escalates the node to Dead (epoch
/// bumps included), writes to it fail with a typed `Degraded`, and an
/// automated rebuild onto a fresh replacement restores full redundancy —
/// post-rebuild deep fsck Clean on every node with zero chunks at risk.
fn membership_run(seed: u64) -> (u64, u64, String) {
    let ((checksum, render), end) = Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(22, 1200, 2048);
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(membership_cfg(2))
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &source)
            .unwrap();
        let red = fs.redundancy().expect("redundancy built").clone();
        let membership = red.membership.as_ref().expect("membership built");
        assert_eq!(membership.view_epoch(), 0);
        let data_base = fs.layout(1).expect("persistent").data_base;
        let imported = regions(&devices[1], data_base);

        // Epoch 0: node 1 dies permanently a third of the way in. Every
        // sample still arrives byte-correct, served from replicas.
        let mut io = fs.io(0);
        let total = io.sequence(rt, 31, 0);
        let mut checksum = drain_epoch(rt, &mut io, &source, total, total / 3, || {
            devices[1].kill();
        });

        // Sustained failure escalated node 1 through Suspect to Dead, each
        // transition bumping the shared view epoch.
        assert!(red.is_dead(1), "sustained outage must escalate to Dead");
        assert_eq!(membership.state(1), TargetState::Dead);
        assert!(membership.view_epoch() >= 2, "Suspect and Dead each bump");
        let m = io.metrics();
        assert_eq!(m.counter("dlfs.membership.deaths"), 1);
        assert_eq!(m.gauge("dlfs.membership.node1.state"), 2);
        assert_eq!(
            m.gauge("dlfs.membership.view_epoch"),
            membership.view_epoch() as i64
        );

        // Degraded mode: writes targeting the dead node fail fast and
        // typed, instead of burning retry budget timing out.
        match fs.checkpoint_writer(rt, 0, 1, None) {
            Err(DlfsError::Degraded { node, view_epoch }) => {
                assert_eq!(node, 1);
                assert_eq!(view_epoch, membership.view_epoch());
            }
            Err(other) => panic!("want Degraded, got {other:?}"),
            Ok(_) => panic!("want Degraded, got a live writer"),
        }
        // Live nodes still accept checkpoint writes.
        assert!(fs.checkpoint_writer(rt, 0, 0, None).is_ok());

        // A fresh replacement device joins under the same index; the
        // rebuild planner enumerates everything node 1 hosted.
        replace_with_fresh(&devices[1], 64 << 20);
        let planned = io.begin_rebuild(1).unwrap();
        assert!(planned > 0, "a dead node's slots are never empty here");
        assert!(io.rebuild_active());
        assert!(io.metrics().gauge("dlfs.rebuild.chunks_at_risk") > 0);

        // Epoch 1 runs with the rebuild armed: still degraded (node 1 stays
        // Dead until the rebuild verifies complete), still byte-correct,
        // and the rebuild has not moved — a caller paces it.
        let total = io.sequence(rt, 31, 1);
        checksum ^= drain_epoch(rt, &mut io, &source, total, usize::MAX, || {}).rotate_left(1);
        assert!(red.is_dead(1), "rejoin only after a complete rebuild");
        assert_eq!(io.rebuild_remaining(), planned);

        // Finish the rebuild synchronously: full redundancy restored,
        // node 1 rejoined, nothing at risk, deep fsck clean everywhere —
        // the replacement is indistinguishable from the original import,
        // down to the bytes of its superblock, metadata and tables.
        io.rebuild_step(u64::MAX);
        assert_eq!(regions(&devices[1], data_base), imported);
        assert!(!io.rebuild_active());
        assert_eq!(io.rebuild_remaining(), 0);
        let m = io.metrics();
        assert_eq!(m.counter("dlfs.rebuild.completed"), 1);
        assert_eq!(m.counter("dlfs.rebuild.blocks_failed"), 0);
        assert!(m.counter("dlfs.rebuild.blocks_rebuilt") > 0);
        assert_eq!(m.gauge("dlfs.rebuild.chunks_at_risk"), 0);
        assert!(!red.is_dead(1));
        assert_eq!(membership.state(1), TargetState::Alive { failures: 0 });
        assert_eq!(m.counter("dlfs.membership.rejoins"), 1);
        assert_fsck_clean(&fs.shared(0).targets);
        // The rebuilt node accepts checkpoint writes again.
        assert!(fs.checkpoint_writer(rt, 0, 1, None).is_ok());

        // Epoch 2 reads the rebuilt node directly, byte-correct.
        let total = io.sequence(rt, 31, 2);
        checksum ^= drain_epoch(rt, &mut io, &source, total, usize::MAX, || {}).rotate_left(2);
        (checksum, io.metrics().render())
    });
    (checksum, end.nanos(), render)
}

#[test]
fn permanent_loss_escalates_serves_degraded_and_rebuilds() {
    membership_run(test_seed(91));
}

/// Same seed, same bytes, same virtual end time, same telemetry — the
/// whole failure + rebuild story replays bit-identically.
#[test]
fn same_seed_membership_runs_are_byte_identical() {
    let a = membership_run(test_seed(92));
    let b = membership_run(test_seed(92));
    assert_eq!(a.0, b.0, "delivered bytes diverged");
    assert_eq!(a.1, b.1, "virtual end time diverged");
    assert_eq!(a.2, b.2, "telemetry snapshots diverged");
    assert!(a.2.contains("dlfs.membership.view_epoch"));
    assert!(a.2.contains("dlfs.rebuild.blocks_rebuilt"));
}

/// Rolling failures: two different nodes die permanently, one after the
/// other, each rebuilt and rejoined before the next loss. A restarted
/// node that kept its media resyncs via the catch-up path (clean blocks
/// are verified and skipped, not recopied).
#[test]
fn rolling_failures_rebuild_and_rejoin_in_sequence() {
    Runtime::simulate(test_seed(93), |rt| {
        let source = SyntheticSource::fixed(23, 900, 2048);
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(membership_cfg(2))
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &source)
            .unwrap();
        let red = fs.redundancy().unwrap().clone();
        let mut io = fs.io(0);
        for (round, victim) in [1usize, 2usize].into_iter().enumerate() {
            let total = io.sequence(rt, 41, round as u64);
            drain_epoch(rt, &mut io, &source, total, total / 4, || {
                devices[victim].kill();
            });
            assert!(red.is_dead(victim), "round {round}: no escalation");
            // The node restarts with its media intact: catch-up resync.
            devices[victim].revive();
            assert!(io.begin_rebuild(victim as u16).unwrap() > 0);
            io.rebuild_step(u64::MAX);
            assert!(!red.is_dead(victim), "round {round}: no rejoin");
            let m = io.metrics();
            assert_eq!(m.counter("dlfs.rebuild.completed"), round as u64 + 1);
            assert_eq!(m.counter("dlfs.rebuild.blocks_failed"), 0);
            assert!(
                m.counter("dlfs.rebuild.blocks_clean") > 0,
                "round {round}: intact media must resync, not recopy"
            );
        }
        assert_fsck_clean(&fs.shared(0).targets);
        let total = io.sequence(rt, 41, 2);
        drain_epoch(rt, &mut io, &source, total, usize::MAX, || {});
    });
}

/// A second node dies *mid-rebuild*: with `replicas = 3` the copy loop
/// skips the newly-failing source and falls back to the remaining
/// replica. The rebuild still completes with zero failed blocks.
#[test]
fn mid_rebuild_source_death_falls_back_to_surviving_replica() {
    Runtime::simulate(test_seed(94), |rt| {
        let source = SyntheticSource::fixed(24, 800, 2048);
        let devices: Vec<_> = (0..4).map(|_| ramdisk(64 << 20)).collect();
        let fs = dlfs::MountBuilder::new(membership_cfg(3))
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &source)
            .unwrap();
        let red = fs.redundancy().unwrap().clone();
        let mut io = fs.io(0);
        let total = io.sequence(rt, 51, 0);
        drain_epoch(rt, &mut io, &source, total, total / 4, || {
            devices[1].kill();
        });
        assert!(red.is_dead(1));
        replace_with_fresh(&devices[1], 64 << 20);
        let planned = io.begin_rebuild(1).unwrap();
        assert!(planned > 64, "plan too small to interrupt");
        // Walk a slice, then lose one of the surviving source nodes.
        io.rebuild_step(64);
        devices[2].kill();
        io.rebuild_step(u64::MAX);
        let m = io.metrics();
        assert_eq!(m.counter("dlfs.rebuild.completed"), 1);
        assert_eq!(
            m.counter("dlfs.rebuild.blocks_failed"),
            0,
            "a third replica must cover every block node 2 can no longer serve"
        );
        assert!(!red.is_dead(1), "rebuilt node must rejoin");
        let rep = fsck_node(&fs.shared(0).targets[1], 1, true);
        assert!(
            matches!(rep.state, FsckState::Clean { .. }),
            "{:?}",
            rep.state
        );
        assert_eq!(rep.data_checksum_ok, Some(true));
    });
}

/// Regression guard for the interleaved staging feed: one reader fills
/// four devices at once, so with `replicas = 3` the two mirror streams
/// that land on one peer interleave. Sizes that are not block multiples
/// make any mirror writer shared by two homes start runs off a block
/// boundary; (peer, slot)-keyed writers keep each mirror one contiguous
/// run. Two of four nodes then die mid-epoch: every sample must still
/// arrive byte-correct from the remaining mirror, and the survivors stay
/// deep-fsck clean.
#[test]
fn interleaved_import_keeps_three_replica_mirrors_intact() {
    Runtime::simulate(test_seed(96), |rt| {
        let source = SyntheticSource::fixed(26, 800, 1000);
        let devices: Vec<_> = (0..4).map(|_| ramdisk(64 << 20)).collect();
        let fs = dlfs::MountBuilder::new(membership_cfg(3))
            .deployment(Deployment::local(1, &devices))
            .persistent()
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let total = io.sequence(rt, 71, 0);
        drain_epoch(rt, &mut io, &source, total, total / 3, || {
            devices[1].kill();
            devices[2].kill();
        });
        let m = io.metrics();
        assert!(
            m.counter("dlfs.integrity.failovers") > 0,
            "no read failed over"
        );
        for node in [0u16, 3] {
            let rep = fsck_node(&fs.shared(0).targets[node as usize], node, true);
            let clean = matches!(rep.state, FsckState::Clean { .. });
            assert!(clean, "survivor {node} not clean: {:?}", rep.state);
            assert_eq!(rep.data_checksum_ok, Some(true), "survivor {node}");
        }
    });
}

/// Replicated, membership-enabled, and *not* verified: no checksum table
/// stands behind any of the healing below.
fn unverified_cfg() -> DlfsConfig {
    DlfsConfig {
        verify_reads: false,
        ..membership_cfg(2)
    }
}

/// Regression (blocksim): a read in flight when its device dies completes
/// as a media error and fails over; it used to complete `Ok` over zeroed
/// bytes, which only a checksum table could catch — without one a few
/// samples of the kill epoch were delivered wrong.
#[test]
fn reads_in_flight_across_a_kill_fail_over_without_checksums() {
    Runtime::simulate(test_seed(97), |rt| {
        let source = SyntheticSource::fixed(27, 600, 2048);
        let devices: Vec<_> = (0..3).map(|_| ramdisk(64 << 20)).collect();
        let fs = dlfs::MountBuilder::new(unverified_cfg())
            .deployment(Deployment::local(1, &devices))
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let total = io.sequence(rt, 81, 0);
        drain_epoch(rt, &mut io, &source, total, total / 3, || {
            devices[1].kill();
        });
        assert!(io.metrics().counter("dlfs.integrity.failovers") > 0);
    });
}

/// Regression: rebuild without `verify_reads`. Extents are sized from the
/// geometry, not from the checksum table's length, and a copy is judged
/// against the table only when there is one — an ephemeral instance used
/// to plan 0 blocks, report completion and serve the wiped node's zeros;
/// a persistent one used to panic indexing the empty table. The third cell
/// imports *with* a table and remounts without: the rebuild then has no
/// table in memory to restore, and rehashes the rebuilt data instead.
#[test]
fn rebuild_without_checksums_is_sized_from_geometry() {
    for (persist, import_verified) in [(false, false), (true, false), (true, true)] {
        Runtime::simulate(test_seed(98), |rt| {
            let case = format!("persist={persist} import_verified={import_verified}");
            let source = SyntheticSource::fixed(28, 600, 2048);
            let devices: Vec<_> = (0..3).map(|_| ramdisk(64 << 20)).collect();
            let builder =
                |cfg| dlfs::MountBuilder::new(cfg).deployment(Deployment::local(1, &devices));
            let fs = match (persist, import_verified) {
                (false, _) => builder(unverified_cfg()).mount(rt, &source),
                (true, false) => builder(unverified_cfg()).persistent().mount(rt, &source),
                (true, true) => {
                    let imported = builder(membership_cfg(2)).persistent().mount(rt, &source);
                    drop(imported.unwrap());
                    builder(unverified_cfg()).warm().remount(rt)
                }
            }
            .unwrap();
            let red = fs.redundancy().unwrap().clone();
            assert!(!red.verify(), "{case}");
            // Node 1 hosts its own data and the replica of node 0's.
            let blocks_of = |n: u16| {
                let dir = &fs.shared(0).dir;
                let ends = dir.samples_on(n).iter().map(|&id| dir.entry(id));
                let end = ends.map(|e| e.offset() + e.len()).max().unwrap();
                (end - fs.layout(n).map_or(0, |sb| sb.data_base)).div_ceil(512)
            };
            let hosted = blocks_of(1) + blocks_of(0);

            devices[1].kill();
            let mut io = fs.io(0);
            let total = io.sequence(rt, 83, 0);
            drain_epoch(rt, &mut io, &source, total, usize::MAX, || {});
            assert!(red.is_dead(1), "{case}: no escalation");
            replace_with_fresh(&devices[1], 64 << 20);
            assert_eq!(io.begin_rebuild(1).unwrap(), hosted, "{case}");
            assert_eq!(io.rebuild_step(u64::MAX), hosted, "{case}");
            let m = io.metrics();
            assert_eq!(m.counter("dlfs.rebuild.blocks_rebuilt"), hosted, "{case}");
            assert_eq!(m.counter("dlfs.rebuild.blocks_failed"), 0, "{case}");
            assert!(!red.is_dead(1), "{case}: rebuilt node must rejoin");
            if persist {
                assert_fsck_clean(&fs.shared(0).targets);
            }
            // The rebuilt node serves its own samples again, byte-correct.
            let total = io.sequence(rt, 83, 1);
            drain_epoch(rt, &mut io, &source, total, usize::MAX, || {});
            if import_verified {
                // The rehashed table is the import's: a verifying remount
                // checks every block of every node against it.
                drop((io, fs));
                let fs = builder(membership_cfg(2)).warm().remount(rt).unwrap();
                let mut io = fs.io(0);
                let total = io.sequence(rt, 83, 2);
                drain_epoch(rt, &mut io, &source, total, usize::MAX, || {});
                let m = io.metrics();
                assert!(m.counter("dlfs.integrity.verified") > 0, "{case}");
                assert_eq!(m.counter("dlfs.integrity.mismatches"), 0, "{case}");
            }
        });
    }
}

/// Characterisation of the per-target routing state: seeded streams of
/// command outcomes on random targets (`ok`, `media`, `timeout`), each
/// followed by a step of virtual time of at most two cooldowns, interleaved
/// with replica picks and rejoins. Over a `Redundancy` for every pairing of
/// replicas {2, 3} with no death policy, 100 µs and 1 ms, and over a
/// metadata `ShardRouter`. After every event the trace prints each
/// target's state (`D` Dead, `r` routable now, `-` cooling down), the view
/// epoch and the telemetry snapshot.
#[test]
fn target_state_trace_matches_golden() {
    const TARGETS: usize = 3;
    const COOLDOWN_NS: u64 = 500_000;
    fn metrics(reg: &Registry) -> String {
        reg.snapshot()
            .render()
            .lines()
            .collect::<Vec<_>>()
            .join(" ")
    }
    fn outcome(rng: &mut SplitMix64) -> (&'static str, Outcome) {
        let outcomes = [
            ("ok", Outcome::Ok),
            ("media", Outcome::Media),
            ("timeout", Outcome::Timeout),
        ];
        outcomes[rng.below(3) as usize]
    }
    fn advance(rng: &mut SplitMix64, now: &mut Time) {
        if rng.below(2) == 1 {
            *now += Dur::nanos(rng.below(2 * COOLDOWN_NS + 1));
        }
    }
    let mut text = String::new();
    for replicas in [2u32, 3] {
        for dead_after in [None, Some(100), Some(1000)] {
            let seed = replicas as u64 * 10 + dead_after.map_or(0, |us: u64| us / 100 + 1);
            let mut rng = SplitMix64::new(seed);
            let red = dlfs::Redundancy::new(replicas, vec![(0, 4096); TARGETS], vec![]);
            let red = match dead_after {
                Some(us) => red.with_membership(Dur::micros(us)),
                None => red,
            };
            let reg = Registry::new();
            let scope = if dead_after.is_some() {
                "dlfs.membership"
            } else {
                "health"
            };
            red.states.attach_telemetry(&reg.scoped(scope));
            text += &format!("## redundancy replicas={replicas} dead_after_us={dead_after:?}\n");
            let mut now = Time::ZERO;
            for step in 0..200 {
                let t = rng.below(TARGETS as u64) as usize;
                let event = match rng.below(10) {
                    0..=5 => {
                        let (name, outcome) = outcome(&mut rng);
                        red.observe(t, outcome, now);
                        format!("{name} t{t}")
                    }
                    6..=8 => {
                        let start = rng.below(replicas as u64) as u32;
                        let r = red.pick_replica(t as u16, start, now);
                        format!("pick home{t} from r{start} -> r{r}")
                    }
                    // Rejoin is what a finished rebuild asks of a Dead
                    // target; a Suspect one was never declared Dead.
                    _ if dead_after.is_some()
                        && matches!(red.states.state(t), TargetState::Suspect { .. }) =>
                    {
                        format!("rejoin t{t}: skipped, Suspect")
                    }
                    _ => match red.rejoin(t) {
                        Ok(()) => format!("rejoin t{t}"),
                        Err(_) => format!("rejoin t{t}: refused"),
                    },
                };
                let states: String = (0..TARGETS)
                    .map(|n| match (red.is_dead(n), red.states.available(n, now)) {
                        (true, _) => 'D',
                        (false, true) => 'r',
                        (false, false) => '-',
                    })
                    .collect();
                let epoch = red.membership.as_ref().map_or(0, |m| m.view_epoch());
                text += &format!(
                    "{step} t={} {event} | {states} epoch={epoch} | {}\n",
                    now.nanos(),
                    metrics(&reg)
                );
                advance(&mut rng, &mut now);
            }
        }
    }
    let map = fabric::ShardMap::new(vec![0, 1, 2], vec![1, 2, 0]);
    let router = fabric::ShardRouter::new(map, TARGETS, 3, Dur::nanos(COOLDOWN_NS));
    let reg = Registry::new();
    router.attach_telemetry(&reg.scoped("router"));
    let mut rng = SplitMix64::new(7);
    let mut now = Time::ZERO;
    text += "## shard router\n";
    for step in 0..200 {
        let node = rng.below(TARGETS as u64) as u16;
        let event = if rng.below(2) == 0 {
            let (name, outcome) = outcome(&mut rng);
            router.observe(node, outcome, now);
            format!("{name} n{node}")
        } else {
            let route = router.route(node as usize, now);
            format!("route s{node} -> n{} primary={}", route.node, route.primary)
        };
        text += &format!("{step} t={} {event} | {}\n", now.nanos(), metrics(&reg));
        advance(&mut rng, &mut now);
    }
    common::check_golden("target_state_trace.txt", &text);
}
