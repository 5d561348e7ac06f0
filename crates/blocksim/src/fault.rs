//! Deterministic fault injection for simulated devices.
//!
//! Real NVMe devices return command-level media errors and experience
//! latency spikes; the storage systems above them must retry. The injector
//! draws per-command outcomes from a seeded stream, so failing runs replay
//! exactly — a crashing retry path reproduces on every execution.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use simkit::plock::Mutex;
use simkit::rng::keyed;
use simkit::time::Dur;

use crate::config::BLOCK_SIZE;

/// Outcome of one block command.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CmdStatus {
    #[default]
    Ok,
    /// Unrecoverable media error for this attempt; the command must be
    /// resubmitted by the initiator.
    MediaError,
    /// The command never reached the target (dropped capsule, crashed or
    /// unreachable node). The initiator observes it only after its I/O
    /// timeout elapses, carried in [`FaultOutcome::extra_latency`].
    TransportError,
}

impl CmdStatus {
    pub fn is_ok(self) -> bool {
        self == CmdStatus::Ok
    }
}

/// Per-command fault decision: (status, extra service latency).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultOutcome {
    pub status: CmdStatus,
    pub extra_latency: Dur,
}

impl FaultOutcome {
    pub const NONE: FaultOutcome = FaultOutcome {
        status: CmdStatus::Ok,
        extra_latency: Dur::ZERO,
    };
}

/// A block extent `[slba, slba + nblocks)` carrying a persistent fault.
type Extent = (u64, u64);

fn overlaps(extents: &[Extent], slba: u64, nblocks: u32) -> bool {
    let end = slba + nblocks as u64;
    extents.iter().any(|&(s, n)| slba < s + n && s < end)
}

/// Remove `[slba, slba + nblocks)` from every extent, splitting survivors.
fn clear_overlap(extents: &mut Vec<Extent>, slba: u64, nblocks: u32) {
    let end = slba + nblocks as u64;
    let mut out = Vec::with_capacity(extents.len());
    for &(s, n) in extents.iter() {
        let e = s + n;
        if e <= slba || end <= s {
            out.push((s, n));
            continue;
        }
        if s < slba {
            out.push((s, slba - s));
        }
        if end < e {
            out.push((end, e - end));
        }
    }
    *extents = out;
}

/// Seeded fault model attached to a device.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    counter: AtomicU64,
    /// Probability of a read media error, in parts per million.
    pub read_fail_ppm: u32,
    /// Probability of a write media error, in parts per million.
    pub write_fail_ppm: u32,
    /// Probability of a latency spike, in parts per million.
    pub slow_ppm: u32,
    /// Added service latency on a spike.
    pub slow_extra: Dur,
    /// Sticky bad extents: every timed read overlapping one fails with a
    /// `MediaError` until the blocks are rewritten.
    sticky: Mutex<Vec<Extent>>,
    /// Silent-corruption extents: reads return `Ok` but each overlapping
    /// block comes back with one deterministically chosen bit flipped,
    /// until the blocks are rewritten.
    flips: Mutex<Vec<Extent>>,
    /// Permanent death: every command (read *and* write) fails with a
    /// `MediaError` until [`revive`](Self::revive). Unlike a fabric crash
    /// window this never heals on its own — it models a device that is
    /// gone for good, not a node that reboots.
    dead: AtomicBool,
}

impl FaultInjector {
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            seed,
            counter: AtomicU64::new(0),
            read_fail_ppm: 0,
            write_fail_ppm: 0,
            slow_ppm: 0,
            slow_extra: Dur::ZERO,
            sticky: Mutex::new(Vec::new()),
            flips: Mutex::new(Vec::new()),
            dead: AtomicBool::new(false),
        }
    }

    /// Kill the device permanently: every subsequent command fails with a
    /// `MediaError` until [`revive`](Self::revive). Imperative rather than
    /// scheduled — tests and chaos harnesses pull the plug at a virtual
    /// instant of their choosing, and the decision paths stay time-free.
    pub fn kill(&self) {
        self.dead.store(true, Ordering::Relaxed);
    }

    /// Bring a killed device back, modeling a replacement target behind
    /// the same endpoint. The media contents are whatever the device holds
    /// (callers model a fresh disk by resyncing every extent the node
    /// should own — see the core rebuild planner).
    pub fn revive(&self) {
        self.dead.store(false, Ordering::Relaxed);
    }

    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    pub fn with_read_failures(mut self, ppm: u32) -> Self {
        self.read_fail_ppm = ppm;
        self
    }

    pub fn with_write_failures(mut self, ppm: u32) -> Self {
        self.write_fail_ppm = ppm;
        self
    }

    pub fn with_latency_spikes(mut self, ppm: u32, extra: Dur) -> Self {
        self.slow_ppm = ppm;
        self.slow_extra = extra;
        self
    }

    /// Mark `[slba, slba + nblocks)` as a sticky bad extent: every timed
    /// read overlapping it fails with `MediaError` until rewritten.
    pub fn with_bad_extent(self, slba: u64, nblocks: u64) -> Self {
        self.sticky.lock().push((slba, nblocks));
        self
    }

    /// Mark `[slba, slba + nblocks)` as silently corrupted: reads succeed
    /// but each block returns with one bit flipped (position keyed on the
    /// seed and the absolute block number, so replays and repeated reads
    /// see identical corruption) until rewritten.
    pub fn with_bit_flips(self, slba: u64, nblocks: u64) -> Self {
        self.flips.lock().push((slba, nblocks));
        self
    }

    /// Draw the next command's transient fate (media error, latency spike).
    /// Deterministic: the n-th call for a given seed always returns the same
    /// outcome. Private: a command's fate is [`FaultInjector::decide_range`],
    /// which also knows death and sticky extents.
    fn decide(&self, is_write: bool) -> FaultOutcome {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let z = keyed(self.seed, n);
        let die = (z % 1_000_000) as u32;
        let fail_ppm = if is_write {
            self.write_fail_ppm
        } else {
            self.read_fail_ppm
        };
        let status = if die < fail_ppm {
            CmdStatus::MediaError
        } else {
            CmdStatus::Ok
        };
        // Independent draw for latency spikes (reuse upper bits).
        let die2 = ((z >> 32) % 1_000_000) as u32;
        let extra = if die2 < self.slow_ppm {
            self.slow_extra
        } else {
            Dur::ZERO
        };
        FaultOutcome {
            status,
            extra_latency: extra,
        }
    }

    /// Decide the fate of a command covering `[slba, slba + nblocks)`.
    /// Draws exactly one outcome from the per-command stream (so attaching
    /// extents never perturbs the transient-fault replay), then overrides
    /// reads overlapping a sticky bad extent to `MediaError`.
    pub fn decide_range(&self, is_write: bool, slba: u64, nblocks: u32) -> FaultOutcome {
        let mut out = self.decide(is_write);
        if self.is_dead() {
            out.status = CmdStatus::MediaError;
            return out;
        }
        if !is_write && out.status == CmdStatus::Ok && overlaps(&self.sticky.lock(), slba, nblocks)
        {
            out.status = CmdStatus::MediaError;
        }
        out
    }

    /// Does `[slba, slba + nblocks)` overlap a sticky bad extent? Draw-free
    /// (scrubbers and offline checkers probe without perturbing replay).
    pub fn sticky_probe(&self, slba: u64, nblocks: u32) -> bool {
        overlaps(&self.sticky.lock(), slba, nblocks)
    }

    /// Apply silent corruption to a read of `dst` starting at `slba`: each
    /// whole or partial block overlapping a flip extent gets one bit
    /// flipped at a position derived from (seed, absolute block number).
    /// Draw-free and idempotent per block.
    pub fn corrupt_read(&self, slba: u64, dst: &mut [u8]) {
        let flips = self.flips.lock();
        if flips.is_empty() {
            return;
        }
        let nblocks = dst.len().div_ceil(BLOCK_SIZE as usize) as u32;
        for b in 0..nblocks as u64 {
            let abs = slba + b;
            if !overlaps(&flips, abs, 1) {
                continue;
            }
            // Keyed on (seed, block): a stable flip position.
            let z = keyed(self.seed, abs);
            let start = (b * BLOCK_SIZE) as usize;
            let span = dst.len().min(start + BLOCK_SIZE as usize) - start;
            let byte = start + (z as usize >> 3) % span;
            dst[byte] ^= 1 << (z & 7);
        }
    }

    /// A rewrite of `[slba, slba + nblocks)` heals persistent faults there:
    /// overlapping sticky and flip extents are cleared (split if the write
    /// covers them partially).
    pub fn clear_marks(&self, slba: u64, nblocks: u32) {
        clear_overlap(&mut self.sticky.lock(), slba, nblocks);
        clear_overlap(&mut self.flips.lock(), slba, nblocks);
    }

    /// Any persistent fault (death, sticky, or flip) overlapping the
    /// range? Used by scrub/fsck to locate latent damage without a timed
    /// read. A dead device reports every range faulted.
    pub fn persistent_fault(&self, slba: u64, nblocks: u32) -> bool {
        self.is_dead()
            || overlaps(&self.sticky.lock(), slba, nblocks)
            || overlaps(&self.flips.lock(), slba, nblocks)
    }

    /// Commands decided so far.
    pub fn decisions(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_by_default() {
        let f = FaultInjector::new(1);
        for _ in 0..1000 {
            assert_eq!(f.decide(false), FaultOutcome::NONE);
        }
    }

    #[test]
    fn failure_rate_is_approximate() {
        let f = FaultInjector::new(2).with_read_failures(50_000); // 5%
        let fails = (0..20_000)
            .filter(|_| f.decide(false).status == CmdStatus::MediaError)
            .count();
        let rate = fails as f64 / 20_000.0;
        assert!((0.04..0.06).contains(&rate), "rate {rate}");
        assert_eq!(f.decisions(), 20_000);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let f = FaultInjector::new(7)
                .with_read_failures(10_000)
                .with_latency_spikes(5_000, Dur::micros(100));
            (0..500).map(|_| f.decide(false)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn read_write_rates_independent() {
        let f = FaultInjector::new(3).with_write_failures(100_000);
        let read_fails = (0..5000)
            .filter(|_| f.decide(false).status == CmdStatus::MediaError)
            .count();
        assert_eq!(read_fails, 0);
        let write_fails = (0..5000)
            .filter(|_| f.decide(true).status == CmdStatus::MediaError)
            .count();
        assert!(write_fails > 300, "{write_fails}");
    }

    #[test]
    fn latency_spikes_apply() {
        let f = FaultInjector::new(4).with_latency_spikes(500_000, Dur::micros(50));
        let spikes = (0..2000)
            .filter(|_| !f.decide(false).extra_latency.is_zero())
            .count();
        assert!((800..1200).contains(&spikes), "{spikes}");
    }

    #[test]
    fn sticky_extent_fails_reads_until_rewritten() {
        let f = FaultInjector::new(5).with_bad_extent(10, 4);
        assert_eq!(f.decide_range(false, 0, 8).status, CmdStatus::Ok);
        assert_eq!(f.decide_range(false, 12, 2).status, CmdStatus::MediaError);
        assert_eq!(f.decide_range(false, 13, 8).status, CmdStatus::MediaError);
        // Writes into the extent are unaffected and heal what they cover.
        assert_eq!(f.decide_range(true, 10, 2).status, CmdStatus::Ok);
        f.clear_marks(10, 2);
        assert_eq!(f.decide_range(false, 10, 2).status, CmdStatus::Ok);
        assert!(f.sticky_probe(12, 1), "uncovered half still bad");
        f.clear_marks(0, 64);
        assert!(!f.sticky_probe(0, 64));
        assert_eq!(f.decide_range(false, 12, 2).status, CmdStatus::Ok);
    }

    #[test]
    fn sticky_overlap_draws_exactly_one_outcome() {
        // decide_range consumes one draw whether or not an extent overlaps,
        // so the transient stream replays identically with extents armed.
        let plain = FaultInjector::new(6).with_read_failures(10_000);
        let marked = FaultInjector::new(6)
            .with_read_failures(10_000)
            .with_bad_extent(1_000_000, 1);
        let a: Vec<_> = (0..500).map(|i| plain.decide_range(false, i, 1)).collect();
        let b: Vec<_> = (0..500).map(|i| marked.decide_range(false, i, 1)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn bit_flips_are_stable_and_healed_by_rewrite() {
        let f = FaultInjector::new(7).with_bit_flips(2, 1);
        let clean = vec![0u8; 2 * BLOCK_SIZE as usize];
        let mut a = clean.clone();
        f.corrupt_read(2, &mut a);
        assert_ne!(a, clean, "flip extent must corrupt");
        // Exactly one bit differs, inside the first block (abs block 2).
        let diff: u32 = a
            .iter()
            .zip(&clean)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(diff, 1);
        assert_eq!(&a[BLOCK_SIZE as usize..], &clean[BLOCK_SIZE as usize..]);
        // Same position on every read.
        let mut b = clean.clone();
        f.corrupt_read(2, &mut b);
        assert_eq!(a, b);
        assert!(f.persistent_fault(2, 1));
        f.clear_marks(2, 1);
        let mut c = clean.clone();
        f.corrupt_read(2, &mut c);
        assert_eq!(c, clean, "rewrite heals the flip");
        assert!(!f.persistent_fault(0, 16));
    }

    #[test]
    fn killed_device_fails_everything_until_revived() {
        let f = FaultInjector::new(8);
        assert_eq!(f.decide_range(false, 0, 8).status, CmdStatus::Ok);
        f.kill();
        assert!(f.is_dead());
        assert_eq!(f.decide_range(false, 0, 8).status, CmdStatus::MediaError);
        assert_eq!(f.decide_range(true, 100, 1).status, CmdStatus::MediaError);
        assert!(f.persistent_fault(0, 1), "dead device is all damage");
        f.revive();
        assert!(!f.is_dead());
        assert_eq!(f.decide_range(false, 0, 8).status, CmdStatus::Ok);
        assert_eq!(f.decide_range(true, 100, 1).status, CmdStatus::Ok);
        assert!(!f.persistent_fault(0, 1));
    }

    #[test]
    fn death_consumes_one_draw_like_any_command() {
        // Killing a device must not perturb the transient-fault stream of
        // commands issued around the death window.
        let run = |kill_at: Option<usize>| {
            let f = FaultInjector::new(9).with_read_failures(10_000);
            (0..200)
                .map(|i| {
                    if Some(i) == kill_at {
                        f.kill();
                        f.revive();
                    }
                    f.decide_range(false, i as u64, 1)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(None), run(Some(100)));
    }

    #[test]
    fn clear_overlap_splits_ranges() {
        let mut v = vec![(10u64, 10u64)];
        clear_overlap(&mut v, 13, 4);
        assert_eq!(v, vec![(10, 3), (17, 3)]);
        clear_overlap(&mut v, 0, 100);
        assert!(v.is_empty());
    }
}
