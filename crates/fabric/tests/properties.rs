//! Randomized property tests for the fabric: transfer-time sanity and
//! incast determinism.
//! Cases come from seeded [`SplitMix64`] streams so failures replay exactly.

use fabric::{Cluster, FabricConfig};
use simkit::prelude::*;
use simkit::time::Time;

const CASES: u64 = 48;

#[test]
fn transfer_time_is_monotone_in_bytes() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x7A4F, case);
        let a = g.range(1, 10_000_000);
        let b = g.range(1, 10_000_000);
        let from = g.below(4) as usize;
        let to = g.below(4) as usize;
        // On an idle fabric, moving more bytes never arrives earlier.
        let (small, large) = (a.min(b), a.max(b));
        Runtime::simulate(0, |rt| {
            let c1 = Cluster::new(4, FabricConfig::default());
            let t_small = c1.reserve_transfer(rt.now(), from, to, small);
            let c2 = Cluster::new(4, FabricConfig::default());
            let t_large = c2.reserve_transfer(rt.now(), from, to, large);
            assert!(
                t_small <= t_large,
                "{small}B at {t_small:?} vs {large}B at {t_large:?}"
            );
        });
    }
}

#[test]
fn incast_is_deterministic_and_nic_bounded() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x14CA, case);
        let senders = g.range(2, 6) as usize;
        let kb = g.range(16, 512);
        let run = || {
            Runtime::simulate(7, |rt| {
                let c = Cluster::new(senders + 1, FabricConfig::default());
                let mut last = Time::ZERO;
                for s in 1..=senders {
                    last = last.max(c.reserve_transfer(rt.now(), s, 0, kb << 10));
                }
                last.nanos()
            })
            .0
        };
        let t1 = run();
        let t2 = run();
        assert_eq!(t1, t2, "incast must replay identically");
        // The receiver NIC is the floor: total bytes / nic bandwidth.
        let total = (senders as u64) * (kb << 10);
        let floor_ns = (total as f64 / FabricConfig::default().nic_bytes_per_sec * 1e9) as u64;
        assert!(t1 >= floor_ns, "{t1} < NIC floor {floor_ns}");
    }
}
