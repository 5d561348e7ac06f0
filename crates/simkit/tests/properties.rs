//! Randomized property tests for simkit: timeline resources, RNG,
//! histograms. Cases are generated from seeded [`SplitMix64`] streams so
//! failures replay exactly.

use simkit::prelude::*;
use simkit::rng::SplitMix64;
use simkit::time::Time;

const CASES: u64 = 64;

#[test]
fn link_reservations_never_overlap() {
    // Whatever order reservations arrive in (possibly out of time order),
    // the wire must never carry two payloads at once and no reservation may
    // start before its requested time.
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x11AC, case);
        let n = g.range(1, 80) as usize;
        let reqs: Vec<(u64, u64)> = (0..n)
            .map(|_| (g.below(1_000_000), g.range(1, 100_000)))
            .collect();
        Runtime::simulate(0, |rt| {
            let _ = rt;
            let bw = 1e9; // 1 byte per ns
            let link = Link::new(bw, Dur::ZERO);
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            for &(now, bytes) in &reqs {
                let end = link.reserve(Time(now), bytes).nanos();
                let start = end - bytes; // 1 byte/ns
                assert!(start >= now, "started {start} before requested {now}");
                for &(s, e) in &intervals {
                    assert!(
                        end <= s || e <= start,
                        "overlap: [{start},{end}) vs [{s},{e})"
                    );
                }
                intervals.push((start, end));
            }
        });
    }
}

#[test]
fn servers_capacity_respected() {
    // At any instant, at most k requests may be in service.
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x5EB5, case);
        let k = g.range(1, 5) as usize;
        let n = g.range(1, 60) as usize;
        let reqs: Vec<(u64, u64)> = (0..n)
            .map(|_| (g.below(500_000), g.range(1, 50_000)))
            .collect();
        Runtime::simulate(0, |rt| {
            let _ = rt;
            let srv = Servers::new(k);
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            for (now, cost) in &reqs {
                let end = srv.reserve(Time(*now), Dur::nanos(*cost)).nanos();
                let start = end - cost;
                assert!(start >= *now);
                intervals.push((start, end));
            }
            // Sweep: count overlaps at every interval start.
            for &(s, _) in &intervals {
                let live = intervals.iter().filter(|&&(a, b)| a <= s && s < b).count();
                assert!(live <= k, "{live} concurrent on {k} channels");
            }
        });
    }
}

#[test]
fn rng_shuffle_is_permutation() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x50F1, case);
        let n = g.range(1, 500) as usize;
        let seed = g.below(10_000);
        let mut rng = SplitMix64::new(seed);
        let p = rng.permutation(n);
        let mut seen = vec![false; n];
        for &x in &p {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
        }
    }
}

#[test]
fn histogram_quantiles_monotone() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x4157, case);
        let n = g.range(1, 300) as usize;
        let vals: Vec<u64> = (0..n).map(|_| g.range(1, 1_000_000)).collect();
        let mut h = Histogram::new();
        for &v in &vals {
            h.add(v);
        }
        let q25 = h.quantile(0.25);
        let q50 = h.quantile(0.5);
        let q99 = h.quantile(0.99);
        assert!(q25 <= q50 && q50 <= q99);
        assert_eq!(h.count(), vals.len() as u64);
    }
}

#[test]
fn virtual_sleep_sums_exactly() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x51EE, case);
        let n = g.range(1, 50) as usize;
        let durs: Vec<u64> = (0..n).map(|_| g.below(100_000)).collect();
        let total: u64 = durs.iter().sum();
        let ((), end) = Runtime::simulate(0, |rt| {
            for &d in &durs {
                rt.sleep(Dur::nanos(d));
            }
        });
        assert_eq!(end.nanos(), total);
    }
}
