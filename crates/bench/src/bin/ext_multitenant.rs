//! Extension: sharded metadata + multi-tenant weighted-fair QoS.
//!
//! Two questions the paper leaves open (ROADMAP "scale-out metadata +
//! multi-tenant serving"):
//!
//! 1. **Metadata scale-out** — at ≥1k clients, where does the paper's
//!    centralized replicate-everywhere tree lose to sharding, and how
//!    much does locality-aware shard placement (payload piggybacked on
//!    the lookup reply) buy over Octopus-style hash partitioning that
//!    ignores data location?
//! 2. **Fairness** — does deterministic WFQ over device qpair slots hold
//!    a 1:2:4-weighted tenant mix to its weight shares, where an
//!    unarbitrated greedy job starves its neighbours?
//!
//! Both sections replay byte-identically under the same seed; the run
//! re-executes itself and asserts the fingerprints match.
//!
//! Usage: ext_multitenant [seed=N] [clients=1024] [nodes=8] [lookups=6]
//!                        [count=40000] [window_us=20000]

use dlfs_bench::{arg, fmt_ns, greedy_shares, meta_scale_run, weighted_fair_run};
use dlfs_bench::{MetaDesign, Table, DEFAULT_SEED};
use simkit::prelude::*;

fn main() {
    let seed: u64 = arg("seed", DEFAULT_SEED);
    let clients: usize = arg("clients", 1024);
    let nodes: usize = arg("nodes", 8);
    let lookups: usize = arg("lookups", 6);
    let count: usize = arg("count", 40_000);
    let window = Dur::micros(arg("window_us", 20_000));
    let drivers = 64;

    // ---- 1. Metadata designs under ≥1k clients. --------------------------
    println!(
        "# Metadata scale-out: {clients} clients x {lookups} locate+fetch ops, \
         {nodes} storage nodes, {count} samples\n"
    );
    let mut t = Table::new(&["design", "ops/s", "p50", "p99", "piggyback%", "vs Central"]);
    let designs = [
        MetaDesign::Centralized,
        MetaDesign::HashPart,
        MetaDesign::Sharded,
    ];
    let runs: Vec<_> = designs
        .iter()
        .map(|&d| meta_scale_run(seed, d, nodes, clients, drivers, lookups, count))
        .collect();
    let base = runs[0].ops_per_sec();
    let mut fingerprint = 0u64;
    for (d, r) in designs.iter().zip(&runs) {
        fingerprint ^= r.fingerprint.rotate_left(*d as u32 * 8);
        t.row(&[
            d.label().to_string(),
            format!("{:.0}", r.ops_per_sec()),
            fmt_ns(r.p50_ns),
            fmt_ns(r.p99_ns),
            format!("{:.1}", r.piggyback_pct),
            format!("{:.2}x", r.ops_per_sec() / base),
        ]);
    }
    t.print();
    println!("\n# csv\n{}", t.csv());
    let (central, hashpart, sharded) = (
        runs[0].ops_per_sec(),
        runs[1].ops_per_sec(),
        runs[2].ops_per_sec(),
    );
    assert!(
        sharded > central && sharded > hashpart,
        "locality-aware sharding must win at {clients} clients \
         (central {central:.0}, hashpart {hashpart:.0}, sharded {sharded:.0} ops/s)"
    );
    println!(
        "claim: sharded beats centralized ({:.2}x) and hash partitioning ({:.2}x) at {clients} clients",
        sharded / central,
        sharded / hashpart
    );

    // ---- 2. Weighted-fair shares vs the greedy free-for-all. -------------
    let weights = [1u32, 2, 4];
    let fair = weighted_fair_run(seed, &weights, 2, 4, window);
    let greedy = greedy_shares(seed, window);
    println!(
        "\n# Tenant fairness: weights 1:2:4, WFQ over 2 qpair slots, {}us window\n",
        window.as_nanos() / 1_000
    );
    let mut t = Table::new(&["tenant", "weight", "WFQ share", "ideal", "no-QoS share"]);
    let wsum: u32 = weights.iter().sum();
    for (i, &w) in weights.iter().enumerate() {
        t.row(&[
            i.to_string(),
            w.to_string(),
            format!("{:.1}%", fair.shares[i] * 100.0),
            format!("{:.1}%", w as f64 / wsum as f64 * 100.0),
            format!("{:.1}%", greedy[i] * 100.0),
        ]);
    }
    t.print();
    println!("\n# csv\n{}", t.csv());
    assert!(
        fair.err <= 0.05,
        "WFQ fairness error {:.3} exceeds the 5% budget ({:?})",
        fair.err,
        fair.shares
    );
    println!(
        "claim: WFQ holds every tenant within 5% of its weight share (max err {:.2}%)",
        fair.err * 100.0
    );
    println!(
        "claim: without QoS the greedy job takes {:.1}% and starves the others",
        greedy[0] * 100.0
    );

    // ---- 3. Same-seed byte-identity. -------------------------------------
    let again = meta_scale_run(
        seed,
        MetaDesign::Sharded,
        nodes,
        clients,
        drivers,
        lookups,
        count,
    );
    let fair2 = weighted_fair_run(seed, &weights, 2, 4, window);
    assert_eq!(
        (again.fingerprint, fair2.fingerprint),
        (runs[2].fingerprint, fair.fingerprint),
        "same-seed rerun diverged"
    );
    println!("\nreplay: same-seed rerun is byte-identical (fingerprint {fingerprint:016x})");
}
