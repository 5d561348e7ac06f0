//! The metric catalogue (the names `BENCHMARK.json` lists, in the same
//! order) and how each value is derived from a measured [`Pass`].
//!
//! Clock rule: every end-to-end metric is virtual time or an exact count,
//! so it repeats bit-for-bit for a given seed. In the per-layer ledger a
//! `*_ns`/`*_us`/`*_ms`/`*_s` name is virtual time unless it begins with
//! `host_` (or is one of the `simkit.host_*` family): host time is
//! informational, never gated.

use std::collections::BTreeMap;

use crate::replay;
use crate::rig::Pass;

pub const LOWER: &str = "lower";
pub const HIGHER: &str = "higher";

/// (name, unit, better, bound): `bound` is the share of the parent's median
/// by which the metric may worsen before a change counts as a regression.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", LOWER, 0.25),
    ("epoch_sps", "samples/s", HIGHER, 0.02),
    ("request_p50_us", "us", LOWER, 0.06),
    ("request_p99_us", "us", LOWER, 0.2),
    ("busy_ns_per_sample", "ns", LOWER, 0.02),
    ("stored_bytes_per_user_byte", "ratio", LOWER, 0.01),
    ("device_bytes_per_user_byte", "ratio", LOWER, 0.02),
];

/// (name, unit, better). No bounds: the ledger explains, it does not gate.
pub const PER_LAYER: [(&str, &str, &str); 91] = [
    ("simkit.host_s", "s", LOWER),
    ("simkit.host_ns_per_sample", "ns", LOWER),
    ("simkit.host_allocs_per_sample", "count", LOWER),
    ("simkit.busy_ns", "ns", LOWER),
    ("simkit.idle_ns", "ns", HIGHER),
    ("simkit.trace_host_overhead", "ratio", LOWER),
    ("blocksim.read_cmds", "count", LOWER),
    ("blocksim.read_bytes", "bytes", LOWER),
    ("blocksim.write_cmds", "count", LOWER),
    ("blocksim.write_bytes", "bytes", LOWER),
    ("blocksim.bytes_per_read_cmd", "bytes", HIGHER),
    ("blocksim.util", "ratio", HIGHER),
    ("blocksim.replay_s", "s", LOWER),
    ("blocksim.media_errors", "count", LOWER),
    ("blocksim.retries", "count", LOWER),
    ("fabric.rx_bytes", "bytes", LOWER),
    ("fabric.tx_bytes", "bytes", LOWER),
    ("fabric.rx_bytes_per_sample", "bytes", LOWER),
    ("fabric.nic_util", "ratio", HIGHER),
    ("fabric.replay_s", "s", LOWER),
    ("fabric.chunk_wire_us", "us", LOWER),
    ("fabric.rpc_calls", "count", LOWER),
    ("fabric.rpc_retries", "count", LOWER),
    ("fabric.rpc_timeouts", "count", LOWER),
    ("fabric.offload_requests", "count", LOWER),
    ("fabric.offload_wire_bytes", "bytes", LOWER),
    ("directory.lookup_ns", "ns", LOWER),
    ("directory.tree_height", "count", LOWER),
    ("directory.host_lookup_ns", "ns", LOWER),
    ("plan.sequence_us", "us", LOWER),
    ("plan.host_sequence_ms", "ms", LOWER),
    ("io.prep_ns", "ns", LOWER),
    ("io.post_ns", "ns", LOWER),
    ("io.poll_ns", "ns", LOWER),
    ("io.copy_ns", "ns", LOWER),
    ("io.requests_posted", "count", LOWER),
    ("io.samples_delivered", "count", HIGHER),
    ("io.poll_spins", "count", LOWER),
    ("io.retries", "count", LOWER),
    ("io.timeouts", "count", LOWER),
    ("io.efficiency", "ratio", HIGHER),
    ("reactor.wakeups", "count", LOWER),
    ("reactor.doorbells", "count", LOWER),
    ("reactor.parked_ns", "ns", HIGHER),
    ("reactor.wakeups_per_ksample", "count", LOWER),
    ("cache.hits", "count", HIGHER),
    ("cache.misses", "count", LOWER),
    ("cache.hit_ratio", "ratio", HIGHER),
    ("cache.evictions", "count", LOWER),
    ("cache.prefetch_issued", "count", LOWER),
    ("cache.prefetch_hits", "count", HIGHER),
    ("cache.prefetch_useful_ratio", "ratio", HIGHER),
    ("cache.resident_chunks", "count", HIGHER),
    ("copy.memcpy_ops", "count", LOWER),
    ("copy.bytes", "bytes", LOWER),
    ("copy.pool_gbps", "GB/s", HIGHER),
    ("integrity.verified", "count", LOWER),
    ("integrity.mismatches", "count", LOWER),
    ("integrity.repairs", "count", LOWER),
    ("integrity.failovers", "count", LOWER),
    ("integrity.hedges", "count", LOWER),
    ("integrity.hedge_wins", "count", HIGHER),
    ("integrity.scrubbed", "count", LOWER),
    ("integrity.host_verify_ns_per_block", "ns", LOWER),
    ("codec.bytes_in", "bytes", LOWER),
    ("codec.bytes_out", "bytes", LOWER),
    ("codec.ratio", "ratio", HIGHER),
    ("codec.host_decode_ns_per_kb", "ns", LOWER),
    ("tenant.fair_share_err", "ratio", LOWER),
    ("tenant.queue_ns_mean", "ns", LOWER),
    ("tenant.throttled", "count", LOWER),
    ("tenant.slo_miss_ratio", "ratio", LOWER),
    ("tenant.admit_ns", "ns", LOWER),
    ("mount.import_s", "s", LOWER),
    ("mount.remount_s", "s", LOWER),
    ("mount.write_bytes", "bytes", LOWER),
    ("mount.meta_bytes", "bytes", LOWER),
    ("writer.ckpt_gbps", "GB/s", HIGHER),
    ("writer.ckpt_appends", "count", HIGHER),
    ("writer.cmds", "count", LOWER),
    ("writer.bytes_per_cmd", "bytes", HIGHER),
    ("rebuild.time_ms", "ms", LOWER),
    ("rebuild.blocks_rebuilt", "count", LOWER),
    ("rebuild.blocks_failed", "count", LOWER),
    ("rebuild.steps", "count", LOWER),
    ("rebuild.view_epoch", "count", LOWER),
    ("metashard.lookup_p50_us", "us", LOWER),
    ("metashard.lookup_p99_us", "us", LOWER),
    ("metashard.piggyback_ratio", "ratio", HIGHER),
    ("metashard.map_refreshes", "count", LOWER),
    ("metashard.failovers", "count", LOWER),
];

/// Mean of the order statistics whose rank lies within `half` (a share of
/// the sample count) of the `p` quantile.
///
/// Virtual latencies sit on a lattice: the cost constants are whole
/// nanoseconds and a fixed-size chunk takes a fixed time on the wire, so a
/// quarter of all requests can share one value to the nanosecond. A single
/// order statistic then reads the same lattice point for every seed and
/// cannot register a shift smaller than one lattice step; the band mean
/// moves in proportion to how many requests moved. With 1024 requests the
/// p99 band is ranks 1009..=1019, which leaves 5 samples beyond the band
/// and 10 beyond its centre.
pub fn band_percentile(sorted: &[u64], p: f64, half: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len() as f64;
    let lo = (((p - half) * n).floor().max(0.0) as usize).min(sorted.len() - 1);
    let hi = (((p + half) * n).ceil() as usize).clamp(lo + 1, sorted.len());
    sorted[lo..hi].iter().sum::<u64>() as f64 / (hi - lo) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The seven end-to-end values of a pass, in [`END_TO_END`] order.
pub fn end_to_end(p: &Pass) -> [f64; 7] {
    let mut lat = p.log.lat_ns.clone();
    lat.sort_unstable();
    let delivered = p.log.samples as f64;
    // Read amplification counts from the end of set-up, warm-up included:
    // a cache's compulsory misses happen there, and a window that is all
    // hits would otherwise read 0.
    let (_, _, read_bytes, _) = p.job.dev_sum();
    let (_, _, _, stored) = p.setup.dev_sum();
    [
        p.setup.dur.as_secs_f64(),
        ratio(delivered, p.window.dur.as_secs_f64()),
        band_percentile(&lat, 0.50, 0.05) / 1e3,
        band_percentile(&lat, 0.99, 0.005) / 1e3,
        ratio(p.window.busy.as_nanos() as f64, delivered),
        ratio(stored as f64, p.user_bytes as f64),
        ratio(read_bytes as f64, p.log.job_bytes as f64),
    ]
}

/// The values the five workload-shape assertions look at. They come from
/// counter deltas alone, so both passes can check them.
pub struct Shape {
    pub blocksim_util: f64,
    pub nic_util: f64,
    pub cache_hit_ratio: f64,
}

pub fn shape(p: &Pass) -> Shape {
    let w = &p.window;
    let secs = w.dur.as_secs_f64();
    let d = &p.replay.device_cfg;
    // The busiest stage of the busiest device: command pipeline (serial),
    // media channels, or the shared data path.
    let blocksim_util = w
        .dev
        .iter()
        .map(|&(r, wr, rb, wb)| {
            let pipeline = (r + wr) as f64 * d.cmd_overhead.as_secs_f64();
            let media = (r as f64 * d.read_latency.as_secs_f64()
                + wr as f64 * d.write_latency.as_secs_f64())
                / d.channels as f64;
            let bus = (rb + wb) as f64 / d.bytes_per_sec;
            ratio(pipeline.max(media).max(bus), secs)
        })
        .fold(0.0, f64::max);
    // The busiest NIC port of any node.
    let nic_util = match &p.replay.fabric_cfg {
        None => 0.0,
        Some(f) => w
            .nic
            .iter()
            .map(|&(tx, rx)| ratio(tx.max(rx) as f64, f.nic_bytes_per_sec * secs))
            .fold(0.0, f64::max),
    };
    let (hits, misses) = (w.counter("dlfs.cache.hits"), w.counter("dlfs.cache.misses"));
    Shape {
        blocksim_util,
        nic_util,
        cache_hit_ratio: ratio(hits as f64, (hits + misses) as f64),
    }
}

/// Host-side figures of the untraced pass, which the traced pass's ledger
/// reports (the traced pass's own host time carries the recorder).
pub struct HostCost {
    pub window_s: f64,
    pub allocs: u64,
}

/// Ledger values that are the window's delta of one registry counter:
/// (ledger name, registry name).
const WINDOW_COUNTERS: [(&str, &str); 26] = [
    ("fabric.offload_requests", "dlfs.offload.requests"),
    ("fabric.offload_wire_bytes", "dlfs.offload.wire_bytes"),
    ("io.requests_posted", "dlfs.io.requests_posted"),
    ("io.samples_delivered", "dlfs.io.samples_delivered"),
    ("io.poll_spins", "dlfs.io.poll_spins"),
    ("io.retries", "dlfs.io.retries"),
    ("io.timeouts", "dlfs.io.timeouts"),
    ("reactor.wakeups", "dlfs.reactor.wakeups"),
    ("reactor.doorbells", "dlfs.reactor.doorbells"),
    ("reactor.parked_ns", "dlfs.reactor.parked_ns"),
    ("cache.hits", "dlfs.cache.hits"),
    ("cache.misses", "dlfs.cache.misses"),
    ("cache.evictions", "dlfs.cache.evictions"),
    ("cache.prefetch_issued", "dlfs.cache.prefetch_issued"),
    ("cache.prefetch_hits", "dlfs.cache.prefetch_hits"),
    ("integrity.verified", "dlfs.integrity.verified"),
    ("integrity.mismatches", "dlfs.integrity.mismatches"),
    ("integrity.repairs", "dlfs.integrity.repairs"),
    ("integrity.failovers", "dlfs.integrity.failovers"),
    ("integrity.hedges", "dlfs.integrity.hedges"),
    ("integrity.hedge_wins", "dlfs.integrity.hedge_wins"),
    ("integrity.scrubbed", "dlfs.integrity.scrubbed"),
    ("codec.bytes_in", "dlfs.codec.bytes_in"),
    ("codec.bytes_out", "dlfs.codec.bytes_out"),
    ("rebuild.blocks_rebuilt", "dlfs.rebuild.blocks_rebuilt"),
    ("rebuild.blocks_failed", "dlfs.rebuild.blocks_failed"),
];

/// Ledger values that are the mean a stage histogram recorded in the
/// window (from its count and sum, not its power-of-two buckets).
const WINDOW_HISTOGRAMS: [(&str, &str); 4] = [
    ("io.prep_ns", "dlfs.io.stage.prep_ns"),
    ("io.post_ns", "dlfs.io.stage.post_ns"),
    ("io.poll_ns", "dlfs.io.stage.poll_ns"),
    ("io.copy_ns", "dlfs.io.stage.copy_ns"),
];

/// The per-layer ledger of a traced pass, keyed by [`PER_LAYER`] name.
/// `seed` feeds the metadata-shard probe run beside `point_reads`.
pub fn ledger(
    workload: &str,
    seed: u64,
    p: &Pass,
    untraced: &HostCost,
) -> BTreeMap<&'static str, f64> {
    let (w, s) = (&p.window, &p.setup);
    let delivered = p.log.samples as f64;
    let secs = w.dur.as_secs_f64();
    let sh = shape(p);
    let (reads, writes, read_bytes, write_bytes) = w.dev_sum();
    let bytes_per_read = ratio(read_bytes as f64, reads as f64);
    let (_, _, _, stored) = s.dev_sum();

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |k: &'static str, v: f64| {
        assert!(m.insert(k, v).is_none(), "ledger value {k} set twice");
    };
    for (name, counter) in WINDOW_COUNTERS {
        put(name, w.counter(counter) as f64);
    }
    for (name, histogram) in WINDOW_HISTOGRAMS {
        put(name, w.histo_mean(histogram));
    }

    put("simkit.host_s", untraced.window_s);
    put(
        "simkit.host_ns_per_sample",
        ratio(untraced.window_s * 1e9, delivered),
    );
    put(
        "simkit.host_allocs_per_sample",
        ratio(untraced.allocs as f64, delivered),
    );
    put("simkit.busy_ns", w.busy.as_nanos() as f64);
    put("simkit.idle_ns", w.idle.as_nanos() as f64);
    put(
        "simkit.trace_host_overhead",
        ratio(w.host_s, untraced.window_s) - 1.0,
    );

    let blocksim_replay = replay::blocksim(&p.replay, reads, bytes_per_read as u64);
    put("blocksim.read_cmds", reads as f64);
    put("blocksim.read_bytes", read_bytes as f64);
    put("blocksim.write_cmds", writes as f64);
    put("blocksim.write_bytes", write_bytes as f64);
    put("blocksim.bytes_per_read_cmd", bytes_per_read);
    put("blocksim.util", sh.blocksim_util);
    put("blocksim.replay_s", blocksim_replay);
    put(
        "blocksim.media_errors",
        w.counter_family("blocksim.dev", ".media_errors") as f64,
    );
    put(
        "blocksim.retries",
        w.counter_family("blocksim.dev", ".timeouts") as f64,
    );

    // Reader nodes come first in a disaggregated rig; a local rig has no NICs.
    let reader_nodes = w.nic.len().saturating_sub(p.replay.devices);
    let (tx, rx) = w.nic[..reader_nodes]
        .iter()
        .fold((0, 0), |s, n| (s.0 + n.0, s.1 + n.1));
    let fabric_replay = replay::fabric(&p.replay, reads, bytes_per_read as u64);
    put("fabric.rx_bytes", rx as f64);
    put("fabric.tx_bytes", tx as f64);
    put("fabric.rx_bytes_per_sample", ratio(rx as f64, delivered));
    put("fabric.nic_util", sh.nic_util);
    put("fabric.replay_s", fabric_replay);
    put(
        "fabric.chunk_wire_us",
        replay::chunk_wire_us(&p.replay, bytes_per_read as u64),
    );

    let dir = replay::directory(&p.replay, &p.log.order);
    put("directory.lookup_ns", dir.lookup_ns);
    put("directory.tree_height", dir.tree_height);
    put("directory.host_lookup_ns", dir.host_lookup_ns);

    let seq_n = p.log.sequence_ns.len().max(1) as f64;
    put(
        "plan.sequence_us",
        p.log.sequence_ns.iter().sum::<u64>() as f64 / seq_n / 1e3,
    );
    put(
        "plan.host_sequence_ms",
        p.log.sequence_host_ns.iter().sum::<u64>() as f64 / seq_n / 1e6,
    );

    put(
        "io.efficiency",
        ratio(blocksim_replay.max(fabric_replay), secs),
    );
    put(
        "reactor.wakeups_per_ksample",
        ratio(w.counter("dlfs.reactor.wakeups") as f64 * 1e3, delivered),
    );

    put("cache.hit_ratio", sh.cache_hit_ratio);
    put(
        "cache.prefetch_useful_ratio",
        ratio(
            w.counter("dlfs.cache.prefetch_hits") as f64,
            w.counter("dlfs.cache.prefetch_issued") as f64,
        ),
    );
    put(
        "cache.resident_chunks",
        w.end.gauge("dlfs.cache.resident_chunks") as f64,
    );

    // Bytes the copy threads moved: the copied share of what was delivered.
    let copy_jobs = w.end.histogram("dlfs.io.stage.copy_ns").count
        - w.start.histogram("dlfs.io.stage.copy_ns").count;
    put("copy.memcpy_ops", w.copy_ops as f64);
    put(
        "copy.bytes",
        p.log.bytes as f64 * ratio(copy_jobs as f64, delivered),
    );
    put("copy.pool_gbps", replay::copy_pool(&p.replay, &p.log.order));

    put(
        "integrity.host_verify_ns_per_block",
        replay::host_verify_ns_per_block(&p.replay),
    );
    put(
        "codec.ratio",
        ratio(
            w.counter("dlfs.codec.bytes_out") as f64,
            w.counter("dlfs.codec.bytes_in") as f64,
        ),
    );
    put(
        "codec.host_decode_ns_per_kb",
        replay::host_decode_ns_per_kb(&p.replay),
    );

    let tenant = |suffix: &str| w.counter_family("dlfs.tenant.", suffix) as f64;
    let admitted = tenant(".slo_ok") + tenant(".slo_miss");
    put("tenant.queue_ns_mean", ratio(tenant(".queue_ns"), admitted));
    put("tenant.throttled", tenant(".throttled"));
    put(
        "tenant.slo_miss_ratio",
        ratio(tenant(".slo_miss"), admitted),
    );
    put("tenant.admit_ns", replay::tenant_admit_ns(&p.replay));

    // What set-up wrote beyond the payload copies: layout, metadata,
    // integrity tables, padding (negative with a codec: frames shrink).
    let copies = p.replay.cfg.replicas as f64;
    put("mount.write_bytes", s.counter("dlfs.write.bytes") as f64);
    put(
        "mount.meta_bytes",
        stored as f64 - p.user_bytes as f64 * copies,
    );

    // The writer stages the import and streams the checkpoints: both count.
    let writer_cmds = (s.counter("dlfs.write.commands") + w.counter("dlfs.write.commands")) as f64;
    let writer_bytes = (s.counter("dlfs.write.bytes") + w.counter("dlfs.write.bytes")) as f64;
    put("writer.cmds", writer_cmds);
    put("writer.bytes_per_cmd", ratio(writer_bytes, writer_cmds));

    if workload == "point_reads" {
        let probe = replay::metashard(seed);
        put("fabric.rpc_calls", probe.rpc_calls);
        put("fabric.rpc_retries", probe.rpc_retries);
        put("fabric.rpc_timeouts", probe.rpc_timeouts);
        put("metashard.lookup_p50_us", probe.lookup_p50_us);
        put("metashard.lookup_p99_us", probe.lookup_p99_us);
        put("metashard.piggyback_ratio", probe.piggyback_ratio);
        put("metashard.map_refreshes", probe.map_refreshes);
        put("metashard.failovers", probe.failovers);
    }
    // Workload-specific values (`rebuild.time_ms`, `writer.ckpt_gbps`, ...).
    for &(k, v) in &p.extras {
        put(k, v);
    }
    // `import_s` is the whole set-up unless the workload split it.
    m.entry("mount.import_s").or_insert(s.dur.as_secs_f64());
    // Everything else does not apply to this workload and reads 0.
    for (name, ..) in PER_LAYER {
        m.entry(name).or_insert(0.0);
    }
    assert_eq!(
        m.len(),
        PER_LAYER.len(),
        "ledger has a name the catalogue lacks"
    );
    m
}
