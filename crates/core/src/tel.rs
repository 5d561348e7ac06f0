//! Telemetry handles of one [`DlfsIo`], a child module of `io`: the
//! `dlfs.io.*` engine metrics and the optional scopes beside them (the
//! reactor keeps its own, `dlfs.reactor.*`).

use super::*;

/// Telemetry handles for one I/O thread, living under `dlfs.io.*` in the
/// engine's registry (see DESIGN.md, "Telemetry").
pub(super) struct IoTelemetry {
    pub(super) samples_delivered: Counter,
    pub(super) bytes_delivered: Counter,
    pub(super) requests_posted: Counter,
    pub(super) completions: Counter,
    pub(super) poll_spins: Counter,
    /// Commands resubmitted after a device media error or fabric timeout.
    pub(super) retries: Counter,
    /// Commands the initiator gave up on after its I/O timeout (the fabric
    /// dropped the capsule or the target was down).
    pub(super) timeouts: Counter,
    pub(super) batches: Counter,
    /// Batches that came back short of their `n` (a pool starved by held
    /// samples); the goldens spell this name.
    pub(super) deadline_misses: Counter,
    pub(super) cache_hits: Counter,
    pub(super) cache_misses: Counter,
    pub(super) cache_pins: Counter,
    /// Cross-epoch cache counters under `dlfs.cache.*`. Registered only
    /// with [`CacheMode::CrossEpoch`]; like every optional scope below,
    /// otherwise left unregistered (see [`counter_in`]) so metric renders
    /// of the zero-knob default stay byte-identical.
    pub(super) ce_hits: Counter,
    pub(super) ce_misses: Counter,
    pub(super) prefetch_issued: Counter,
    pub(super) prefetch_hits: Counter,
    /// `evictions` and `resident_chunks`: what this handle's own calls did
    /// to the shared cache. `None` with the scope off, so the cache is not
    /// asked for its residency just to have the answer dropped.
    pub(super) residency: Option<(Counter, Gauge)>,
    /// Shared-completion-queue drain stats.
    pub(super) scq_drains: Counter,
    pub(super) scq_empty_polls: Counter,
    pub(super) scq_drain_batch: Histo,
    /// Per-stage latency of the four-stage pipeline.
    pub(super) prep_ns: Histo,
    pub(super) post_ns: Histo,
    pub(super) poll_ns: Histo,
    pub(super) copy_ns: Histo,
    /// A part's stay with the copy pool for its payload work: publish of
    /// its run → the copy thread's answer. Registered only when parts have
    /// such work (`verify_reads` or a codec).
    pub(super) check_ns: Histo,
    /// Integrity/replication counters under `dlfs.integrity.*`. Registered
    /// only when redundancy is in use ([`Redundancy::in_use`]). (`scrubbed`
    /// and the `dlfs.rebuild.*` scope belong to [`Background`].)
    pub(super) iv_verified: Counter,
    pub(super) iv_mismatches: Counter,
    pub(super) iv_repairs: Counter,
    pub(super) iv_failovers: Counter,
    /// Codec counters under `dlfs.codec.*`: encoded bytes fetched off the
    /// devices vs raw bytes they decoded to. Registered only when the
    /// instance carries [`crate::codec::CodecTables`].
    pub(super) codec_bytes_in: Counter,
    pub(super) codec_bytes_out: Counter,
    /// Offload counters under `dlfs.offload.*`. Registered only with
    /// [`crate::DlfsConfig::offload`].
    pub(super) of_requests: Counter,
    pub(super) of_samples: Counter,
    /// Bytes carried over the fabric by dense offload responses.
    pub(super) of_wire_bytes: Counter,
}

impl IoTelemetry {
    pub(super) fn new(reg: &Registry, shared: &DlfsShared) -> IoTelemetry {
        let io = reg.scoped("dlfs.io");
        let cross_epoch = shared.cfg.cache_mode == CacheMode::CrossEpoch;
        let scope = |name, on: bool| on.then(|| reg.scoped(name));
        let cache = scope("dlfs.cache", cross_epoch);
        let iv = scope("dlfs.integrity", shared.redundancy.in_use());
        let cd = scope("dlfs.codec", shared.codec.is_some());
        let of = scope("dlfs.offload", shared.cfg.offload);
        let (cache, iv, cd, of) = (cache.as_ref(), iv.as_ref(), cd.as_ref(), of.as_ref());
        let checked = shared.redundancy.verify() || shared.codec.is_some();
        let checked = scope("dlfs.io.stage", checked).map(|s| s.histogram("check_ns"));
        // Registered at 0 and never counted. The benchmark's ledger reads an
        // absent name as 0 (`Snapshot::counter`), so what needs them
        // registered is the five goldens that list them.
        counter_in(iv, "hedges");
        counter_in(iv, "hedge_wins");
        IoTelemetry {
            check_ns: checked.unwrap_or_default(),
            codec_bytes_in: counter_in(cd, "bytes_in"),
            codec_bytes_out: counter_in(cd, "bytes_out"),
            of_requests: counter_in(of, "requests"),
            of_samples: counter_in(of, "samples"),
            of_wire_bytes: counter_in(of, "wire_bytes"),
            iv_verified: counter_in(iv, "verified"),
            iv_mismatches: counter_in(iv, "mismatches"),
            iv_repairs: counter_in(iv, "repairs"),
            iv_failovers: counter_in(iv, "failovers"),
            ce_hits: counter_in(cache, "hits"),
            ce_misses: counter_in(cache, "misses"),
            prefetch_issued: counter_in(cache, "prefetch_issued"),
            prefetch_hits: counter_in(cache, "prefetch_hits"),
            residency: cache.map(|s| (s.counter("evictions"), s.gauge("resident_chunks"))),
            samples_delivered: io.counter("samples_delivered"),
            bytes_delivered: io.counter("bytes_delivered"),
            requests_posted: io.counter("requests_posted"),
            completions: io.counter("completions"),
            poll_spins: io.counter("poll_spins"),
            retries: io.counter("retries"),
            timeouts: io.counter("timeouts"),
            batches: io.counter("batches"),
            deadline_misses: io.counter("deadline_misses"),
            cache_hits: io.counter("cache.hits"),
            cache_misses: io.counter("cache.misses"),
            cache_pins: io.counter("cache.pins"),
            scq_drains: io.counter("scq.drains"),
            scq_empty_polls: io.counter("scq.empty_polls"),
            scq_drain_batch: io.histogram("scq.drain_batch"),
            prep_ns: io.histogram("stage.prep_ns"),
            post_ns: io.histogram("stage.post_ns"),
            poll_ns: io.histogram("stage.poll_ns"),
            copy_ns: io.histogram("stage.copy_ns"),
        }
    }
}
