//! Multi-tenant serving: tenant identity and deterministic weighted-fair
//! scheduling of device qpair slots.
//!
//! Many concurrent training jobs can share one DLFS device pool
//! (FanStore-style). Each job is a *tenant*: it keeps its own namespace in
//! the shared sample cache (the tenant id is folded into every
//! [`RangeKey`](crate::cache::RangeKey)), and its reads pass one admission
//! gate before touching the qpairs, **weighted-fair queueing**: at most
//! `slots` batches hold device qpair slots at once. Admission order is
//! start-time fair queueing on a shared virtual clock `V`: a batch of `c`
//! bytes from tenant `t` gets start tag `S = max(V, F_t)` and finish tag
//! `F_t = S + c·K/w_t` (`w_t` the tenant's weight, `K` a fixed scale);
//! waiters are served in `(F, seq)` order and `V` advances to the granted
//! batch's start tag. Over any contended interval each tenant therefore
//! receives qpair time proportional to its weight — and the whole schedule
//! is a pure function of arrival order, so same-seed replays are
//! byte-identical.
//!
//! Everything here is off unless [`DlfsConfig::qos`](crate::DlfsConfig)
//! is set; the default single-implicit-tenant path never calls into this
//! module.

use std::collections::BTreeMap;
use std::sync::Arc;

use simkit::chan::Sender;
use simkit::plock::Mutex;
use simkit::runtime::Runtime;
use simkit::telemetry::{Counter, Registry};
use simkit::time::Dur;

use crate::error::DlfsError;

/// Tenant identity, threaded through `MountBuilder`, `ReadRequest` and
/// the sample cache. Tenant 0 is the implicit single tenant of a
/// non-QoS mount.
pub type TenantId = u16;

/// One tenant's service contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    pub id: TenantId,
    /// WFQ weight (relative share of qpair slots under contention). > 0.
    pub weight: u32,
}

impl TenantSpec {
    /// A tenant with the given WFQ weight.
    pub fn weighted(id: TenantId, weight: u32) -> TenantSpec {
        TenantSpec { id, weight }
    }
}

/// Multi-tenant QoS configuration ([`DlfsConfig::qos`](crate::DlfsConfig)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QosConfig {
    pub tenants: Vec<TenantSpec>,
    /// Device qpair slots shared across tenants (concurrent batches).
    pub slots: usize,
    /// Admission-wait SLO: a batch admitted within this bound counts as
    /// `slo_ok`, beyond it as `slo_miss`.
    pub slo_queue: Dur,
}

impl QosConfig {
    /// Equal-everything config for `n` tenants (ids `0..n`).
    pub fn equal(n: usize, slots: usize) -> QosConfig {
        QosConfig {
            tenants: (0..n as u16).map(|t| TenantSpec::weighted(t, 1)).collect(),
            slots,
            slo_queue: Dur::millis(5),
        }
    }

    pub fn validate(&self) -> Result<(), DlfsError> {
        let bad = |msg: String| Err(DlfsError::Config(msg));
        if self.tenants.is_empty() {
            return bad("qos.tenants must not be empty".into());
        }
        if self.slots == 0 {
            return bad("qos.slots must be > 0".into());
        }
        let mut seen = std::collections::HashSet::new();
        for t in &self.tenants {
            if !seen.insert(t.id) {
                return bad(format!("qos tenant id {} declared twice", t.id));
            }
            if t.weight == 0 {
                return bad(format!("qos tenant {} weight must be > 0", t.id));
            }
        }
        Ok(())
    }
}

/// Virtual-time scale of the WFQ tags (bytes → tag units per unit weight).
const WFQ_SCALE: u128 = 1 << 16;

struct Wfq {
    /// Shared virtual clock: the largest start tag ever granted.
    vtime: u128,
    /// Per-tenant (by index) last finish tag.
    finish: Vec<u128>,
    /// Slots currently held.
    busy: usize,
    /// Parked batches: (finish tag, arrival seq) → (start tag, wake).
    waiters: BTreeMap<(u128, u64), (u128, Sender<()>)>,
    seq: u64,
}

struct TenantTel {
    reads: Counter,
    bytes: Counter,
    queue_ns: Counter,
    slo_ok: Counter,
    slo_miss: Counter,
}

/// A granted admission: one qpair-slot lease. Must be returned through
/// [`TenantQos::complete`].
#[derive(Debug)]
pub struct QosGrant {
    idx: usize,
    /// Total admission wait (WFQ queueing).
    pub queued: Dur,
}

/// The shared admission gate of one mounted instance.
pub struct TenantQos {
    specs: Vec<TenantSpec>,
    slots: usize,
    slo_queue: Dur,
    /// Mean sample size of the mounted dataset: batch cost estimate is
    /// `n * sample_bytes`.
    sample_bytes: u64,
    wfq: Mutex<Wfq>,
    tel: Mutex<Option<Vec<TenantTel>>>,
}

impl std::fmt::Debug for TenantQos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantQos")
            .field("tenants", &self.specs.len())
            .field("slots", &self.slots)
            .finish()
    }
}

impl TenantQos {
    /// `sample_bytes` is the dataset's mean sample size (cost model for a
    /// batch of `n` samples). `cfg` must already be validated.
    pub fn new(cfg: &QosConfig, sample_bytes: u64) -> Arc<TenantQos> {
        Arc::new(TenantQos {
            specs: cfg.tenants.clone(),
            slots: cfg.slots,
            slo_queue: cfg.slo_queue,
            sample_bytes: sample_bytes.max(1),
            wfq: Mutex::new(Wfq {
                vtime: 0,
                finish: vec![0; cfg.tenants.len()],
                busy: 0,
                waiters: BTreeMap::new(),
                seq: 0,
            }),
            tel: Mutex::new(None),
        })
    }

    /// Register the `dlfs.tenant.<id>.*` counters in `reg`. Until called,
    /// counters accumulate nowhere (detached), so default metric renders
    /// stay byte-identical.
    pub fn attach_telemetry(&self, reg: &Registry) {
        let tel = self
            .specs
            .iter()
            .map(|s| {
                let scope = reg.scoped(&format!("dlfs.tenant.{}", s.id));
                TenantTel {
                    reads: scope.counter("reads"),
                    bytes: scope.counter("bytes"),
                    queue_ns: scope.counter("queue_ns"),
                    slo_ok: scope.counter("slo_ok"),
                    slo_miss: scope.counter("slo_miss"),
                }
            })
            .collect();
        *self.tel.lock() = Some(tel);
    }

    /// Batch cost estimate for `n` samples.
    pub fn batch_cost(&self, n: usize) -> u64 {
        n as u64 * self.sample_bytes
    }

    fn index_of(&self, tenant: TenantId) -> Result<usize, DlfsError> {
        self.specs
            .iter()
            .position(|s| s.id == tenant)
            .ok_or_else(|| DlfsError::Config(format!("unknown tenant id {tenant}")))
    }

    /// Admit a batch of `cost` bytes for `tenant`: waits for a WFQ slot
    /// grant. Returns the slot lease.
    pub fn admit(&self, rt: &Runtime, tenant: TenantId, cost: u64) -> Result<QosGrant, DlfsError> {
        let idx = self.index_of(tenant)?;
        let enter = rt.now();
        self.acquire_slot(rt, idx, cost);
        let queued = rt.now() - enter;
        if let Some(tel) = self.tel.lock().as_ref() {
            tel[idx].queue_ns.add(queued.as_nanos());
        }
        Ok(QosGrant { idx, queued })
    }

    /// Return a slot lease and account the delivered batch.
    pub fn complete(&self, grant: QosGrant, samples: u64, bytes: u64) {
        {
            let mut wfq = self.wfq.lock();
            // Transfer the slot to the best-tagged waiter, if any;
            // otherwise free it. The transfer keeps `busy` constant, so a
            // woken batch never re-races for its slot (no lost wakeups).
            if let Some((_, (start, wake))) = wfq.waiters.pop_first() {
                wfq.vtime = wfq.vtime.max(start);
                // A dropped receiver means the waiter's task died with the
                // simulation; nothing to hand the slot to.
                if wake.send(()).is_err() {
                    wfq.busy -= 1;
                }
            } else {
                wfq.busy -= 1;
            }
        }
        if let Some(tel) = self.tel.lock().as_ref() {
            let t = &tel[grant.idx];
            t.reads.add(samples);
            t.bytes.add(bytes);
            if grant.queued <= self.slo_queue {
                t.slo_ok.inc();
            } else {
                t.slo_miss.inc();
            }
        }
    }

    /// WFQ slot gate.
    fn acquire_slot(&self, rt: &Runtime, idx: usize, cost: u64) {
        let weight = self.specs[idx].weight as u128;
        let rx = {
            let mut wfq = self.wfq.lock();
            let start = wfq.vtime.max(wfq.finish[idx]);
            let ftag = start + (cost as u128 * WFQ_SCALE) / weight;
            wfq.finish[idx] = ftag;
            if wfq.busy < self.slots && wfq.waiters.is_empty() {
                wfq.busy += 1;
                wfq.vtime = wfq.vtime.max(start);
                None
            } else {
                let (tx, rx) = rt.channel::<()>(None);
                let seq = wfq.seq;
                wfq.seq += 1;
                wfq.waiters.insert((ftag, seq), (start, tx));
                Some(rx)
            }
        };
        if let Some(rx) = rx {
            rx.recv().expect("qos arbiter dropped a parked waiter");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qos(tenants: &[(u16, u32)], slots: usize) -> Arc<TenantQos> {
        let cfg = QosConfig {
            tenants: tenants
                .iter()
                .map(|&(id, w)| TenantSpec::weighted(id, w))
                .collect(),
            slots,
            slo_queue: Dur::millis(5),
        };
        cfg.validate().unwrap();
        TenantQos::new(&cfg, 4096)
    }

    #[test]
    fn config_validation() {
        assert!(QosConfig::equal(0, 4).validate().is_err());
        assert!(QosConfig::equal(2, 0).validate().is_err());
        let mut dup = QosConfig::equal(2, 4);
        dup.tenants[1].id = 0;
        assert!(dup.validate().is_err());
        let mut zero_w = QosConfig::equal(2, 4);
        zero_w.tenants[0].weight = 0;
        assert!(zero_w.validate().is_err());
        QosConfig::equal(2, 4).validate().unwrap();
    }

    #[test]
    fn unknown_tenant_is_typed_error() {
        Runtime::simulate(0, |rt| {
            let q = qos(&[(1, 1)], 2);
            assert!(matches!(q.admit(rt, 9, 100), Err(DlfsError::Config(_))));
        });
    }

    #[test]
    fn wfq_grants_in_finish_tag_order() {
        Runtime::simulate(0, |rt| {
            // One slot; tenant 1 has 4x the weight of tenant 0.
            let q = qos(&[(0, 1), (1, 4)], 1);
            let hold = q.admit(rt, 0, 1000).unwrap();
            // Park: heavy tenant arrives later but with the smaller
            // finish tag, so it must be granted first.
            let order = Arc::new(Mutex::new(Vec::new()));
            let mut joins = Vec::new();
            for (tenant, name) in [(0u16, "light"), (1u16, "heavy")] {
                let q = q.clone();
                let order = order.clone();
                joins.push(rt.spawn_with(name, move |rt| {
                    let g = q.admit(rt, tenant, 1000).unwrap();
                    order.lock().push(tenant);
                    q.complete(g, 1, 1000);
                }));
            }
            // Let both parkers enqueue, then release the held slot.
            rt.sleep(Dur::micros(10));
            q.complete(hold, 1, 1000);
            for j in joins {
                j.join();
            }
            assert_eq!(*order.lock(), vec![1, 0], "heavy tenant first");
        });
    }

    #[test]
    fn weighted_shares_converge_to_weights() {
        // 1:2:4 weights, one slot, equal-cost batches issued greedily by
        // all three tenants: granted batch counts must track weights.
        // Each tenant runs several worker tasks so its queue stays
        // backlogged — the per-tenant finish-tag chain links the workers
        // into one WFQ flow.
        Runtime::simulate(42, |rt| {
            let q = qos(&[(0, 1), (1, 2), (2, 4)], 1);
            let counts = Arc::new(Mutex::new([0u64; 3]));
            let mut joins = Vec::new();
            for t in 0..3u16 {
                for w in 0..4 {
                    let q = q.clone();
                    let counts = counts.clone();
                    joins.push(rt.spawn_with(&format!("tenant{t}.{w}"), move |rt| {
                        for _ in 0..200 {
                            let g = q.admit(rt, t, 8192).unwrap();
                            // Hold the slot for a fixed service time.
                            rt.sleep(Dur::micros(10));
                            counts.lock()[t as usize] += 1;
                            q.complete(g, 1, 8192);
                        }
                    }));
                }
            }
            // Sample shares mid-contention, while all three still queue.
            rt.sleep(Dur::millis(2));
            let snap = *counts.lock();
            let total: u64 = snap.iter().sum();
            assert!(total > 50, "contention never started: {snap:?}");
            for (t, &w) in [1u64, 2, 4].iter().enumerate() {
                let share = snap[t] as f64 / total as f64;
                let want = w as f64 / 7.0;
                assert!(
                    (share - want).abs() <= 0.05,
                    "tenant {t}: share {share:.3} vs weight share {want:.3} ({snap:?})"
                );
            }
            for j in joins {
                j.join();
            }
        });
    }

    #[test]
    fn replay_is_deterministic() {
        let run = || {
            Runtime::simulate(7, |rt| {
                let q = qos(&[(0, 1), (1, 3)], 2);
                let mut joins = Vec::new();
                for t in 0..2u16 {
                    let q = q.clone();
                    joins.push(rt.spawn_with(&format!("t{t}"), move |rt| {
                        for i in 0..50u64 {
                            let g = q.admit(rt, t, 4096 + i * 7).unwrap();
                            rt.sleep(Dur::micros(3));
                            q.complete(g, 1, 4096);
                        }
                        rt.now().nanos()
                    }));
                }
                joins.into_iter().map(|j| j.join()).collect::<Vec<_>>()
            })
        };
        assert_eq!(run(), run());
    }
}
