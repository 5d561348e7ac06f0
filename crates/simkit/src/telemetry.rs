//! A deterministic, virtual-time-aware metrics registry.
//!
//! Every layer of the stack (block devices, fabric, the DLFS engine, the
//! kernel baselines, the benchmark harness) registers named **counters**,
//! **gauges** and **latency histograms** in one shared [`Registry`], and a
//! [`Snapshot`] freezes them into a structured epoch report.
//!
//! Design points:
//!
//! * **Cheap handles.** `registry.counter("dlfs.io.requests_posted")`
//!   returns an [`Counter`] backed by one atomic; recording on the hot
//!   path is a relaxed add, no map lookups. Handles are `Clone` and can be
//!   stashed inside components.
//! * **One flat namespace.** Dotted names (`layer.instance.metric`, e.g.
//!   `blocksim.dev0.retries`) make reports diffable and greppable across
//!   systems; snapshots render sorted by name.
//! * **Deterministic.** All values derive from virtual-time execution and
//!   integer arithmetic; rendering a snapshot of the same simulation seed
//!   twice produces byte-identical text. This is enforced by tests and is
//!   what makes `BENCH_*.json`-style trajectories trustworthy.
//! * **Latency histograms** use the power-of-two buckets of
//!   [`crate::stats::Histogram`]; quantiles report the bucket upper bound,
//!   which is exact enough to attribute per-stage cost (prep/post/poll/
//!   copy) and stable under refactoring.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use crate::plock::Mutex;
use crate::stats::Histogram;
use crate::time::Dur;

/// A monotonically increasing event counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (queue depth, resident chunks, …).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn sub(&self, d: i64) {
        self.0.fetch_sub(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A latency histogram handle (values in nanoseconds by convention).
#[derive(Clone, Debug, Default)]
pub struct Histo(Arc<Mutex<Histogram>>);

impl Histo {
    pub fn record(&self, v: u64) {
        self.0.lock().add(v);
    }

    pub fn record_dur(&self, d: Dur) {
        self.record(d.as_nanos());
    }

    fn summary(&self) -> HistoSummary {
        HistoSummary::from(&self.0.lock())
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histo(Histo),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histo(_) => "histogram",
        }
    }
}

/// The shared metrics registry. Cloning is cheap (`Arc` inside); a clone
/// made with [`Registry::scoped`] prefixes every name it registers, so a
/// component can be handed `registry.scoped("blocksim.dev0")` and register
/// plain `"retries"`.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
    prefix: String,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A handle onto the same registry that prepends `prefix.` to every
    /// metric name registered through it.
    pub fn scoped(&self, prefix: &str) -> Registry {
        let prefix = if self.prefix.is_empty() {
            prefix.to_string()
        } else {
            format!("{}.{prefix}", self.prefix)
        };
        Registry {
            metrics: self.metrics.clone(),
            prefix,
        }
    }

    fn full(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.prefix)
        }
    }

    /// Get-or-create the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        let full = self.full(name);
        let mut g = self.metrics.lock();
        match g
            .entry(full.clone())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric '{full}' already registered as {}", other.kind()),
        }
    }

    /// Get-or-create the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let full = self.full(name);
        let mut g = self.metrics.lock();
        match g
            .entry(full.clone())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(v) => v.clone(),
            other => panic!("metric '{full}' already registered as {}", other.kind()),
        }
    }

    /// Get-or-create the named latency histogram.
    pub fn histogram(&self, name: &str) -> Histo {
        let full = self.full(name);
        let mut g = self.metrics.lock();
        match g
            .entry(full.clone())
            .or_insert_with(|| Metric::Histo(Histo::default()))
        {
            Metric::Histo(h) => h.clone(),
            other => panic!("metric '{full}' already registered as {}", other.kind()),
        }
    }

    /// Freeze every registered metric into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let g = self.metrics.lock();
        let entries = g
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => Value::Counter(c.get()),
                    Metric::Gauge(v) => Value::Gauge(v.get()),
                    Metric::Histo(h) => Value::Histo(h.summary()),
                };
                (name.clone(), v)
            })
            .collect();
        Snapshot { entries }
    }
}

/// Integer summary of one histogram: count, integer mean, and the
/// p50/p95/p99 bucket upper bounds. All-integer so reports render
/// byte-identically across runs and hosts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistoSummary {
    pub count: u64,
    pub sum: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl HistoSummary {
    fn from(h: &Histogram) -> HistoSummary {
        HistoSummary {
            count: h.count(),
            sum: h.sum(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
        }
    }

    /// Integer mean (`sum / count`, 0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// One frozen metric value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    Counter(u64),
    Gauge(i64),
    Histo(HistoSummary),
}

/// A frozen, ordered view of the registry: the epoch report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    entries: BTreeMap<String, Value>,
}

impl Snapshot {
    /// Value of a counter, 0 when absent (absent and never-incremented are
    /// indistinguishable by design — reports stay comparable across
    /// configurations that don't exercise every path).
    pub fn counter(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(Value::Counter(v)) => *v,
            _ => 0,
        }
    }

    pub fn gauge(&self, name: &str) -> i64 {
        match self.entries.get(name) {
            Some(Value::Gauge(v)) => *v,
            _ => 0,
        }
    }

    pub fn histogram(&self, name: &str) -> HistoSummary {
        match self.entries.get(name) {
            Some(Value::Histo(h)) => *h,
            _ => HistoSummary::default(),
        }
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The counter-wise difference `self - earlier` (histograms and gauges
    /// keep `self`'s value): per-window rates from two lifetime snapshots.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .map(|(k, v)| {
                let v = match (v, earlier.entries.get(k)) {
                    (Value::Counter(now), Some(Value::Counter(then))) => {
                        Value::Counter(now.saturating_sub(*then))
                    }
                    _ => v.clone(),
                };
                (k.clone(), v)
            })
            .collect();
        Snapshot { entries }
    }

    /// Deterministic text report: one line per metric, sorted by name.
    /// Identical simulations render byte-identical reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.entries {
            match v {
                Value::Counter(c) => writeln!(out, "{name} {c}").unwrap(),
                Value::Gauge(g) => writeln!(out, "{name} {g}").unwrap(),
                Value::Histo(h) => writeln!(
                    out,
                    "{name} count={} mean={} p50={} p95={} p99={}",
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p95,
                    h.p99
                )
                .unwrap(),
            }
        }
        out
    }

    /// Like [`Snapshot::render`], but only metrics whose name starts with
    /// `prefix`.
    pub fn render_prefixed(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (name, v) in &self.entries {
            if !name.starts_with(prefix) {
                continue;
            }
            match v {
                Value::Counter(c) => writeln!(out, "{name} {c}").unwrap(),
                Value::Gauge(g) => writeln!(out, "{name} {g}").unwrap(),
                Value::Histo(h) => writeln!(
                    out,
                    "{name} count={} mean={} p50={} p95={} p99={}",
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p95,
                    h.p99
                )
                .unwrap(),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_with_registry() {
        let reg = Registry::new();
        let c = reg.counter("a.events");
        c.inc();
        c.add(4);
        // Re-fetching the same name returns the same underlying metric.
        assert_eq!(reg.counter("a.events").get(), 5);
        let g = reg.gauge("a.depth");
        g.set(3);
        g.add(2);
        g.sub(1);
        assert_eq!(reg.gauge("a.depth").get(), 4);
    }

    #[test]
    fn scoped_prefixes_compose() {
        let reg = Registry::new();
        let dev = reg.scoped("blocksim").scoped("dev0");
        dev.counter("retries").add(7);
        assert_eq!(reg.snapshot().counter("blocksim.dev0.retries"), 7);
    }

    #[test]
    fn snapshot_renders_sorted_and_stable() {
        let reg = Registry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        let h = reg.histogram("m.lat_ns");
        for v in [100u64, 200, 400, 100_000] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let text = snap.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "a.first 2");
        assert!(lines[1].starts_with("m.lat_ns count=4 mean=25175 p50="));
        assert_eq!(lines[2], "z.last 1");
        // Rendering twice is byte-identical.
        assert_eq!(text, reg.snapshot().render());
    }

    #[test]
    fn histogram_summary_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = reg.snapshot().histogram("lat");
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 512);
        assert!(s.p99 >= 990);
        assert_eq!(s.mean(), 500);
    }

    #[test]
    fn since_diffs_counters_only() {
        let reg = Registry::new();
        let c = reg.counter("n");
        let g = reg.gauge("g");
        c.add(10);
        g.set(5);
        let first = reg.snapshot();
        c.add(7);
        g.set(9);
        let diff = reg.snapshot().since(&first);
        assert_eq!(diff.counter("n"), 7);
        assert_eq!(diff.gauge("g"), 9);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }
}
