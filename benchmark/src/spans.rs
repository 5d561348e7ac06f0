//! The benchmark's own span recorder. Spans wrap the calls the benchmark
//! makes into the product (`mount`, `io.sequence`, `io.submit`, ...), from
//! outside: nothing inside `crates/` is instrumented. A span carries both
//! clocks — virtual start/end for attribution, host start/end for
//! simulator cost — a parent, and the id of the request it belongs to.
//! Recording never advances virtual time, so a traced pass reproduces the
//! untraced end-to-end metrics exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use simkit::runtime::Runtime;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub task: u32,
    /// Request the span belongs to (0 = not part of a request).
    pub req: u64,
    pub v_start: u64,
    pub v_end: u64,
    pub h_start: u64,
    pub h_end: u64,
}

/// Per-task recorder. Each simulated task owns one, so recording takes no
/// lock; the spans are merged when the task ends.
pub struct Tracer {
    on: bool,
    task: u32,
    host0: Instant,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, task: u32, host0: Instant) -> Tracer {
        Tracer {
            on,
            task,
            host0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, rt: &Runtime, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            id: ((self.task as u64) << 32) | (idx as u64 + 1),
            parent: self.stack.last().map(|&p| self.spans[p].id),
            name,
            task: self.task,
            req,
            v_start: rt.now().nanos(),
            v_end: 0,
            h_start: self.host0.elapsed().as_nanos() as u64,
            h_end: 0,
        });
        self.stack.push(idx);
    }

    pub fn close(&mut self, rt: &Runtime) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("close without open");
        self.spans[idx].v_end = rt.now().nanos();
        self.spans[idx].h_end = self.host0.elapsed().as_nanos() as u64;
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "span left open");
        self.spans
    }
}

/// Per-name totals: calls, virtual and host self time. Self time is a
/// span's duration minus the part its children cover.
pub struct SelfTime {
    pub calls: u64,
    pub virt_ns: u64,
    pub host_ns: u64,
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_v: BTreeMap<u64, u64> = BTreeMap::new();
    let mut child_h: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_v.entry(p).or_default() += s.v_end - s.v_start;
            *child_h.entry(p).or_default() += s.h_end - s.h_start;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert(SelfTime {
            calls: 0,
            virt_ns: 0,
            host_ns: 0,
        });
        e.calls += 1;
        // Children of one parent run on the parent's task, back to back,
        // so their durations never overlap and never exceed the parent's.
        e.virt_ns += (s.v_end - s.v_start) - child_v.get(&s.id).copied().unwrap_or(0);
        e.host_ns += (s.h_end - s.h_start).saturating_sub(child_h.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Chrome-trace ("Trace Event Format") rendering on the virtual clock;
/// host times ride along in `args`.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{},\
             \"host_start_ns\":{},\"host_dur_ns\":{}}}}}",
            s.name,
            workload,
            s.task,
            s.v_start as f64 / 1e3,
            (s.v_end - s.v_start) as f64 / 1e3,
            s.id,
            parent,
            s.req,
            s.h_start,
            s.h_end - s.h_start,
        )
        .expect("write to string");
    }
    out.push_str("\n]}\n");
    out
}
