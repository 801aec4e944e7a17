//! In-memory span recorder for traced runs.
//!
//! Every layer call the benchmark makes is wrapped in [`span`], which opens
//! an `rtgcn_telemetry` span and, while tracing is on, records the span's
//! name, parent, request id, thread and start/end offsets. Nothing is
//! written until [`write_jsonl`] runs at the end of the run.

use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub thread: String,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    on: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// Turn span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    tracer().on.store(on, Ordering::SeqCst);
}

/// Run `f` with every span it opens on this thread tagged `request`.
pub fn in_request<R>(request: u64, f: impl FnOnce() -> R) -> R {
    let prev = REQUEST.with(|r| r.replace(request));
    let out = f();
    REQUEST.with(|r| r.set(prev));
    out
}

/// A new process-unique request id.
pub fn next_request() -> u64 {
    tracer().next_id.fetch_add(1, Ordering::Relaxed)
}

/// An open span; recorded when dropped.
pub struct Span {
    rec: Option<SpanRec>,
    _telemetry: rtgcn_telemetry::SpanGuard,
}

/// Open a span named `name` under the innermost open span of this thread.
pub fn span(name: &'static str) -> Span {
    let telemetry = rtgcn_telemetry::span(name);
    let t = tracer();
    if !t.on.load(Ordering::Relaxed) {
        return Span {
            rec: None,
            _telemetry: telemetry,
        };
    }
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let rec = SpanRec {
        id,
        parent,
        request: REQUEST.with(Cell::get),
        thread: std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string(),
        name,
        start_ns: t.epoch.elapsed().as_nanos() as u64,
        end_ns: 0,
    };
    Span {
        rec: Some(rec),
        _telemetry: telemetry,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(mut rec) = self.rec.take() else {
            return;
        };
        let t = tracer();
        rec.end_ns = t.epoch.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&rec.id) {
                s.pop();
            }
        });
        t.spans.lock().push(rec);
    }
}

/// Every recorded span so far, in completion order.
pub fn recorded() -> Vec<SpanRec> {
    tracer().spans.lock().clone()
}

/// Self time of each span: its duration minus the durations of its
/// direct children.
fn self_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)))
        .collect()
}

/// Per-name totals: `(count, total_ns, self_ns)`.
pub fn summarize(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    out
}

/// Write every span as one JSON object per line, self time included.
pub fn write_jsonl(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"thread\":{:?},\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.request, s.thread, s.name, s.start_ns, s.end_ns, own
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let rec = |id, parent, start_ns, end_ns| SpanRec {
            id,
            parent,
            request: 7,
            thread: "t".into(),
            name: if id == 1 {
                "outer"
            } else if id == 2 {
                "mid"
            } else {
                "leaf"
            },
            start_ns,
            end_ns,
        };
        let spans = vec![rec(3, 2, 20, 30), rec(2, 1, 10, 50), rec(1, 0, 0, 100)];
        let sum = summarize(&spans);
        assert_eq!(sum["outer"], (1, 100, 60));
        assert_eq!(sum["mid"], (1, 40, 30));
        assert_eq!(sum["leaf"], (1, 10, 10));
    }
}
