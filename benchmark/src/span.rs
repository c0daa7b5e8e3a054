//! Spans around every call the benchmark makes into a layer.
//!
//! A span has a name (`<layer>.<call>`), a start and an end in
//! nanoseconds since the tracer was made, the span that caused it, and
//! the id of the submission it belongs to. Spans stay in memory and are
//! written to `benchmark/out/trace-<workload>.json` when the run ends. A
//! layer's self time is its span's duration minus the part of that
//! interval its children cover. Spans inside the program are a later
//! change (the ROADMAP's stage timers); these sit on the benchmark's side
//! of each public call.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Index of the causing span in the trace, if any.
    pub parent: Option<usize>,
    /// Submission (or batch) number the span belongs to.
    pub submission: u64,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// An open span: finish it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    /// This span as a parent for children (`None` while tracing is off).
    pub fn id(self) -> Option<usize> {
        self.0
    }
}

/// Collects spans from every benchmark thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only while switched on.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            // Relaxed everywhere: the flag publishes no other data.
            on: AtomicBool::new(on),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switches recording on or off (a traced round alternates, so the
    /// tracing overhead is measured inside one round).
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded right now.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Opens a span.
    pub fn begin(&self, name: &'static str, parent: Option<usize>, submission: u64) -> Open {
        if !self.is_on() {
            return Open(None);
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span list");
        spans.push(Span {
            name,
            parent,
            submission,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some(spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, open: Open) {
        if let Some(i) = open.0 {
            let end_ns = self.origin.elapsed().as_nanos() as u64;
            self.spans
                .lock()
                .expect("no thread panics holding the span list")[i]
                .end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        submission: u64,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        let open = self.begin(name, parent, submission);
        let out = f(open.id());
        self.end(open);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics holding the span list")
            .clone()
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, each clipped to the span. Children may
/// nest further (their own children do not count twice) and may overlap
/// one another (two threads under one phase).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Renders the trace file: one object per span, in recording order, so
/// a span's `id` is its index and `parent` refers to an earlier line.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out =
        format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":[\n");
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"submission\":{},\"start\":{},\"end\":{},\"self\":{own}}}{}\n",
            s.name,
            s.submission,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}
