//! In-memory span recording around calls into the program's layers.
//!
//! A span is named `<layer>.<operation>`; every request opens a root
//! span named `request.<kind>` and the layer calls it makes become its
//! children. All spans of one request share its request id. Spans are
//! kept in memory and written out once, after the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. With recording off, [`Tracer::span`]
/// only calls through and [`Tracer::request`] only reads the clock.
#[derive(Debug)]
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    /// Request ids are `thread << 32 | n`, unique across tracers.
    thread: u64,
    requests: u64,
    root: Option<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Self {
        Tracer {
            on,
            epoch,
            thread,
            requests: 0,
            root: None,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn request_id(&self) -> u64 {
        self.thread << 32 | self.requests
    }

    /// Run one request; returns its result and wall time in seconds.
    pub fn request<T>(&mut self, kind: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        self.requests += 1;
        let start = Instant::now();
        if self.on {
            self.root = Some(self.spans.len());
            self.spans.push(Span {
                name: kind,
                start_ns: self.ns(start),
                end_ns: 0,
                parent: None,
                request: self.request_id(),
            });
        }
        let out = f(self);
        let end = Instant::now();
        if let Some(root) = self.root.take() {
            self.spans[root].end_ns = self.ns(end);
        }
        (out, (end - start).as_secs_f64())
    }

    /// Time one call into a layer as a child of the open request.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.root,
            request: self.request_id(),
        });
        out
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }
}

/// Self time per layer, summed over tracers: a span's duration minus
/// the part its children cover. Children of one request never overlap,
/// so that part is the sum of their durations. Also returns the summed
/// duration of all root spans.
pub fn layer_self_ns<'a>(
    tracers: impl IntoIterator<Item = &'a Tracer>,
) -> (BTreeMap<&'static str, u64>, u64) {
    let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut roots = 0;
    for t in tracers {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        for (s, children) in t.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *layers.entry(layer).or_default() += s.dur_ns().saturating_sub(children);
            if s.parent.is_none() {
                roots += s.dur_ns();
            }
        }
    }
    (layers, roots)
}

/// The spans as JSON lines: one object per span.
pub fn to_jsonl<'a>(tracers: impl IntoIterator<Item = &'a Tracer>) -> String {
    let mut out = String::new();
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"thread\":{},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                t.thread, s.name, s.start_ns, s.end_ns, s.request
            );
        }
    }
    out
}

/// Linear-interpolation quantile of `q` in `[0, 1]`; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak and current resident set size in MB, from `/proc/self/status`
/// (`VmHWM`, `VmRSS`); zero where that file does not exist.
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}
