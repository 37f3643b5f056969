//! Spans the benchmark opens around its own calls into each layer.
//!
//! A span records its name, start, end and parent; all spans of one input
//! share the input's id.  Spans are kept in memory and written as JSONL when
//! the run ends.  Only the traced binary records them.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The layers the benchmark times, in report order.  A span's layer is the
/// part of its name before the first `.`; `harness` is the benchmark itself.
pub const LAYERS: [&str; 6] = ["models", "core", "sat", "proof", "serve", "harness"];

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// The input the span belongs to (0 for the pass span).
    pub input: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Start, from the tracer's epoch.
    pub start: Duration,
    /// End, from the tracer's epoch.
    pub end: Duration,
}

impl Span {
    /// The span's layer.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span recorder shared by the client threads of a pass.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Opens a span now and returns its index.
    pub fn open(&self, name: &'static str, input: u64, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.push(Span {
            name,
            input,
            parent,
            start: now,
            end: now,
        })
    }

    /// Closes span `index` now.
    pub fn close(&self, index: usize) {
        let now = self.epoch.elapsed();
        self.spans.lock().expect("span lock is not poisoned")[index].end = now;
    }

    /// Records a finished span.
    pub fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span lock is not poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// A copy of span `index`.
    pub fn span(&self, index: usize) -> Span {
        self.spans.lock().expect("span lock is not poisoned")[index].clone()
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span lock is not poisoned")
            .clone()
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans().iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"input\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                span.name,
                span.input,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6,
            );
        }
        out
    }
}

/// Total length of the union of `intervals`.
fn union_length(mut intervals: Vec<(Duration, Duration)>) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Duration, Duration)> = None;
    for (start, end) in intervals {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// Self time per layer of the spans inside `pass` (the index of a pass
/// span): each span's duration minus the part its children cover, summed by
/// layer, in [`LAYERS`] order.  The pass span itself is excluded.
pub fn self_times(spans: &[Span], pass: usize) -> Vec<(&'static str, Duration)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (index, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(index);
        }
    }
    let mut totals = vec![Duration::ZERO; LAYERS.len()];
    let mut stack = children[pass].clone();
    while let Some(index) = stack.pop() {
        let span = &spans[index];
        let covered = union_length(
            children[index]
                .iter()
                .map(|&c| (spans[c].start, spans[c].end))
                .collect(),
        );
        let slot = LAYERS
            .iter()
            .position(|&l| l == span.layer())
            .unwrap_or(LAYERS.len() - 1);
        totals[slot] += (span.end - span.start).saturating_sub(covered);
        stack.extend(&children[index]);
    }
    LAYERS.iter().copied().zip(totals).collect()
}

/// Share of the pass span's wall time that no layer span (any span outside
/// the `harness` layer) covers.
pub fn uncovered_share(spans: &[Span], pass: usize) -> f64 {
    let window = &spans[pass];
    let covered = union_length(
        spans
            .iter()
            .filter(|s| s.layer() != "harness" && s.start >= window.start && s.end <= window.end)
            .map(|s| (s.start, s.end))
            .collect(),
    );
    let wall = (window.end - window.start).as_secs_f64();
    if wall == 0.0 {
        return 0.0;
    }
    1.0 - covered.as_secs_f64() / wall
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            input: 1,
            parent,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span("harness.pass", None, 0, 100),
            span("harness.input", Some(0), 0, 90),
            span("sat.check_certified", Some(1), 10, 80),
            span("proof.replay", Some(2), 50, 80),
        ];
        let times: std::collections::HashMap<_, _> = self_times(&spans, 0).into_iter().collect();
        assert_eq!(times["harness"], Duration::from_millis(20));
        assert_eq!(times["sat"], Duration::from_millis(40));
        assert_eq!(times["proof"], Duration::from_millis(30));
        assert!((uncovered_share(&spans, 0) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn overlapping_spans_count_once() {
        let spans = vec![
            span("harness.pass", None, 0, 100),
            span("serve.submit", Some(0), 0, 60),
            span("serve.submit", Some(0), 40, 80),
        ];
        assert!((uncovered_share(&spans, 0) - 0.2).abs() < 1e-9);
    }
}
