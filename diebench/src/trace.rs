//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Every timed call goes through [`Tracer::time`], which measures it with
//! `Instant` either way and, when the tracer is enabled, also records a
//! span (name, start, end, parent). Spans stay in memory and are written
//! out once, when the traced run ends.

use std::time::{Duration, Instant};

use crate::report::json_str;

/// Index of a recorded span; `ROOT` parents the top-level spans.
pub type SpanId = usize;

pub const ROOT: SpanId = usize::MAX;

struct Span {
    name: String,
    parent: SpanId,
    start: Duration,
    end: Duration,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span for work whose children are recorded separately;
    /// returns its id (or `ROOT` when disabled, so children attach to
    /// the root).
    pub fn open(&mut self, name: &str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(span) = self.spans.get_mut(id) {
            span.end = self.epoch.elapsed();
        }
    }

    /// Runs `f`, returning its result and wall time; records a span when
    /// enabled.
    pub fn time<T>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                parent,
                start: start - self.epoch,
                end: end - self.epoch,
            });
        }
        (out, end - start)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a JSON array of `{id, name, parent, start_us, end_us}`
    /// (`parent` is null for top-level spans).
    pub fn spans_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = if s.parent == ROOT {
                    "null".to_string()
                } else {
                    s.parent.to_string()
                };
                format!(
                    "{{\"id\": {id}, \"name\": {}, \"parent\": {parent}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                    json_str(&s.name),
                    s.start.as_secs_f64() * 1e6,
                    s.end.as_secs_f64() * 1e6
                )
            })
            .collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    }
}
