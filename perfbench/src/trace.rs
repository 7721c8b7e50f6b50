//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a tag (the dataset or selector it belongs to), an id
//! shared by every span of one run, review or request, a parent, and its
//! start and end in seconds since the run began. Spans stay in memory and
//! are written out as JSON lines when the benchmark ends. A disabled
//! tracer records nothing, so untraced runs pay one branch per boundary.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its tracer; `NONE` when the tracer is disabled.
pub type SpanRef = usize;

/// No span: the parent of a root span, or what a disabled tracer returns.
pub const NONE: SpanRef = usize::MAX;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `run` or `rank`.
    pub name: &'static str,
    /// Dataset or selector the span belongs to.
    pub tag: &'static str,
    /// Id shared by all spans of one run, review or request.
    pub id: u64,
    /// The enclosing span.
    pub parent: SpanRef,
    /// Seconds since the run began.
    pub start: f64,
    /// Seconds since the run began (NaN while open).
    pub end: f64,
}

impl Span {
    /// The span's length in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose times count from `origin`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Opens a span now.
    pub fn open(
        &mut self,
        name: &'static str,
        tag: &'static str,
        id: u64,
        parent: SpanRef,
    ) -> SpanRef {
        if !self.enabled {
            return NONE;
        }
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            tag,
            id,
            parent,
            start,
            end: f64::NAN,
        });
        self.spans.len() - 1
    }

    /// Closes a span now.
    pub fn close(&mut self, span: SpanRef) {
        if span != NONE {
            self.spans[span].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Records a span that was timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        tag: &'static str,
        id: u64,
        parent: SpanRef,
        start: Instant,
        end: Instant,
    ) -> SpanRef {
        if !self.enabled {
            return NONE;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            tag,
            id,
            parent,
            start: at(start),
            end: at(end),
        });
        self.spans.len() - 1
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded since index `from`.
    pub fn since(&self, from: usize) -> &[Span] {
        &self.spans[from.min(self.spans.len())..]
    }

    /// Moves another recorder's spans (same origin) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += offset;
            }
            s
        }));
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"tag\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_s\": {:?}, \"end_s\": {:?}}}",
                s.name, s.tag, s.id, s.start, s.end
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Summed length of the spans named `name` whose tag passes `tag`.
pub fn total(spans: &[Span], name: &str, tag: impl Fn(&str) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && tag(s.tag))
        .map(Span::secs)
        .sum()
}

/// Lengths of the spans named `name`, in recording order.
pub fn lengths(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.open("run", "x", 1, NONE);
        t.close(s);
        assert_eq!(s, NONE);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_merge() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        let run = a.open("run", "Degree", 1, NONE);
        let rank = a.open("rank", "Degree", 1, run);
        a.close(rank);
        a.close(run);
        let mut b = Tracer::new(true, origin);
        let req = b.open("request", "q", 9, NONE);
        let call = b.open("delta", "q", 9, req);
        b.close(call);
        b.close(req);
        a.absorb(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[1].parent, 0);
        assert_eq!(a.spans()[3].parent, 2);
        assert!(total(a.spans(), "run", |_| true) >= total(a.spans(), "rank", |_| true));
        assert_eq!(a.to_jsonl().lines().count(), 4);
    }
}
