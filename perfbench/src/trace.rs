//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a request id shared by every span of one request, a
//! parent, and start/end times.  Self time = duration minus the part of it
//! the span's children cover.  Spans are kept in memory and written out as
//! JSON lines when the run ends.

use crate::stats::{median, quote};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` gets the tracer back (to open children)
    /// and the new span's index.
    pub fn span<T>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer, usize) -> T,
    ) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        let out = f(self, index);
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records a span whose times were taken elsewhere.
    pub fn record(&mut self, request: u64, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            request,
            name,
            parent: None,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Self time of every span, in nanoseconds, index-aligned with `spans`.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                // Children of one parent run one after another here, so
                // their durations never overlap and simply add up.
                child_ns[parent] += span.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(span, covered)| span.dur_ns().saturating_sub(covered))
            .collect()
    }

    /// Median self time of the spans called `name`, in microseconds.
    pub fn median_self_us(&self, name: &str) -> f64 {
        let selfs = self.self_times();
        let values: Vec<f64> = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(span, _)| span.name == name)
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect();
        median(&values)
    }

    pub fn extend(&mut self, other: Tracer) {
        let offset = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += offset;
            s.end_ns += offset;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            writeln!(
                out,
                "{{\"i\": {i}, \"request\": {}, \"name\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                span.request,
                quote(span.name),
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.start_ns,
                span.end_ns,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.span(1, "root", None, |t, root| {
            t.span(1, "child", Some(root), |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let selfs = t.self_times();
        assert!(selfs[1] >= 4_000_000);
        assert!(selfs[0] >= 2_000_000 && selfs[0] < t.spans[0].dur_ns() - 4_000_000 + 1);
    }
}
