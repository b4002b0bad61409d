//! In-memory spans and counts for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! crate's public functions; nothing inside the program is hooked.  They
//! stay in memory and are written out once, after the run.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `kifmm.plan`.
    pub name: &'static str,
    /// Start, seconds since the tracer's epoch.
    pub start: f64,
    /// End, seconds since the tracer's epoch.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// A count taken at a span boundary.
#[derive(Debug, Clone)]
pub struct Count {
    /// What was counted, e.g. `stream.migrants`.
    pub name: &'static str,
    /// Request the count belongs to.
    pub request: u64,
    /// The value.
    pub value: f64,
}

/// Span and count recorder.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new(), counts: Vec::new(), open: Vec::new() }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    fn push(
        &mut self,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let (start, end) = (self.at(start), self.at(end));
        self.spans.push(Span { name, start, end, parent, request });
        self.spans.len() - 1
    }

    /// Records a span measured by the caller; its parent is the
    /// innermost span open in [`Tracer::span`].
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.push(name, request, start, end, self.open.last().copied())
    }

    /// Records a span measured by the caller under an explicit parent.
    pub fn record_under(
        &mut self,
        parent: usize,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.push(name, request, start, end, Some(parent))
    }

    /// An empty recorder on the same epoch, for another thread; merge it
    /// back with [`Tracer::absorb`].
    pub fn child(&self) -> Tracer {
        Tracer::new(self.epoch)
    }

    /// Times `f` as a span; spans recorded inside it become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let start = Instant::now();
        let id = self.record(name, request, start, start);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.at(Instant::now());
        out
    }

    /// Records a count.
    pub fn count(&mut self, name: &'static str, request: u64, value: f64) {
        self.counts.push(Count { name, request, value });
    }

    /// Appends another recorder's spans and counts (same epoch assumed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.counts.extend(other.counts);
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Values of every count called `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counts.iter().filter(|c| c.name == name).map(|c| c.value).collect()
    }

    /// Self time (ms) of every span called `name`: its duration minus the
    /// part of it that its child spans cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let mut covered = 0.0;
                let mut reach = s.start;
                let mut kids = children.remove(&i).unwrap_or_default();
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start - covered) * 1e3
            })
            .collect()
    }

    /// Writes the spans to `<stem>.spans.csv` and the counts to
    /// `<stem>.counts.csv` (times in seconds since the epoch; the parent is
    /// a span's row number, counting from 0).
    pub fn write_csv(&self, stem: &Path) -> io::Result<()> {
        let mut spans = BufWriter::new(File::create(stem.with_extension("spans.csv"))?);
        writeln!(spans, "name,start_s,end_s,parent,request")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(spans, "{},{:.9},{:.9},{parent},{}", s.name, s.start, s.end, s.request)?;
        }
        spans.flush()?;
        let mut counts = BufWriter::new(File::create(stem.with_extension("counts.csv"))?);
        writeln!(counts, "name,request,value")?;
        for c in &self.counts {
            writeln!(counts, "{},{},{}", c.name, c.request, c.value)?;
        }
        counts.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(t0);
        let root = tr.record("root", 0, at(0), at(100));
        tr.open.push(root);
        tr.record("a", 0, at(10), at(40));
        tr.record("b", 0, at(30), at(50)); // overlaps a
        tr.record("c", 0, at(90), at(120)); // runs past the parent
        tr.open.pop();
        let own = tr.self_times("root");
        assert_eq!(own.len(), 1);
        assert!((own[0] - 50.0).abs() < 1e-6, "{own:?}");
        assert_eq!(tr.self_times("a"), vec![tr.durations("a")[0]]);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut tr = Tracer::new(Instant::now());
        tr.span("outer", 7, |tr| tr.span("inner", 7, |_| ()));
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[0].parent, None);
        let mut other = Tracer::new(tr.epoch);
        other.span("x", 1, |tr| tr.span("y", 1, |_| ()));
        tr.absorb(other);
        assert_eq!(tr.spans()[3].parent, Some(2));
    }
}
