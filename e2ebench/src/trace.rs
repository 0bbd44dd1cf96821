//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! A span has a name, start and end (ns since the tracer was created),
//! the index of the span that caused it, and the round or frame it
//! belongs to. Self time is a span's duration minus the part of its
//! interval that its children cover (overlapping children count once).

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `"server.serve_round"`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the causing span, if any.
    pub parent: Option<u32>,
    /// Round (serve workloads) or frame (link workloads) id.
    pub id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Span store with a fixed time origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// ns since the origin.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// ns from the origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its index (for use as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<u32>,
        id: u64,
    ) -> u32 {
        debug_assert!(start <= end, "span ends before it starts");
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` and records it as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = self.now();
        let r = f();
        let end = self.now();
        (r, self.record(name, start, end, parent, id))
    }

    /// Moves the end of span `index` (for a parent recorded before its
    /// children finished).
    pub fn set_end(&mut self, index: u32, end: u64) {
        self.spans[index as usize].end = end;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration (ns) of the spans named `name`, and their count.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, n), s| (t + s.dur(), n + 1))
    }

    /// Summed self time (ns) of the spans named `name`, and their count.
    pub fn total_self(&self, name: &str) -> (u64, u64) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .fold((0, 0), |(t, n), (i, s)| {
                (t + self_time(s, &mut children[i]), n + 1)
            })
    }

    /// Writes the first `limit` spans to `path`, one JSON object per
    /// line, and returns how many it wrote.
    pub fn write_jsonl(&self, path: &std::path::Path, limit: usize) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = self.write_lines(&mut out, limit)?;
        out.flush()?;
        Ok(written)
    }

    fn write_lines(&self, out: &mut impl Write, limit: usize) -> std::io::Result<usize> {
        let spans = &self.spans[..self.spans.len().min(limit)];
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start, s.end, parent, s.id
            )?;
        }
        Ok(spans.len())
    }
}

/// Duration of `span` minus the union of `children` clipped to it.
/// Sorts `children` in place.
pub fn self_time(span: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(span.end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    span.dur() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span {
            name: "x",
            start,
            end,
            parent: None,
            id: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let parent = span(0, 100);
        // [10,40) and [30,60) overlap on [30,40): together they cover
        // 50 ns, not 60; [90,120) is clipped to the parent's end.
        let mut kids = vec![(30, 60), (10, 40), (90, 120)];
        assert_eq!(self_time(&parent, &mut kids), 100 - 50 - 10);
        // A child nested in another covers nothing extra.
        let mut nested = vec![(10, 50), (20, 30)];
        assert_eq!(self_time(&parent, &mut nested), 60);
        assert_eq!(self_time(&parent, &mut []), 100);
    }

    #[test]
    fn totals_and_self_totals_follow_parents() {
        let mut t = Tracer::new();
        let root = t.record("round", 0, 100, None, 7);
        t.record("a", 10, 40, Some(root), 7);
        t.record("a", 30, 60, Some(root), 7);
        let other = t.record("round", 200, 250, None, 8);
        t.record("b", 200, 250, Some(other), 8);
        assert_eq!(t.total("a"), (60, 2));
        assert_eq!(t.total("round"), (150, 2));
        assert_eq!(t.total_self("round"), (50, 2));
    }

    #[test]
    fn writes_one_line_per_span() {
        let mut t = Tracer::new();
        let p = t.record("round", 0, 10, None, 1);
        t.record("server.submit", 1, 2, Some(p), 1);
        let mut buf = Vec::new();
        assert_eq!(t.write_lines(&mut buf, usize::MAX).unwrap(), 2);
        assert_eq!(t.write_lines(&mut Vec::new(), 1).unwrap(), 1);
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[0].contains("\"parent\":null"));
    }
}
