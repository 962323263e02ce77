//! Spans: recorded in memory around calls into each layer, written out as
//! JSON lines when the run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` is the id of the span one layer up that this call
/// re-enacts a part of (0 = none); ids start at 1. Spans of one request share
/// `request`, its index in the traced sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Times `f` as a span and returns its result and the span's id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: usize,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            request: request as u32,
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
        (result, id)
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// durations of the spans naming it as parent, floored at zero. The ladder's
/// children are re-enactments timed after their parent returned, so it is
/// durations that are subtracted, not interval overlaps.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len() + 1];
    for s in spans {
        children[s.parent as usize] += s.duration_ns();
    }
    spans
        .iter()
        .map(|s| s.duration_ns().saturating_sub(children[s.id as usize]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_telescopes() {
        let spans = vec![
            span(1, 0, "request", 0, 100),
            span(2, 1, "net.parse", 100, 105),
            span(3, 1, "engine.call", 105, 165),
            span(4, 3, "versioning.call", 165, 205),
            span(5, 4, "erasure.call", 205, 235),
            span(6, 5, "gf.call", 235, 255),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![35, 5, 20, 10, 10, 20]);
        // Every nanosecond of the request lands in exactly one layer.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_child_slower_than_its_parent_floors_at_zero() {
        let spans = vec![
            span(1, 0, "engine.call", 0, 10),
            span(2, 1, "versioning.call", 10, 40),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 30]);
    }

    #[test]
    fn tracer_numbers_spans_from_one_and_links_parents() {
        let mut t = Tracer::new(4);
        let ((), outer) = t.span("request", 0, 7, || {});
        let (x, inner) = t.span("engine.call", outer, 7, || 42);
        assert_eq!((outer, inner, x), (1, 2, 42));
        assert_eq!(t.spans[1].parent, 1);
        assert_eq!(t.spans[1].request, 7);
        assert!(t.spans[1].start_ns >= t.spans[0].end_ns);
    }
}
