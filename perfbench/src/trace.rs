//! In-memory spans recorded by the traced run around calls into each
//! layer. Spans are written out once, when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder; a span's id is its index.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span now; [`Trace::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.record(name, parent, start_ns, start_ns)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Records a span whose times were taken elsewhere (client samples,
    /// training history).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part of it that its
    /// children cover (overlapping children are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut kids = children.remove(&id).unwrap_or_default();
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Writes one JSON object per span: id, parent, name, start, end and
    /// self time in nanoseconds.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let self_ns = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_time_minus_children() {
        let mut t = Trace::new();
        let root = t.record("request", None, 100, 200);
        t.record("parse", Some(root), 110, 130);
        let engine = t.record("engine", Some(root), 140, 190);
        t.record("foldin", Some(engine), 150, 170);
        // a child that overlaps its sibling is not counted twice
        t.record("kernel", Some(engine), 160, 180);
        let own = t.self_times_ns();
        assert_eq!(own[root], 100 - 20 - 50);
        assert_eq!(own[engine], 50 - 30);
        assert_eq!(own[1], 20);
        assert_eq!(own[3], 20);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut t = Trace::new();
        let root = t.record("phase", None, 0, 10);
        t.record("late", Some(root), 5, 15);
        assert_eq!(t.self_times_ns()[root], 5);
    }
}
