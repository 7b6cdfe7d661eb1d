//! Spans recorded from *outside* the program, around the benchmark's own
//! calls into each layer. Kept in pre-allocated per-thread buffers while a
//! run is measured and written out (JSON lines) afterwards.

use std::io::{self, Write};
use std::time::Instant;

/// Which op a span belongs to: `(generator, tick, k-th op of the tick)`.
pub type Req = (u32, u64, u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// 0 = no parent (ids start at 1).
    pub parent: u32,
    pub req: Req,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Disabled, every call is a plain call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
    next_id: u32,
}

impl Tracer {
    /// `capacity` spans are allocated up front so recording never
    /// reallocates inside a measured window; `None` disables recording.
    /// `id_base` keeps ids of different threads disjoint.
    pub fn new(epoch: Instant, capacity: Option<usize>, id_base: u32) -> Self {
        Tracer {
            epoch,
            spans: capacity.map(Vec::with_capacity),
            next_id: id_base + 1,
        }
    }

    pub fn off() -> Self {
        Tracer::new(Instant::now(), None, 0)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses later spans (a tick, one update's
    /// journey); pass the returned id as their `parent`, then [`close`].
    ///
    /// [`close`]: Tracer::close
    pub fn open(&mut self, parent: u32, req: Req, layer: &'static str, name: &'static str) -> u32 {
        let Some(spans) = self.spans.as_mut() else {
            return 0;
        };
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        spans.push(Span {
            id,
            parent,
            req,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        if let Some(spans) = self.spans.as_mut() {
            // Open spans nest, so the one being closed is near the end.
            if let Some(s) = spans.iter_mut().rev().find(|s| s.id == id) {
                s.end_ns = now;
            }
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn call<T>(
        &mut self,
        parent: u32,
        req: Req,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if self.spans.is_none() {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let id = self.next_id;
        self.next_id += 1;
        if let Some(spans) = self.spans.as_mut() {
            spans.push(Span {
                id,
                parent,
                req,
                layer,
                name,
                start_ns,
                end_ns,
            });
        }
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }

    /// Hands over the spans recorded so far and keeps recording into a
    /// fresh buffer of the same capacity.
    pub fn take(&mut self) -> Vec<Span> {
        match self.spans.as_mut() {
            Some(spans) => {
                let fresh = Vec::with_capacity(spans.capacity());
                std::mem::replace(spans, fresh)
            }
            None => Vec::new(),
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children may not overlap each other —
/// each thread records its own spans sequentially). Returned in the order
/// of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Durations (ns) of every span called `layer`/`name`.
pub fn durations(spans: &[Span], layer: &str, name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Writes spans as JSON lines:
/// `{"id":…,"parent":…,"req":[gen,tick,k],"layer":"…","name":"…","start_ns":…,"end_ns":…}`.
pub fn write_jsonl(mut w: impl Write, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"req\":[{},{},{}],\"layer\":\"{}\",\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req.0, s.req.1, s.req.2, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: (0, 0, 0),
            layer: "l",
            name: "n",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span(1, 0, 0, 100),  // root: children cover 30 + 40
            span(2, 1, 10, 40),  // child: own child covers 10
            span(3, 2, 20, 30),  // grandchild counts against 2, not 1
            span(4, 1, 50, 90),  // second child
            span(5, 9, 0, 1000), // orphan: parent not recorded
        ];
        assert_eq!(self_times(&spans), [30, 20, 10, 40, 1000]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = [
            span(1, 0, 100, 200),
            span(2, 1, 50, 150),
            span(3, 1, 190, 400),
        ];
        assert_eq!(self_times(&spans), [40, 100, 210]);
    }

    #[test]
    fn tracer_nests_and_numbers_spans() {
        let mut t = Tracer::new(Instant::now(), Some(8), 1000);
        let root = t.open(0, (1, 2, 0), "bench", "tick");
        let v = t.call(root, (1, 2, 3), "core::serving", "read", || 7);
        t.close(root);
        assert_eq!(v, 7);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].id, spans[1].id, spans[1].parent),
            (1001, 1002, 1001)
        );
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let mut out = Vec::new();
        write_jsonl(&mut out, &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.lines().nth(1).unwrap().contains("\"req\":[1,2,3]"));
        assert_eq!(durations(&spans, "core::serving", "read").len(), 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let root = t.open(0, (0, 0, 0), "bench", "tick");
        assert_eq!(t.call(root, (0, 0, 0), "x", "y", || 3), 3);
        t.close(root);
        assert!(t.take().is_empty());
        assert!(t.into_spans().is_empty());
    }
}
