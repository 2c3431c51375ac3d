//! In-memory spans for the traced run.
//!
//! A span is a name, a start, an end and the span that caused it;
//! spans of one wire request also carry the request id. The benchmark
//! records them around its own calls into each layer, keeps them in
//! memory, and reduces them when the run ends. A layer's *self time*
//! is its span's duration minus the part of that interval its child
//! spans cover.
//!
//! With tracing off, [`Tracer::span`] calls straight through: no clock
//! read, no allocation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id (0 with tracing off) to parent its children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let r = f(id);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent: parent.filter(|&p| p != 0),
            name,
            start_ns,
            end_ns,
            request,
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }
}

/// Self time of every span, by id: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Summed self time, in seconds, of every span named `name`.
pub fn self_seconds(spans: &[Span], selfs: &BTreeMap<u64, u64>, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id] as f64 * 1e-9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            sp(1, None, 0, 100),
            // Two overlapping children covering 10..50 (40 ns) ...
            sp(2, Some(1), 10, 40),
            sp(3, Some(1), 30, 50),
            // ... a disjoint one covering 60..70 ...
            sp(4, Some(1), 60, 70),
            // ... and a grandchild, which counts against its own parent
            // only.
            sp(5, Some(2), 15, 35),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 30 - 20);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&4], 10);
        assert_eq!(st[&5], 20);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        // A child that outlives its parent (a request answered after
        // its phase span closed) only covers the overlap.
        let spans = vec![sp(1, None, 0, 50), sp(2, Some(1), 40, 90)];
        let st = self_times(&spans);
        assert_eq!(st[&1], 40);
        assert_eq!(st[&2], 50);
    }

    #[test]
    fn tracer_records_nesting_and_request_ids() {
        let t = Tracer::new(true);
        t.span("outer", None, None, |outer| {
            t.span("inner", Some(outer), Some(7), |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, Some(7));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        let st = self_times(&spans);
        assert_eq!(st[&outer.id], outer.dur_ns() - inner.dur_ns());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, None, |id| id + 41);
        assert_eq!(v, 41);
        assert!(t.spans().is_empty());
    }
}
