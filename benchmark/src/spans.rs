//! In-memory spans around the calls the harness makes into each layer.
//!
//! A span is (id, name, start, end, parent, operation number) on the
//! host clock in integer nanoseconds, with the allocation counters read
//! at both ends. Spans are kept in memory and written once at exit. No
//! tracing is added inside the library: that is a later change.

use crate::alloc::Counts;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Operation number: spans of one operation share it.
    pub op: u32,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(u32, Counts)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; the innermost open span is its parent.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        op: u32,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.spans.len() as u32;
        let parent = self.open.last().map(|(id, _)| *id);
        self.spans.push(Span {
            id,
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open.push((id, Counts::now()));
        self.spans[id as usize].start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        let (_, before) = self.open.pop().expect("span opened above");
        let delta = Counts::now().since(before);
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.allocs = delta.allocs;
        span.alloc_bytes = delta.bytes;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded since `mark` (a former `spans().len()`).
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    /// One JSON object per line: the span file of a traced run.
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"self_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.op, self_ns, s.allocs, s.alloc_bytes
            );
        }
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are not counted twice).
/// Indexed like `spans`, whose ids are their positions.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 0,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // 0: [0,100) with children 1: [10,40), 2: [30,60) (overlapping)
        // and 3: [70,80); 4: [15,20) is a child of 1.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 70, 80),
            span(4, Some(1), 15, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100 - 50 - 10, 25, 30, 10, 5]);
    }

    #[test]
    fn self_times_of_a_nested_tree_sum_exactly_to_the_root() {
        // Children that do not overlap each other: the self times of the
        // whole tree add up to the root's duration, to the nanosecond.
        let spans = vec![
            span(0, None, 1_000, 9_999),
            span(1, Some(0), 1_500, 4_000),
            span(2, Some(1), 1_600, 2_100),
            span(3, Some(1), 2_100, 3_999),
            span(4, Some(0), 4_000, 9_000),
            span(5, Some(4), 5_000, 5_001),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].dur_ns());
    }

    #[test]
    fn recorder_nests_scopes() {
        let mut rec = Recorder::new();
        let v = rec.scope("outer", 3, |rec| {
            rec.scope("inner", 3, |_| vec![1u8; 100]).len()
        });
        assert_eq!(v, 100);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].op, 3);
        let line = rec.to_jsonl();
        assert_eq!(line.lines().count(), 2);
        assert!(line.starts_with("{\"id\":0,\"name\":\"outer\""), "{line}");
    }
}
