//! In-memory spans recorded around calls into the program's layers, and
//! the self-time arithmetic that turns them into a per-layer table.
//!
//! Spans are kept in memory while the workload runs and written out as
//! JSON lines when it ends. Field names avoid `kind`, `name`, `elapsed`
//! and `at`, which the program's own trace records already use with other
//! meanings.

use crate::report::{json_str, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer-qualified span label, e.g. `core.algorithm.all_pairs`.
    pub span: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// The request (or operation) the span belongs to.
    pub req: u64,
}

impl SpanRec {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder for one thread of work.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64
    }

    /// Times `f` as a span nested in whichever span is open.
    pub fn time<R>(&mut self, span: &'static str, req: u64, f: impl FnOnce(&mut Spans) -> R) -> R {
        let idx = self.recs.len();
        let start_ns = self.now_ns();
        self.recs.push(SpanRec {
            span,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.recs[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already-timed interval as a closed span under whichever
    /// span is open.
    pub fn record(&mut self, span: &'static str, req: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.recs.push(SpanRec {
            span,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            req,
        });
    }

    /// The closed spans, in the order they were opened.
    pub fn records(&self) -> &[SpanRec] {
        &self.recs
    }

    /// Durations in milliseconds of every span labelled `span`.
    pub fn durations_ms(&self, span: &str) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.span == span)
            .map(|r| r.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"span\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}\n",
                json_str(r.span),
                r.start_ns,
                r.end_ns,
                r.req
            ));
        }
        out
    }
}

/// Self time of each span: its duration minus the part of it that its
/// child spans cover. Overlapping children (work a span handed to several
/// threads) are counted once; children are clipped to their parent.
pub fn self_times_ns(recs: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); recs.len()];
    for r in recs {
        if let Some(p) = r.parent {
            let parent = &recs[p];
            let lo = r.start_ns.max(parent.start_ns);
            let hi = r.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    recs.iter()
        .zip(children.iter_mut())
        .map(|(r, kids)| r.dur_ns().saturating_sub(covered_ns(kids)))
        .collect()
}

/// The length of the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(lo, hi) in intervals.iter() {
        cur = match cur {
            Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                total += chi - clo;
                Some((lo, hi))
            }
            None => Some((lo, hi)),
        };
    }
    total + cur.map_or(0, |(lo, hi)| hi - lo)
}

/// Self time per span label, in milliseconds, summed over all its spans.
pub fn self_time_table(recs: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut table = BTreeMap::new();
    for (r, ns) in recs.iter().zip(self_times_ns(recs)) {
        *table.entry(r.span).or_insert(0.0) += ns as f64 / 1e6;
    }
    table
}

/// The self-time table as a JSON object, for the run's output file.
pub fn self_time_json(recs: &[SpanRec]) -> Value {
    Value::Obj(
        self_time_table(recs)
            .into_iter()
            .map(|(k, ms)| (k.to_string(), Value::Num(ms)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(span: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            span,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let recs = vec![
            rec("root", 0, 100, None),
            // Two children overlapping on [20, 30): they cover [10, 50).
            rec("a", 10, 30, Some(0)),
            rec("b", 20, 50, Some(0)),
            // A grandchild covers half of `b`.
            rec("c", 30, 45, Some(2)),
            // A child sticking out past its parent is clipped to it.
            rec("d", 90, 130, Some(0)),
        ];
        assert_eq!(
            self_times_ns(&recs),
            vec![100 - 40 - 10, 20, 30 - 15, 15, 40]
        );
        let table = self_time_table(&recs);
        assert_eq!(table["root"], 50.0 / 1e6);
        // The self times sum to the root's duration plus what the tree
        // covers twice: the overhang of `d` (30 ns) and the stretch where
        // `a` and `b` ran side by side (10 ns).
        let total: u64 = self_times_ns(&recs).iter().sum();
        assert_eq!(total, 100 + 30 + 10);
    }

    #[test]
    fn recorder_nests_spans_and_writes_json_lines() {
        let epoch = Instant::now();
        let mut spans = Spans::new(epoch);
        spans.time("outer", 7, |s| {
            s.time("inner", 7, |_| std::hint::black_box(1 + 1));
        });
        let recs = spans.records();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].parent, recs[1].parent), (None, Some(0)));
        assert!(recs[0].start_ns <= recs[1].start_ns && recs[1].end_ns <= recs[0].end_ns);
        let jsonl = spans.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for reserved in ["\"kind\"", "\"name\"", "\"elapsed\"", "\"at\""] {
            assert!(!jsonl.contains(reserved), "{reserved} used as a field");
        }
    }
}
