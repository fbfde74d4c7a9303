//! Exact per-span-name attribution over whole trace logs.
//!
//! Every begin/end pair that survived in the rings becomes one span;
//! a span's self time is its duration minus the part of it that its
//! children (on any thread) cover. The benchmark sizes the rings so
//! nothing is dropped and reports the drop count next to the figures.

use eppi_trace::ring::{KIND_BEGIN, KIND_END};
use eppi_trace::TraceLog;
use std::collections::{BTreeMap, HashMap};

/// Count, total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanAgg {
    /// Completed spans.
    pub count: u64,
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of their self times, nanoseconds.
    pub self_ns: u64,
}

impl SpanAgg {
    /// Mean duration in milliseconds (0 when no span completed).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Aggregates over one or more logs.
#[derive(Debug, Clone, Default)]
pub struct SpanTable {
    /// Per span name.
    pub by_name: BTreeMap<String, SpanAgg>,
    /// Events lost to ring overwrite, over every log.
    pub dropped: u64,
}

impl SpanTable {
    /// Folds `log` into the table.
    pub fn add_log(&mut self, log: &TraceLog) {
        self.dropped += log.total_dropped();
        struct Open {
            name: u32,
            parent: (u64, u64),
            t0: Option<u64>,
            t1: Option<u64>,
        }
        let mut spans: HashMap<(u64, u64), Open> = HashMap::new();
        for thread in &log.threads {
            for e in &thread.events {
                let key = (e.trace, e.span);
                let entry = spans.entry(key).or_insert(Open {
                    name: e.name,
                    parent: (e.trace, e.parent),
                    t0: None,
                    t1: None,
                });
                match e.kind {
                    KIND_BEGIN => entry.t0 = Some(e.t_ns),
                    KIND_END => entry.t1 = Some(e.t_ns),
                    _ => {}
                }
            }
        }
        let mut children: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
        for span in spans.values() {
            if let (Some(t0), Some(t1)) = (span.t0, span.t1) {
                if span.parent.1 != 0 {
                    children.entry(span.parent).or_default().push((t0, t1));
                }
            }
        }
        for (key, span) in &spans {
            let (Some(t0), Some(t1)) = (span.t0, span.t1) else {
                continue;
            };
            let covered = children
                .get_mut(key)
                .map_or(0, |kids| union_within(kids, t0, t1));
            let agg = self
                .by_name
                .entry(log.name(span.name).to_string())
                .or_default();
            agg.count += 1;
            agg.total_ns += t1 - t0;
            agg.self_ns += (t1 - t0).saturating_sub(covered);
        }
    }

    /// The aggregate of `name` (zero when no such span completed).
    pub fn get(&self, name: &str) -> SpanAgg {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_trace::{TraceConfig, Tracer};

    #[test]
    fn self_time_excludes_overlapping_children_once() {
        assert_eq!(union_within(&mut [(2, 5), (4, 8), (9, 20)], 0, 10), 7);
        let tracer = Tracer::new(TraceConfig::default());
        {
            let root = tracer.root("root");
            let _a = tracer.child(root.ctx(), "child");
        }
        let mut table = SpanTable::default();
        table.add_log(&tracer.collect());
        let root = table.get("root");
        let child = table.get("child");
        assert_eq!((root.count, child.count, table.dropped), (1, 1, 0));
        assert_eq!(root.self_ns, root.total_ns - child.total_ns);
        assert_eq!(child.self_ns, child.total_ns);
    }
}
