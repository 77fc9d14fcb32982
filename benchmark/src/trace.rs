//! The traced run's spans. They are recorded by the benchmark's own
//! code around the public calls it makes — nothing inside the engine
//! is instrumented — kept in memory, written out as Chrome
//! `trace_event` JSON when the run ends, and reduced to per-layer
//! *self time*: a span's duration minus what its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One span. `parent` is an index into the same [`Trace`]; a span
/// without one is the root of an operation, and every span of that
/// operation carries its `op_id`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

/// All spans of one run, on one time axis.
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
    next_op: u64,
}

/// Self time per `(operation, layer)`, and operations per kind.
type SelfTimes = (
    BTreeMap<(&'static str, &'static str), SelfTime>,
    BTreeMap<&'static str, u64>,
);

/// Self time of one layer under one kind of operation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub spans: u64,
    pub self_ns: u64,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
            next_op: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records the root span of a new operation and returns its index.
    pub fn root(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        self.next_op += 1;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: None,
            op_id: self.next_op,
        });
        self.spans.len() - 1
    }

    /// Records a span caused by `parent`, within the same operation.
    pub fn child(&mut self, parent: usize, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: Some(parent),
            op_id: self.spans[parent].op_id,
        });
    }

    /// Self time per `(root name, span name)`, with the number of
    /// operations per root name. Children of one span are recorded one
    /// after the other on one thread, so the time they cover is the
    /// sum of their lengths clipped to the parent.
    pub fn self_times(&self) -> SelfTimes {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let start = s.start_ns.max(parent.start_ns);
                let end = s.end_ns.min(parent.end_ns);
                covered[p] += end.saturating_sub(start);
            }
        }
        let root_of = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            self.spans[i].name
        };
        let mut table: BTreeMap<_, SelfTime> = BTreeMap::new();
        let mut ops: BTreeMap<_, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let entry = table.entry((root_of(i), s.name)).or_default();
            entry.spans += 1;
            entry.self_ns += (s.end_ns - s.start_ns).saturating_sub(covered[i]);
            if s.parent.is_none() {
                *ops.entry(s.name).or_default() += 1;
            }
        }
        (table, ops)
    }

    /// The self-time table as text: one row per layer under each kind
    /// of operation, total and per operation.
    pub fn self_time_table(&self) -> String {
        let (table, ops) = self.self_times();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:<26} {:>9} {:>14} {:>16}",
            "operation", "layer (span)", "spans", "self total ms", "self us per op"
        );
        for ((root, name), st) in &table {
            let n = ops[root] as f64;
            let _ = writeln!(
                out,
                "{:<20} {:<26} {:>9} {:>14.3} {:>16.3}",
                format!("{root} x{}", ops[root]),
                name,
                st.spans,
                st.self_ns as f64 / 1e6,
                st.self_ns as f64 / 1e3 / n
            );
        }
        out
    }

    /// Chrome `trace_event` JSON (complete events, microseconds), one
    /// track per operation kind. Loadable in Perfetto/`chrome://tracing`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut tracks: Vec<&'static str> = Vec::new();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let mut root = i;
            while let Some(p) = self.spans[root].parent {
                root = p;
            }
            let root_name = self.spans[root].name;
            let tid = match tracks.iter().position(|&t| t == root_name) {
                Some(t) => t,
                None => {
                    tracks.push(root_name);
                    tracks.len() - 1
                }
            };
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op_id\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\"}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                tid,
                i,
                parent,
                s.op_id,
                s.start_ns,
                s.end_ns,
                workload
            );
        }
        for (tid, name) in tracks.iter().enumerate() {
            let _ = write!(
                out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, us: u64) -> Instant {
        epoch + Duration::from_micros(us)
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let e = Instant::now();
        let mut t = Trace::new(e);
        let q = t.root("query", at(e, 0), at(e, 100));
        t.child(q, "core.acquire", at(e, 0), at(e, 10));
        t.child(q, "core.flat_snapshot", at(e, 10), at(e, 40));
        // A child overhanging its parent only covers the overlap.
        t.child(q, "algorithms.bfs", at(e, 40), at(e, 120));
        let u = t.root("update", at(e, 200), at(e, 260));
        t.child(u, "stream.push", at(e, 205), at(e, 206));
        let (table, ops) = t.self_times();
        assert_eq!(ops["query"], 1);
        assert_eq!(ops["update"], 1);
        assert_eq!(table[&("query", "query")].self_ns, 0);
        assert_eq!(table[&("query", "core.flat_snapshot")].self_ns, 30_000);
        assert_eq!(table[&("query", "algorithms.bfs")].self_ns, 80_000);
        assert_eq!(table[&("update", "update")].self_ns, 59_000);
        assert_eq!(table[&("update", "stream.push")].self_ns, 1_000);
        assert_eq!(t.spans[1].op_id, t.spans[0].op_id);
        assert_ne!(t.spans[4].op_id, t.spans[0].op_id);
        assert!(t.self_time_table().contains("core.flat_snapshot"));
    }

    #[test]
    fn chrome_json_parses_and_keeps_every_span() {
        let e = Instant::now();
        let mut t = Trace::new(e);
        let q = t.root("query", at(e, 0), at(e, 100));
        t.child(q, "core.acquire", at(e, 0), at(e, 10));
        let doc = obs::json::parse(&t.chrome_json("steady-ingest")).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        let args = spans[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(args.get("end_ns").and_then(|p| p.as_u64()), Some(10_000));
        assert_eq!(
            args.get("workload").and_then(|p| p.as_str()),
            Some("steady-ingest")
        );
    }
}
