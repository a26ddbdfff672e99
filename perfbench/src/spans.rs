//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each crate's
//! public functions; nothing inside the simulator is instrumented. Each
//! span has a name, start, end and parent, and every span of one pass
//! carries that pass's id. High-frequency calls (`Machine::step`,
//! `RequestFactory::next_request`, `TraceSink::record`) would swamp memory
//! as one span per call, so they are recorded as *aggregate* spans: one
//! per (parent, name) holding the summed duration and the call count.
//!
//! A span's self time is its busy time minus the busy time of its
//! children, where busy time is `end - start` for an interval span and the
//! summed call time for an aggregate.

use std::time::Instant;

use rbv_telemetry::Json;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    pass: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Summed call time for an aggregate span; `None` for an interval.
    summed_ns: Option<u64>,
    calls: u64,
}

impl Span {
    fn busy_ns(&self) -> u64 {
        self.summed_ns
            .unwrap_or_else(|| self.end_ns.saturating_sub(self.start_ns))
    }
}

/// The recorder: spans live in one vector and refer to parents by index.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new pass: later spans carry its id.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// The id later spans carry.
    pub fn current_pass(&self) -> u32 {
        self.pass
    }

    /// Opens an interval span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            pass: self.pass,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            summed_ns: None,
            calls: 1,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside an interval span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Records an aggregate of `calls` calls totalling `ns` as a child of
    /// `parent` (or of the innermost open span), spanning the parent's
    /// interval so far. Returns its index so further aggregates can nest
    /// under it.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        ns: u64,
        calls: u64,
    ) -> usize {
        let parent = parent.or_else(|| self.stack.last().copied());
        let start_ns = parent.map_or(0, |p| self.spans[p].start_ns);
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            pass: self.pass,
            parent,
            start_ns,
            end_ns: self.now_ns(),
            summed_ns: Some(ns),
            calls,
        });
        id
    }

    /// Busy seconds of span `id`.
    pub fn busy_s_of(&self, id: usize) -> f64 {
        self.spans[id].busy_ns() as f64 / 1e9
    }

    /// Self time of every span, index-aligned with the recorded spans.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.busy_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.busy_ns().saturating_sub(c))
            .collect()
    }

    /// Self seconds summed over spans of pass `pass` whose name starts
    /// with `prefix` (a crate's metric prefix, e.g. `"os."`).
    pub fn self_s(&self, pass: u32, prefix: &str) -> f64 {
        let selfs = self.self_ns();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.pass == pass && s.name.starts_with(prefix))
            .map(|(_, ns)| ns as f64 / 1e9)
            .sum()
    }

    /// Busy seconds summed over spans of pass `pass` named exactly `name`.
    pub fn busy_s(&self, pass: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.pass == pass && s.name == name)
            .map(|s| s.busy_ns() as f64 / 1e9)
            .sum()
    }

    /// Every span as JSON, for writing out once the run ends.
    pub fn to_json(&self) -> Json {
        let selfs = self.self_ns();
        let num = |v: u64| Json::Num(v as f64);
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Json::Obj(vec![
                    ("id".into(), num(id as u64)),
                    ("pass".into(), num(u64::from(s.pass))),
                    ("name".into(), Json::str(s.name)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| num(p as u64)),
                    ),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                    ("busy_ns".into(), num(s.busy_ns())),
                    ("self_ns".into(), num(self_ns)),
                    ("calls".into(), num(s.calls)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::str("rbv-perfbench-spans/v1")),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_interval_and_aggregate_children() {
        let mut t = Tracer::new();
        t.set_pass(3);
        let root = t.enter("bench.pass");
        let child = t.enter("os.shard");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let steps = t.aggregate("os.step", None, 1_000_000, 10);
        t.aggregate("workloads.next_request", Some(steps), 400_000, 2);
        t.exit(child);
        t.exit(root);
        let selfs = t.self_ns();
        assert_eq!(selfs[steps], 600_000);
        assert_eq!(selfs[steps + 1], 400_000);
        let child_busy = t.spans[child].busy_ns();
        assert_eq!(selfs[child], child_busy - 1_000_000);
        assert_eq!(selfs[root], t.spans[root].busy_ns() - child_busy);
        assert!(t.spans.iter().all(|s| s.pass == 3));
        assert!((t.self_s(3, "os.") - (child_busy - 400_000) as f64 / 1e9).abs() < 1e-12);
    }
}
