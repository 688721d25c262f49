//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public function, and written out once at exit. A call
//! made millions of times (a simulator `step`, a reactor `turn`) is
//! recorded as one *aggregate* span per unit carrying the call count and
//! the summed busy time, so the trace stays small and the clock is read
//! once per call.

use crate::json::Json;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was built.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.function` of the call.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start of the (first) call.
    pub start_ns: u64,
    /// End of the (last) call.
    pub end_ns: u64,
    /// Calls folded into this span (1 for an ordinary span).
    pub calls: u64,
    /// Time inside the calls; `end_ns - start_ns` for an ordinary span.
    pub busy_ns: u64,
}

/// The recorder. Span ids are indices into the span list. A recorder
/// built with [`Tracer::off`] records nothing and never reads the clock,
/// so code shared by the traced and the untraced pass takes a `Tracer`
/// either way.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { on: true, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer { on: false, ..Tracer::new() }
    }

    /// Nanoseconds since the tracer was built (0 when off).
    pub fn now_ns(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// The wall clock now, for timing one call of a hot function (`None`
    /// when off); pair with [`since`].
    pub fn clock(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return 0;
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
            calls: 1,
            busy_ns: 0,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one. Returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, id: usize) -> u64 {
        if !self.on {
            return 0;
        }
        let now = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
        s.busy_ns
    }

    /// Time `f` under a span named `name`; returns its result and the
    /// span's duration in nanoseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Record `calls` calls of `name`, totalling `busy_ns`, that ran
    /// between `start_ns` and `end_ns` under the innermost open span.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        calls: u64,
        busy_ns: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns,
            calls,
            busy_ns,
        });
    }

    /// Everything recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: busy time minus the busy time of its children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.busy_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.busy_ns);
            }
        }
        own
    }

    /// Self time summed by span name, largest first.
    pub fn self_ns_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let own = self.self_ns();
        let mut rows: Vec<(&'static str, u64, u64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(own) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += ns;
                    r.2 += s.calls;
                }
                None => rows.push((s.name, ns, s.calls)),
            }
        }
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }

    /// The trace as a JSON document for `workload`.
    pub fn to_json(&self, workload: &str) -> String {
        let own = self.self_ns();
        let mut j = Json::compact();
        j.begin_obj().key("workload").str(workload).key("spans").begin_arr();
        for (id, s) in self.spans.iter().enumerate() {
            j.begin_obj().key("name").str(s.name).key("workload").str(workload);
            j.key("id").uint(id as u64).key("parent");
            match s.parent {
                Some(p) => j.uint(p as u64),
                None => j.null(),
            };
            j.key("start_ns").uint(s.start_ns).key("end_ns").uint(s.end_ns);
            j.key("calls").uint(s.calls).key("busy_ns").uint(s.busy_ns);
            j.key("self_ns").uint(own[id]).end_obj();
        }
        j.end_arr().end_obj();
        j.finish()
    }
}

/// Nanoseconds since a [`Tracer::clock`] reading (0 for `None`).
pub fn since(t0: Option<Instant>) -> u64 {
    t0.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("a");
        let (v, ns) = t.span("b", || 7);
        t.aggregate("c", 1, 1, 0, 1);
        assert_eq!((v, ns, t.exit(id), t.now_ns(), since(t.clock())), (7, 0, 0, 0, 0));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_parents_and_self_time() {
        let mut t = Tracer::new();
        let outer = t.enter("a.outer");
        let ((), inner_ns) =
            t.span("b.inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.aggregate("c.hot", 1000, 500, 10, 20);
        let outer_ns = t.exit(outer);
        assert!(inner_ns >= 2_000_000 && outer_ns >= inner_ns);
        let s = t.spans();
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), Some(0)));
        assert_eq!(s[2].calls, 1000);
        let own = t.self_ns();
        assert_eq!(own[0], outer_ns - inner_ns - 500);
        assert_eq!(own[1], inner_ns);
        let by_name = t.self_ns_by_name();
        assert_eq!(by_name.len(), 3);
        assert!(by_name.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn json_lists_every_span_with_a_null_root_parent() {
        let mut t = Tracer::new();
        let id = t.enter("x.root");
        t.span("x.child", || ());
        t.exit(id);
        let doc = t.to_json("wl");
        assert!(doc.starts_with(r#"{"workload": "wl", "spans": [{"name": "x.root", "workload": "wl", "id": 0, "parent": null"#));
        assert!(doc.contains(r#""name": "x.child", "workload": "wl", "id": 1, "parent": 0"#));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
