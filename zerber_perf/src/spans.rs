//! In-memory spans for the traced run.
//!
//! The benchmark measures every layer from outside: the parent span is the
//! real call, and right after it returns its children are *replayed* through
//! the next layer's public functions.  Children therefore do not lie inside
//! the parent's interval; the tree is logical (`parent` names the span whose
//! work the child repeats) and a span's self time is its duration minus the
//! summed durations of its children.  A child set that takes longer than its
//! parent gives a negative self time, which is counted as an overrun and
//! reported — never clamped to zero.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one benchmark op share this identifier.
    pub op_id: u64,
    /// Work items the span covers (elements opened, requests served, ...),
    /// so a per-item time can be derived.
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span's duration against the summed durations of its direct children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfTime {
    pub duration_ns: u64,
    pub children_ns: u64,
}

impl SelfTime {
    /// Signed: negative when the replayed children overran the parent.
    pub fn self_ns(&self) -> i64 {
        self.duration_ns as i64 - self.children_ns as i64
    }

    pub fn overrun(&self) -> bool {
        self.self_ns() < 0
    }
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub spans: u64,
    pub ns: u64,
    pub items: u64,
}

impl NameTotals {
    /// Mean nanoseconds per covered item (0 without items).
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.ns as f64 / self.items as f64
        }
    }

    /// Mean nanoseconds per span (0 without spans).
    pub fn ns_per_span(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.ns as f64 / self.spans as f64
        }
    }
}

/// Self-time roll-up of every span with one name that has children.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTotals {
    pub parents: u64,
    pub duration_ns: u64,
    pub children_ns: u64,
    /// Parents whose children took longer than they did.
    pub overruns: u64,
}

impl SelfTotals {
    /// Mean signed self time per parent in nanoseconds.
    pub fn mean_self_ns(&self) -> f64 {
        if self.parents == 0 {
            0.0
        } else {
            (self.duration_ns as f64 - self.children_ns as f64) / self.parents as f64
        }
    }
}

/// Records spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records an already measured span.
    pub fn record(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a root span whose call was timed by the caller: it began at
    /// `start_ns` and took `duration_ns`.
    pub fn record_root(
        &mut self,
        name: &'static str,
        start_ns: u64,
        duration_ns: u64,
        op_id: u64,
        items: u64,
    ) -> SpanId {
        self.record(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: None,
            op_id,
            items,
        })
    }

    /// Runs `f` inside a span; `items` is filled in from its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce() -> (T, u64),
    ) -> (SpanId, T) {
        let start_ns = self.now_ns();
        let (out, items) = f();
        let end_ns = self.now_ns();
        let id = self.record(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
            items,
        });
        (id, out)
    }

    /// Duration and summed direct-children duration of every span.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut out: Vec<SelfTime> = self
            .spans
            .iter()
            .map(|s| SelfTime {
                duration_ns: s.duration_ns(),
                children_ns: 0,
            })
            .collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                out[parent].children_ns += span.duration_ns();
            }
        }
        out
    }

    /// Per-name totals, in name order.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut map: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for span in &self.spans {
            let t = map.entry(span.name).or_default();
            t.spans += 1;
            t.ns += span.duration_ns();
            t.items += span.items;
        }
        map
    }

    /// Self-time roll-up of the spans called `name` that have children.
    pub fn self_totals(&self, name: &str) -> SelfTotals {
        let mut has_child = vec![false; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                has_child[parent] = true;
            }
        }
        let mut totals = SelfTotals::default();
        for ((span, st), has_child) in self.spans.iter().zip(self.self_times()).zip(has_child) {
            if span.name == name && has_child {
                totals.parents += 1;
                totals.duration_ns += st.duration_ns;
                totals.children_ns += st.children_ns;
                totals.overruns += u64::from(st.overrun());
            }
        }
        totals
    }

    /// Writes the spans as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op_id\": {}, \"items\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op_id, s.items
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>, op: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: op,
            items: 1,
        }
    }

    /// op 0: query(100) -> [handle(30) -> [fetch(10)], open(40)]
    /// op 1: query(50)  -> [handle(70)]            (child overruns parent)
    fn tree() -> Tracer {
        let mut t = Tracer::default();
        let q0 = t.record(span("query", 0, 100, None, 0));
        let h0 = t.record(span("handle", 100, 130, Some(q0), 0));
        t.record(span("fetch", 130, 140, Some(h0), 0));
        t.record(span("open", 140, 180, Some(q0), 0));
        let q1 = t.record(span("query", 200, 250, None, 1));
        t.record(span("handle", 250, 320, Some(q1), 1));
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = tree();
        let st = t.self_times();
        // query 0: 100 - (30 + 40); the grandchild is not subtracted twice.
        assert_eq!(st[0].children_ns, 70);
        assert_eq!(st[0].self_ns(), 30);
        assert!(!st[0].overrun());
        // handle 0: 30 - 10.
        assert_eq!(st[1].self_ns(), 20);
        // leaves keep their whole duration.
        assert_eq!(st[2].self_ns(), 10);
        assert_eq!(st[3].self_ns(), 40);
    }

    #[test]
    fn an_overrunning_child_is_reported_not_clamped() {
        let t = tree();
        let st = t.self_times();
        assert_eq!(st[4].duration_ns, 50);
        assert_eq!(st[4].children_ns, 70);
        assert_eq!(st[4].self_ns(), -20);
        assert!(st[4].overrun());
        let q = t.self_totals("query");
        assert_eq!(q.parents, 2);
        assert_eq!(q.overruns, 1);
        assert_eq!(q.duration_ns, 150);
        assert_eq!(q.children_ns, 140);
        assert_eq!(q.mean_self_ns(), 5.0);
        // The childless second handle span is not a parent.
        assert_eq!(t.self_totals("handle").parents, 1);
    }

    #[test]
    fn totals_group_by_name_and_time_fills_items() {
        let mut t = tree();
        let totals = t.totals();
        assert_eq!(totals["handle"].spans, 2);
        assert_eq!(totals["handle"].ns, 100);
        assert_eq!(totals["handle"].ns_per_span(), 50.0);
        assert_eq!(totals["open"].ns_per_item(), 40.0);
        let (id, out) = t.time("work", None, 9, || (41 + 1, 5));
        assert_eq!(out, 42);
        assert_eq!(t.spans()[id].items, 5);
        assert_eq!(t.spans()[id].op_id, 9);
        assert!(t.spans()[id].end_ns >= t.spans()[id].start_ns);
    }

    #[test]
    fn json_lists_every_span() {
        let t = tree();
        let root = crate::bed::DataRoot::create("spans-test");
        let path = root.path().join("trace.json");
        t.write_json(&path, "w", 7).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"name\"").count(), 6);
        assert!(text.contains("\"parent\": null"));
        assert!(text.contains("\"parent\": 4"));
        assert!(text.contains("\"seed\": 7"));
    }
}
