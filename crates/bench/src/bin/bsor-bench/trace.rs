//! In-memory spans recorded around calls into the workspace's layers.
//!
//! The benchmark times each layer from outside, by calling the public
//! functions a pipeline is made of one by one inside a span. Spans stay
//! in memory and are written out when the run ends; a layer's number is
//! its *self time*, the span's duration minus the part of it that its
//! child spans cover.

use bsor_bench::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `plan.certify`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The benchmark operation the span belongs to.
    pub op_id: u64,
}

/// Records nested spans. A disabled tracer runs the closures and
/// records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    /// A tracer whose span times count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with operation `op_id`.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Moves `other`'s spans into this tracer (another thread's spans
    /// over the same epoch).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the union of its children's intervals (clipped to the span), so
/// overlapping children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut totals = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut covered: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                let c = &spans[c];
                (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
            })
            .filter(|(a, b)| a < b)
            .collect();
        covered.sort_unstable();
        let mut union = 0;
        let mut reach = s.start_ns;
        for (a, b) in covered {
            let a = a.max(reach);
            if b > a {
                union += b - a;
                reach = b;
            }
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(union);
        *totals.entry(s.name).or_insert(0) += own;
    }
    totals
}

/// The spans as a JSON array (the `--trace-out` file).
pub fn to_json(spans: &[Span]) -> Json {
    Json::array(
        spans
            .iter()
            .map(|s| {
                Json::object(vec![
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", Json::from(s.parent)),
                    ("op_id", Json::from(s.op_id)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span("plan", 0, 100, None),
            span("plan.select", 10, 40, Some(0)),
            span("plan.certify", 50, 70, Some(0)),
            span("inner", 15, 25, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["plan"], 50);
        assert_eq!(t["plan.select"], 20);
        assert_eq!(t["plan.certify"], 20);
        assert_eq!(t["inner"], 10);
        assert_eq!(
            t.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn self_time_merges_overlapping_and_clips_stray_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("a", 30, 60, Some(0)),
            span("b", 90, 130, Some(0)),
        ];
        let t = self_times(&spans);
        // Children cover [10, 60) and [90, 100) of the root.
        assert_eq!(t["op"], 40);
        assert_eq!(t["a"], 70);
        assert_eq!(t["b"], 40);
    }

    #[test]
    fn tracer_nests_spans_and_absorbs_other_threads() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(true, epoch);
        tr.set_op(7);
        let v = tr.span("outer", |tr| tr.span("inner", |_| 3));
        assert_eq!(v, 3);
        let mut other = Tracer::new(true, epoch);
        other.span("x", |tr| tr.span("y", |_| ()));
        tr.absorb(other);
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].op_id, 7);
        assert_eq!(s[3].parent, Some(2), "absorbed parents are re-indexed");
        assert!(s.iter().all(|s| s.start_ns <= s.end_ns));
        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.span("outer", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
