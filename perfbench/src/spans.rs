//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a crate's public API runs inside
//! [`span`]. A span records its name, start, end, parent span and op id;
//! spans stay in memory until the run ends and are then aggregated into
//! per-layer self times and written out as JSONL. With recording off,
//! [`span`] is a thread-local flag test around the call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `kernel.run`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// Op the span belongs to (0 outside any op).
    pub op: u64,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        op: 0,
    });
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Tag spans opened from now on with `op`.
pub fn set_op(op: u64) {
    REC.with(|r| r.borrow_mut().op = op);
}

/// Run `f` inside a span named `name` (recorded only while enabled).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let span = Span {
            name,
            start_ns: r.now(),
            end_ns: 0,
            parent: r.open.last().copied(),
            op: r.op,
        };
        let id = r.spans.len();
        r.spans.push(span);
        r.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[id].end_ns = r.now();
            r.open.pop();
        });
    }
    out
}

/// Hand over every span recorded so far and start a fresh recording.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// Total self time (ns) and call count per span name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// The spans as JSONL, one object per line, for a stream in which
/// `spans[0]` is line `first_line` (parents are line numbers from 0).
pub fn to_jsonl(spans: &[Span], first_line: usize) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or("null".to_string(), |p| (first_line + p).to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}\n",
            s.name, s.start_ns, s.end_ns, parent, s.op
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > b [15,35); root > c [50,60)
        let spans = [
            sp("root", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 15, 35, Some(1)),
            sp("c", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 20, 10]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_or_overhanging_children_count_once() {
        let spans = [
            sp("root", 0, 100, None),
            sp("a", 10, 50, Some(0)),
            sp("b", 40, 70, Some(0)),
            sp("c", 90, 130, Some(0)),
        ];
        // Covered: [10,70) and [90,100) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_aggregates() {
        set_enabled(true);
        set_op(7);
        span("outer", || {
            span("inner", || std::hint::black_box(1 + 1));
            span("inner", || std::hint::black_box(2 + 2));
        });
        set_enabled(false);
        span("ignored", || ());
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        let agg = aggregate(&spans);
        assert_eq!(agg["inner"].1, 2);
        let total: u64 = agg.values().map(|v| v.0).sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
        let dump = to_jsonl(&spans, 10);
        assert_eq!(dump.lines().count(), 3);
        assert!(dump.lines().nth(1).unwrap().contains("\"parent\":10,"));
    }
}
