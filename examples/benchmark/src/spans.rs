//! The benchmark's own in-memory spans, recorded around each call it makes
//! into a layer of the system (nothing inside the program is traced here).
//!
//! A span has a name, start, end, parent and an optional cell id; spans of
//! one cell (or one served job) share the id. The buffer is written out
//! once, when the run ends. A layer's self time is its span's duration
//! minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use vax_analysis::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the buffer, `None` for a root.
    pub parent: Option<usize>,
    pub cell: Option<String>,
}

/// A span buffer; a disabled recorder keeps nothing.
#[derive(Debug)]
pub struct Recorder {
    anchor: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            anchor: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, cell: Option<&str>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell: cell.map(str::to_string),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name, None);
        let out = f();
        self.end();
        out
    }

    /// An empty recorder on the same clock, for another thread.
    pub fn fork(&self) -> Recorder {
        Recorder {
            spans: Vec::new(),
            open: Vec::new(),
            ..*self
        }
    }

    /// Take over a forked recorder's spans; its roots become children of
    /// the innermost span open here.
    pub fn adopt(&mut self, other: Recorder) {
        let offset = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset).or(parent),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the most recently opened span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own.
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
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Whether span `i` lies inside one of the `roots` (or is one).
fn descends(spans: &[Span], mut i: usize, roots: &[usize]) -> bool {
    loop {
        if roots.contains(&i) {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

/// Per-name `(count, self ns)` over the subtrees rooted at `roots`.
pub fn self_by_name(spans: &[Span], roots: &[usize]) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if descends(spans, i, roots) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += selfs[i];
        }
    }
    out
}

/// Total duration of the `roots`, ns.
pub fn duration(spans: &[Span], roots: &[usize]) -> u64 {
    roots
        .iter()
        .map(|&r| spans[r].end_ns - spans[r].start_ns)
        .sum()
}

/// Share of the roots' duration covered by the self time of spans other
/// than the roots and the named grouping spans (which only hold children).
pub fn coverage(spans: &[Span], roots: &[usize], grouping: &[&str]) -> f64 {
    let dur = duration(spans, roots);
    if dur == 0 {
        return 0.0;
    }
    let selfs = self_times(spans);
    let uncovered: u64 = (0..spans.len())
        .filter(|&i| {
            (roots.contains(&i) || grouping.contains(&spans[i].name)) && descends(spans, i, roots)
        })
        .map(|i| selfs[i])
        .sum();
    1.0 - uncovered as f64 / dur as f64
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::arr(spans.iter().enumerate().map(|(i, s)| {
        Json::obj([
            ("id", Json::from(i as u64)),
            ("name", Json::from(s.name)),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
            ),
            ("cell", s.cell.as_deref().map_or(Json::Null, Json::from)),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("cell", 10, 60, Some(0)),
            span("boot", 10, 30, Some(1)),
            span("measure", 30, 55, Some(1)),
            // Overlapping children (two worker tracks) count once.
            span("merge", 70, 90, Some(0)),
            span("export", 80, 95, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100 - 50 - 25, 50 - 45, 20, 25, 20, 15]);
        let by = self_by_name(&spans, &[1]);
        assert_eq!(by.len(), 3, "only the cell's subtree");
        assert_eq!(by["measure"], (1, 25));
        // Leaves cover boot 20 + measure 25 + (merge ∪ export) 25 = 70 of
        // 100 ns; the job and cell self times are the uncovered rest.
        let c = coverage(&spans, &[0], &["cell"]);
        assert!((c - 0.70).abs() < 1e-12, "{c}");
    }

    #[test]
    fn several_roots_pool_their_time() {
        let spans = vec![
            span("replay", 0, 100, None),
            span("measure", 0, 90, Some(0)),
            span("replay", 200, 300, None),
            span("measure", 200, 300, Some(2)),
            span("other", 400, 500, None),
        ];
        assert_eq!(self_by_name(&spans, &[0, 2])["measure"], (2, 190));
        assert_eq!(duration(&spans, &[0, 2]), 200);
        let c = coverage(&spans, &[0, 2], &[]);
        assert!((c - 0.95).abs() < 1e-12, "{c}");
    }

    #[test]
    fn adopted_spans_hang_under_the_open_span() {
        let mut r = Recorder::new(true);
        r.begin("replay", None);
        let mut worker = r.fork();
        worker.begin("cell", None);
        worker.time("measure", || ());
        worker.end();
        r.adopt(worker);
        r.end();
        let parents: Vec<_> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1)]);
        assert!(r.spans()[0].end_ns >= r.spans()[2].end_ns, "one clock");
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("a", 10, 20, None), span("b", 5, 25, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn recorder_nests_and_can_be_disabled() {
        let mut r = Recorder::new(true);
        r.begin("job", Some("j-1"));
        r.time("measure", || std::hint::black_box(3));
        r.end();
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[0].cell.as_deref(), Some("j-1"));
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
        let mut off = Recorder::new(false);
        off.time("measure", || ());
        assert!(off.spans().is_empty());
    }
}
