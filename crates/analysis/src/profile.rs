//! The µPC attribution profiler.
//!
//! The paper's whole method is *reduction*: collapsing the 16 K-bucket µPC
//! histogram into attributed time. [`crate::Analysis`] performs the paper's
//! own reduction (Tables 8–9); this module performs the complementary one a
//! microcoder would want: **where** in the control store did the cycles go?
//!
//! [`Profile::new`] folds the histogram against the control-store map into
//! a hierarchy — activity row → specifier mode (where the routine name
//! encodes one) → microroutine — with a per-node cycle-class breakdown, so
//! every node carries its compute/stall split. Three renderings are
//! provided:
//!
//! * [`Profile::top_routines_report`] — a ranked hot-routine table;
//! * [`Profile::folded`] — folded stacks (`frame;frame;... count`), the
//!   interchange format of standard flame-graph tooling. One line per
//!   (routine, cycle class); the counts sum to exactly the histogram's
//!   total cycles, so the flame graph *is* the measurement;
//! * [`Profile::to_json`] — the full tree, machine-readable.

use std::collections::BTreeMap;

use upc_monitor::map::classify;
use upc_monitor::{Activity, ControlStoreMap, CycleClass, Histogram, Plane};

use crate::json::Json;

/// Per-class cycle counts, `CycleClass::ALL` order.
pub type ClassCycles = [u64; 6];

fn busy_of(c: &ClassCycles) -> u64 {
    c[CycleClass::Compute.index()] + c[CycleClass::Read.index()] + c[CycleClass::Write.index()]
}

fn stall_of(c: &ClassCycles) -> u64 {
    c[CycleClass::ReadStall.index()]
        + c[CycleClass::WriteStall.index()]
        + c[CycleClass::IbStall.index()]
}

/// One node of the attribution hierarchy.
#[derive(Debug, Clone)]
pub struct ProfileNode {
    /// Frame name (activity, specifier mode, or routine).
    pub name: String,
    /// Cycles by class, aggregated over the subtree.
    pub cycles: ClassCycles,
    /// Children, sorted by descending total.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn new(name: &str) -> ProfileNode {
        ProfileNode {
            name: name.to_string(),
            cycles: [0; 6],
            children: Vec::new(),
        }
    }

    /// Total cycles attributed to this subtree.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Cycles doing work (compute + read + write).
    pub fn busy(&self) -> u64 {
        busy_of(&self.cycles)
    }

    /// Cycles stalled (read-stall + write-stall + IB-stall).
    pub fn stall(&self) -> u64 {
        stall_of(&self.cycles)
    }

    fn child_mut(&mut self, name: &str) -> &mut ProfileNode {
        // Linear probe: the fan-out is small (≤ 16 modes, ~300 routines).
        let at = match self.children.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                self.children.push(ProfileNode::new(name));
                self.children.len() - 1
            }
        };
        &mut self.children[at]
    }

    fn sort_and_sum(&mut self) {
        for child in &mut self.children {
            child.sort_and_sum();
            for (acc, c) in self.cycles.iter_mut().zip(child.cycles) {
                *acc += c;
            }
        }
        self.children
            .sort_by(|a, b| b.total().cmp(&a.total()).then(a.name.cmp(&b.name)));
    }

    fn to_json(&self) -> Json {
        let classes = Json::Obj(
            CycleClass::ALL
                .iter()
                .filter(|c| self.cycles[c.index()] > 0)
                .map(|c| (c.key().to_string(), Json::from(self.cycles[c.index()])))
                .collect(),
        );
        let mut members = vec![
            ("name".to_string(), Json::from(self.name.clone())),
            ("total_cycles".to_string(), Json::from(self.total())),
            ("busy_cycles".to_string(), Json::from(self.busy())),
            ("stall_cycles".to_string(), Json::from(self.stall())),
            ("classes".to_string(), classes),
        ];
        if !self.children.is_empty() {
            members.push((
                "children".to_string(),
                Json::arr(self.children.iter().map(ProfileNode::to_json)),
            ));
        }
        Json::Obj(members)
    }
}

/// One microroutine's flat attribution (the hot-routine ranking rows).
#[derive(Debug, Clone)]
pub struct RoutineProfile {
    /// Routine name from the control-store map.
    pub routine: String,
    /// The routine's Table-8 activity row.
    pub activity: Activity,
    /// Cycles by class.
    pub cycles: ClassCycles,
}

impl RoutineProfile {
    /// Total cycles spent in the routine.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Busy (non-stalled) cycles.
    pub fn busy(&self) -> u64 {
        busy_of(&self.cycles)
    }

    /// Stalled cycles.
    pub fn stall(&self) -> u64 {
        stall_of(&self.cycles)
    }
}

/// The reduced attribution profile of one measurement.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Histogram total — every rendering conserves this.
    pub total_cycles: u64,
    /// Hierarchy root (named `all`).
    pub root: ProfileNode,
    /// Flat per-routine attribution, hottest first.
    pub routines: Vec<RoutineProfile>,
}

/// The middle hierarchy level a routine name encodes, if any: specifier
/// routines are named `SPEC1.<Mode>.<Flavor>`, so the mode becomes its own
/// frame and all flavors of one mode aggregate under it.
fn middle_frame(routine: &str) -> Option<&str> {
    let mut parts = routine.split('.');
    let (_, mid, last) = (parts.next()?, parts.next()?, parts.next()?);
    parts
        .next()
        .is_none()
        .then_some(mid)
        .filter(|_| !last.is_empty())
}

impl Profile {
    /// Reduce a histogram against the control-store map that produced it.
    pub fn new(map: &ControlStoreMap, hist: &Histogram) -> Profile {
        let mut per_routine: BTreeMap<(usize, &str), ClassCycles> = BTreeMap::new();
        for (upc, plane, count) in hist.nonzero() {
            let act = map.activity(upc);
            let class = classify(map.op(upc), plane == Plane::Stalled);
            per_routine
                .entry((act.index(), map.routine(upc)))
                .or_insert([0u64; 6])[class.index()] += count;
        }

        let mut root = ProfileNode::new("all");
        let mut routines = Vec::with_capacity(per_routine.len());
        for ((act_idx, routine), cycles) in &per_routine {
            let activity = Activity::ALL[*act_idx];
            let act_node = root.child_mut(activity.name());
            let parent = match middle_frame(routine) {
                Some(mid) => act_node.child_mut(mid),
                None => act_node,
            };
            let leaf = parent.child_mut(routine);
            leaf.cycles = *cycles;
            routines.push(RoutineProfile {
                routine: routine.to_string(),
                activity,
                cycles: *cycles,
            });
        }
        root.sort_and_sum();
        routines.sort_by(|a, b| {
            b.total()
                .cmp(&a.total())
                .then_with(|| a.routine.cmp(&b.routine))
        });
        Profile {
            total_cycles: hist.total_cycles(),
            root,
            routines,
        }
    }

    /// The ranked hot-routine table, `n` rows.
    pub fn top_routines_report(&self, n: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let shown = n.min(self.routines.len());
        let _ = writeln!(
            out,
            "µPC attribution profile — top {shown} of {} routines, {} cycles",
            self.routines.len(),
            self.total_cycles
        );
        let _ = writeln!(
            out,
            "{:>4}  {:<28} {:<10} {:>12} {:>7} {:>7} {:>6} {:>6}",
            "rank", "routine", "activity", "cycles", "%", "cum%", "busy%", "stall%"
        );
        let total = self.total_cycles.max(1) as f64;
        let mut cum = 0u64;
        for (i, r) in self.routines.iter().take(n).enumerate() {
            cum += r.total();
            let rt = r.total().max(1) as f64;
            let _ = writeln!(
                out,
                "{:>4}  {:<28} {:<10} {:>12} {:>6.2}% {:>6.2}% {:>5.1}% {:>5.1}%",
                i + 1,
                r.routine,
                r.activity.name(),
                r.total(),
                100.0 * r.total() as f64 / total,
                100.0 * cum as f64 / total,
                100.0 * r.busy() as f64 / rt,
                100.0 * r.stall() as f64 / rt,
            );
        }
        let rest = self.total_cycles - cum;
        if rest > 0 {
            let _ = writeln!(
                out,
                "      {:<28} {:<10} {:>12} {:>6.2}%",
                format!("(other, {} routines)", self.routines.len() - shown),
                "-",
                rest,
                100.0 * rest as f64 / total
            );
        }
        out
    }

    /// Folded stacks: `all;<activity>;[<mode>;]<routine>;<class> <count>`,
    /// one line per non-zero (routine, cycle class). Consumable by standard
    /// flame-graph tools; line counts sum to [`Profile::total_cycles`].
    pub fn folded(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut stack: Vec<&str> = Vec::with_capacity(4);
        fn walk<'a>(node: &'a ProfileNode, stack: &mut Vec<&'a str>, out: &mut String) {
            if node.children.is_empty() {
                for class in &CycleClass::ALL {
                    let count = node.cycles[class.index()];
                    if count > 0 {
                        let _ = writeln!(
                            out,
                            "{};{};{} {}",
                            stack.join(";"),
                            node.name,
                            class.key(),
                            count
                        );
                    }
                }
                return;
            }
            stack.push(&node.name);
            for child in &node.children {
                walk(child, stack, out);
            }
            stack.pop();
        }
        walk(&self.root, &mut stack, &mut out);
        out
    }

    /// The full tree plus the flat ranking, machine-readable.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("format_version", Json::Int(1)),
            ("total_cycles", Json::from(self.total_cycles)),
            (
                "routines",
                Json::arr(self.routines.iter().map(|r| {
                    Json::obj([
                        ("routine", Json::from(r.routine.clone())),
                        ("activity", Json::from(r.activity.name())),
                        ("total_cycles", Json::from(r.total())),
                        ("busy_cycles", Json::from(r.busy())),
                        ("stall_cycles", Json::from(r.stall())),
                    ])
                })),
            ),
            ("tree", self.root.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upc_monitor::MicroOp;

    /// A toy control store: decode, two specifier routines of one mode, an
    /// execute routine, with a few recorded cycles in both planes.
    fn toy() -> (ControlStoreMap, Histogram) {
        let mut map = ControlStoreMap::new();
        let ird = map.alloc(
            "IRD",
            Activity::Decode,
            &[MicroOp::Compute, MicroOp::IbWait],
        );
        let rd = map.alloc(
            "SPEC1.Displacement.Read",
            Activity::Spec1,
            &[MicroOp::Compute, MicroOp::Read],
        );
        let wr = map.alloc(
            "SPEC1.Displacement.Write",
            Activity::Spec1,
            &[MicroOp::Write],
        );
        let exec = map.alloc("EXEC.ADDL2", Activity::ExecSimple, &[MicroOp::Compute]);
        let mut hist = Histogram::new(map.len());
        hist.start();
        hist.record_n(ird.at(0), Plane::Normal, 100); // decode compute
        hist.record_n(ird.at(1), Plane::Normal, 7); // IB stall
        hist.record_n(rd.at(0), Plane::Normal, 40);
        hist.record_n(rd.at(1), Plane::Normal, 40); // reads
        hist.record_n(rd.at(1), Plane::Stalled, 9); // read stalls
        hist.record_n(wr.at(0), Plane::Normal, 20);
        hist.record_n(wr.at(0), Plane::Stalled, 5); // write stalls
        hist.record_n(exec.at(0), Plane::Normal, 90);
        (map, hist)
    }

    #[test]
    fn conserves_total_cycles() {
        let (map, hist) = toy();
        let p = Profile::new(&map, &hist);
        assert_eq!(p.total_cycles, hist.total_cycles());
        assert_eq!(p.root.total(), p.total_cycles);
        let flat: u64 = p.routines.iter().map(RoutineProfile::total).sum();
        assert_eq!(flat, p.total_cycles);
        // The folded output's counts sum to the same total.
        let folded_sum: u64 = p
            .folded()
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(folded_sum, p.total_cycles);
    }

    #[test]
    fn hierarchy_groups_specifier_modes() {
        let (map, hist) = toy();
        let p = Profile::new(&map, &hist);
        let spec1 = p
            .root
            .children
            .iter()
            .find(|c| c.name == "Spec 1")
            .expect("Spec 1 activity node");
        let mode = spec1
            .children
            .iter()
            .find(|c| c.name == "Displacement")
            .expect("mode frame between activity and routine");
        assert_eq!(mode.children.len(), 2, "both flavors under the mode");
        assert_eq!(mode.total(), 40 + 40 + 9 + 20 + 5);
        assert_eq!(mode.stall(), 9 + 5);
        // Non-specifier routines sit directly under their activity.
        let decode = p.root.children.iter().find(|c| c.name == "Decode").unwrap();
        assert_eq!(decode.children[0].name, "IRD");
    }

    #[test]
    fn ranking_and_report() {
        let (map, hist) = toy();
        let p = Profile::new(&map, &hist);
        assert_eq!(p.routines[0].routine, "IRD", "hottest first (107 cycles)");
        let report = p.top_routines_report(2);
        assert!(report.contains("top 2 of 4 routines"), "{report}");
        assert!(report.contains("IRD"), "{report}");
        assert!(report.contains("(other, 2 routines)"), "{report}");
        // The truncated report still accounts for every cycle.
        assert!(report.contains(&p.total_cycles.to_string()), "{report}");
    }

    #[test]
    fn folded_lines_are_well_formed() {
        let (map, hist) = toy();
        let p = Profile::new(&map, &hist);
        let folded = p.folded();
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("frame stack + count");
            assert!(count.parse::<u64>().is_ok(), "{line}");
            assert!(stack.starts_with("all;"), "{line}");
            let frames: Vec<&str> = stack.split(';').collect();
            assert!(frames.len() >= 4, "root;activity;routine;class: {line}");
        }
        assert!(
            folded.contains("all;Spec 1;Displacement;SPEC1.Displacement.Read;read_stall 9"),
            "{folded}"
        );
        assert!(folded.contains("all;Decode;IRD;ib_stall 7"), "{folded}");
    }

    #[test]
    fn json_export_parses_and_matches() {
        let (map, hist) = toy();
        let p = Profile::new(&map, &hist);
        let j = p.to_json();
        let parsed = Json::parse(&j.to_string_pretty()).unwrap();
        assert_eq!(parsed, j);
        assert_eq!(
            parsed.get("total_cycles").and_then(Json::as_i64).unwrap() as u64,
            p.total_cycles
        );
        let tree_total = parsed
            .get("tree")
            .and_then(|t| t.get("total_cycles"))
            .and_then(Json::as_i64)
            .unwrap() as u64;
        assert_eq!(tree_total, p.total_cycles);
    }
}
