//! Interval sampling: a time series of per-interval counter rows.
//!
//! The paper's histogram board accumulates over a whole run; this module
//! adds the time dimension. [`crate::System::measure_sampled`] reads the
//! live CPU and memory counters at the first step boundary past each
//! multiple of `interval_cycles` and keeps the difference from the previous
//! reading as one [`IntervalSample`]: exactly the counters the
//! `timeseries.json`/`.csv` exports carry, never the 16K-bucket board. Each
//! row is a small self-contained view of that slice of simulated time: its
//! CPI, its stall breakdown, its interrupt headway. Summing the rows
//! reproduces each of those counters of the whole-run measurement exactly
//! (counter conservation), which the test suite checks.

use vax_cpu::CpuStats;
use vax_mem::MemStats;

/// One interval's worth of activity: its bounds and the counters the
/// series exports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalSample {
    /// Cycle number (since measurement start) at the start of the interval.
    pub start_cycle: u64,
    /// Cycle number at the end of the interval.
    pub end_cycle: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Read-stall cycles suffered by the EBOX.
    pub read_stall_cycles: u64,
    /// Write-stall cycles suffered by the EBOX.
    pub write_stall_cycles: u64,
    /// I-stream (IB) longword references.
    pub ib_reads: u64,
    /// Cache read misses, I + D + PTE ([`MemStats::total_read_misses`]).
    pub cache_read_misses: u64,
    /// TB misses, I + D ([`MemStats::total_tb_misses`]).
    pub tb_misses: u64,
    /// Interrupts delivered, hardware + software
    /// ([`CpuStats::total_interrupts`]).
    pub interrupts: u64,
    /// Context switches (LDPCTX executions).
    pub context_switches: u64,
}

impl IntervalSample {
    /// The counters accumulated since they were last cleared, as one row
    /// over `[0, end_cycle)`. Reads the counters in place; nothing is
    /// copied but the row.
    pub(crate) fn read(end_cycle: u64, cpu: &CpuStats, mem: &MemStats) -> IntervalSample {
        IntervalSample {
            start_cycle: 0,
            end_cycle,
            instructions: cpu.instructions,
            read_stall_cycles: mem.read_stall_cycles,
            write_stall_cycles: mem.write_stall_cycles,
            ib_reads: mem.i_reads,
            cache_read_misses: mem.total_read_misses(),
            tb_misses: mem.total_tb_misses(),
            interrupts: cpu.total_interrupts(),
            context_switches: cpu.context_switches,
        }
    }

    /// The eight counters as `(name, value)`, in field order; each name is
    /// its field's identifier. The one list [`IntervalSample::since`] and
    /// [`TimeSeries::merged`] walk and every export reads.
    pub fn counters(&self) -> [(&'static str, u64); 8] {
        [
            ("instructions", self.instructions),
            ("read_stall_cycles", self.read_stall_cycles),
            ("write_stall_cycles", self.write_stall_cycles),
            ("ib_reads", self.ib_reads),
            ("cache_read_misses", self.cache_read_misses),
            ("tb_misses", self.tb_misses),
            ("interrupts", self.interrupts),
            ("context_switches", self.context_switches),
        ]
    }

    /// [`IntervalSample::counters`] as `(name, slot)`, for arithmetic and
    /// parsing.
    pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); 8] {
        [
            ("instructions", &mut self.instructions),
            ("read_stall_cycles", &mut self.read_stall_cycles),
            ("write_stall_cycles", &mut self.write_stall_cycles),
            ("ib_reads", &mut self.ib_reads),
            ("cache_read_misses", &mut self.cache_read_misses),
            ("tb_misses", &mut self.tb_misses),
            ("interrupts", &mut self.interrupts),
            ("context_switches", &mut self.context_switches),
        ]
    }

    /// The activity between two cumulative [`IntervalSample::read`]s of
    /// the same machine: the interval `[earlier.end_cycle, self.end_cycle)`
    /// and the counter-wise differences.
    ///
    /// # Panics
    /// Panics if a counter of `earlier` exceeds its value in `self`: the
    /// readings were taken out of order or from different machines.
    pub(crate) fn since(&self, earlier: &IntervalSample) -> IntervalSample {
        let mut delta = *self;
        delta.start_cycle = earlier.end_cycle;
        for ((_, d), (_, e)) in delta.counters_mut().into_iter().zip(earlier.counters()) {
            *d = d
                .checked_sub(e)
                .expect("IntervalSample::since: counter ran backwards");
        }
        delta
    }

    /// Interval length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }

    /// CPI over this interval alone (zero when no instruction retired).
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.cycles() as f64 / self.instructions as f64
    }

    /// Mean cycles between interrupts in this interval (interrupt headway,
    /// Table 7). Zero when no interrupt fell in the interval.
    pub fn interrupt_headway(&self) -> f64 {
        if self.interrupts == 0 {
            return 0.0;
        }
        self.cycles() as f64 / self.interrupts as f64
    }
}

/// The sampled run: ordered, contiguous intervals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeSeries {
    /// Samples in time order; `samples[i].end_cycle ==
    /// samples[i+1].start_cycle`.
    pub samples: Vec<IntervalSample>,
}

impl TimeSeries {
    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no interval was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum every row into one: an interval from cycle 0 as long as all the
    /// intervals together, holding each counter's total. For the series of
    /// one measurement that is the measurement's own counters
    /// (conservation).
    pub fn merged(&self) -> IntervalSample {
        let mut total = IntervalSample::default();
        for s in &self.samples {
            total.end_cycle += s.cycles();
            for ((_, t), (_, c)) in total.counters_mut().into_iter().zip(s.counters()) {
                *t += c;
            }
        }
        total
    }

    /// Cycle stamp of the last sample's end (0 when empty): the offset at
    /// which the next spliced series would begin.
    pub fn end_cycle(&self) -> u64 {
        self.samples.last().map_or(0, |s| s.end_cycle)
    }

    /// Append `other`'s samples rebased by `cycle_offset`, so several
    /// independently-measured series (each starting at cycle 0) form one
    /// contiguous timeline. Returns `cycle_offset` shifted past the spliced
    /// samples — feed it to the next `splice` call:
    ///
    /// ```
    /// # use vax780::TimeSeries;
    /// # let (a, b) = (TimeSeries::default(), TimeSeries::default());
    /// let mut composite = TimeSeries::default();
    /// let mut offset = 0;
    /// offset = composite.splice(offset, &a);
    /// offset = composite.splice(offset, &b);
    /// ```
    ///
    /// Splicing at `self.end_cycle()` keeps the series contiguous
    /// (`samples[i].end_cycle == samples[i+1].start_cycle`); a larger
    /// offset models unrecorded cycles between the runs (a measurement
    /// whose tail produced no sample).
    ///
    /// # Panics
    /// Panics if `cycle_offset` is earlier than the current end of the
    /// series — the splice would run time backwards.
    pub fn splice(&mut self, cycle_offset: u64, other: &TimeSeries) -> u64 {
        assert!(
            cycle_offset >= self.end_cycle(),
            "TimeSeries::splice: offset {cycle_offset} precedes series end {}",
            self.end_cycle()
        );
        self.samples
            .extend(other.samples.iter().map(|s| IntervalSample {
                start_cycle: s.start_cycle + cycle_offset,
                end_cycle: s.end_cycle + cycle_offset,
                ..*s
            }));
        cycle_offset + other.end_cycle()
    }

    /// Render as CSV: one row per interval, its bounds, `cycles`, and its
    /// counters, with the derived `cpi` after `instructions` and
    /// `interrupt_headway` last.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write;
        let [(first, _), rest @ ..] = IntervalSample::default().counters();
        let mut out = format!("start_cycle,end_cycle,cycles,{first},cpi");
        for (name, _) in rest {
            let _ = write!(out, ",{name}");
        }
        out.push_str(",interrupt_headway\n");
        for s in &self.samples {
            let [(_, instructions), rest @ ..] = s.counters();
            let _ = write!(
                out,
                "{},{},{},{instructions},{:.4}",
                s.start_cycle,
                s.end_cycle,
                s.cycles(),
                s.cpi()
            );
            for (_, v) in rest {
                let _ = write!(out, ",{v}");
            }
            let _ = writeln!(out, ",{:.1}", s.interrupt_headway());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(start: u64, end: u64, instructions: u64) -> IntervalSample {
        IntervalSample {
            start_cycle: start,
            end_cycle: end,
            instructions,
            read_stall_cycles: 3,
            ..IntervalSample::default()
        }
    }

    #[test]
    fn merged_sums_intervals() {
        let ts = TimeSeries {
            samples: vec![sample(0, 100, 10), sample(100, 250, 20)],
        };
        let m = ts.merged();
        assert_eq!((m.start_cycle, m.end_cycle), (0, 250));
        assert_eq!(m.instructions, 30);
        assert_eq!(m.read_stall_cycles, 6);
    }

    #[test]
    fn since_inverts_a_cumulative_reading() {
        let mut cpu = CpuStats::new();
        let mut mem = MemStats::new();
        cpu.instructions = 10;
        mem.d_read_misses = 2;
        let earlier = IntervalSample::read(100, &cpu, &mem);
        cpu.instructions = 25;
        cpu.sw_interrupts = 1;
        mem.i_read_misses = 3;
        mem.tb_miss_i = 4;
        let later = IntervalSample::read(160, &cpu, &mem);
        let delta = later.since(&earlier);
        assert_eq!((delta.start_cycle, delta.end_cycle), (100, 160));
        assert_eq!(delta.instructions, 15);
        assert_eq!(delta.cache_read_misses, 3);
        assert_eq!(delta.tb_misses, 4);
        assert_eq!(delta.interrupts, 1);
        let whole = TimeSeries {
            samples: vec![earlier, delta],
        };
        assert_eq!(whole.merged(), later, "the rows sum to the later reading");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let ts = TimeSeries {
            samples: vec![sample(0, 100, 10)],
        };
        let csv = ts.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("start_cycle,end_cycle,"));
        assert!(lines[1].starts_with("0,100,100,10,10.0000,3,0,"));
    }

    #[test]
    fn splice_rebases_and_roundtrips() {
        let a = TimeSeries {
            samples: vec![sample(0, 100, 10), sample(100, 250, 20)],
        };
        let b = TimeSeries {
            samples: vec![sample(0, 40, 4), sample(40, 90, 6)],
        };
        let mut spliced = TimeSeries::default();
        let off = spliced.splice(0, &a);
        assert_eq!(off, 250);
        assert_eq!(spliced, a, "identity splice at offset 0");
        let end = spliced.splice(off, &b);
        assert_eq!(end, 340);
        assert_eq!(spliced.end_cycle(), 340);
        // Contiguous timeline across the seam.
        for w in spliced.samples.windows(2) {
            assert_eq!(w[0].end_cycle, w[1].start_cycle);
        }
        // Conservation: the spliced series merges to the sum of the parts.
        let parts = TimeSeries {
            samples: [a.merged(), b.merged()].to_vec(),
        };
        assert_eq!(spliced.merged(), parts.merged());
        // Round trip: rebasing the tail back by the splice offset
        // reproduces `b` exactly.
        let back = TimeSeries {
            samples: spliced.samples[a.len()..]
                .iter()
                .map(|s| IntervalSample {
                    start_cycle: s.start_cycle - off,
                    end_cycle: s.end_cycle - off,
                    ..*s
                })
                .collect(),
        };
        assert_eq!(back, b);
    }

    #[test]
    fn splice_allows_gaps_but_not_overlap() {
        let a = TimeSeries {
            samples: vec![sample(0, 100, 10)],
        };
        let mut ts = TimeSeries::default();
        ts.splice(0, &a);
        // A gap (unsampled tail cycles) is legal and preserved.
        let end = ts.splice(130, &a);
        assert_eq!(end, 230);
        assert_eq!(ts.samples[1].start_cycle, 130);
        let overlap = std::panic::catch_unwind(move || ts.splice(50, &a));
        assert!(overlap.is_err(), "overlapping splice must panic");
    }

    #[test]
    fn headway() {
        let mut s = sample(0, 1000, 10);
        assert_eq!(s.interrupt_headway(), 0.0);
        s.interrupts = 4;
        assert!((s.interrupt_headway() - 250.0).abs() < 1e-9);
    }

    /// A name paired with the wrong field survives every round trip, so
    /// each field holds a distinct value and both lists must name it.
    #[test]
    fn each_counter_name_sits_beside_its_own_field() {
        let mut s = IntervalSample {
            start_cycle: 100,
            end_cycle: 200,
            instructions: 1,
            read_stall_cycles: 2,
            write_stall_cycles: 3,
            ib_reads: 4,
            cache_read_misses: 5,
            tb_misses: 6,
            interrupts: 7,
            context_switches: 8,
        };
        let want: Vec<(&str, u64)> = [
            "instructions",
            "read_stall_cycles",
            "write_stall_cycles",
            "ib_reads",
            "cache_read_misses",
            "tb_misses",
            "interrupts",
            "context_switches",
        ]
        .into_iter()
        .zip(1..)
        .collect();
        assert_eq!(s.counters().to_vec(), want);
        let slots: Vec<(&str, u64)> = s.counters_mut().map(|(k, v)| (k, *v)).to_vec();
        assert_eq!(slots, want);
    }
}
