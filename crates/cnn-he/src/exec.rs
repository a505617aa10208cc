//! How wide a request runs, and what it measured.
//!
//! [`ExecMode`] caps how many threads a request may use. A circuit
//! region's independent units (one per conv/dense output scalar or SLAF
//! ciphertext, `he_ir::Circuit::units`) run across at most that many
//! threads of the rayon pool, and `ckks-math`'s per-limb loops inside a
//! unit run inline (the vendored rayon runs a parallel call issued from
//! a pool task on that thread). [`ExecMode::install`] applies the cap
//! around a run. [`InferenceTiming`] is what the run returns: one
//! [`RegionRun`] per executed region, and [`breakdown`] is the one table
//! that renders such records, for a request or a trace.

use crate::metrics::LatencyStats;
use he_ir::RegionRun;
use he_trace::{Align, OpSnapshot, Table};
use std::time::Duration;

/// How many threads a run may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecMode {
    /// Width cap of the run. `1` = one thread.
    pub unit_threads: usize,
}

impl Default for ExecMode {
    fn default() -> Self {
        Self::sequential()
    }
}

impl ExecMode {
    /// One thread: units run one at a time, and no limb loop fans out.
    pub const fn sequential() -> Self {
        Self { unit_threads: 1 }
    }

    /// Units split across `threads` threads of the rayon pool; limb
    /// loops inside a unit run inline.
    pub fn unit_parallel(threads: usize) -> Self {
        assert!(threads >= 1);
        Self {
            unit_threads: threads,
        }
    }

    /// Unit-parallel over every hardware thread rayon sees.
    pub fn auto() -> Self {
        Self::unit_parallel(rayon::current_num_threads())
    }

    /// Runs `f` with every parallel call it issues capped at
    /// `unit_threads` wide (`ThreadPool::install` only caps the width;
    /// it starts no thread). Units are computed independently, so the
    /// outputs are bit-identical at any width.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(self.unit_threads)
            .build()
            .expect("building a width cap cannot fail")
            .install(f)
    }
}

/// Timing record of one encrypted inference: one record per executed
/// circuit region (per shard × region on the packed path), in run order
/// — the same records a trace holds.
#[derive(Debug, Clone, Default)]
pub struct InferenceTiming {
    pub layers: Vec<RegionRun>,
}

impl InferenceTiming {
    /// Total CPU time across regions ([`RegionRun::cpu`]).
    pub fn cpu_total(&self) -> Duration {
        self.layers.iter().map(RegionRun::cpu).sum()
    }
}

/// Headroom bits each record spent: against the previous record of its
/// run, and a run's first region (`region == 0`) against the `input`
/// headroom, or `None` when the caller has no input.
pub fn spends(records: &[RegionRun], input: Option<f64>) -> Vec<Option<f64>> {
    let mut prev = input;
    records
        .iter()
        .map(|r| {
            let before = if r.region == 0 { input } else { prev };
            prev = Some(r.headroom_bits);
            before.map(|b| b - r.headroom_bits)
        })
        .collect()
}

/// The per-region table: units, wall, CPU, NTT/rotation/rescale counts,
/// exit level, `log₂` scale and headroom, the headroom spent
/// ([`spends`]) and per-unit p50/p95, under the kernel backend that ran.
/// `input` is the encrypted input's `(level, scale, headroom bits)`, shown
/// as the first row when the caller has it. The total row sums units,
/// CPU and ops; its wall is the sum of region walls only when the
/// records are one run (shard runs overlap in time), and its spend is
/// one run's, input minus the last exit.
pub fn breakdown(records: &[RegionRun], input: Option<(usize, f64, f64)>) -> String {
    let mut t = Table::new(&[
        ("layer", Align::Left),
        ("units", Align::Right),
        ("wall", Align::Right),
        ("cpu", Align::Right),
        ("ntt", Align::Right),
        ("rot", Align::Right),
        ("resc", Align::Right),
        ("lvl", Align::Right),
        ("log2(scale)", Align::Right),
        ("headroom", Align::Right),
        ("spent", Align::Right),
        ("unit p50/p95", Align::Right),
    ]);
    let secs = |d: Duration| format!("{:.3}s", d.as_secs_f64());
    // a spend within rounding of zero prints as 0.0, not -0.0
    let bits = |b: f64| format!("{:.1}", if b.abs() < 0.05 { 0.0 } else { b });
    let dash = || "-".to_string();
    if let Some((level, scale, headroom)) = input {
        let mut row = vec!["(input)".to_string()];
        row.resize(7, String::new());
        row.extend([
            level.to_string(),
            format!("{:.2}", scale.log2()),
            bits(headroom),
        ]);
        t.row(row);
    }
    let input = input.map(|(_, _, headroom)| headroom);
    for (r, spent) in records.iter().zip(spends(records, input)) {
        let unit = LatencyStats::from_durations(&r.unit_walls)
            .map_or_else(dash, |u| format!("{:.1}/{:.1}ms", u.p50 * 1e3, u.p95 * 1e3));
        t.row(vec![
            r.name.clone(),
            r.unit_walls.len().to_string(),
            secs(r.wall),
            secs(r.cpu()),
            r.ops.ntt_total().to_string(),
            r.ops.rotations.to_string(),
            r.ops.rescales.to_string(),
            r.level.to_string(),
            format!("{:.2}", r.scale.log2()),
            bits(r.headroom_bits),
            spent.map_or_else(dash, bits),
            unit,
        ]);
    }
    t.rule();
    let ops: OpSnapshot = records.iter().map(|r| r.ops).sum();
    let units: usize = records.iter().map(|r| r.unit_walls.len()).sum();
    let one_run = records.iter().filter(|r| r.region == 0).count() <= 1;
    let wall = records.iter().map(|r| r.wall).sum();
    let spent = input.zip(records.last()).map(|(i, l)| i - l.headroom_bits);
    t.row(vec![
        "total".to_string(),
        units.to_string(),
        if one_run { secs(wall) } else { dash() },
        secs(records.iter().map(RegionRun::cpu).sum()),
        ops.ntt_total().to_string(),
        ops.rotations.to_string(),
        ops.rescales.to_string(),
        String::new(),
        String::new(),
        String::new(),
        spent.map_or_else(dash, bits),
    ]);
    let backend = ckks_math::kernel::active_backend().name();
    format!("kernel backend: {backend}\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn region(name: &str, units: usize, unit: Duration, wall: Duration) -> RegionRun {
        RegionRun {
            name: name.into(),
            wall,
            unit_walls: vec![unit; units],
            ..RegionRun::default()
        }
    }

    /// A region whose units overlapped (wall below their sum), and one
    /// with time outside its units (wall above their sum).
    fn timing(conv_units: usize, act_units: usize) -> InferenceTiming {
        let mut act = region("act", act_units, ms(1), ms(act_units as u64 + 5));
        act.region = 1;
        InferenceTiming {
            layers: vec![
                region("conv", conv_units, ms(2), ms(conv_units as u64)),
                act,
            ],
        }
    }

    #[test]
    fn cpu_total_sums_unit_walls_or_walls() {
        let t = timing(100, 50);
        // cpu: the unit sum where units overlapped, the wall where time
        // fell outside every unit
        assert_eq!(t.cpu_total(), ms(200 + 55));
    }

    #[test]
    fn breakdown_shows_both_clocks() {
        let t = timing(10, 5);
        let s = breakdown(&t.layers, None);
        assert!(s.contains("cpu"));
        assert!(s.contains("wall"));
        // one run: its walls add up to the total
        assert!(s.lines().last().unwrap().contains("0.020s"), "{s}");
    }

    #[test]
    fn breakdown_aligns_long_layer_names() {
        // the table must widen its first column to the longest name, so
        // every row has the units column at the same offset
        let mut t = timing(10, 5);
        t.layers[0].name = "Conv(1→32, 11×11, s1, p5) with a very long label".into();
        let s = breakdown(&t.layers, None);
        // backend line, header, rule, 2 rows, rule, total
        let lines: Vec<&str> = s.lines().skip(1).collect();
        assert_eq!(lines.len(), 6, "{s}");
        let col_end = lines[0].find("units").unwrap() + "units".len();
        for row in [lines[2], lines[3], lines[5]] {
            // char-wise: layer names may contain multi-byte glyphs (→, ×)
            let cell: String = row.chars().take(col_end).collect();
            let unit_str = cell.split_whitespace().last().unwrap();
            assert!(
                unit_str.parse::<usize>().is_ok(),
                "units column misaligned in {row:?}"
            );
        }
    }

    #[test]
    fn breakdown_renders_aligned_totals() {
        let mut layers = Vec::new();
        for (i, (name, ntt)) in [("conv1-with-a-long-name", 100), ("act1", 40)]
            .into_iter()
            .enumerate()
        {
            let mut r = region(name, 4, ms(2), ms(10));
            r.region = i;
            r.ops.ntt_fwd = ntt;
            r.ops.ntt_inv = ntt / 2;
            r.ops.rescales = 4;
            layers.push(r);
        }
        let s = breakdown(&layers, None);
        assert!(s.starts_with("kernel backend: "));
        assert!(s.contains("conv1-with-a-long-name"));
        assert!(s.contains("total"));
        assert!(s.contains("210"), "ntt total = 100+50 + 40+20: {s}");
        assert!(s.contains("2.0/2.0ms"), "unit p50/p95: {s}");
        // skip the backend line; the table proper starts at line 1
        let widths: Vec<usize> = s.lines().skip(1).map(|l| l.chars().count()).collect();
        assert_eq!(
            widths[0],
            *widths.iter().max().unwrap(),
            "header spans table width"
        );
    }

    #[test]
    fn empty_report_renders_header_only() {
        let s = breakdown(&[], None);
        assert!(s.contains("layer"));
        assert!(s.lines().last().unwrap().starts_with("total"));
    }

    /// Two shard runs of a two-region circuit: each run's first region
    /// spends against the input, never against the other run's exit.
    #[test]
    fn breakdown_takes_each_spend_within_its_run() {
        let records: Vec<RegionRun> = [(0, 40.0), (1, 14.0), (0, 40.0), (1, 14.0)]
            .into_iter()
            .map(|(region, headroom_bits)| RegionRun {
                region,
                headroom_bits,
                wall: ms(10),
                ..RegionRun::default()
            })
            .collect();
        let want = [20.0, 26.0, 20.0, 26.0].map(Some);
        assert_eq!(spends(&records, Some(60.0)), want);
        assert_eq!(spends(&records, None), [None, Some(26.0), None, Some(26.0)]);
        let s = breakdown(&records, Some((2, 26f64.exp2(), 60.0)));
        assert!(s.contains("(input)"));
        // input, four records and the total: one run's 46 bits, and no
        // wall summed across runs that overlapped
        let total: Vec<&str> = s.lines().last().unwrap().split_whitespace().collect();
        assert_eq!((total[2], total[7]), ("-", "46.0"), "{s}");
        assert_eq!(s.lines().count(), 1 + 2 + 1 + 4 + 2, "{s}");
    }

    #[test]
    fn exec_mode_knobs() {
        assert_eq!(ExecMode::default(), ExecMode::sequential());
        let m = ExecMode::unit_parallel(4);
        assert_eq!(m.unit_threads, 4);
        assert!(ExecMode::auto().unit_threads >= 1);
    }
}
