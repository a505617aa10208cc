//! How wide a request runs, and what it measured.
//!
//! [`ExecMode`] caps how many threads a request may use. A circuit
//! region's independent units (one per conv/dense output scalar or SLAF
//! ciphertext, `he_ir::Circuit::units`) run across at most that many
//! threads of the rayon pool, and `ckks-math`'s per-limb loops inside a
//! unit run inline (the vendored rayon runs a parallel call issued from
//! a pool task on that thread). [`ExecMode::install`] applies the cap
//! around a run. [`InferenceTiming`] is what the run returns: one
//! [`LayerTrace`] per executed region.

use crate::trace::LayerTrace;
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
    pub layers: Vec<LayerTrace>,
}

impl InferenceTiming {
    /// Total CPU time across regions ([`LayerTrace::cpu`]).
    pub fn cpu_total(&self) -> Duration {
        self.layers.iter().map(LayerTrace::cpu).sum()
    }

    /// Total *measured* wall-clock across regions.
    pub fn measured_wall(&self) -> Duration {
        self.layers.iter().map(|l| l.wall).sum()
    }

    /// Per-region breakdown table for reports: CPU time and measured
    /// wall side by side. Columns auto-size to the longest region name,
    /// so deep networks with verbose specs stay aligned.
    pub fn breakdown(&self) -> String {
        use he_trace::{Align, Table};
        let mut t = Table::new(&[
            ("layer", Align::Left),
            ("units", Align::Right),
            ("cpu (s)", Align::Right),
            ("wall (s)", Align::Right),
        ]);
        for l in &self.layers {
            t.row(vec![
                l.name.clone(),
                l.unit_times.len().to_string(),
                format!("{:.3}", l.cpu().as_secs_f64()),
                format!("{:.3}", l.wall.as_secs_f64()),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use he_trace::OpSnapshot;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn region(name: &str, units: usize, unit: Duration, wall: Duration) -> LayerTrace {
        LayerTrace {
            name: name.into(),
            wall,
            unit_times: vec![unit; units],
            level: 0,
            scale: 1.0,
            headroom_bits: 0.0,
            ops: OpSnapshot::default(),
        }
    }

    /// A region whose units overlapped (wall below their sum), and one
    /// with time outside its units (wall above their sum).
    fn timing(conv_units: usize, act_units: usize) -> InferenceTiming {
        InferenceTiming {
            layers: vec![
                region("conv", conv_units, ms(2), ms(conv_units as u64)),
                region("act", act_units, ms(1), ms(act_units as u64 + 5)),
            ],
        }
    }

    #[test]
    fn measured_wall_sums_layers() {
        let t = timing(100, 50);
        assert_eq!(t.measured_wall(), ms(100 + 55));
        // cpu: the unit sum where units overlapped, the wall where time
        // fell outside every unit
        assert_eq!(t.cpu_total(), ms(200 + 55));
    }

    #[test]
    fn breakdown_shows_both_clocks() {
        let t = timing(10, 5);
        let s = t.breakdown();
        assert!(s.contains("cpu"));
        assert!(s.contains("wall"));
    }

    #[test]
    fn breakdown_aligns_long_layer_names() {
        // the table must widen its first column to the longest name, so
        // every row has the units column at the same offset
        let mut t = timing(10, 5);
        t.layers[0].name = "Conv(1→32, 11×11, s1, p5) with a very long label".into();
        let s = t.breakdown();
        let lines: Vec<&str> = s.lines().collect();
        // header + rule + 2 rows
        assert!(lines.len() >= 4, "{s}");
        let col_end = lines[0].find("units").unwrap() + "units".len();
        for row in &lines[2..] {
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
    fn exec_mode_knobs() {
        assert_eq!(ExecMode::default(), ExecMode::sequential());
        let m = ExecMode::unit_parallel(4);
        assert_eq!(m.unit_threads, 4);
        assert!(ExecMode::auto().unit_threads >= 1);
    }
}
