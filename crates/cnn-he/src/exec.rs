//! Execution width, and the scheduling model behind the paper's tables.
//!
//! Two complementary machineries live here:
//!
//! * **Real execution** — [`ExecMode`] caps how many threads a request
//!   may use. A circuit region's independent units (one per conv/dense
//!   output scalar or SLAF ciphertext, `he_ir::Circuit::units`) run
//!   across at most that many threads of the rayon pool, and
//!   `ckks-math`'s per-limb loops inside a unit run inline (the vendored
//!   rayon runs a parallel call issued from a pool task on that thread).
//!   [`ExecMode::install`] applies the cap around a run.
//! * **Simulation** — the paper's CNN-HE-RNS processes the decomposed
//!   signal as `k` independent streams in parallel on an 8-core/16-thread
//!   Xeon. The harness measures per-unit CPU time and computes the
//!   wall-clock a `k`-stream plan would achieve on a `c`-core machine as
//!   a scheduling makespan, so one run regenerates Tables IV and VI for
//!   every `k`. [`LayerTiming::wall`] records the *measured* wall-clock
//!   alongside, letting [`InferenceTiming::validate_against`] check the
//!   simulator against reality.

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

/// An execution plan: how many parallel RNS streams, on how many
/// (virtual) cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPlan {
    /// Number of RNS streams `k`. `1` = the sequential CNN-HE baseline.
    pub streams: usize,
    /// Simulated core count (the paper's testbed exposes 16 hardware
    /// threads).
    pub virtual_cores: usize,
}

impl ExecPlan {
    /// The sequential baseline (CNN-HE).
    pub fn baseline() -> Self {
        Self {
            streams: 1,
            virtual_cores: 16,
        }
    }

    /// CNN-HE-RNS with `k` streams on the paper-testbed core count.
    pub fn rns(k: usize) -> Self {
        assert!(k >= 1);
        Self {
            streams: k,
            virtual_cores: 16,
        }
    }

    /// A plan matching a real [`ExecMode::unit_parallel`] run on this
    /// host: `t` streams on `t` cores — the shape to feed
    /// [`InferenceTiming::validate_against`].
    pub fn threads(t: usize) -> Self {
        assert!(t >= 1);
        Self {
            streams: t,
            virtual_cores: t,
        }
    }
}

/// Measured per-unit times of one layer's homomorphic workload.
#[derive(Debug, Clone)]
pub struct LayerTiming {
    pub name: String,
    /// Wall of each independent unit of the layer's circuit region
    /// (output scalar / ciphertext).
    pub unit_times: Vec<Duration>,
    /// Whether this layer's units belong to the RNS-parallel region.
    /// Linear layers (conv, dense, packed matvec) commute with the
    /// stream decomposition and parallelize; SLAF activations require
    /// the reassembled signal and stay sequential (Fig. 5).
    pub parallel: bool,
    /// Fixed sequential overhead of the layer (reassembly, bookkeeping).
    pub fixed: Duration,
    /// Measured wall-clock of the whole layer. Under a one-thread
    /// [`ExecMode`] this ≈ `cpu_total()`; under unit-parallelism it is
    /// what the threads actually achieved.
    pub wall: Duration,
}

impl LayerTiming {
    pub fn cpu_total(&self) -> Duration {
        self.unit_times.iter().sum::<Duration>() + self.fixed
    }
}

/// Timing record of one encrypted inference.
#[derive(Debug, Clone, Default)]
pub struct InferenceTiming {
    pub layers: Vec<LayerTiming>,
}

/// Simulated vs measured wall-clock of one run (see
/// [`InferenceTiming::validate_against`]).
#[derive(Debug, Clone, Copy)]
pub struct SimulationCheck {
    pub simulated: Duration,
    pub measured: Duration,
}

impl SimulationCheck {
    /// `measured / simulated` — 1.0 means the makespan model predicted
    /// the real run exactly; >1 means reality was slower (scheduling
    /// overhead, memory contention), <1 faster. `None` when the
    /// simulated wall is zero (empty timing record, or sub-resolution
    /// unit times) — there is no meaningful ratio against a zero
    /// prediction.
    pub fn ratio(&self) -> Option<f64> {
        if self.simulated.is_zero() {
            return None;
        }
        Some(self.measured.as_secs_f64() / self.simulated.as_secs_f64())
    }
}

impl InferenceTiming {
    /// Total CPU time (the 1-stream sequential wall-clock).
    pub fn cpu_total(&self) -> Duration {
        self.layers.iter().map(LayerTiming::cpu_total).sum()
    }

    /// Total *measured* wall-clock across layers.
    pub fn measured_wall(&self) -> Duration {
        self.layers.iter().map(|l| l.wall).sum()
    }

    /// Simulated wall-clock under an execution plan: parallel layers are
    /// split round-robin into `k` stream shards whose sums are scheduled
    /// onto `c` cores (LPT makespan); sequential layers contribute their
    /// full CPU time.
    pub fn simulated_wall(&self, plan: ExecPlan) -> Duration {
        self.layers
            .iter()
            .map(|l| {
                if l.parallel && plan.streams > 1 {
                    let shards = round_robin_shards(&l.unit_times, plan.streams);
                    makespan(&shards, plan.virtual_cores) + l.fixed
                } else {
                    l.cpu_total()
                }
            })
            .sum()
    }

    /// Compares the makespan simulation of `plan` against the measured
    /// wall-clock of this (parallel) run.
    pub fn validate_against(&self, plan: ExecPlan) -> SimulationCheck {
        SimulationCheck {
            simulated: self.simulated_wall(plan),
            measured: self.measured_wall(),
        }
    }

    /// Per-layer breakdown table for reports: CPU time and measured
    /// wall side by side. Columns auto-size to the longest layer name,
    /// so deep networks with verbose specs stay aligned.
    pub fn breakdown(&self) -> String {
        use he_trace::{Align, Table};
        let mut t = Table::new(&[
            ("layer", Align::Left),
            ("units", Align::Right),
            ("cpu (s)", Align::Right),
            ("wall (s)", Align::Right),
            ("mode", Align::Left),
        ]);
        for l in &self.layers {
            t.row(vec![
                l.name.clone(),
                l.unit_times.len().to_string(),
                format!("{:.3}", l.cpu_total().as_secs_f64()),
                format!("{:.3}", l.wall.as_secs_f64()),
                (if l.parallel { "parallel" } else { "sequential" }).to_string(),
            ]);
        }
        t.render()
    }
}

/// Exponentially-weighted moving average of observed run wall-clocks.
///
/// The serving engine uses this as its batch cost model: slot-packed
/// inference costs the same regardless of how many slots carry data, so
/// the wall-clock of past batches is an excellent predictor of the next
/// one. `alpha` is the weight of the newest observation (1.0 = only the
/// last run matters, small values smooth over host jitter).
#[derive(Debug, Clone, Copy)]
pub struct WallEwma {
    alpha: f64,
    current: Option<f64>,
}

impl WallEwma {
    /// `alpha` must lie in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of (0, 1]");
        Self {
            alpha,
            current: None,
        }
    }

    /// Feeds one measured wall-clock into the average.
    pub fn observe(&mut self, wall: Duration) {
        let w = wall.as_secs_f64();
        self.current = Some(match self.current {
            None => w,
            Some(prev) => self.alpha * w + (1.0 - self.alpha) * prev,
        });
    }

    /// Current estimate; `None` until the first observation.
    pub fn estimate(&self) -> Option<Duration> {
        self.current.map(Duration::from_secs_f64)
    }
}

/// Splits unit times round-robin into `k` shard sums (the work-queue
/// order a stream scheduler would see).
pub fn round_robin_shards(units: &[Duration], k: usize) -> Vec<Duration> {
    assert!(k >= 1);
    let mut shards = vec![Duration::ZERO; k];
    for (i, &u) in units.iter().enumerate() {
        shards[i % k] += u;
    }
    shards
}

/// Longest-processing-time-first makespan of shard sums on `cores`
/// identical machines. Heap-based: `O(s·log c)` instead of the naive
/// `O(s·c)` min-scan (see [`makespan_naive`]).
pub fn makespan(shards: &[Duration], cores: usize) -> Duration {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    assert!(cores >= 1);
    let mut sorted: Vec<Duration> = shards.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let machines = cores.min(shards.len()).max(1);
    let mut loads: BinaryHeap<Reverse<Duration>> =
        (0..machines).map(|_| Reverse(Duration::ZERO)).collect();
    for s in sorted {
        let Reverse(min) = loads.pop().unwrap();
        loads.push(Reverse(min + s));
    }
    loads
        .into_iter()
        .map(|Reverse(l)| l)
        .max()
        .unwrap_or(Duration::ZERO)
}

/// Reference LPT implementation with the original linear min-scan.
/// Kept as the oracle for the heap version: both pick *a* least-loaded
/// machine at each step, and since the multiset of machine loads evolves
/// identically regardless of which tied minimum is chosen, the final
/// makespans agree exactly.
pub fn makespan_naive(shards: &[Duration], cores: usize) -> Duration {
    assert!(cores >= 1);
    let mut sorted: Vec<Duration> = shards.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut loads = vec![Duration::ZERO; cores.min(shards.len()).max(1)];
    for s in sorted {
        let min_idx = loads
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| **l)
            .map(|(i, _)| i)
            .unwrap();
        loads[min_idx] += s;
    }
    loads.into_iter().max().unwrap_or(Duration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn makespan_basics() {
        // 4 equal shards on 2 cores → 2 per core
        assert_eq!(makespan(&[ms(10); 4], 2), ms(20));
        // enough cores → max shard
        assert_eq!(makespan(&[ms(10), ms(30), ms(20)], 8), ms(30));
        // one core → sum
        assert_eq!(makespan(&[ms(10), ms(30), ms(20)], 1), ms(60));
    }

    proptest! {
        #[test]
        fn heap_makespan_matches_naive(
            shards in proptest::collection::vec(0u64..5000, 0..64),
            cores in 1usize..24,
        ) {
            let d: Vec<Duration> = shards.iter().map(|&v| ms(v)).collect();
            prop_assert_eq!(makespan(&d, cores), makespan_naive(&d, cores));
        }
    }

    #[test]
    fn round_robin_balances_uniform_units() {
        let units = vec![ms(1); 100];
        let shards = round_robin_shards(&units, 3);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0], ms(34));
        assert_eq!(shards[1], ms(33));
        assert_eq!(shards[2], ms(33));
    }

    fn timing(parallel_units: usize, seq_units: usize) -> InferenceTiming {
        InferenceTiming {
            layers: vec![
                LayerTiming {
                    name: "conv".into(),
                    unit_times: vec![ms(2); parallel_units],
                    parallel: true,
                    fixed: Duration::ZERO,
                    wall: ms(2 * parallel_units as u64),
                },
                LayerTiming {
                    name: "act".into(),
                    unit_times: vec![ms(1); seq_units],
                    parallel: false,
                    fixed: ms(5),
                    wall: ms(seq_units as u64 + 5),
                },
            ],
        }
    }

    #[test]
    fn baseline_equals_cpu_total() {
        let t = timing(100, 50);
        assert_eq!(t.simulated_wall(ExecPlan::baseline()), t.cpu_total());
        assert_eq!(t.cpu_total(), ms(200 + 50 + 5));
    }

    #[test]
    fn measured_wall_sums_layers() {
        let t = timing(100, 50);
        assert_eq!(t.measured_wall(), ms(200 + 55));
        let check = t.validate_against(ExecPlan::baseline());
        assert_eq!(check.simulated, t.cpu_total());
        assert!((check.ratio().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_simulated_wall_has_no_ratio() {
        // an empty timing record simulates to zero: ratio is undefined,
        // not a division blow-up
        let t = InferenceTiming::default();
        let check = t.validate_against(ExecPlan::baseline());
        assert_eq!(check.simulated, Duration::ZERO);
        assert_eq!(check.ratio(), None);
        // and a non-degenerate record still yields Some
        let check = timing(4, 2).validate_against(ExecPlan::baseline());
        assert!(check.ratio().is_some());
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
    fn more_streams_reduce_wall_until_saturation() {
        let t = timing(720, 0);
        let mut prev = t.simulated_wall(ExecPlan::baseline());
        for k in [2usize, 3, 4, 8, 16] {
            let wall = t.simulated_wall(ExecPlan::rns(k));
            assert!(wall <= prev, "k={k}: {wall:?} > {prev:?}");
            prev = wall;
        }
        // saturated at virtual_cores: k beyond cores cannot help
        let w16 = t.simulated_wall(ExecPlan::rns(16));
        let w32 = t.simulated_wall(ExecPlan::rns(32));
        assert!(w32 >= w16);
    }

    #[test]
    fn sequential_layers_do_not_speed_up() {
        let t = InferenceTiming {
            layers: vec![LayerTiming {
                name: "dense".into(),
                unit_times: vec![ms(3); 64],
                parallel: false,
                fixed: Duration::ZERO,
                wall: ms(192),
            }],
        };
        assert_eq!(
            t.simulated_wall(ExecPlan::rns(8)),
            t.simulated_wall(ExecPlan::baseline())
        );
    }

    #[test]
    fn amdahl_shape() {
        // parallel fraction p of total T: wall(k) ≈ (1-p)T + pT/k
        let t = timing(500, 500); // 1000ms parallel, 505ms sequential
        let w1 = t.simulated_wall(ExecPlan::baseline()).as_secs_f64();
        let w4 = t.simulated_wall(ExecPlan::rns(4)).as_secs_f64();
        let expect = 0.505 + 1.0 / 4.0;
        assert!((w4 - expect).abs() < 0.01, "w4 {w4} vs {expect}");
        assert!(w1 > w4);
    }

    #[test]
    fn exec_mode_knobs() {
        assert_eq!(ExecMode::default(), ExecMode::sequential());
        let m = ExecMode::unit_parallel(4);
        assert_eq!(m.unit_threads, 4);
        assert!(ExecMode::auto().unit_threads >= 1);
        assert_eq!(ExecPlan::threads(4).streams, 4);
        assert_eq!(ExecPlan::threads(4).virtual_cores, 4);
    }

    #[test]
    fn ewma_tracks_observations() {
        let mut e = WallEwma::new(0.5);
        assert_eq!(e.estimate(), None);
        e.observe(ms(100));
        assert_eq!(e.estimate(), Some(ms(100)));
        e.observe(ms(200));
        // 0.5·200 + 0.5·100 = 150
        let est = e.estimate().unwrap();
        assert!((est.as_secs_f64() - 0.150).abs() < 1e-9);
        // alpha = 1 tracks the last observation exactly
        let mut last_only = WallEwma::new(1.0);
        last_only.observe(ms(70));
        last_only.observe(ms(30));
        assert_eq!(last_only.estimate(), Some(ms(30)));
    }

    #[test]
    #[should_panic(expected = "alpha out of")]
    fn ewma_rejects_zero_alpha() {
        let _ = WallEwma::new(0.0);
    }
}
