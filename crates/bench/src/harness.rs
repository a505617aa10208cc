//! Shared experiment harness for the table binaries, and the miniature
//! network the smoke benchmark and the serving demos run.
//!
//! Environment knobs (all optional):
//! * `RNS_CNN_LOGN`   — ring degree exponent (default 14, Table II).
//! * `RNS_CNN_RUNS`   — latency samples per model (default 3).
//! * `RNS_CNN_TRAIN`  — training-set size (default 2000).
//! * `RNS_CNN_TEST`   — encrypted-accuracy batch size (default 200).
//!
//! Every latency is the measured wall of one `classify` call (encrypt →
//! circuit → decrypt) under `ExecMode::unit_parallel(t)`. The paper's k
//! residue streams run as the `t` threads of the unit-parallel engine;
//! the decomposed k-stream circuit is not built yet.

use cnn_he::{CnnHePipeline, ExecMode, HeNetwork, LatencyStats};
use neural::mnist::{self, Dataset};
use neural::models::{cnn1, cnn2, ActKind};
use neural::slaf::{run_protocol, SlafProtocol};
use neural::train::TrainConfig;
use neural::Sequential;
use std::collections::BTreeMap;
use std::time::Instant;

pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

pub fn ring_degree() -> usize {
    1 << env_usize("RNS_CNN_LOGN", 14)
}

pub fn latency_runs() -> usize {
    env_usize("RNS_CNN_RUNS", 3)
}

/// The host's core count `c`: the most threads a row is measured with.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The thread count row `k` of Tables IV/VI is measured at on `cores`
/// cores: `t = k` when `k ≤ cores`, else `None` (not measurable here).
pub fn row_threads(k: usize, cores: usize) -> Option<usize> {
    (k <= cores).then_some(k)
}

/// The thread count Tables III/V and `throughput` compare `t = 1`
/// against: the paper's k = 3, where the host has the cores.
pub fn rns_threads(cores: usize) -> usize {
    cores.min(3)
}

/// Which of the paper's two architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    Cnn1,
    Cnn2,
}

impl Arch {
    pub fn name(&self) -> &'static str {
        match self {
            Arch::Cnn1 => "CNN1",
            Arch::Cnn2 => "CNN2",
        }
    }

    fn build(&self, seed: u64) -> Sequential {
        match self {
            Arch::Cnn1 => cnn1(ActKind::Relu, seed),
            Arch::Cnn2 => cnn2(ActKind::Relu, seed),
        }
    }
}

/// A trained, extracted model plus its training metadata.
pub struct TrainedModel {
    pub network: HeNetwork,
    pub train_acc: f32,
    pub arch: Arch,
}

/// Trains (or loads from cache) the SLAF-converted model for an
/// architecture. Training details follow §V.D: SGD momentum 0.9,
/// batch 64, 1-cycle LR, Kaiming init, SLAF degree 3 with 3 co-prime
/// moduli downstream.
pub fn trained_model(arch: Arch) -> TrainedModel {
    let cache_name = format!("{}_slaf3", arch.name().to_lowercase());
    if let Some(network) = crate::modelio::load(&cache_name) {
        eprintln!("[harness] loaded cached {} model", arch.name());
        // training accuracy re-derived on the deterministic training set
        let data = train_set();
        let acc = plain_accuracy(&network, &data);
        return TrainedModel {
            network,
            train_acc: acc,
            arch,
        };
    }
    let data = train_set();
    eprintln!(
        "[harness] training {} on {} synthetic digits (SLAF protocol)...",
        arch.name(),
        data.len()
    );
    let mut model = arch.build(77);
    let proto = SlafProtocol {
        pretrain: TrainConfig {
            epochs: env_usize("RNS_CNN_EPOCHS", 6),
            max_lr: 0.08,
            ..Default::default()
        },
        ..Default::default()
    };
    let outcome = run_protocol(&mut model, &data, &proto);
    eprintln!(
        "[harness] ReLU acc {:.2}% → SLAF acc {:.2}%",
        outcome.relu_train_acc * 100.0,
        outcome.slaf_train_acc * 100.0
    );
    let network = HeNetwork::from_trained(&model, mnist::SIDE);
    let _ = crate::modelio::save(&cache_name, &network);
    TrainedModel {
        network,
        train_acc: outcome.slaf_train_acc,
        arch,
    }
}

/// The deterministic training set shared by all binaries.
pub fn train_set() -> Dataset {
    mnist::load_or_synthesize(env_usize("RNS_CNN_TRAIN", 2000), 1, 2026).0
}

/// The deterministic test set.
pub fn test_set() -> Dataset {
    let n = env_usize("RNS_CNN_TEST", 200);
    mnist::synthetic(n, 20_260_706)
}

/// Plaintext accuracy of an extracted network.
pub fn plain_accuracy(net: &HeNetwork, data: &Dataset) -> f32 {
    let mut correct = 0usize;
    for i in 0..data.len() {
        let logits = net.infer_plain(data.image(i));
        let pred = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        if pred == data.labels[i] {
            correct += 1;
        }
    }
    correct as f32 / data.len() as f32
}

/// Result of the measured encrypted-inference experiment for one model.
pub struct ExperimentResult {
    /// Per thread count `t`, the measured `classify` walls (s) of the
    /// single-image latency runs.
    pub walls: BTreeMap<usize, Vec<f64>>,
    /// Encrypted accuracy over the batched test set.
    pub encrypted_acc: f32,
    /// Agreement between encrypted and plaintext predictions.
    pub agreement: f32,
    /// Plaintext (training-set) accuracy of the network.
    pub train_acc: f32,
}

impl ExperimentResult {
    /// Latency stats of the runs at `threads` threads. Panics if the
    /// experiment did not measure at that width.
    pub fn stats(&self, threads: usize) -> LatencyStats {
        let secs =
            (self.walls.get(&threads)).expect("experiment did not measure this thread count");
        LatencyStats::from_secs(secs).expect("experiment recorded no latency runs")
    }
}

/// Runs the measured experiment for one architecture:
/// * `runs` single-image encrypted classifications at each thread count
///   in `threads`, interleaved (latency samples);
/// * with `with_accuracy` (the moduli-sweep tables report latency only),
///   one batched encrypted classification over the test set — the
///   batch rides the unused CKKS slots, so it costs one extra run.
pub fn run_experiment(
    model: &TrainedModel,
    runs: usize,
    threads: &[usize],
    with_accuracy: bool,
) -> ExperimentResult {
    let n = ring_degree();
    eprintln!(
        "[harness] building pipeline: N=2^{} depth={} ...",
        n.trailing_zeros(),
        model.network.required_levels()
    );
    let mut pipe = CnnHePipeline::new(model.network.clone(), n, 1001);
    let test = test_set();

    // latency runs (single-image requests, as the paper measures), the
    // thread counts interleaved so host drift hits each alike
    let mut walls: BTreeMap<usize, Vec<f64>> = threads.iter().map(|&t| (t, Vec::new())).collect();
    for r in 0..runs {
        let img = test.image(r % test.len());
        for (t, secs) in &mut walls {
            eprintln!("[harness] latency run {}/{runs} at t = {t} ...", r + 1);
            pipe.set_exec_mode(ExecMode::unit_parallel(*t));
            let start = Instant::now();
            let res = pipe.classify(&[img]);
            let wall = start.elapsed().as_secs_f64();
            secs.push(wall);
            eprintln!(
                "[harness]   wall {wall:.2}s, cpu in regions {:.2}s",
                res.timing.cpu_total().as_secs_f64()
            );
        }
    }

    if !with_accuracy {
        return ExperimentResult {
            walls,
            encrypted_acc: f32::NAN,
            agreement: f32::NAN,
            train_acc: model.train_acc,
        };
    }

    // batched encrypted accuracy
    let batch = test.len().min(pipe.ctx.slots());
    eprintln!("[harness] batched encrypted accuracy over {batch} images ...");
    let images: Vec<&[f32]> = (0..batch).map(|i| test.image(i)).collect();
    let res = pipe.classify(&images);
    let mut correct = 0usize;
    let mut agree = 0usize;
    for (i, &pred) in res.predictions.iter().enumerate() {
        if pred == test.labels[i] {
            correct += 1;
        }
        let plain = model.network.infer_plain(test.image(i));
        let ppred = plain
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        if pred == ppred {
            agree += 1;
        }
    }
    ExperimentResult {
        walls,
        encrypted_acc: correct as f32 / batch as f32,
        agreement: agree as f32 / batch as f32,
        train_acc: model.train_acc,
    }
}

/// The header line every latency table prints under its title.
fn measured_note(cores: usize) -> String {
    format!(
        "(measured wall of classify — encrypt → circuit → decrypt — on c = {cores} cores;\n \
         streams run as t threads of the unit-parallel engine; see EXPERIMENTS.md)"
    )
}

/// Measures and prints a Table III/V-format comparison row pair:
/// `t = 1` (HE) against `t = rns_threads(c)` (HE-RNS).
pub fn he_vs_rns_table(title: &str, model: &TrainedModel) {
    let (cores, arch) = (cores(), model.arch.name());
    let t = rns_threads(cores);
    let result = run_experiment(model, latency_runs(), &[1, t], true);
    let base = result.stats(1);
    let rns = result.stats(t);
    println!("\n{title}");
    println!("{}", measured_note(cores));
    println!("┌──────────────────────┬──────────────┬───────────────────────────┬─────────┐");
    println!("│ Model                │ Training Acc │ Lat (s)  min   max   avg  │ Acc (%) │");
    println!("├──────────────────────┼──────────────┼───────────────────────────┼─────────┤");
    for (name, threads, s) in [("HE", 1, base), ("HE-RNS", t, rns)] {
        println!(
            "│ {:<20} │ {:>11.3}% │ {:>10.2} {:>5.2} {:>5.2}  │ {:>6.2}  │",
            format!("{arch}-{name} (t={threads})"),
            result.train_acc * 100.0,
            s.min,
            s.max,
            s.avg,
            result.encrypted_acc * 100.0
        );
    }
    println!("└──────────────────────┴──────────────┴───────────────────────────┴─────────┘");
    println!(
        "average speed-up of t={t} over t=1: {:.2}%  (paper reports 36.24% / 40.69% for k=3)",
        base.speedup_percent_over(&rns)
    );
    println!(
        "encrypted/plaintext prediction agreement: {:.1}%",
        result.agreement * 100.0
    );
}

/// Measures and prints a Table IV/VI-format moduli sweep: row `k` at
/// `t = k` threads where the host has them.
pub fn sweep_table(title: &str, model: &TrainedModel, ks: &[usize]) {
    let cores = cores();
    let threads: Vec<usize> = ks.iter().filter_map(|&k| row_threads(k, cores)).collect();
    let result = run_experiment(model, latency_runs().min(2), &threads, false);
    println!("\n{title}");
    println!("{}", measured_note(cores));
    println!("┌─────────────────────┬─────┬───────────────────────────┐");
    println!("│ Moduli chain length │   t │ Lat (s)                   │");
    println!("├─────────────────────┼─────┼───────────────────────────┤");
    for &k in ks {
        let lat = match row_threads(k, cores) {
            Some(t) => format!("{:.2}", result.stats(t).avg),
            None => format!("not measurable on {cores} cores"),
        };
        println!("│ {k:>19} │ {k:>3} │ {lat:<25} │");
    }
    println!("└─────────────────────┴─────┴───────────────────────────┘");
}

/// A miniature CNN1-shaped network (conv → act → dense → act → dense)
/// over 8×8 inputs — fast enough that the serve component measures the
/// engine, not 20 s of full-size HE arithmetic.
pub fn mini_cnn1(seed: u64) -> HeNetwork {
    use cnn_he::he_layers::{ConvSpec, DenseSpec};
    use cnn_he::HeLayerSpec;
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut w = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-0.3f32..0.3)).collect() };
    let conv = ConvSpec {
        weight: w(2 * 9),
        bias: vec![0.05, -0.05],
        in_ch: 1,
        out_ch: 2,
        k: 3,
        stride: 2,
        pad: 0,
    };
    let dense1 = DenseSpec {
        weight: w(18 * 6),
        bias: w(6),
        in_dim: 18,
        out_dim: 6,
    };
    let dense2 = DenseSpec {
        weight: w(6 * 3),
        bias: w(3),
        in_dim: 6,
        out_dim: 3,
    };
    HeNetwork {
        layers: vec![
            HeLayerSpec::Conv(conv),
            HeLayerSpec::Activation(vec![0.1, 0.6, 0.2, 0.05]),
            HeLayerSpec::Dense(dense1),
            HeLayerSpec::Activation(vec![0.0, 0.8, 0.15]),
            HeLayerSpec::Dense(dense2),
        ],
        input_side: 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_k_is_measured_at_t_equals_k_only_on_enough_cores() {
        assert_eq!(row_threads(1, 2), Some(1));
        assert_eq!(row_threads(2, 2), Some(2));
        assert_eq!(row_threads(3, 2), None);
        assert_eq!(row_threads(10, 16), Some(10));
        // Tables III/V: t = 1 against min(3, c)
        assert_eq!(rns_threads(1), 1);
        assert_eq!(rns_threads(2), 2);
        assert_eq!(rns_threads(16), 3);
    }
}
