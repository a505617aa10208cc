//! Shared experiment harness for the table binaries, and the miniature
//! network the smoke benchmark and the serving demos run.
//!
//! Environment knobs (all optional):
//! * `RNS_CNN_LOGN`   — ring degree exponent (default 14, Table II).
//! * `RNS_CNN_RUNS`   — latency samples per model (default 3).
//! * `RNS_CNN_TRAIN`  — training-set size (default 2000).
//! * `RNS_CNN_TEST`   — encrypted-accuracy batch size (default 200).
//! * `RNS_CNN_CORES`  — simulated core count (default 16, the paper's
//!   Xeon E5-2650v2 thread count).

use cnn_he::exec::{ExecPlan, InferenceTiming};
use cnn_he::{CnnHePipeline, HeNetwork, LatencyStats};
use neural::mnist::{self, Dataset};
use neural::models::{cnn1, cnn2, ActKind};
use neural::slaf::{run_protocol, SlafProtocol};
use neural::train::TrainConfig;
use neural::Sequential;

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

pub fn virtual_cores() -> usize {
    env_usize("RNS_CNN_CORES", 16)
}

/// An execution plan with the harness's virtual-core setting.
pub fn plan(k: usize) -> ExecPlan {
    ExecPlan {
        streams: k,
        virtual_cores: virtual_cores(),
    }
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
    /// One timing record per latency run (single-image requests).
    pub timings: Vec<InferenceTiming>,
    /// Encrypted accuracy over the batched test set.
    pub encrypted_acc: f32,
    /// Agreement between encrypted and plaintext predictions.
    pub agreement: f32,
    /// Plaintext (training-set) accuracy of the network.
    pub train_acc: f32,
}

impl ExperimentResult {
    /// Latency stats under a given plan, from the measured runs.
    /// Panics only if the experiment ran zero latency runs.
    pub fn stats(&self, plan: ExecPlan) -> LatencyStats {
        let secs: Vec<f64> = self
            .timings
            .iter()
            .map(|t| t.simulated_wall(plan).as_secs_f64())
            .collect();
        LatencyStats::from_secs(&secs).expect("experiment recorded no latency runs")
    }
}

/// Runs the full measured experiment for one architecture:
/// * `runs` single-image encrypted classifications (latency samples);
/// * one batched encrypted classification over the test set (accuracy) —
///   the batch rides the unused CKKS slots, so it costs one extra run.
pub fn run_experiment(model: &TrainedModel, runs: usize) -> ExperimentResult {
    run_experiment_opts(model, runs, true)
}

/// Like [`run_experiment`] but optionally skipping the batched-accuracy
/// pass (the moduli-sweep tables report latency only).
pub fn run_experiment_opts(
    model: &TrainedModel,
    runs: usize,
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

    // latency runs (single-image requests, as the paper measures)
    let mut timings = Vec::with_capacity(runs);
    for r in 0..runs {
        eprintln!("[harness] latency run {}/{runs} ...", r + 1);
        let img = test.image(r % test.len());
        let res = pipe.classify(&[img]);
        eprintln!(
            "[harness]   cpu total {:.1}s",
            res.timing.cpu_total().as_secs_f64()
        );
        timings.push(res.timing);
    }

    if !with_accuracy {
        return ExperimentResult {
            timings,
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
        timings,
        encrypted_acc: correct as f32 / batch as f32,
        agreement: agree as f32 / batch as f32,
        train_acc: model.train_acc,
    }
}

/// Prints a Table III/V-format comparison row pair.
pub fn print_he_vs_rns_table(title: &str, arch: &str, result: &ExperimentResult, k: usize) {
    let base = result.stats(plan(1));
    let rns = result.stats(plan(k));
    println!("\n{title}");
    println!(
        "(simulated {}-core schedule from measured per-unit CPU times; see EXPERIMENTS.md)",
        virtual_cores()
    );
    println!("┌─────────────────┬──────────────┬───────────────────────────┬─────────┐");
    println!("│ Model           │ Training Acc │ Lat (s)  min   max   avg  │ Acc (%) │");
    println!("├─────────────────┼──────────────┼───────────────────────────┼─────────┤");
    println!(
        "│ {arch}-HE         │ {:>11.3}% │ {:>10.2} {:>5.2} {:>5.2}  │ {:>6.2}  │",
        result.train_acc * 100.0,
        base.min,
        base.max,
        base.avg,
        result.encrypted_acc * 100.0
    );
    println!(
        "│ {arch}-HE-RNS     │ {:>11.3}% │ {:>10.2} {:>5.2} {:>5.2}  │ {:>6.2}  │",
        result.train_acc * 100.0,
        rns.min,
        rns.max,
        rns.avg,
        result.encrypted_acc * 100.0
    );
    println!("└─────────────────┴──────────────┴───────────────────────────┴─────────┘");
    println!(
        "average speed-up of RNS (k={k}) over baseline: {:.2}%  (paper reports 36.24% / 40.69%)",
        base.speedup_percent_over(&rns)
    );
    println!(
        "encrypted/plaintext prediction agreement: {:.1}%",
        result.agreement * 100.0
    );
}

/// Prints a Table IV/VI-format moduli sweep.
pub fn print_sweep_table(title: &str, result: &ExperimentResult, ks: &[usize]) {
    println!("\n{title}");
    println!(
        "(simulated {}-core schedule from measured per-unit CPU times)",
        virtual_cores()
    );
    println!("┌─────────────────────┬─────────┐");
    println!("│ Moduli chain length │ Lat (s) │");
    println!("├─────────────────────┼─────────┤");
    for &k in ks {
        let s = result.stats(plan(k));
        println!("│ {k:>19} │ {:>7.2} │", s.avg);
    }
    println!("└─────────────────────┴─────────┘");
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
