//! The RNS decomposition and its parallelism — Figs. 2 and 5 hands-on.
//!
//! Part 1 demonstrates the Fig. 2 arithmetic numerically: residue
//! decomposition, per-plane parallel convolution with modular reduction,
//! exact CRT reassembly.
//!
//! Part 2 runs encrypted CNN1 inference on a reduced ring on t = 1 and
//! t = 2 threads of the unit-parallel engine and prints the measured
//! wall of each `classify` (encrypt → circuit → decrypt). Streams run as
//! threads; the decomposed k-stream circuit is not built yet.
//!
//! Run: `cargo run --release -p examples --bin rns_parallel_sweep`

#![forbid(unsafe_code)]

use cnn_he::quantize::QuantSpec;
use cnn_he::{CnnHePipeline, ExecMode, HeNetwork, SignalDecomposition};
use neural::mnist;
use neural::models::{cnn1, ActKind};
use std::time::Instant;

fn main() {
    // ---------------- Part 1: Fig. 2 numerics ----------------------
    println!("== Fig. 2: residue number system decomposition ==\n");
    let q = QuantSpec::default();
    let pixels = [0.85f32, 0.32, 0.0, 1.0, 0.5];
    let ints = q.quantize_input(&pixels);
    println!("quantized pixels: {ints:?}");

    let d = SignalDecomposition::new(3, q.output_bound(25, 1.0));
    println!("co-prime moduli:  {:?}", d.moduli());
    let planes = d.decompose_residues(&ints);
    for (j, p) in planes.iter().enumerate() {
        println!("  residue plane {j} (mod {}): {:?}", d.moduli()[j], p);
    }
    let back = d.recompose_residues(&planes);
    println!("CRT recomposition: {back:?}  (exact: {})", back == ints);

    // parallel residue convolution == direct convolution
    let kernel = [300i64, -120, 77];
    let conv = |xs: &[i64]| -> Vec<i64> {
        (0..xs.len() - 2)
            .map(|i| (0..3).map(|j| xs[i + j] * kernel[j]).sum())
            .collect()
    };
    let direct = conv(&ints);
    let via_rns = d.conv_residues_parallel(&ints, conv);
    println!("\nconv direct:        {direct:?}");
    println!(
        "conv via k=3 RNS:   {via_rns:?}  (exact: {})",
        direct == via_rns
    );
    assert_eq!(direct, via_rns);

    // ---------------- Part 2: measured walls ------------------------
    println!("\n== Fig. 5: encrypted CNN1 on t threads ==\n");
    println!("(untrained CNN1 weights — latency does not depend on weight values)");
    let model = cnn1(ActKind::slaf3(), 7);
    let network = HeNetwork::from_trained(&model, mnist::SIDE);
    let mut pipe = CnnHePipeline::new(network, 1 << 11, 7);
    let img: Vec<f32> = (0..784).map(|i| ((i * 31) % 97) as f32 / 97.0).collect();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("measured wall of classify on c = {cores} cores (reduced ring 2^11):\n");
    println!("  threads t | wall (s) | speed-up vs t=1");
    let mut base = None;
    let mut last = None;
    for t in [1usize, 2] {
        if t > cores {
            println!("  {t:>9} | not measurable on {cores} cores");
            continue;
        }
        pipe.set_exec_mode(ExecMode::unit_parallel(t));
        let start = Instant::now();
        let result = pipe.classify(&[&img]);
        let wall = start.elapsed().as_secs_f64();
        let base = *base.get_or_insert(wall);
        println!(
            "  {t:>9} | {wall:>8.3} | {:>6.2}%",
            (base - wall) / base * 100.0
        );
        last = Some((t, result));
    }
    if let Some((t, result)) = last {
        println!(
            "\nper-region breakdown at t = {t}:\n{}",
            cnn_he::breakdown(&result.timing.layers, None)
        );
    }
    println!(
        "\nthe paper's k-stream dataflow (k = 3):\n{}",
        pipe.execution_plan_description(3)
    );
}
