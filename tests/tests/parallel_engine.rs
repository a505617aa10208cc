//! Integration: the real parallel execution engine.
//!
//! Parallel unit execution must be *bit-identical* to sequential
//! execution — each output unit is an independent computation, so the
//! thread count can only change wall-clock, never limbs. These tests run
//! a full network both ways and compare every limb of every ciphertext,
//! under whatever `RAYON_NUM_THREADS` the environment sets (CI exercises
//! the 1-thread matrix variant) plus explicit 2- and 4-thread modes.

#![forbid(unsafe_code)]

use ckks::{CkksContext, Evaluator, KeyGenerator, PublicKey, RelinKey};
use ckks_math::sampler::Sampler;
use cnn_he::he_layers::{ConvSpec, DenseSpec};
use cnn_he::he_tensor::{encrypt_image_batch, CtTensor};
use cnn_he::network::HeLayerSpec;
use cnn_he::{ExecMode, ExecPlan, HeNetwork};
use std::sync::{Arc, Mutex, PoisonError};

/// The he-trace op counters are process-global, so tests in this binary
/// serialize: concurrent HE work would bleed into another test's
/// counter deltas. Every test takes this lock first.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn mini_network(seed: u64) -> HeNetwork {
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
        pad: 1,
    }; // 8 → 4; flat = 2·16 = 32
    let dense = DenseSpec {
        weight: w(32 * 4),
        bias: w(4),
        in_dim: 32,
        out_dim: 4,
    };
    HeNetwork {
        layers: vec![
            HeLayerSpec::Conv(conv),
            HeLayerSpec::Activation(vec![0.1, 0.6, 0.2, 0.05]),
            HeLayerSpec::Dense(dense),
        ],
        input_side: 8,
    }
}

struct Fx {
    ev: Evaluator,
    pk: PublicKey,
    rk: RelinKey,
}

fn fixture(ctx: Arc<CkksContext>, seed: u64) -> Fx {
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), seed);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    Fx {
        ev: Evaluator::new(ctx),
        pk,
        rk,
    }
}

fn assert_tensors_bit_identical(a: &CtTensor, b: &CtTensor) {
    assert_eq!(a.cts.len(), b.cts.len());
    for (i, (x, y)) in a.cts.iter().zip(&b.cts).enumerate() {
        assert_eq!(x.level, y.level, "ct {i}: level");
        assert_eq!(x.scale.to_bits(), y.scale.to_bits(), "ct {i}: scale");
        for li in 0..=x.level {
            assert_eq!(x.c0.limb(li), y.c0.limb(li), "ct {i} limb {li}: c0");
            assert_eq!(x.c1.limb(li), y.c1.limb(li), "ct {i} limb {li}: c1");
        }
    }
}

#[test]
fn parallel_inference_is_bit_identical_to_sequential() {
    let _g = serial();
    let net = mini_network(500);
    let params = ckks::CkksParams::tiny(net.required_levels());
    let f = fixture(params.build(), 500);
    let img: Vec<f32> = (0..64).map(|i| ((i * 7) % 13) as f32 / 13.0).collect();
    let mut s = Sampler::from_seed(501);
    let x = encrypt_image_batch(&f.ev, &f.pk, &mut s, &[&img], 8, net.required_levels());

    let (y_seq, t_seq) = net.infer_encrypted_with(&f.ev, &f.rk, x.clone(), ExecMode::sequential());
    for threads in [2usize, 4] {
        let (y_par, t_par) =
            net.infer_encrypted_with(&f.ev, &f.rk, x.clone(), ExecMode::unit_parallel(threads));
        assert_tensors_bit_identical(&y_seq, &y_par);
        assert_eq!(t_seq.layers.len(), t_par.layers.len());
        for l in &t_par.layers {
            assert!(
                l.wall > std::time::Duration::ZERO,
                "{}: wall not captured",
                l.name
            );
        }
    }
}

/// The "outer disables inner" budget: a parallel call issued from
/// inside a pool task runs inline on that task's thread, so a unit's
/// limb loops never fan out under a unit (or shard) fan-out — with no
/// flag to set, restore or race on.
#[test]
fn nested_par_iter_runs_on_the_calling_worker_thread() {
    use rayon::prelude::*;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("width cap");
    let tasks: Vec<(std::thread::ThreadId, Vec<std::thread::ThreadId>)> = pool.install(|| {
        (0..4usize)
            .into_par_iter()
            .map(|_| {
                let inner: Vec<std::thread::ThreadId> = (0..64usize)
                    .into_par_iter()
                    .map(|_| std::thread::current().id())
                    .collect();
                (std::thread::current().id(), inner)
            })
            .collect()
    });
    assert_eq!(tasks.len(), 4);
    for (outer, inner) in &tasks {
        assert_eq!(inner.len(), 64);
        assert!(
            inner.iter().all(|id| id == outer),
            "a nested par_iter left its task's thread"
        );
    }
}

#[test]
fn simulation_validates_against_measured_wall() {
    let _g = serial();
    let net = mini_network(504);
    let params = ckks::CkksParams::tiny(net.required_levels());
    let f = fixture(params.build(), 504);
    let img = vec![0.3f32; 64];
    let mut s = Sampler::from_seed(505);
    let x = encrypt_image_batch(&f.ev, &f.pk, &mut s, &[&img], 8, net.required_levels());
    let (_, timing) = net.infer_encrypted_with(&f.ev, &f.rk, x, ExecMode::sequential());
    // sequential run: measured wall ≈ CPU total, so the baseline-plan
    // simulation must agree with the measurement within a loose factor
    // (timer granularity on very fast toy layers)
    let check = timing.validate_against(ExecPlan::baseline());
    assert!(check.measured > std::time::Duration::ZERO);
    assert!(check.simulated > std::time::Duration::ZERO);
    let r = check.ratio().expect("non-zero simulated wall");
    assert!(r > 0.5 && r < 2.0, "sequential sim/real ratio off: {r}");
}

#[test]
fn op_counts_identical_across_thread_counts() {
    // Thread-level unit parallelism reorders work but must not change
    // *what* work happens: the HE op counters after a sequential run and
    // after 2-/4-thread runs must be exactly equal, under whatever
    // RAYON_NUM_THREADS the environment sets (CI exercises the 1-thread
    // matrix variant too). With the `trace` feature off every delta is
    // zero and the equality holds trivially.
    let _g = serial();
    let net = mini_network(506);
    let params = ckks::CkksParams::tiny(net.required_levels());
    let f = fixture(params.build(), 506);
    let img: Vec<f32> = (0..64).map(|i| ((i * 11) % 17) as f32 / 17.0).collect();
    let mut s = Sampler::from_seed(507);
    let x = encrypt_image_batch(&f.ev, &f.pk, &mut s, &[&img], 8, net.required_levels());

    let before = he_trace::OpSnapshot::now();
    let _ = net.infer_encrypted_with(&f.ev, &f.rk, x.clone(), ExecMode::sequential());
    let seq_ops = he_trace::OpSnapshot::now().delta(&before);

    for threads in [2usize, 4] {
        let before = he_trace::OpSnapshot::now();
        let _ = net.infer_encrypted_with(&f.ev, &f.rk, x.clone(), ExecMode::unit_parallel(threads));
        let par_ops = he_trace::OpSnapshot::now().delta(&before);
        assert_eq!(
            par_ops, seq_ops,
            "op counters diverged between sequential and {threads}-thread execution"
        );
    }
    // the scalar engine is rotation-free by construction, so every key
    // switch it performs belongs to a relinearization
    assert_eq!(seq_ops.rotations, 0);
    assert_eq!(seq_ops.keyswitches, seq_ops.relins);
}
