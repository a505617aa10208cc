//! Integration: the he-serve engine end to end.
//!
//! Covers the serving acceptance criteria: served results are the same
//! answers direct [`CnnHePipeline`] inference produces; deadline expiry
//! yields a typed timeout and never a wrong answer; a full queue
//! refuses with `Overloaded`; shutdown drains in-flight work; HE op
//! counts are batch-size-invariant (slot packing); and request→result
//! pairing survives arbitrary arrival orders (property test).
//!
//! The he-trace op counters are process-global, so tests that assert
//! exact counter deltas serialize on a file-wide lock — this file is
//! its own OS process under `cargo test`, keeping foreign HE work out
//! of the deltas.

#![forbid(unsafe_code)]

use cnn_he::he_layers::{ConvSpec, DenseSpec};
use cnn_he::{CnnHePipeline, HeLayerSpec, HeNetwork};
use he_serve::{ServeConfig, ServeEngine, ServeError};
use he_trace::OpSnapshot;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A miniature CNN1-shaped network over 8×8 inputs (conv → act →
/// dense → act → dense), small enough for the 2^10 test ring.
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

const SEED: u64 = 700;

fn pipeline() -> CnnHePipeline {
    CnnHePipeline::new(mini_network(SEED), 1 << 10, SEED)
}

fn engine(cfg: ServeConfig) -> ServeEngine {
    ServeEngine::start(cfg, pipeline).expect("engine starts")
}

/// Deterministic distinct test images.
fn image(i: usize) -> Vec<f32> {
    (0..64)
        .map(|p| (((p * 7 + i * 13) % 31) as f32) / 31.0)
        .collect()
}

/// Direct (no serving layer) logits for `image(0..4)`, computed once.
fn direct_logits() -> &'static Vec<Vec<f64>> {
    static DIRECT: OnceLock<Vec<Vec<f64>>> = OnceLock::new();
    DIRECT.get_or_init(|| {
        let mut pipe = pipeline();
        let images: Vec<Vec<f32>> = (0..4).map(image).collect();
        let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
        pipe.classify(&refs).logits
    })
}

fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0
}

#[test]
fn served_results_match_direct_inference() {
    let _g = serial();
    let direct = direct_logits();
    let eng = engine(ServeConfig {
        max_batch: 4,
        max_linger: Duration::from_millis(500),
        ..Default::default()
    });
    let handles: Vec<_> = (0..4)
        .map(|i| eng.submit(image(i)).expect("queued"))
        .collect();
    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.wait().expect("served"))
        .collect();
    for (i, r) in results.iter().enumerate() {
        assert_eq!(
            r.prediction,
            argmax(&direct[i]),
            "request {i}: served prediction diverged from direct inference"
        );
        for (a, b) in r.logits.iter().zip(&direct[i]) {
            assert!(
                (a - b).abs() < 2e-2,
                "request {i}: served logit {a} vs direct {b}"
            );
        }
    }
    let report = eng.shutdown();
    assert_eq!(report.completed, 4);
    assert_eq!(report.timed_out, 0);
}

#[test]
fn deadline_expiry_is_a_typed_timeout_never_a_wrong_answer() {
    let _g = serial();
    let direct = direct_logits();
    let eng = engine(ServeConfig {
        max_batch: 4,
        max_linger: Duration::from_millis(50),
        ..Default::default()
    });
    // an impossible budget: expires before any batch can complete
    let doomed = eng
        .submit_with_deadline(image(0), Some(Duration::from_nanos(1)))
        .expect("queued");
    // a healthy co-passenger with no deadline
    let healthy = eng.submit(image(1)).expect("queued");

    match doomed.wait() {
        Err(ServeError::DeadlineExceeded { deadline, waited }) => {
            assert_eq!(deadline, Duration::from_nanos(1));
            assert!(
                waited >= deadline,
                "waited {waited:?} < budget {deadline:?}"
            );
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let ok = healthy
        .wait()
        .expect("healthy request must still be served");
    assert_eq!(ok.prediction, argmax(&direct[1]));

    let report = eng.shutdown();
    assert_eq!(report.timed_out, 1);
    assert_eq!(report.completed, 1);
}

#[test]
fn full_queue_refuses_with_overloaded_backpressure() {
    let _g = serial();
    let eng = engine(ServeConfig {
        max_batch: 1,
        max_linger: Duration::ZERO,
        queue_capacity: 1,
        ..Default::default()
    });
    // submissions are microseconds apart while each encrypted batch
    // takes milliseconds: the 1-deep queue must fill
    let mut handles = Vec::new();
    let mut overloaded = 0usize;
    for i in 0..50 {
        match eng.submit(image(i % 4)) {
            Ok(h) => handles.push(h),
            Err(ServeError::Overloaded { capacity }) => {
                assert_eq!(capacity, 1);
                overloaded += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(overloaded > 0, "queue never reported Overloaded");
    let accepted = handles.len();
    for h in handles {
        h.wait().expect("accepted requests are all served");
    }
    let report = eng.shutdown();
    assert_eq!(report.completed as usize, accepted);
    assert_eq!(report.overloaded as usize, overloaded);
}

#[test]
fn shutdown_drains_queued_work() {
    let _g = serial();
    let eng = engine(ServeConfig {
        max_batch: 8,
        // linger far longer than the time to shutdown: drain must not
        // wait the window out, and must not drop the queue either
        max_linger: Duration::from_secs(2),
        ..Default::default()
    });
    let handles: Vec<_> = (0..5)
        .map(|i| eng.submit(image(i % 4)).expect("queued"))
        .collect();
    let report = eng.shutdown();
    assert_eq!(report.completed, 5, "shutdown dropped queued requests");
    for h in handles {
        h.wait().expect("drained request resolves with its result");
    }
}

#[test]
fn he_op_counts_are_batch_size_invariant() {
    let _g = serial();

    // (HE ops, batches, batched images) of `batch` coalesced requests
    let run = |batch: usize| -> (OpSnapshot, u64, u64) {
        let eng = engine(ServeConfig {
            max_batch: batch,
            max_linger: Duration::from_secs(2),
            ..Default::default()
        });
        // warm-up: keygen and first-run setup happen outside the window
        eng.classify_blocking(image(0)).expect("warmup");
        let ops0 = OpSnapshot::now();
        let r0 = eng.report();
        let handles: Vec<_> = (0..batch)
            .map(|i| eng.submit(image(i % 4)).expect("queued"))
            .collect();
        for h in handles {
            h.wait().expect("served");
        }
        let ops = OpSnapshot::now().delta(&ops0);
        let r1 = eng.shutdown();
        (
            ops,
            r1.batches - r0.batches,
            r1.batched_images - r0.batched_images,
        )
    };

    let (ops1, batches1, images1) = run(1);
    let (ops4, batches4, images4) = run(4);

    // scalar-batch slot packing: four images ride the slots of the same
    // ciphertexts, so the HE work is *identical*, not merely similar
    assert!(!ops1.is_zero(), "tracing should be enabled in this test");
    assert_eq!(
        ops1, ops4,
        "HE op counts changed with batch size — slot packing broke"
    );
    assert_eq!(batches1, 1);
    assert_eq!(batches4, 1, "4 requests did not coalesce into 1 batch");
    assert_eq!(images1, 1);
    assert_eq!(images4, 4);
}

mod arrival_order_properties {
    use super::*;
    use proptest::prelude::*;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        // Requests submitted concurrently, in any order and with any
        // small jitter, each receive exactly their own image's result.
        #[test]
        fn prop_random_arrival_order_preserves_request_result_pairing(
            seed in 0u64..10_000,
        ) {
            let _g = serial();
            let direct = direct_logits();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut order: Vec<usize> = (0..4).collect();
            order.shuffle(&mut rng);
            let delays: Vec<u64> = (0..4).map(|_| rng.gen_range(0..8u64)).collect();

            let eng = engine(ServeConfig {
                max_batch: 4,
                max_linger: Duration::from_millis(60),
                ..Default::default()
            });
            let mut results: Vec<Option<he_serve::ServeResult>> = vec![None, None, None, None];
            std::thread::scope(|s| {
                let eng = &eng;
                let joins: Vec<_> = order
                    .iter()
                    .zip(&delays)
                    .map(|(&img_idx, &delay)| {
                        s.spawn(move || {
                            std::thread::sleep(Duration::from_millis(delay));
                            let r = eng
                                .submit(image(img_idx))
                                .expect("queued")
                                .wait()
                                .expect("served");
                            (img_idx, r)
                        })
                    })
                    .collect();
                for j in joins {
                    let (img_idx, r) = j.join().expect("client thread");
                    results[img_idx] = Some(r);
                }
            });
            eng.shutdown();

            for (i, r) in results.iter().enumerate() {
                let r = r.as_ref().expect("every request answered");
                // the result must be *this* image's: closest to its own
                // direct logits and within tolerance of them
                let dist = |target: &[f64]| -> f64 {
                    r.logits
                        .iter()
                        .zip(target)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0f64, f64::max)
                };
                let own = dist(&direct[i]);
                prop_assert!(own < 2e-2, "request {i}: served logits drifted {own}");
                for (j, other) in direct.iter().enumerate() {
                    if j != i {
                        prop_assert!(
                            own <= dist(other),
                            "request {i}'s result is closer to image {j}'s answer — pairing swapped"
                        );
                    }
                }
                prop_assert_eq!(r.prediction, argmax(&direct[i]));
            }
        }
    }
}
