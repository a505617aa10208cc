//! Integration: the steady-state packed request path does no
//! preparation work — no plaintext encoding, no keygen — shown with the
//! exact he-trace op counters.
//!
//! One test on purpose: the counters are process-global, and the
//! equalities below are exact only in a process nothing else counts in.

#![forbid(unsafe_code)]

use ckks::{CkksParams, Evaluator, KeyGenerator};
use ckks_math::sampler::Sampler;
use cnn_he::he_layers::{ConvSpec, DenseSpec};
use cnn_he::packed::PackedNetwork;
use cnn_he::{lower_packed, CnnHePipeline, HeLayerSpec, HeNetwork, PackedLowering, PACKED_INPUT};
use he_ir::{GraphBuilder, Interpreter, PassManager, Prepared};
use he_trace::OpSnapshot;
use std::collections::HashMap;
use std::sync::Arc;

fn mini_net() -> HeNetwork {
    let w = |n: usize, k: usize| -> Vec<f32> {
        (0..n)
            .map(|i| (((i * 7 + k) % 11) as f32 - 5.0) / 24.0)
            .collect()
    };
    HeNetwork {
        layers: vec![
            HeLayerSpec::Conv(ConvSpec {
                weight: w(2 * 9, 1),
                bias: vec![0.1, -0.1],
                in_ch: 1,
                out_ch: 2,
                k: 3,
                stride: 2,
                pad: 0,
            }),
            HeLayerSpec::Activation(vec![0.05, 0.7, 0.2]),
            HeLayerSpec::Dense(DenseSpec {
                weight: w(18 * 5, 2),
                bias: w(5, 3),
                in_dim: 18,
                out_dim: 5,
            }),
        ],
        input_side: 8,
    }
}

fn image(seed: usize) -> Vec<f32> {
    (0..64)
        .map(|i| (((i * 7 + seed * 11) % 13) as f32) / 13.0)
        .collect()
}

fn counted<R>(f: impl FnOnce() -> R) -> (R, OpSnapshot) {
    let before = OpSnapshot::now();
    let out = f();
    (out, OpSnapshot::now().delta(&before))
}

#[test]
fn steady_state_requests_encode_nothing_and_generate_no_keys() {
    // --- the executor: a prepared run vs a prepare-and-run ------------
    let packed = PackedNetwork::from_network(&mini_net());
    let ctx = CkksParams::tiny(packed.required_levels()).build();
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 70);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let ev = Evaluator::new(Arc::clone(&ctx));
    let plan = packed.plan_batch(ctx.slots(), 2).unwrap();
    let mut circuit = lower_packed(
        &packed,
        GraphBuilder::for_context(&ctx),
        plan.layout().stride(),
        PackedLowering::Compiled,
    );
    PassManager::optimizer().optimize(&mut circuit).unwrap();
    let steps: Vec<i64> = he_ir::passes::rotations::required_elements(&circuit)
        .steps
        .into_iter()
        .collect();
    let gk = kg.gen_galois_keys(&sk, &steps, false);
    let (a, b) = (image(0), image(1));
    let cts = packed
        .encrypt_batch(&ev, &pk, &mut Sampler::from_seed(71), &[&a, &b], &plan)
        .unwrap();
    let inputs = HashMap::from([(PACKED_INPUT.to_string(), cts[0].clone())]);
    let interp = Interpreter::new(&ev).with_relin(&rk).with_galois(&gk);

    let prepared = Prepared::new(&ev, circuit.clone()).unwrap();
    let encode_ntts: u64 = prepared
        .encoded_operands()
        .iter()
        .map(|pt| pt.level as u64 + 1)
        .sum();
    assert!(encode_ntts > 0, "the circuit has plaintext operands");
    let (_, steady) = counted(|| prepared.run(&interp, inputs.clone()).unwrap());
    let (_, again) = counted(|| prepared.run(&interp, inputs.clone()).unwrap());
    let (_, fresh) = counted(|| interp.run(&circuit, &inputs).unwrap());
    assert_eq!(
        steady, again,
        "a prepared run repeats its op counts exactly"
    );
    // the fresh run differs by the operand encodes and by nothing else
    assert_eq!(fresh.ntt_fwd, steady.ntt_fwd + encode_ntts);
    assert_eq!(
        OpSnapshot {
            ntt_fwd: steady.ntt_fwd,
            ..fresh
        },
        steady
    );
    // and two fresh runs repeat too: nothing is cached across calls
    let (_, fresh_again) = counted(|| interp.run(&circuit, &inputs).unwrap());
    assert_eq!(fresh, fresh_again);

    // --- the pipeline: a prepared stride's first request is steady ----
    let mut pipe = CnnHePipeline::new(mini_net(), 1 << 10, 72);
    pipe.enable_packed_batching().unwrap();
    let images: Vec<Vec<f32>> = (0..3).map(image).collect();
    let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
    pipe.prepare_batch(3).unwrap();
    let (_, first) = counted(|| pipe.classify(&refs));
    let (_, second) = counted(|| pipe.classify(&refs));
    assert_eq!(
        first, second,
        "after prepare_batch the first request already moves no keygen or encode work"
    );
    // whereas an unprepared stride pays its preparation on first use
    let (_, lazy) = counted(|| pipe.classify(&refs[..1]));
    let (_, warm) = counted(|| pipe.classify(&refs[..1]));
    assert!(lazy.ntt_fwd > warm.ntt_fwd, "{lazy:?} vs {warm:?}");
    let (_, warm_again) = counted(|| pipe.classify(&refs[..1]));
    assert_eq!(warm, warm_again);
}
