//! Integration: the packed (Lo-La-style) engine against a trained SLAF
//! model, plus the evaluation-metrics layer on encrypted predictions.

#![forbid(unsafe_code)]

use ckks::CkksParams;
use cnn_he::packed::PackedNetwork;
use cnn_he::{CnnHePipeline, HeNetwork};
use neural::metrics::ConfusionMatrix;
use neural::mnist;
use neural::models::{cnn1, ActKind};
use neural::slaf::{run_protocol, SlafProtocol};
use neural::train::TrainConfig;

fn small_trained_network() -> HeNetwork {
    let data = mnist::synthetic(300, 60);
    let mut model = cnn1(ActKind::Relu, 60);
    let proto = SlafProtocol {
        pretrain: TrainConfig {
            epochs: 2,
            max_lr: 0.08,
            batch_size: 32,
            ..Default::default()
        },
        retrain: TrainConfig {
            epochs: 1,
            max_lr: 0.004,
            grad_clip: 0.5,
            batch_size: 32,
            ..Default::default()
        },
        ..Default::default()
    };
    run_protocol(&mut model, &data, &proto);
    HeNetwork::from_trained(&model, mnist::SIDE)
}

#[test]
fn packed_engine_classifies_trained_cnn1() {
    let net = small_trained_network();
    let packed = PackedNetwork::from_network(&net);
    assert_eq!(packed.input_dim, 784);
    assert_eq!(packed.output_slots, (0..10).collect::<Vec<_>>());
    // max(845, 784, 100, 10) → 1024, doubled: the conv's five channels
    // of 169 anchors have no disjoint placement in 1024 slots
    assert_eq!(packed.dim, 2048);

    // dim 2048 needs slots ≥ 2048 → N ≥ 2^12
    let params = CkksParams::paper(1 << 12, packed.required_levels());
    let mut pipe = CnnHePipeline::with_params(net.clone(), params, 61);
    pipe.enable_packed_batching()
        .expect("dim 2048 fits 2048 slots");
    assert_eq!(pipe.max_batch(), 1);

    let test = mnist::synthetic(4, 6060);
    let mut cm = ConfusionMatrix::new(10);
    for i in 0..test.len() {
        let img = test.image(i);
        let he_pred = pipe.classify(&[img]).predictions[0];
        // agreement with the f64 reference is the correctness criterion
        let plain = net.infer_plain(img);
        let plain_pred = (0..plain.len())
            .max_by(|&a, &b| plain[a].total_cmp(&plain[b]))
            .unwrap();
        assert_eq!(he_pred, plain_pred, "image {i}");
        cm.record(test.labels[i], he_pred);
    }
    assert_eq!(cm.total(), 4);
    // the matrix renders without panicking and accuracy is defined
    let _ = cm.render();
    let _ = cm.accuracy();
}

/// Layer 0 runs its taps over the key-switch basis, and its region
/// records still tell the truth: `conv taps` ends on an extended tap at
/// the input's level and scale, `conv channels` on an extended channel
/// sum at the product scale, each with that value's structural headroom
/// (not the level 0 / scale 0 of a region with no chain ciphertext),
/// and the logits stay within 1e-3 of the plaintext network.
#[test]
fn packed_cnn1_layer0_records_report_their_extended_values() {
    let net = small_trained_network();
    let packed = PackedNetwork::from_network(&net);
    let params = CkksParams::paper(1 << 12, packed.required_levels());
    let top = params.depth();
    let mut pipe = CnnHePipeline::with_params(net.clone(), params, 62);
    pipe.enable_packed_batching()
        .expect("dim 2048 fits 2048 slots");
    let img = mnist::synthetic(1, 6161).image(0).to_vec();
    let run = pipe.classify(&[&img]);
    let record = |name: &str| {
        run.timing
            .layers
            .iter()
            .find(|r| r.name.ends_with(name))
            .unwrap_or_else(|| panic!("no {name} record"))
    };
    let (ctx, scale) = (&pipe.ctx, pipe.ctx.params().scale());
    let q_top = ctx.chain_moduli()[top].value() as f64;
    for (name, want_scale) in [
        ("packed layer 0: conv taps", scale),
        ("packed layer 0: conv channels", scale * q_top),
    ] {
        let r = record(name);
        assert_eq!(r.level, top, "{name}");
        assert_eq!(r.scale.to_bits(), want_scale.to_bits(), "{name}");
        let headroom = ckks::noise::headroom_bits_at(ctx, top, want_scale);
        assert_eq!(r.headroom_bits.to_bits(), headroom.to_bits(), "{name}");
        assert!(r.headroom_bits > 0.0, "{name}");
    }
    let plain = net.infer_plain(&img);
    let err = run.logits[0]
        .iter()
        .zip(&plain)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(err < 1e-3, "max logit error {err}");
}
