//! Integration: the packed (Lo-La-style) engine against a trained SLAF
//! model, plus the evaluation-metrics layer on encrypted predictions.

#![forbid(unsafe_code)]

use ckks::{CkksParams, SecurityLevel};
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
    assert_eq!(packed.output_dim, 10);
    assert_eq!(packed.dim, 1024); // max(845, 784, 100, 10) → 1024

    // dim 1024 needs slots ≥ 1024 → N ≥ 2^11
    let depth = packed.required_levels();
    let mut chain_bits = vec![40u32];
    chain_bits.extend(std::iter::repeat_n(26, depth));
    let params = CkksParams {
        n: 1 << 11,
        chain_bits,
        special_bits: vec![40],
        scale_bits: 26,
        security: SecurityLevel::None,
    };
    let mut pipe = CnnHePipeline::with_params(net.clone(), params, 61);
    pipe.enable_packed_batching()
        .expect("dim 1024 fits 1024 slots");
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
