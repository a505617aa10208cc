//! Integration: the full paper pipeline across all four crates —
//! synthetic data → SLAF training → extraction → encrypted inference →
//! accuracy parity between the encrypted and plaintext worlds.

#![forbid(unsafe_code)]

use cnn_he::{CnnHePipeline, HeNetwork};
use neural::mnist;
use neural::models::{cnn1, cnn2, ActKind};
use neural::slaf::{run_protocol, SlafProtocol};
use neural::train::TrainConfig;

fn quick_protocol() -> SlafProtocol {
    SlafProtocol {
        pretrain: TrainConfig {
            epochs: 3,
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
    }
}

#[test]
fn cnn1_trained_encrypted_inference_agrees_with_plaintext() {
    let data = mnist::synthetic(400, 1);
    let mut model = cnn1(ActKind::Relu, 1);
    run_protocol(&mut model, &data, &quick_protocol());
    let network = HeNetwork::from_trained(&model, mnist::SIDE);
    let mut pipe = CnnHePipeline::new(network, 1 << 10, 1);

    let test = mnist::synthetic(6, 101);
    let images: Vec<&[f32]> = (0..test.len()).map(|i| test.image(i)).collect();
    let result = pipe.classify(&images);
    for (b, img) in images.iter().enumerate() {
        let plain = pipe.network.infer_plain(img);
        // logits agree numerically
        for (he, pl) in result.logits[b].iter().zip(&plain) {
            assert!(
                (he - pl).abs() < 0.05,
                "image {b}: encrypted logit {he} vs plaintext {pl}"
            );
        }
        // argmax agrees
        let ppred = plain
            .iter()
            .enumerate()
            .max_by(|a, c| a.1.partial_cmp(c.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(result.predictions[b], ppred, "image {b}");
    }
}

#[test]
fn cnn2_with_batchnorm_fold_encrypted_inference() {
    let data = mnist::synthetic(300, 2);
    let mut model = cnn2(ActKind::Relu, 2);
    run_protocol(&mut model, &data, &quick_protocol());
    let network = HeNetwork::from_trained(&model, mnist::SIDE);
    assert_eq!(network.required_levels(), 10);
    let mut pipe = CnnHePipeline::new(network, 1 << 10, 2);

    let test = mnist::synthetic(3, 202);
    let images: Vec<&[f32]> = (0..test.len()).map(|i| test.image(i)).collect();
    let result = pipe.classify(&images);
    for (b, img) in images.iter().enumerate() {
        let plain = pipe.network.infer_plain(img);
        for (he, pl) in result.logits[b].iter().zip(&plain) {
            assert!(
                (he - pl).abs() < 0.08,
                "image {b}: encrypted logit {he} vs plaintext {pl} (BN fold or depth bug?)"
            );
        }
    }
}
