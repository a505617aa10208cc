//! Integration: slot-packed batch inference end to end — layout
//! planner edge cases, shard spill-over, bit-identity of the stride-1
//! degenerate case, strided Galois-key exactness via he-ir's
//! rotation-set pass, and packed-vs-per-image parity at batch 64.
//!
//! This is the suite the `packed-parity` CI job runs under the full
//! `HE_KERNEL_BACKEND` × `RAYON_NUM_THREADS` matrix.

#![forbid(unsafe_code)]

use ckks::{encode_batched, encode_real, CkksParams, HeError, KeyGenerator, PackLayout, ShardPlan};
use ckks_math::sampler::Sampler;
use cnn_he::he_layers::{ConvSpec, DenseSpec};
use cnn_he::packed::PackedNetwork;
use cnn_he::{CnnHePipeline, HeLayerSpec, HeNetwork};
use he_ir::passes::rotations::required_elements;
use he_serve::ServeError;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The CNN1-shaped mini network over 8×8 inputs used across the
/// packed-engine tests: packs to dim 64, so a 2^10 ring (512 slots)
/// holds 8 lanes per ciphertext.
fn mini_net(seed: u64) -> HeNetwork {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut w = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-0.25f32..0.25)).collect() };
    HeNetwork {
        layers: vec![
            HeLayerSpec::Conv(ConvSpec {
                weight: w(2 * 9),
                bias: vec![0.1, -0.1],
                in_ch: 1,
                out_ch: 2,
                k: 3,
                stride: 2,
                pad: 0,
            }),
            HeLayerSpec::Activation(vec![0.05, 0.7, 0.2]),
            HeLayerSpec::Dense(DenseSpec {
                weight: w(18 * 5),
                bias: w(5),
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

/// The stride-1 layout must reproduce the historical tiled encoding
/// limb for limb: `PackLayout::tiled` packing equals the old
/// `input[i % dim]` formula, and `encode_batched` of one lane equals
/// `encode_real` of the hand-tiled vector exactly.
#[test]
fn batch_one_encoding_is_bit_identical_to_historical_tiling() {
    let net = mini_net(50);
    let packed = PackedNetwork::from_network(&net);
    let ctx = CkksParams::tiny(packed.required_levels()).build();
    let slots = ctx.slots();
    let layout = PackLayout::tiled(packed.dim, slots).expect("dim fits");
    assert_eq!(layout.stride(), 1);

    let img: Vec<f64> = (0..packed.dim)
        .map(|i| ((i * 3) % 10) as f64 / 10.0)
        .collect();
    // historical layout: the vector tiled cyclically across all slots
    let tiled: Vec<f64> = (0..slots).map(|i| img[i % packed.dim]).collect();
    let level = packed.required_levels();
    let scale = ctx.params().scale();

    let legacy = encode_real(&ctx, &tiled, scale, level);
    let batched = encode_batched(&ctx, &[&img], &layout, scale, level).expect("one lane packs");
    assert_eq!(batched.level, legacy.level);
    assert_eq!(batched.scale, legacy.scale);
    assert_eq!(
        batched.poly.limbs_flat(),
        legacy.poly.limbs_flat(),
        "stride-1 encode_batched must be limb-identical to the historical tiling"
    );
}

/// Non-pow2 batches zero-pad up to the next lane count: 5 images ride
/// an 8-lane ciphertext and every lane matches its independent
/// per-image inference.
#[test]
fn non_pow2_batch_matches_per_image_inferences() {
    let net = mini_net(53);
    let mut pipe = CnnHePipeline::new(net, 1 << 10, 53);
    pipe.enable_packed_batching().expect("fits the ring");
    let images: Vec<Vec<f32>> = (0..5).map(image).collect();
    let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
    let cls = pipe.classify(&refs);
    assert_eq!(cls.logits.len(), 5);
    for (i, img) in refs.iter().enumerate() {
        let single = pipe.classify(&[img]);
        assert_eq!(cls.predictions[i], single.predictions[0], "lane {i}");
        for (a, b) in cls.logits[i].iter().zip(&single.logits[0]) {
            assert!((a - b).abs() < 0.02, "lane {i}: {a} vs {b}");
        }
    }
}

/// A batch one image past the lane capacity must split into exactly
/// two shards — and still classify every image correctly.
#[test]
fn capacity_overflow_spills_into_a_second_shard() {
    let net = mini_net(54);
    let packed = PackedNetwork::from_network(&net);
    let slots = 1 << 9; // 2^10 ring
    let cap = slots / packed.dim;
    assert_eq!(cap, 8);

    // planner: 9 images do not fit one ciphertext
    let plan = packed.plan_batch(slots, cap + 1).expect("plans");
    assert_eq!(plan.shards(), 2);
    assert_eq!(plan.layout().batch(), cap);
    assert_eq!(plan.lanes_in_shard(0), cap);
    assert_eq!(plan.lanes_in_shard(1), 1);

    // execution: the 2-shard batch matches the plain reference
    let mut pipe = CnnHePipeline::new(mini_net(54), 1 << 10, 54);
    pipe.enable_packed_batching().expect("fits the ring");
    assert_eq!(pipe.max_batch(), cap);
    let images: Vec<Vec<f32>> = (0..cap + 1).map(image).collect();
    let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
    let cls = pipe.classify(&refs);
    for (i, img) in refs.iter().enumerate() {
        let want = packed.infer_plain(img);
        for (a, b) in cls.logits[i].iter().zip(&want) {
            assert!((a - b).abs() < 0.02, "image {i}: {a} vs {b}");
        }
    }
}

/// The Galois keys a stride-2 run generates are *exactly* the set
/// he-ir's rotation-set pass derives from a circuit using them: the
/// BSGS steps scaled by the stride. No missing keys, no unused keys.
/// (`ir_passes.rs` pins the same exactness at stride 1.)
#[test]
fn sharded_rotation_set_matches_generated_keys_exactly() {
    let net = mini_net(55);
    let packed = PackedNetwork::from_network(&net);
    let params = CkksParams::tiny(packed.required_levels());
    let ctx = params.clone().build();
    let slots = ctx.slots();
    let layout = PackLayout::new(packed.dim, 2, slots).expect("fits");
    assert_eq!(layout.stride(), 2);

    // the strided BSGS inference steps; steps ≡ 0 mod slots are
    // identity rotations — no key, exactly as the pass counts them
    let bsgs: BTreeSet<i64> = packed
        .required_rotation_steps_for(&layout)
        .into_iter()
        .filter(|s| s.rem_euclid(slots as i64) != 0)
        .collect();
    assert!(!bsgs.is_empty());
    // a uniform element shift moves every lane by whole strides
    assert!(bsgs.iter().all(|s| s % 2 == 0), "{bsgs:?}");
    let steps: Vec<i64> = bsgs.iter().copied().collect();

    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 56);
    let sk = kg.gen_secret_key();
    let gk = kg.gen_galois_keys(&sk, &steps, false);
    let generated: BTreeSet<usize> = gk.elements().collect();

    // a batch-strided circuit rotating by every one of those steps,
    // declaring the generated keys
    let mut b = he_ir::GraphBuilder::new(params);
    let mut x = b.input(
        "x",
        b.params().depth(),
        he_ir::Layout::BatchStrided {
            stride: layout.stride(),
        },
    );
    for &s in &steps {
        x = b.rotate(x, s);
    }
    b.output(x);
    let circuit = b.finish(he_ir::KeyInventory::with_galois(true, generated.clone()));
    let required = required_elements(&circuit);
    assert_eq!(
        required.elements, generated,
        "rotation-set pass and generated Galois keys must agree exactly"
    );
    // the declared inventory covers the circuit with nothing missing
    let report = he_ir::PassManager::standard().run(&circuit);
    assert!(!report.has_errors(), "{}", report.render());
    assert!(!report.has_code("unused-galois-key"), "{}", report.render());

    // and the reference inference circuit at this stride rotates only
    // within the strided BSGS set, so those keys run `infer_batch`
    let reference = cnn_he::lower_packed(
        &packed,
        he_ir::GraphBuilder::for_context(&ctx),
        layout.stride(),
        cnn_he::PackedLowering::Eager,
    );
    assert!(required_elements(&reference).steps.is_subset(&bsgs));
}

/// The typed slot-capacity error surfaces verbatim through he-serve's
/// admission mapping.
#[test]
fn batch_exceeds_slots_maps_to_serve_rejection() {
    let err = HeError::BatchExceedsSlots {
        batch: 16,
        capacity: 8,
    };
    let s = err.to_string();
    assert!(
        s.contains("16") && s.contains("8") && s.contains("slot capacity"),
        "{s}"
    );
    match ServeError::from(err) {
        ServeError::Rejected { reason } => assert!(reason.contains("slot capacity"), "{reason}"),
        other => panic!("expected Rejected, got {other}"),
    }
    // the planner emits it when the packed dim cannot fit at all
    match ShardPlan::plan(32, 64, 1) {
        Err(HeError::BatchExceedsSlots { capacity: 0, .. }) => {}
        other => panic!("expected BatchExceedsSlots with zero capacity, got {other:?}"),
    }
}

/// The acceptance bar: a packed batch of 64 images (8 shards of 8
/// lanes) matches 64 independent per-image inferences within the
/// engine's existing tolerance.
#[test]
fn batch_64_matches_64_independent_per_image_inferences() {
    let net = mini_net(57);
    let packed = PackedNetwork::from_network(&net);
    let mut pipe = CnnHePipeline::new(net, 1 << 10, 57);
    pipe.enable_packed_batching().expect("fits the ring");

    let images: Vec<Vec<f32>> = (0..64).map(image).collect();
    let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
    let batched = pipe.classify(&refs);
    assert_eq!(batched.logits.len(), 64);

    for (i, img) in refs.iter().enumerate() {
        // independent per-image run through the same engine (stride 1)
        let single = pipe.classify(&[img]);
        assert_eq!(batched.predictions[i], single.predictions[0], "image {i}");
        for (a, b) in batched.logits[i].iter().zip(&single.logits[0]) {
            assert!(
                (a - b).abs() < 0.02,
                "image {i}: packed {a} vs per-image {b}"
            );
        }
        // and both stay glued to the plaintext reference
        let want = packed.infer_plain(img);
        for (a, w) in batched.logits[i].iter().zip(&want) {
            assert!((a - w).abs() < 0.02, "image {i}: packed {a} vs plain {w}");
        }
    }
}

/// Shards fan out across the rayon pool; the result must not depend on
/// it. A 20-image request (3 shards at stride 8) runs by default and
/// under a one-thread `install`: output ciphertexts limb for limb,
/// logits bit for bit, and `timing.layers` names in shard order agree.
#[test]
fn shard_fan_out_is_bit_identical_to_one_thread() {
    let images: Vec<Vec<f32>> = (0..20).map(image).collect();
    let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("building a width cap cannot fail");

    // the shard runner itself, on one encryption of the request
    let packed = PackedNetwork::from_network(&mini_net(58));
    let ctx = CkksParams::tiny(packed.required_levels()).build();
    let plan = packed.plan_batch(ctx.slots(), refs.len()).expect("plans");
    assert!(plan.shards() >= 3, "{} shards", plan.shards());
    let layout = plan.layout();
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 58);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let gk = kg.gen_galois_keys(&sk, &packed.required_rotation_steps_for(&layout), false);
    let ev = ckks::Evaluator::new(ctx);
    let pre = packed.precompute_layout(&ev, &layout);
    let cts = packed
        .encrypt_batch(&ev, &pk, &mut Sampler::from_seed(59), &refs, &plan)
        .expect("encrypts");
    let (par_outs, par_walls) = packed.infer_batch(&ev, &rk, &gk, &pre, cts.clone());
    let (seq_outs, seq_walls) = one_thread.install(|| packed.infer_batch(&ev, &rk, &gk, &pre, cts));
    assert_eq!(par_outs.len(), plan.shards());
    for (s, (a, b)) in par_outs.iter().zip(&seq_outs).enumerate() {
        assert_eq!((a.level, a.scale.to_bits()), (b.level, b.scale.to_bits()));
        assert_eq!(a.c0.limbs_flat(), b.c0.limbs_flat(), "shard {s}: c0");
        assert_eq!(a.c1.limbs_flat(), b.c1.limbs_flat(), "shard {s}: c1");
    }
    let names = |walls: &[(String, std::time::Duration)]| -> Vec<String> {
        walls.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(&par_walls), names(&seq_walls));

    // the library's request path: same seed, so same encryption noise
    let classify = || {
        let mut pipe = CnnHePipeline::new(mini_net(58), 1 << 10, 58);
        pipe.enable_packed_batching().expect("fits the ring");
        pipe.classify(&refs)
    };
    let par = classify();
    let seq = one_thread.install(classify);
    let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
        rows.iter()
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(&par.logits), bits(&seq.logits));
    let layer_names = |t: &cnn_he::InferenceTiming| -> Vec<String> {
        t.layers.iter().map(|l| l.name.clone()).collect()
    };
    let par_names = layer_names(&par.timing);
    assert_eq!(par_names, layer_names(&seq.timing));
    let shard_of = |name: &str| -> usize {
        name.strip_prefix("shard ")
            .and_then(|rest| rest.split(':').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unexpected layer name {name}"))
    };
    let order: Vec<usize> = par_names.iter().map(|n| shard_of(n)).collect();
    assert!(order.windows(2).all(|w| w[0] <= w[1]), "{par_names:?}");
    assert_eq!(order.last(), Some(&(plan.shards() - 1)));
}
