//! MNIST substrate.
//!
//! The paper evaluates on MNIST (LeCun & Cortes). This container has no
//! network access to the original IDX files, so per the substitution rule
//! this module provides:
//!
//! 1. an **IDX loader** that transparently uses real MNIST when the four
//!    standard files are present under `data/mnist/`, and
//! 2. a **procedural synthetic generator** producing 28×28 grayscale
//!    handwritten-style digits: per-class vector stroke templates rendered
//!    with randomized affine distortion, stroke thickness and pixel noise.
//!
//! The synthetic distribution exercises exactly the same code paths
//! (training, SLAF retraining, encrypted inference, accuracy accounting);
//! EXPERIMENTS.md reports which source each run used.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::io::Read;
use std::path::Path;

/// Image side length.
pub const SIDE: usize = 28;
/// Pixels per image.
pub const PIXELS: usize = SIDE * SIDE;
/// Number of classes.
pub const CLASSES: usize = 10;

/// A labelled digit dataset with pixel values normalized to `[0, 1]`.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Row-major `[len × 784]` pixels in `[0,1]`.
    pub images: Vec<f32>,
    pub labels: Vec<usize>,
    /// Whether this came from real IDX files or the synthetic generator.
    pub synthetic: bool,
}

impl Dataset {
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// A batch `[indices.len(), 1, 28, 28]`.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let mut data = Vec::with_capacity(indices.len() * PIXELS);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(&self.images[i * PIXELS..(i + 1) * PIXELS]);
            labels.push(self.labels[i]);
        }
        (
            Tensor::from_vec(&[indices.len(), 1, SIDE, SIDE], data),
            labels,
        )
    }

    /// Raw pixels of image `i` (length 784).
    pub fn image(&self, i: usize) -> &[f32] {
        &self.images[i * PIXELS..(i + 1) * PIXELS]
    }
}

// -------------------------------------------------------------------
// IDX loading (real MNIST, used when available)
// -------------------------------------------------------------------

fn read_u32_be(r: &mut impl Read) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_be_bytes(b))
}

/// Loads an IDX image/label pair. Returns `None` on any I/O or format
/// problem (the caller falls back to synthetic data).
pub fn load_idx_pair(images_path: &Path, labels_path: &Path) -> Option<Dataset> {
    let mut imf = std::fs::File::open(images_path).ok()?;
    if read_u32_be(&mut imf).ok()? != 0x0803 {
        return None;
    }
    let count = read_u32_be(&mut imf).ok()? as usize;
    let rows = read_u32_be(&mut imf).ok()? as usize;
    let cols = read_u32_be(&mut imf).ok()? as usize;
    if rows != SIDE || cols != SIDE {
        return None;
    }
    let mut raw = vec![0u8; count * PIXELS];
    imf.read_exact(&mut raw).ok()?;

    let mut lbf = std::fs::File::open(labels_path).ok()?;
    if read_u32_be(&mut lbf).ok()? != 0x0801 {
        return None;
    }
    let lcount = read_u32_be(&mut lbf).ok()? as usize;
    if lcount != count {
        return None;
    }
    let mut lraw = vec![0u8; count];
    lbf.read_exact(&mut lraw).ok()?;

    Some(Dataset {
        images: raw.iter().map(|&b| b as f32 / 255.0).collect(),
        labels: lraw.iter().map(|&b| b as usize).collect(),
        synthetic: false,
    })
}

/// Loads `(train, test)` from `dir` if the standard files exist.
pub fn load_real(dir: &Path) -> Option<(Dataset, Dataset)> {
    let train = load_idx_pair(
        &dir.join("train-images-idx3-ubyte"),
        &dir.join("train-labels-idx1-ubyte"),
    )?;
    let test = load_idx_pair(
        &dir.join("t10k-images-idx3-ubyte"),
        &dir.join("t10k-labels-idx1-ubyte"),
    )?;
    Some((train, test))
}

// -------------------------------------------------------------------
// Synthetic generator
// -------------------------------------------------------------------

type Point = (f32, f32);

/// Stroke templates per digit, in a unit box with (0,0) top-left.
/// Curves are pre-sampled into polylines.
fn digit_strokes(digit: usize) -> Vec<Vec<Point>> {
    fn arc(cx: f32, cy: f32, rx: f32, ry: f32, a0: f32, a1: f32, n: usize) -> Vec<Point> {
        (0..=n)
            .map(|i| {
                let t = a0 + (a1 - a0) * i as f32 / n as f32;
                (cx + rx * t.cos(), cy + ry * t.sin())
            })
            .collect()
    }
    use std::f32::consts::PI;
    match digit {
        0 => vec![arc(0.5, 0.5, 0.28, 0.38, 0.0, 2.0 * PI, 24)],
        1 => vec![vec![(0.35, 0.3), (0.52, 0.12), (0.52, 0.88)]],
        2 => vec![{
            let mut s = arc(0.5, 0.3, 0.24, 0.18, -PI, 0.35, 12);
            s.extend([(0.3, 0.85), (0.3, 0.88), (0.75, 0.88)]);
            s
        }],
        3 => vec![{
            let mut s = arc(0.45, 0.3, 0.22, 0.18, -PI * 0.9, PI * 0.45, 10);
            s.extend(arc(0.45, 0.68, 0.25, 0.2, -PI * 0.45, PI * 0.9, 10));
            s
        }],
        4 => vec![
            vec![(0.62, 0.1), (0.25, 0.6), (0.8, 0.6)],
            vec![(0.62, 0.35), (0.62, 0.9)],
        ],
        5 => vec![{
            let mut s = vec![(0.72, 0.12), (0.32, 0.12), (0.3, 0.45)];
            s.extend(arc(0.48, 0.65, 0.24, 0.22, -PI / 2.0, PI * 0.8, 12));
            s
        }],
        6 => vec![{
            let mut s = vec![(0.62, 0.1)];
            s.extend(arc(0.48, 0.65, 0.22, 0.24, -PI * 0.8, PI * 1.2, 16));
            s
        }],
        7 => vec![vec![(0.25, 0.14), (0.75, 0.14), (0.42, 0.88)]],
        8 => vec![
            arc(0.5, 0.3, 0.2, 0.17, 0.0, 2.0 * PI, 16),
            arc(0.5, 0.67, 0.24, 0.2, 0.0, 2.0 * PI, 16),
        ],
        9 => vec![{
            let mut s = arc(0.52, 0.33, 0.2, 0.2, 0.0, 2.0 * PI, 16);
            s.extend([(0.72, 0.33), (0.66, 0.9)]);
            s
        }],
        _ => panic!("digit out of range"),
    }
}

fn dist_to_segment(p: Point, a: Point, b: Point) -> f32 {
    let (px, py) = p;
    let (ax, ay) = a;
    let (bx, by) = b;
    let dx = bx - ax;
    let dy = by - ay;
    let len2 = dx * dx + dy * dy;
    let t = if len2 <= 1e-12 {
        0.0
    } else {
        (((px - ax) * dx + (py - ay) * dy) / len2).clamp(0.0, 1.0)
    };
    let cx = ax + t * dx;
    let cy = ay + t * dy;
    ((px - cx) * (px - cx) + (py - cy) * (py - cy)).sqrt()
}

/// Renders one randomized digit image into `out` (784 floats in [0,1]).
fn render_digit(digit: usize, rng: &mut StdRng, out: &mut [f32]) {
    let strokes = digit_strokes(digit);
    // random affine: rotation, anisotropic scale, shear, translation
    let theta = rng.gen_range(-0.22f32..0.22);
    let sx = rng.gen_range(0.82f32..1.12);
    let sy = rng.gen_range(0.82f32..1.12);
    let shear = rng.gen_range(-0.18f32..0.18);
    let tx = rng.gen_range(-0.06f32..0.06);
    let ty = rng.gen_range(-0.06f32..0.06);
    let (cos, sin) = (theta.cos(), theta.sin());
    let thickness = rng.gen_range(0.035f32..0.065);

    let transform = |(x, y): Point| -> Point {
        // center, shear+scale, rotate, translate back
        let (x, y) = (x - 0.5, y - 0.5);
        let (x, y) = (sx * (x + shear * y), sy * y);
        let (x, y) = (cos * x - sin * y, sin * x + cos * y);
        (x + 0.5 + tx, y + 0.5 + ty)
    };
    let strokes: Vec<Vec<Point>> = strokes
        .into_iter()
        .map(|s| s.into_iter().map(transform).collect())
        .collect();

    let aa = 0.02f32; // antialias band
    for py in 0..SIDE {
        for px in 0..SIDE {
            // pixel center in unit coords (2-pixel margin like MNIST)
            let ux = (px as f32 + 0.5) / SIDE as f32;
            let uy = (py as f32 + 0.5) / SIDE as f32;
            let mut d = f32::MAX;
            for s in &strokes {
                for w in s.windows(2) {
                    d = d.min(dist_to_segment((ux, uy), w[0], w[1]));
                }
            }
            let v = if d <= thickness {
                1.0
            } else if d <= thickness + aa {
                1.0 - (d - thickness) / aa
            } else {
                0.0
            };
            // mild intensity jitter on ink
            let noise = rng.gen_range(-0.04f32..0.04);
            out[py * SIDE + px] = (v + if v > 0.0 { noise } else { 0.0 }).clamp(0.0, 1.0);
        }
    }
}

/// Generates a synthetic dataset of `count` images with balanced classes.
pub fn synthetic(count: usize, seed: u64) -> Dataset {
    let mut images = vec![0.0f32; count * PIXELS];
    let labels: Vec<usize> = (0..count).map(|i| i % CLASSES).collect();
    images
        .par_chunks_mut(PIXELS)
        .enumerate()
        .for_each(|(i, chunk)| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            render_digit(i % CLASSES, &mut rng, chunk);
        });
    Dataset {
        images,
        labels,
        synthetic: true,
    }
}

/// Loads real MNIST from `data/mnist/` when present, otherwise generates
/// synthetic train/test sets of the requested sizes.
pub fn load_or_synthesize(train_count: usize, test_count: usize, seed: u64) -> (Dataset, Dataset) {
    for base in ["data/mnist", "../data/mnist", "../../data/mnist"] {
        if let Some((mut train, mut test)) = load_real(Path::new(base)) {
            // truncate to requested sizes for comparable runtimes
            if train.len() > train_count {
                train.images.truncate(train_count * PIXELS);
                train.labels.truncate(train_count);
            }
            if test.len() > test_count {
                test.images.truncate(test_count * PIXELS);
                test.labels.truncate(test_count);
            }
            return (train, test);
        }
    }
    (
        synthetic(train_count, seed),
        synthetic(test_count, seed.wrapping_add(0xDEAD_BEEF)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_shapes_and_ranges() {
        let ds = synthetic(50, 1);
        assert_eq!(ds.len(), 50);
        assert_eq!(ds.images.len(), 50 * PIXELS);
        assert!(ds.images.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(ds.synthetic);
        // balanced classes
        for c in 0..CLASSES {
            assert_eq!(ds.labels.iter().filter(|&&l| l == c).count(), 5);
        }
    }

    #[test]
    fn digits_have_ink_and_background() {
        let ds = synthetic(20, 2);
        for i in 0..20 {
            let img = ds.image(i);
            let ink: f32 = img.iter().sum();
            assert!(ink > 10.0, "image {i} nearly empty (ink {ink})");
            assert!(ink < 500.0, "image {i} nearly full (ink {ink})");
        }
    }

    #[test]
    fn different_seeds_differ_same_seed_reproduces() {
        let a = synthetic(10, 7);
        let b = synthetic(10, 7);
        let c = synthetic(10, 8);
        assert_eq!(a.images, b.images);
        assert_ne!(a.images, c.images);
    }

    #[test]
    fn classes_are_visually_distinct() {
        // mean intra-class L2 distance should be well below inter-class
        let ds = synthetic(200, 3);
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>()
        };
        let mut intra = 0.0;
        let mut intra_n = 0;
        let mut inter = 0.0;
        let mut inter_n = 0;
        for i in 0..60 {
            for j in (i + 1)..60 {
                let d = dist(ds.image(i), ds.image(j));
                if ds.labels[i] == ds.labels[j] {
                    intra += d;
                    intra_n += 1;
                } else {
                    inter += d;
                    inter_n += 1;
                }
            }
        }
        let intra = intra / intra_n as f32;
        let inter = inter / inter_n as f32;
        assert!(
            intra < inter * 0.8,
            "classes not separable: intra {intra} vs inter {inter}"
        );
    }

    #[test]
    fn batch_extraction() {
        let ds = synthetic(10, 4);
        let (batch, labels) = ds.batch(&[0, 3, 7]);
        assert_eq!(batch.shape(), &[3, 1, SIDE, SIDE]);
        assert_eq!(labels, vec![0, 3, 7]);
        assert_eq!(&batch.data()[..PIXELS], ds.image(0));
    }

    #[test]
    fn idx_loader_rejects_garbage() {
        let dir = std::env::temp_dir().join("ckks_rns_cnn_test_idx");
        let _ = std::fs::create_dir_all(&dir);
        let img = dir.join("train-images-idx3-ubyte");
        std::fs::write(&img, b"not an idx file").unwrap();
        let lbl = dir.join("train-labels-idx1-ubyte");
        std::fs::write(&lbl, b"junk").unwrap();
        assert!(load_idx_pair(&img, &lbl).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
