//! Benchmark-owned inputs: the networks, the image pools and the
//! open-loop arrival schedule, all derived from constants in this file
//! and the `--seed` argument — never from helpers elsewhere in the repo,
//! which later changes may edit.

/// Weights are fixed across seeds so op counts and circuit shape are
/// properties of the workload; `--seed` varies only the traffic.
const MINI8_WEIGHT_SEED: u64 = 0x6d69_6e69_3800_0001;
/// Seed of the (untrained) CNN1 the `cnn1-single.*` workloads serve.
pub const CNN1_SEED: u64 = 11;

/// SplitMix64: small, seedable, and owned by the benchmark.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn weights(&mut self, n: usize, amp: f32) -> Vec<f32> {
        (0..n)
            .map(|_| (self.unit() as f32 * 2.0 - 1.0) * amp)
            .collect()
    }
}

/// Weights of "mini8": a CNN1-shaped network (conv 1→2, 3×3, stride 2 →
/// SLAF → dense 18→6 → SLAF → dense 6→3) over 8×8 inputs. Packed
/// dimension 64, five multiplicative levels; at `N = 2^10` one
/// ciphertext carries 8 lanes. `adapter::mini8_network` gives it the
/// program's network type.
pub struct Mini8Weights {
    pub conv_weight: Vec<f32>,
    pub conv_bias: Vec<f32>,
    pub dense1_weight: Vec<f32>,
    pub dense1_bias: Vec<f32>,
    pub dense2_weight: Vec<f32>,
    pub dense2_bias: Vec<f32>,
}

pub fn mini8() -> Mini8Weights {
    let mut rng = Rng::new(MINI8_WEIGHT_SEED);
    Mini8Weights {
        conv_weight: rng.weights(2 * 9, 0.3),
        conv_bias: vec![0.05, -0.05],
        dense1_weight: rng.weights(18 * 6, 0.3),
        dense1_bias: rng.weights(6, 0.3),
        dense2_weight: rng.weights(6 * 3, 0.3),
        dense2_bias: rng.weights(3, 0.3),
    }
}

/// `count` images of `pixels` values in `[0, 1)`.
pub fn images(seed: u64, count: usize, pixels: usize) -> Vec<Vec<f32>> {
    let mut rng = Rng::new(seed ^ 0x696d_6167_6573);
    (0..count)
        .map(|_| (0..pixels).map(|_| rng.unit() as f32).collect())
        .collect()
}

/// Open-loop due times in seconds from the phase start: `rate_per_s ×
/// seconds` arrivals with exponential gaps, scaled so the last is due at
/// `seconds`. Every seed therefore offers the same load — a Poisson
/// process conditioned on its count — and only the pattern varies.
pub fn arrivals(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ 0x6172_7269_7665);
    let count = (rate_per_s * seconds).round() as usize;
    let mut t = 0.0;
    let mut due: Vec<f64> = (0..count)
        .map(|_| {
            // 1 - unit() is in (0, 1], so the logarithm is finite
            t -= (1.0 - rng.unit()).ln();
            t
        })
        .collect();
    for d in &mut due {
        *d *= seconds / t;
    }
    due
}

/// FNV-1a over the generated load, so two runs can show they offered
/// the same images on the same schedule.
pub fn load_hash(images: &[Vec<f32>], schedule: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for img in images {
        for v in img {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    for t in schedule {
        eat(&t.to_bits().to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_schedule_and_image_hash() {
        let a = load_hash(&images(7, 16, 64), &arrivals(7, 20.0, 5.0));
        let b = load_hash(&images(7, 16, 64), &arrivals(7, 20.0, 5.0));
        let c = load_hash(&images(8, 16, 64), &arrivals(8, 20.0, 5.0));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(arrivals(7, 20.0, 5.0), arrivals(7, 20.0, 5.0));
    }

    #[test]
    fn schedule_is_sorted_and_near_its_rate() {
        let due = arrivals(3, 20.0, 50.0);
        assert_eq!(due.len(), 1000);
        assert!(due.windows(2).all(|w| w[0] < w[1]));
        assert!(due[0] > 0.0 && (due[999] - 50.0).abs() < 1e-9);
        // exponential gaps: about e^-1 of them exceed the mean of 50 ms
        let long = due.windows(2).filter(|w| w[1] - w[0] > 0.05).count();
        assert!((300..440).contains(&long), "{long}");
        assert!(arrivals(3, 20.0, 0.0).is_empty());
    }

    #[test]
    fn images_are_unit_range_and_mini8_is_fixed() {
        assert!(images(1, 4, 64)
            .iter()
            .flatten()
            .all(|v| (0.0..1.0).contains(v)));
        let (a, b) = (mini8(), mini8());
        assert_eq!(a.dense1_weight, b.dense1_weight);
        assert_eq!(a.dense1_weight.len(), 108);
        assert!(a.dense2_weight.iter().all(|w| w.abs() <= 0.3 && *w != 0.0));
    }
}
