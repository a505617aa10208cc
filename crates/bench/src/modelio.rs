//! Persistence of extracted [`HeNetwork`]s so the table binaries train
//! once and share the model (training on 1 core is minutes; the cache
//! lives under `target/trained/`). The files are HENT models
//! ([`cnn_he::model`]).

use cnn_he::model::{network_from_bytes, network_to_bytes};
use cnn_he::HeNetwork;
use std::path::{Path, PathBuf};

/// Cache directory for trained models.
pub fn cache_dir() -> PathBuf {
    let dir = Path::new("target").join("trained");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Saves a network into the cache.
pub fn save(name: &str, net: &HeNetwork) -> std::io::Result<()> {
    write(&cache_dir().join(format!("{name}.hent")), net)
}

/// Loads a cached network if present and well-formed.
pub fn load(name: &str) -> Option<HeNetwork> {
    read(&cache_dir().join(format!("{name}.hent")))
}

fn write(path: &Path, net: &HeNetwork) -> std::io::Result<()> {
    std::fs::write(path, network_to_bytes(net))
}

fn read(path: &Path) -> Option<HeNetwork> {
    network_from_bytes(&std::fs::read(path).ok()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_he::he_layers::{ConvSpec, DenseSpec};
    use cnn_he::HeLayerSpec;

    fn sample_net() -> HeNetwork {
        HeNetwork {
            layers: vec![
                HeLayerSpec::Conv(ConvSpec {
                    weight: vec![0.5, -0.5, 0.25, 0.125],
                    bias: vec![0.1],
                    in_ch: 1,
                    out_ch: 1,
                    k: 2,
                    stride: 1,
                    pad: 0,
                }),
                HeLayerSpec::Activation(vec![0.0, 1.0, 0.5, 0.1]),
                HeLayerSpec::Dense(DenseSpec {
                    weight: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
                    bias: vec![-1.0, 1.0],
                    in_dim: 4, // conv output: 1 ch × 2×2
                    out_dim: 2,
                }),
            ],
            input_side: 3,
        }
    }

    /// A per-test file under the system temp dir (not the cache).
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("modelio-{}-{name}.hent", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let net = sample_net();
        let path = scratch("roundtrip");
        write(&path, &net).unwrap();
        let back = read(&path);
        let _ = std::fs::remove_file(&path);
        let back = back.expect("a written model reads back");
        assert_eq!(back.input_side, 3);
        assert_eq!(back.layers.len(), 3);
        let img = vec![0.2f32; 9];
        assert_eq!(net.infer_plain(&img), back.infer_plain(&img));
    }

    #[test]
    fn garbage_rejected() {
        let path = scratch("garbage");
        assert!(read(&path).is_none(), "missing file");
        let bytes = network_to_bytes(&sample_net());
        for data in [&b"garbage"[..], &b""[..], &bytes[..bytes.len() - 3]] {
            std::fs::write(&path, data).unwrap();
            assert!(read(&path).is_none(), "{} bytes accepted", data.len());
        }
        let _ = std::fs::remove_file(&path);
    }
}
