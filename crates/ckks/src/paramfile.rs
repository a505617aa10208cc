//! Text parameter files for the `he-ir check --params` CLI: `key = value`
//! lines describing a [`CkksParams`], e.g.
//!
//! ```text
//! # the paper's Table II setting
//! n = 16384
//! chain_bits = 40 26 26 26 26 26 26 26 26 26 26 26 26 26
//! special_bits = 40
//! scale_bits = 26
//! security = 128
//! ```
//!
//! `security` accepts `none`, `128`, `192` or `256`. Blank lines and
//! `#` comments are ignored.

use crate::security::SecurityLevel;
use crate::CkksParams;
use ckks_math::modring::MAX_MODULUS_BITS;

/// Parses a parameter file; errors carry the offending line number or
/// key. A file that parses is one [`CkksParams::build`] accepts: every
/// prime size is in `(log2(2N), 61]`, the progression `k·2N + 1` holds
/// a distinct prime for every entry, and the total modulus meets
/// `security`.
pub fn parse_params(text: &str) -> Result<CkksParams, String> {
    let mut n: Option<usize> = None;
    let mut chain_bits: Option<Vec<u32>> = None;
    let mut special_bits: Option<Vec<u32>> = None;
    let mut scale_bits: Option<u32> = None;
    let mut security = SecurityLevel::None;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let (key, value) = (key.trim(), value.trim());
        match key {
            "n" => {
                let v: usize = value
                    .parse()
                    .map_err(|_| format!("line {lineno}: bad ring degree `{value}`"))?;
                n = Some(v);
            }
            "chain_bits" => chain_bits = Some(parse_bits(value, lineno)?),
            "special_bits" => special_bits = Some(parse_bits(value, lineno)?),
            "scale_bits" => {
                let v: u32 = value
                    .parse()
                    .map_err(|_| format!("line {lineno}: bad scale_bits `{value}`"))?;
                scale_bits = Some(v);
            }
            "security" => {
                security = match value {
                    "none" => SecurityLevel::None,
                    "128" => SecurityLevel::Bits128,
                    "192" => SecurityLevel::Bits192,
                    "256" => SecurityLevel::Bits256,
                    other => {
                        return Err(format!(
                            "line {lineno}: security must be none/128/192/256, got `{other}`"
                        ))
                    }
                };
            }
            other => return Err(format!("line {lineno}: unknown key `{other}`")),
        }
    }

    let params = CkksParams {
        n: n.ok_or("missing `n`")?,
        chain_bits: chain_bits.ok_or("missing `chain_bits`")?,
        special_bits: special_bits.unwrap_or_else(|| vec![40]),
        scale_bits: scale_bits.ok_or("missing `scale_bits`")?,
        security,
    };
    if !params.n.is_power_of_two() || params.n < 8 {
        return Err(format!("n = {} is not a power of two ≥ 8", params.n));
    }
    if params.chain_bits.is_empty() {
        return Err("chain_bits is empty".to_string());
    }
    // an NTT prime p ≡ 1 (mod 2N) of b bits needs 2N < 2^b ≤ 2^61
    let two_n = 2 * params.n as u64;
    for (key, bits) in [
        ("chain_bits", &params.chain_bits),
        ("special_bits", &params.special_bits),
    ] {
        for &b in bits {
            if b > MAX_MODULUS_BITS {
                return Err(format!(
                    "{key}: prime size {b} exceeds the {MAX_MODULUS_BITS}-bit limit"
                ));
            }
            if 1u64 << b <= two_n {
                return Err(format!(
                    "{key}: prime size {b} is not above log2(2N) = {}, so no prime \
                     ≡ 1 mod 2N fits",
                    two_n.ilog2()
                ));
            }
        }
    }
    // the same prime search `build` runs, so a file whose progression
    // runs out (many equal small sizes, or none ≡ 1 mod 2N) is refused
    if let Err(e) = params.gen_moduli() {
        let key = if e.position < params.chain_bits.len() {
            "chain_bits"
        } else {
            "special_bits"
        };
        return Err(format!("{key}: {e}"));
    }
    params
        .security
        .validate(params.n, params.total_log_q())
        .map_err(|e| format!("security: {e}"))?;
    Ok(params)
}

fn parse_bits(value: &str, lineno: usize) -> Result<Vec<u32>, String> {
    value
        .split_whitespace()
        .map(|tok| {
            tok.parse::<u32>()
                .map_err(|_| format!("line {lineno}: bad bit size `{tok}`"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_file_with_comments() {
        let text = "\
# Table II
n = 16384
chain_bits = 40 26 26 26   # q_0 then rescaling primes
special_bits = 40
scale_bits = 26
security = 128
";
        let p = parse_params(text).unwrap();
        assert_eq!(p.n, 1 << 14);
        assert_eq!(p.chain_bits, vec![40, 26, 26, 26]);
        assert_eq!(p.special_bits, vec![40]);
        assert_eq!(p.scale_bits, 26);
        assert_eq!(p.security, SecurityLevel::Bits128);
    }

    #[test]
    fn defaults_and_missing_keys() {
        let p = parse_params("n = 1024\nchain_bits = 40 26\nscale_bits = 26\n").unwrap();
        assert_eq!(p.special_bits, vec![40]); // defaulted
        assert_eq!(p.security, SecurityLevel::None);
        assert!(parse_params("n = 1024\nscale_bits = 26\n").is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_params("n 1024").is_err());
        assert!(parse_params("n = seven").is_err());
        assert!(parse_params("bogus = 1").is_err());
        assert!(parse_params("n = 1000\nchain_bits = 40\nscale_bits = 26").is_err());
        assert!(
            parse_params("n = 1024\nchain_bits = 40\nscale_bits = 26\nsecurity = 111").is_err()
        );
    }

    /// The refusal of `text`, which must name `needle`.
    fn refused(text: &str, needle: &str) {
        let err = parse_params(text).expect_err("must be refused");
        assert!(err.contains(needle), "{err}");
    }

    #[test]
    fn rejects_a_prime_above_61_bits() {
        refused(
            "n = 1024\nchain_bits = 40 62\nscale_bits = 26\n",
            "chain_bits: prime size 62",
        );
        refused(
            "n = 1024\nchain_bits = 40 26\nspecial_bits = 200\nscale_bits = 26\n",
            "special_bits: prime size 200",
        );
    }

    #[test]
    fn rejects_a_prime_not_above_log2_2n() {
        // N = 1024: 2N = 2^11, so an 11-bit prime ≡ 1 mod 2N cannot exist
        refused(
            "n = 1024\nscale_bits = 26\nchain_bits = 40 11\n",
            "chain_bits: prime size 11 is not above log2(2N) = 11",
        );
        refused(
            "n = 1024\nchain_bits = 40\nspecial_bits = 1\nscale_bits = 26\n",
            "special_bits: prime size 1",
        );
    }

    #[test]
    fn rejects_a_chain_the_security_level_forbids() {
        // 128-bit security at N = 1024 allows log(PQ) ≤ 27
        refused(
            "n = 1024\nchain_bits = 40 26\nscale_bits = 26\nsecurity = 128\n",
            "security: log(PQ) = 106 exceeds",
        );
        // a ring degree the HE standard does not tabulate
        refused(
            "n = 512\nchain_bits = 20\nspecial_bits = 20\nscale_bits = 16\nsecurity = 128\n",
            "security: ring degree 512",
        );
    }

    #[test]
    fn rejects_a_prime_progression_that_runs_out() {
        // N = 4096: 14 bits is above log2(2N) = 13, yet no 14-bit prime
        // ≡ 1 mod 8192 exists
        refused(
            "n = 4096\nchain_bits = 40 14\nscale_bits = 26\n",
            "chain_bits: 1 distinct 14-bit primes ≡ 1 mod 2N = 8192 requested, only 0 exist",
        );
        refused(
            "n = 4096\nchain_bits = 40\nspecial_bits = 15\nscale_bits = 26\n",
            "special_bits: 1 distinct 15-bit primes",
        );
        // two 17-bit primes exist, the chain asks for three
        refused(
            "n = 4096\nchain_bits = 40 17 17 17\nscale_bits = 16\n",
            "chain_bits: 3 distinct 17-bit primes ≡ 1 mod 2N = 8192 requested, only 2 exist",
        );
        // chain and special primes are distinct from one another too
        refused(
            "n = 4096\nchain_bits = 40 17 17\nspecial_bits = 17\nscale_bits = 16\n",
            "special_bits: 3 distinct 17-bit primes",
        );
    }

    #[test]
    fn accepted_files_build() {
        let tiny = "n = 1024\nchain_bits = 30 20 20\nspecial_bits = 30\nscale_bits = 20\n";
        let secure =
            "n = 2048\nchain_bits = 20\nspecial_bits = 20\nscale_bits = 12\nsecurity = 128\n";
        // takes every 17-bit prime ≡ 1 mod 8192 there is
        let exhaustive = "n = 4096\nchain_bits = 40 17 17\nspecial_bits = 16\nscale_bits = 16\n";
        for text in [tiny, secure, exhaustive] {
            let ctx = parse_params(text).unwrap().build();
            assert_eq!(ctx.max_level() + 1, ctx.params().chain_bits.len());
        }
    }
}
