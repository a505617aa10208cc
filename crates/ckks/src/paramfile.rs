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

/// Parses a parameter file; errors carry the offending line number.
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
}
