//! Security parameter validation against the Homomorphic Encryption
//! Standard (HomomorphicEncryption.org, 2018) — the same table the paper's
//! §V.B adopts ("We adopt the security settings specified in the HE
//! standard").
//!
//! The table lists, for each ring degree `N` and target security level λ,
//! the maximum total modulus size `log₂(P·Q)` (ciphertext chain *including*
//! key-switching primes) that keeps the RLWE instance at λ-bit classical
//! security with a ternary secret distribution.

/// Classical security levels of the HE standard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityLevel {
    /// λ = 128 bits — the paper's setting.
    Bits128,
    /// λ = 192 bits.
    Bits192,
    /// λ = 256 bits.
    Bits256,
    /// No enforcement (tests and micro-benchmarks at toy ring degrees).
    None,
}

impl SecurityLevel {
    /// Maximum permitted `log₂(PQ)` for ternary secrets at ring degree `n`,
    /// per Table 1 of the HE standard. Returns `None` when the degree is
    /// not covered (too small to be secure at this level).
    pub fn max_log_q(&self, n: usize) -> Option<u32> {
        let idx = match n {
            1024 => 0,
            2048 => 1,
            4096 => 2,
            8192 => 3,
            16384 => 4,
            32768 => 5,
            _ => return None,
        };
        let row: [u32; 6] = match self {
            SecurityLevel::Bits128 => [27, 54, 109, 218, 438, 881],
            SecurityLevel::Bits192 => [19, 37, 75, 152, 305, 611],
            SecurityLevel::Bits256 => [14, 29, 58, 118, 237, 476],
            SecurityLevel::None => return Some(u32::MAX),
        };
        Some(row[idx])
    }

    /// λ in bits (0 for `None`).
    pub fn lambda(&self) -> u32 {
        match self {
            SecurityLevel::Bits128 => 128,
            SecurityLevel::Bits192 => 192,
            SecurityLevel::Bits256 => 256,
            SecurityLevel::None => 0,
        }
    }

    /// Validates a parameter set; returns the security margin in bits of
    /// modulus budget left, or an error string describing the violation.
    pub fn validate(&self, n: usize, total_log_q: u32) -> Result<u32, String> {
        if matches!(self, SecurityLevel::None) {
            return Ok(u32::MAX);
        }
        match self.max_log_q(n) {
            None => Err(format!(
                "ring degree {n} is not covered by the HE standard at λ={}",
                self.lambda()
            )),
            Some(max) if total_log_q > max => Err(format!(
                "log(PQ) = {total_log_q} exceeds the HE-standard bound {max} for N={n}, λ={}",
                self.lambda()
            )),
            Some(max) => Ok(max - total_log_q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setting_is_valid() {
        // Table II: N = 2^14, λ = 128. The chain [40, 26×13] leaves room
        // for one 40-bit special prime only: 418 bits <= 438, where a
        // second one (458) would not fit.
        let total = 40 + 26 * 13 + 40;
        assert!(SecurityLevel::Bits128.validate(1 << 14, total).is_ok());
        assert!(SecurityLevel::Bits128
            .validate(1 << 14, total + 40)
            .is_err());
    }

    #[test]
    fn oversized_modulus_rejected() {
        assert!(SecurityLevel::Bits128.validate(1 << 14, 439).is_err());
        assert!(SecurityLevel::Bits128.validate(1 << 14, 438).is_ok());
    }

    #[test]
    fn higher_security_is_stricter() {
        for n in [1024usize, 2048, 4096, 8192, 16384, 32768] {
            let a = SecurityLevel::Bits128.max_log_q(n).unwrap();
            let b = SecurityLevel::Bits192.max_log_q(n).unwrap();
            let c = SecurityLevel::Bits256.max_log_q(n).unwrap();
            assert!(a > b && b > c, "N={n}");
        }
    }

    #[test]
    fn uncovered_degree() {
        assert!(SecurityLevel::Bits128.max_log_q(512).is_none());
        assert!(SecurityLevel::Bits128.validate(512, 20).is_err());
        // but disabled security accepts anything
        assert!(SecurityLevel::None.validate(512, 10_000).is_ok());
    }
}
