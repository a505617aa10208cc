//! Process-global atomic counters for HE primitives.
//!
//! Counting discipline (one relaxed `fetch_add` per primitive, never
//! per coefficient, to stay inside the <2 % overhead budget):
//!
//! | counter          | unit of one increment                            |
//! |------------------|--------------------------------------------------|
//! | `ntt_fwd`        | one forward NTT of one RNS limb (n butterflies)  |
//! | `ntt_inv`        | one inverse NTT of one RNS limb                  |
//! | `modmul_limbs`   | one limb of a pointwise poly mul/MAC (n modmuls) |
//! | `ct_mults`       | one ciphertext×ciphertext tensor product         |
//! | `rotations`      | one slot rotation (a Galois automorphism)        |
//! | `relins`         | one relinearization                              |
//! | `rescales`       | one rescale (drop one chain prime)               |
//! | `keyswitches`    | one key-switch core (relin and rotation both     |
//! |                  | land here in addition to their own counter)      |
//! | `scalar_macs`    | one plaintext-scalar multiply-accumulate on a ct |
//! | `crt_decompose`  | one signal→RNS residue/digit decomposition       |
//! | `crt_recompose`  | one RNS→signal CRT recomposition                 |
//!
//! Counters are process-global: totals over a region are obtained by
//! diffing [`OpSnapshot`]s. Runs that need exact deltas must not share
//! the process with concurrent HE work (see [`crate::span::TraceSession`]).

#[cfg(feature = "enabled")]
mod imp {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static NTT_FWD: AtomicU64 = AtomicU64::new(0);
    pub static NTT_INV: AtomicU64 = AtomicU64::new(0);
    pub static MODMUL_LIMBS: AtomicU64 = AtomicU64::new(0);
    pub static CT_MULTS: AtomicU64 = AtomicU64::new(0);
    pub static ROTATIONS: AtomicU64 = AtomicU64::new(0);
    pub static RELINS: AtomicU64 = AtomicU64::new(0);
    pub static RESCALES: AtomicU64 = AtomicU64::new(0);
    pub static KEYSWITCHES: AtomicU64 = AtomicU64::new(0);
    pub static SCALAR_MACS: AtomicU64 = AtomicU64::new(0);
    pub static CRT_DECOMPOSE: AtomicU64 = AtomicU64::new(0);
    pub static CRT_RECOMPOSE: AtomicU64 = AtomicU64::new(0);

    // fault-injection event counters (see `FaultSnapshot`)
    pub static FAULTS_INJECTED: AtomicU64 = AtomicU64::new(0);
    pub static FAULTS_DETECTED: AtomicU64 = AtomicU64::new(0);

    #[inline]
    pub fn bump(c: &AtomicU64, by: u64) {
        c.fetch_add(by, Ordering::Relaxed);
    }
}

/// A point-in-time copy of every HE op counter. Subtract two snapshots
/// (`after.delta(&before)`) to attribute ops to a region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    pub ntt_fwd: u64,
    pub ntt_inv: u64,
    pub modmul_limbs: u64,
    pub ct_mults: u64,
    pub rotations: u64,
    pub relins: u64,
    pub rescales: u64,
    pub keyswitches: u64,
    pub scalar_macs: u64,
    pub crt_decompose: u64,
    pub crt_recompose: u64,
}

impl OpSnapshot {
    /// Current counter values. All-zero when tracing is compiled out.
    #[must_use]
    pub fn now() -> Self {
        #[cfg(feature = "enabled")]
        {
            use std::sync::atomic::Ordering::Relaxed;
            Self {
                ntt_fwd: imp::NTT_FWD.load(Relaxed),
                ntt_inv: imp::NTT_INV.load(Relaxed),
                modmul_limbs: imp::MODMUL_LIMBS.load(Relaxed),
                ct_mults: imp::CT_MULTS.load(Relaxed),
                rotations: imp::ROTATIONS.load(Relaxed),
                relins: imp::RELINS.load(Relaxed),
                rescales: imp::RESCALES.load(Relaxed),
                keyswitches: imp::KEYSWITCHES.load(Relaxed),
                scalar_macs: imp::SCALAR_MACS.load(Relaxed),
                crt_decompose: imp::CRT_DECOMPOSE.load(Relaxed),
                crt_recompose: imp::CRT_RECOMPOSE.load(Relaxed),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            Self::default()
        }
    }

    /// Ops recorded between `earlier` and `self` (saturating, so a
    /// misordered pair yields zeros rather than wrapping).
    #[must_use]
    pub fn delta(&self, earlier: &Self) -> Self {
        Self {
            ntt_fwd: self.ntt_fwd.saturating_sub(earlier.ntt_fwd),
            ntt_inv: self.ntt_inv.saturating_sub(earlier.ntt_inv),
            modmul_limbs: self.modmul_limbs.saturating_sub(earlier.modmul_limbs),
            ct_mults: self.ct_mults.saturating_sub(earlier.ct_mults),
            rotations: self.rotations.saturating_sub(earlier.rotations),
            relins: self.relins.saturating_sub(earlier.relins),
            rescales: self.rescales.saturating_sub(earlier.rescales),
            keyswitches: self.keyswitches.saturating_sub(earlier.keyswitches),
            scalar_macs: self.scalar_macs.saturating_sub(earlier.scalar_macs),
            crt_decompose: self.crt_decompose.saturating_sub(earlier.crt_decompose),
            crt_recompose: self.crt_recompose.saturating_sub(earlier.crt_recompose),
        }
    }

    /// Total NTT transforms (forward + inverse limb transforms).
    #[must_use]
    pub fn ntt_total(&self) -> u64 {
        self.ntt_fwd + self.ntt_inv
    }

    /// True when every counter is zero (e.g. tracing compiled out).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }

    /// `(label, value)` pairs for report/serialization layers, in a
    /// stable display order.
    #[must_use]
    pub fn named(&self) -> [(&'static str, u64); 11] {
        [
            ("ntt_fwd", self.ntt_fwd),
            ("ntt_inv", self.ntt_inv),
            ("modmul_limbs", self.modmul_limbs),
            ("ct_mults", self.ct_mults),
            ("rotations", self.rotations),
            ("relins", self.relins),
            ("rescales", self.rescales),
            ("keyswitches", self.keyswitches),
            ("scalar_macs", self.scalar_macs),
            ("crt_decompose", self.crt_decompose),
            ("crt_recompose", self.crt_recompose),
        ]
    }
}

/// Field-wise sum: the ops of several regions, or of a whole run.
impl std::iter::Sum for OpSnapshot {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| Self {
            ntt_fwd: a.ntt_fwd + b.ntt_fwd,
            ntt_inv: a.ntt_inv + b.ntt_inv,
            modmul_limbs: a.modmul_limbs + b.modmul_limbs,
            ct_mults: a.ct_mults + b.ct_mults,
            rotations: a.rotations + b.rotations,
            relins: a.relins + b.relins,
            rescales: a.rescales + b.rescales,
            keyswitches: a.keyswitches + b.keyswitches,
            scalar_macs: a.scalar_macs + b.scalar_macs,
            crt_decompose: a.crt_decompose + b.crt_decompose,
            crt_recompose: a.crt_recompose + b.crt_recompose,
        })
    }
}

/// A point-in-time copy of the fault-injection event counters.
///
/// These are *harness* events (he-diff fault injection and the guards
/// that catch the corruptions), not HE primitives — keeping them out
/// of [`OpSnapshot`] preserves the op-count invariance checks exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// Deterministic corruptions injected by the fault harness.
    pub injected: u64,
    /// Corruptions caught by a guard (lint admission, ciphertext
    /// validation, or noise telemetry).
    pub detected: u64,
}

impl FaultSnapshot {
    /// Current counter values. All-zero when tracing is compiled out.
    #[must_use]
    pub fn now() -> Self {
        #[cfg(feature = "enabled")]
        {
            use std::sync::atomic::Ordering::Relaxed;
            Self {
                injected: imp::FAULTS_INJECTED.load(Relaxed),
                detected: imp::FAULTS_DETECTED.load(Relaxed),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            Self::default()
        }
    }

    /// Events recorded between `earlier` and `self` (saturating).
    #[must_use]
    pub fn delta(&self, earlier: &Self) -> Self {
        Self {
            injected: self.injected.saturating_sub(earlier.injected),
            detected: self.detected.saturating_sub(earlier.detected),
        }
    }

    /// True when every counter is zero (e.g. tracing compiled out).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }

    /// `(label, value)` pairs in a stable display order.
    #[must_use]
    pub fn named(&self) -> [(&'static str, u64); 2] {
        [
            ("faults_injected", self.injected),
            ("faults_detected", self.detected),
        ]
    }
}

macro_rules! recorder {
    ($(#[$doc:meta])* $name:ident, $counter:ident) => {
        $(#[$doc])*
        #[inline]
        pub fn $name(by: u64) {
            #[cfg(feature = "enabled")]
            imp::bump(&imp::$counter, by);
            #[cfg(not(feature = "enabled"))]
            let _ = by;
        }
    };
}

recorder!(
    /// Record `by` forward limb-NTTs.
    record_ntt_fwd, NTT_FWD
);
recorder!(
    /// Record `by` inverse limb-NTTs.
    record_ntt_inv, NTT_INV
);
recorder!(
    /// Record `by` limbs of pointwise polynomial multiplication.
    record_modmul_limbs, MODMUL_LIMBS
);
recorder!(
    /// Record `by` ciphertext×ciphertext tensor products.
    record_ct_mult, CT_MULTS
);
recorder!(
    /// Record `by` slot rotations (Galois automorphisms).
    record_rotation, ROTATIONS
);
recorder!(
    /// Record `by` relinearizations.
    record_relin, RELINS
);
recorder!(
    /// Record `by` rescales.
    record_rescale, RESCALES
);
recorder!(
    /// Record `by` key-switch cores.
    record_keyswitch, KEYSWITCHES
);
recorder!(
    /// Record `by` plaintext-scalar multiply-accumulates.
    record_scalar_mac, SCALAR_MACS
);
recorder!(
    /// Record `by` signal→RNS decompositions.
    record_crt_decompose, CRT_DECOMPOSE
);
recorder!(
    /// Record `by` RNS→signal CRT recompositions.
    record_crt_recompose, CRT_RECOMPOSE
);
recorder!(
    /// Record `by` injected fault corruptions.
    record_fault_injected, FAULTS_INJECTED
);
recorder!(
    /// Record `by` guard-detected fault corruptions.
    record_fault_detected, FAULTS_DETECTED
);
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_saturating_and_zero_default() {
        let a = OpSnapshot {
            ntt_fwd: 5,
            ..Default::default()
        };
        let b = OpSnapshot {
            ntt_fwd: 2,
            ..Default::default()
        };
        assert_eq!(a.delta(&b).ntt_fwd, 3);
        assert_eq!(b.delta(&a).ntt_fwd, 0, "saturates instead of wrapping");
        assert!(OpSnapshot::default().is_zero());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn recorders_increment_snapshot() {
        let before = OpSnapshot::now();
        record_ntt_fwd(3);
        record_rescale(1);
        record_crt_recompose(2);
        let d = OpSnapshot::now().delta(&before);
        assert!(d.ntt_fwd >= 3);
        assert!(d.rescales >= 1);
        assert!(d.crt_recompose >= 2);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_records_nothing() {
        record_ntt_fwd(100);
        record_ct_mult(100);
        assert!(OpSnapshot::now().is_zero());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn fault_recorders_increment_fault_snapshot() {
        let before = FaultSnapshot::now();
        record_fault_injected(3);
        record_fault_detected(2);
        let d = FaultSnapshot::now().delta(&before);
        assert!(d.injected >= 3);
        assert!(d.detected >= 2);
        assert_eq!(d.named()[0].0, "faults_injected");
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_records_no_fault_events() {
        record_fault_injected(9);
        record_fault_detected(9);
        assert!(FaultSnapshot::now().is_zero());
    }
}
