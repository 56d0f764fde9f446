//! Hardware AES for the batched kernel path (x86-64 AES-NI).
//!
//! The 4-wide software kernel ([`crate::tables::encrypt_blocks4_ttable`])
//! exists to give the host independent dependency chains; when the host
//! has an AES unit, the same four-blocks-in-flight shape maps straight
//! onto `AESENC` pipelining (latency ~4 cycles, throughput 1/cycle — four
//! independent states hide the latency completely). This module is a
//! drop-in for the batched kernel only: single-block calls, the byte-wise
//! datapath model and the scalar reference arms all stay on the software
//! formulation, so scalar-vs-batched comparisons remain honest and the
//! hardware model remains the hardware model. The batched kernels send
//! their leftover counter blocks (under 64 bytes) and GCM's tag mask
//! `E(K, J0)` through here too, as one zero-padded four-block call.
//!
//! Detection is at runtime (`is_x86_feature_detected!`), with the T-table
//! kernel as the universal fallback; outputs are byte-identical either
//! way (AES is a fixed function), which the NIST-vector and cross-kernel
//! equivalence suites assert.

#![cfg(target_arch = "x86_64")]

use crate::key_schedule::RoundKeys;
use std::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128,
    _mm_xor_si128,
};

/// True when the host can run [`encrypt_blocks4`]. The detection macro
/// caches its CPUID probe, so calling this per batch is fine.
#[inline]
pub fn supported() -> bool {
    std::arch::is_x86_feature_detected!("aes")
}

/// Encrypts four independent blocks with AES-NI, all four states in
/// flight across every round.
///
/// # Safety
/// Caller must ensure [`supported`] returned true on this host.
#[target_feature(enable = "aes")]
pub unsafe fn encrypt_blocks4(rk: &RoundKeys, blocks: &mut [u8; 64]) {
    let nr = rk.rounds();
    let key = |r: usize| unsafe { _mm_loadu_si128(rk.round_key(r).as_ptr() as *const __m128i) };

    let p = blocks.as_mut_ptr() as *mut __m128i;
    let k0 = key(0);
    let mut s: [__m128i; 4] = unsafe {
        [
            _mm_xor_si128(_mm_loadu_si128(p), k0),
            _mm_xor_si128(_mm_loadu_si128(p.add(1)), k0),
            _mm_xor_si128(_mm_loadu_si128(p.add(2)), k0),
            _mm_xor_si128(_mm_loadu_si128(p.add(3)), k0),
        ]
    };
    for r in 1..nr {
        let k = key(r);
        for state in &mut s {
            *state = _mm_aesenc_si128(*state, k);
        }
    }
    let klast = key(nr);
    for (i, state) in s.iter().enumerate() {
        unsafe { _mm_storeu_si128(p.add(i), _mm_aesenclast_si128(*state, klast)) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::encrypt_blocks4_ttable;

    #[test]
    fn matches_ttable_kernel_all_key_sizes() {
        if !supported() {
            eprintln!("AES-NI not available on this host; skipping");
            return;
        }
        for len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..len as u8)
                .map(|i| i.wrapping_mul(41).wrapping_add(5))
                .collect();
            let rk = RoundKeys::expand(&key);
            for seed in 0..8u8 {
                let mut hw: [u8; 64] =
                    core::array::from_fn(|i| (i as u8).wrapping_mul(19).wrapping_add(seed));
                let mut sw = hw;
                unsafe { encrypt_blocks4(&rk, &mut hw) };
                encrypt_blocks4_ttable(&rk, &mut sw);
                assert_eq!(hw, sw, "key len {len}, seed {seed}");
            }
        }
    }
}
