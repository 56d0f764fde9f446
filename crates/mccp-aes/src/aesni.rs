//! Hardware AES (x86-64 AES-NI): every encryption [`crate::Aes`] runs on a
//! host with an AES unit.
//!
//! - [`encrypt_block`] takes one block, for the serial chains: CBC-MAC,
//!   GCM's hash subkey `H = E(K, 0)`, and the per-block `*_scalar` mode
//!   arms, which keep their serial shape but no longer run the software
//!   cipher.
//! - [`encrypt_blocks4`] takes four independent blocks. It is the 4-wide
//!   software kernel's shape ([`crate::tables::encrypt_blocks4_ttable`])
//!   mapped onto `AESENC` pipelining (latency ~4 cycles, throughput
//!   1/cycle — four independent states hide the latency completely). The
//!   batched CTR and GCM keystreams, their leftover blocks and GCM's tag
//!   mask `E(K, J0)` run here.
//! - [`ccm_pass`] runs a whole CCM packet in one call with the round keys
//!   loaded once. Each chained CBC-MAC block goes through the rounds
//!   together with an independent counter block, so the keystream costs
//!   almost nothing beside the latency-bound chain: the host's form of the
//!   paper's two-core CCM.
//!
//! The byte-wise datapath model ([`crate::block`], which the cycle
//! engine's Cryptographic Unit runs) and the T-table kernels
//! ([`crate::tables`]) stay software: they are the references this module
//! is tested against, and what hosts without AES-NI run.
//!
//! Detection is at runtime (`is_x86_feature_detected!`); outputs are
//! byte-identical either way (AES is a fixed function), which the
//! NIST-vector and cross-kernel equivalence suites assert. Every routine
//! takes the schedule's round count as a constant (10, 12 or 14), so its
//! round loops unroll and the keys stay in registers.

#![cfg(target_arch = "x86_64")]

use crate::key_schedule::RoundKeys;
use crate::modes::ccm::{CcmDirection, CcmPacket};
use std::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128,
    _mm_xor_si128,
};

/// True when the host can run this module's routines. The detection macro
/// caches its CPUID probe, so calling this per block is fine.
#[inline]
pub fn supported() -> bool {
    std::arch::is_x86_feature_detected!("aes")
}

/// Encrypts one block with AES-NI.
///
/// # Safety
/// Caller must ensure [`supported`] returned true on this host.
#[target_feature(enable = "aes")]
pub unsafe fn encrypt_block(rk: &RoundKeys, block: &mut [u8; 16]) {
    encrypt_in_place(rk, std::array::from_mut(block));
}

/// Encrypts four independent blocks with AES-NI, all four states in
/// flight across every round.
///
/// # Safety
/// Caller must ensure [`supported`] returned true on this host.
#[target_feature(enable = "aes")]
pub unsafe fn encrypt_blocks4(rk: &RoundKeys, blocks: &mut [u8; 64]) {
    let (four, _) = blocks.as_chunks_mut::<16>();
    encrypt_in_place::<4>(rk, four.try_into().expect("64 bytes are four blocks"));
}

/// Runs one CCM packet over `data` in place and returns the full tag,
/// byte-identical to the serial pass behind
/// [`crate::BlockCipher128::ccm_pass`].
///
/// On a seal, `Ctr_0` rides beside `B0` and `Ctr_{i+1}` beside payload
/// block `P_i`. On an open, `Ctr_0` and `Ctr_1` ride beside `B0` and the
/// keystream stays one block ahead of the chain, so each plaintext block
/// is ready when the chain needs it. The AAD blocks run alone.
///
/// # Safety
/// Caller must ensure [`supported`] returned true on this host.
#[target_feature(enable = "aes")]
pub unsafe fn ccm_pass(rk: &RoundKeys, packet: &CcmPacket<'_>, data: &mut [u8]) -> [u8; 16] {
    match rk.rounds() {
        10 => ccm_pass_nr::<10>(rk, packet, data),
        12 => ccm_pass_nr::<12>(rk, packet, data),
        _ => ccm_pass_nr::<14>(rk, packet, data),
    }
}

/// Loads 16 bytes into a vector.
#[inline]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is 16 readable bytes, and `loadu` takes any
    // alignment.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Stores a vector into 16 bytes.
#[inline]
fn store(bytes: &mut [u8; 16], v: __m128i) {
    // SAFETY: `bytes` is 16 writable bytes, and `storeu` takes any
    // alignment.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
}

/// The `NR + 1` round keys of one schedule, loaded once (the slots past
/// `NR` repeat the last key and go unused).
struct Keys<const NR: usize>([__m128i; 15]);

impl<const NR: usize> Keys<NR> {
    #[inline]
    fn load(rk: &RoundKeys) -> Self {
        Keys(std::array::from_fn(|r| load(rk.round_key(r.min(NR)))))
    }

    /// Encrypts `N` independent states together, all in flight across
    /// every round.
    #[inline]
    #[target_feature(enable = "aes")]
    fn encrypt<const N: usize>(&self, mut s: [__m128i; N]) -> [__m128i; N] {
        for x in &mut s {
            *x = _mm_xor_si128(*x, self.0[0]);
        }
        for r in 1..NR {
            for x in &mut s {
                *x = _mm_aesenc_si128(*x, self.0[r]);
            }
        }
        for x in &mut s {
            *x = _mm_aesenclast_si128(*x, self.0[NR]);
        }
        s
    }
}

#[target_feature(enable = "aes")]
fn encrypt_in_place<const N: usize>(rk: &RoundKeys, blocks: &mut [[u8; 16]; N]) {
    #[target_feature(enable = "aes")]
    fn with<const NR: usize, const N: usize>(rk: &RoundKeys, blocks: &mut [[u8; 16]; N]) {
        let s = Keys::<NR>::load(rk).encrypt(blocks.each_ref().map(load));
        for (block, v) in blocks.iter_mut().zip(s) {
            store(block, v);
        }
    }
    match rk.rounds() {
        10 => with::<10, N>(rk, blocks),
        12 => with::<12, N>(rk, blocks),
        _ => with::<14, N>(rk, blocks),
    }
}

#[target_feature(enable = "aes")]
fn ccm_pass_nr<const NR: usize>(
    rk: &RoundKeys,
    packet: &CcmPacket<'_>,
    data: &mut [u8],
) -> [u8; 16] {
    let keys = Keys::<NR>::load(rk);
    let base = u128::from_be_bytes(*packet.ctr0());
    let ctr = |i: usize| load(&base.wrapping_add(i as u128).to_be_bytes());
    let (blocks, tail) = data.as_chunks_mut::<16>();
    // The final partial block, zero-padded.
    let mut last = [0u8; 16];
    last[..tail.len()].copy_from_slice(tail);

    let (x, s0) = match packet.direction() {
        CcmDirection::Seal => {
            let [mut x, s0] = keys.encrypt([load(packet.b0()), ctr(0)]);
            for a in packet.aad_blocks() {
                [x] = keys.encrypt([_mm_xor_si128(x, load(&a))]);
            }
            for (i, block) in blocks.iter_mut().enumerate() {
                let p = load(block);
                let [next, ks] = keys.encrypt([_mm_xor_si128(x, p), ctr(i + 1)]);
                store(block, _mm_xor_si128(p, ks));
                x = next;
            }
            if !tail.is_empty() {
                let p = load(&last);
                let [next, ks] = keys.encrypt([_mm_xor_si128(x, p), ctr(blocks.len() + 1)]);
                store(&mut last, _mm_xor_si128(p, ks));
                x = next;
            }
            (x, s0)
        }
        CcmDirection::Open => {
            let [mut x, s0, mut ks] = keys.encrypt([load(packet.b0()), ctr(0), ctr(1)]);
            for a in packet.aad_blocks() {
                [x] = keys.encrypt([_mm_xor_si128(x, load(&a))]);
            }
            for (i, block) in blocks.iter_mut().enumerate() {
                let p = _mm_xor_si128(load(block), ks);
                store(block, p);
                [x, ks] = keys.encrypt([_mm_xor_si128(x, p), ctr(i + 2)]);
            }
            if !tail.is_empty() {
                let p = _mm_xor_si128(load(&last), ks);
                store(&mut last, p);
                let mut padded = [0u8; 16];
                padded[..tail.len()].copy_from_slice(&last[..tail.len()]);
                [x] = keys.encrypt([_mm_xor_si128(x, load(&padded))]);
            }
            (x, s0)
        }
    };
    let n = tail.len();
    tail.copy_from_slice(&last[..n]);
    let mut tag = [0u8; 16];
    store(&mut tag, _mm_xor_si128(x, s0));
    tag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::encrypt_with_round_keys;
    use crate::tables::encrypt_blocks4_ttable;

    fn schedule(len: usize) -> RoundKeys {
        let key: Vec<u8> = (0..len as u8)
            .map(|i| i.wrapping_mul(41).wrapping_add(5))
            .collect();
        RoundKeys::expand(&key)
    }

    #[test]
    fn matches_ttable_kernel_all_key_sizes() {
        if !supported() {
            eprintln!("AES-NI not available on this host; skipping");
            return;
        }
        for len in [16usize, 24, 32] {
            let rk = schedule(len);
            for seed in 0..8u8 {
                let mut hw: [u8; 64] =
                    core::array::from_fn(|i| (i as u8).wrapping_mul(19).wrapping_add(seed));
                let mut sw = hw;
                // SAFETY: `supported()` returned true above.
                unsafe { encrypt_blocks4(&rk, &mut hw) };
                encrypt_blocks4_ttable(&rk, &mut sw);
                assert_eq!(hw, sw, "key len {len}, seed {seed}");
            }
        }
    }

    #[test]
    fn single_block_matches_bytewise_reference_all_key_sizes() {
        if !supported() {
            eprintln!("AES-NI not available on this host; skipping");
            return;
        }
        for len in [16usize, 24, 32] {
            let rk = schedule(len);
            for seed in 0..32u8 {
                let mut hw: [u8; 16] =
                    core::array::from_fn(|i| (i as u8).wrapping_mul(23).wrapping_add(seed));
                let mut sw = hw;
                // SAFETY: `supported()` returned true above.
                unsafe { encrypt_block(&rk, &mut hw) };
                encrypt_with_round_keys(&rk, &mut sw);
                assert_eq!(hw, sw, "key len {len}, seed {seed}");
            }
        }
    }
}
