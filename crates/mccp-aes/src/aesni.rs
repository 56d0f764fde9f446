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
//!   batched CTR keystream, the serial CCM pass's keystream and the
//!   two-pass GCM kernel run here.
//! - [`ccm_pass`] runs a whole CCM packet in one call with the round keys
//!   loaded once. Each chained CBC-MAC block goes through the rounds
//!   together with an independent counter block, so the keystream costs
//!   almost nothing beside the latency-bound chain: the host's form of the
//!   paper's two-core CCM.
//! - [`gcm_pass`] runs a whole GCM packet in one call with the round keys
//!   and `H^1..H^8` loaded once: eight counter blocks go through the AES
//!   rounds while GHASH folds eight ciphertext blocks between them (on a
//!   seal the batch before, on an open the same batch), one carry-less
//!   product per round and one reduction per batch. It needs PCLMULQDQ and
//!   SSSE3 (`pshufb` byte swaps) beside AES-NI ([`gcm_supported`]): the
//!   host's form of the CU's overlapped SAES/FAES and SGFM/FGFM.
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
use crate::modes::ccm::CcmPacket;
use crate::modes::gcm::GcmPacket;
use crate::modes::PassDirection;
use mccp_gf128::clmul::Partial;
use mccp_gf128::{Gf128, GHASH_BATCH_BLOCKS};
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi8, _mm_setzero_si128, _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
};

/// True when the host can run [`encrypt_block`], [`encrypt_blocks4`] and
/// [`ccm_pass`]. The detection macro caches its CPUID probe, so calling
/// this per block is fine.
#[inline]
pub fn supported() -> bool {
    std::arch::is_x86_feature_detected!("aes")
}

/// True when the host can also run [`gcm_pass`]: AES-NI, PCLMULQDQ and
/// SSSE3.
#[inline]
pub fn gcm_supported() -> bool {
    supported()
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("ssse3")
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

/// Runs one GCM packet over `data` in place and returns the full tag,
/// byte-identical to the two-pass kernel behind
/// [`crate::BlockCipher128::gcm_pass`]. `powers` are the packet's
/// `H^1..H^8` on the carry-less multiply arm.
///
/// Whole 128-byte batches run eight counter blocks through the rounds
/// while GHASH folds eight ciphertext blocks between them: on a seal the
/// previous batch's (its own ciphertext is not ready yet), so one lagging
/// fold closes the batches; on an open the current batch's, read before
/// it is decrypted. The leftover (up to seven whole blocks and a partial
/// one) runs four states per call with `J0`, whose encryption masks the
/// tag, riding in the first call, so a short packet costs one or two
/// 4-wide calls. The AAD folds eight blocks per reduction before the
/// batches.
///
/// # Safety
/// Caller must ensure [`gcm_supported`] returned true on this host.
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
pub unsafe fn gcm_pass(
    rk: &RoundKeys,
    powers: &[Gf128; GHASH_BATCH_BLOCKS],
    packet: &GcmPacket<'_>,
    data: &mut [u8],
) -> [u8; 16] {
    match rk.rounds() {
        10 => gcm_pass_nr::<10>(rk, powers, packet, data),
        12 => gcm_pass_nr::<12>(rk, powers, packet, data),
        _ => gcm_pass_nr::<14>(rk, powers, packet, data),
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

    /// [`Keys::encrypt`] with one GHASH batch folded in the rounds'
    /// shadow: returns the `N` encrypted states and
    /// `(y + X₁)·H⁸ + X₂·H⁷ + … + X₈·H¹` for the byte-swapped blocks `x`,
    /// one carry-less product after each of the first eight rounds and
    /// one reduction at the end.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq")]
    fn encrypt_folding<const N: usize>(
        &self,
        mut s: [__m128i; N],
        h: &[Gf128; GHASH_BATCH_BLOCKS],
        y: Gf128,
        x: &[__m128i; GHASH_BATCH_BLOCKS],
    ) -> ([__m128i; N], Gf128) {
        let mut acc = Partial::default();
        for v in &mut s {
            *v = _mm_xor_si128(*v, self.0[0]);
        }
        // NR - 1 >= 9 middle rounds, so all eight products find a slot.
        for r in 1..NR {
            for v in &mut s {
                *v = _mm_aesenc_si128(*v, self.0[r]);
            }
            if r <= GHASH_BATCH_BLOCKS {
                let i = r - 1;
                let xi = if i == 0 { y + gf(x[0]) } else { gf(x[i]) };
                acc.add_product(xi, h[GHASH_BATCH_BLOCKS - 1 - i]);
            }
        }
        for v in &mut s {
            *v = _mm_aesenclast_si128(*v, self.0[NR]);
        }
        (s, acc.reduce())
    }
}

/// Reverses a vector's 16 bytes. A loaded block becomes the big-endian
/// `u128` a [`Gf128`] holds, and a counter block's last four bytes become
/// the low 32-bit lane, where `_mm_add_epi32` counts modulo `2^32`
/// (`inc32`) without touching the other 96 bits.
#[inline]
#[target_feature(enable = "ssse3")]
fn swap(v: __m128i) -> __m128i {
    _mm_shuffle_epi8(
        v,
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    )
}

/// A byte-swapped block as a field element.
#[inline(always)]
fn gf(x: __m128i) -> Gf128 {
    // SAFETY: `__m128i` and `u128` are both 16 bytes of plain integer
    // data, and every bit pattern is valid for either.
    Gf128(unsafe { std::mem::transmute::<__m128i, u128>(x) })
}

/// A field element as a byte-swapped block.
#[inline(always)]
fn from_gf(y: Gf128) -> __m128i {
    // SAFETY: as in `gf`, the inverse reinterpretation.
    unsafe { std::mem::transmute::<u128, __m128i>(y.0) }
}

/// Folds the byte-swapped blocks `xs` (at most eight) into `y` with one
/// reduction: `(y + X₁)·H^n + X₂·H^(n−1) + … + X_n·H¹` for `n = xs.len()`.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn fold(h: &[Gf128; GHASH_BATCH_BLOCKS], y: Gf128, xs: &[__m128i]) -> Gf128 {
    let n = xs.len();
    if n == 0 {
        return y;
    }
    let mut acc = Partial::default();
    for (i, &x) in xs.iter().enumerate() {
        let x = if i == 0 { y + gf(x) } else { gf(x) };
        acc.add_product(x, h[n - 1 - i]);
    }
    acc.reduce()
}

/// GHASH over `bytes` zero-padded to whole blocks, eight blocks per
/// reduction.
#[inline]
#[target_feature(enable = "pclmulqdq,ssse3")]
fn hash_padded(h: &[Gf128; GHASH_BATCH_BLOCKS], mut y: Gf128, bytes: &[u8]) -> Gf128 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    let mut last = [0u8; 16];
    last[..tail.len()].copy_from_slice(tail);
    let padded = (!tail.is_empty()).then_some(&last);
    let mut xs = [_mm_setzero_si128(); GHASH_BATCH_BLOCKS];
    let mut n = 0;
    for block in blocks.iter().chain(padded) {
        xs[n] = swap(load(block));
        n += 1;
        if n == GHASH_BATCH_BLOCKS {
            y = fold(h, y, &xs);
            n = 0;
        }
    }
    fold(h, y, &xs[..n])
}

#[target_feature(enable = "aes,pclmulqdq,ssse3")]
fn gcm_pass_nr<const NR: usize>(
    rk: &RoundKeys,
    powers: &[Gf128; GHASH_BATCH_BLOCKS],
    packet: &GcmPacket<'_>,
    data: &mut [u8],
) -> [u8; 16] {
    const B: usize = GHASH_BATCH_BLOCKS;
    let keys = Keys::<NR>::load(rk);
    let h = *powers;
    let lane = |k: i32| _mm_set_epi32(0, 0, 0, k);
    let j0 = load(packet.j0());
    // The next payload block's counter, byte-swapped: `inc32` is a 32-bit
    // add on the low lane.
    let mut next = _mm_add_epi32(swap(j0), lane(1));
    let mut counters = || -> [__m128i; B] {
        let c = std::array::from_fn(|k| swap(_mm_add_epi32(next, lane(k as i32))));
        next = _mm_add_epi32(next, lane(B as i32));
        c
    };
    let ct_bits = (data.len() as u64) * 8;
    let mut y = hash_padded(&h, Gf128::ZERO, packet.aad());

    let (blocks, tail) = data.as_chunks_mut::<16>();
    let (batches, left) = blocks.as_chunks_mut::<B>();
    match packet.direction() {
        PassDirection::Seal => {
            // GHASH lags one batch behind the keystream.
            let mut lag: Option<[__m128i; B]> = None;
            for batch in batches.iter_mut() {
                let ctr = counters();
                let ks = match &lag {
                    None => keys.encrypt(ctr),
                    Some(x) => {
                        let (ks, folded) = keys.encrypt_folding(ctr, &h, y, x);
                        y = folded;
                        ks
                    }
                };
                let mut swapped = [_mm_setzero_si128(); B];
                for ((block, k), x) in batch.iter_mut().zip(ks).zip(&mut swapped) {
                    let c = _mm_xor_si128(load(block), k);
                    store(block, c);
                    *x = swap(c);
                }
                lag = Some(swapped);
            }
            if let Some(x) = &lag {
                y = fold(&h, y, x);
            }
        }
        PassDirection::Open => {
            for batch in batches.iter_mut() {
                let ctr = counters();
                let c = batch.each_ref().map(load);
                let (ks, folded) = keys.encrypt_folding(ctr, &h, y, &c.map(|v| swap(v)));
                y = folded;
                for ((block, c), k) in batch.iter_mut().zip(c).zip(ks) {
                    store(block, _mm_xor_si128(c, k));
                }
            }
        }
    }

    // The leftover, four states per call: `J0` first, then one counter
    // per remaining block (the last one maybe partial).
    let n = tail.len();
    let mut last = [0u8; 16];
    last[..n].copy_from_slice(tail);
    let m = left.len() + usize::from(n > 0);
    let ctr = counters();
    let mut s = [_mm_setzero_si128(); 4 + B];
    s[0] = j0;
    s[1..=m].copy_from_slice(&ctr[..m]);
    for group in s[..(m + 1).div_ceil(4) * 4].chunks_exact_mut(4) {
        let group: &mut [__m128i; 4] = group.try_into().expect("four states");
        *group = keys.encrypt(*group);
    }
    let (mask, ks) = (s[0], &s[1..=m]);
    // GHASH takes the leftover ciphertext, zero-padded, then the length
    // block `len(A) ‖ len(C)`.
    let mut x = [_mm_setzero_si128(); B + 1];
    for (i, (block, &k)) in left.iter_mut().chain([&mut last]).zip(ks).enumerate() {
        let input = load(block);
        let out = _mm_xor_si128(input, k);
        store(block, out);
        x[i] = swap(match packet.direction() {
            PassDirection::Seal => out,
            PassDirection::Open => input,
        });
    }
    if n > 0 {
        tail.copy_from_slice(&last[..n]);
        if packet.direction() == PassDirection::Seal {
            // The partial block's keystream past `n` is not ciphertext.
            last[n..].fill(0);
            x[m - 1] = swap(load(&last));
        }
    }
    let aad_bits = (packet.aad().len() as u64) * 8;
    x[m] = from_gf(Gf128((u128::from(aad_bits) << 64) | u128::from(ct_bits)));
    for chunk in x[..=m].chunks(B) {
        y = fold(&h, y, chunk);
    }
    let mut tag = [0u8; 16];
    store(&mut tag, _mm_xor_si128(swap(from_gf(y)), mask));
    tag
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
        PassDirection::Seal => {
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
        PassDirection::Open => {
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

    /// The stitched GCM pass against the two-pass default from a `J0`
    /// whose low word wraps inside the packet: `inc32` must carry nothing
    /// into the upper 96 bits. Three whole batches plus a leftover, from
    /// low words that wrap in the first block, inside a batch, at a
    /// batch edge and in the leftover, both directions, every key size.
    #[test]
    fn gcm_pass_counter_wraps_inc32_across_batches() {
        use crate::modes::gcm::{gcm_pass_two_pass, GcmPacket};
        use crate::modes::PassDirection;
        use crate::{Aes, BlockCipher128};
        use mccp_gf128::GhashPowers;

        if !gcm_supported() {
            eprintln!("AES-NI/PCLMULQDQ/SSSE3 not available on this host; skipping");
            return;
        }
        let payload: Vec<u8> = (0..3 * 128 + 40u32).map(|i| (i * 13 % 251) as u8).collect();
        let aad = [0x5Eu8; 20];
        for len in [16usize, 24, 32] {
            let aes = Aes::new(&[0x6Bu8; 32][..len]);
            let powers = GhashPowers::new(Gf128::from_bytes(&aes.encrypt_copy(&[0u8; 16])));
            let clmul = powers.clmul_powers().expect("PCLMULQDQ host");
            for low in [0xFFFF_FFF0u32, 0xFFFF_FFFF, 0xFFFF_FFF7, 0xFFFF_FFE5] {
                let mut j0 = [0xC7u8; 16];
                j0[12..].copy_from_slice(&low.to_be_bytes());
                for direction in [PassDirection::Seal, PassDirection::Open] {
                    let packet = GcmPacket::new(direction, j0, &aad, &powers);
                    let (mut stitched, mut reference) = (payload.clone(), payload.clone());
                    // SAFETY: `gcm_supported()` returned true above.
                    let tag = unsafe { gcm_pass(aes.round_keys(), clmul, &packet, &mut stitched) };
                    let expect = gcm_pass_two_pass(&aes, &packet, &mut reference);
                    let at = format!("key {len}, low word {low:#x}, {direction:?}");
                    assert_eq!(stitched, reference, "{at}");
                    assert_eq!(tag, expect, "{at}");
                }
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
