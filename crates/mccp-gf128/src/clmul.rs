//! Carry-less-multiply GHASH for the batched kernel path (x86-64
//! PCLMULQDQ).
//!
//! `PCLMULQDQ` multiplies two 64-bit polynomials over GF(2) in one
//! instruction, so a full 128 × 128-bit field product is four of them plus
//! one reduction — no per-key tables at all. This is the Gueron–Kounavis
//! method of Intel's CLMUL/GCM white paper. Its bit-reflected operands are
//! exactly [`Gf128`]'s representation (bit 127 of the `u128` is the
//! coefficient of `x^0`), so an element loads as a 128-bit register value
//! with no byte swap:
//!
//! * the carry-less product of two reflected operands is the 255-bit
//!   reflection of the true product; one left shift makes it the 256-bit
//!   reflection, whose high half is the low-degree half of the product in
//!   GCM order and whose low half is the overflow `q` with the true product
//!   `= high + q·x^128`;
//! * `x^128 ≡ x^7 + x^2 + x + 1`, and `q·(1 + x + x^2 + x^7)` is `q` XORed
//!   with its right shifts by 1, 2 and 7 once the bits those shifts drop
//!   (degree ≥ 128, all in `q`'s low word) are folded back into `q`'s high
//!   word first.
//!
//! [`fold`] accumulates the eight unreduced products of one batch and
//! reduces once, so a batch costs 32 carry-less multiplies and a single
//! reduction.
//!
//! Detection is at run time (`is_x86_feature_detected!`), like
//! `mccp_aes::aesni`; [`crate::GhashPowers`] picks this arm once per key
//! and keeps the Shoup-table arm for every other host. Both arms give
//! bit-identical results: the unit tests below check this arm against the
//! bitwise multiplier, and `ghash.rs` and the kernel-equivalence suite
//! check both batched arms against the serial Shoup GHASH.

#![cfg(target_arch = "x86_64")]

use crate::element::Gf128;
use crate::ghash::{GHASH_BATCH_BLOCKS, GHASH_BATCH_BYTES};
use std::arch::x86_64::{__m128i, _mm_clmulepi64_si128, _mm_xor_si128};

/// True when the host can run [`mul`] and [`fold`]. The detection macro
/// caches its CPUID probe, so calling this per key is fine.
#[inline]
pub fn supported() -> bool {
    std::arch::is_x86_feature_detected!("pclmulqdq")
}

/// Multiplies two field elements.
///
/// # Safety
/// Caller must ensure [`supported`] returned true on this host.
#[target_feature(enable = "pclmulqdq")]
pub unsafe fn mul(a: Gf128, b: Gf128) -> Gf128 {
    let mut acc = Partial::default();
    acc.add_product(a, b);
    acc.reduce()
}

/// Folds eight 16-byte blocks into the running hash `y`:
/// `(y + X₁)·H⁸ + X₂·H⁷ + … + X₈·H¹`, with `powers[i] = H^(i+1)`.
///
/// # Safety
/// Caller must ensure [`supported`] returned true on this host.
#[target_feature(enable = "pclmulqdq")]
pub unsafe fn fold(
    powers: &[Gf128; GHASH_BATCH_BLOCKS],
    y: Gf128,
    blocks: &[u8; GHASH_BATCH_BYTES],
) -> Gf128 {
    let mut acc = Partial::default();
    for (i, block) in blocks.chunks_exact(16).enumerate() {
        let x = Gf128::from_bytes(block.try_into().expect("16-byte block"));
        let x = if i == 0 { y + x } else { x };
        acc.add_product(x, powers[GHASH_BATCH_BLOCKS - 1 - i]);
    }
    acc.reduce()
}

/// A sum of unreduced 256-bit carry-less products, kept as the three
/// partial products of the schoolbook split `a = a₁x⁶⁴ + a₀`:
/// `lo = Σ a₀b₀`, `mid = Σ (a₁b₀ + a₀b₁)`, `hi = Σ a₁b₁` (64-bit halves
/// by register lane).
struct Partial {
    lo: __m128i,
    mid: __m128i,
    hi: __m128i,
}

impl Default for Partial {
    fn default() -> Self {
        let zero = to_m128(0);
        Partial {
            lo: zero,
            mid: zero,
            hi: zero,
        }
    }
}

impl Partial {
    /// XORs the unreduced product `a·b` into the sum.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn add_product(&mut self, a: Gf128, b: Gf128) {
        let (a, b) = (to_m128(a.0), to_m128(b.0));
        self.lo = _mm_xor_si128(self.lo, _mm_clmulepi64_si128::<0x00>(a, b));
        self.mid = _mm_xor_si128(self.mid, _mm_clmulepi64_si128::<0x01>(a, b));
        self.mid = _mm_xor_si128(self.mid, _mm_clmulepi64_si128::<0x10>(a, b));
        self.hi = _mm_xor_si128(self.hi, _mm_clmulepi64_si128::<0x11>(a, b));
    }

    /// Reduces the sum modulo `x^128 + x^7 + x^2 + x + 1`.
    #[inline]
    fn reduce(self) -> Gf128 {
        let mid = from_m128(self.mid);
        let lo = from_m128(self.lo) ^ (mid << 64);
        let hi = from_m128(self.hi) ^ (mid >> 64);
        // Reflected 255-bit product → reflected 256-bit product.
        let hi = (hi << 1) | (lo >> 127);
        let lo = lo << 1;
        // Fold the bits that `lo >> {1, 2, 7}` would drop back into the
        // high word, then multiply by `1 + x + x^2 + x^7`.
        let x0 = lo as u64;
        let x1 = (lo >> 64) as u64;
        let d = x1 ^ (x0 << 63) ^ (x0 << 62) ^ (x0 << 57);
        let dx = ((d as u128) << 64) | x0 as u128;
        Gf128(hi ^ dx ^ (dx >> 1) ^ (dx >> 2) ^ (dx >> 7))
    }
}

#[inline(always)]
fn to_m128(x: u128) -> __m128i {
    // SAFETY: `u128` and `__m128i` are both 16 bytes of plain integer data,
    // and every bit pattern is valid for either. On little-endian x86-64
    // the low 64 bits land in lane 0.
    unsafe { std::mem::transmute::<u128, __m128i>(x) }
}

#[inline(always)]
fn from_m128(x: __m128i) -> u128 {
    // SAFETY: as in `to_m128`, the inverse reinterpretation.
    unsafe { std::mem::transmute::<__m128i, u128>(x) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    /// Zero, one (the single bit 127), all ones, and single bits 0, 63
    /// and 64 around the register's lane boundary.
    fn edge_cases() -> Vec<Gf128> {
        vec![
            Gf128::ZERO,
            Gf128::ONE,
            Gf128(u128::MAX),
            Gf128(1),
            Gf128(1 << 63),
            Gf128(1 << 64),
        ]
    }

    #[test]
    fn mul_matches_bitwise_on_edge_cases() {
        if !supported() {
            eprintln!("PCLMULQDQ not available on this host; skipping");
            return;
        }
        let cases = edge_cases();
        for &a in &cases {
            for &b in &cases {
                // SAFETY: feature presence checked above.
                let got = unsafe { mul(a, b) };
                assert_eq!(got, a.mul_bitwise(b), "a = {a:?}, b = {b:?}");
            }
        }
    }

    #[test]
    fn mul_matches_bitwise_on_seeded_pairs() {
        if !supported() {
            eprintln!("PCLMULQDQ not available on this host; skipping");
            return;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6C6D_756C);
        let mut element = || {
            let mut bytes = [0u8; 16];
            rng.fill_bytes(&mut bytes);
            Gf128::from_bytes(&bytes)
        };
        for _ in 0..2000 {
            let (a, b) = (element(), element());
            // SAFETY: feature presence checked above.
            let got = unsafe { mul(a, b) };
            assert_eq!(got, a.mul_bitwise(b), "a = {a:?}, b = {b:?}");
        }
    }
}
