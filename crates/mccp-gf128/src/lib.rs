//! # mccp-gf128 — GF(2^128) arithmetic and GHASH
//!
//! Arithmetic in the binary field GF(2^128) as used by the Galois/Counter
//! Mode of operation (NIST SP 800-38D), plus:
//!
//! * [`Gf128`] — a field element with the GCM bit ordering, supporting
//!   addition (XOR), multiplication, squaring, exponentiation and inversion.
//! * [`ghash::GhashKey`] / [`ghash::Ghash`] — the GHASH universal hash,
//!   both one-shot and incremental, accelerated with Shoup's 8-bit tables
//!   (one 256-entry table per key). This serial arm is the reference.
//! * [`ghash::GhashPowers`] / [`ghash::GhashBatched`] — the batched GHASH
//!   the packet path runs: eight blocks per step against `H^1..H^8`. The
//!   CPU picks its arm once per key: PCLMULQDQ carry-less multiplies
//!   ([`clmul`], runtime-detected on x86-64) with the powers held as eight
//!   plain elements, or one Shoup table per power everywhere else.
//! * [`digit_serial::DigitSerialMultiplier`] — a cycle-counted model of the
//!   digit-serial (3-bit digit) hardware multiplier the paper's GHASH core
//!   uses, which completes one 128-bit multiplication in **43 clock cycles**
//!   (Lemsitzer et al., CHES'07 — reference \[1\] of the paper).
//! * [`wipe`] — the zeroizer that key-state destructors run
//!   ([`GhashPowers`] here, `mccp_aes::RoundKeys` one crate up).
//!
//! ## Bit ordering
//!
//! GCM reads blocks most-significant-bit first: the first (leftmost) bit of
//! the 16-byte block is the coefficient of `x^0`. Internally an element is a
//! `u128` built from big-endian bytes, so **bit 127 of the `u128` is the
//! coefficient of `x^0`** and "multiply by `x`" is a *right* shift with
//! conditional reduction by the field polynomial
//! `x^128 + x^7 + x^2 + x + 1` (reduction constant `0xE1 << 120`).
//!
//! ```
//! use mccp_gf128::Gf128;
//!
//! let h = Gf128::from_bytes(&[0x66, 0xe9, 0x4b, 0xd4, 0xef, 0x8a, 0x2c, 0x3b,
//!                             0x88, 0x4c, 0xfa, 0x59, 0xca, 0x34, 0x2b, 0x2e]);
//! assert_eq!(h * Gf128::ONE, h);
//! assert_eq!(h * h.inverse(), Gf128::ONE);
//! ```

pub mod clmul;
pub mod digit_serial;
pub mod element;
pub mod ghash;

pub use element::Gf128;
pub use ghash::{
    ghash, ghash_batched, Ghash, GhashBatched, GhashKey, GhashPowers, GHASH_BATCH_BLOCKS,
    GHASH_BATCH_BYTES,
};

/// Overwrites every element of `words` with `T::default()` — zero for the
/// integer arrays and [`Gf128`]s key state is made of — one volatile store
/// each, so the compiler cannot drop the stores as dead writes to memory
/// about to be freed. 16-byte elements (`Gf128`, a `[u8; 16]` round key)
/// compile to two word-sized stores each.
pub fn wipe<T: Copy + Default>(words: &mut [T]) {
    for w in words {
        // SAFETY: `w` is a valid, aligned, exclusive reference to an
        // initialised `T`, and `T: Copy` has no destructor to skip.
        unsafe { std::ptr::write_volatile(w, T::default()) };
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn wipe_zeroes_every_word() {
        let mut rows = [[0xA5u8; 16]; 15];
        super::wipe(&mut rows);
        assert_eq!(rows, [[0u8; 16]; 15]);
        let mut powers = [super::Gf128::ONE; 8];
        super::wipe(&mut powers[..3]);
        assert_eq!(powers[..3], [super::Gf128::ZERO; 3]);
        assert_eq!(powers[3..], [super::Gf128::ONE; 5], "only the slice given");
    }
}
