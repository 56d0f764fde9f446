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
