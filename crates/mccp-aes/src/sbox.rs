//! The AES S-box, computed at compile time from first principles
//! (GF(2^8) inversion + affine transform) rather than embedded as an
//! opaque literal, so a table typo is impossible.

/// Multiplies two elements of GF(2^8) modulo the AES polynomial
/// `x^8 + x^4 + x^3 + x + 1` (0x11B).
pub const fn gf256_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 == 1 {
            acc ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1B;
        }
        b >>= 1;
        i += 1;
    }
    acc
}

/// Multiplicative inverse in GF(2^8) (0 maps to 0), by exhaustive search —
/// fine at compile time.
const fn gf256_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    let mut y = 1u8;
    loop {
        if gf256_mul(a, y) == 1 {
            return y;
        }
        y = y.wrapping_add(1);
    }
}

const fn affine(x: u8) -> u8 {
    // b_i = x_i ^ x_{i+4} ^ x_{i+5} ^ x_{i+6} ^ x_{i+7} ^ c_i, c = 0x63.
    let mut out = 0u8;
    let mut i = 0;
    while i < 8 {
        let bit = ((x >> i)
            ^ (x >> ((i + 4) % 8))
            ^ (x >> ((i + 5) % 8))
            ^ (x >> ((i + 6) % 8))
            ^ (x >> ((i + 7) % 8))
            ^ (0x63 >> i))
            & 1;
        out |= bit << i;
        i += 1;
    }
    out
}

const fn build_sbox() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        t[i] = affine(gf256_inv(i as u8));
        i += 1;
    }
    t
}

/// The AES SubBytes table.
pub const SBOX: [u8; 256] = build_sbox();

/// Applies SubBytes to a single byte.
#[inline]
pub fn sub_byte(b: u8) -> u8 {
    SBOX[b as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_sbox_entries() {
        // Spot checks against FIPS-197 Figure 7.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        assert_eq!(SBOX[0x9a], 0xb8);
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for b in SBOX {
            assert!(!seen[b as usize]);
            seen[b as usize] = true;
        }
    }

    #[test]
    fn gf256_mul_basics() {
        assert_eq!(gf256_mul(0x57, 0x83), 0xc1); // FIPS-197 §4.2 example
        assert_eq!(gf256_mul(0x57, 0x13), 0xfe); // FIPS-197 §4.2.1 example
        assert_eq!(gf256_mul(1, 0xAB), 0xAB);
        assert_eq!(gf256_mul(0, 0xAB), 0);
    }
}
