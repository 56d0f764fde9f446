//! The AES round transformations (FIPS-197 §5.1/§5.3) on 16-byte blocks.
//!
//! The state is kept in the block's natural byte order: byte `i` of the
//! block is state element `s[i % 4][i / 4]` (column-major), matching the
//! specification's input mapping.

use crate::key_schedule::RoundKeys;
use crate::sbox::{gf256_mul, sub_byte};

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = sub_byte(*b);
    }
}

/// ShiftRows: row `r` (bytes `r, r+4, r+8, r+12`) rotates left by `r`.
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
        }
    }
}

/// MixColumns on a single 4-byte column.
#[inline]
pub(crate) fn mix_column(col: &mut [u8; 4]) {
    let [a0, a1, a2, a3] = *col;
    col[0] = gf256_mul(a0, 2) ^ gf256_mul(a1, 3) ^ a2 ^ a3;
    col[1] = a0 ^ gf256_mul(a1, 2) ^ gf256_mul(a2, 3) ^ a3;
    col[2] = a0 ^ a1 ^ gf256_mul(a2, 2) ^ gf256_mul(a3, 3);
    col[3] = gf256_mul(a0, 3) ^ a1 ^ a2 ^ gf256_mul(a3, 2);
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let mut col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        mix_column(&mut col);
        state[4 * c..4 * c + 4].copy_from_slice(&col);
    }
}

/// Encrypts one block in place with a pre-expanded key schedule.
pub fn encrypt_with_round_keys(rk: &RoundKeys, block: &mut [u8; 16]) {
    let nr = rk.rounds();
    add_round_key(block, rk.round_key(0));
    for round in 1..nr {
        sub_bytes(block);
        shift_rows(block);
        mix_columns(block);
        add_round_key(block, rk.round_key(round));
    }
    sub_bytes(block);
    shift_rows(block);
    add_round_key(block, rk.round_key(nr));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn fips197_appendix_b() {
        let key = hex16("2b7e151628aed2a6abf7158809cf4f3c");
        let rk = RoundKeys::expand(&key);
        let mut block = hex16("3243f6a8885a308d313198a2e0370734");
        encrypt_with_round_keys(&rk, &mut block);
        assert_eq!(block, hex16("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn fips197_appendix_c1_aes128() {
        let rk = RoundKeys::expand(&hex16("000102030405060708090a0b0c0d0e0f"));
        let mut block = hex16("00112233445566778899aabbccddeeff");
        encrypt_with_round_keys(&rk, &mut block);
        assert_eq!(block, hex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn fips197_appendix_c2_aes192() {
        let mut key = [0u8; 24];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let rk = RoundKeys::expand(&key);
        let mut block = hex16("00112233445566778899aabbccddeeff");
        encrypt_with_round_keys(&rk, &mut block);
        assert_eq!(block, hex16("dda97ca4864cdfe06eaf70a0ec0d7191"));
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let rk = RoundKeys::expand(&key);
        let mut block = hex16("00112233445566778899aabbccddeeff");
        encrypt_with_round_keys(&rk, &mut block);
        assert_eq!(block, hex16("8ea2b7ca516745bfeafc49904b496089"));
    }

    #[test]
    fn mix_column_fips_example() {
        // FIPS-197 §5.1.3 example column from the B.1 trace (round 1).
        let mut col = [0xd4, 0xbf, 0x5d, 0x30];
        mix_column(&mut col);
        assert_eq!(col, [0x04, 0x66, 0x81, 0xe5]);
    }
}
