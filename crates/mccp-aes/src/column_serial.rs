//! Functional model of the Chodowiec–Gaj 32-bit column-serial AES datapath
//! (CHES 2003), the compact iterative core the paper's Cryptographic Unit
//! is built around (§V.A). The simulated CU does not run this model: it
//! runs the byte-wise datapath ([`crate::block`]) and charges
//! [`KeySize::aes_core_cycles`](crate::KeySize::aes_core_cycles) per block.
//! This model is the structural check of that constant.
//!
//! The hardware processes **one 32-bit state column per clock cycle**:
//! 4 cycles for the initial AddRoundKey, then 4 cycles per round, giving
//! the paper's block latencies of
//! `4 + 4·Nr` = **44 / 52 / 60** cycles for 128 / 192 / 256-bit keys.
//! The SubBytes transformation uses look-up tables (BRAM in hardware), and
//! only the forward (encryption) direction exists — CCM and GCM never need
//! the inverse cipher, and omitting it is what makes the core so compact
//! (522 slices in the original work).
//!
//! This model steps the datapath column by column so the cycle accounting
//! is structural, not just a constant, and asserts bit-exactness against
//! the reference implementation in tests.

use crate::block::mix_column;
use crate::key_schedule::RoundKeys;
use crate::sbox::sub_byte;

/// Result of one serial block encryption: ciphertext plus consumed cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SerialResult {
    pub block: [u8; 16],
    pub cycles: u32,
}

/// Encrypts `block` with the column-serial datapath model, returning the
/// ciphertext and the exact hardware cycle count (44/52/60).
pub fn encrypt_block_serial(rk: &RoundKeys, block: &[u8; 16]) -> SerialResult {
    let nr = rk.rounds();
    let mut state = *block;
    let mut cycles = 0u32;

    // Initial AddRoundKey, one column per cycle.
    let rk0 = rk.round_key(0);
    for c in 0..4 {
        for r in 0..4 {
            state[4 * c + r] ^= rk0[4 * c + r];
        }
        cycles += 1;
    }

    for round in 1..=nr {
        let rkr = rk.round_key(round);
        let prev = state;
        // One output column per cycle. Output column c draws its four input
        // bytes from ShiftRows-selected positions of `prev`, passes them
        // through the S-box, then (except in the last round) MixColumns,
        // then AddRoundKey.
        for c in 0..4 {
            let mut col = [0u8; 4];
            for (r, byte) in col.iter_mut().enumerate() {
                // ShiftRows: output (r, c) takes input (r, c + r mod 4).
                *byte = sub_byte(prev[r + 4 * ((c + r) % 4)]);
            }
            if round != nr {
                mix_column(&mut col);
            }
            for (r, byte) in col.iter().enumerate() {
                state[4 * c + r] = byte ^ rkr[4 * c + r];
            }
            cycles += 1;
        }
    }

    SerialResult {
        block: state,
        cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::encrypt_with_round_keys;
    use crate::key_schedule::KeySize;

    #[test]
    fn matches_reference_and_cycle_budget() {
        for (key_len, expect_cycles) in [(16usize, 44u32), (24, 52), (32, 60)] {
            let key: Vec<u8> = (0..key_len as u8).collect();
            let rk = RoundKeys::expand(&key);
            let mut pt = [0u8; 16];
            for (i, b) in pt.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(31).wrapping_add(5);
            }
            let serial = encrypt_block_serial(&rk, &pt);
            let mut reference = pt;
            encrypt_with_round_keys(&rk, &mut reference);
            assert_eq!(serial.block, reference);
            assert_eq!(serial.cycles, expect_cycles);
            assert_eq!(serial.cycles, rk.key_size().aes_core_cycles());
        }
    }

    #[test]
    fn cycle_formula() {
        assert_eq!(KeySize::Aes128.aes_core_cycles(), 44);
        assert_eq!(KeySize::Aes192.aes_core_cycles(), 52);
        assert_eq!(KeySize::Aes256.aes_core_cycles(), 60);
    }
}
