//! The AES key expansion (FIPS-197 §5.2).
//!
//! In the MCCP this work is performed once per session by the **Key
//! Scheduler** block and the resulting round keys are pushed into each
//! Cryptographic Core's **Key Cache**; the cores themselves never see the
//! session key. [`RoundKeys`] is exactly that cache content.

use crate::sbox::sub_byte;

/// AES key size selector. Carries the FIPS-197 `Nk`/`Nr` parameters and the
/// MCCP's per-block hardware latency for the column-serial AES core.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeySize {
    Aes128,
    Aes192,
    Aes256,
}

impl KeySize {
    /// Key length in 32-bit words (`Nk`).
    pub fn nk(self) -> usize {
        match self {
            KeySize::Aes128 => 4,
            KeySize::Aes192 => 6,
            KeySize::Aes256 => 8,
        }
    }

    /// Number of rounds (`Nr`).
    pub fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }

    /// Key length in bytes.
    pub fn key_bytes(self) -> usize {
        self.nk() * 4
    }

    /// Key length in bits.
    pub fn key_bits(self) -> usize {
        self.nk() * 32
    }

    /// Hardware cycles per block on the MCCP's iterative 32-bit AES core
    /// (paper §V.A): 44 / 52 / 60. One column per cycle: 4 cycles for the
    /// initial AddRoundKey plus 4 cycles per round.
    pub fn aes_core_cycles(self) -> u32 {
        4 + 4 * self.rounds() as u32
    }

    /// Selects the key size for a key of `len` bytes, if valid.
    pub fn from_key_len(len: usize) -> Option<KeySize> {
        match len {
            16 => Some(KeySize::Aes128),
            24 => Some(KeySize::Aes192),
            32 => Some(KeySize::Aes256),
            _ => None,
        }
    }
}

/// An expanded AES key schedule: `Nr + 1` round keys of 16 bytes.
///
/// Dropping a schedule wipes it: round key 0 *is* the session key (its
/// first 16 bytes for AES-192/256), so a closed, rekeyed or evicted
/// channel must not leave it in freed memory.
#[derive(Clone)]
pub struct RoundKeys {
    key_size: KeySize,
    /// Up to 15 round keys (AES-256); only the first `Nr + 1` are used.
    keys: [[u8; 16]; 15],
}

impl Drop for RoundKeys {
    fn drop(&mut self) {
        mccp_gf128::wipe(&mut self.keys);
    }
}

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36];

impl RoundKeys {
    /// Expands a 16/24/32-byte key.
    ///
    /// # Panics
    /// Panics on any other key length.
    pub fn expand(key: &[u8]) -> RoundKeys {
        let key_size = KeySize::from_key_len(key.len())
            .unwrap_or_else(|| panic!("invalid AES key length: {} bytes", key.len()));
        let nk = key_size.nk();
        let nr = key_size.rounds();
        let total_words = 4 * (nr + 1);

        let mut w = [[0u8; 4]; 60];
        for (i, word) in w.iter_mut().enumerate().take(nk) {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1); // RotWord
                for b in temp.iter_mut() {
                    *b = sub_byte(*b); // SubWord
                }
                temp[0] ^= RCON[i / nk - 1];
            } else if nk > 6 && i % nk == 4 {
                for b in temp.iter_mut() {
                    *b = sub_byte(*b);
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }

        let mut keys = [[0u8; 16]; 15];
        for (r, rk) in keys.iter_mut().enumerate().take(nr + 1) {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        RoundKeys { key_size, keys }
    }

    /// The key size this schedule was expanded from.
    pub fn key_size(&self) -> KeySize {
        self.key_size
    }

    /// Number of rounds (`Nr`).
    pub fn rounds(&self) -> usize {
        self.key_size.rounds()
    }

    /// The round key for round `r` (0 = initial AddRoundKey).
    ///
    /// # Panics
    /// Panics if `r > Nr`.
    pub fn round_key(&self, r: usize) -> &[u8; 16] {
        assert!(r <= self.rounds(), "round {r} out of range");
        &self.keys[r]
    }

    /// Iterator over all `Nr + 1` round keys in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8; 16]> {
        self.keys.iter().take(self.rounds() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word(rk: &RoundKeys, i: usize) -> [u8; 4] {
        let r = i / 4;
        let c = i % 4;
        let k = rk.round_key(r);
        [k[4 * c], k[4 * c + 1], k[4 * c + 2], k[4 * c + 3]]
    }

    #[test]
    fn fips197_appendix_a1_aes128() {
        // Key expansion example, FIPS-197 A.1.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let rk = RoundKeys::expand(&key);
        assert_eq!(word(&rk, 4), [0xa0, 0xfa, 0xfe, 0x17]);
        assert_eq!(word(&rk, 10), [0x59, 0x35, 0x80, 0x7a]);
        assert_eq!(word(&rk, 43), [0xb6, 0x63, 0x0c, 0xa6]);
    }

    #[test]
    fn fips197_appendix_a2_aes192() {
        let key = [
            0x8e, 0x73, 0xb0, 0xf7, 0xda, 0x0e, 0x64, 0x52, 0xc8, 0x10, 0xf3, 0x2b, 0x80, 0x90,
            0x79, 0xe5, 0x62, 0xf8, 0xea, 0xd2, 0x52, 0x2c, 0x6b, 0x7b,
        ];
        let rk = RoundKeys::expand(&key);
        assert_eq!(word(&rk, 6), [0xfe, 0x0c, 0x91, 0xf7]);
        assert_eq!(word(&rk, 51), [0x01, 0x00, 0x22, 0x02]);
    }

    #[test]
    fn fips197_appendix_a3_aes256() {
        let key = [
            0x60, 0x3d, 0xeb, 0x10, 0x15, 0xca, 0x71, 0xbe, 0x2b, 0x73, 0xae, 0xf0, 0x85, 0x7d,
            0x77, 0x81, 0x1f, 0x35, 0x2c, 0x07, 0x3b, 0x61, 0x08, 0xd7, 0x2d, 0x98, 0x10, 0xa3,
            0x09, 0x14, 0xdf, 0xf4,
        ];
        let rk = RoundKeys::expand(&key);
        assert_eq!(word(&rk, 8), [0x9b, 0xa3, 0x54, 0x11]);
        assert_eq!(word(&rk, 59), [0x70, 0x6c, 0x63, 0x1e]);
    }

    #[test]
    fn round_counts() {
        assert_eq!(RoundKeys::expand(&[0u8; 16]).rounds(), 10);
        assert_eq!(RoundKeys::expand(&[0u8; 24]).rounds(), 12);
        assert_eq!(RoundKeys::expand(&[0u8; 32]).rounds(), 14);
    }

    #[test]
    fn aes_core_cycles_match_paper() {
        assert_eq!(KeySize::Aes128.aes_core_cycles(), 44);
        assert_eq!(KeySize::Aes192.aes_core_cycles(), 52);
        assert_eq!(KeySize::Aes256.aes_core_cycles(), 60);
    }

    #[test]
    fn drop_wipes_the_schedule() {
        let mut slot = std::mem::ManuallyDrop::new(RoundKeys::expand(&[0x5Au8; 16]));
        assert_eq!(slot.round_key(0), &[0x5Au8; 16]);
        // SAFETY: `slot` is dropped exactly once and owns no heap memory,
        // so its bytes stay readable after the destructor for the check.
        unsafe { std::mem::ManuallyDrop::drop(&mut slot) };
        assert!(slot.keys.iter().all(|rk| rk == &[0u8; 16]));
    }

    #[test]
    #[should_panic(expected = "invalid AES key length")]
    fn bad_key_length_panics() {
        let _ = RoundKeys::expand(&[0u8; 20]);
    }
}
