//! Twofish (Schneier et al., AES finalist) — the paper's example of a
//! 128-bit block cipher that can replace AES in the Cryptographic Unit via
//! partial reconfiguration ("AES core may be easily replaced by any other
//! 128-bit block cipher (such as Twofish)", §IX).
//!
//! Implementing it as a second [`BlockCipher128`] proves the mode layer and
//! the Cryptographic Unit abstraction really are cipher-agnostic.

use crate::cipher::BlockCipher128;

/// GF(2^8) multiplication with a selectable reduction polynomial
/// (0x169 for the MDS matrix, 0x14D for the RS matrix).
fn gf_mul(mut a: u8, mut b: u8, poly: u16) -> u8 {
    let mut acc = 0u8;
    for _ in 0..8 {
        if b & 1 == 1 {
            acc ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= (poly & 0xFF) as u8;
        }
        b >>= 1;
    }
    acc
}

const MDS_POLY: u16 = 0x169;
const RS_POLY: u16 = 0x14D;

const MDS: [[u8; 4]; 4] = [
    [0x01, 0xEF, 0x5B, 0x5B],
    [0x5B, 0xEF, 0xEF, 0x01],
    [0xEF, 0x5B, 0x01, 0xEF],
    [0xEF, 0x01, 0xEF, 0x5B],
];

const RS: [[u8; 8]; 4] = [
    [0x01, 0xA4, 0x55, 0x87, 0x5A, 0x58, 0xDB, 0x9E],
    [0xA4, 0x56, 0x82, 0xF3, 0x1E, 0xC6, 0x68, 0xE5],
    [0x02, 0xA1, 0xFC, 0xC1, 0x47, 0xAE, 0x3D, 0x19],
    [0xA4, 0x55, 0x87, 0x5A, 0x58, 0xDB, 0x9E, 0x03],
];

/// Builds the fixed permutations q0/q1 from their 4-bit t-tables.
fn build_q(t: [[u8; 16]; 4]) -> [u8; 256] {
    let ror4 = |x: u8| (x >> 1) | ((x & 1) << 3);
    let mut q = [0u8; 256];
    for (x, out) in q.iter_mut().enumerate() {
        let a0 = (x >> 4) as u8;
        let b0 = (x & 0xF) as u8;
        let a1 = a0 ^ b0;
        let b1 = (a0 ^ ror4(b0) ^ (8 * a0)) & 0xF;
        let a2 = t[0][a1 as usize];
        let b2 = t[1][b1 as usize];
        let a3 = a2 ^ b2;
        let b3 = (a2 ^ ror4(b2) ^ (8 * a2)) & 0xF;
        let a4 = t[2][a3 as usize];
        let b4 = t[3][b3 as usize];
        *out = (b4 << 4) | a4;
    }
    q
}

fn q_tables() -> ([u8; 256], [u8; 256]) {
    let q0 = build_q([
        [
            0x8, 0x1, 0x7, 0xD, 0x6, 0xF, 0x3, 0x2, 0x0, 0xB, 0x5, 0x9, 0xE, 0xC, 0xA, 0x4,
        ],
        [
            0xE, 0xC, 0xB, 0x8, 0x1, 0x2, 0x3, 0x5, 0xF, 0x4, 0xA, 0x6, 0x7, 0x0, 0x9, 0xD,
        ],
        [
            0xB, 0xA, 0x5, 0xE, 0x6, 0xD, 0x9, 0x0, 0xC, 0x8, 0xF, 0x3, 0x2, 0x4, 0x7, 0x1,
        ],
        [
            0xD, 0x7, 0xF, 0x4, 0x1, 0x2, 0x6, 0xE, 0x9, 0xB, 0x3, 0x0, 0x8, 0x5, 0xC, 0xA,
        ],
    ]);
    let q1 = build_q([
        [
            0x2, 0x8, 0xB, 0xD, 0xF, 0x7, 0x6, 0xE, 0x3, 0x1, 0x9, 0x4, 0x0, 0xA, 0xC, 0x5,
        ],
        [
            0x1, 0xE, 0x2, 0xB, 0x4, 0xC, 0x3, 0x7, 0x6, 0xD, 0xA, 0x5, 0xF, 0x9, 0x0, 0x8,
        ],
        [
            0x4, 0xC, 0x7, 0x5, 0x1, 0x6, 0x9, 0xA, 0x0, 0xE, 0xD, 0x8, 0x2, 0xB, 0x3, 0xF,
        ],
        [
            0xB, 0x9, 0x5, 0x1, 0xC, 0x3, 0xD, 0xE, 0x6, 0x4, 0x7, 0xF, 0x2, 0x0, 0x8, 0xA,
        ],
    ]);
    (q0, q1)
}

/// The `h` function of the Twofish specification (§4.3.2).
fn h(x: u32, l: &[u32], q0: &[u8; 256], q1: &[u8; 256]) -> u32 {
    let k = l.len();
    let byte = |w: u32, i: usize| ((w >> (8 * i)) & 0xFF) as u8;
    let mut y = [byte(x, 0), byte(x, 1), byte(x, 2), byte(x, 3)];
    if k == 4 {
        y[0] = q1[y[0] as usize] ^ byte(l[3], 0);
        y[1] = q0[y[1] as usize] ^ byte(l[3], 1);
        y[2] = q0[y[2] as usize] ^ byte(l[3], 2);
        y[3] = q1[y[3] as usize] ^ byte(l[3], 3);
    }
    if k >= 3 {
        y[0] = q1[y[0] as usize] ^ byte(l[2], 0);
        y[1] = q1[y[1] as usize] ^ byte(l[2], 1);
        y[2] = q0[y[2] as usize] ^ byte(l[2], 2);
        y[3] = q0[y[3] as usize] ^ byte(l[2], 3);
    }
    y[0] = q1[(q0[(q0[y[0] as usize] ^ byte(l[1], 0)) as usize] ^ byte(l[0], 0)) as usize];
    y[1] = q0[(q0[(q1[y[1] as usize] ^ byte(l[1], 1)) as usize] ^ byte(l[0], 1)) as usize];
    y[2] = q1[(q1[(q0[y[2] as usize] ^ byte(l[1], 2)) as usize] ^ byte(l[0], 2)) as usize];
    y[3] = q0[(q1[(q1[y[3] as usize] ^ byte(l[1], 3)) as usize] ^ byte(l[0], 3)) as usize];
    // MDS multiply.
    let mut z = 0u32;
    for (i, row) in MDS.iter().enumerate() {
        let mut acc = 0u8;
        for (j, &m) in row.iter().enumerate() {
            acc ^= gf_mul(m, y[j], MDS_POLY);
        }
        z |= (acc as u32) << (8 * i);
    }
    z
}

/// A Twofish cipher instance with a pre-computed key schedule.
#[derive(Clone)]
pub struct Twofish {
    /// 40 round subkeys.
    k: [u32; 40],
    /// S-box key words (length k, already reversed per spec).
    s: Vec<u32>,
    q0: [u8; 256],
    q1: [u8; 256],
    key_bits: usize,
}

impl Twofish {
    /// Builds a cipher from a 16-, 24- or 32-byte key.
    ///
    /// # Panics
    /// Panics on any other key length.
    pub fn new(key: &[u8]) -> Self {
        assert!(
            matches!(key.len(), 16 | 24 | 32),
            "invalid Twofish key length: {} bytes",
            key.len()
        );
        let (q0, q1) = q_tables();
        let kw = key.len() / 8; // k in 64-bit units

        let word = |i: usize| {
            u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]])
        };
        let me: Vec<u32> = (0..kw).map(|i| word(2 * i)).collect();
        let mo: Vec<u32> = (0..kw).map(|i| word(2 * i + 1)).collect();

        // S_i = RS * key[8i..8i+8]; S list is reversed.
        let mut s = Vec::with_capacity(kw);
        for i in (0..kw).rev() {
            let m = &key[8 * i..8 * i + 8];
            let mut w = 0u32;
            for (r, row) in RS.iter().enumerate() {
                let mut acc = 0u8;
                for (j, &c) in row.iter().enumerate() {
                    acc ^= gf_mul(c, m[j], RS_POLY);
                }
                w |= (acc as u32) << (8 * r);
            }
            s.push(w);
        }

        const RHO: u32 = 0x0101_0101;
        let mut k = [0u32; 40];
        for i in 0..20u32 {
            let a = h(2 * i * RHO, &me, &q0, &q1);
            let b = h((2 * i + 1).wrapping_mul(RHO), &mo, &q0, &q1).rotate_left(8);
            k[2 * i as usize] = a.wrapping_add(b);
            k[2 * i as usize + 1] = a.wrapping_add(b.wrapping_mul(2)).rotate_left(9);
        }

        Twofish {
            k,
            s,
            q0,
            q1,
            key_bits: key.len() * 8,
        }
    }

    /// Key size in bits (128, 192 or 256).
    pub fn key_bits(&self) -> usize {
        self.key_bits
    }

    fn g(&self, x: u32) -> u32 {
        h(x, &self.s, &self.q0, &self.q1)
    }
}

impl BlockCipher128 for Twofish {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        let mut r = [0u32; 4];
        for i in 0..4 {
            r[i] = u32::from_le_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"))
                ^ self.k[i];
        }
        for round in 0..16 {
            let t0 = self.g(r[0]);
            let t1 = self.g(r[1].rotate_left(8));
            let f0 = t0.wrapping_add(t1).wrapping_add(self.k[8 + 2 * round]);
            let f1 = t0
                .wrapping_add(t1.wrapping_mul(2))
                .wrapping_add(self.k[9 + 2 * round]);
            let nr2 = (r[2] ^ f0).rotate_right(1);
            let nr3 = r[3].rotate_left(1) ^ f1;
            r = [nr2, nr3, r[0], r[1]];
        }
        // Undo the final swap and apply output whitening.
        let out = [
            r[2] ^ self.k[4],
            r[3] ^ self.k[5],
            r[0] ^ self.k[6],
            r[1] ^ self.k[7],
        ];
        for i in 0..4 {
            block[4 * i..4 * i + 4].copy_from_slice(&out[i].to_le_bytes());
        }
    }

    fn name(&self) -> &'static str {
        match self.key_bits {
            128 => "Twofish-128",
            192 => "Twofish-192",
            _ => "Twofish-256",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn kat_128_zero_key() {
        let tf = Twofish::new(&[0u8; 16]);
        let mut block = [0u8; 16];
        tf.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("9f589f5cf6122c32b6bfec2f2ae8c35a"));
    }

    #[test]
    fn kat_192() {
        let key = hex("0123456789abcdeffedcba98765432100011223344556677");
        let tf = Twofish::new(&key);
        let mut block = [0u8; 16];
        tf.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("cfd1d2e5a9be9cdf501f13b892bd2248"));
    }

    #[test]
    fn kat_256() {
        let key = hex("0123456789abcdeffedcba987654321000112233445566778899aabbccddeeff");
        let tf = Twofish::new(&key);
        let mut block = [0u8; 16];
        tf.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("37527be0052334b89f0cfccae87cfa20"));
    }

    #[test]
    fn works_with_generic_modes() {
        use crate::modes::{gcm_open, gcm_seal};
        let tf = Twofish::new(&[7u8; 16]);
        let ct = gcm_seal(&tf, &[1u8; 12], b"aad", b"twofish-gcm payload", 16).unwrap();
        let pt = gcm_open(&tf, &[1u8; 12], b"aad", &ct, 16).unwrap();
        assert_eq!(pt, b"twofish-gcm payload");
    }

    #[test]
    #[should_panic(expected = "invalid Twofish key length")]
    fn bad_key_len() {
        let _ = Twofish::new(&[0u8; 10]);
    }
}
