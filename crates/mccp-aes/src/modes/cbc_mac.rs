//! CBC-MAC (FIPS 113 style) — the authentication half of CCM and one of the
//! four modes the MCCP firmware implements directly.
//!
//! The raw variant requires full blocks (as CCM's formatting guarantees);
//! the padded variant zero-pads the final partial block, which is how the
//! paper's communication controller is required to pre-format packets
//! before they reach a cryptographic core.

use super::{xor_in_place, ModeError};
use crate::cipher::BlockCipher128;

/// Computes the raw CBC-MAC over full 16-byte blocks with a zero IV.
/// Returns the final 16-byte chaining value.
pub fn cbc_mac_raw<C: BlockCipher128>(cipher: &C, data: &[u8]) -> Result<[u8; 16], ModeError> {
    if !data.len().is_multiple_of(16) {
        return Err(ModeError::InvalidParams("CBC-MAC requires full blocks"));
    }
    let mut mac = [0u8; 16];
    for chunk in data.chunks_exact(16) {
        xor_in_place(&mut mac, chunk);
        cipher.encrypt_block(&mut mac);
    }
    Ok(mac)
}

/// Computes a CBC-MAC with zero-padding of the final partial block,
/// truncated to `tag_len` bytes (`1..=16`).
pub fn cbc_mac<C: BlockCipher128>(
    cipher: &C,
    data: &[u8],
    tag_len: usize,
) -> Result<Vec<u8>, ModeError> {
    if tag_len == 0 || tag_len > 16 {
        return Err(ModeError::InvalidParams("tag length must be 1..=16"));
    }
    let mut mac = [0u8; 16];
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        xor_in_place(&mut mac, chunk);
        cipher.encrypt_block(&mut mac);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        xor_in_place(&mut mac, rem);
        cipher.encrypt_block(&mut mac);
    }
    Ok(mac[..tag_len].to_vec())
}

/// Incremental CBC-MAC with a 16-byte carry buffer.
///
/// Lets CCM absorb `B0 ‖ len(A) ‖ A ‖ pad ‖ P ‖ pad` section by section
/// without materializing the formatted byte stream — the streaming analogue
/// of feeding a core's input FIFO. Byte-identical to [`cbc_mac_raw`] over
/// the concatenated stream.
#[derive(Clone)]
pub struct CbcMacState {
    mac: [u8; 16],
    buf: [u8; 16],
    buf_len: usize,
}

impl CbcMacState {
    /// A fresh state (zero IV, empty carry buffer).
    pub fn new() -> Self {
        CbcMacState {
            mac: [0u8; 16],
            buf: [0u8; 16],
            buf_len: 0,
        }
    }

    /// Absorbs `data`, encrypting each completed 16-byte block.
    pub fn absorb<C: BlockCipher128 + ?Sized>(&mut self, cipher: &C, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = data.len().min(16 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 16 {
                return; // data exhausted without completing the block
            }
            let buf = self.buf;
            xor_in_place(&mut self.mac, &buf);
            cipher.encrypt_block(&mut self.mac);
            self.buf_len = 0;
        }
        let mut chunks = data.chunks_exact(16);
        for chunk in &mut chunks {
            xor_in_place(&mut self.mac, chunk);
            cipher.encrypt_block(&mut self.mac);
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Zero-pads and closes the pending partial block, if any. SP 800-38C
    /// pads the AAD section and the payload section independently, so CCM
    /// calls this at each section boundary.
    pub fn pad_block<C: BlockCipher128 + ?Sized>(&mut self, cipher: &C) {
        if self.buf_len > 0 {
            let buf = self.buf;
            xor_in_place(&mut self.mac, &buf[..self.buf_len]);
            cipher.encrypt_block(&mut self.mac);
            self.buf_len = 0;
        }
    }

    /// The chaining value. The stream must be block-aligned — close any
    /// partial block with [`CbcMacState::pad_block`] first.
    pub fn mac(&self) -> [u8; 16] {
        debug_assert_eq!(self.buf_len, 0, "unclosed partial block");
        self.mac
    }
}

impl Default for CbcMacState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::testutil::hex;
    use crate::Aes;

    /// The raw MAC of the first `k` blocks is CBC's `k`-th ciphertext
    /// block, once the CBC IV is folded into the first block. Referee:
    /// the SP 800-38A CBC-AES vectors (F.2.1 and the first block of F.2.5).
    #[test]
    fn raw_mac_equals_last_cbc_block() {
        let iv = hex("000102030405060708090a0b0c0d0e0f");
        let mut data = hex("6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710");
        xor_in_place(&mut data[..16], &iv);
        let aes128 = Aes::new(&hex("2b7e151628aed2a6abf7158809cf4f3c"));
        let cbc = hex("7649abac8119b246cee98e9b12e9197d\
             5086cb9b507219ee95db113a917678b2\
             73bed6b8e3c1743b7116e69e22229516\
             3ff1caa1681fac09120eca307586e1a7");
        for k in 1..=4 {
            let mac = cbc_mac_raw(&aes128, &data[..16 * k]).unwrap();
            assert_eq!(mac.as_slice(), &cbc[16 * (k - 1)..16 * k], "block {k}");
        }
        let aes256 = Aes::new(&hex("603deb1015ca71be2b73aef0857d7781\
             1f352c073b6108d72d9810a30914dff4"));
        let mac = cbc_mac_raw(&aes256, &data[..16]).unwrap();
        assert_eq!(mac.to_vec(), hex("f58c4c04d6e5f1ba779eabfb5f7bfbd6"));
    }

    #[test]
    fn raw_rejects_partial() {
        let aes = Aes::new_128(&[0u8; 16]);
        assert!(cbc_mac_raw(&aes, &[0u8; 15]).is_err());
    }

    #[test]
    fn padded_matches_manual_padding() {
        let aes = Aes::new_128(&[1u8; 16]);
        let data = [0xABu8; 20];
        let tag = cbc_mac(&aes, &data, 16).unwrap();
        let mut padded = data.to_vec();
        padded.resize(32, 0);
        let manual = cbc_mac_raw(&aes, &padded).unwrap();
        assert_eq!(tag, manual.to_vec());
    }

    #[test]
    fn truncation() {
        let aes = Aes::new_128(&[1u8; 16]);
        let full = cbc_mac(&aes, b"hello world MAC!", 16).unwrap();
        let short = cbc_mac(&aes, b"hello world MAC!", 8).unwrap();
        assert_eq!(short, full[..8]);
        assert!(cbc_mac(&aes, b"x", 0).is_err());
        assert!(cbc_mac(&aes, b"x", 17).is_err());
    }

    #[test]
    fn streaming_state_matches_raw_any_split() {
        let aes = Aes::new_128(&[0x42u8; 16]);
        let data: Vec<u8> = (0..96u8).map(|i| i.wrapping_mul(11)).collect();
        let expect = cbc_mac_raw(&aes, &data).unwrap();
        for split in [0usize, 1, 5, 16, 17, 31, 48, 95, 96] {
            let mut st = CbcMacState::new();
            st.absorb(&aes, &data[..split]);
            st.absorb(&aes, &data[split..]);
            assert_eq!(st.mac(), expect, "split {split}");
        }
        // Byte-at-a-time absorption drains the carry buffer path.
        let mut st = CbcMacState::new();
        for b in &data {
            st.absorb(&aes, std::slice::from_ref(b));
        }
        assert_eq!(st.mac(), expect);
    }

    #[test]
    fn pad_block_matches_padded_mac() {
        let aes = Aes::new_128(&[0x42u8; 16]);
        let data = [0xCDu8; 37];
        let mut st = CbcMacState::new();
        st.absorb(&aes, &data);
        st.pad_block(&aes);
        assert_eq!(st.mac().to_vec(), cbc_mac(&aes, &data, 16).unwrap());
        // pad_block on an aligned stream is a no-op.
        let before = st.mac();
        st.pad_block(&aes);
        assert_eq!(st.mac(), before);
    }

    #[test]
    fn mac_detects_change() {
        let aes = Aes::new_128(&[1u8; 16]);
        let a = cbc_mac(&aes, b"message one.....", 16).unwrap();
        let b = cbc_mac(&aes, b"message two.....", 16).unwrap();
        assert_ne!(a, b);
    }
}
