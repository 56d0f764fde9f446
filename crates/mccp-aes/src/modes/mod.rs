//! Block-cipher modes of operation supported by the MCCP.
//!
//! The paper (§IV.D) lists **GCM, CCM, CTR and CBC-MAC** as the modes the
//! cryptographic cores execute; ECB and CBC are included as substrates and
//! for the Table III comparison points (Cryptonite reports ECB, Celator
//! reports CBC). All implementations are generic over [`BlockCipher128`],
//! because the paper's design brief is that AES "may be easily replaced by
//! any other 128-bit block cipher".
//!
//! These are the *reference* (oracle) implementations; the cycle-accurate
//! simulator executes the same computations on the modeled hardware and is
//! tested for bit-exact agreement with this module.

pub mod cbc;
pub mod cbc_mac;
pub mod ccm;
pub mod ctr;
pub mod ecb;
pub mod gcm;

pub use cbc::{cbc_decrypt, cbc_encrypt};
pub use cbc_mac::{cbc_mac, CbcMacState};
pub use ccm::{
    ccm_open, ccm_open_detached, ccm_open_detached_into, ccm_seal, ccm_seal_into, CcmParams,
};
pub use ctr::{ctr_xcrypt, ctr_xcrypt_scalar};
pub use ecb::{ecb_decrypt, ecb_encrypt};
pub use gcm::{
    gcm_open, gcm_open_detached, gcm_open_detached_scalar, gcm_seal, gcm_seal_scalar, GcmContext,
};

use crate::cipher::BlockCipher128;

/// Errors from the authenticated modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModeError {
    /// Authentication tag mismatch on open/decrypt. Like the MCCP (which
    /// wipes the output FIFO on `AUTH_FAIL`), no plaintext is released.
    AuthFail,
    /// A length or parameter constraint of the mode was violated.
    InvalidParams(&'static str),
}

impl std::fmt::Display for ModeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModeError::AuthFail => write!(f, "authentication failed"),
            ModeError::InvalidParams(m) => write!(f, "invalid mode parameters: {m}"),
        }
    }
}

impl std::error::Error for ModeError {}

/// XORs `src` into `dst` (element-wise over the shorter of the two).
#[inline]
pub(crate) fn xor_in_place(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d ^= s;
    }
}

/// Constant-time-ish tag comparison (length first, then accumulated XOR).
#[inline]
pub(crate) fn tags_equal(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

/// Generates the keystream block `E(K, counter)` and XORs it over `chunk`.
#[inline]
pub(crate) fn xor_keystream<C: BlockCipher128>(cipher: &C, counter: &[u8; 16], chunk: &mut [u8]) {
    let ks = cipher.encrypt_copy(counter);
    xor_in_place(chunk, &ks[..chunk.len().min(16)]);
}

/// XORs the keystream `E(K, counter_for(0)) ‖ E(K, counter_for(1)) ‖ …`
/// over `data`, feeding four counter blocks at a time through
/// [`BlockCipher128::encrypt_blocks4`].
///
/// `counter_for(i)` returns the counter block for keystream block `i`
/// (0-based). The leftover under 64 bytes (one to four counter blocks,
/// the last possibly partial) takes the same call with the unused slots
/// zero-filled. The output is byte-identical to calling [`xor_keystream`]
/// per block — batching only changes how many independent AES dependency
/// chains are in flight at once. Shared by the CTR, GCM and CCM kernels.
pub(crate) fn xor_keystream_blocks<C: BlockCipher128>(
    cipher: &C,
    data: &mut [u8],
    mut counter_for: impl FnMut(u64) -> [u8; 16],
) {
    let mut i = 0u64;
    for chunk in data.chunks_mut(64) {
        let mut ks = [0u8; 64];
        let blocks = chunk.len().div_ceil(16);
        for (j, blk) in ks[..16 * blocks].chunks_exact_mut(16).enumerate() {
            blk.copy_from_slice(&counter_for(i + j as u64));
        }
        i += 4;
        cipher.encrypt_blocks4(&mut ks);
        xor_in_place(chunk, &ks);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    /// Decodes a hex string (whitespace tolerated) into bytes.
    pub fn hex(s: &str) -> Vec<u8> {
        let clean: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        assert!(clean.len().is_multiple_of(2), "odd hex length");
        (0..clean.len() / 2)
            .map(|i| u8::from_str_radix(&clean[2 * i..2 * i + 2], 16).unwrap())
            .collect()
    }

    pub fn hex16(s: &str) -> [u8; 16] {
        hex(s).try_into().unwrap()
    }
}
