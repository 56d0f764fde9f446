//! The 128-bit block cipher abstraction.
//!
//! The paper stresses that the MCCP's "modular and reconfigurable design …
//! allows to use any 128-bit block cipher algorithm (e.g. AES, Twofish,
//! Serpent)". [`BlockCipher128`] is that seam: the mode implementations in
//! [`crate::modes`] and the Cryptographic Unit simulator are generic over
//! it, and [`crate::twofish::Twofish`] is a second implementor proving the
//! claim.

use crate::modes::ccm::{ccm_pass_serial, CcmPacket};
use crate::modes::gcm::{gcm_pass_two_pass, GcmPacket};

/// A block cipher with a 128-bit block.
///
/// Every MCCP mode (CTR, CBC-MAC, CCM, GCM) runs its cipher forward in
/// both directions, like the paper's encryption-only AES core, so there
/// is no inverse cipher. An implementor supplies [`encrypt_block`] and
/// [`name`]. The three kernel seams default to code over
/// [`encrypt_block`]: [`encrypt_blocks4`] for independent blocks,
/// [`ccm_pass`] for a whole CCM packet and [`gcm_pass`] for a whole GCM
/// packet. [`crate::Aes`] overrides all four with AES-NI (with PCLMULQDQ
/// and SSSE3 too, for [`gcm_pass`]) when the CPU has it and keeps the
/// T-table and serial paths otherwise; [`crate::twofish::Twofish`] takes
/// the defaults.
///
/// [`encrypt_block`]: BlockCipher128::encrypt_block
/// [`name`]: BlockCipher128::name
/// [`encrypt_blocks4`]: BlockCipher128::encrypt_blocks4
/// [`ccm_pass`]: BlockCipher128::ccm_pass
/// [`gcm_pass`]: BlockCipher128::gcm_pass
pub trait BlockCipher128 {
    /// Encrypts one 16-byte block in place.
    fn encrypt_block(&self, block: &mut [u8; 16]);

    /// Human-readable algorithm name (for reports and traces).
    fn name(&self) -> &'static str;

    /// Convenience: encrypt a copy of `block` and return it.
    fn encrypt_copy(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }

    /// Encrypts four independent 16-byte blocks in place.
    ///
    /// The batched CTR/GCM kernels feed independent counter blocks through
    /// this seam. The default loops over [`encrypt_block`]
    /// (byte-identical, no speedup); implementors with an interleavable
    /// datapath (like [`crate::Aes`]'s T-table and AES-NI paths) override
    /// it to give the host four dependency chains to overlap.
    ///
    /// [`encrypt_block`]: BlockCipher128::encrypt_block
    fn encrypt_blocks4(&self, blocks: &mut [u8; 64]) {
        for chunk in blocks.chunks_exact_mut(16) {
            let b: &mut [u8; 16] = chunk.try_into().expect("16-byte chunk");
            self.encrypt_block(b);
        }
    }

    /// Runs one CCM packet (SP 800-38C) over `data` in place and returns
    /// the full 16-byte tag, `CBC-MAC ^ E(K, Ctr_0)`.
    ///
    /// The CBC-MAC covers `B0 ‖ len(A) ‖ A ‖ pad ‖ P ‖ pad`; the CTR
    /// keystream from `Ctr_1` turns `P` into the ciphertext on a seal and
    /// back on an open ([`CcmPacket::direction`]). The default is the
    /// serial pass: the chain one [`encrypt_block`] at a time, then the
    /// keystream through [`encrypt_blocks4`]. [`crate::Aes`] overrides it
    /// on AES-NI hosts with one pass that carries each chained block
    /// through the rounds together with an independent counter block.
    /// Every implementation must be byte-identical to the default.
    ///
    /// [`encrypt_block`]: BlockCipher128::encrypt_block
    /// [`encrypt_blocks4`]: BlockCipher128::encrypt_blocks4
    fn ccm_pass(&self, packet: &CcmPacket<'_>, data: &mut [u8]) -> [u8; 16] {
        ccm_pass_serial(self, packet, data)
    }

    /// Runs one GCM packet (SP 800-38D) over `data` in place and returns
    /// the full 16-byte tag, `GHASH(A, C) ^ E(K, J0)`.
    ///
    /// The CTR keystream from `inc32(J0)` turns the plaintext into the
    /// ciphertext `C` on a seal and back on an open
    /// ([`GcmPacket::direction`]); GHASH always covers `C`. The default
    /// makes two passes: the keystream through [`encrypt_blocks4`], then
    /// GHASH over the packet's [`GcmPacket::powers`]. [`crate::Aes`]
    /// overrides it on hosts with AES-NI, PCLMULQDQ and SSSE3 with one pass
    /// that folds eight ciphertext blocks into GHASH while eight counter
    /// blocks run through the AES rounds. Every implementation must be
    /// byte-identical to the default.
    ///
    /// [`encrypt_blocks4`]: BlockCipher128::encrypt_blocks4
    fn gcm_pass(&self, packet: &GcmPacket<'_>, data: &mut [u8]) -> [u8; 16] {
        gcm_pass_two_pass(self, packet, data)
    }
}

impl<T: BlockCipher128 + ?Sized> BlockCipher128 for &T {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        (**self).encrypt_block(block)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn encrypt_blocks4(&self, blocks: &mut [u8; 64]) {
        (**self).encrypt_blocks4(blocks)
    }
    fn ccm_pass(&self, packet: &CcmPacket<'_>, data: &mut [u8]) -> [u8; 16] {
        (**self).ccm_pass(packet, data)
    }
    fn gcm_pass(&self, packet: &GcmPacket<'_>, data: &mut [u8]) -> [u8; 16] {
        (**self).gcm_pass(packet, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Aes;

    #[test]
    fn copy_helpers_match_in_place() {
        let aes = Aes::new_128(&[7u8; 16]);
        let pt = [0x11u8; 16];
        let ct = aes.encrypt_copy(&pt);
        let mut inplace = pt;
        aes.encrypt_block(&mut inplace);
        assert_eq!(ct, inplace);
    }

    #[test]
    fn trait_object_usable() {
        let aes = Aes::new_128(&[0u8; 16]);
        let dyn_cipher: &dyn BlockCipher128 = &aes;
        let mut b = [0u8; 16];
        dyn_cipher.encrypt_block(&mut b);
        assert_eq!(dyn_cipher.name(), "AES-128");
        assert_eq!(b, aes.encrypt_copy(&[0u8; 16]));
    }
}
