//! # mccp-aes — AES and the MCCP's block-cipher modes, from scratch
//!
//! This crate is the cryptographic substrate of the MCCP reproduction:
//!
//! * [`Aes`] — AES-128/192/256 (FIPS-197): key schedule and encryption,
//!   validated against the FIPS-197 appendix vectors. Like the paper's
//!   encryption-only AES core, it has no inverse cipher: every mode below
//!   runs the cipher forward in both directions.
//! * [`column_serial`] — a functional model of the 32-bit column-serial
//!   iterative AES datapath of Chodowiec & Gaj (CHES 2003, reference \[19\]
//!   of the paper), the structure the MCCP's Cryptographic Unit follows. It
//!   is the structural check of the hardware cycle count the simulator
//!   charges ([`KeySize::aes_core_cycles`]): **44 / 52 / 60 cycles** per
//!   block for 128 / 192 / 256-bit keys.
//! * [`modes`] — the block-cipher modes of operation the MCCP supports:
//!   CTR (SP 800-38A), CBC-MAC, CCM (SP 800-38C) and GCM (SP 800-38D), all
//!   generic over any [`BlockCipher128`].
//! * [`whirlpool`] — the Whirlpool hash (ISO/IEC 10118-3), the alternative
//!   algorithm the paper loads into the reconfigurable Cryptographic Unit
//!   region (Table IV).
//! * [`twofish`] — Twofish, the paper's example of "any other 128-bit block
//!   cipher" that can replace AES through partial reconfiguration.
//!
//! Two kinds of arm live here. The *references* put clarity first: the
//! byte-wise datapath ([`block`]), which the cycle-accurate simulator's
//! Cryptographic Unit runs while charging the hardware's latencies, the
//! T-table kernels ([`tables`]) and the serial `*_scalar` mode arms. The
//! *fast arms* serve the functional packet path: 4-wide batched
//! keystreams, batched GHASH, and on x86-64 hosts with AES-NI the
//! [`aesni`] routines — single blocks, four-block batches, a stitched
//! one-pass CCM ([`BlockCipher128::ccm_pass`]) and, with PCLMULQDQ too, a
//! stitched one-pass GCM ([`BlockCipher128::gcm_pass`]). The CPU alone
//! picks the arm at run time; every fast arm is tested byte for byte
//! against a reference.
//!
//! ```
//! use mccp_aes::{Aes, BlockCipher128};
//!
//! let key = [0u8; 16];
//! let aes = Aes::new_128(&key);
//! let mut block = [0u8; 16];
//! aes.encrypt_block(&mut block);
//! // AES-128 of the zero block under the zero key.
//! assert_eq!(
//!     block,
//!     [
//!         0x66, 0xe9, 0x4b, 0xd4, 0xef, 0x8a, 0x2c, 0x3b,
//!         0x88, 0x4c, 0xfa, 0x59, 0xca, 0x34, 0x2b, 0x2e,
//!     ]
//! );
//! ```

pub mod aesni;
pub mod block;
pub mod cipher;
pub mod column_serial;
pub mod key_schedule;
pub mod modes;
pub mod sbox;
pub mod tables;
pub mod twofish;
pub mod whirlpool;

pub use cipher::BlockCipher128;
pub use key_schedule::{KeySize, RoundKeys};

use modes::{CcmPacket, GcmPacket};

/// An AES cipher instance with a pre-expanded key schedule.
#[derive(Clone)]
pub struct Aes {
    round_keys: RoundKeys,
}

impl Aes {
    /// Expands `key` (16, 24 or 32 bytes) and builds a cipher instance.
    ///
    /// # Panics
    /// Panics if the key length is not 16, 24 or 32 bytes.
    pub fn new(key: &[u8]) -> Self {
        Aes {
            round_keys: RoundKeys::expand(key),
        }
    }

    /// AES-128 constructor with a compile-time-checked key length.
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::new(key)
    }

    /// AES-256 constructor with a compile-time-checked key length.
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::new(key)
    }

    /// The key size of this instance.
    pub fn key_size(&self) -> KeySize {
        self.round_keys.key_size()
    }

    /// Access to the expanded round keys (the MCCP's Key Scheduler output).
    pub fn round_keys(&self) -> &RoundKeys {
        &self.round_keys
    }
}

impl BlockCipher128 for Aes {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if crate::aesni::supported() {
            // SAFETY: feature presence just checked.
            unsafe { crate::aesni::encrypt_block(&self.round_keys, block) };
            return;
        }
        // Software fast path (T-tables); equivalence with the byte-wise
        // datapath formulation is property-tested.
        crate::tables::encrypt_block_ttable(&self.round_keys, block);
    }

    fn encrypt_blocks4(&self, blocks: &mut [u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if crate::aesni::supported() {
            // SAFETY: feature presence just checked.
            unsafe { crate::aesni::encrypt_blocks4(&self.round_keys, blocks) };
            return;
        }
        crate::tables::encrypt_blocks4_ttable(&self.round_keys, blocks);
    }

    fn ccm_pass(&self, packet: &CcmPacket<'_>, data: &mut [u8]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if crate::aesni::supported() {
            // SAFETY: feature presence just checked.
            return unsafe { crate::aesni::ccm_pass(&self.round_keys, packet, data) };
        }
        modes::ccm::ccm_pass_serial(self, packet, data)
    }

    fn gcm_pass(&self, packet: &GcmPacket<'_>, data: &mut [u8]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if let Some(powers) = packet.powers().clmul_powers() {
            if crate::aesni::gcm_supported() {
                // SAFETY: feature presence just checked.
                return unsafe { crate::aesni::gcm_pass(&self.round_keys, powers, packet, data) };
            }
        }
        modes::gcm::gcm_pass_two_pass(self, packet, data)
    }

    fn name(&self) -> &'static str {
        match self.key_size() {
            KeySize::Aes128 => "AES-128",
            KeySize::Aes192 => "AES-192",
            KeySize::Aes256 => "AES-256",
        }
    }
}
