//! Secure-channel state on the communication-controller side.
//!
//! A channel binds a standard profile to an MCCP channel and enforces the
//! IV/nonce discipline: a per-channel salt plus a monotonically increasing
//! packet counter, so no (key, nonce) pair ever repeats — the one rule
//! CTR-based modes cannot survive breaking.

use crate::standards::{Standard, StandardProfile};
use mccp_core::protocol::{ChannelId, Mode};
use mccp_core::Iv;

/// One secure channel.
#[derive(Clone, Debug)]
pub struct SecureChannel {
    /// The channel's standard; [`profile`](Self::profile) derives the rest
    /// rather than every channel (100k+ of them in a service) carrying a
    /// copy.
    pub standard: Standard,
    /// The MCCP channel handle, once opened.
    pub handle: Option<ChannelId>,
    /// Per-channel salt (distinguishes channels sharing a key size).
    salt: u32,
    /// Packet counter driving nonce generation.
    counter: u64,
}

impl SecureChannel {
    /// Creates a channel with a fixed salt (deterministic workloads).
    pub fn new(standard: Standard, salt: u32) -> Self {
        SecureChannel {
            standard,
            handle: None,
            salt,
            counter: 0,
        }
    }

    /// The channel's standard profile.
    pub fn profile(&self) -> StandardProfile {
        self.standard.profile()
    }

    /// Packets sent so far.
    pub fn packets_sent(&self) -> u64 {
        self.counter
    }

    /// Generates the next IV/nonce for this channel's mode and advances
    /// the counter. The IV is held inline: issuing one allocates nothing.
    ///
    /// * GCM: 12 bytes = salt (4) ‖ counter (8) — the deterministic
    ///   construction of SP 800-38D §8.2.1.
    /// * CCM: `nonce_len` bytes = salt (4) ‖ counter (n-4) big-endian.
    /// * CTR: a full 16-byte initial counter block with the low 16 bits
    ///   zero, leaving the hardware INC core headroom for any packet that
    ///   fits the FIFO.
    /// * CBC-MAC: empty.
    pub fn next_iv(&mut self) -> Iv {
        let c = self.counter.to_be_bytes();
        self.counter += 1;
        let mut iv = [0u8; 16];
        iv[..4].copy_from_slice(&self.salt.to_be_bytes());
        let profile = self.profile();
        let len = match profile.algorithm.mode() {
            Mode::Gcm => {
                iv[4..12].copy_from_slice(&c);
                12
            }
            Mode::Ccm => {
                let n = profile.nonce_len;
                let take = (n - 4).min(8);
                iv[n - take..n].copy_from_slice(&c[8 - take..]);
                n
            }
            Mode::Ctr => {
                // Low 16 bits stay zero: the CU's 16-bit INC core never
                // wraps within a FIFO-sized packet.
                iv[4..12].copy_from_slice(&c);
                16
            }
            Mode::CbcMac => 0,
        };
        Iv::from_slice(&iv[..len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standards::Standard;

    #[test]
    fn nonces_never_repeat() {
        let mut ch = SecureChannel::new(Standard::Wifi, 0xA1B2C3D4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(ch.next_iv()), "nonce repeated");
        }
        assert_eq!(ch.packets_sent(), 1000);
    }

    #[test]
    fn nonce_lengths_match_profiles() {
        for s in Standard::ALL {
            let p = s.profile();
            let expect = match p.algorithm.mode() {
                Mode::Gcm => 12,
                Mode::Ccm => p.nonce_len,
                Mode::Ctr => 16,
                Mode::CbcMac => 0,
            };
            let mut ch = SecureChannel::new(s, 1);
            assert_eq!(ch.next_iv().len(), expect, "{s:?}");
        }
    }

    #[test]
    fn ctr_low_bits_are_zero() {
        let mut ch = SecureChannel::new(Standard::Umts, 9);
        for _ in 0..10 {
            let iv = ch.next_iv();
            assert_eq!(&iv[14..], &[0, 0], "INC headroom violated");
        }
    }

    #[test]
    fn different_salts_differ() {
        let mut a = SecureChannel::new(Standard::Wimax, 1);
        let mut b = SecureChannel::new(Standard::Wimax, 2);
        assert_ne!(a.next_iv(), b.next_iv());
    }
}
