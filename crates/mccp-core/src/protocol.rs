//! The MCCP control protocol (paper §III.B).
//!
//! The communication controller drives the MCCP through a 32-bit
//! **Instruction Register** and reads results back from an 8-bit **Return
//! Register**, synchronized by *start*/*done* signals. Six instructions
//! exist: `OPEN`, `CLOSE`, `ENCRYPT`, `DECRYPT`, `RETRIEVE_DATA` and
//! `TRANSFER_DONE`. This module defines the instruction encoding, the
//! identifier types, the algorithm catalogue and the error codes.

use mccp_aes::KeySize;
use std::fmt;

/// A session-key slot in the Key Memory (written only by the platform's
/// main controller, never by the MCCP itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u8);

/// An open channel (algorithm + session key binding).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u8);

/// An in-flight ENCRYPT/DECRYPT request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u16);

/// The block cipher a channel runs on (paper §IX: any 128-bit block
/// cipher can replace AES through partial reconfiguration; Twofish is the
/// paper's example and is fully implemented here).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CipherSel {
    Aes,
    Twofish,
}

/// Block-cipher mode of operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Galois/Counter Mode — authenticated encryption, pipeline-friendly.
    Gcm,
    /// Counter with CBC-MAC — authenticated encryption with a serial MAC.
    Ccm,
    /// Counter mode — confidentiality only.
    Ctr,
    /// CBC-MAC — authentication only.
    CbcMac,
}

/// An algorithm a channel can be opened with: mode × key size.
///
/// The paper's OPEN instruction carries an algorithm ID; these twelve cover
/// the supported mode/key-size grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    AesGcm128,
    AesGcm192,
    AesGcm256,
    AesCcm128,
    AesCcm192,
    AesCcm256,
    AesCtr128,
    AesCtr192,
    AesCtr256,
    AesCbcMac128,
    AesCbcMac192,
    AesCbcMac256,
}

impl Algorithm {
    /// All algorithms, in ID order.
    pub const ALL: [Algorithm; 12] = [
        Algorithm::AesGcm128,
        Algorithm::AesGcm192,
        Algorithm::AesGcm256,
        Algorithm::AesCcm128,
        Algorithm::AesCcm192,
        Algorithm::AesCcm256,
        Algorithm::AesCtr128,
        Algorithm::AesCtr192,
        Algorithm::AesCtr256,
        Algorithm::AesCbcMac128,
        Algorithm::AesCbcMac192,
        Algorithm::AesCbcMac256,
    ];

    /// The mode of operation.
    pub fn mode(self) -> Mode {
        use Algorithm::*;
        match self {
            AesGcm128 | AesGcm192 | AesGcm256 => Mode::Gcm,
            AesCcm128 | AesCcm192 | AesCcm256 => Mode::Ccm,
            AesCtr128 | AesCtr192 | AesCtr256 => Mode::Ctr,
            AesCbcMac128 | AesCbcMac192 | AesCbcMac256 => Mode::CbcMac,
        }
    }

    /// The AES key size.
    pub fn key_size(self) -> KeySize {
        use Algorithm::*;
        match self {
            AesGcm128 | AesCcm128 | AesCtr128 | AesCbcMac128 => KeySize::Aes128,
            AesGcm192 | AesCcm192 | AesCtr192 | AesCbcMac192 => KeySize::Aes192,
            AesGcm256 | AesCcm256 | AesCtr256 | AesCbcMac256 => KeySize::Aes256,
        }
    }

    /// The one check of raw key bytes against the algorithm's key size
    /// ([`MccpError::BadKey`] otherwise). It allocates nothing, so every
    /// open and rekey runs it before touching any state.
    pub fn check_key(self, key: &[u8]) -> Result<(), MccpError> {
        let fits = key.len() == self.key_size().key_bytes();
        fits.then_some(()).ok_or(MccpError::BadKey)
    }

    /// Wire ID for the OPEN instruction.
    pub fn id(self) -> u8 {
        Self::ALL.iter().position(|&a| a == self).expect("in table") as u8
    }

    /// Decodes a wire ID.
    pub fn from_id(id: u8) -> Option<Algorithm> {
        Self::ALL.get(id as usize).copied()
    }

    /// Whether the mode authenticates (produces/validates a tag).
    pub fn is_authenticated(self) -> bool {
        matches!(self.mode(), Mode::Gcm | Mode::Ccm | Mode::CbcMac)
    }

    /// Static display name, identical to the [`fmt::Display`] rendering
    /// (e.g. `AES-128-GCM`) but allocation-free for hot telemetry paths.
    pub fn name(self) -> &'static str {
        use Algorithm::*;
        match self {
            AesGcm128 => "AES-128-GCM",
            AesGcm192 => "AES-192-GCM",
            AesGcm256 => "AES-256-GCM",
            AesCcm128 => "AES-128-CCM",
            AesCcm192 => "AES-192-CCM",
            AesCcm256 => "AES-256-CCM",
            AesCtr128 => "AES-128-CTR",
            AesCtr192 => "AES-192-CTR",
            AesCtr256 => "AES-256-CTR",
            AesCbcMac128 => "AES-128-CBC-MAC",
            AesCbcMac192 => "AES-192-CBC-MAC",
            AesCbcMac256 => "AES-256-CBC-MAC",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The six MCCP instructions with their operands (paper §III.B).
///
/// `header_size` / `data_size` are in bytes: the authenticated-only field
/// and the plaintext field respectively, exactly as the paper's ENCRYPT
/// operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MccpInstruction {
    Open {
        algorithm: Algorithm,
        key: KeyId,
    },
    Close {
        channel: ChannelId,
    },
    Encrypt {
        channel: ChannelId,
        header_size: u16,
        data_size: u16,
    },
    Decrypt {
        channel: ChannelId,
        header_size: u16,
        data_size: u16,
    },
    RetrieveData,
    TransferDone {
        request: RequestId,
    },
}

impl MccpInstruction {
    /// Encodes to the 32-bit Instruction Register format:
    ///
    /// ```text
    /// [31:28] opcode
    /// OPEN:      [27:20] algorithm  [19:12] key id
    /// CLOSE:     [27:20] channel
    /// ENC/DEC:   [27:22] channel    [21:11] header size  [10:0] data size
    /// TRANSFER:  [27:12] request id
    /// ```
    ///
    /// The 11-bit size fields carry byte counts up to the 2048-byte FIFO
    /// limit, as in the paper's 2 KB packet budget.
    pub fn encode(self) -> u32 {
        use MccpInstruction::*;
        match self {
            Open { algorithm, key } => {
                (0x1 << 28) | ((algorithm.id() as u32) << 20) | ((key.0 as u32) << 12)
            }
            Close { channel } => (0x2 << 28) | ((channel.0 as u32) << 20),
            Encrypt {
                channel,
                header_size,
                data_size,
            } => {
                (0x3 << 28)
                    | (((channel.0 as u32) & 0x3F) << 22)
                    | (((header_size as u32) & 0x7FF) << 11)
                    | ((data_size as u32) & 0x7FF)
            }
            Decrypt {
                channel,
                header_size,
                data_size,
            } => {
                (0x4 << 28)
                    | (((channel.0 as u32) & 0x3F) << 22)
                    | (((header_size as u32) & 0x7FF) << 11)
                    | ((data_size as u32) & 0x7FF)
            }
            RetrieveData => 0x5 << 28,
            TransferDone { request } => (0x6 << 28) | ((request.0 as u32) << 12),
        }
    }

    /// Decodes from the Instruction Register.
    pub fn decode(word: u32) -> Option<MccpInstruction> {
        use MccpInstruction::*;
        match word >> 28 {
            0x1 => Some(Open {
                algorithm: Algorithm::from_id(((word >> 20) & 0xFF) as u8)?,
                key: KeyId(((word >> 12) & 0xFF) as u8),
            }),
            0x2 => Some(Close {
                channel: ChannelId(((word >> 20) & 0xFF) as u8),
            }),
            0x3 => Some(Encrypt {
                channel: ChannelId(((word >> 22) & 0x3F) as u8),
                header_size: ((word >> 11) & 0x7FF) as u16,
                data_size: (word & 0x7FF) as u16,
            }),
            0x4 => Some(Decrypt {
                channel: ChannelId(((word >> 22) & 0x3F) as u8),
                header_size: ((word >> 11) & 0x7FF) as u16,
                data_size: (word & 0x7FF) as u16,
            }),
            0x5 => Some(RetrieveData),
            0x6 => Some(TransferDone {
                request: RequestId(((word >> 12) & 0xFFFF) as u16),
            }),
            _ => None,
        }
    }
}

/// Return-register codes (8-bit).
pub mod ret {
    pub const OK: u8 = 0x00;
    pub const AUTH_FAIL: u8 = 0x01;
    pub const ERR_NO_RESOURCE: u8 = 0xF0;
    pub const ERR_BAD_CHANNEL: u8 = 0xF1;
    pub const ERR_BAD_KEY: u8 = 0xF2;
    pub const ERR_BUSY: u8 = 0xF3;
    pub const ERR_TOO_LARGE: u8 = 0xF4;
    pub const ERR_CORE_FAULT: u8 = 0xF5;
    pub const ERR_DEADLINE: u8 = 0xF6;
    pub const ERR_INTEGRITY: u8 = 0xF7;
    pub const ERR_KEY_CORRUPT: u8 = 0xF8;
    pub const ERR_STALE_EPOCH: u8 = 0xF9;
    pub const ERR_HANDSHAKE_PENDING: u8 = 0xFA;
    pub const ERR_BAD_INSTRUCTION: u8 = 0xFF;
}

/// MCCP-level errors, mirroring the return-register error codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MccpError {
    /// No idle Cryptographic Core (the paper's "error flag if no more
    /// resources are available").
    NoResource,
    /// Unknown or closed channel.
    BadChannel,
    /// Key ID not present in the Key Memory.
    BadKey,
    /// Request/target busy or in a wrong state.
    Busy,
    /// Packet exceeds the FIFO capacity.
    TooLarge,
    /// Authentication tag mismatch (DECRYPT + RETRIEVE_DATA path).
    AuthFail,
    /// All channel IDs are in use.
    NoChannelId,
    /// Malformed instruction word.
    BadInstruction,
    /// A Cryptographic Core faulted mid-request (wedged controller or
    /// Cryptographic Unit fault); the core is quarantined.
    CoreFault,
    /// The per-request watchdog deadline expired (stalled or starved
    /// core); the involved cores are quarantined.
    Deadline,
    /// A FIFO parity check failed — the data was corrupted in flight and
    /// the output has been wiped rather than returned wrong.
    DataIntegrity,
    /// A core's Key Cache failed its integrity check; the cache has been
    /// wiped and a resubmission re-expands from the Key Memory.
    KeyCorrupt,
    /// The submission was tagged with a key epoch the channel has already
    /// rotated past. Rejected before any core, IV or nonce accounting is
    /// touched — a replayed or attacker-delayed frame burns nothing.
    StaleEpoch,
    /// The channel's modeled asymmetric establishment (ECC scalar
    /// multiplication) has not completed yet; resubmit after the engine
    /// advances past the handshake horizon.
    HandshakePending,
}

impl MccpError {
    /// The return-register code for this error.
    pub fn code(self) -> u8 {
        match self {
            MccpError::NoResource | MccpError::NoChannelId => ret::ERR_NO_RESOURCE,
            MccpError::BadChannel => ret::ERR_BAD_CHANNEL,
            MccpError::BadKey => ret::ERR_BAD_KEY,
            MccpError::Busy => ret::ERR_BUSY,
            MccpError::TooLarge => ret::ERR_TOO_LARGE,
            MccpError::AuthFail => ret::AUTH_FAIL,
            MccpError::BadInstruction => ret::ERR_BAD_INSTRUCTION,
            MccpError::CoreFault => ret::ERR_CORE_FAULT,
            MccpError::Deadline => ret::ERR_DEADLINE,
            MccpError::DataIntegrity => ret::ERR_INTEGRITY,
            MccpError::KeyCorrupt => ret::ERR_KEY_CORRUPT,
            MccpError::StaleEpoch => ret::ERR_STALE_EPOCH,
            MccpError::HandshakePending => ret::ERR_HANDSHAKE_PENDING,
        }
    }

    /// True for the fault-plane errors a cluster may recover from by
    /// retrying on another core or shard (transient or contained faults,
    /// as opposed to protocol misuse like [`MccpError::BadChannel`]).
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            MccpError::CoreFault
                | MccpError::Deadline
                | MccpError::DataIntegrity
                | MccpError::KeyCorrupt
        )
    }
}

impl fmt::Display for MccpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MccpError::NoResource => "no idle cryptographic core",
            MccpError::BadChannel => "unknown channel",
            MccpError::BadKey => "unknown key id",
            MccpError::Busy => "resource busy",
            MccpError::TooLarge => "packet exceeds FIFO capacity",
            MccpError::AuthFail => "authentication failed",
            MccpError::NoChannelId => "channel table full",
            MccpError::BadInstruction => "malformed instruction",
            MccpError::CoreFault => "cryptographic core faulted",
            MccpError::Deadline => "watchdog deadline exceeded",
            MccpError::DataIntegrity => "FIFO parity error: data corrupted in flight",
            MccpError::KeyCorrupt => "key cache integrity check failed",
            MccpError::StaleEpoch => "submission tagged with a retired key epoch",
            MccpError::HandshakePending => "channel establishment (handshake) still in progress",
        };
        f.write_str(s)
    }
}

impl std::error::Error for MccpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_table_roundtrip() {
        for alg in Algorithm::ALL {
            assert_eq!(Algorithm::from_id(alg.id()), Some(alg));
        }
        assert_eq!(Algorithm::from_id(200), None);
    }

    #[test]
    fn algorithm_properties() {
        assert_eq!(Algorithm::AesGcm128.mode(), Mode::Gcm);
        assert_eq!(Algorithm::AesCcm256.key_size(), KeySize::Aes256);
        assert!(Algorithm::AesCcm128.is_authenticated());
        assert!(!Algorithm::AesCtr128.is_authenticated());
        assert_eq!(Algorithm::AesGcm192.to_string(), "AES-192-GCM");
        assert_eq!(Algorithm::AesCcm256.check_key(&[1; 32]), Ok(()));
        assert_eq!(
            Algorithm::AesCcm256.check_key(&[1; 16]),
            Err(MccpError::BadKey)
        );
    }

    #[test]
    fn static_names_cover_the_mode_keysize_grid() {
        for alg in Algorithm::ALL {
            let mode = match alg.mode() {
                Mode::Gcm => "GCM",
                Mode::Ccm => "CCM",
                Mode::Ctr => "CTR",
                Mode::CbcMac => "CBC-MAC",
            };
            let expect = format!("AES-{}-{}", alg.key_size().key_bits(), mode);
            assert_eq!(alg.name(), expect);
            assert_eq!(alg.to_string(), expect);
        }
    }

    #[test]
    fn instruction_encoding_roundtrip() {
        let samples = [
            MccpInstruction::Open {
                algorithm: Algorithm::AesCcm192,
                key: KeyId(7),
            },
            MccpInstruction::Close {
                channel: ChannelId(3),
            },
            MccpInstruction::Encrypt {
                channel: ChannelId(5),
                header_size: 60,
                data_size: 1500,
            },
            MccpInstruction::Decrypt {
                channel: ChannelId(63),
                header_size: 2047,
                data_size: 0,
            },
            MccpInstruction::RetrieveData,
            MccpInstruction::TransferDone {
                request: RequestId(0xBEEF),
            },
        ];
        for ins in samples {
            assert_eq!(MccpInstruction::decode(ins.encode()), Some(ins), "{ins:?}");
        }
    }

    #[test]
    fn bad_opcode_decodes_none() {
        assert_eq!(MccpInstruction::decode(0x0), None);
        assert_eq!(MccpInstruction::decode(0xF << 28), None);
    }

    #[test]
    fn error_codes_distinct_from_ok() {
        for e in [
            MccpError::NoResource,
            MccpError::BadChannel,
            MccpError::BadKey,
            MccpError::Busy,
            MccpError::TooLarge,
            MccpError::AuthFail,
            MccpError::BadInstruction,
        ] {
            assert_ne!(e.code(), ret::OK);
        }
    }
}
