//! # MCCP — Reconfigurable Multi-core Cryptoprocessor (reproduction)
//!
//! Umbrella crate re-exporting every component of the reproduction of
//! Grand et al., *"A Reconfigurable Multi-core Cryptoprocessor for
//! Multi-channel Communication Systems"* (IPDPS 2011).
//!
//! The sub-crates, bottom-up:
//!
//! * [`aes`] — from-scratch AES-128/192/256 (encryption only, like the
//!   paper's AES core) plus the block-cipher modes the MCCP supports (CTR,
//!   CBC-MAC, CCM, GCM), Whirlpool and Twofish for the reconfiguration
//!   story, and NIST test vectors.
//! * [`gf128`] — GF(2^128) arithmetic, GHASH, and the digit-serial multiplier
//!   cycle model used by the hardware GHASH core.
//! * [`sim`] — the hardware-simulation substrate: the modeled clock, FIFOs,
//!   FPGA resource accounting (slices / BRAMs on a Virtex-4 SX35) and a VCD
//!   writer.
//! * [`picoblaze`] — a PicoBlaze (KCPSM3)-compatible 8-bit controller:
//!   assembler, disassembler and cycle-accurate simulator.
//! * [`cryptounit`] — the paper's Cryptographic Unit: bank register, decoder,
//!   and the AES / GHASH / XOR / INC / I/O processing cores with the paper's
//!   background start/finalize timing contract.
//! * [`core`] — the MCCP itself: task scheduler, crossbar, key scheduler,
//!   cryptographic cores, control protocol, mode firmware, the analytical
//!   performance model, partial reconfiguration, and a fast functional
//!   engine with bit-identical output and no cycle accounting.
//! * [`sdr`] — the communication-controller substrate: channel profiles,
//!   NIST-conformant packet formatting, multi-channel workload generation,
//!   and the two front ends — `MccpService` for long-lived channels that
//!   open, close and rekey, `MccpCluster` to replay a finished workload on
//!   1 to N shards.
//! * [`telemetry`] — typed cycle-domain events, per-core/per-channel metrics,
//!   request spans, and exporters (JSON-lines, Prometheus text, utilization
//!   reports, VCD) shared by the simulator and the benchmark harness.
//! * [`baselines`] — comparison architectures (mono-core, tightly coupled
//!   dual-core CCM, fully pipelined GCM) and literature reference points.
//!
//! ## Quickstart
//!
//! ```
//! use mccp::core::{Mccp, MccpConfig};
//! use mccp::core::protocol::{Algorithm, KeyId};
//!
//! // Build a 4-core MCCP, load a session key, open a GCM channel and
//! // encrypt one packet.
//! let mut mccp = Mccp::new(MccpConfig::default());
//! mccp.key_memory_mut().store(KeyId(1), &[0u8; 16]);
//! let chan = mccp.open(Algorithm::AesGcm128, KeyId(1)).unwrap();
//! let packet = mccp.encrypt_packet(chan, b"header", b"payload-bytes", &[0x42; 12]).unwrap();
//! assert_eq!(packet.ciphertext.len(), b"payload-bytes".len());
//! mccp.close(chan).unwrap();
//! ```

pub use mccp_aes as aes;
pub use mccp_baselines as baselines;
pub use mccp_core as core;
pub use mccp_cryptounit as cryptounit;
pub use mccp_gf128 as gf128;
pub use mccp_picoblaze as picoblaze;
pub use mccp_sdr as sdr;
pub use mccp_sim as sim;
pub use mccp_telemetry as telemetry;
