//! # mccp-core — the Multi-Core Crypto-Processor
//!
//! A cycle-accurate model of the reconfigurable MCCP of Grand et al.
//! (IPDPS 2011): a Task Scheduler, a Cross Bar, a Key Scheduler backed by
//! a write-protected Key Memory, and `n` Cryptographic Cores — each a
//! PicoBlaze-class 8-bit controller driving a Cryptographic Unit through
//! its 8-bit ISA, with a 512 × 32-bit FIFO pair and inter-core ports.
//!
//! * [`mccp::Mccp`] — the top level: the OPEN / CLOSE / ENCRYPT / DECRYPT /
//!   RETRIEVE_DATA / TRANSFER_DONE control protocol, lock-step simulation,
//!   multi-channel concurrency, and the wipe-on-auth-failure defense.
//! * [`firmware`] — the paper's mode firmware (GCM, CCM single- and
//!   two-core, CTR, CBC-MAC) in PicoBlaze assembly, assembled at run time.
//! * [`mod@format`] — the communication controller's packet formatting.
//! * [`model`] — the closed-form performance model that regenerates the
//!   *theoretical* column of Table II.
//! * [`reconfig`] — partial reconfiguration of the Cryptographic Unit
//!   region (Table IV: AES ↔ Whirlpool bitstreams, CompactFlash vs RAM).
//! * [`functional`] — [`FunctionalBackend`], the fast functional engine:
//!   the same control protocol with the reference `mccp-aes`
//!   implementations as the datapath; bit-identical output, no cycle
//!   accounting.
//!
//! ```
//! use mccp_core::{Mccp, MccpConfig};
//! use mccp_core::protocol::{Algorithm, KeyId};
//!
//! let mut mccp = Mccp::new(MccpConfig::default());
//! mccp.key_memory_mut().store(KeyId(1), &[0u8; 16]);
//! let ch = mccp.open(Algorithm::AesGcm128, KeyId(1)).unwrap();
//! let pkt = mccp.encrypt_packet(ch, b"hdr", b"payload", &[7u8; 12]).unwrap();
//! assert_eq!(pkt.ciphertext.len(), 7);
//! assert_eq!(pkt.tag.len(), 16);
//! ```

pub mod backend;
pub mod bytes;
pub mod core_unit;
pub mod crossbar;
mod dispatch;
mod dma;
pub mod fault;
pub mod firmware;
pub mod format;
pub mod functional;
pub mod key;
pub mod mccp;
pub mod model;
pub mod pipeline;
pub mod protocol;
pub mod reconfig;
mod scheduler;

pub use backend::{submit_and_wait, ChannelBackend, Completion, CoreHealth, EngineHealth};
pub use bytes::{InlineBytes, Iv, Tag};
pub use fault::{AdversaryKind, AdversaryPlan, FaultKind, FaultPlan, FaultTrigger};
pub use format::{Direction, ProcessedPacket};
pub use functional::FunctionalBackend;
pub use key::SessionKey;
pub use mccp::{DecryptedPacket, EncryptedPacket, Mccp, MccpConfig};
pub use pipeline::{PipelineGraph, PipelineStage, StageOp};
pub use protocol::{Algorithm, ChannelId, KeyId, MccpError, Mode, RequestId};
pub use reconfig::{PolicyConfig, PolicyEngine};
