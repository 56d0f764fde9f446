//! # mccp-picoblaze — the Cryptographic Core's 8-bit controller
//!
//! The paper prototypes each Cryptographic Core's controller with "a
//! modified 8-bit Xilinx PicoBlaze controller" (§IV.B): 16 registers, a
//! 1024 × 18-bit instruction memory (one BRAM), **two clock cycles per
//! instruction**, interrupt support, and a **custom HALT instruction** that
//! puts the controller to sleep until the Cryptographic Unit raises its
//! `done` signal.
//!
//! This crate provides:
//!
//! * [`isa`] — the instruction set (KCPSM3 semantics plus the paper's HALT
//!   extension) with an 18-bit binary encoding. *Substitution note:* the
//!   semantics match KCPSM3; the binary encoding is our own regular layout,
//!   since bit-compatibility with Xilinx's format buys nothing here.
//! * [`asm`] — a two-pass assembler for PicoBlaze-style source (the paper
//!   writes its mode firmware in "Xilinx PicoBlaze assembler language",
//!   §VI.A — so does this reproduction; see `mccp-core`'s firmware).
//! * [`cpu`] — a cycle-accurate simulator with pluggable port I/O, used as
//!   the controller inside every simulated Cryptographic Core and for the
//!   Task Scheduler.
//!
//! ```
//! use mccp_picoblaze::asm::assemble;
//! use mccp_picoblaze::cpu::{NullPorts, PicoBlaze};
//!
//! let program = assemble(
//!     "
//!     start:  LOAD    s0, 0x05
//!             ADD     s0, 0x03
//!     done:   JUMP    done
//!     ",
//! )
//! .unwrap();
//! let mut cpu = PicoBlaze::new(program.image());
//! let mut ports = NullPorts;
//! for _ in 0..8 {
//!     cpu.tick(&mut ports);
//! }
//! assert_eq!(cpu.reg(0), 0x08);
//! ```

pub mod asm;
pub mod cpu;
pub mod isa;
pub mod profile;

pub use asm::{assemble, AsmError, Program};
pub use cpu::{PicoBlaze, PortIo, Rom};
pub use isa::Instruction;

/// Clock cycles per instruction (paper §IV.B: "Each instruction takes two
/// clock cycles to be executed").
pub const CYCLES_PER_INSTRUCTION: u32 = 2;

/// Instruction memory depth: 1024 × 18-bit words in one BRAM.
pub const IMEM_DEPTH: usize = 1024;

/// The interrupt vector (last instruction address, as on KCPSM3).
pub const INTERRUPT_VECTOR: u16 = 0x3FF;
