//! # mccp-sim — hardware-simulation substrate
//!
//! The building blocks every modeled hardware component of the MCCP shares:
//!
//! * [`fifo::HwFifo`] — the 512 × 32-bit FIFOs each Cryptographic Core uses
//!   for packet I/O (one 2048-byte packet per FIFO), including the
//!   security-relevant *wipe* operation the paper mandates on
//!   authentication failure.
//! * [`resources`] — FPGA area accounting (slices / BRAMs on the paper's
//!   Virtex-4 SX35) used to regenerate the area columns of Tables III/IV.
//! * [`vcd`] — a Value Change Dump writer, so simulations can be inspected
//!   in GTKWave like any other hardware model.
//!
//! The clock itself is [`CLOCK_HZ`]. Each simulated component (Cryptographic
//! Core, PicoBlaze, Cryptographic Unit, ...) keeps its own `tick` and
//! fast-forward horizon, under the contract in DESIGN.md §5d.

pub mod fifo;
pub mod resources;
pub mod vcd;

pub use fifo::HwFifo;
pub use resources::{ResourceReport, Resources};
pub use vcd::VcdWriter;

/// The MCCP's clock frequency on the Virtex-4 SX35-11 (paper §VII.A).
pub const CLOCK_HZ: u64 = 190_000_000;

/// Converts a cycle count into a throughput in Mbps for `bits` of payload
/// processed, at the modeled clock. This is exactly how the paper converts
/// loop budgets into Table II entries.
pub fn throughput_mbps(bits: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    (bits as f64) * (CLOCK_HZ as f64) / (cycles as f64) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_formula_matches_paper_gcm() {
        // 128 bits per 49-cycle GCM loop at 190 MHz ≈ 496 Mbps (Table II).
        let t = throughput_mbps(128, 49);
        assert!((t - 496.3).abs() < 0.5, "got {t}");
    }

    #[test]
    fn throughput_zero_cycles_is_zero() {
        assert_eq!(throughput_mbps(128, 0), 0.0);
    }
}
