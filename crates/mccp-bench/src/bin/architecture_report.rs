//! Figures 1–3 — the architecture, as a component inventory with the area
//! budget that reproduces the paper's synthesis result (4084 slices /
//! 26 BRAM on the Virtex-4 SX35).

use mccp_sim::resources::{ResourceReport, Virtex4Sx35};

fn main() {
    mccp_bench::Args::parse(&[]);
    println!("MCCP architecture report (Figs. 1-3 as an inventory)\n");

    println!("Fig. 1 — top level:");
    println!("  Task Scheduler (8-bit controller) -> Instruction/Return registers");
    println!("  Cross Bar: communication controller <-> per-core FIFO pairs");
    println!("  Key Memory (write-protected) -> Key Scheduler -> per-core Key Caches");
    println!("  4 x Cryptographic Core, ring of inter-core ports\n");

    println!("Fig. 2 — one Cryptographic Core:");
    println!("  8-bit controller (PicoBlaze-class, 2 cycles/instr, custom HALT)");
    println!("  shared dual-port 1024x18 instruction memory per core pair");
    println!("  input FIFO 512x32, output FIFO 512x32, 4x32 shift register");
    println!("  Key Cache; inter-core ports left/right\n");

    println!("Fig. 3 — the Cryptographic Unit:");
    println!("  4x128-bit bank register, 2-bit sub-word counter, S register");
    println!("  decoder; AES core (44/52/60 cyc), GHASH digit-serial (43 cyc)");
    println!("  XOR/comparator + 16-bit mask, INC core, 32-bit I/O core\n");

    for n in [1usize, 2, 4, 8] {
        let report = ResourceReport::mccp(n as u32);
        let total = report.total();
        println!("--- {n}-core MCCP area budget ---");
        print!("{report}");
        println!(
            "  fits Virtex-4 SX35: {} (slice utilization {:.1}%)\n",
            Virtex4Sx35::fits(total),
            Virtex4Sx35::slice_utilization(total) * 100.0
        );
        if n == 4 {
            assert_eq!(total.slices, 4084, "paper: 4084 slices");
            assert_eq!(total.brams, 26, "paper: 26 BRAMs");
        }
    }
    println!("4-core totals match the paper's §VII.A synthesis: 4084 slices, 26 BRAMs.");
}
