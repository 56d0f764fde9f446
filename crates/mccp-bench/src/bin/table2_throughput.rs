//! Table II — MCCP encryption throughputs at 190 MHz.
//!
//! For every (schedule × key size) cell: the analytical theoretical value
//! (which must equal the paper's), the paper's measured 2 KB value, and
//! our cycle-accurate simulator's measured 2 KB value. Absolute measured
//! numbers differ from the paper's by the pre/post-loop overhead of the
//! (unpublished) original firmware; the loop-bound shape must match.

use mccp_aes::KeySize;
use mccp_bench::measure_schedule;
use mccp_core::model::{theoretical_mbps, Schedule, PAPER_TABLE2};

fn main() {
    mccp_bench::Args::parse(&[]);
    println!("Table II — MCCP encryption throughputs at 190 MHz (Mbps)");
    println!("packet = 2 KB; theoretical / paper-2KB / reproduced-2KB\n");
    print!("{:<10}", "Key");
    for s in Schedule::ALL {
        print!("{:>24}", s.label());
    }
    println!();

    let mut max_measured: f64 = 0.0;
    for (row_idx, key) in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256]
        .iter()
        .enumerate()
    {
        print!("{:<10}", key.key_bits());
        for (col, s) in Schedule::ALL.iter().enumerate() {
            let theo = theoretical_mbps(*s, *key);
            let paper_theo = PAPER_TABLE2[row_idx].entries[col].0;
            let paper_2kb = PAPER_TABLE2[row_idx].entries[col].1;
            assert_eq!(
                theo, paper_theo,
                "analytical model must reproduce the paper's theoretical column"
            );
            let measured = measure_schedule(*s, *key, 2048);
            max_measured = max_measured.max(measured.mbps);
            print!("{:>24}", format!("{theo}/{paper_2kb}/{:.0}", measured.mbps));
        }
        println!();
    }

    println!("\nHeadline: paper abstract claims 1.7 Gbps max (GCM-128 4x1).");
    println!("Reproduced maximum measured aggregate: {max_measured:.0} Mbps");
    assert!(max_measured >= 1700.0, "headline claim must reproduce");
    println!("=> the 1.7 Gbps claim REPRODUCES.");

    println!("\nShape checks:");
    println!("  - GCM > CCM at equal resources (no serial MAC on the critical path)");
    println!("  - CCM 4x1 > CCM 2x2 aggregate throughput (paper §VII.A)");
    for key in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
        let c4 = measure_schedule(Schedule::Ccm4x1, key, 2048).mbps;
        let c22 = measure_schedule(Schedule::Ccm2x2, key, 2048).mbps;
        assert!(c4 > c22, "{key:?}: 4x1 {c4} vs 2x2 {c22}");
        println!(
            "    AES-{}: 4x1 = {:.0} Mbps > 2x2 = {:.0} Mbps  OK",
            key.key_bits(),
            c4,
            c22
        );
    }
}
