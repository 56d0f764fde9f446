//! Derived figure X-2 — the CCM scheduling trade-off.
//!
//! §VII.A: "AES-CCM 4x1 cores provides better throughput than AES-CCM 2x2
//! cores ... However, latency of the first solution is almost two times
//! greater than latency of the second solution." Four 2 KB CCM-128
//! packets, both schedules, measured on the cycle-accurate simulator.

use mccp_aes::KeySize;
use mccp_bench::measure_schedule;
use mccp_core::model::Schedule;

fn main() {
    mccp_bench::Args::parse(&[]);
    println!("CCM scheduling trade-off (four 2 KB CCM-128 packets, 4 cores)\n");
    println!(
        "{:>14} {:>18} {:>22}",
        "schedule", "aggregate Mbps", "per-packet latency"
    );
    let c4 = measure_schedule(Schedule::Ccm4x1, KeySize::Aes128, 2048);
    let c22 = measure_schedule(Schedule::Ccm2x2, KeySize::Aes128, 2048);
    println!(
        "{:>14} {:>18.0} {:>18} cyc",
        "4x1", c4.mbps, c4.latency_cycles
    );
    println!(
        "{:>14} {:>18.0} {:>18} cyc",
        "2x2", c22.mbps, c22.latency_cycles
    );

    let tput_gain = c4.mbps / c22.mbps;
    let latency_ratio = c4.latency_cycles as f64 / c22.latency_cycles as f64;
    println!("\n4x1 / 2x2 throughput ratio: {tput_gain:.2}x (paper: 932/884 = 1.05x)");
    println!("4x1 / 2x2 latency ratio:    {latency_ratio:.2}x (paper: \"almost two times\")");

    assert!(c4.mbps > c22.mbps, "4x1 must win on throughput");
    assert!(
        latency_ratio > 1.5 && latency_ratio < 2.2,
        "latency ratio must be near 104/55 = 1.9, got {latency_ratio:.2}"
    );
    println!("\nBoth §VII.A claims REPRODUCE: pick 4x1 for throughput, 2x2 for latency.");
}
