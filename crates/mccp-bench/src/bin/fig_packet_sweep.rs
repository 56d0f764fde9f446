//! Derived figure X-1 — throughput vs packet size.
//!
//! §VII.A: "actual throughput depends on packet size, higher throughputs
//! are obtained from larger packets." Sweeps 64 B – 8 KB for single-core
//! GCM-128 and CCM-128 (packets beyond the 2 KB FIFO run in the
//! documented streaming mode) and prints the measured curve next to the
//! analytical model with the paper's implied 851-cycle overhead.

use mccp_aes::KeySize;
use mccp_bench::measure_schedule;
use mccp_core::model::{packet_mbps, stream_mbps, Schedule};

fn main() {
    mccp_bench::Args::parse(&[]);
    println!("Throughput vs packet size (single core, AES-128, Mbps @ 190 MHz)\n");
    println!(
        "{:>9} {:>14} {:>14} {:>14} {:>14}",
        "bytes", "GCM measured", "GCM model", "CCM measured", "CCM model"
    );
    let sizes = [64usize, 128, 256, 512, 1024, 2048, 4096, 8192];
    let mut prev_gcm = 0.0f64;
    for &size in &sizes {
        let gcm = measure_schedule(Schedule::Gcm1Core, KeySize::Aes128, size);
        let ccm = measure_schedule(Schedule::Ccm1Core, KeySize::Aes128, size);
        let gcm_model = packet_mbps(Schedule::Gcm1Core, KeySize::Aes128, size, 851);
        let ccm_model = packet_mbps(Schedule::Ccm1Core, KeySize::Aes128, size, 1234);
        println!(
            "{:>9} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
            size, gcm.mbps, gcm_model, ccm.mbps, ccm_model
        );
        assert!(
            gcm.mbps >= prev_gcm,
            "throughput must be monotone in packet size"
        );
        prev_gcm = gcm.mbps;
    }
    let bound = stream_mbps(Schedule::Gcm1Core, KeySize::Aes128);
    println!(
        "\nGCM asymptote (loop bound): {bound:.1} Mbps; 8 KB packets reach {:.0}% of it.",
        prev_gcm / bound * 100.0
    );
    assert!(prev_gcm < bound, "measured must stay below the loop bound");
    assert!(
        prev_gcm > 0.95 * bound,
        "large packets must approach the bound"
    );
}
