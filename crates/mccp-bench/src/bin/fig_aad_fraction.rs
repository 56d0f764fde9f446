//! Derived figure X-4 — throughput vs authenticated-only fraction.
//!
//! The ENCRYPT instruction carries separate *Header Size* (authenticated
//! only) and *Data Size* operands (§III.B). AAD blocks cost one GHASH
//! iteration but no AES pass, so a GCM packet's cycle cost depends on the
//! header/payload split. This sweep holds the total at 2 KB and varies
//! the authenticated-only share.

use mccp_bench::iv_for;
use mccp_core::protocol::{Algorithm, KeyId};
use mccp_core::{Mccp, MccpConfig};
use mccp_sim::throughput_mbps;

fn measure(aad_bytes: usize, payload_bytes: usize) -> (u64, f64) {
    let mut m = Mccp::new(MccpConfig::default());
    m.key_memory_mut().store(KeyId(1), &[0x42; 16]);
    let ch = m.open(Algorithm::AesGcm128, KeyId(1)).unwrap();
    let aad = vec![0x11u8; aad_bytes];
    let payload = vec![0x22u8; payload_bytes];
    m.encrypt_packet(ch, &aad, &payload, &iv_for(Algorithm::AesGcm128, 0))
        .unwrap(); // warm
    let pkt = m
        .encrypt_packet(ch, &aad, &payload, &iv_for(Algorithm::AesGcm128, 1))
        .unwrap();
    let total_bits = ((aad_bytes + payload_bytes) * 8) as u64;
    (pkt.cycles, throughput_mbps(total_bits, pkt.cycles))
}

fn main() {
    mccp_bench::Args::parse(&[]);
    println!("GCM-128 throughput vs authenticated-only (header) fraction");
    println!("(2 KB total per packet, single core, Mbps at 190 MHz)\n");
    println!(
        "{:>10} {:>10} {:>10} {:>14} {:>14}",
        "aad B", "payload B", "cycles", "wire Mbps", "payload Mbps"
    );
    const TOTAL: usize = 2048;
    let mut prev_cycles = u64::MAX;
    for aad_share in [0usize, 12, 25, 50, 75, 100] {
        let aad = TOTAL * aad_share / 100;
        let payload = TOTAL - aad;
        let (cycles, wire_mbps) = measure(aad, payload);
        let payload_mbps = throughput_mbps((payload * 8) as u64, cycles);
        println!(
            "{:>10} {:>10} {:>10} {:>14.1} {:>14.1}",
            aad, payload, cycles, wire_mbps, payload_mbps
        );
        assert!(
            cycles <= prev_cycles,
            "more AAD (43-cycle GHASH) must not cost more than payload (49-cycle AES+GHASH)"
        );
        prev_cycles = cycles;
    }
    println!("\nAAD-only blocks ride the 43-cycle GHASH engine and skip the AES");
    println!("pass, so header-heavy packets finish sooner: the wire-rate ceiling");
    println!("rises toward 128 bits / ~49 cycles as the header share grows, while");
    println!("useful-payload throughput falls — the paper's Header/Data split in");
    println!("the ENCRYPT operands is what lets the scheduler account for this.");
}
