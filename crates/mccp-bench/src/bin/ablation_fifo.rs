//! Ablation — FIFO depth.
//!
//! The paper picks 512 × 32-bit FIFOs ("a packet of 2048 bytes ... is
//! sufficient for most of communication protocols"). This sweep shows what
//! shallower FIFOs cost on a 2 KB GCM-128 packet: once the packet no
//! longer fits, the core stalls on LOAD/STORE against the streaming DMA
//! (one word per cycle), and the 49-cycle loop is throttled.

use mccp_bench::iv_for;
use mccp_core::protocol::{Algorithm, KeyId};
use mccp_core::{Mccp, MccpConfig};
use mccp_sim::throughput_mbps;

fn measure(fifo_depth: usize) -> f64 {
    let mut m = Mccp::new(MccpConfig {
        fifo_depth,
        ..MccpConfig::default()
    });
    m.key_memory_mut().store(KeyId(1), &[7u8; 16]);
    let ch = m.open(Algorithm::AesGcm128, KeyId(1)).unwrap();
    let payload = vec![0xE1u8; 2048];
    // Warm-up (key expansion).
    m.encrypt_packet(ch, &[], &payload, &iv_for(Algorithm::AesGcm128, 0))
        .unwrap();
    let pkt = m
        .encrypt_packet(ch, &[], &payload, &iv_for(Algorithm::AesGcm128, 1))
        .unwrap();
    throughput_mbps(2048 * 8, pkt.cycles)
}

fn main() {
    mccp_bench::Args::parse(&[]);
    println!("Ablation: FIFO depth vs 2 KB GCM-128 packet throughput\n");
    println!(
        "{:>12} {:>12} {:>14}",
        "depth (words)", "bytes", "Mbps @190MHz"
    );
    let mut results = Vec::new();
    for depth in [16usize, 32, 64, 128, 256, 512, 1024] {
        let mbps = measure(depth);
        println!("{:>12} {:>12} {:>14.1}", depth, depth * 4, mbps);
        results.push((depth, mbps));
    }
    let lo = results.iter().map(|(_, m)| *m).fold(f64::MAX, f64::min);
    let hi = results.iter().map(|(_, m)| *m).fold(0.0f64, f64::max);
    println!("\nThroughput is flat ({lo:.1}..{hi:.1} Mbps) across all depths: the 32-bit");
    println!("streaming bus (4 B/cycle) outruns the 16 B / 49-cycle consumption rate,");
    println!("so depth never throttles a single stream. The paper's 512-word choice");
    println!("is about *packet containment*, not speed: a whole 2048-byte packet");
    println!("stays resident, which is what makes the wipe-on-auth-failure defense");
    println!("airtight (no plaintext leaves before the tag verdict) and lets the");
    println!("crossbar burst one packet per core without flow control.");
    assert!(
        hi - lo < 0.05 * hi,
        "depth must not affect single-stream throughput"
    );
    // Packets beyond the FIFO run in the (documented) streaming mode that
    // weakens the containment property — the depth buys security, not Mbps.
}
