//! Ablation — the per-core Key Cache (paper §IV.A).
//!
//! Each Cryptographic Core caches one expanded key schedule. A channel
//! that keeps landing on the same core pays the Key Scheduler exactly
//! once; channels that *alternate* on one core thrash the cache and pay
//! the expansion latency on every packet. This measures both patterns and
//! the cost per miss.

use mccp_core::key::KeyScheduler;
use mccp_core::protocol::{Algorithm, KeyId};
use mccp_core::{Mccp, MccpConfig};

/// Runs `n` small packets on a single-core MCCP over the given channels
/// (round-robin) and reports (total cycles, key expansions).
fn run(channels: usize, packets: usize) -> (u64, u64) {
    let mut m = Mccp::new(MccpConfig {
        n_cores: 1,
        ..MccpConfig::default()
    });
    let chans: Vec<_> = (0..channels)
        .map(|i| {
            let key = [i as u8 + 1; 16];
            m.key_memory_mut().store(KeyId(i as u8 + 1), &key);
            m.open(Algorithm::AesGcm128, KeyId(i as u8 + 1)).unwrap()
        })
        .collect();
    let payload = [0xA5u8; 256];
    let start = m.cycle();
    for p in 0..packets {
        let ch = chans[p % channels.max(1)];
        let mut iv = [0u8; 12];
        iv[4..].copy_from_slice(&(p as u64).to_be_bytes());
        m.encrypt_packet(ch, &[], &payload, &iv).unwrap();
    }
    (m.cycle() - start, m.expansions())
}

fn main() {
    mccp_bench::Args::parse(&[]);
    println!("Ablation: per-core Key Cache under channel interleaving");
    println!("(single core, 16 x 256-byte GCM-128 packets)\n");
    println!(
        "{:>10} {:>12} {:>12} {:>16}",
        "channels", "cycles", "expansions", "cycles/packet"
    );
    const PACKETS: usize = 16;
    let mut base = 0u64;
    for channels in [1usize, 2, 4] {
        let (cycles, expansions) = run(channels, PACKETS);
        if channels == 1 {
            base = cycles;
        }
        println!(
            "{:>10} {:>12} {:>12} {:>16.1}",
            channels,
            cycles,
            expansions,
            cycles as f64 / PACKETS as f64
        );
        if channels == 1 {
            assert_eq!(expansions, 1, "one channel = one expansion");
        } else {
            // Alternating channels on one core miss every packet.
            assert_eq!(expansions as usize, PACKETS, "thrash = miss per packet");
        }
    }
    let (thrash, _) = run(2, PACKETS);
    let per_miss = (thrash - base) as f64 / (PACKETS - 1) as f64;
    println!(
        "\ncache-miss cost ≈ {per_miss:.0} cycles/packet (AES-128 expansion = {} cycles)",
        KeyScheduler::expansion_cycles(mccp_aes::KeySize::Aes128)
    );
    println!("On a 4-core MCCP the first-idle dispatcher tends to re-land a");
    println!("channel on its previous core, so real workloads mostly hit; the");
    println!("cache is what makes the shared Key Scheduler a non-bottleneck.");
}
