//! Wall-clock cost of the cycle-accurate simulator itself: simulating one
//! 2 KB packet (≈7k modeled cycles across four cores, a PicoBlaze and a
//! Cryptographic Unit each) — the "how slow is the simulation" number a
//! user sizing experiments needs.
//!
//! ```sh
//! cargo bench -p mccp-bench --bench simulator
//! ```

use mccp_bench::{Args, Sampler};
use mccp_core::protocol::{Algorithm, KeyId};
use mccp_core::{Mccp, MccpConfig};

fn main() {
    Args::parse(&["--bench"]);
    for (name, algorithm, tag_len) in [
        ("gcm128-2kb-packet", Algorithm::AesGcm128, 16),
        ("ccm128-2kb-packet", Algorithm::AesCcm128, 8),
    ] {
        let mut m = Mccp::new(MccpConfig::default());
        m.key_memory_mut().store(KeyId(1), &[7u8; 16]);
        let ch = m.open_with_tag_len(algorithm, KeyId(1), tag_len).unwrap();
        let payload = vec![0u8; 2048];
        let mut ctr = 0u64;
        Sampler::RECORD.bench(&format!("cycle-accurate-sim/{name}"), 2048, || {
            ctr += 1;
            let mut iv = [0u8; 12];
            iv[4..].copy_from_slice(&ctr.to_be_bytes());
            m.encrypt_packet(ch, &[], &payload, &iv).unwrap()
        });
    }
}
