//! Ablation — replacing AES with Twofish (paper §IX).
//!
//! "AES core may be easily replaced by any other 128-bit block cipher
//! (such as Twofish) according to the user needs." Here one core is
//! live-reconfigured to the Twofish unit through the demand-policy swap
//! path — charging the full Table IV RAM load latency before the first
//! packet — and the *same GCM firmware* runs on both engines; throughput
//! shifts only by the engines' per-block latencies (44 vs 48 modeled
//! cycles).

use mccp_core::core_unit::Personality;
use mccp_core::protocol::{Algorithm, CipherSel, KeyId};
use mccp_core::{Mccp, MccpConfig, PolicyConfig};
use mccp_cryptounit::engine::TWOFISH_CYCLES;
use mccp_cryptounit::timing::T_FINALIZE;
use mccp_sim::throughput_mbps;

fn measure(cipher: CipherSel) -> f64 {
    let mut m = Mccp::new(MccpConfig::default());
    m.key_memory_mut().store(KeyId(1), &[0x42; 16]);
    if cipher == CipherSel::Twofish {
        // A policy-accounted live swap, not a teleport: the region is
        // reserved for the whole RAM load budget and only then comes up
        // with the Twofish personality.
        m.enable_reconfig_policy(PolicyConfig::default());
        let budget = m.policy_swap(0, Personality::TwofishUnit).unwrap();
        let target = m.cycle() + budget + 1;
        m.run_until(target);
        assert!(!m.is_reconfiguring(0), "swap must complete within budget");
        assert_eq!(m.policy().unwrap().swaps(), 1);
    }
    let ch = m
        .open_with_cipher(Algorithm::AesGcm128, KeyId(1), 16, cipher)
        .unwrap();
    let payload = vec![0xA5u8; 2048];
    m.encrypt_packet(ch, &[], &payload, &[1u8; 12]).unwrap(); // warm
    let pkt = m.encrypt_packet(ch, &[], &payload, &[2u8; 12]).unwrap();
    throughput_mbps(2048 * 8, pkt.cycles)
}

fn main() {
    mccp_bench::Args::parse(&[]);
    println!("Ablation: cipher swap in the reconfigurable CU region (GCM, 2 KB)\n");
    let aes = measure(CipherSel::Aes);
    let tf = measure(CipherSel::Twofish);
    println!("  AES engine (44-cycle core):      {aes:.1} Mbps @ 190 MHz");
    println!("  Twofish engine ({TWOFISH_CYCLES}-cycle model): {tf:.1} Mbps @ 190 MHz");
    let model_ratio = (44 + T_FINALIZE) as f64 / (TWOFISH_CYCLES + T_FINALIZE) as f64;
    println!(
        "  measured ratio {:.3} vs loop-model ratio {:.3}",
        tf / aes,
        model_ratio
    );
    println!("\nSame firmware, same protocol, same packets — only the engine in");
    println!(
        "the reconfigurable region differs. The ~{:.0}% delta is exactly the",
        (1.0 - model_ratio) * 100.0
    );
    println!("44→{TWOFISH_CYCLES}-cycle block-latency difference; everything else hides in");
    println!("the background window. That is the paper's flexibility claim, measured.");
    assert!(
        (tf / aes - model_ratio).abs() < 0.03,
        "swap must track the loop model"
    );
}
