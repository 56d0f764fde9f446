//! §VII loop-cycle equations: measures the steady-state cycles per
//! 128-bit block of every mode loop from the cycle-accurate simulator
//! (firmware + CU + controller) and compares against the paper's
//! closed-form budgets (49 / 55 / 104, +8 per step of key size).
//!
//! Method: process one packet of N blocks and one of 2N blocks on a fresh
//! core; the per-block steady-state cost is the cycle difference divided
//! by N — pre/post-loop overheads cancel exactly.

use mccp_aes::KeySize;
use mccp_bench::iv_for;
use mccp_core::model::Schedule;
use mccp_core::protocol::{Algorithm, KeyId};
use mccp_core::{Mccp, MccpConfig};

fn packet_cycles(alg: Algorithm, two_core: bool, blocks: usize) -> u64 {
    let mut m = Mccp::new(MccpConfig {
        ccm_two_core: two_core,
        ..MccpConfig::default()
    });
    let key: Vec<u8> = (0..alg.key_size().key_bytes() as u8).collect();
    m.key_memory_mut().store(KeyId(1), &key);
    let ch = m.open_with_tag_len(alg, KeyId(1), 16).unwrap();
    let payload = vec![0x3Cu8; blocks * 16];
    // Warm the key cache so the Key Scheduler latency cancels too.
    let p = m
        .encrypt_packet(ch, &[], &payload, &iv_for(alg, 0))
        .unwrap();
    let _ = p;
    let p = m
        .encrypt_packet(ch, &[], &payload, &iv_for(alg, 1))
        .unwrap();
    p.cycles
}

fn measure(alg: Algorithm, two_core: bool) -> f64 {
    const N: usize = 48;
    let c1 = packet_cycles(alg, two_core, N);
    let c2 = packet_cycles(alg, two_core, 2 * N);
    (c2 - c1) as f64 / N as f64
}

fn main() {
    mccp_bench::Args::parse(&[]);
    println!("Mode-loop cycle budgets: paper equations vs cycle-accurate measurement\n");
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>10}",
        "Loop", "key", "paper", "measured", "delta"
    );
    type LoopCase = (&'static str, Algorithm, bool, fn(KeySize) -> u32);
    let cases: [LoopCase; 9] = [
        (
            "GCM (= CTR)",
            Algorithm::AesGcm128,
            false,
            mccp_cryptounit::timing::t_gcm_loop,
        ),
        (
            "GCM (= CTR)",
            Algorithm::AesGcm192,
            false,
            mccp_cryptounit::timing::t_gcm_loop,
        ),
        (
            "GCM (= CTR)",
            Algorithm::AesGcm256,
            false,
            mccp_cryptounit::timing::t_gcm_loop,
        ),
        (
            "CCM 1 core",
            Algorithm::AesCcm128,
            false,
            mccp_cryptounit::timing::t_ccm_loop_1core,
        ),
        (
            "CCM 1 core",
            Algorithm::AesCcm192,
            false,
            mccp_cryptounit::timing::t_ccm_loop_1core,
        ),
        (
            "CCM 1 core",
            Algorithm::AesCcm256,
            false,
            mccp_cryptounit::timing::t_ccm_loop_1core,
        ),
        (
            "CCM 2 cores (CBC)",
            Algorithm::AesCcm128,
            true,
            mccp_cryptounit::timing::t_ccm_loop_2core,
        ),
        (
            "CCM 2 cores (CBC)",
            Algorithm::AesCcm192,
            true,
            mccp_cryptounit::timing::t_ccm_loop_2core,
        ),
        (
            "CCM 2 cores (CBC)",
            Algorithm::AesCcm256,
            true,
            mccp_cryptounit::timing::t_ccm_loop_2core,
        ),
    ];
    let mut worst: f64 = 0.0;
    for (name, alg, two_core, model) in cases {
        let paper = model(alg.key_size()) as f64;
        let measured = measure(alg, two_core);
        let delta = measured - paper;
        worst = worst.max(delta.abs());
        println!(
            "{:<22} {:>8} {:>8.0} {:>8.2} {:>+10.2}",
            name,
            alg.key_size().key_bits(),
            paper,
            measured,
            delta
        );
    }
    println!("\nworst |delta| = {worst:.2} cycles/block");
    println!("(paper §VII: T_GCMloop = T_SAES+T_FAES = 49; T_CCM,2cores = 55;");
    println!(" T_CCM,1core = T_CTR+T_CBC = 104; +8 for 192-bit keys, +16 for 256.)");
    let _ = Schedule::ALL; // referenced for doc cross-link
}
