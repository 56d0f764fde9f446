//! Demand-driven reconfiguration benchmark: a standards-mix shift forces
//! live CU personality swaps (AES → Twofish → Whirlpool) through the
//! policy engine, and a service-plane soak runs at steady drain while a
//! shard's CU region is mid-reconfiguration. Emits `BENCH_reconfig.json`.
//!
//! Three claims, asserted:
//!
//! - **Swaps are demand-driven and charged per Table IV.** The mix shift
//!   makes the policy flip idle cores toward the starved personality; the
//!   engine's accumulated reconfiguration stall must equal the *exact*
//!   sum of the flipped bitstreams' RAM load budgets.
//! - **No packet is lost, no nonce is reused.** Every accepted submission
//!   is delivered; rejected submissions are requeued with their own IV
//!   and every accepted (channel, IV) pair is unique.
//! - **Critical traffic rides out the capacity dip.** A service-plane
//!   soak offered at the *effective* (dip-scaled) drain rate sheds zero
//!   Critical-class packets while a core is reconfiguring.
//!
//! `--quick` shrinks the packet counts into a CI smoke that asserts the
//! same invariants and prints the JSON without rewriting the BENCH file.
//!
//! ```sh
//! cargo run --release -p mccp-bench --bin bench_reconfig [-- --quick]
//! ```

use mccp_bench::{Args, BenchFile};
use mccp_core::core_unit::Personality;
use mccp_core::pipeline::{PipelineGraph, PipelineStage, StageOp};
use mccp_core::protocol::{Algorithm, ChannelId, CipherSel, KeyId, MccpError, RequestId};
use mccp_core::reconfig::{bitstream_for, BitstreamSource, PolicyConfig};
use mccp_core::{Direction, Mccp, MccpConfig, SessionKey};
use mccp_sdr::{MccpService, QosClass, ServiceConfig, Standard};
use std::collections::HashSet;

const PAYLOAD_LEN: usize = 256;
/// Cycles the driver fast-forwards per rejected submission while it waits
/// for capacity (a fraction of the ~12M-cycle RAM load budget).
const RETRY_ADVANCE: u64 = 2_500_000;

/// Per-run audit: accepted (channel, IV) pairs must be unique and every
/// accepted packet must come back out.
struct Audit {
    nonces: HashSet<(u8, Vec<u8>)>,
    accepted: u64,
    delivered: u64,
    rejected: u64,
    nonce_reuse: u64,
}

impl Audit {
    fn new() -> Self {
        Audit {
            nonces: HashSet::new(),
            accepted: 0,
            delivered: 0,
            rejected: 0,
            nonce_reuse: 0,
        }
    }

    fn accept(&mut self, ch: ChannelId, iv: &[u8]) {
        self.accepted += 1;
        if !self.nonces.insert((ch.0, iv.to_vec())) {
            self.nonce_reuse += 1;
        }
    }
}

/// Submits one packet, requeueing (with the same not-yet-consumed IV) on
/// `NoResource` while the engine — and any policy-begun swap — advances.
fn submit_retry(
    m: &mut Mccp,
    ch: ChannelId,
    iv: &[u8],
    body: &[u8],
    audit: &mut Audit,
) -> RequestId {
    loop {
        match m.submit(ch, Direction::Encrypt, iv, &[], body, None) {
            Ok(id) => {
                audit.accept(ch, iv);
                return id;
            }
            Err(MccpError::NoResource) => {
                audit.rejected += 1;
                let now = m.cycle();
                m.run_until(now + RETRY_ADVANCE);
            }
            Err(e) => panic!("submit: {e:?}"),
        }
    }
}

fn finish(m: &mut Mccp, id: RequestId, audit: &mut Audit) {
    m.run_until_done(id, 100_000_000);
    m.retrieve(id).expect("retrieve");
    m.transfer_done(id).expect("transfer_done");
    audit.delivered += 1;
}

fn nonce_for(seq: u64, nonce_len: usize) -> Vec<u8> {
    let mut iv = vec![0u8; nonce_len];
    iv[..8].copy_from_slice(&seq.to_be_bytes());
    iv
}

fn personality_name(p: Personality) -> &'static str {
    match p {
        Personality::AesUnit => "aes",
        Personality::TwofishUnit => "twofish",
        Personality::WhirlpoolUnit => "whirlpool",
    }
}

struct MixShiftResult {
    swaps: u64,
    stall_cycles: u64,
    expected_stall_cycles: u64,
    cores_final: Vec<Personality>,
    offered: [u64; 3],
    served: [u64; 3],
    audit: Audit,
}

/// The mix-shift soak on the raw cycle-accurate engine: an AES-dominated
/// phase, a shift to Twofish-cipher traffic, then a pipeline phase whose
/// final stage demands a Whirlpool core. Every swap is begun by the
/// policy on a `NoResource` rejection — never scripted.
fn mix_shift_soak(phase1: usize, phase2_pairs: usize, phase3: usize) -> MixShiftResult {
    let mut m = Mccp::new(MccpConfig::default());
    m.enable_reconfig_policy(PolicyConfig::default());
    let mut audit = Audit::new();

    // Phase 1: a four-standard AES mix (CCMP, GCM, CTR, 256-bit CCM).
    m.key_memory_mut().store(KeyId(1), &[0x11; 16]);
    m.key_memory_mut().store(KeyId(2), &[0x22; 16]);
    m.key_memory_mut().store(KeyId(3), &[0x33; 16]);
    m.key_memory_mut().store(KeyId(4), &[0x44; 32]);
    let aes_channels = [
        (m.open(Algorithm::AesCcm128, KeyId(1)).unwrap(), 12),
        (m.open(Algorithm::AesGcm128, KeyId(2)).unwrap(), 12),
        (m.open(Algorithm::AesCtr128, KeyId(3)).unwrap(), 16),
        (m.open(Algorithm::AesCcm256, KeyId(4)).unwrap(), 12),
    ];
    let body = vec![0xB7u8; PAYLOAD_LEN];
    let mut seq = 1u64;
    for i in 0..phase1 {
        let (ch, nonce_len) = aes_channels[i % aes_channels.len()];
        let iv = nonce_for(seq, nonce_len);
        seq += 1;
        let id = submit_retry(&mut m, ch, &iv, &body, &mut audit);
        finish(&mut m, id, &mut audit);
    }
    assert_eq!(
        m.policy().unwrap().swaps(),
        0,
        "no swap without starved demand"
    );

    // Phase 2: the mix shifts — traffic is now Twofish-GCM on two
    // channels, offered in pairs so sustained demand outruns the single
    // freshly-flipped core and pulls a second CU over.
    m.key_memory_mut().store(KeyId(5), &[0x55; 16]);
    m.key_memory_mut().store(KeyId(6), &[0x66; 16]);
    let tf_a = m
        .open_with_cipher(Algorithm::AesGcm128, KeyId(5), 16, CipherSel::Twofish)
        .unwrap();
    let tf_b = m
        .open_with_cipher(Algorithm::AesGcm128, KeyId(6), 16, CipherSel::Twofish)
        .unwrap();
    for _ in 0..phase2_pairs {
        let iv_a = nonce_for(seq, 12);
        let iv_b = nonce_for(seq + 1, 12);
        seq += 2;
        let a = submit_retry(&mut m, tf_a, &iv_a, &body, &mut audit);
        let b = submit_retry(&mut m, tf_b, &iv_b, &body, &mut audit);
        finish(&mut m, a, &mut audit);
        finish(&mut m, b, &mut audit);
    }
    assert!(
        m.policy().unwrap().swaps() >= 1,
        "the Twofish shift must flip at least one CU"
    );

    // Phase 3: a Twofish-CTR → HMAC-Whirlpool pipeline graph; its final
    // stage demands the personality only a live reconfiguration provides.
    let graph = PipelineGraph::new(
        vec![
            PipelineStage {
                op: StageOp::Ctr,
                cipher: CipherSel::Twofish,
                key: SessionKey::new(&[0x77; 16]).unwrap(),
            },
            PipelineStage {
                op: StageOp::WhirlpoolHmac,
                cipher: CipherSel::Aes,
                key: SessionKey::new(&[0x88; 32]).unwrap(),
            },
        ],
        32,
    );
    let pch = m.open_pipeline(&graph).unwrap();
    for _ in 0..phase3 {
        let iv = nonce_for(seq, 16);
        seq += 1;
        let id = submit_retry(&mut m, pch, &iv, &body, &mut audit);
        finish(&mut m, id, &mut audit);
    }

    // Let every begun swap finish, so the stall ledger is complete.
    while (0..4).any(|i| m.is_reconfiguring(i)) {
        let now = m.cycle();
        m.run_until(now + 1_000_000);
    }

    let cores_final: Vec<Personality> = (0..4).map(|i| m.core(i).personality()).collect();
    let flipped: Vec<Personality> = cores_final
        .iter()
        .copied()
        .filter(|&p| p != Personality::AesUnit)
        .collect();
    let pe = m.policy().unwrap();
    let swaps = pe.swaps();
    assert!(
        flipped.len() >= 2,
        "the mix shift must flip at least two CUs, got {cores_final:?}"
    );
    assert_eq!(
        swaps,
        flipped.len() as u64,
        "each affected CU flips exactly once ({cores_final:?})"
    );
    // Table IV, charged: the engine's reconfiguration stall is exactly
    // the sum of the flipped bitstreams' RAM load budgets (+1 per swap:
    // the region comes back up on the tick after the countdown expires).
    let expected_stall: u64 = flipped
        .iter()
        .map(|&p| bitstream_for(p).load_time_cycles(BitstreamSource::Ram) + 1)
        .sum();
    assert_eq!(m.reconfig_stall_cycles(), expected_stall);

    assert_eq!(audit.accepted, audit.delivered, "no packet may be lost");
    assert_eq!(audit.nonce_reuse, 0, "no nonce may be reused across swaps");

    MixShiftResult {
        swaps,
        stall_cycles: m.reconfig_stall_cycles(),
        expected_stall_cycles: expected_stall,
        cores_final,
        offered: pe.offered_total(),
        served: pe.served_total(),
        audit,
    }
}

struct ServiceDipResult {
    rounds: usize,
    offered: u64,
    admitted: u64,
    delivered: u64,
    sheds: [u64; 3],
    drain_budget: usize,
    effective_drain_budget: usize,
}

/// Steady-drain service soak during a swap window: every shard's engine
/// has one CU mid-reconfiguration for the whole run, so QoS admission
/// judges the queue against the dip-scaled drain budget. Offered load
/// matches that effective rate — Critical must shed nothing.
fn service_dip_soak(rounds: usize) -> ServiceDipResult {
    let drain_budget = 8;
    let config = ServiceConfig {
        shards: 2,
        queue_capacity: 64,
        drain_budget,
        warm_set_capacity: 32,
        step_bound: 200_000,
        ..ServiceConfig::default()
    };
    let mut svc: MccpService<Mccp> = MccpService::new(config, |_| {
        let mut m = Mccp::new(MccpConfig::default());
        m.enable_reconfig_policy(PolicyConfig::default());
        // The swap window: one CU flips to Whirlpool through the policy
        // path, dipping the shard's AES capacity from 4 cores to 3 for
        // the ~12M-cycle load (far longer than this soak advances).
        m.policy_swap(3, Personality::WhirlpoolUnit)
            .expect("swap begins on the idle core");
        m
    });
    // 4 cores, 1 reconfiguring: available/total = 3/4.
    let effective = (drain_budget * 3 / 4).max(1);

    // Both shards hold both classes (round-robin placement alternates).
    let channels: Vec<_> = (0..16)
        .map(|i| {
            let (s, key_len) = if i % 2 == 0 {
                (Standard::SecureVoice, 32)
            } else {
                (Standard::Wifi, 16)
            };
            svc.open(s, &vec![(i + 1) as u8; key_len]).expect("open")
        })
        .collect();

    let payload = vec![0x9Eu8; PAYLOAD_LEN];
    let mut delivered = 0u64;
    for round in 0..rounds {
        // Exactly the effective rate per shard per round: 2 shards × the
        // dip-scaled budget, split evenly over both classes.
        for k in 0..(2 * effective) {
            let ch = channels[(round * 2 * effective + k) % channels.len()];
            svc.submit(ch, b"dip", &payload, round as u64)
                .expect("steady-drain submit is never shed");
        }
        for d in svc.pump() {
            assert!(d.auth_ok);
            delivered += 1;
        }
    }
    delivered += svc.quiesce(10_000).len() as u64;

    let c = svc.counters();
    let sheds = [
        c.classes[QosClass::Critical.index()].shed,
        c.classes[QosClass::Standard.index()].shed,
        c.classes[QosClass::BestEffort.index()].shed,
    ];
    let offered: u64 = c.classes.iter().map(|cl| cl.offered).sum();
    let admitted: u64 = c.classes.iter().map(|cl| cl.admitted).sum();
    assert_eq!(
        sheds[0], 0,
        "Critical must shed nothing at steady drain during the swap window"
    );
    assert_eq!(delivered, admitted, "every admitted packet is delivered");
    ServiceDipResult {
        rounds,
        offered,
        admitted,
        delivered,
        sheds,
        drain_budget,
        effective_drain_budget: effective,
    }
}

fn main() {
    let quick = Args::parse(&["--quick"]).flag("--quick");
    let (phase1, phase2_pairs, phase3, rounds) = if quick {
        (12, 6, 4, 12)
    } else {
        (40, 20, 8, 40)
    };

    println!(
        "bench_reconfig{}: mix-shift soak ({phase1}+{}+{phase3} packets) \
         + service swap-window soak ({rounds} rounds)",
        if quick { " (--quick)" } else { "" },
        2 * phase2_pairs
    );

    let mix = mix_shift_soak(phase1, phase2_pairs, phase3);
    let cores: Vec<String> = mix
        .cores_final
        .iter()
        .map(|&p| personality_name(p).to_string())
        .collect();
    println!(
        "  mix shift: {} swaps (cores now {:?}), stall {} cycles (= Table IV RAM budgets), \
         {} accepted / {} delivered / {} requeued, nonce reuse {}",
        mix.swaps,
        cores,
        mix.stall_cycles,
        mix.audit.accepted,
        mix.audit.delivered,
        mix.audit.rejected,
        mix.audit.nonce_reuse
    );

    let dip = service_dip_soak(rounds);
    println!(
        "  swap window: {} offered at effective drain {}/{} per shard, \
         sheds critical/standard/best-effort = {}/{}/{}, {} delivered",
        dip.offered,
        dip.effective_drain_budget,
        dip.drain_budget,
        dip.sheds[0],
        dip.sheds[1],
        dip.sheds[2],
        dip.delivered
    );

    let json = format!(
        "{{\n  \"benchmark\": \"reconfig_policy\",\n  \
         \"engine\": \"cycle\",\n  \
         \"host_parallelism\": {},\n  \
         \"policy\": {{\"source\": \"ram\", \"min_samples\": 4, \"demand_ratio\": 2, \
         \"min_dwell_cycles\": 0}},\n  \
         \"table_iv_budgets_cycles\": {{\"aes\": {}, \"twofish\": {}, \"whirlpool\": {}}},\n  \
         \"mix_shift\": {{\"phase_packets\": [{phase1}, {}, {phase3}], \
         \"swaps\": {}, \"stall_cycles\": {}, \"expected_stall_cycles\": {}, \
         \"cores_final\": [{}], \
         \"accepted\": {}, \"delivered\": {}, \"dropped_packets\": {}, \
         \"requeued_submissions\": {}, \"nonce_reuse\": {}, \
         \"offered_per_personality\": {{\"aes\": {}, \"twofish\": {}, \"whirlpool\": {}}}, \
         \"served_per_personality\": {{\"aes\": {}, \"twofish\": {}, \"whirlpool\": {}}}}},\n  \
         \"service_swap_window\": {{\"shards\": 2, \"rounds\": {}, \
         \"drain_budget\": {}, \"effective_drain_budget\": {}, \
         \"offered\": {}, \"admitted\": {}, \"delivered\": {}, \
         \"sheds\": {{\"critical\": {}, \"standard\": {}, \"best_effort\": {}}}, \
         \"critical_sheds_during_swaps\": {}}},\n  \
         \"note\": \"swaps are policy-begun on NoResource rejections only and claim idle \
         cores, so no in-flight packet is interrupted; stall_cycles must equal the sum of \
         the flipped bitstreams' Table IV RAM load budgets; the service soak runs entirely \
         inside a swap window at the dip-scaled drain rate\"\n}}\n",
        mccp_sdr::host_parallelism(),
        bitstream_for(Personality::AesUnit).load_time_cycles(BitstreamSource::Ram),
        bitstream_for(Personality::TwofishUnit).load_time_cycles(BitstreamSource::Ram),
        bitstream_for(Personality::WhirlpoolUnit).load_time_cycles(BitstreamSource::Ram),
        2 * phase2_pairs,
        mix.swaps,
        mix.stall_cycles,
        mix.expected_stall_cycles,
        cores
            .iter()
            .map(|c| format!("\"{c}\""))
            .collect::<Vec<_>>()
            .join(", "),
        mix.audit.accepted,
        mix.audit.delivered,
        mix.audit.accepted - mix.audit.delivered,
        mix.audit.rejected,
        mix.audit.nonce_reuse,
        mix.offered[0],
        mix.offered[1],
        mix.offered[2],
        mix.served[0],
        mix.served[1],
        mix.served[2],
        dip.rounds,
        dip.drain_budget,
        dip.effective_drain_budget,
        dip.offered,
        dip.admitted,
        dip.delivered,
        dip.sheds[0],
        dip.sheds[1],
        dip.sheds[2],
        dip.sheds[0],
    );
    BenchFile("BENCH_reconfig.json").record(&json, !quick);
    print!("{json}");
    println!(
        "bench_reconfig PASSED: {} swaps charged {} stall cycles, 0 dropped, \
         0 nonce reuse, 0 Critical sheds during the swap window",
        mix.swaps, mix.stall_cycles
    );
}
