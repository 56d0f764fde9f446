//! Key-lifecycle benchmark: live rekeying under load, the modeled ECC
//! channel-establishment cost under a flash crowd, and the adversarial
//! traffic plane — on both engines. Emits `BENCH_keylife.json`.
//!
//! Four claims, asserted:
//!
//! - **Rekeying is lossless and epoch-exact.** A standing population
//!   rotates keys every round under load; every admitted packet is
//!   delivered, every delivery's ciphertext matches the software GCM
//!   oracle for *its* epoch's key, and no (channel, IV) pair repeats —
//!   the nonce counter continues across rotations.
//! - **Handshake cost degrades BestEffort before Critical.** A flash
//!   crowd of channel opens, each charged the modeled ECC scalar-mult
//!   budget (arXiv:1401.3421 ratios at 190 MHz), floods a small queue:
//!   BestEffort opens shed, Critical sheds nothing.
//! - **Handshakes overlap with live traffic.** The establishment runs as
//!   a cycle horizon, not a core occupant: traffic makespan with a
//!   pending handshake equals the makespan without one, cycle-exact.
//! - **Every attack is rejected, typed, leak-free.** The seeded
//!   adversary suite (tampering, bit flips, replay, truncation,
//!   extension, stale epochs, forged ids) is 100% rejected on both
//!   engines with zero plaintext released and zero crypto state
//!   disturbed; telemetry exports carry zero key bytes.
//!
//! `--quick` shrinks the counts into a CI smoke that asserts the same
//! invariants and prints the JSON without rewriting the BENCH file.
//!
//! ```sh
//! cargo run --release -p mccp-bench --bin bench_keylife [-- --quick]
//! ```

use mccp_aes::modes::gcm_seal;
use mccp_aes::Aes;
use mccp_bench::{Args, BenchFile};
use mccp_core::model::ECC_SCALAR_MULT_CYCLES;
use mccp_core::protocol::Algorithm;
use mccp_core::{
    submit_and_wait, AdversaryPlan, ChannelBackend, Direction, FunctionalBackend, Iv, Mccp,
    MccpConfig,
};
use mccp_sdr::{
    run_adversary_suite, AdversaryReport, MccpService, QosClass, ServiceConfig, ServiceError,
    Standard,
};
use std::collections::HashSet;

const AAD: &[u8] = b"keylife";

struct RekeyResult {
    submitted: u64,
    delivered: u64,
    rekeys: u64,
    nonce_reuse: u64,
    oracle_failures: u64,
}

/// Per-channel, per-epoch session key (deterministic so the oracle can
/// reconstruct the rotation history from a delivery's epoch tag).
fn session_key(chan: usize, epoch: u32) -> Vec<u8> {
    (0..16)
        .map(|b| (chan as u8).wrapping_mul(29) ^ (epoch as u8).wrapping_mul(113) ^ (b as u8) ^ 0x5C)
        .collect()
}

fn payload_for(chan: usize, round: usize, p: usize) -> Vec<u8> {
    vec![(chan as u8) ^ (round as u8).wrapping_mul(17) ^ (p as u8); 96]
}

/// Rekey-under-load on one engine through the service plane: `channels`
/// Wimax (AES-GCM-128) sessions, `rounds` rotations, `pkts` packets per
/// channel per round, oracle-verified per epoch.
fn rekey_under_load<B: ChannelBackend>(
    mk: impl Fn() -> B,
    channels: usize,
    rounds: usize,
    pkts: usize,
) -> RekeyResult {
    let mut svc = MccpService::new(
        ServiceConfig {
            shards: 2,
            queue_capacity: 1024,
            drain_budget: 32,
            warm_set_capacity: 32,
            step_bound: 200_000,
            ..ServiceConfig::default()
        },
        |_| mk(),
    );
    let ids: Vec<_> = (0..channels)
        .map(|i| svc.open(Standard::Wimax, &session_key(i, 0)).expect("open"))
        .collect();

    let mut seen_ivs: HashSet<(u64, Iv)> = HashSet::new();
    let mut r = RekeyResult {
        submitted: 0,
        delivered: 0,
        rekeys: 0,
        nonce_reuse: 0,
        oracle_failures: 0,
    };
    let settle =
        |out: Vec<mccp_sdr::Delivery>, seen: &mut HashSet<(u64, Iv)>, r: &mut RekeyResult| {
            for d in out {
                assert!(d.auth_ok, "service traffic never forges");
                let chan = (d.user_tag >> 32) as usize;
                let round = ((d.user_tag >> 16) & 0xFFFF) as usize;
                let p = (d.user_tag & 0xFFFF) as usize;
                assert_eq!(
                    d.epoch as usize, round,
                    "FIFO rekey boundary is epoch-exact"
                );
                if !seen.insert((d.channel.0, d.iv)) {
                    r.nonce_reuse += 1;
                }
                // The ciphertext must match the software oracle under the
                // key of the epoch the delivery is tagged with.
                let key = session_key(chan, d.epoch);
                let sealed = gcm_seal(
                    &Aes::new(&key),
                    &d.iv,
                    AAD,
                    &payload_for(chan, round, p),
                    16,
                )
                .expect("oracle");
                let n = d.body.len();
                if sealed[..n] != d.body[..] || sealed[n..] != d.tag[..] {
                    r.oracle_failures += 1;
                }
                r.delivered += 1;
            }
        };
    for round in 0..rounds {
        for (i, id) in ids.iter().enumerate() {
            for p in 0..pkts {
                let tag = ((i as u64) << 32) | ((round as u64) << 16) | p as u64;
                svc.submit(*id, AAD, &payload_for(i, round, p), tag)
                    .expect("submit");
                r.submitted += 1;
            }
            if i % 8 == 7 {
                let out = svc.pump();
                settle(out, &mut seen_ivs, &mut r);
            }
        }
        if round + 1 < rounds {
            for (i, id) in ids.iter().enumerate() {
                svc.rekey(*id, &session_key(i, round as u32 + 1))
                    .expect("rekey");
            }
        }
    }
    let out = svc.quiesce(10_000);
    settle(out, &mut seen_ivs, &mut r);
    r.rekeys = svc.counters().rekeys;

    assert_eq!(r.delivered, r.submitted, "live rekeying drops nothing");
    assert_eq!(r.rekeys, (channels * (rounds - 1)) as u64);
    assert_eq!(r.nonce_reuse, 0, "nonce counters continue across rekeys");
    assert_eq!(r.oracle_failures, 0, "every epoch's ciphertext is exact");
    r
}

struct FlashCrowdResult {
    offered: u64,
    opened: u64,
    sheds: [u64; 3],
    handshakes: u64,
}

/// A flash crowd of BestEffort opens against one shard with the modeled
/// ECC establishment enabled: admission must shed BestEffort at the
/// watermark while Critical opens ride through the same full queue.
fn handshake_flash_crowd(crowd: usize, critical: usize) -> FlashCrowdResult {
    let mut svc: MccpService<FunctionalBackend> = MccpService::new(
        ServiceConfig {
            shards: 1,
            queue_capacity: 10,
            drain_budget: 4,
            warm_set_capacity: 32,
            step_bound: 200_000,
            handshake_cycles: Some(ECC_SCALAR_MULT_CYCLES),
            ..ServiceConfig::default()
        },
        |_| FunctionalBackend::new(),
    );
    let mut opened = 0u64;
    for i in 0..crowd {
        match svc.open(Standard::Umts, &[(i % 250) as u8 + 1; 16]) {
            Ok(_) => opened += 1,
            Err(ServiceError::Busy { .. }) => {}
            Err(e) => panic!("crowd open: {e:?}"),
        }
        // Drain occasionally so part of the crowd establishes — the
        // burst still outruns the handshake drain rate.
        if i % 8 == 7 {
            svc.pump();
        }
    }
    // Critical voice establishes through the same pressure, unshed.
    for i in 0..critical {
        svc.open(Standard::SecureVoice, &[(i + 1) as u8; 32])
            .expect("Critical opens are never shed by the crowd");
        opened += 1;
    }
    svc.quiesce(10_000);
    let c = svc.counters();
    let sheds = [
        c.classes[QosClass::Critical.index()].shed,
        c.classes[QosClass::Standard.index()].shed,
        c.classes[QosClass::BestEffort.index()].shed,
    ];
    assert!(sheds[2] > 0, "the crowd must hit the BestEffort watermark");
    assert_eq!(sheds[0], 0, "Critical sheds nothing during the crowd");
    assert_eq!(c.handshake_sheds, sheds[0] + sheds[1] + sheds[2]);
    assert_eq!(c.handshakes, opened, "every admitted open establishes");
    FlashCrowdResult {
        offered: crowd as u64 + critical as u64,
        opened,
        sheds,
        handshakes: c.handshakes,
    }
}

struct OverlapResult {
    traffic_makespan: u64,
    traffic_makespan_with_handshake: u64,
    total_with_handshake: u64,
    hidden_cycles: u64,
}

/// Measures the cycle-exact traffic makespan with and without a pending
/// ECC handshake on the same engine. The handshake is a cycle horizon on
/// the asymmetric unit — it must not occupy a crypto core, so the two
/// makespans are identical and the handshake cost is fully hidden behind
/// live traffic.
fn handshake_overlap(packets: usize) -> OverlapResult {
    let body = vec![0x6Bu8; 1024];
    let run = |with_handshake: bool| -> (u64, u64) {
        let mut m = Mccp::new(MccpConfig::default());
        let live = m
            .open_channel(Algorithm::AesGcm128, &[0x31; 16], 16)
            .unwrap();
        let pending = with_handshake.then(|| {
            m.open_channel_handshake(
                Algorithm::AesGcm128,
                &[0x32; 16],
                16,
                ECC_SCALAR_MULT_CYCLES,
            )
            .unwrap()
        });
        for i in 0..packets {
            let iv = [i as u8 + 1; 12];
            let done = submit_and_wait(&mut m, live, Direction::Encrypt, &iv, AAD, &body, None);
            assert!(done.expect("submit").auth_ok);
        }
        let traffic_done = m.now();
        let mut total = traffic_done;
        if let Some(p) = pending {
            let done =
                submit_and_wait(&mut m, p, Direction::Encrypt, &[0xEE; 12], AAD, &body, None);
            assert!(done.expect("submit").auth_ok);
            total = m.now();
        }
        (traffic_done, total)
    };
    let (without, _) = run(false);
    let (with, total) = run(true);
    assert_eq!(
        with, without,
        "a pending handshake must not slow live traffic by a single cycle"
    );
    assert!(
        total < without + ECC_SCALAR_MULT_CYCLES,
        "the handshake window must overlap traffic ({total} >= {without} + {ECC_SCALAR_MULT_CYCLES})"
    );
    OverlapResult {
        traffic_makespan: without,
        traffic_makespan_with_handshake: with,
        total_with_handshake: total,
        hidden_cycles: (without + ECC_SCALAR_MULT_CYCLES).saturating_sub(total),
    }
}

fn adversary_on<B: ChannelBackend>(mut backend: B, seed: u64, attacks: usize) -> AdversaryReport {
    let plan = AdversaryPlan::random(seed, attacks);
    let report = run_adversary_suite(&mut backend, &plan);
    assert!(
        report.contract_holds(),
        "adversary contract violated: {report:?}"
    );
    assert_eq!(report.attacks, attacks as u64);
    for (label, driven, rejected) in &report.per_kind {
        assert_eq!(driven, rejected, "{label}: every driven attack rejected");
    }
    report
}

/// Key-byte scan over every telemetry exporter output after a keyed,
/// rekeyed workload (same needle forms as `tests/key_leak.rs`).
fn key_leak_scan() -> (usize, u64) {
    let key0: [u8; 16] = [
        0xD3, 0xAD, 0xC0, 0xDE, 0xFA, 0xCE, 0xB0, 0x0C, 0x8B, 0xAD, 0xF0, 0x0D, 0xDE, 0xFE, 0xC8,
        0xED,
    ];
    let key1: [u8; 16] = [
        0xCA, 0xFE, 0xD0, 0x0D, 0xBE, 0xEF, 0xFE, 0xED, 0xAB, 0xAD, 0x1D, 0xEA, 0x5E, 0xCF, 0xAC,
        0xE5,
    ];
    let mut m = Mccp::new(MccpConfig::default());
    m.enable_telemetry(4096);
    let ch = m.open_channel(Algorithm::AesGcm128, &key0, 16).unwrap();
    let body = vec![0x7Eu8; 512];
    let done = submit_and_wait(&mut m, ch, Direction::Encrypt, &[1u8; 12], AAD, &body, None);
    assert!(done.expect("submit").auth_ok);
    assert_eq!(m.rekey_channel(ch, &key1).unwrap(), 1);
    let done = submit_and_wait(&mut m, ch, Direction::Encrypt, &[2u8; 12], AAD, &body, None);
    assert!(done.expect("submit").auth_ok);

    let events = m.telemetry_mut().take_events();
    let snapshot = m.telemetry_snapshot();
    let vcd = mccp_telemetry::vcd_bridge::spans_to_vcd(
        "mccp_telemetry",
        mccp_sim::CLOCK_HZ,
        m.telemetry().spans().spans(),
        1,
    );
    let exports = [
        mccp_telemetry::export::json_lines(&events),
        mccp_telemetry::export::prometheus_text(&snapshot),
        mccp_telemetry::export::utilization_report(&snapshot),
        vcd.render(),
    ];
    let mut occurrences = 0u64;
    for key in [&key0, &key1] {
        let lower: Vec<String> = key.iter().map(|b| format!("{b:02x}")).collect();
        let dec: Vec<String> = key.iter().map(|b| b.to_string()).collect();
        for needle in [
            lower.concat(),
            lower.join(" "),
            lower.join(", "),
            dec.join(", "),
        ] {
            for text in &exports {
                occurrences += text.to_lowercase().matches(&needle).count() as u64;
            }
        }
    }
    assert_eq!(occurrences, 0, "key bytes leaked into a telemetry export");
    (exports.len(), occurrences)
}

fn main() {
    let quick = Args::parse(&["--quick"]).flag("--quick");
    let (channels, rounds, pkts, crowd, critical, overlap_pkts, attacks) = if quick {
        (8, 3, 2, 24, 2, 8, 14)
    } else {
        (32, 5, 4, 96, 4, 24, 42)
    };
    println!(
        "bench_keylife{}: rekey-under-load ({channels} ch x {rounds} rounds x {pkts} pkts, \
         both engines) + handshake flash crowd ({crowd} opens) + overlap ({overlap_pkts} pkts) \
         + adversary suite ({attacks} attacks, both engines)",
        if quick { " (--quick)" } else { "" }
    );

    let rk_cycle = rekey_under_load(
        || {
            let mut m = Mccp::new(MccpConfig::default());
            m.set_fast_forward(true);
            m
        },
        channels,
        rounds,
        pkts,
    );
    let rk_func = rekey_under_load(FunctionalBackend::new, channels, rounds, pkts);
    println!(
        "  rekey under load: cycle {} / {} delivered ({} rekeys), functional {} / {} \
         ({} rekeys); 0 nonce reuse, 0 oracle mismatches on either",
        rk_cycle.delivered,
        rk_cycle.submitted,
        rk_cycle.rekeys,
        rk_func.delivered,
        rk_func.submitted,
        rk_func.rekeys
    );

    let fc = handshake_flash_crowd(crowd, critical);
    println!(
        "  flash crowd: {} opens offered, {} established; sheds \
         critical/standard/best-effort = {}/{}/{}",
        fc.offered, fc.opened, fc.sheds[0], fc.sheds[1], fc.sheds[2]
    );

    let ov = handshake_overlap(overlap_pkts);
    println!(
        "  overlap: traffic makespan {} cycles with and without a pending handshake \
         (cycle-exact); {} of the {} handshake cycles hidden behind traffic",
        ov.traffic_makespan, ov.hidden_cycles, ECC_SCALAR_MULT_CYCLES
    );

    let adv_cycle = adversary_on(Mccp::new(MccpConfig::default()), 0xAD5E_ED0F, attacks);
    let adv_func = adversary_on(FunctionalBackend::new(), 0xAD5E_ED10, attacks);
    println!(
        "  adversary: cycle {}/{} rejected ({} auth, {} typed, {} replay), \
         functional {}/{} rejected; 0 plaintext leaks, 0 nonces burned",
        adv_cycle.rejected,
        adv_cycle.attacks,
        adv_cycle.auth_failures,
        adv_cycle.typed_errors,
        adv_cycle.replay_blocks,
        adv_func.rejected,
        adv_func.attacks
    );

    let (scanned, leak_occurrences) = key_leak_scan();
    println!("  key-leak scan: {scanned} exports scanned, {leak_occurrences} occurrences");

    let per_kind: Vec<String> = adv_func
        .per_kind
        .iter()
        .map(|(label, driven, rejected)| {
            format!("{{\"kind\": \"{label}\", \"driven\": {driven}, \"rejected\": {rejected}}}")
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"keylife\",\n  \
         \"host_parallelism\": {},\n  \
         \"handshake_model\": {{\"ecc_scalar_mult_cycles\": {ECC_SCALAR_MULT_CYCLES}, \
         \"source\": \"arXiv:1401.3421 GF(2^163) point-mult ratio at 190 MHz\"}},\n  \
         \"rekey_under_load\": {{\
         \"channels\": {channels}, \"rounds\": {rounds}, \"pkts_per_round\": {pkts}, \
         \"cycle\": {{\"submitted\": {}, \"delivered\": {}, \"rekeys\": {}, \
         \"nonce_reuse\": {}, \"oracle_failures\": {}}}, \
         \"functional\": {{\"submitted\": {}, \"delivered\": {}, \"rekeys\": {}, \
         \"nonce_reuse\": {}, \"oracle_failures\": {}}}}},\n  \
         \"handshake_flash_crowd\": {{\"offered\": {}, \"opened\": {}, \
         \"sheds\": {{\"critical\": {}, \"standard\": {}, \"best_effort\": {}}}, \
         \"handshakes_completed\": {}}},\n  \
         \"handshake_overlap\": {{\"traffic_makespan_cycles\": {}, \
         \"traffic_makespan_with_pending_handshake_cycles\": {}, \
         \"total_with_handshake_cycles\": {}, \"hidden_cycles\": {}}},\n  \
         \"adversarial\": {{\
         \"cycle\": {{\"attacks\": {}, \"rejected\": {}, \"auth_failures\": {}, \
         \"typed_errors\": {}, \"replay_blocks\": {}, \"plaintext_leaks\": {}, \
         \"nonces_burned\": {}}}, \
         \"functional\": {{\"attacks\": {}, \"rejected\": {}, \"auth_failures\": {}, \
         \"typed_errors\": {}, \"replay_blocks\": {}, \"plaintext_leaks\": {}, \
         \"nonces_burned\": {}}}, \
         \"per_kind\": [{}]}},\n  \
         \"key_leak_scan\": {{\"exports_scanned\": {scanned}, \"occurrences\": {leak_occurrences}}},\n  \
         \"contract\": {{\"zero_dropped_packets\": true, \"zero_nonce_reuse\": true, \
         \"zero_critical_sheds_flash_crowd\": true, \"attacks_rejected_pct\": 100, \
         \"zero_plaintext_leaks\": true, \"zero_key_leak_occurrences\": true}},\n  \
         \"note\": \"rekeys are FIFO markers, so the queue position of a rotation is the \
         epoch boundary; in-flight packets finish on their submit epoch and the retired key \
         is zeroized at the transfer boundary once its last packet drains; the handshake is \
         a ready_at horizon on the asymmetric unit, never a core occupant\"\n}}\n",
        mccp_sdr::host_parallelism(),
        rk_cycle.submitted,
        rk_cycle.delivered,
        rk_cycle.rekeys,
        rk_cycle.nonce_reuse,
        rk_cycle.oracle_failures,
        rk_func.submitted,
        rk_func.delivered,
        rk_func.rekeys,
        rk_func.nonce_reuse,
        rk_func.oracle_failures,
        fc.offered,
        fc.opened,
        fc.sheds[0],
        fc.sheds[1],
        fc.sheds[2],
        fc.handshakes,
        ov.traffic_makespan,
        ov.traffic_makespan_with_handshake,
        ov.total_with_handshake,
        ov.hidden_cycles,
        adv_cycle.attacks,
        adv_cycle.rejected,
        adv_cycle.auth_failures,
        adv_cycle.typed_errors,
        adv_cycle.replay_blocks,
        adv_cycle.plaintext_leaks,
        adv_cycle.nonces_burned,
        adv_func.attacks,
        adv_func.rejected,
        adv_func.auth_failures,
        adv_func.typed_errors,
        adv_func.replay_blocks,
        adv_func.plaintext_leaks,
        adv_func.nonces_burned,
        per_kind.join(", "),
    );
    BenchFile("BENCH_keylife.json").record(&json, !quick);
    print!("{json}");
    println!(
        "bench_keylife PASSED: 0 dropped / 0 nonce reuse across {} rotations per engine, \
         0 Critical sheds, 100% of {} attacks rejected typed on each engine, 0 leaks",
        rk_cycle.rekeys, adv_cycle.attacks
    );
}
