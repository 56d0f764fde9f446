//! Cycle-identity property test for the event-driven fast path: scripted
//! pseudo-random multi-channel workloads — every mode, every key size,
//! oversize streaming packets, two-core CCM, mid-run partial
//! reconfiguration, telemetry on and off — run twice, per-tick and
//! fast-forwarded, and the full observable transcript (submission cycles,
//! completion latencies, output bytes, auth verdicts, final cycle, both
//! telemetry exports) must match exactly.
//!
//! The second half checks `ChannelBackend::step`'s wait: a caller that
//! resubmits after every `step(bound)` must see the same accept cycles,
//! completions and policy decisions as one that advances a single
//! scheduling quantum between resubmissions.

use mccp_core::core_unit::Personality;
use mccp_core::protocol::{Algorithm, ChannelId, CipherSel, KeyId, MccpError, RequestId};
use mccp_core::reconfig::{Bitstream, BitstreamSource, PolicyConfig};
use mccp_core::{ChannelBackend, Direction, Mccp, MccpConfig};
use mccp_sim::resources::Resources;
use std::collections::HashMap;

/// Deterministic 64-bit LCG (the vendored `rand` stays out of the loop so
/// the script is stable against stub changes).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }

    fn below(&mut self, n: u32) -> u32 {
        self.next() % n
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

#[derive(Clone, Copy)]
struct Scenario {
    seed: u64,
    telemetry: bool,
    reconfig: bool,
    ccm_two_core: bool,
    n_cores: usize,
    packets: usize,
}

struct Chan {
    id: ChannelId,
    iv_len: usize,
    /// Authenticated modes produce a tag and support hardware decrypt.
    authenticated: bool,
    /// CBC-MAC wants whole blocks and takes no AAD/IV.
    mac_only: bool,
    takes_aad: bool,
}

fn open_channels(m: &mut Mccp) -> Vec<Chan> {
    let table: [(Algorithm, usize, usize, usize, bool, bool, bool); 6] = [
        (Algorithm::AesGcm128, 16, 16, 12, true, false, true),
        (Algorithm::AesGcm192, 24, 16, 12, true, false, true),
        (Algorithm::AesGcm256, 32, 16, 12, true, false, true),
        (Algorithm::AesCcm128, 16, 8, 12, true, false, true),
        (Algorithm::AesCtr128, 16, 4, 16, false, false, false),
        (Algorithm::AesCbcMac128, 16, 16, 0, false, true, false),
    ];
    table
        .iter()
        .enumerate()
        .map(
            |(i, &(algorithm, key_len, tag_len, iv_len, authenticated, mac_only, takes_aad))| {
                let kid = KeyId(i as u8 + 1);
                let key: Vec<u8> = (0..key_len as u8).map(|b| b ^ (i as u8 * 17)).collect();
                m.key_memory_mut().store(kid, &key);
                let id = m.open_with_tag_len(algorithm, kid, tag_len).expect("open");
                Chan {
                    id,
                    iv_len,
                    authenticated,
                    mac_only,
                    takes_aad,
                }
            },
        )
        .collect()
}

/// One quiescent-aware simulation step: an active tick, or a bounded leap.
/// With `fast` off this is exactly one `tick()` — the reference schedule.
fn advance_step(m: &mut Mccp, fast: bool) {
    let span = if fast {
        m.quiescent_horizon().min(2_000_000)
    } else {
        0
    };
    if span == 0 {
        m.tick();
    } else {
        m.skip(span);
    }
}

/// What a submission needs remembered so its completion can seed the
/// decrypt-replay pool: `(channel index, iv, aad, eligible)`.
type Meta = HashMap<u16, (usize, Vec<u8>, Vec<u8>, bool)>;

/// Sealed packets available for decrypt replay:
/// `(channel index, iv, aad, ciphertext, tag)`.
type Sealed = Vec<(usize, Vec<u8>, Vec<u8>, Vec<u8>, Vec<u8>)>;

fn drain(
    m: &mut Mccp,
    outstanding: &mut Vec<RequestId>,
    meta: &Meta,
    sealed: &mut Sealed,
    log: &mut Vec<String>,
) {
    while let Some(id) = m.poll_data_available() {
        let cycle = m.cycle();
        match m.retrieve(id) {
            Ok(out) => {
                log.push(format!(
                    "done {} cycle={cycle} latency={} body_len={} body_sum={} tag={:02x?}",
                    id.0,
                    m.request_cycles(id).expect("done"),
                    out.body.len(),
                    out.body.iter().map(|&b| b as u64).sum::<u64>(),
                    out.tag
                ));
                if let Some((ch_idx, iv, aad, true)) = meta.get(&id.0) {
                    sealed.push((
                        *ch_idx,
                        iv.clone(),
                        aad.clone(),
                        out.body,
                        out.tag.unwrap_or_default(),
                    ));
                }
            }
            Err(MccpError::AuthFail) => {
                log.push(format!("authfail {} cycle={cycle}", id.0));
            }
            Err(e) => panic!("retrieve {id:?}: {e}"),
        }
        m.transfer_done(id).expect("release");
        outstanding.retain(|&r| r != id);
    }
}

fn run_scenario(s: Scenario, fast: bool) -> Vec<String> {
    let mut m = Mccp::new(MccpConfig {
        n_cores: s.n_cores,
        ccm_two_core: s.ccm_two_core,
        ..MccpConfig::default()
    });
    m.set_fast_forward(fast);
    if s.telemetry {
        m.enable_telemetry(4096);
    }
    let channels = open_channels(&mut m);
    let mut lcg = Lcg(s.seed);
    let mut log = Vec::new();
    let mut outstanding: Vec<RequestId> = Vec::new();
    let mut meta: Meta = HashMap::new();
    let mut sealed: Sealed = Vec::new();
    let mut reconfig_pending = s.reconfig;

    for i in 0..s.packets {
        let gap = lcg.below(12_000) as u64;
        m.run_until(m.cycle() + gap);
        drain(&mut m, &mut outstanding, &meta, &mut sealed, &mut log);

        // One mid-run partial reconfiguration, once a core happens to be
        // idle (tiny synthetic AES bitstream so per-tick mode stays fast;
        // the personality is unchanged so dispatch keeps working).
        if reconfig_pending && i >= s.packets / 3 {
            let bs = Bitstream {
                personality: Personality::AesUnit,
                resources: Resources::new(10, 1),
                size_kb: 1,
            };
            match m.begin_reconfiguration(s.n_cores - 1, bs, BitstreamSource::Ram) {
                Ok(budget) => {
                    log.push(format!("reconfig cycle={} budget={budget}", m.cycle()));
                    reconfig_pending = false;
                }
                Err(MccpError::Busy) => {}
                Err(e) => panic!("reconfiguration: {e}"),
            }
        }

        // Pick the packet: a fresh encrypt, or a decrypt replay of an
        // earlier sealed packet (tag tampered half the time to exercise
        // the auth-fail wipe under both schedules).
        let replay = !sealed.is_empty() && lcg.below(4) == 0;
        let (ch_idx, direction, iv, aad, body, tag) = if replay {
            let (ch_idx, iv, aad, ct, mut tag) =
                sealed[lcg.below(sealed.len() as u32) as usize].clone();
            if lcg.below(2) == 0 && !tag.is_empty() {
                tag[0] ^= 1;
            }
            (ch_idx, Direction::Decrypt, iv, aad, ct, Some(tag))
        } else {
            let ch_idx = lcg.below(channels.len() as u32) as usize;
            let ch = &channels[ch_idx];
            let mut len = if lcg.below(8) == 0 {
                // Oversize: exceeds the 512-word FIFO, streaming mode.
                2048 + lcg.below(2048) as usize
            } else {
                16 + lcg.below(704) as usize
            };
            if ch.mac_only {
                len = (len / 16).max(1) * 16;
            }
            let iv = lcg.bytes(ch.iv_len);
            let aad = if ch.takes_aad {
                let n = lcg.below(32) as usize;
                lcg.bytes(n)
            } else {
                Vec::new()
            };
            (ch_idx, Direction::Encrypt, iv, aad, lcg.bytes(len), None)
        };

        // Submit, waiting out core exhaustion one step at a time.
        let id = loop {
            match m.submit(
                channels[ch_idx].id,
                direction,
                &iv,
                &aad,
                &body,
                tag.as_deref(),
            ) {
                Ok(id) => break id,
                Err(MccpError::NoResource) => {
                    advance_step(&mut m, fast);
                    drain(&mut m, &mut outstanding, &meta, &mut sealed, &mut log);
                }
                Err(e) => panic!("submit: {e}"),
            }
        };
        log.push(format!(
            "submit {} cycle={} ch={ch_idx} dir={direction:?} len={}",
            id.0,
            m.cycle(),
            body.len()
        ));
        outstanding.push(id);
        let record_seal = direction == Direction::Encrypt && channels[ch_idx].authenticated;
        meta.insert(id.0, (ch_idx, iv, aad, record_seal));

        // Half the time, wait this request out so the replay pool fills;
        // the rest stay in flight for multi-core overlap.
        if record_seal && lcg.below(2) == 0 {
            m.run_until_done(id, 100_000_000);
            drain(&mut m, &mut outstanding, &meta, &mut sealed, &mut log);
        }
    }

    // Let everything in flight (requests and the reconfiguration) finish.
    let mut guard = 0u64;
    while !outstanding.is_empty() {
        advance_step(&mut m, fast);
        drain(&mut m, &mut outstanding, &meta, &mut sealed, &mut log);
        guard += 1;
        assert!(guard < 200_000_000, "scenario wedged");
    }
    if s.reconfig {
        while m.is_reconfiguring(s.n_cores - 1) {
            advance_step(&mut m, fast);
        }
        log.push(format!(
            "reconfigured cycle={} personality={:?}",
            m.cycle(),
            m.core(s.n_cores - 1).personality()
        ));
    }
    log.push(format!(
        "end cycle={} expansions={}",
        m.cycle(),
        m.expansions()
    ));
    if s.telemetry {
        let events = m.telemetry_mut().take_events();
        log.push(mccp_telemetry::export::json_lines(&events));
        log.push(mccp_telemetry::export::prometheus_text(
            &m.telemetry_snapshot(),
        ));
    }
    log
}

fn assert_identical(s: Scenario) {
    let per_tick = run_scenario(s, false);
    let fast = run_scenario(s, true);
    for (i, (a, b)) in per_tick.iter().zip(fast.iter()).enumerate() {
        assert_eq!(a, b, "seed {} transcript line {i}", s.seed);
    }
    assert_eq!(per_tick.len(), fast.len(), "seed {}", s.seed);
}

#[test]
fn identity_plain() {
    assert_identical(Scenario {
        seed: 1,
        telemetry: false,
        reconfig: false,
        ccm_two_core: false,
        n_cores: 4,
        packets: 16,
    });
}

#[test]
fn identity_with_telemetry() {
    assert_identical(Scenario {
        seed: 2,
        telemetry: true,
        reconfig: false,
        ccm_two_core: false,
        n_cores: 4,
        packets: 16,
    });
}

#[test]
fn identity_with_reconfig() {
    assert_identical(Scenario {
        seed: 3,
        telemetry: false,
        reconfig: true,
        ccm_two_core: false,
        n_cores: 4,
        packets: 16,
    });
}

#[test]
fn identity_with_telemetry_and_reconfig() {
    assert_identical(Scenario {
        seed: 4,
        telemetry: true,
        reconfig: true,
        ccm_two_core: false,
        n_cores: 4,
        packets: 16,
    });
}

#[test]
fn identity_two_core_ccm() {
    assert_identical(Scenario {
        seed: 5,
        telemetry: true,
        reconfig: false,
        ccm_two_core: true,
        n_cores: 4,
        packets: 16,
    });
}

#[test]
fn identity_two_cores_with_reconfig() {
    assert_identical(Scenario {
        seed: 6,
        telemetry: true,
        reconfig: true,
        ccm_two_core: true,
        n_cores: 2,
        packets: 12,
    });
}

// ----------------------------------------------------------------------
// Accept-cycle identity of `step`'s wait
// ----------------------------------------------------------------------

/// How a run advances the engine after a refusal, and while draining.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cadence {
    /// `ChannelBackend::step(bound)`: wait until a resubmission can land.
    Step,
    /// One scheduling quantum: a leap of `min(horizon, bound)`, or one tick.
    Quantum,
}

fn wait(m: &mut Mccp, cadence: Cadence, bound: u64) -> u64 {
    if cadence == Cadence::Step {
        return m.step(bound);
    }
    let span = m.quiescent_horizon().min(bound);
    if span == 0 {
        m.tick();
        1
    } else {
        m.skip(span);
        span
    }
}

/// One scripted channel: algorithm, key bytes, tag length, IV length,
/// cipher, and a handshake to pay at open (0 = instant).
struct Spec {
    algorithm: Algorithm,
    key: Vec<u8>,
    tag_len: usize,
    iv_len: usize,
    cipher: CipherSel,
    handshake: u64,
}

fn spec(algorithm: Algorithm, key_len: usize, tag_len: usize, iv_len: usize) -> Spec {
    Spec {
        algorithm,
        key: vec![0x30 + key_len as u8; key_len],
        tag_len,
        iv_len,
        cipher: CipherSel::Aes,
        handshake: 0,
    }
}

/// The `sim_paper` mix: WiMax GCM-128, WiFi CCM-128, UMTS CTR-128 and
/// SecureVoice CCM-256, with each standard's payload range.
fn paper_mix() -> Vec<(Spec, (usize, usize))> {
    vec![
        (spec(Algorithm::AesGcm128, 16, 16, 12), (256, 2000)),
        (spec(Algorithm::AesCcm128, 16, 8, 13), (64, 1500)),
        (spec(Algorithm::AesCtr128, 16, 16, 16), (40, 640)),
        (spec(Algorithm::AesCcm256, 32, 16, 13), (20, 160)),
    ]
}

/// One offered packet: channel index, IV, AAD, body.
type Offer = (usize, Vec<u8>, Vec<u8>, Vec<u8>);

/// `packets` offers cycling over `lens` (per-channel payload ranges).
fn stream(seed: u64, specs: &[Spec], lens: &[(usize, usize)], packets: usize) -> Vec<Offer> {
    let mut lcg = Lcg(seed);
    (0..packets)
        .map(|i| {
            let ch = i % lens.len();
            let (lo, hi) = lens[ch];
            let len = lo + lcg.below((hi - lo + 1) as u32) as usize;
            (
                ch,
                lcg.bytes(specs[ch].iv_len),
                lcg.bytes(8),
                lcg.bytes(len),
            )
        })
        .collect()
}

/// What a driven run observed, and how it got there.
struct Driven {
    transcript: Vec<String>,
    /// Wait calls and cycles they advanced while packets were still being
    /// offered (the saturated phase).
    offer_waits: (u64, u64),
}

/// Offers `offers` in order, resubmitting each refused packet
/// (`NoResource`, `HandshakePending`) after every wait and polling
/// completions after every wait, then drains.
fn drive(
    config: MccpConfig,
    policy: bool,
    specs: &[Spec],
    offers: &[Offer],
    cadence: Cadence,
    bound: u64,
) -> Driven {
    let mut m = Mccp::new(config);
    m.enable_telemetry(1 << 16);
    if policy {
        m.enable_reconfig_policy(PolicyConfig::default());
    }
    let channels: Vec<ChannelId> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let kid = KeyId(i as u8 + 1);
            m.key_memory_mut().store(kid, &s.key);
            if s.handshake > 0 {
                m.open_with_handshake(s.algorithm, kid, s.tag_len, s.handshake)
            } else {
                m.open_with_cipher(s.algorithm, kid, s.tag_len, s.cipher)
            }
            .expect("open")
        })
        .collect();
    let mut log = Vec::new();
    let poll = |m: &mut Mccp, log: &mut Vec<String>| {
        while let Some(c) = m.poll_completion() {
            log.push(format!(
                "done {} at={} latency={} auth={} fault={:?} body={:02x?} tag={:02x?}",
                c.request.0,
                m.now(),
                c.latency_cycles,
                c.auth_ok,
                c.fault,
                c.body,
                c.tag
            ));
        }
    };
    let mut offer_waits = (0, 0);
    for (i, (ch, iv, aad, body)) in offers.iter().enumerate() {
        loop {
            match m.submit_packet(channels[*ch], Direction::Encrypt, iv, aad, body, None) {
                Ok(id) => {
                    log.push(format!("accept {i} as {} at={}", id.0, m.now()));
                    break;
                }
                Err(MccpError::NoResource | MccpError::HandshakePending) => {
                    offer_waits.0 += 1;
                    offer_waits.1 += wait(&mut m, cadence, bound);
                    poll(&mut m, &mut log);
                }
                Err(e) => panic!("packet {i}: {e}"),
            }
        }
    }
    while m.in_flight() > 0 {
        wait(&mut m, cadence, bound);
        poll(&mut m, &mut log);
    }
    log.push(format!("end at={}", m.now()));
    if let Some(pe) = m.policy() {
        log.push(format!(
            "policy swaps={} offered={:?} served={:?}",
            pe.swaps(),
            pe.offered_total(),
            pe.served_total()
        ));
    }
    for e in m.telemetry().events() {
        if matches!(
            e.event,
            mccp_telemetry::Event::ReconfigBegin { .. } | mccp_telemetry::Event::ReconfigEnd { .. }
        ) {
            log.push(format!("{} {:?}", e.cycle, e.event));
        }
    }
    Driven {
        transcript: log,
        offer_waits,
    }
}

/// Runs both cadences and asserts identical transcripts; returns the
/// `step` run.
fn assert_same_accepts(
    config: MccpConfig,
    policy: bool,
    specs: &[Spec],
    offers: &[Offer],
    bound: u64,
) -> Driven {
    let stepped = drive(config.clone(), policy, specs, offers, Cadence::Step, bound);
    let quantum = drive(config, policy, specs, offers, Cadence::Quantum, bound);
    for (i, (a, b)) in stepped
        .transcript
        .iter()
        .zip(quantum.transcript.iter())
        .enumerate()
    {
        assert_eq!(a, b, "transcript line {i}");
    }
    assert_eq!(stepped.transcript.len(), quantum.transcript.len());
    assert!(stepped.offer_waits.0 <= quantum.offer_waits.0);
    stepped
}

#[test]
fn step_keeps_accept_cycles_on_the_paper_mix() {
    let (specs, lens): (Vec<_>, Vec<_>) = paper_mix().into_iter().unzip();
    let offers = stream(7, &specs, &lens, 80);
    assert_same_accepts(MccpConfig::default(), false, &specs, &offers, 4096);
}

#[test]
fn step_keeps_accept_cycles_with_two_core_ccm() {
    let (specs, lens): (Vec<_>, Vec<_>) = paper_mix().into_iter().unzip();
    let offers = stream(11, &specs, &lens, 60);
    let config = MccpConfig {
        ccm_two_core: true,
        ..MccpConfig::default()
    };
    assert_same_accepts(config, false, &specs, &offers, 4096);
}

/// A channel mid-handshake while every core is busy: the wait must end at
/// the handshake horizon, where the resubmission turns from
/// `HandshakePending` into a `NoResource` refusal (a policy demand sample).
#[test]
fn step_keeps_accept_cycles_across_a_handshake() {
    let (mut specs, mut lens): (Vec<_>, Vec<_>) = paper_mix().into_iter().unzip();
    specs.push(Spec {
        handshake: 3_000,
        ..spec(Algorithm::AesGcm128, 16, 16, 12)
    });
    lens.push((256, 2000));
    // Four long GCM packets fill the cores, then the handshake channel's
    // packet waits behind them.
    let mut offers: Vec<Offer> = (0..4u8)
        .map(|i| (0, vec![i; 12], Vec::new(), vec![i; 2000]))
        .collect();
    offers.push((4, vec![9; 12], b"hs".to_vec(), vec![9; 600]));
    offers.extend(stream(13, &specs, &lens, 30));
    let driven = assert_same_accepts(MccpConfig::default(), true, &specs, &offers, 4096);
    assert!(driven
        .transcript
        .iter()
        .any(|l| l.starts_with("accept 4 as 5 at=")));
}

/// Twofish traffic on an all-AES pool: the policy swaps a core live, and
/// the swap count, swap cycles and demand samples (one per quantum a
/// refused packet waits) must match the one-quantum cadence.
#[test]
fn step_keeps_policy_swaps_and_demand_samples() {
    let mut tf = spec(Algorithm::AesGcm128, 16, 16, 12);
    tf.cipher = CipherSel::Twofish;
    tf.key = vec![0x7F; 16];
    let specs = vec![spec(Algorithm::AesGcm128, 16, 16, 12), tf];
    let lens = [(256, 2000), (256, 2000)];
    let mut offers: Vec<Offer> = stream(17, &specs, &lens[..1], 12);
    offers.extend(stream(19, &specs, &lens, 16));
    let driven = assert_same_accepts(MccpConfig::default(), true, &specs, &offers, 200_000);
    let swaps = driven
        .transcript
        .iter()
        .find_map(|l| l.strip_prefix("policy swaps="))
        .and_then(|l| l.split(' ').next())
        .and_then(|n| n.parse::<u64>().ok())
        .expect("policy line");
    assert!(swaps >= 1, "the mix shift must swap a core");
}

/// On a saturated 4-core engine carrying the `sim_paper` mix, `step`
/// waits out whole packet phases instead of single cycles.
#[test]
fn step_advances_at_least_fifty_cycles_per_call_when_saturated() {
    let (specs, lens): (Vec<_>, Vec<_>) = paper_mix().into_iter().unzip();
    let offers = stream(3, &specs, &lens, 160);
    let driven = drive(
        MccpConfig::default(),
        false,
        &specs,
        &offers,
        Cadence::Step,
        4096,
    );
    let (calls, cycles) = driven.offer_waits;
    assert!(calls > 0);
    assert!(
        cycles >= 50 * calls,
        "{cycles} cycles over {calls} step calls"
    );
}
