//! Churn safety for the always-on service plane: under *any* interleaving
//! of open / submit / close / reopen — on both engines — the service
//! upholds three invariants that make slot recycling safe:
//!
//! 1. **No IV reuse.** Every delivered IV is globally unique across the
//!    service's lifetime, including across sessions that recycled the same
//!    slab slot (the monotonic salt sequence guarantees it; this test
//!    observes it end-to-end).
//! 2. **No stale-generation delivery.** Every delivery is attributed to
//!    the generation-exact id that submitted it, exactly once — a session
//!    reusing a recycled slot never receives a predecessor's output, and
//!    nothing is silently dropped or duplicated.
//! 3. **Occupancy = live channels.** After the service quiesces, slab
//!    occupancy equals exactly the set of ids the caller still holds open,
//!    and every retired id answers [`ServiceError::Stale`].

use std::collections::{HashMap, HashSet};

use mccp_core::{ChannelBackend, FunctionalBackend, Iv, Mccp, MccpConfig};
use mccp_sdr::{MccpService, ServiceChannelId, ServiceConfig, ServiceError, Standard};
use proptest::prelude::*;

const STANDARDS: [Standard; 4] = [
    Standard::Wifi,
    Standard::Wimax,
    Standard::Umts,
    Standard::SecureVoice,
];

fn key_for(standard: Standard, reg: usize) -> Vec<u8> {
    let len = match standard {
        Standard::SecureVoice => 32, // AES-CCM-256
        _ => 16,
    };
    vec![0x40 + reg as u8; len]
}

/// A tight service so churn actually exercises recycling, eviction, and
/// backpressure: few warm bindings, a short queue, a small drain budget.
fn churn_config() -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        queue_capacity: 16,
        drain_budget: 4,
        warm_set_capacity: 6,
        step_bound: 200_000,
        ..ServiceConfig::default()
    }
}

/// Interprets `ops` against the service and checks the three churn
/// invariants. Each op byte decodes to (action, register): registers hold
/// at most `REGS` concurrently-open sessions, so closes force slot reuse.
fn run_churn<B: ChannelBackend>(mut svc: MccpService<B>, ops: &[u8]) {
    const REGS: usize = 8;
    let mut regs: Vec<Option<ServiceChannelId>> = vec![None; REGS];
    let mut retired: Vec<ServiceChannelId> = Vec::new();
    // Invariant 1: every delivered IV, across every session ever opened.
    let mut seen_ivs: HashSet<Iv> = HashSet::new();
    // Invariant 2: tags admitted per generation-exact id, awaiting
    // delivery to exactly that id.
    let mut outstanding: HashMap<ServiceChannelId, HashSet<u64>> = HashMap::new();
    let mut tag_seq = 0u64;
    let mut admitted_total = 0u64;
    let mut delivered_total = 0u64;

    let settle = |deliveries: Vec<mccp_sdr::Delivery>,
                  seen_ivs: &mut HashSet<Iv>,
                  outstanding: &mut HashMap<ServiceChannelId, HashSet<u64>>,
                  delivered_total: &mut u64| {
        for d in deliveries {
            if !d.iv.is_empty() {
                assert!(
                    seen_ivs.insert(d.iv),
                    "IV reused across sessions: {:02x?}",
                    d.iv
                );
            }
            let tags = outstanding
                .get_mut(&d.channel)
                .unwrap_or_else(|| panic!("delivery to unknown/stale id {:?}", d.channel));
            assert!(
                tags.remove(&d.user_tag),
                "duplicate or misattributed delivery: id {:?} tag {}",
                d.channel,
                d.user_tag
            );
            assert!(d.auth_ok, "fault-free churn must authenticate");
            *delivered_total += 1;
        }
    };

    for &op in ops {
        let reg = (op as usize >> 2) % REGS;
        match op & 0b11 {
            0 => {
                // OPEN (reopen if the register is free).
                if regs[reg].is_none() {
                    let standard = STANDARDS[op as usize % STANDARDS.len()];
                    let id = svc
                        .open(standard, &key_for(standard, reg))
                        .expect("slab far from full");
                    regs[reg] = Some(id);
                    outstanding.entry(id).or_default();
                }
            }
            1 => {
                // SUBMIT one packet on the register's session.
                if let Some(id) = regs[reg] {
                    tag_seq += 1;
                    let payload = vec![op ^ 0x5A; 48 + (op as usize % 64)];
                    match svc.submit(id, b"churn-aad", &payload, tag_seq) {
                        Ok(()) => {
                            outstanding.get_mut(&id).unwrap().insert(tag_seq);
                            admitted_total += 1;
                        }
                        // Backpressure and drain refusals are legitimate
                        // verdicts, not failures.
                        Err(ServiceError::Busy { retry_after_pumps }) => {
                            assert!(retry_after_pumps > 0, "Busy must quote a retry hint");
                        }
                        Err(ServiceError::Draining) => {}
                        Err(e) => panic!("unexpected submit error: {e:?}"),
                    }
                }
            }
            2 => {
                // CLOSE: the id retires now; queued work still drains.
                if let Some(id) = regs[reg].take() {
                    svc.close(id).expect("close of a live channel");
                    retired.push(id);
                }
            }
            _ => {
                let out = svc.pump();
                settle(out, &mut seen_ivs, &mut outstanding, &mut delivered_total);
            }
        }
    }

    let out = svc.quiesce(10_000);
    settle(out, &mut seen_ivs, &mut outstanding, &mut delivered_total);

    // Invariant 2 (completeness): every admitted packet was delivered to
    // its generation-exact id, exactly once.
    assert_eq!(admitted_total, delivered_total, "admitted vs delivered");
    for (id, tags) in &outstanding {
        assert!(tags.is_empty(), "undelivered packets on {id:?}: {tags:?}");
    }

    // Invariant 3: occupancy is exactly the caller's live set...
    let live: Vec<ServiceChannelId> = regs.iter().flatten().copied().collect();
    assert_eq!(svc.occupancy(), live.len(), "slab occupancy vs live ids");
    let c = *svc.counters();
    assert_eq!(c.opened - c.closed, live.len() as u64, "open/close ledger");
    // ...every live id still accepts work...
    for id in &live {
        assert!(svc.channel_stats(*id).is_ok(), "live id {id:?} answers");
    }
    // ...and every retired id is Stale even where its slot was recycled.
    for id in &retired {
        assert_eq!(
            svc.submit(*id, b"", b"late", u64::MAX).err(),
            Some(ServiceError::Stale),
            "retired id {id:?} must be stale"
        );
    }
    assert_eq!(c.stale_drops, 0, "fault-free churn delivers everything");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn functional_engine_survives_any_churn(ops in proptest::collection::vec(any::<u8>(), 1..300)) {
        run_churn(
            MccpService::new(churn_config(), |_| FunctionalBackend::new()),
            &ops,
        );
    }
}

proptest! {
    // The cycle engine simulates every bus beat, so fewer (but still
    // adversarial) cases keep the suite fast.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn cycle_engine_survives_any_churn(ops in proptest::collection::vec(any::<u8>(), 1..160)) {
        run_churn(
            MccpService::new(churn_config(), |_| {
                let mut engine = Mccp::new(MccpConfig {
                    n_cores: 2,
                    ..MccpConfig::default()
                });
                engine.set_fast_forward(true);
                engine
            }),
            &ops,
        );
    }
}

/// A deterministic worst case the random walk may miss: hammer one
/// register so a single slot recycles many times back-to-back, proving
/// generation bumps and fresh salts on the exact same slot index. On the
/// cycle engine, one shard takes all 300 opens, so the 255-slot Key Memory
/// must recycle its key slots too.
#[test]
fn single_slot_recycles_hundreds_of_times_without_iv_reuse() {
    recycle_one_slot(MccpService::new(churn_config(), |_| {
        FunctionalBackend::new()
    }));
    recycle_one_slot(MccpService::new(
        ServiceConfig {
            shards: 1,
            ..churn_config()
        },
        |_| {
            let mut engine = Mccp::new(MccpConfig::default());
            engine.set_fast_forward(true);
            engine
        },
    ));
}

fn recycle_one_slot<B: ChannelBackend>(mut svc: MccpService<B>) {
    let mut seen_ivs: HashSet<Iv> = HashSet::new();
    let mut prior: Option<ServiceChannelId> = None;
    for round in 0..300u32 {
        let id = svc.open(Standard::Wimax, &[9u8; 16]).unwrap();
        if let Some(old) = prior {
            assert_ne!(old, id, "recycled slot must carry a new generation");
            assert_eq!(
                svc.submit(old, b"", b"zombie", 0).err(),
                Some(ServiceError::Stale)
            );
        }
        svc.submit(id, b"aad", &[round as u8; 64], round as u64)
            .unwrap();
        let out = svc.quiesce(1_000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].channel, id);
        assert!(
            seen_ivs.insert(out[0].iv),
            "round {round}: IV reused on recycled slot"
        );
        svc.close(id).unwrap();
        prior = Some(id);
    }
    assert_eq!(svc.occupancy(), 0);
}

/// Warm-set eviction recycles engine handles and key slots: with one warm
/// binding and two channels submitting in turn, every packet rebinds its
/// channel onto the handle (and key slot) the other one just released.
/// Each delivery must still be sealed under its own channel's key.
fn rebinds_seal_under_their_own_key<B: ChannelBackend>(mut svc: MccpService<B>) {
    use mccp_aes::modes::gcm_seal;
    use mccp_aes::Aes;
    let keys = [[0x11u8; 16], [0x22u8; 16]];
    let ids: Vec<_> = keys
        .iter()
        .map(|k| svc.open(Standard::Wimax, k).unwrap())
        .collect();
    let (aad, body) = (b"wimax-header", [0xA5u8; 300]);
    for round in 0..8u64 {
        let ch = round as usize % 2;
        svc.submit(ids[ch], aad, &body, round).unwrap();
        // Idle cores end every `step` after one tick or leap, so the cycle
        // engine needs about one pump per simulated cycle of the packet.
        let out = svc.quiesce(1 << 20);
        assert_eq!(out.len(), 1);
        for d in out {
            assert_eq!(d.channel, ids[ch]);
            let reference = gcm_seal(&Aes::new_128(&keys[ch]), &d.iv, aad, &body, 16).unwrap();
            assert_eq!(
                [&d.body[..], &d.tag].concat(),
                reference,
                "round {round}: channel {ch} sealed under another key"
            );
        }
    }
    assert!(svc.counters().binding_evictions >= 7);
}

#[test]
fn rebinds_seal_under_their_own_key_on_both_engines() {
    let config = ServiceConfig {
        shards: 1,
        warm_set_capacity: 1,
        ..ServiceConfig::default()
    };
    rebinds_seal_under_their_own_key(MccpService::new(config.clone(), |_| {
        Mccp::new(MccpConfig::default())
    }));
    rebinds_seal_under_their_own_key(MccpService::new(config, |_| FunctionalBackend::new()));
}
