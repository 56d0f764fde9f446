//! Soak run: continuous multi-standard traffic with end-to-end
//! verification of every packet — the "leave it running" confidence
//! tool. Defaults to 200 packets on the cycle-accurate engine; pass a
//! count and/or `--engine functional` for the fast path.
//!
//! ```sh
//! cargo run --release -p mccp-bench --bin soak -- 1000
//! cargo run --release -p mccp-bench --bin soak -- 1000 --engine functional
//! ```

use mccp_bench::Args;
use mccp_core::{ChannelBackend, FunctionalBackend, Iv, Mccp, MccpConfig};
use mccp_sdr::qos::DispatchPolicy;
use mccp_sdr::workload::{Workload, WorkloadSpec};
use mccp_sdr::{
    ClusterConfig, MccpCluster, MccpService, QosClass, RunReport, ServiceChannelId, ServiceConfig,
    ServiceError, Standard,
};
use std::str::FromStr;

#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Cycle,
    Functional,
}

impl FromStr for Engine {
    type Err = ();

    fn from_str(s: &str) -> Result<Engine, ()> {
        match s {
            "cycle" => Ok(Engine::Cycle),
            "functional" => Ok(Engine::Functional),
            _ => Err(()),
        }
    }
}

/// One verified duplex round on any engine: encrypt the workload on a
/// one-shard cluster, reference-check every record, decrypt it back
/// through a fresh receiver. Returns the transmitter (for metrics), the
/// tx report, and the receive cycles.
fn round_on<B: ChannelBackend + Send>(
    mk: impl Fn() -> B,
    spec: &WorkloadSpec,
    workload: &Workload,
    round: usize,
) -> (MccpCluster<B>, RunReport, u64) {
    let one_shard = |b: B| {
        MccpCluster::with_backends(
            ClusterConfig::default(),
            vec![b],
            &spec.standards,
            round as u64,
        )
    };
    let mut tx = one_shard(mk());
    // Metrics + spans only (capacity 0): soak runs for a long time, so
    // keep the event log out of memory and read the registry instead.
    tx.backend_mut(0).enable_telemetry(0);
    let run = tx.run(workload, DispatchPolicy::Fifo);
    let verified = tx.verify(workload, &run).expect("verify");
    assert_eq!(verified, run.merged.packets);
    let rx_cycles = one_shard(mk()).run_receive(workload, &run.merged);
    (tx, run.merged, rx_cycles)
}

fn main() {
    let args = Args::parse(&["<packets>", "--engine <cycle|functional>"]);
    let packets: usize = args.get("<packets>").unwrap_or(200);
    let engine = args.get("--engine").unwrap_or(Engine::Cycle);
    let standards = vec![
        Standard::Wifi,
        Standard::Wimax,
        Standard::Umts,
        Standard::SecureVoice,
    ];
    let engine_name = match engine {
        Engine::Cycle => "cycle-accurate 4-core MCCP",
        Engine::Functional => "functional engine",
    };
    println!(
        "soak: {packets} packets across {} standards on the {engine_name}",
        standards.len()
    );

    let mut total_bits = 0u64;
    let mut total_cycles = 0u64;
    let mut verified = 0usize;
    // Several rounds with fresh seeds: every run is generated, encrypted,
    // verified against the NIST references, then decrypted back through
    // the engine (receiver role).
    let rounds = packets.div_ceil(50);
    for round in 0..rounds {
        let spec = WorkloadSpec {
            standards: standards.clone(),
            packets: packets.min(50),
            seed: 0xBEEF + round as u64,
            fixed_payload_len: None,
            mean_interarrival_cycles: None,
        };
        let workload = Workload::generate(spec.clone());
        let (report, rx_cycles) = match engine {
            Engine::Cycle => {
                let (mut tx, report, rx_cycles) =
                    round_on(|| Mccp::new(MccpConfig::default()), &spec, &workload, round);
                print_round(round, &report);
                print_core_metrics(tx.backend_mut(0));
                (report, rx_cycles)
            }
            Engine::Functional => {
                let (mut tx, report, rx_cycles) =
                    round_on(FunctionalBackend::new, &spec, &workload, round);
                print_round(round, &report);
                // Per-core utilization and FIFO pressure only exist on
                // the cycle-accurate engine; report the lifecycle
                // counters instead.
                let snap = tx.backend_mut(0).telemetry_snapshot();
                println!(
                    "    metrics: {} submitted / {} completed",
                    snap.counter("mccp_requests_submitted_total"),
                    snap.counter("mccp_requests_completed_total"),
                );
                (report, rx_cycles)
            }
        };
        verified += report.packets;
        total_bits += report.payload_bits;
        total_cycles += report.cycles + rx_cycles;
    }
    // The service-plane leg: the batch rounds above prove steady-state
    // correctness; this proves lifecycle correctness under churn and a
    // flash crowd on the same engine.
    match engine {
        Engine::Cycle => {
            let mk = || {
                let mut m = Mccp::new(MccpConfig::default());
                m.set_fast_forward(true);
                m
            };
            service_churn_scenario(mk, "cycle");
            service_rekey_churn_scenario(mk, "cycle");
        }
        Engine::Functional => {
            service_churn_scenario(FunctionalBackend::new, "functional");
            service_rekey_churn_scenario(FunctionalBackend::new, "functional");
        }
    }
    // The reconfiguration leg: a standards-mix shift mid-soak must flip a
    // CU personality live, losslessly (cycle engine only — the functional
    // engine has no reconfigurable region model).
    if engine == Engine::Cycle {
        mix_shift_scenario();
    }

    println!(
        "\nsoak PASSED: {verified} packets verified both directions; \
         {:.1} Mbit moved in {:.1} Mcycles (duplex)",
        total_bits as f64 / 1e6,
        total_cycles as f64 / 1e6
    );
}

/// Open/close churn plus a flash crowd against the always-on service
/// plane: a base population holds sessions while a crowd of new sessions
/// arrives at once, floods the queues, and leaves. Verifies admission
/// keeps SecureVoice losslesss at the base rate, the crowd's slots all
/// recycle, and no stale id survives.
fn service_churn_scenario<B: ChannelBackend>(mk: impl Fn() -> B, engine_name: &str) {
    const BASE: usize = 200;
    const CROWD: usize = 800;
    let standards = [
        Standard::Wifi,
        Standard::Wimax,
        Standard::Umts,
        Standard::SecureVoice,
    ];
    let key = |s: Standard, i: usize| {
        let len = if s == Standard::SecureVoice { 32 } else { 16 };
        vec![(i % 250) as u8 + 1; len]
    };
    let mut svc = MccpService::new(
        ServiceConfig {
            shards: 2,
            queue_capacity: 64,
            drain_budget: 16,
            warm_set_capacity: 32,
            step_bound: 200_000,
            ..ServiceConfig::default()
        },
        |_| mk(),
    );

    // Base population: a steady trickle that must ride out the crowd.
    let base_ids: Vec<ServiceChannelId> = (0..BASE)
        // `i*5+1` decorrelates the class mix from the round-robin shard
        // placement so both shards hold every class.
        .map(|i| {
            let s = standards[(i * 5 + 1) % 4];
            svc.open(s, &key(s, i)).expect("base open")
        })
        .collect();
    for (i, id) in base_ids.iter().enumerate() {
        svc.submit(*id, b"base", &[i as u8; 96], i as u64)
            .expect("pre-crowd base submit");
        if i % 8 == 7 {
            svc.pump();
        }
    }
    svc.quiesce(10_000);

    // Flash crowd: CROWD sessions open at once and all talk immediately.
    let crowd_ids: Vec<ServiceChannelId> = (0..CROWD)
        .map(|i| {
            let s = standards[(i * 5 + 3) % 4];
            svc.open(s, &key(s, i)).expect("crowd open")
        })
        .collect();
    assert_eq!(svc.occupancy(), BASE + CROWD);
    let mut crowd_shed = 0u64;
    let mut crowd_served = 0u64;
    for (i, id) in crowd_ids.iter().enumerate() {
        match svc.submit(*id, b"crowd", &[0xCD; 96], i as u64) {
            Ok(()) => {}
            Err(ServiceError::Busy { .. }) => crowd_shed += 1,
            Err(e) => panic!("crowd submit: {e:?}"),
        }
        // Pump rarely: the burst must outrun the drain so admission
        // control actually has to arbitrate.
        if i % 96 == 95 {
            crowd_served += svc.pump().len() as u64;
        }
    }
    crowd_served += svc.quiesce(10_000).len() as u64;
    let critical_shed = svc.counters().classes[QosClass::Critical.index()].shed;
    assert!(
        crowd_shed > 0,
        "the flash crowd must overrun the queues and exercise shedding"
    );
    assert!(
        critical_shed * 4 < crowd_shed,
        "SecureVoice must be largely protected under burst: {critical_shed} of {crowd_shed}"
    );

    // The crowd leaves; every slot must recycle and every id must die.
    for id in &crowd_ids {
        svc.close(*id).expect("crowd close");
    }
    svc.quiesce(10_000);
    assert_eq!(svc.occupancy(), BASE, "crowd slots must all recycle");
    for id in &crowd_ids {
        assert_eq!(
            svc.submit(*id, b"", b"zombie", 0).err(),
            Some(ServiceError::Stale),
            "departed crowd id must be stale"
        );
    }
    // The base population is untouched: same ids, still serving.
    let mut base_served = 0u64;
    for (i, id) in base_ids.iter().enumerate() {
        svc.submit(*id, b"base", &[i as u8; 96], i as u64)
            .expect("post-crowd base submit");
        if i % 8 == 7 {
            base_served += svc.pump().len() as u64;
        }
    }
    base_served += svc.quiesce(10_000).len() as u64;
    assert_eq!(base_served, BASE as u64, "base traffic is lossless");
    let c = svc.counters();
    assert_eq!(c.opened - c.closed, BASE as u64, "open/close ledger");
    assert_eq!(c.stale_drops, 0, "no completion outlived its session");
    println!(
        "  flash crowd ({engine_name} engine): {CROWD} sessions surged over {BASE} base; \
         {crowd_served} crowd pkts served, {crowd_shed} shed under burst \
         ({critical_shed} SecureVoice); crowd departed, slab back to {BASE}"
    );
}

/// Churn with live rekeying: a standing population rotates its session
/// keys every round while traffic keeps flowing. Proves the key
/// lifecycle holds up under sustained churn: zero packets dropped across
/// rotations, every delivery epoch-tagged with the key generation it was
/// submitted under, zero IV reuse per channel across epochs (the nonce
/// counter continues through a rekey), and closed channels reject both
/// traffic and rekeys with the typed `Stale` error.
fn service_rekey_churn_scenario<B: ChannelBackend>(mk: impl Fn() -> B, engine_name: &str) {
    use std::collections::HashSet;

    const CHANNELS: usize = 48;
    const ROUNDS: usize = 4;
    const PKTS_PER_ROUND: usize = 2;
    let standards = [
        Standard::Wifi,
        Standard::Wimax,
        Standard::Umts,
        Standard::SecureVoice,
    ];
    let key = |s: Standard, i: usize, epoch: usize| {
        let len = if s == Standard::SecureVoice { 32 } else { 16 };
        vec![((i * 7 + epoch * 31) % 250) as u8 + 1; len]
    };
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
    let ids: Vec<ServiceChannelId> = (0..CHANNELS)
        .map(|i| {
            let s = standards[i % 4];
            svc.open(s, &key(s, i, 0)).expect("rekey-churn open")
        })
        .collect();

    let mut seen_ivs: HashSet<(ServiceChannelId, Iv)> = HashSet::new();
    let mut delivered = 0u64;
    let mut submitted = 0u64;
    let drain = |svc: &mut MccpService<B>, seen: &mut HashSet<_>, delivered: &mut u64| {
        for d in svc.pump() {
            assert!(d.auth_ok, "rekey churn never forges");
            // The delivery is tagged with the epoch it was submitted
            // under (packed into user_tag at submit time below).
            assert_eq!(d.epoch as u64, d.user_tag & 0xFFFF, "epoch-exact delivery");
            assert!(
                seen.insert((d.channel, d.iv)),
                "IV reuse across a rekey on {:?}",
                d.channel
            );
            *delivered += 1;
        }
    };
    for round in 0..ROUNDS {
        for (i, id) in ids.iter().enumerate() {
            for p in 0..PKTS_PER_ROUND {
                let tag = ((i as u64) << 32) | ((p as u64) << 16) | round as u64;
                svc.submit(*id, b"rekey-churn", &[i as u8; 96], tag)
                    .expect("rekey-churn submit");
                submitted += 1;
            }
            if i % 16 == 15 {
                drain(&mut svc, &mut seen_ivs, &mut delivered);
            }
        }
        // Rotate every channel's key: traffic submitted after this point
        // runs under the next epoch, anything still queued finishes on
        // the old one — the FIFO position of the rekey is the boundary.
        for (i, id) in ids.iter().enumerate() {
            let s = standards[i % 4];
            svc.rekey(*id, &key(s, i, round + 1)).expect("rekey");
        }
    }
    for d in svc.quiesce(10_000) {
        assert!(d.auth_ok);
        assert_eq!(d.epoch as u64, d.user_tag & 0xFFFF);
        assert!(seen_ivs.insert((d.channel, d.iv)));
        delivered += 1;
    }
    assert_eq!(
        delivered, submitted,
        "live rekeying must not drop a single packet"
    );
    let c = *svc.counters();
    assert_eq!(
        c.rekeys,
        (CHANNELS * ROUNDS) as u64,
        "every requested rotation completed"
    );
    assert_eq!(c.stale_drops, 0);
    // Departed channels reject rekeys just like traffic: typed, stale.
    for id in &ids {
        svc.close(*id).expect("rekey-churn close");
    }
    svc.quiesce(10_000);
    for id in &ids {
        assert_eq!(
            svc.rekey(*id, &[0xEE; 16]).err(),
            Some(ServiceError::Stale),
            "rekey of a departed channel must be stale"
        );
    }
    println!(
        "  rekey churn ({engine_name} engine): {CHANNELS} channels x {ROUNDS} rotations; \
         {delivered}/{submitted} pkts delivered epoch-exact, {} rekeys, 0 IV reuse",
        c.rekeys
    );
}

/// Standards-mix shift mid-soak: an AES-GCM phase saturates the pool,
/// then the mix turns Twofish-only. The demand policy must flip at least
/// one CU live — while every packet (including the ones requeued during
/// the ~12M-cycle bitstream load) is delivered exactly once.
fn mix_shift_scenario() {
    use mccp_core::core_unit::Personality;
    use mccp_core::protocol::{Algorithm, CipherSel, KeyId, MccpError};
    use mccp_core::reconfig::PolicyConfig;
    use mccp_core::Direction;

    let mut m = Mccp::new(MccpConfig::default());
    m.enable_reconfig_policy(PolicyConfig::default());
    m.key_memory_mut().store(KeyId(1), &[0xA1; 16]);
    m.key_memory_mut().store(KeyId(2), &[0xB2; 16]);
    let aes = m.open(Algorithm::AesGcm128, KeyId(1)).unwrap();
    let tf = m
        .open_with_cipher(Algorithm::AesGcm128, KeyId(2), 16, CipherSel::Twofish)
        .unwrap();

    let body = [0x5Cu8; 192];
    let mut delivered = 0usize;
    let mut requeued = 0usize;
    // Phase 1: AES traffic. Phase 2: the same offered load, now Twofish.
    for (n, ch) in [(8usize, aes), (8usize, tf)] {
        for i in 0..n {
            let iv = [(i + 1) as u8; 12];
            let id = loop {
                match m.submit(ch, Direction::Encrypt, &iv, &[], &body, None) {
                    Ok(id) => break id,
                    Err(MccpError::NoResource) => {
                        requeued += 1;
                        let now = m.cycle();
                        m.run_until(now + 2_000_000);
                    }
                    Err(e) => panic!("mix-shift submit: {e:?}"),
                }
            };
            m.run_until_done(id, 100_000_000);
            m.retrieve(id).expect("retrieve");
            m.transfer_done(id).expect("transfer_done");
            delivered += 1;
        }
    }
    let swaps = m.policy().unwrap().swaps();
    let tf_cores = (0..4)
        .filter(|&i| m.core(i).personality() == Personality::TwofishUnit)
        .count();
    assert!(swaps >= 1, "the mix shift must flip a CU live");
    assert!(tf_cores >= 1, "a Twofish core must exist after the shift");
    assert_eq!(delivered, 16, "mix shift is lossless");
    println!(
        "  mix shift (cycle engine): {swaps} live CU swap(s) to Twofish \
         ({tf_cores} core(s) now Twofish); 16/16 packets delivered, \
         {requeued} requeued during bitstream loads"
    );
}

fn print_round(round: usize, report: &RunReport) {
    println!(
        "  round {round}: {} packets tx+rx OK, {:.0} Mbps tx, p95 latency {} cyc",
        report.packets,
        report.throughput_mbps(),
        report.latency_percentile(0.95)
    );
}

/// Periodic metrics-registry snapshot (per-core utilization and FIFO
/// pressure for this round's transmitter).
fn print_core_metrics(mccp: &mut Mccp) {
    let snap = mccp.telemetry_snapshot();
    let cycles = snap.gauge("mccp_cycles").max(1);
    let util: Vec<String> = (0..4)
        .map(|c| {
            let busy = snap.gauge(&format!("mccp_core_busy_cycles{{core=\"{c}\"}}"));
            format!("{:.0}%", 100.0 * busy as f64 / cycles as f64)
        })
        .collect();
    let hw_out = (0..4)
        .map(|c| {
            snap.gauge(&format!(
                "mccp_fifo_highwater_words{{core=\"{c}\",port=\"output\"}}"
            ))
        })
        .max()
        .unwrap_or(0);
    println!(
        "    metrics: util {} | dma {} words | key hits/misses {}/{} | fifo hw {} words",
        util.join("/"),
        snap.counter("mccp_dma_words_total"),
        snap.counter("mccp_key_cache_hits_total"),
        snap.counter("mccp_key_cache_misses_total"),
        hw_out,
    );
}
