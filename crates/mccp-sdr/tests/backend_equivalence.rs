//! Backend equivalence: the [`ChannelBackend`] contract's core promise —
//! the cycle-accurate simulator, the functional engine, and any cluster
//! sharding of either (one shard up) produce *bit-identical* ciphertext,
//! tags, and IV assignments for the same workload.
//!
//! All runs here use the FIFO policy on batch workloads: per-channel IV
//! assignment order is then identical across engines by construction
//! (Priority + Poisson arrivals + core backpressure can legitimately
//! reorder which packet of a channel gets which counter value).

use mccp_core::{
    ChannelBackend, FaultKind, FaultPlan, FaultTrigger, FunctionalBackend, Mccp, MccpConfig,
};
use mccp_sdr::cluster::{ClusterConfig, ClusterReport, MccpCluster};
use mccp_sdr::qos::DispatchPolicy;
use mccp_sdr::workload::{Workload, WorkloadSpec};
use mccp_sdr::{PacketRecord, Standard, SERIAL_FALLBACK_BYTES};
use mccp_telemetry::trace::AttemptOutcome;
use proptest::prelude::*;

const STANDARDS: [Standard; 4] = [
    Standard::Wifi,
    Standard::Wimax,
    Standard::Umts,
    Standard::SecureVoice,
];

fn spec(packets: usize, seed: u64, payload: Option<usize>) -> WorkloadSpec {
    WorkloadSpec {
        standards: STANDARDS.to_vec(),
        packets,
        seed,
        fixed_payload_len: payload,
        mean_interarrival_cycles: None,
    }
}

/// A one-shard cluster on a per-tick cycle-accurate MCCP.
fn cycle_radio(standards: &[Standard], key_seed: u64) -> MccpCluster<Mccp> {
    MccpCluster::with_backends(
        ClusterConfig::default(),
        vec![Mccp::new(MccpConfig::default())],
        standards,
        key_seed,
    )
}

/// A one-shard cluster on the functional engine.
fn functional_radio(standards: &[Standard], key_seed: u64) -> MccpCluster<FunctionalBackend> {
    MccpCluster::functional(ClusterConfig::default(), standards, key_seed)
}

/// Asserts two record sets agree packet-for-packet on everything both
/// engines define (IV, ciphertext, tag, channel).
fn assert_bytes_equal(a: &[PacketRecord], b: &[PacketRecord], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: packet count");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.packet_idx, y.packet_idx, "{what}: record order");
        assert_eq!(
            x.channel, y.channel,
            "{what}: packet {} channel",
            x.packet_idx
        );
        assert_eq!(x.iv, y.iv, "{what}: packet {} IV", x.packet_idx);
        assert_eq!(
            x.ciphertext, y.ciphertext,
            "{what}: packet {} ciphertext",
            x.packet_idx
        );
        assert_eq!(x.tag, y.tag, "{what}: packet {} tag", x.packet_idx);
    }
}

#[test]
fn cycle_and_functional_agree_packet_for_packet() {
    let spec = spec(24, 0xE0_01, None);
    let workload = Workload::generate(spec.clone());
    let mut cycle = cycle_radio(&spec.standards, 7);
    let r_cycle = cycle.run(&workload, DispatchPolicy::Fifo);
    let mut functional = functional_radio(&spec.standards, 7);
    let r_functional = functional.run(&workload, DispatchPolicy::Fifo);
    assert_bytes_equal(
        &r_cycle.merged.records,
        &r_functional.merged.records,
        "cycle vs functional",
    );
    // Both also pass the independent reference check.
    assert_eq!(cycle.verify(&workload, &r_cycle).unwrap(), 24);
    assert_eq!(functional.verify(&workload, &r_functional).unwrap(), 24);
}

#[test]
fn sharded_cluster_with_stealing_matches_single_backend_bytes() {
    // Stolen packets keep their centrally assigned IVs, so even a
    // rebalanced 4-shard layout reproduces the single-engine bytes.
    let spec = spec(30, 0xE0_03, None);
    let workload = Workload::generate(spec.clone());
    let solo = functional_radio(&spec.standards, 11)
        .run(&workload, DispatchPolicy::Fifo)
        .merged;
    let mut cluster = MccpCluster::functional(
        ClusterConfig {
            shards: 4,
            work_stealing: true,
            telemetry_capacity: None,
            observe: false,
        },
        &spec.standards,
        11,
    );
    let clustered = cluster.run(&workload, DispatchPolicy::Fifo);
    assert_bytes_equal(
        &solo.records,
        &clustered.merged.records,
        "4-shard cluster vs single backend",
    );
    assert_eq!(cluster.verify(&workload, &clustered).unwrap(), 30);
}

#[test]
fn cycle_cluster_matches_functional_cluster() {
    let spec = spec(16, 0xE0_04, Some(96));
    let workload = Workload::generate(spec.clone());
    let cfg = ClusterConfig {
        shards: 2,
        work_stealing: true,
        telemetry_capacity: None,
        observe: false,
    };
    let mut f = MccpCluster::functional(cfg, &spec.standards, 3);
    let rf = f.run(&workload, DispatchPolicy::Fifo);
    let mut c = MccpCluster::cycle_accurate(cfg, MccpConfig::default(), &spec.standards, 3);
    let rc = c.run(&workload, DispatchPolicy::Fifo);
    assert_bytes_equal(
        &rf.merged.records,
        &rc.merged.records,
        "functional cluster vs cycle cluster",
    );
}

/// Every packet ends in exactly one of two states: delivered (and then
/// reference-verified) or reported failed in `abandoned`. No third bucket,
/// no overlap, no silent drop.
fn assert_exactly_once(report: &ClusterReport, packets: usize, what: &str) {
    use std::collections::BTreeSet;
    let delivered: BTreeSet<usize> = report.merged.records.iter().map(|r| r.packet_idx).collect();
    let failed: BTreeSet<usize> = report.abandoned.iter().map(|a| a.pkt_idx).collect();
    assert_eq!(
        delivered.len(),
        report.merged.records.len(),
        "{what}: duplicate delivered packet"
    );
    assert!(
        delivered.is_disjoint(&failed),
        "{what}: packet both delivered and reported failed"
    );
    let all: BTreeSet<usize> = (0..packets).collect();
    let union: BTreeSet<usize> = delivered.union(&failed).copied().collect();
    assert_eq!(
        union, all,
        "{what}: some packet is neither delivered nor reported"
    );
}

/// The tracing plane's exactly-once mirror of [`assert_exactly_once`]:
/// every packet has exactly one journey, every journey is causally
/// complete (ordinals 1..n, non-final attempts failed, terminal outcome
/// matches), and a journey completed iff the packet was delivered.
fn assert_journeys_complete(report: &ClusterReport, packets: usize, what: &str) {
    use std::collections::BTreeSet;
    let delivered: BTreeSet<usize> = report.merged.records.iter().map(|r| r.packet_idx).collect();
    let journeys = report.journeys.as_ref().expect("observe on");
    assert_eq!(journeys.len(), packets, "{what}: one journey per packet");
    for (i, j) in journeys.iter().enumerate() {
        assert_eq!(j.trace_id, i, "{what}: journey order");
        assert!(j.is_complete(), "{what}: incomplete journey: {j:?}");
        assert_eq!(
            j.outcome == AttemptOutcome::Completed,
            delivered.contains(&i),
            "{what}: journey {i} outcome disagrees with delivery"
        );
    }
}

/// SpanTracker balance: after a run, no shard may hold an open span —
/// every accepted request reached completed/failed, and everything the
/// cluster gave up on was explicitly abandoned.
fn assert_span_balance<B: ChannelBackend>(cluster: &mut MccpCluster<B>, what: &str) {
    for s in 0..cluster.shard_count() {
        let spans = cluster.backend_mut(s).telemetry().spans();
        assert_eq!(spans.open_count(), 0, "{what}: shard {s} leaked open spans");
    }
}

/// Total payload bytes in a workload — what the cluster's fan-out weighs
/// against [`SERIAL_FALLBACK_BYTES`].
fn payload_bytes(workload: &Workload) -> u64 {
    workload
        .packets
        .iter()
        .map(|p| p.payload.len() as u64)
        .sum()
}

#[test]
fn fanned_out_cluster_matches_single_backend_bytes() {
    // 160 x 2 KiB is past the serial fallback, so on a multi-CPU host the
    // 4 shards run on scoped threads; the bytes must not notice.
    let spec = spec(160, 0xE0_06, Some(2048));
    let workload = Workload::generate(spec.clone());
    assert!(payload_bytes(&workload) >= SERIAL_FALLBACK_BYTES);
    let solo = functional_radio(&spec.standards, 17)
        .run(&workload, DispatchPolicy::Fifo)
        .merged;
    let cfg = ClusterConfig {
        shards: 4,
        ..ClusterConfig::default()
    };
    let mut cluster = MccpCluster::functional(cfg, &spec.standards, 17);
    let clustered = cluster.run(&workload, DispatchPolicy::Fifo);
    assert_bytes_equal(
        &solo.records,
        &clustered.merged.records,
        "fanned-out 4-shard cluster vs single backend",
    );
    assert_eq!(cluster.verify(&workload, &clustered).unwrap(), 160);
}

#[test]
fn fanned_out_failover_delivers_or_reports_every_packet_once() {
    // 192 x 4 KiB on 4 shards, 192 KiB per shard. Shards 2 and 3 die after
    // 4 packets each, so 352 KiB of orphans re-serve on shards 0 and 1:
    // the failover pass is past the serial fallback too, and on a
    // multi-CPU host the two survivors run on separate lanes.
    let packets = 192;
    let spec = spec(packets, 0xE0_07, Some(4096));
    let workload = Workload::generate(spec.clone());
    assert!(payload_bytes(&workload) >= SERIAL_FALLBACK_BYTES);
    let cfg = ClusterConfig {
        shards: 4,
        telemetry_capacity: Some(256),
        observe: true,
        ..ClusterConfig::default()
    };
    let mut cluster = MccpCluster::functional(cfg, &spec.standards, 19);
    cluster.set_shard_kills(vec![(2, 4), (3, 4)]);
    // One transient fault on a survivor, so some journey retries as well.
    cluster.backend_mut(0).arm_faults(&FaultPlan::new().with(
        FaultTrigger::AtPacket(3),
        FaultKind::FlipFifoBit {
            core: 0,
            output: false,
            bit: 5,
        },
    ));
    let report = cluster.run(&workload, DispatchPolicy::Fifo);
    assert_eq!(report.dead_shards, 2);
    assert_eq!(report.retries, 1);
    assert_exactly_once(&report, packets, "fanned-out failover");
    assert_journeys_complete(&report, packets, "fanned-out failover");
    assert_span_balance(&mut cluster, "fanned-out failover");
    let failed_over = report
        .journeys
        .as_ref()
        .expect("observe on")
        .iter()
        .filter(|j| j.failover)
        .count() as u64;
    assert_eq!(failed_over, 88, "every orphan hopped to a survivor");
    assert!(failed_over * 4096 >= SERIAL_FALLBACK_BYTES);
    assert_eq!(
        cluster.verify(&workload, &report).unwrap(),
        report.merged.packets
    );
}

#[test]
fn arming_an_empty_fault_plan_is_byte_identical() {
    // The fault plane must be zero-cost when off: an engine armed with an
    // empty schedule runs the exact instruction stream of an unarmed one.
    let spec = spec(12, 0xE0_05, None);
    let workload = Workload::generate(spec.clone());
    let cfg = ClusterConfig {
        shards: 2,
        ..ClusterConfig::default()
    };
    let mut plain = MccpCluster::cycle_accurate(cfg, MccpConfig::default(), &spec.standards, 13);
    let r_plain = plain.run(&workload, DispatchPolicy::Fifo);
    let mut armed = MccpCluster::cycle_accurate(cfg, MccpConfig::default(), &spec.standards, 13);
    for s in 0..2 {
        armed.backend_mut(s).arm_faults(&FaultPlan::new());
    }
    let r_armed = armed.run(&workload, DispatchPolicy::Fifo);
    assert_bytes_equal(
        &r_plain.merged.records,
        &r_armed.merged.records,
        "unarmed vs empty-plan",
    );
    assert_eq!(r_plain.merged.cycles, r_armed.merged.cycles, "makespan");
    assert_eq!(r_armed.retries, 0);
    assert_eq!(r_armed.abandoned.len(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The fault-plane safety property: under *any* seeded fault schedule,
    /// on both engines, every packet is exactly one of
    /// {delivered-and-verified, reported-failed}. Delivered bytes still
    /// pass the independent reference check (no silent corruption).
    #[test]
    fn any_fault_schedule_delivers_or_reports_every_packet(
        seed in any::<u64>(),
        faults_per_shard in 1usize..5,
        packets in 8usize..16,
    ) {
        let spec = spec(packets, seed ^ 0xFA_17, Some(96));
        let workload = Workload::generate(spec.clone());
        let cfg = ClusterConfig {
            shards: 2,
            telemetry_capacity: Some(256),
            observe: true,
            ..ClusterConfig::default()
        };
        let n_cores = MccpConfig::default().n_cores;
        let plans: Vec<FaultPlan> = (0..2)
            .map(|s| {
                FaultPlan::random(
                    seed.wrapping_add(s),
                    faults_per_shard,
                    n_cores,
                    50_000,
                    (packets / 2) as u64,
                )
            })
            .collect();

        let mut cycle =
            MccpCluster::cycle_accurate(cfg, MccpConfig::default(), &spec.standards, seed ^ 2);
        for (s, plan) in plans.iter().enumerate() {
            cycle.backend_mut(s).arm_faults(plan);
            cycle.backend_mut(s).arm_watchdog(4);
        }
        let rc = cycle.run(&workload, DispatchPolicy::Fifo);
        assert_exactly_once(&rc, packets, "cycle engine");
        assert_journeys_complete(&rc, packets, "cycle engine");
        assert_span_balance(&mut cycle, "cycle engine");
        prop_assert_eq!(
            cycle.verify(&workload, &rc).unwrap(),
            rc.merged.packets,
            "cycle engine delivered records must reference-verify"
        );

        let mut functional = MccpCluster::functional(cfg, &spec.standards, seed ^ 2);
        for (s, plan) in plans.iter().enumerate() {
            functional.backend_mut(s).arm_faults(plan);
        }
        let rf = functional.run(&workload, DispatchPolicy::Fifo);
        assert_exactly_once(&rf, packets, "functional engine");
        assert_journeys_complete(&rf, packets, "functional engine");
        assert_span_balance(&mut functional, "functional engine");
        prop_assert_eq!(
            functional.verify(&workload, &rf).unwrap(),
            rf.merged.packets,
            "functional engine delivered records must reference-verify"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The property form: any seed, any fixed payload length in range,
    /// any packet count — cycle and functional engines agree byte-for-
    /// byte, and both satisfy the reference check.
    #[test]
    fn backends_agree_for_any_workload(
        seed in any::<u64>(),
        packets in 1usize..20,
        payload in 16usize..300,
    ) {
        let spec = spec(packets, seed, Some(payload));
        let workload = Workload::generate(spec.clone());
        let mut cycle = cycle_radio(&spec.standards, seed ^ 1);
        let r_cycle = cycle.run(&workload, DispatchPolicy::Fifo);
        let mut functional = functional_radio(&spec.standards, seed ^ 1);
        let r_functional = functional.run(&workload, DispatchPolicy::Fifo);
        let (xs, ys) = (&r_cycle.merged.records, &r_functional.merged.records);
        prop_assert_eq!(xs.len(), ys.len());
        for (x, y) in xs.iter().zip(ys.iter()) {
            prop_assert_eq!(&x.iv, &y.iv, "packet {} IV", x.packet_idx);
            prop_assert_eq!(&x.ciphertext, &y.ciphertext, "packet {} ciphertext", x.packet_idx);
            prop_assert_eq!(&x.tag, &y.tag, "packet {} tag", x.packet_idx);
        }
        prop_assert_eq!(cycle.verify(&workload, &r_cycle).unwrap(), packets);
        prop_assert_eq!(functional.verify(&workload, &r_functional).unwrap(), packets);
    }
}
