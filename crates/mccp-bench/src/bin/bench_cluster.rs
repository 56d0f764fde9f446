//! Cluster scaling curve: one multi-channel workload served by 1/2/4/8
//! engine shards, emitted as `BENCH_cluster.json` (hand-formatted; no
//! serde).
//!
//! Two curves per shard count:
//!
//! - **modeled** — cycle-accurate shards; aggregate throughput is total
//!   payload bits over the cluster *makespan* (slowest shard) at the
//!   190 MHz clock. This is the serving capacity a real N-device
//!   deployment would have, and is host-independent.
//! - **functional wall-clock** — functional shards through `run`'s
//!   fan-out (`min(shards, host_parallelism)` lanes; batches under
//!   `serial_fallback_bytes` of queued payload stay on one thread).
//!   Honest host numbers: on a host with fewer cores than shards
//!   (`host_parallelism` is recorded), wall-clock cannot scale with the
//!   shard count; the modeled curve is the scaling claim.
//!
//! Each functional wall-clock number is the median of a harness sample
//! ([`Sampler::RECORD`]) of whole `run` calls on one cluster; the first
//! run's report is verified against the references.
//!
//! A payload-size sweep (64 B – 8 KiB, functional engine at 4 shards)
//! and a skewed-load arm (modeled makespans with and without work
//! stealing) ride along. `--quick` is the CI smoke: fewer packets, shard
//! counts and payloads, [`Sampler::QUICK`], and no rewrite of the JSON.
//!
//! ```sh
//! cargo run --release -p mccp-bench --bin bench_cluster [-- --quick]
//! ```

use mccp_bench::{Args, BenchFile, Sampler};
use mccp_core::{FunctionalBackend, MccpConfig};
use mccp_sdr::cluster::{ClusterConfig, ClusterReport, MccpCluster};
use mccp_sdr::qos::DispatchPolicy;
use mccp_sdr::workload::{RadioPacket, Workload, WorkloadSpec};
use mccp_sdr::{Standard, SERIAL_FALLBACK_BYTES};

const PACKETS: usize = 160;
const PAYLOAD_LEN: usize = 512;
const SEED: u64 = 0xC1A5;
const KEY_SEED: u64 = 9;

fn main() {
    let quick = Args::parse(&["--quick"]).flag("--quick");
    let sampler = Sampler::new(quick);
    // Eight channels (each standard twice) so affinity dispatch has work
    // for every shard at the 8-shard point.
    let standards = vec![
        Standard::Wifi,
        Standard::Wimax,
        Standard::Umts,
        Standard::SecureVoice,
        Standard::Wifi,
        Standard::Wimax,
        Standard::Umts,
        Standard::SecureVoice,
    ];
    let packets = if quick { 48 } else { PACKETS };
    let spec = WorkloadSpec {
        standards: standards.clone(),
        packets,
        seed: SEED,
        fixed_payload_len: Some(PAYLOAD_LEN),
        mean_interarrival_cycles: None,
    };
    let workload = Workload::generate(spec);
    let host_parallelism = mccp_sdr::host_parallelism();
    println!(
        "bench_cluster{}: {packets} packets x {PAYLOAD_LEN} B over {} channels, \
         host parallelism {host_parallelism}",
        if quick { " (--quick)" } else { "" },
        standards.len()
    );

    let shard_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let (mut rows, mut base_mbps, mut modeled_speedup_4) = (Vec::new(), 0.0, 0.0);
    for &shards in shard_counts {
        let cfg = ClusterConfig {
            shards,
            work_stealing: true,
            telemetry_capacity: None,
            observe: false,
        };

        // Modeled curve: cycle-accurate shards (modeled cycles are
        // host-independent).
        let mut cycle =
            MccpCluster::cycle_accurate(cfg, MccpConfig::default(), &standards, KEY_SEED);
        let modeled = cycle.run(&workload, DispatchPolicy::Fifo);
        assert_eq!(
            cycle.verify(&workload, &modeled).expect("cycle verify"),
            packets
        );
        let (cycles, stolen) = (modeled.merged.cycles, modeled.stolen_packets);
        let mbps = modeled.aggregate_throughput_mbps();
        if shards == 1 {
            base_mbps = mbps;
        }
        let speedup = mbps / base_mbps;
        if shards == 4 {
            modeled_speedup_4 = speedup;
        }

        let mut functional = MccpCluster::functional(cfg, &standards, KEY_SEED);
        let (wall_seconds, wall) = time_runs(sampler, &mut functional, &workload);
        let wall_mbps = modeled.merged.payload_bits as f64 / wall_seconds / 1e6;
        let parallelism = wall.wall.effective_parallelism();
        println!(
            "  {shards} shard(s): modeled {cycles} cyc makespan -> {mbps:.0} Mbps aggregate; \
             functional {wall_seconds:.6}s -> {wall_mbps:.0} Mbps \
             (effective parallelism {parallelism:.2}); {stolen} stolen"
        );
        rows.push(format!(
            "    {{\"shards\": {shards}, \"modeled_makespan_cycles\": {cycles}, \
             \"modeled_aggregate_mbps\": {mbps:.1}, \"modeled_speedup\": {speedup:.2}, \
             \"functional_wall_seconds\": {wall_seconds:.6}, \
             \"functional_wall_mbps\": {wall_mbps:.1}, \
             \"functional_effective_parallelism\": {parallelism:.2}, \
             \"stolen_packets\": {stolen}}}"
        ));
    }
    assert!(
        modeled_speedup_4 >= 2.0,
        "4 shards must at least double aggregate modeled throughput, got {modeled_speedup_4:.2}x"
    );

    // Payload-size sweep: the functional engine at 4 shards across packet
    // sizes from a voice frame to a jumbo frame. Per-packet fixed costs
    // (J0 derivation, tag finalization, queue hops) dominate at 64 B and
    // wash out by 8 KiB, so packets/s and Mbps move in opposite directions.
    let sweep_payloads: &[usize] = if quick {
        &[64, 1500]
    } else {
        &[64, 512, 1500, 8192]
    };
    let sweep_packets = if quick { 32 } else { 128 };
    let mut sweep_rows = Vec::new();
    for &payload in sweep_payloads {
        let spec = WorkloadSpec {
            standards: standards.clone(),
            packets: sweep_packets,
            seed: SEED ^ payload as u64,
            fixed_payload_len: Some(payload),
            mean_interarrival_cycles: None,
        };
        let wl = Workload::generate(spec);
        let cfg = ClusterConfig {
            shards: 4,
            work_stealing: true,
            telemetry_capacity: None,
            observe: false,
        };
        let mut cluster = MccpCluster::functional(cfg, &standards, KEY_SEED);
        let (wall, run) = time_runs(sampler, &mut cluster, &wl);
        let mbps = run.merged.payload_bits as f64 / wall / 1e6;
        let packets_per_sec = sweep_packets as f64 / wall;
        println!("  sweep {payload} B: {mbps:.0} Mbps ({packets_per_sec:.0} pkt/s)");
        sweep_rows.push(format!(
            "    {{\"payload_bytes\": {payload}, \"wall_seconds\": {wall:.6}, \
             \"mbps\": {mbps:.1}, \"packets_per_sec\": {packets_per_sec:.0}}}"
        ));
    }

    // Skewed-load arm: the affinity dispatcher's worst case. All traffic
    // lands on channels 0 and 4, which both hash to affinity shard 0 at
    // 4 shards — without stealing one shard serves everything while three
    // idle; with stealing the queues rebalance. Modeled makespans isolate
    // the effect from host scheduling noise.
    let skew_packets = if quick { 16 } else { 64 };
    let skew = run_skewed_arm(&standards, skew_packets);
    println!(
        "  skewed hotspot ({skew_packets} pkts on 2 of 8 channels, 4 shards): \
         no-steal {} cyc, stealing {} cyc ({:.2}x), {} stolen",
        skew.no_steal_makespan_cycles,
        skew.stealing_makespan_cycles,
        skew.stealing_speedup,
        skew.stolen_packets
    );
    assert!(
        skew.stolen_packets > 0,
        "hotspot traffic must exercise work stealing"
    );
    assert!(
        skew.stealing_speedup > 1.0,
        "stealing must shorten the skewed makespan, got {:.2}x",
        skew.stealing_speedup
    );

    let json = format!(
        "{{\n  \"benchmark\": \"cluster_scaling\",\n  \"workload\": {{\"channels\": {}, \
         \"packets\": {packets}, \"payload_bytes\": {PAYLOAD_LEN}, \"cores_per_shard\": 4}},\n  \
         \"host_parallelism\": {host_parallelism},\n  \
         \"samples\": {},\n  \
         \"serial_fallback_bytes\": {SERIAL_FALLBACK_BYTES},\n  \
         \"note\": \"modeled curve is host-independent serving capacity (makespan at 190 MHz); \
         wall-clock fields are medians of `samples` harness samples of whole run calls; \
         functional wall-clock runs each shard count through the cluster's fan-out over \
         min(shards, host_parallelism) threads and is bounded by host_parallelism; batches \
         under serial_fallback_bytes of queued payload run on the caller thread\",\n  \"points\": [\n{}\n  ],\n  \
         \"payload_sweep\": {{\"shards\": 4, \"packets\": {}, \"engine\": \"functional\", \
         \"points\": [\n{}\n  ]}},\n  \
         \"skewed_load\": {{\"shards\": 4, \"packets\": {}, \"hot_channels\": [0, 4], \
         \"engine\": \"cycle\", \"no_steal_makespan_cycles\": {}, \
         \"stealing_makespan_cycles\": {}, \"stealing_speedup\": {:.2}, \
         \"stolen_packets\": {}, \"hot_shard_packets_no_steal\": {}, \
         \"max_shard_packets_stealing\": {}}}\n}}\n",
        standards.len(),
        sampler.samples,
        rows.join(",\n"),
        sweep_packets,
        sweep_rows.join(",\n"),
        skew.packets,
        skew.no_steal_makespan_cycles,
        skew.stealing_makespan_cycles,
        skew.stealing_speedup,
        skew.stolen_packets,
        skew.hot_shard_packets_no_steal,
        skew.max_shard_packets_stealing
    );
    BenchFile("BENCH_cluster.json").record(&json, !quick);
    print!("{json}");
    println!(
        "bench_cluster PASSED: modeled aggregate speedup at 4 shards {modeled_speedup_4:.2}x \
         (>= 2x required), stealing {:.2}x on the skewed arm",
        skew.stealing_speedup
    );
}

/// Median seconds per `run` of `workload` on `cluster` and the first
/// run's report, verified against the references.
fn time_runs(
    sampler: Sampler,
    cluster: &mut MccpCluster<FunctionalBackend>,
    workload: &Workload,
) -> (f64, ClusterReport) {
    let first = cluster.run(workload, DispatchPolicy::Fifo);
    assert_eq!(
        cluster.verify(workload, &first).expect("functional verify"),
        workload.packets.len()
    );
    let stats = sampler.run(|| cluster.run(workload, DispatchPolicy::Fifo));
    (stats.median, first)
}

struct SkewResult {
    packets: usize,
    no_steal_makespan_cycles: u64,
    stealing_makespan_cycles: u64,
    stealing_speedup: f64,
    stolen_packets: usize,
    hot_shard_packets_no_steal: usize,
    max_shard_packets_stealing: usize,
}

/// Serves a traffic hotspot (every packet on channels 0 and 4, both
/// affinity shard 0 of 4) twice on cycle-accurate shards — stealing off,
/// then on — and reports the modeled makespans.
fn run_skewed_arm(standards: &[Standard], packets: usize) -> SkewResult {
    let spec = WorkloadSpec {
        standards: standards.to_vec(),
        packets,
        seed: SEED ^ 0x5E_77,
        fixed_payload_len: Some(PAYLOAD_LEN),
        mean_interarrival_cycles: None,
    };
    let skewed: Vec<RadioPacket> = (0..packets)
        .map(|i| RadioPacket {
            channel: if i % 2 == 0 { 0 } else { 4 },
            aad: vec![0xA5; 8],
            payload: vec![i as u8; PAYLOAD_LEN],
            priority: 1,
            arrival_cycle: 0,
        })
        .collect();
    let workload = Workload {
        spec,
        packets: skewed,
    };
    let cfg = |stealing| ClusterConfig {
        shards: 4,
        work_stealing: stealing,
        telemetry_capacity: None,
        observe: false,
    };
    let mut lazy = MccpCluster::cycle_accurate(cfg(false), MccpConfig::default(), standards, 21);
    let r_lazy = lazy.run(&workload, DispatchPolicy::Fifo);
    assert_eq!(
        lazy.verify(&workload, &r_lazy).expect("no-steal verify"),
        packets
    );
    let mut eager = MccpCluster::cycle_accurate(cfg(true), MccpConfig::default(), standards, 21);
    let r_eager = eager.run(&workload, DispatchPolicy::Fifo);
    assert_eq!(
        eager.verify(&workload, &r_eager).expect("stealing verify"),
        packets
    );
    SkewResult {
        packets,
        no_steal_makespan_cycles: r_lazy.merged.cycles,
        stealing_makespan_cycles: r_eager.merged.cycles,
        stealing_speedup: r_lazy.merged.cycles as f64 / r_eager.merged.cycles.max(1) as f64,
        stolen_packets: r_eager.stolen_packets,
        hot_shard_packets_no_steal: r_lazy.shards[0].packets,
        max_shard_packets_stealing: r_eager.shards.iter().map(|s| s.packets).max().unwrap_or(0),
    }
}
