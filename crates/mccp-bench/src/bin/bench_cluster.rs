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
//! A payload-size sweep (64 B – 8 KiB, functional engine at 4 shards)
//! rides along in full mode, and `--quick` turns the binary into the CI
//! perf smoke: a reduced scaling run plus a re-measurement of the batched
//! kernels against the regression floors checked in via
//! `BENCH_functional_kernels.json` (fails on a >20% drop below a floor).
//!
//! ```sh
//! cargo run --release -p mccp-bench --bin bench_cluster [-- --quick]
//! ```

use mccp_core::MccpConfig;
use mccp_sdr::cluster::{ClusterConfig, MccpCluster};
use mccp_sdr::qos::DispatchPolicy;
use mccp_sdr::workload::{RadioPacket, Workload, WorkloadSpec};
use mccp_sdr::{Standard, SERIAL_FALLBACK_BYTES};
use std::time::Instant;

const PACKETS: usize = 160;
const PAYLOAD_LEN: usize = 512;
const SEED: u64 = 0xC1A5;
const KEY_SEED: u64 = 9;

struct Point {
    shards: usize,
    modeled_makespan_cycles: u64,
    modeled_aggregate_mbps: f64,
    functional_wall_seconds: f64,
    functional_wall_mbps: f64,
    functional_effective_parallelism: f64,
    stolen_packets: usize,
}

struct SweepPoint {
    payload_bytes: usize,
    wall_seconds: f64,
    mbps: f64,
    packets_per_sec: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
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
    let mut points = Vec::new();
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

        let mut functional = MccpCluster::functional(cfg, &standards, KEY_SEED);
        let wall = functional.run(&workload, DispatchPolicy::Fifo);
        assert_eq!(
            functional
                .verify(&workload, &wall)
                .expect("functional verify"),
            packets
        );

        let bits = modeled.merged.payload_bits as f64;
        let point = Point {
            shards,
            modeled_makespan_cycles: modeled.merged.cycles,
            modeled_aggregate_mbps: modeled.aggregate_throughput_mbps(),
            functional_wall_seconds: wall.wall_seconds,
            functional_wall_mbps: bits / wall.wall_seconds.max(1e-12) / 1e6,
            functional_effective_parallelism: wall.wall.effective_parallelism(),
            stolen_packets: modeled.stolen_packets,
        };
        println!(
            "  {shards} shard(s): modeled {} cyc makespan -> {:.0} Mbps aggregate; \
             functional {:.4}s -> {:.0} Mbps (effective parallelism {:.2}); {} stolen",
            point.modeled_makespan_cycles,
            point.modeled_aggregate_mbps,
            point.functional_wall_seconds,
            point.functional_wall_mbps,
            point.functional_effective_parallelism,
            point.stolen_packets
        );
        points.push(point);
    }

    let base = &points[0];
    let at = |n: usize| points.iter().find(|p| p.shards == n).unwrap();
    let modeled_speedup_4 = at(4).modeled_aggregate_mbps / base.modeled_aggregate_mbps;
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
    let mut sweep = Vec::new();
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
        let run = cluster.run(&wl, DispatchPolicy::Fifo);
        assert_eq!(
            cluster.verify(&wl, &run).expect("sweep verify"),
            sweep_packets
        );
        let wall = run.wall_seconds.max(1e-12);
        let point = SweepPoint {
            payload_bytes: payload,
            wall_seconds: run.wall_seconds,
            mbps: run.merged.payload_bits as f64 / wall / 1e6,
            packets_per_sec: sweep_packets as f64 / wall,
        };
        println!(
            "  sweep {payload} B: {:.0} Mbps ({:.0} pkt/s)",
            point.mbps, point.packets_per_sec
        );
        sweep.push(point);
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

    if quick {
        perf_smoke_against_floors();
        println!(
            "bench_cluster --quick PASSED: scaling {modeled_speedup_4:.2}x at 4 shards, \
             stealing {:.2}x on the skewed arm, kernel floors held (BENCH files not rewritten)",
            skew.stealing_speedup
        );
        return;
    }

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"shards\": {}, \"modeled_makespan_cycles\": {}, \
                 \"modeled_aggregate_mbps\": {:.1}, \"modeled_speedup\": {:.2}, \
                 \"functional_wall_seconds\": {:.6}, \"functional_wall_mbps\": {:.1}, \
                 \"functional_effective_parallelism\": {:.2}, \"stolen_packets\": {}}}",
                p.shards,
                p.modeled_makespan_cycles,
                p.modeled_aggregate_mbps,
                p.modeled_aggregate_mbps / base.modeled_aggregate_mbps,
                p.functional_wall_seconds,
                p.functional_wall_mbps,
                p.functional_effective_parallelism,
                p.stolen_packets
            )
        })
        .collect();
    let sweep_rows: Vec<String> = sweep
        .iter()
        .map(|p| {
            format!(
                "    {{\"payload_bytes\": {}, \"wall_seconds\": {:.6}, \
                 \"mbps\": {:.1}, \"packets_per_sec\": {:.0}}}",
                p.payload_bytes, p.wall_seconds, p.mbps, p.packets_per_sec
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"cluster_scaling\",\n  \"workload\": {{\"channels\": {}, \
         \"packets\": {PACKETS}, \"payload_bytes\": {PAYLOAD_LEN}, \"cores_per_shard\": 4}},\n  \
         \"host_parallelism\": {host_parallelism},\n  \
         \"serial_fallback_bytes\": {SERIAL_FALLBACK_BYTES},\n  \
         \"note\": \"modeled curve is host-independent serving capacity (makespan at 190 MHz); \
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
    std::fs::write("BENCH_cluster.json", &json).expect("write BENCH_cluster.json");
    print!("{json}");
    println!("modeled aggregate speedup at 4 shards: {modeled_speedup_4:.2}x (>= 2x required)");
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

/// The CI perf smoke: re-measures the batched kernel arms briefly and
/// fails if any lands more than 20% below its checked-in regression
/// floor from `BENCH_functional_kernels.json`. Floors are deliberate
/// underestimates (see `bench_kernels`), so tripping this means a real
/// kernel regression, not host noise.
fn perf_smoke_against_floors() {
    use mccp_aes::modes::GcmContext;
    use mccp_gf128::{ghash_batched, Gf128, GhashPowers};

    let floors = std::fs::read_to_string("BENCH_functional_kernels.json")
        .expect("BENCH_functional_kernels.json must be checked in for the perf smoke");
    let floor = |key: &str| -> f64 {
        let tail = floors
            .split(&format!("\"{key}\":"))
            .nth(1)
            .unwrap_or_else(|| panic!("{key} missing from BENCH_functional_kernels.json"));
        tail.trim_start()
            .split([',', '\n', '}'])
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("{key}: unparseable floor: {e}"))
    };

    let measure = |mut f: Box<dyn FnMut()>| -> f64 {
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let dt = t0.elapsed().as_secs_f64();
            if dt >= 0.08 || iters >= (1 << 30) {
                return iters as f64 / dt.max(1e-12);
            }
            iters = iters.saturating_mul(((0.08 / dt.max(1e-9)) * 1.25).ceil().max(2.0) as u64);
        }
    };

    let buf = vec![0x5Au8; 8192];
    let powers = GhashPowers::new(Gf128::from_bytes(&[0xB8; 16]));
    let ghash_gb_s = {
        let powers = &powers;
        let buf = &buf;
        measure(Box::new(move || {
            std::hint::black_box(ghash_batched(powers, &[], buf));
        })) * 8192.0
            / 1e9
    };

    let ctx = GcmContext::new(mccp_aes::Aes::new(&[0x42; 16]));
    let payload = vec![0xC3u8; 512];
    let mut ct = vec![0x99u8; 8192];
    let ctr_gb_s = {
        let aes = mccp_aes::Aes::new(&[0x42; 16]);
        measure(Box::new(move || {
            mccp_aes::modes::ctr_xcrypt(&aes, &[0xA5; 16], std::hint::black_box(&mut ct)).unwrap();
        })) * 8192.0
            / 1e9
    };
    let mut out = Vec::with_capacity(512 + 16);
    let gcm_pps = {
        let ctx = &ctx;
        let payload = &payload;
        measure(Box::new(move || {
            ctx.seal_into(&[0x11; 12], &[0x22; 16], payload, 16, &mut out)
                .unwrap();
        }))
    };

    for (label, measured, floor) in [
        (
            "ghash_batched_gb_s",
            ghash_gb_s,
            floor("floor_ghash_batched_gb_s"),
        ),
        (
            "ctr_batched_gb_s",
            ctr_gb_s,
            floor("floor_ctr_batched_gb_s"),
        ),
        (
            "gcm512_batched_packets_per_sec",
            gcm_pps,
            floor("floor_gcm512_batched_packets_per_sec"),
        ),
    ] {
        println!("  perf smoke {label}: measured {measured:.4}, floor {floor:.4}");
        assert!(
            measured >= 0.8 * floor,
            "{label} regressed: measured {measured:.4} < 80% of checked-in floor {floor:.4}"
        );
    }
}
