//! Chaos soak: the fault-injection acceptance run, emitted as
//! `BENCH_chaos.json` (hand-formatted; no serde).
//!
//! One multi-standard workload is served twice per engine — once clean,
//! once under a seeded [`FaultPlan`] (core wedges, stalls, FIFO bit
//! flips, key-cache corruption, DMA word drops, plus one shard kill when
//! the cluster has a spare) — and the report quantifies what the fault
//! plane costs and what it saves:
//!
//! - **recovery rate** — delivered / offered under faults. Abandoned
//!   packets are reported, never silently dropped.
//! - **added latency** — p95 service latency, faulted vs clean.
//! - **degraded throughput** — aggregate Mbps retention under faults
//!   (a killed shard halves a 2-shard cluster's capacity; that is the
//!   honest number).
//!
//! Every delivered record (both runs, both engines) is verified against
//! the `mccp-aes` references: zero silent corruption is an assertion,
//! not a hope. The whole run is deterministic — same arguments, same
//! JSON bytes.
//!
//! ```sh
//! cargo run --release -p mccp-bench --bin chaos_soak -- --packets 200
//! cargo run --release -p mccp-bench --bin chaos_soak -- --packets 400 --seed 7 --faults 12
//! ```

use mccp_bench::{Args, BenchFile};
use mccp_core::{FaultPlan, MccpConfig};
use mccp_sdr::cluster::{ClusterConfig, ClusterReport, MccpCluster};
use mccp_sdr::qos::DispatchPolicy;
use mccp_sdr::workload::{Workload, WorkloadSpec};
use mccp_sdr::Standard;

struct EngineRow {
    engine: &'static str,
    baseline_cycles: u64,
    chaos_cycles: u64,
    baseline_mbps: f64,
    chaos_mbps: f64,
    baseline_p95: u64,
    chaos_p95: u64,
    delivered: usize,
    abandoned: usize,
    retries: u64,
    core_resets: u64,
    dead_shards: usize,
    recovery_rate: f64,
}

fn main() {
    let args = Args::parse(&[
        "--packets <n>",
        "--seed <n>",
        "--faults <n>",
        "--shards <n>",
    ]);
    let packets: usize = args.get("--packets").unwrap_or(200);
    let seed: u64 = args.get("--seed").unwrap_or(0xC405);
    let faults_per_shard: usize = args.get("--faults").unwrap_or(6);
    let shards: usize = args.get("--shards").unwrap_or(2);
    assert!(shards >= 1 && packets >= 1);

    let standards = vec![
        Standard::Wifi,
        Standard::Wimax,
        Standard::Umts,
        Standard::SecureVoice,
    ];
    let spec = WorkloadSpec {
        standards: standards.clone(),
        packets,
        seed,
        fixed_payload_len: None,
        mean_interarrival_cycles: None,
    };
    let workload = Workload::generate(spec);
    println!(
        "chaos_soak: {packets} packets across {} standards, {shards} shard(s), \
         {faults_per_shard} engine faults per shard, seed {seed:#x}",
        standards.len()
    );

    let cfg = ClusterConfig {
        shards,
        ..ClusterConfig::default()
    };
    let n_cores = MccpConfig::default().n_cores;

    // Clean baselines first: the cycle baseline's makespan also sets the
    // horizon the random plan spreads its cycle-triggered faults over.
    let mut cycle = MccpCluster::cycle_accurate(cfg, MccpConfig::default(), &standards, seed);
    let baseline_cycle = cycle.run(&workload, DispatchPolicy::Fifo);
    assert_eq!(
        cycle.verify(&workload, &baseline_cycle).expect("baseline"),
        packets
    );
    let mut functional = MccpCluster::functional(cfg, &standards, seed);
    let baseline_fn = functional.run(&workload, DispatchPolicy::Fifo);
    assert_eq!(
        functional
            .verify(&workload, &baseline_fn)
            .expect("baseline"),
        packets
    );

    let plans: Vec<FaultPlan> = (0..shards)
        .map(|s| {
            FaultPlan::random(
                seed.wrapping_add(s as u64),
                faults_per_shard,
                n_cores,
                baseline_cycle.merged.cycles.max(2),
                (packets / shards.max(1)) as u64,
            )
        })
        .collect();
    // With a spare shard available, also take a whole engine down partway
    // through — the dispatcher must redistribute its queue.
    let kills = if shards > 1 {
        vec![(shards - 1, (packets / (2 * shards)) as u64)]
    } else {
        Vec::new()
    };

    let chaos_cycle = {
        let mut cluster = MccpCluster::cycle_accurate(cfg, MccpConfig::default(), &standards, seed);
        for (s, plan) in plans.iter().enumerate() {
            cluster.backend_mut(s).arm_faults(plan);
            cluster.backend_mut(s).arm_watchdog(4);
        }
        cluster.set_shard_kills(kills.clone());
        let report = cluster.run(&workload, DispatchPolicy::Fifo);
        cluster
            .verify(&workload, &report)
            .expect("no silent corruption on the cycle engine");
        report
    };
    let chaos_fn = {
        let mut cluster = MccpCluster::functional(cfg, &standards, seed);
        for (s, plan) in plans.iter().enumerate() {
            cluster.backend_mut(s).arm_faults(plan);
        }
        cluster.set_shard_kills(kills.clone());
        let report = cluster.run(&workload, DispatchPolicy::Fifo);
        cluster
            .verify(&workload, &report)
            .expect("no silent corruption on the functional engine");
        report
    };

    let rows = [
        summarize("cycle", packets, &baseline_cycle, &chaos_cycle),
        summarize("functional", packets, &baseline_fn, &chaos_fn),
    ];
    for row in &rows {
        let modeled = if row.models_clock() {
            format!(
                "; p95 latency {} -> {} cyc; {:.0} -> {:.0} Mbps",
                row.baseline_p95, row.chaos_p95, row.baseline_mbps, row.chaos_mbps
            )
        } else {
            String::new()
        };
        println!(
            "  {}: {}/{} delivered ({:.1}% recovery), {} retries, {} core resets, \
             {} dead shard(s){modeled}",
            row.engine,
            row.delivered,
            packets,
            100.0 * row.recovery_rate,
            row.retries,
            row.core_resets,
            row.dead_shards,
        );
        assert_eq!(
            row.delivered + row.abandoned,
            packets,
            "every packet is delivered or reported failed"
        );
        assert!(
            row.recovery_rate >= 0.99,
            "{}: recovery rate {:.3} below the 99% floor",
            row.engine,
            row.recovery_rate
        );
    }

    let fault_labels: Vec<String> = plans
        .iter()
        .enumerate()
        .flat_map(|(s, p)| {
            p.entries
                .iter()
                .map(move |e| format!("\"s{s}:{}\"", e.kind.label()))
        })
        .chain(kills.iter().map(|(s, _)| format!("\"s{s}:kill_shard\"")))
        .collect();
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let modeled = if r.models_clock() {
                format!(
                    ", \"baseline_cycles\": {}, \"chaos_cycles\": {}, \
                     \"baseline_p95_latency\": {}, \"chaos_p95_latency\": {}, \
                     \"added_p95_latency\": {}, \"baseline_mbps\": {:.1}, \"chaos_mbps\": {:.1}, \
                     \"throughput_retention\": {:.3}",
                    r.baseline_cycles,
                    r.chaos_cycles,
                    r.baseline_p95,
                    r.chaos_p95,
                    r.chaos_p95.saturating_sub(r.baseline_p95),
                    r.baseline_mbps,
                    r.chaos_mbps,
                    r.chaos_mbps / r.baseline_mbps,
                )
            } else {
                String::new()
            };
            format!(
                "    {{\"engine\": \"{}\", \"delivered\": {}, \"abandoned\": {}, \
                 \"recovery_rate\": {:.4}, \"retries\": {}, \"core_resets\": {}, \
                 \"dead_shards\": {}{modeled}}}",
                r.engine,
                r.delivered,
                r.abandoned,
                r.recovery_rate,
                r.retries,
                r.core_resets,
                r.dead_shards,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"chaos_soak\",\n  \"seed\": {seed},\n  \"packets\": {packets},\n  \
         \"shards\": {shards},\n  \"faults_per_shard\": {faults_per_shard},\n  \
         \"host_parallelism\": {},\n  \
         \"faults\": [{}],\n  \
         \"note\": \"deterministic: same arguments reproduce this file byte-for-byte; \
         all delivered packets reference-verified (zero silent corruption)\",\n  \
         \"engines\": [\n{}\n  ]\n}}\n",
        mccp_sdr::host_parallelism(),
        fault_labels.join(", "),
        json_rows.join(",\n")
    );
    BenchFile("BENCH_chaos.json").record(&json, true);
    print!("{json}");
    println!("chaos_soak PASSED: recovery >= 99% on both engines, zero silent corruption");
}

impl EngineRow {
    /// Whether the cycles, latencies and Mbps mean anything: the
    /// functional engine models no clock, so its row leaves them out.
    fn models_clock(&self) -> bool {
        self.engine == "cycle"
    }
}

fn summarize(
    engine: &'static str,
    packets: usize,
    baseline: &ClusterReport,
    chaos: &ClusterReport,
) -> EngineRow {
    EngineRow {
        engine,
        baseline_cycles: baseline.merged.cycles,
        chaos_cycles: chaos.merged.cycles,
        baseline_mbps: baseline.aggregate_throughput_mbps(),
        chaos_mbps: chaos.aggregate_throughput_mbps(),
        baseline_p95: baseline.merged.latency_percentile(0.95),
        chaos_p95: chaos.merged.latency_percentile(0.95),
        delivered: chaos.merged.packets,
        abandoned: chaos.abandoned.len(),
        retries: chaos.retries,
        core_resets: chaos.core_resets,
        dead_shards: chaos.dead_shards,
        recovery_rate: chaos.merged.packets as f64 / packets as f64,
    }
}
