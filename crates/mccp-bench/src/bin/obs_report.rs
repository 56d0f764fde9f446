//! Observability acceptance run: overhead budget, zero-perturbation
//! proof, and the full report surface, emitted as `BENCH_obs.json` plus a
//! flamegraph-ready `BENCH_obs_profile.collapsed` (hand-formatted; no
//! serde).
//!
//! One fixed-seed GCM (WiMAX) workload is served by the cycle-accurate
//! cluster twice per timing iteration — observability off, then fully on
//! (telemetry + causal tracing + SLO engine) — and the run asserts the
//! plane's two contracts:
//!
//! - **zero perturbation** — the instrumented run's records (IVs,
//!   ciphertext, tags), makespan, and retry counts are byte-identical to
//!   the bare run: stage counters are architectural state, everything
//!   else samples it.
//! - **overhead budget** — over interleaved off/on pairs (101 by default,
//!   order alternating), the median per-pair on/off wall-clock ratio
//!   stays at or under 1.05. Pairing cancels slow host drift, and the
//!   median ignores the pairs a burst of host noise lands on, so the gate
//!   fails for real overhead, not for noise. Many short pairs beat a few
//!   long ones: CI times 50-packet runs.
//!
//! The enabled run then emits every observability artifact: collapsed
//! stage stacks (`shardN;coreM;stage cycles` lines for flamegraph.pl or
//! speedscope), the top-N cycle-attribution table, per-channel SLO
//! attainment, shard health scores, and the journey ledger summary.
//!
//! ```sh
//! cargo run --release -p mccp-bench --bin obs_report
//! cargo run --release -p mccp-bench --bin obs_report -- --packets 50 --pairs 101
//! ```

use mccp_bench::{Args, BenchFile, Stats};
use mccp_core::MccpConfig;
use mccp_sdr::cluster::{ClusterConfig, ClusterReport, MccpCluster};
use mccp_sdr::qos::DispatchPolicy;
use mccp_sdr::workload::{Workload, WorkloadSpec};
use mccp_sdr::Standard;
use mccp_telemetry::profile::{collapsed_stacks, top_n_report};
use mccp_telemetry::slo::{health_table, SloEngine};
use mccp_telemetry::trace::AttemptOutcome;

const OVERHEAD_BUDGET: f64 = 0.05;

fn main() {
    let args = Args::parse(&["--packets <n>", "--seed <n>", "--shards <n>", "--pairs <n>"]);
    let packets: usize = args.get("--packets").unwrap_or(200);
    let seed: u64 = args.get("--seed").unwrap_or(0x0B5E);
    let shards: usize = args.get("--shards").unwrap_or(2);
    let pairs: usize = args.get("--pairs").unwrap_or(101);
    assert!(shards >= 1 && packets >= 1 && pairs >= 1);

    // GCM soak: two WiMAX channels so a 2-shard cluster has affinity work
    // on every shard (channel % shards).
    let standards = vec![Standard::Wimax, Standard::Wimax];
    let spec = WorkloadSpec {
        standards: standards.clone(),
        packets,
        seed,
        fixed_payload_len: None,
        mean_interarrival_cycles: None,
    };
    let workload = Workload::generate(spec);
    println!(
        "obs_report: {packets} GCM packets over {} WiMAX channels, {shards} shard(s), \
         {pairs} off/on pairs, seed {seed:#x}",
        standards.len()
    );

    let cfg = |observe: bool| ClusterConfig {
        shards,
        work_stealing: true,
        telemetry_capacity: if observe { Some(4096) } else { None },
        observe,
    };
    let run = |observe: bool| -> ClusterReport {
        let mut cluster =
            MccpCluster::cycle_accurate(cfg(observe), MccpConfig::default(), &standards, seed);
        let report = cluster.run(&workload, DispatchPolicy::Fifo);
        assert_eq!(cluster.verify(&workload, &report).expect("verify"), packets);
        report
    };

    // Interleaved pairs after one warm-up pair; the order alternates so
    // neither arm always runs first.
    let mut off = run(false);
    let mut on = run(true);
    let (mut off_walls, mut on_walls, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..pairs {
        if i % 2 == 0 {
            off = run(false);
            on = run(true);
        } else {
            on = run(true);
            off = run(false);
        }
        off_walls.push(off.wall_seconds);
        on_walls.push(on.wall_seconds);
        ratios.push(on.wall_seconds / off.wall_seconds.max(1e-12));
    }

    // Zero-perturbation contract: the observed machine IS the bare
    // machine. Cycle counts, records, and recovery behavior must match
    // byte-for-byte; only the sampled artifacts differ.
    assert_eq!(off.merged.cycles, on.merged.cycles, "makespan perturbed");
    assert_eq!(off.retries, on.retries, "retry behavior perturbed");
    assert_eq!(
        off.merged.records.len(),
        on.merged.records.len(),
        "delivery perturbed"
    );
    for (a, b) in off.merged.records.iter().zip(on.merged.records.iter()) {
        assert_eq!(a.packet_idx, b.packet_idx, "record order perturbed");
        assert_eq!(a.iv, b.iv, "packet {} IV perturbed", a.packet_idx);
        assert_eq!(
            a.ciphertext, b.ciphertext,
            "packet {} ciphertext perturbed",
            a.packet_idx
        );
        assert_eq!(a.tag, b.tag, "packet {} tag perturbed", a.packet_idx);
        assert_eq!(
            a.completed_at, b.completed_at,
            "packet {} completion cycle perturbed",
            a.packet_idx
        );
    }
    let ratio_list: Vec<String> = ratios.iter().map(|r| format!("{r:.3}")).collect();
    println!("  on/off ratio per pair: {}", ratio_list.join(" "));
    let median = |v| Stats::of(v).median;
    let (off_wall, on_wall) = (median(off_walls), median(on_walls));
    let overhead = median(ratios) - 1.0;
    println!(
        "  wall (median): off {off_wall:.4}s, on {on_wall:.4}s -> median pair overhead \
         {:.2}% (budget {:.0}%)",
        100.0 * overhead,
        100.0 * OVERHEAD_BUDGET
    );
    assert!(
        overhead <= OVERHEAD_BUDGET,
        "observability overhead {:.2}% exceeds the {:.0}% budget",
        100.0 * overhead,
        100.0 * OVERHEAD_BUDGET
    );

    // Cycle attribution: per-shard stage gauges -> collapsed stacks.
    let stacks: Vec<(usize, &mccp_telemetry::Snapshot)> = on
        .shards
        .iter()
        .filter_map(|s| s.snapshot.as_ref().map(|snap| (s.shard, snap)))
        .collect();
    let collapsed = collapsed_stacks(&stacks);
    BenchFile("BENCH_obs_profile.collapsed").record(&collapsed, true);
    assert!(
        !collapsed.is_empty(),
        "enabled run must attribute cycles to stages"
    );
    println!("\n{}", top_n_report(&collapsed, 10));

    // SLO attainment and shard health.
    let slo = on.slo.as_ref().expect("observe on");
    println!("{}", SloEngine::attainment_table(slo));
    println!("{}", health_table(&on.health));

    // Journey ledger: exactly one complete journey per packet.
    let journeys = on.journeys.as_ref().expect("observe on");
    assert_eq!(journeys.len(), packets, "one journey per packet");
    assert!(
        journeys.iter().all(|j| j.is_complete()),
        "every journey must be causally complete"
    );
    let served = journeys
        .iter()
        .filter(|j| j.outcome == AttemptOutcome::Completed)
        .count();

    let slo_rows: Vec<String> = slo
        .iter()
        .map(|r| {
            format!(
                "    {{\"channel\": {}, \"deadline_cycles\": {}, \"target_permille\": {}, \
                 \"attained_permille\": {}, \"violations\": {}, \"met\": {}}}",
                r.channel,
                r.deadline_cycles,
                r.target_permille,
                r.attained_permille,
                r.violations,
                r.met
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"obs_overhead\",\n  \"seed\": {seed},\n  \
         \"packets\": {packets},\n  \"shards\": {shards},\n  \"pairs\": {pairs},\n  \
         \"host_parallelism\": {},\n  \
         \"disabled_wall_seconds\": {off_wall:.6},\n  \"enabled_wall_seconds\": {on_wall:.6},\n  \
         \"overhead_fraction\": {overhead:.4},\n  \"overhead_budget\": {OVERHEAD_BUDGET},\n  \
         \"makespan_cycles\": {},\n  \"byte_identical_disabled\": true,\n  \
         \"journeys\": {},\n  \"journeys_complete\": true,\n  \"served\": {served},\n  \
         \"note\": \"byte_identical_disabled is asserted: records, cycle counts and retry \
         behavior match with observability on and off; overhead is the median on/off \
         wall-clock ratio of {pairs} interleaved pairs minus 1, wall seconds are per-arm \
         medians\",\n  \"slo\": [\n{}\n  ]\n}}\n",
        mccp_sdr::host_parallelism(),
        on.merged.cycles,
        journeys.len(),
        slo_rows.join(",\n")
    );
    BenchFile("BENCH_obs.json").record(&json, true);
    print!("{json}");
    println!(
        "obs_report PASSED: overhead {:.2}% <= {:.0}%, disabled run byte-identical, \
         {served}/{packets} journeys served",
        100.0 * overhead,
        100.0 * OVERHEAD_BUDGET
    );
}
