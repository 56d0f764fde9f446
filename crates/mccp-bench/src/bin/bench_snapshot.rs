//! Simulator-speed snapshot: runs a fixed 4-core GCM-128 soak workload
//! twice — once per-tick, once with the event-driven fast path — checks
//! the two schedules are cycle-identical, and emits the wall-clock
//! comparison as `BENCH_sim_speed.json` (hand-formatted; no serde). Each
//! mode's `host_seconds` is the median of a harness sample of whole passes
//! ([`Sampler::RECORD`]).
//!
//! `--check` (the CI perf smoke) runs the same passes and identity
//! assertions under [`Sampler::QUICK`], then also checks both passes'
//! `modeled_cycles` against the checked-in `BENCH_sim_speed.json`, and
//! does not rewrite it.
//!
//! ```sh
//! cargo run --release -p mccp-bench --bin bench_snapshot
//! cargo run --release -p mccp-bench --bin bench_snapshot -- --check
//! ```

use mccp_bench::{Args, BenchFile, Sampler};
use mccp_core::MccpConfig;
use mccp_sdr::qos::DispatchPolicy;
use mccp_sdr::workload::{Workload, WorkloadSpec};
use mccp_sdr::{ClusterConfig, MccpCluster, RunReport, Standard};

const PACKETS: usize = 400;
const PAYLOAD_LEN: usize = 1024;
const MEAN_INTERARRIVAL: f64 = 20_000.0;
const SEED: u64 = 0xBEEF;

/// Samples whole passes of `workload` on a fresh one-shard cycle-accurate
/// cluster: the median seconds per pass and the last pass's report.
fn run_mode(sampler: Sampler, workload: &Workload, fast_forward: bool) -> (f64, RunReport) {
    let mut report = None;
    let stats = sampler.run(|| {
        let mut radio = MccpCluster::cycle_accurate(
            ClusterConfig::default(),
            MccpConfig::default(),
            &workload.spec.standards,
            SEED,
        );
        radio.backend_mut(0).set_fast_forward(fast_forward);
        report = Some(radio.run(workload, DispatchPolicy::Fifo).merged);
    });
    (
        stats.median,
        report.expect("the sampler runs every pass at least once"),
    )
}

fn json_mode(host_seconds: f64, report: &RunReport) -> String {
    format!(
        "{{\"host_seconds\": {host_seconds:.6}, \"modeled_cycles\": {}, \
         \"modeled_cycles_per_second\": {:.0}}}",
        report.cycles,
        report.cycles as f64 / host_seconds
    )
}

fn main() {
    let check = Args::parse(&["--check"]).flag("--check");
    let sampler = Sampler::new(check);
    let spec = WorkloadSpec {
        standards: vec![Standard::Wimax],
        packets: PACKETS,
        seed: SEED,
        fixed_payload_len: Some(PAYLOAD_LEN),
        mean_interarrival_cycles: Some(MEAN_INTERARRIVAL),
    };
    let workload = Workload::generate(spec);
    println!(
        "bench_snapshot: {PACKETS} GCM-128 packets x {PAYLOAD_LEN} B, \
         mean inter-arrival {MEAN_INTERARRIVAL:.0} cyc, 4-core MCCP"
    );

    let (tick_secs, per_tick) = run_mode(sampler, &workload, false);
    let (fast_secs, fast) = run_mode(sampler, &workload, true);

    // The fast path must reproduce the per-tick schedule exactly.
    assert_eq!(
        per_tick.cycles, fast.cycles,
        "fast path changed the schedule length"
    );
    for (a, b) in per_tick.records.iter().zip(fast.records.iter()) {
        assert_eq!(a.latency, b.latency, "packet {} latency", a.packet_idx);
        assert_eq!(
            a.completed_at, b.completed_at,
            "packet {} completion",
            a.packet_idx
        );
        assert_eq!(a.ciphertext, b.ciphertext, "packet {} bytes", a.packet_idx);
        assert_eq!(a.tag, b.tag, "packet {} tag", a.packet_idx);
    }

    let speedup = tick_secs / fast_secs;
    let file = BenchFile("BENCH_sim_speed.json");
    if check {
        for (mode, report) in [("per_tick", &per_tick), ("fast_forward", &fast)] {
            assert_eq!(
                report.cycles,
                file.field::<u64>(&format!("{mode}.modeled_cycles")),
                "{mode}: modeled cycles moved from BENCH_sim_speed.json"
            );
        }
    }
    let json = format!(
        "{{\n  \"benchmark\": \"sim_speed\",\n  \"host_parallelism\": {},\n  \
         \"samples\": {},\n  \
         \"workload\": {{\"standard\": \"Wimax (GCM-128)\", \
         \"packets\": {PACKETS}, \"payload_bytes\": {PAYLOAD_LEN}, \
         \"mean_interarrival_cycles\": {MEAN_INTERARRIVAL:.0}, \"cores\": 4}},\n  \
         \"per_tick\": {},\n  \"fast_forward\": {},\n  \"speedup\": {:.2}\n}}\n",
        mccp_sdr::host_parallelism(),
        sampler.samples,
        json_mode(tick_secs, &per_tick),
        json_mode(fast_secs, &fast),
        speedup
    );
    file.record(&json, !check);
    print!("{json}");
    println!(
        "per-tick {tick_secs:.3}s vs fast-forward {fast_secs:.3}s (medians) over {} modeled \
         cycles -> {speedup:.1}x",
        per_tick.cycles
    );
}
