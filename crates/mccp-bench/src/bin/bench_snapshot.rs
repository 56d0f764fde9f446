//! Simulator-speed snapshot: runs a fixed 4-core GCM-128 soak workload
//! twice — once per-tick, once with the event-driven fast path — checks
//! the two schedules are cycle-identical, and emits the wall-clock
//! comparison as `BENCH_sim_speed.json` (hand-formatted; no serde).
//!
//! `--check` (the CI perf smoke) runs the same two passes and identity
//! assertions, then also checks both passes' `modeled_cycles` against the
//! checked-in `BENCH_sim_speed.json`, and does not rewrite it.
//!
//! ```sh
//! cargo run --release -p mccp-bench --bin bench_snapshot
//! cargo run --release -p mccp-bench --bin bench_snapshot -- --check
//! ```

use mccp_core::MccpConfig;
use mccp_sdr::qos::DispatchPolicy;
use mccp_sdr::workload::{Workload, WorkloadSpec};
use mccp_sdr::{ClusterConfig, MccpCluster, RunReport, Standard};
use std::time::Instant;

const PACKETS: usize = 400;
const PAYLOAD_LEN: usize = 1024;
const MEAN_INTERARRIVAL: f64 = 20_000.0;
const SEED: u64 = 0xBEEF;

struct Sample {
    host_seconds: f64,
    modeled_cycles: u64,
}

impl Sample {
    fn cycles_per_second(&self) -> f64 {
        self.modeled_cycles as f64 / self.host_seconds.max(1e-12)
    }
}

fn run_mode(workload: &Workload, fast_forward: bool) -> (Sample, RunReport) {
    let mut radio = MccpCluster::cycle_accurate(
        ClusterConfig::default(),
        MccpConfig::default(),
        &workload.spec.standards,
        SEED,
    );
    radio.backend_mut(0).set_fast_forward(fast_forward);
    let t0 = Instant::now();
    let report = radio.run(workload, DispatchPolicy::Fifo).merged;
    let host_seconds = t0.elapsed().as_secs_f64();
    (
        Sample {
            host_seconds,
            modeled_cycles: report.cycles,
        },
        report,
    )
}

fn json_mode(s: &Sample) -> String {
    format!(
        "{{\"host_seconds\": {:.6}, \"modeled_cycles\": {}, \"modeled_cycles_per_second\": {:.0}}}",
        s.host_seconds,
        s.modeled_cycles,
        s.cycles_per_second()
    )
}

/// `modeled_cycles` of one mode's object in the checked-in record.
fn recorded_cycles(record: &str, mode: &str) -> u64 {
    record
        .split(&format!("\"{mode}\":"))
        .nth(1)
        .and_then(|tail| tail.split("\"modeled_cycles\":").nth(1))
        .and_then(|tail| tail.trim_start().split([',', '}']).next())
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("BENCH_sim_speed.json: no {mode}.modeled_cycles"))
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
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

    let (per_tick, tick_report) = run_mode(&workload, false);
    let (fast, fast_report) = run_mode(&workload, true);

    // The fast path must reproduce the per-tick schedule exactly.
    assert_eq!(
        per_tick.modeled_cycles, fast.modeled_cycles,
        "fast path changed the schedule length"
    );
    for (a, b) in tick_report.records.iter().zip(fast_report.records.iter()) {
        assert_eq!(a.latency, b.latency, "packet {} latency", a.packet_idx);
        assert_eq!(
            a.completed_at, b.completed_at,
            "packet {} completion",
            a.packet_idx
        );
        assert_eq!(a.ciphertext, b.ciphertext, "packet {} bytes", a.packet_idx);
        assert_eq!(a.tag, b.tag, "packet {} tag", a.packet_idx);
    }

    let speedup = fast.cycles_per_second() / per_tick.cycles_per_second();
    if check {
        let record = std::fs::read_to_string("BENCH_sim_speed.json")
            .expect("BENCH_sim_speed.json must be checked in for --check");
        for (mode, sample) in [("per_tick", &per_tick), ("fast_forward", &fast)] {
            assert_eq!(
                sample.modeled_cycles,
                recorded_cycles(&record, mode),
                "{mode}: modeled cycles moved from BENCH_sim_speed.json"
            );
        }
        println!(
            "--check: per-tick {:.3}s, fast-forward {:.3}s over {} modeled cycles \
             (as recorded); not rewriting BENCH_sim_speed.json",
            per_tick.host_seconds, fast.host_seconds, per_tick.modeled_cycles
        );
        return;
    }
    let json = format!(
        "{{\n  \"benchmark\": \"sim_speed\",\n  \"host_parallelism\": {},\n  \
         \"workload\": {{\"standard\": \"Wimax (GCM-128)\", \
         \"packets\": {PACKETS}, \"payload_bytes\": {PAYLOAD_LEN}, \
         \"mean_interarrival_cycles\": {MEAN_INTERARRIVAL:.0}, \"cores\": 4}},\n  \
         \"per_tick\": {},\n  \"fast_forward\": {},\n  \"speedup\": {:.2}\n}}\n",
        mccp_sdr::host_parallelism(),
        json_mode(&per_tick),
        json_mode(&fast),
        speedup
    );
    std::fs::write("BENCH_sim_speed.json", &json).expect("write BENCH_sim_speed.json");
    print!("{json}");
    println!(
        "per-tick {:.3}s vs fast-forward {:.3}s over {} modeled cycles -> {speedup:.1}x",
        per_tick.host_seconds, fast.host_seconds, per_tick.modeled_cycles
    );
}
