//! Benchmark W-1: wall-clock throughput of the functional engine against
//! host parallelism — functional shards of an `MccpCluster`, fanned out
//! over scoped threads by `run` — the multi-core claim on real silicon
//! rather than the modeled 190 MHz clock.
//!
//! ```sh
//! cargo bench -p mccp-bench --bench functional_throughput
//! ```

use mccp_bench::{Args, Sampler};
use mccp_sdr::qos::DispatchPolicy;
use mccp_sdr::workload::{Workload, WorkloadSpec};
use mccp_sdr::{ClusterConfig, MccpCluster, Standard, SERIAL_FALLBACK_BYTES};

/// Samples whole `run` calls of `packets` fixed-size packets spread
/// round-robin over `standards` on a functional cluster of `shards`.
fn bench_run(name: &str, standards: &[Standard], shards: usize, packets: usize, payload: usize) {
    let work = Workload::generate(WorkloadSpec {
        standards: standards.to_vec(),
        packets,
        seed: 7,
        fixed_payload_len: Some(payload),
        mean_interarrival_cycles: None,
    });
    let config = ClusterConfig {
        shards,
        ..ClusterConfig::default()
    };
    let mut cluster = MccpCluster::functional(config, standards, 7);
    Sampler::RECORD.bench(name, (packets * payload) as u64, || {
        let report = cluster.run(&work, DispatchPolicy::Fifo);
        assert_eq!(report.merged.packets, packets);
    });
}

// 256 x 2 KiB = 512 KiB per batch: past `SERIAL_FALLBACK_BYTES`, so the
// shards fan out.
const _: () = assert!(256 * 2048 >= SERIAL_FALLBACK_BYTES);

fn main() {
    Args::parse(&["--bench"]);
    // Eight GCM-128 channels, so channel affinity alone spreads the
    // packets over up to eight shards.
    for shards in [1usize, 2, 4, 8] {
        let name = format!("functional-gcm-2kb/shards/{shards}");
        bench_run(&name, &[Standard::Wimax; 8], shards, 256, 2048);
    }
    // GCM-128, CCM-128 and CTR-128 in turn.
    let mix = [Standard::Wimax, Standard::Wifi, Standard::Umts];
    bench_run(
        "functional-multi-standard/gcm+ccm+ctr-mix",
        &mix,
        4,
        48,
        1024,
    );
}
