//! Criterion benchmark W-1: wall-clock throughput of the functional
//! engine against host parallelism — functional shards of an
//! `MccpCluster`, fanned out over scoped threads by `run` — the
//! multi-core claim on real silicon rather than the modeled 190 MHz
//! clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mccp_sdr::qos::DispatchPolicy;
use mccp_sdr::workload::{Workload, WorkloadSpec};
use mccp_sdr::{ClusterConfig, MccpCluster, Standard, SERIAL_FALLBACK_BYTES};

/// `packets` fixed-size packets spread round-robin over `standards`.
fn workload(standards: Vec<Standard>, packets: usize, payload: usize) -> Workload {
    Workload::generate(WorkloadSpec {
        standards,
        packets,
        seed: 7,
        fixed_payload_len: Some(payload),
        mean_interarrival_cycles: None,
    })
}

fn bench_shard_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("functional-gcm-2kb");
    // 512 KiB per batch: past `SERIAL_FALLBACK_BYTES`, so the shards fan out.
    const PACKETS: usize = 256;
    const PAYLOAD: usize = 2048;
    g.throughput(Throughput::Bytes((PACKETS * PAYLOAD) as u64));
    g.sample_size(10);
    // Eight GCM-128 channels, so channel affinity alone spreads the
    // packets over up to eight shards.
    let standards = vec![Standard::Wimax; 8];
    let work = workload(standards.clone(), PACKETS, PAYLOAD);
    assert!((PACKETS * PAYLOAD) as u64 >= SERIAL_FALLBACK_BYTES);
    for shards in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &n| {
            let config = ClusterConfig {
                shards: n,
                ..ClusterConfig::default()
            };
            let mut cluster = MccpCluster::functional(config, &standards, 7);
            b.iter(|| {
                let report = cluster.run(&work, DispatchPolicy::Fifo);
                assert_eq!(report.merged.packets, PACKETS);
            });
        });
    }
    g.finish();
}

fn bench_mixed_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("functional-multi-standard");
    const PACKETS: usize = 48;
    const PAYLOAD: usize = 1024;
    g.throughput(Throughput::Bytes((PACKETS * PAYLOAD) as u64));
    g.sample_size(10);
    // GCM-128, CCM-128 and CTR-128 in turn.
    let standards = vec![Standard::Wimax, Standard::Wifi, Standard::Umts];
    let work = workload(standards.clone(), PACKETS, PAYLOAD);
    let config = ClusterConfig {
        shards: 4,
        ..ClusterConfig::default()
    };
    let mut cluster = MccpCluster::functional(config, &standards, 7);
    g.bench_function("gcm+ccm+ctr-mix", |b| {
        b.iter(|| {
            let report = cluster.run(&work, DispatchPolicy::Fifo);
            assert_eq!(report.merged.packets, PACKETS);
        });
    });
    g.finish();
}

criterion_group!(benches, bench_shard_scaling, bench_mixed_modes);
criterion_main!(benches);
