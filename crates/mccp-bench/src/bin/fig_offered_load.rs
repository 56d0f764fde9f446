//! Derived figure X-7 — latency vs offered load (the queueing view).
//!
//! The paper's dispatch processes packets "in their order of arrival as
//! fast as possible" and §III.C flags latency as the open issue. With
//! Poisson arrivals this sweep shows the classic saturation behaviour:
//! sojourn time (arrival → Data Available) stays near pure service time
//! while the 4 cores keep up, then grows without bound past the knee.

use mccp_core::MccpConfig;
use mccp_sdr::qos::DispatchPolicy;
use mccp_sdr::workload::{Workload, WorkloadSpec};
use mccp_sdr::{ClusterConfig, MccpCluster, Standard};

fn main() {
    mccp_bench::Args::parse(&[]);
    println!("Sojourn time vs offered load (WiMax/GCM, 1 KB packets, 4 cores)\n");
    println!(
        "{:>14} {:>10} {:>14} {:>14} {:>14}",
        "interarrival", "load", "tput Mbps", "mean sojourn", "p95 sojourn"
    );

    // Service time of a 1 KB GCM packet ≈ 64*49 + overhead ≈ 3.5k cycles;
    // 4 cores => saturation when interarrival ≈ 3500/4 ≈ 875 cycles.
    const PACKETS: usize = 96;
    for mean_gap in [4000.0f64, 2000.0, 1200.0, 900.0, 700.0, 500.0, 300.0] {
        let spec = WorkloadSpec {
            standards: vec![Standard::Wimax],
            packets: PACKETS,
            seed: 99,
            fixed_payload_len: Some(1024),
            mean_interarrival_cycles: Some(mean_gap),
        };
        let workload = Workload::generate(spec.clone());
        let mut radio = MccpCluster::cycle_accurate(
            ClusterConfig::default(),
            MccpConfig::default(),
            &spec.standards,
            3,
        );
        let run = radio.run(&workload, DispatchPolicy::Fifo);
        radio.verify(&workload, &run).expect("verified");
        let report = run.merged;

        let mut sojourns: Vec<u64> = report
            .records
            .iter()
            .map(|r| r.completed_at - workload.packets[r.packet_idx].arrival_cycle)
            .collect();
        sojourns.sort_unstable();
        let mean = sojourns.iter().sum::<u64>() as f64 / sojourns.len() as f64;
        let p95 = sojourns[(sojourns.len() - 1) * 95 / 100];
        // Offered load relative to 4-core service capacity.
        let service = 3500.0;
        let load = service / (4.0 * mean_gap);
        println!(
            "{:>11.0}cyc {:>9.2} {:>14.0} {:>11.0}cyc {:>11.0}cyc",
            mean_gap,
            load,
            report.throughput_mbps(),
            mean,
            p95
        );
    }
    println!("\nBelow the knee, sojourn ≈ the ~3.5k-cycle service time; past it the");
    println!("queue builds and p95 explodes — the latency problem the paper defers");
    println!("to future work (and the QoS dispatch in mccp-sdr partially addresses).");
}
