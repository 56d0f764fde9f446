//! Derived figure X-3 — throughput vs core count.
//!
//! §III.A: "MCCP architecture is scalable; the number of embedded
//! crypto-core may vary." A saturated multi-channel GCM-128 load over
//! 1..8 cores; the loosely coupled cores should scale near-linearly until
//! the workload itself runs out.

use mccp_core::MccpConfig;
use mccp_sdr::qos::DispatchPolicy;
use mccp_sdr::workload::{Workload, WorkloadSpec};
use mccp_sdr::{ClusterConfig, MccpCluster, Standard};

fn main() {
    mccp_bench::Args::parse(&[]);
    println!("Aggregate throughput vs core count (saturated WiMax/GCM load)\n");
    println!(
        "{:>6} {:>14} {:>12} {:>16}",
        "cores", "Mbps @190MHz", "speedup", "mean latency"
    );

    let spec = WorkloadSpec {
        standards: vec![Standard::Wimax],
        packets: 32,
        seed: 2024,
        fixed_payload_len: Some(1984),
        mean_interarrival_cycles: None,
    };
    let workload = Workload::generate(spec.clone());

    let mut base = 0.0f64;
    let mut prev = 0.0f64;
    for n in 1..=8usize {
        let mut radio = MccpCluster::cycle_accurate(
            ClusterConfig::default(),
            MccpConfig {
                n_cores: n,
                ..MccpConfig::default()
            },
            &spec.standards,
            7,
        );
        let run = radio.run(&workload, DispatchPolicy::Fifo);
        radio.verify(&workload, &run).expect("outputs verified");
        let report = run.merged;
        let mbps = report.throughput_mbps();
        if n == 1 {
            base = mbps;
        }
        println!(
            "{:>6} {:>14.0} {:>11.2}x {:>12.0} cyc",
            n,
            mbps,
            mbps / base,
            report.mean_latency()
        );
        assert!(mbps + 1.0 >= prev, "adding cores must not hurt throughput");
        prev = mbps;
    }

    println!("\nShape: near-linear scaling while the stream saturates the cores;");
    println!("the paper's 4-core design point quadruples the mono-core throughput.");
}
