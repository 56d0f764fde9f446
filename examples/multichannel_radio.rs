//! The paper's motivating scenario: a secure multi-standard,
//! multi-channel software-defined radio. Three simultaneous channels —
//! WiFi-like CCM, WiMax-like GCM and UMTS-like CTR — stream packets
//! through the four loosely coupled cores, with and without the QoS
//! dispatch policy, and every output is verified against the NIST
//! reference implementations.
//!
//! ```sh
//! cargo run --release --example multichannel_radio
//! ```

use mccp::core::MccpConfig;
use mccp::sdr::qos::{latency_by_class, DispatchPolicy};
use mccp::sdr::workload::{Workload, WorkloadSpec};
use mccp::sdr::{ClusterConfig, MccpCluster, Standard};

fn main() {
    let spec = WorkloadSpec {
        standards: vec![Standard::Wifi, Standard::Wimax, Standard::Umts],
        packets: 30,
        seed: 0xD1A1,
        fixed_payload_len: None, // sample per-standard packet sizes,
        mean_interarrival_cycles: None,
    };
    let workload = Workload::generate(spec.clone());
    println!(
        "workload: {} packets, {} payload bytes across {} standards",
        workload.packets.len(),
        workload.payload_bytes(),
        spec.standards.len()
    );

    for policy in [DispatchPolicy::Fifo, DispatchPolicy::Priority] {
        let mut radio = MccpCluster::cycle_accurate(
            ClusterConfig::default(),
            MccpConfig::default(),
            &spec.standards,
            99,
        );
        let run = radio.run(&workload, policy);
        let verified = radio
            .verify(&workload, &run)
            .expect("all ciphertexts match the NIST reference");
        let report = run.merged;
        println!("\n--- dispatch policy: {policy:?} ---");
        println!(
            "  {} packets verified; aggregate {:.0} Mbps at 190 MHz; {} cycles total",
            verified,
            report.throughput_mbps(),
            report.cycles
        );
        println!(
            "  latency: mean {:.0} / p50 {} / max {} cycles",
            report.mean_latency(),
            report.latency_percentile(0.5),
            report.max_latency()
        );
        for class in latency_by_class(&workload.packets, &report.records) {
            println!(
                "  priority {}: {} packets, mean latency {:.0} cycles",
                class.class, class.packets, class.mean_cycles
            );
        }
    }

    println!("\nBoth runs produce bit-identical ciphertexts; QoS reorders only");
    println!("*when* packets are offered to the first idle core (paper §VIII).");
}
