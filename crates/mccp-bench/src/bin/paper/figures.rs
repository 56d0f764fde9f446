//! The derived figures: each plots a claim the paper states in prose.

use crate::rig::{measure_schedule, warm_packet_cycles};
use mccp_aes::KeySize;
use mccp_core::model::{packet_mbps, stream_mbps, Schedule};
use mccp_core::protocol::{Algorithm, CipherSel};
use mccp_core::{Mccp, MccpConfig};
use mccp_sdr::qos::DispatchPolicy;
use mccp_sdr::workload::{Workload, WorkloadSpec};
use mccp_sdr::{ClusterConfig, MccpCluster, Standard};
use mccp_sim::throughput_mbps;

/// Derived figure X-1 — throughput vs packet size.
///
/// §VII.A: "actual throughput depends on packet size, higher throughputs
/// are obtained from larger packets." Sweeps 64 B – 8 KB for single-core
/// GCM-128 and CCM-128 (packets beyond the 2 KB FIFO run in the
/// documented streaming mode) and prints the measured curve next to the
/// analytical model with the paper's implied 851-cycle overhead.
pub fn fig_packet_sweep() {
    println!("Throughput vs packet size (single core, AES-128, Mbps @ 190 MHz)\n");
    println!(
        "{:>9} {:>14} {:>14} {:>14} {:>14}",
        "bytes", "GCM measured", "GCM model", "CCM measured", "CCM model"
    );
    let sizes = [64usize, 128, 256, 512, 1024, 2048, 4096, 8192];
    let mut prev_gcm = 0.0f64;
    for &size in &sizes {
        let gcm = measure_schedule(Schedule::Gcm1Core, KeySize::Aes128, size);
        let ccm = measure_schedule(Schedule::Ccm1Core, KeySize::Aes128, size);
        let gcm_model = packet_mbps(Schedule::Gcm1Core, KeySize::Aes128, size, 851);
        let ccm_model = packet_mbps(Schedule::Ccm1Core, KeySize::Aes128, size, 1234);
        println!(
            "{:>9} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
            size, gcm.mbps, gcm_model, ccm.mbps, ccm_model
        );
        assert!(
            gcm.mbps >= prev_gcm,
            "throughput must be monotone in packet size"
        );
        prev_gcm = gcm.mbps;
    }
    let bound = stream_mbps(Schedule::Gcm1Core, KeySize::Aes128);
    println!(
        "\nGCM asymptote (loop bound): {bound:.1} Mbps; 8 KB packets reach {:.0}% of it.",
        prev_gcm / bound * 100.0
    );
    assert!(prev_gcm < bound, "measured must stay below the loop bound");
    assert!(
        prev_gcm > 0.95 * bound,
        "large packets must approach the bound"
    );
}

/// Derived figure X-2 — the CCM scheduling trade-off.
///
/// §VII.A: "AES-CCM 4x1 cores provides better throughput than AES-CCM 2x2
/// cores ... However, latency of the first solution is almost two times
/// greater than latency of the second solution." Four 2 KB CCM-128
/// packets, both schedules, measured on the cycle-accurate simulator.
pub fn fig_latency_tradeoff() {
    println!("CCM scheduling trade-off (four 2 KB CCM-128 packets, 4 cores)\n");
    println!(
        "{:>14} {:>18} {:>22}",
        "schedule", "aggregate Mbps", "per-packet latency"
    );
    let c4 = measure_schedule(Schedule::Ccm4x1, KeySize::Aes128, 2048);
    let c22 = measure_schedule(Schedule::Ccm2x2, KeySize::Aes128, 2048);
    println!(
        "{:>14} {:>18.0} {:>18} cyc",
        "4x1", c4.mbps, c4.latency_cycles
    );
    println!(
        "{:>14} {:>18.0} {:>18} cyc",
        "2x2", c22.mbps, c22.latency_cycles
    );

    let tput_gain = c4.mbps / c22.mbps;
    let latency_ratio = c4.latency_cycles as f64 / c22.latency_cycles as f64;
    println!("\n4x1 / 2x2 throughput ratio: {tput_gain:.2}x (paper: 932/884 = 1.05x)");
    println!("4x1 / 2x2 latency ratio:    {latency_ratio:.2}x (paper: \"almost two times\")");

    assert!(c4.mbps > c22.mbps, "4x1 must win on throughput");
    assert!(
        latency_ratio > 1.5 && latency_ratio < 2.2,
        "latency ratio must be near 104/55 = 1.9, got {latency_ratio:.2}"
    );
    println!("\nBoth §VII.A claims REPRODUCE: pick 4x1 for throughput, 2x2 for latency.");
}

/// Derived figure X-3 — throughput vs core count.
///
/// §III.A: "MCCP architecture is scalable; the number of embedded
/// crypto-core may vary." A saturated multi-channel GCM-128 load over
/// 1..8 cores; the loosely coupled cores should scale near-linearly until
/// the workload itself runs out.
pub fn fig_core_scaling() {
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

/// Derived figure X-4 — throughput vs authenticated-only fraction.
///
/// The ENCRYPT instruction carries separate *Header Size* (authenticated
/// only) and *Data Size* operands (§III.B). AAD blocks cost one GHASH
/// iteration but no AES pass, so a GCM packet's cycle cost depends on the
/// header/payload split. This sweep holds the total at 2 KB and varies
/// the authenticated-only share.
pub fn fig_aad_fraction() {
    println!("GCM-128 throughput vs authenticated-only (header) fraction");
    println!("(2 KB total per packet, single core, Mbps at 190 MHz)\n");
    println!(
        "{:>10} {:>10} {:>10} {:>14} {:>14}",
        "aad B", "payload B", "cycles", "wire Mbps", "payload Mbps"
    );
    const TOTAL: usize = 2048;
    let mut prev_cycles = u64::MAX;
    for aad_share in [0usize, 12, 25, 50, 75, 100] {
        let aad = TOTAL * aad_share / 100;
        let payload = TOTAL - aad;
        let m = Mccp::new(MccpConfig::default());
        let cycles = warm_packet_cycles(m, Algorithm::AesGcm128, CipherSel::Aes, aad, payload);
        let wire_mbps = throughput_mbps((TOTAL * 8) as u64, cycles);
        let payload_mbps = throughput_mbps((payload * 8) as u64, cycles);
        println!(
            "{:>10} {:>10} {:>10} {:>14.1} {:>14.1}",
            aad, payload, cycles, wire_mbps, payload_mbps
        );
        assert!(
            cycles <= prev_cycles,
            "more AAD (43-cycle GHASH) must not cost more than payload (49-cycle AES+GHASH)"
        );
        prev_cycles = cycles;
    }
    println!("\nAAD-only blocks ride the 43-cycle GHASH engine and skip the AES");
    println!("pass, so header-heavy packets finish sooner: the wire-rate ceiling");
    println!("rises toward 128 bits / ~49 cycles as the header share grows, while");
    println!("useful-payload throughput falls — the paper's Header/Data split in");
    println!("the ENCRYPT operands is what lets the scheduler account for this.");
}

/// Derived figure X-7 — latency vs offered load (the queueing view).
///
/// The paper's dispatch processes packets "in their order of arrival as
/// fast as possible" and §III.C flags latency as the open issue. With
/// Poisson arrivals this sweep shows the classic saturation behaviour:
/// sojourn time (arrival → Data Available) stays near pure service time
/// while the 4 cores keep up, then grows without bound past the knee.
pub fn fig_offered_load() {
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
