//! End-to-end telemetry demonstration: a saturated 4-core multi-channel
//! GCM-128 workload with every export format the telemetry subsystem
//! offers — the typed event log as JSON-lines, the metrics registry as
//! Prometheus text, the human-readable utilization report, and the
//! request spans as a VCD waveform — plus a determinism self-check (the
//! whole run is executed twice and every export byte-compared).
//!
//! ```sh
//! cargo run --release -p mccp-bench --bin telemetry_report [-- --vcd]
//! ```

use mccp_bench::Args;
use mccp_core::protocol::{Algorithm, KeyId};
use mccp_core::{Direction, Mccp, MccpConfig, RequestId};
use mccp_sim::CLOCK_HZ;
use mccp_telemetry::{export, vcd_bridge};

const CHANNELS: usize = 4;
const PACKETS_PER_CHANNEL: usize = 6;
const PAYLOAD_LEN: usize = 1024;

struct Exports {
    json_lines: String,
    prometheus: String,
    utilization: String,
    vcd: String,
}

/// Runs the saturated workload on a fresh MCCP and renders every export.
fn run_workload() -> Exports {
    let mut mccp = Mccp::new(MccpConfig::default());
    mccp.enable_telemetry(4096);

    // One GCM-128 channel per key; all four contend for the four cores.
    let mut channels = Vec::new();
    for i in 0..CHANNELS {
        let kid = KeyId(i as u8 + 1);
        mccp.key_memory_mut().store(kid, &[0x40 + i as u8; 16]);
        channels.push(mccp.open(Algorithm::AesGcm128, kid).expect("open"));
    }

    // Saturate: keep a packet queued per channel; submit whenever a core
    // frees up, round-robin across channels.
    let payload: Vec<u8> = (0..PAYLOAD_LEN).map(|i| i as u8).collect();
    let mut submitted = [0usize; CHANNELS];
    let mut in_flight: Vec<RequestId> = Vec::new();
    let mut done = 0usize;
    let total = CHANNELS * PACKETS_PER_CHANNEL;
    let mut guard = 0u64;
    while done < total {
        for (i, &ch) in channels.iter().enumerate() {
            if submitted[i] >= PACKETS_PER_CHANNEL {
                continue;
            }
            let iv = [
                submitted[i] as u8 + 1,
                i as u8 + 1,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
            ];
            match mccp.submit(ch, Direction::Encrypt, &iv, b"hdr", &payload, None) {
                Ok(id) => {
                    submitted[i] += 1;
                    in_flight.push(id);
                }
                Err(mccp_core::protocol::MccpError::NoResource) => {}
                Err(e) => panic!("submit failed: {e}"),
            }
        }
        // Leap over quiescent spans (engine countdowns, waits): cores only
        // free on active ticks, so the poll below sees every completion at
        // the same cycle a per-tick loop would.
        let span = if mccp.fast_forward() {
            mccp.quiescent_horizon().min(10_000_000 - guard)
        } else {
            0
        };
        if span == 0 {
            mccp.tick();
            guard += 1;
        } else {
            mccp.skip(span);
            guard += span;
        }
        assert!(guard < 10_000_000, "workload wedged");
        while let Some(id) = mccp.poll_data_available() {
            mccp.retrieve(id).expect("encrypt never auth-fails");
            mccp.transfer_done(id).expect("release");
            in_flight.retain(|&r| r != id);
            done += 1;
        }
    }

    let events = mccp.telemetry_mut().take_events();
    let snapshot = mccp.telemetry_snapshot();
    let vcd = vcd_bridge::spans_to_vcd(
        "mccp_telemetry",
        CLOCK_HZ,
        mccp.telemetry().spans().spans(),
        CHANNELS,
    );
    Exports {
        json_lines: export::json_lines(&events),
        prometheus: export::prometheus_text(&snapshot),
        utilization: export::utilization_report(&snapshot),
        vcd: vcd.render(),
    }
}

fn main() {
    let vcd = Args::parse(&["--vcd"]).flag("--vcd");
    println!(
        "telemetry report: {CHANNELS} GCM-128 channels x {PACKETS_PER_CHANNEL} packets \
         x {PAYLOAD_LEN} B on a saturated 4-core MCCP\n"
    );
    let first = run_workload();

    println!(
        "== events (JSON-lines, first 10 of {}) ==",
        first.json_lines.lines().count()
    );
    for line in first.json_lines.lines().take(10) {
        println!("{line}");
    }

    println!("\n== metrics (Prometheus text) ==");
    print!("{}", first.prometheus);

    println!("\n== utilization ==");
    print!("{}", first.utilization);

    println!(
        "\n== waveform ==\nVCD: {} bytes, {} value-change lines (pipe to a viewer via --vcd)",
        first.vcd.len(),
        first.vcd.lines().filter(|l| l.starts_with('#')).count()
    );
    if vcd {
        print!("{}", first.vcd);
    }

    // Determinism: the cycle-accurate simulator plus the BTreeMap-backed
    // registry must reproduce every export byte-for-byte.
    let second = run_workload();
    assert_eq!(first.json_lines, second.json_lines, "event log diverged");
    assert_eq!(first.prometheus, second.prometheus, "metrics diverged");
    assert_eq!(first.utilization, second.utilization, "report diverged");
    assert_eq!(first.vcd, second.vcd, "waveform diverged");
    println!("\ndeterminism check: all four exports byte-identical across two runs");
}
