//! Key-leak scan: every telemetry exporter output — event JSON-lines,
//! Prometheus text, the utilization report, journey JSON-lines, Chrome
//! trace_event, and the VCD waveform — is scanned for key material after
//! a keyed workload with a live rekey. Keys must never appear in any
//! export, in any common encoding (contiguous hex upper/lower, spaced or
//! comma-separated hex byte lists, or decimal byte arrays). The same scan
//! runs over the `{:?}` text of every public type that holds key bytes.

use mccp::core::protocol::{Algorithm, CipherSel, MccpError};
use mccp::core::{
    ChannelBackend, Direction, Mccp, MccpConfig, PipelineGraph, PipelineStage, SessionKey, StageOp,
};
use mccp::sdr::slab::ChannelStats;
use mccp::sdr::{qos_class, LiveChannel, SecureChannel, Standard};
use mccp::sim::CLOCK_HZ;
use mccp::telemetry::trace::{Attempt, AttemptOutcome, PacketJourney};
use mccp::telemetry::{export, trace, vcd_bridge};

/// Distinctive high-entropy keys: 16 bytes that will not appear in an
/// export by coincidence (no repeated-byte patterns, no small integers
/// that could collide with counters).
const KEY_EPOCH0: [u8; 16] = [
    0xD3, 0xAD, 0xC0, 0xDE, 0xFA, 0xCE, 0xB0, 0x0C, 0x8B, 0xAD, 0xF0, 0x0D, 0xDE, 0xFE, 0xC8, 0xED,
];
const KEY_EPOCH1: [u8; 16] = [
    0xCA, 0xFE, 0xD0, 0x0D, 0xBE, 0xEF, 0xFE, 0xED, 0xAB, 0xAD, 0x1D, 0xEA, 0x5E, 0xCF, 0xAC, 0xE5,
];

/// Every textual form a key plausibly leaks in. Contiguous-hex needles
/// cover debug `{:02x}`-loop prints; separator variants cover
/// `{:x?}`/`{:?}` slice formatting ("[d3, ad, ...]" / "[211, 173, ...]").
fn needles(key: &[u8]) -> Vec<String> {
    let lower: Vec<String> = key.iter().map(|b| format!("{b:02x}")).collect();
    let upper: Vec<String> = key.iter().map(|b| format!("{b:02X}")).collect();
    let dec: Vec<String> = key.iter().map(|b| b.to_string()).collect();
    vec![
        lower.concat(),
        upper.concat(),
        lower.join(" "),
        lower.join(", "),
        upper.join(", "),
        dec.join(", "),
        dec.join(","),
    ]
}

fn scan(export_name: &str, text: &str) {
    for key in [&KEY_EPOCH0, &KEY_EPOCH1] {
        for needle in needles(key) {
            assert!(
                !text.to_lowercase().contains(&needle.to_lowercase()),
                "{export_name}: key material leaked as {needle:?}"
            );
        }
    }
}

/// Keyed workload on the cycle engine with telemetry hot: four channels,
/// a live rekey on each, and a full drain. Returns every exporter output.
fn run_keyed_workload() -> Vec<(&'static str, String)> {
    let mut m = Mccp::new(MccpConfig::default());
    m.enable_telemetry(4096);

    let mut channels = Vec::new();
    for _ in 0..4 {
        channels.push(
            m.open_channel(Algorithm::AesGcm128, &KEY_EPOCH0, 16)
                .unwrap(),
        );
    }
    let payload = vec![0x7Eu8; 512];
    let mut journeys: Vec<PacketJourney> = Vec::new();
    for round in 0..3u8 {
        // Rekey every channel between rounds 1 and 2 so both epochs'
        // keys are live in key memory while telemetry records.
        if round == 2 {
            for &ch in &channels {
                assert_eq!(m.rekey_channel(ch, &KEY_EPOCH1).unwrap(), 1);
            }
        }
        for (i, &ch) in channels.iter().enumerate() {
            let iv = [round + 1, i as u8 + 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
            let req = loop {
                match m.submit_packet(ch, Direction::Encrypt, &iv, b"hdr", &payload, None) {
                    Ok(r) => break r,
                    Err(MccpError::NoResource) => {
                        m.step(4096);
                    }
                    Err(e) => panic!("submit: {e}"),
                }
            };
            let start = m.now();
            let c = loop {
                if let Some(c) = m.poll_completion() {
                    break c;
                }
                m.step(4096);
            };
            assert!(c.auth_ok);
            journeys.push(PacketJourney {
                trace_id: journeys.len(),
                channel: i as u8,
                home_shard: 0,
                served_shard: Some(0),
                stolen: false,
                failover: false,
                attempts: vec![Attempt {
                    attempt: 1,
                    shard: 0,
                    request: req.0,
                    submitted_at: start,
                    finished_at: m.now(),
                    outcome: AttemptOutcome::Completed,
                    error: None,
                }],
                outcome: AttemptOutcome::Completed,
            });
        }
    }

    let events = m.telemetry_mut().take_events();
    let snapshot = m.telemetry_snapshot();
    let vcd = vcd_bridge::spans_to_vcd(
        "mccp_telemetry",
        CLOCK_HZ,
        m.telemetry().spans().spans(),
        channels.len(),
    );
    vec![
        ("json_lines", export::json_lines(&events)),
        ("prometheus", export::prometheus_text(&snapshot)),
        ("utilization", export::utilization_report(&snapshot)),
        ("journeys_json_lines", trace::journeys_json_lines(&journeys)),
        ("chrome_trace", trace::chrome_trace(&journeys)),
        ("vcd", vcd.render()),
    ]
}

#[test]
fn no_exporter_output_contains_key_bytes() {
    let exports = run_keyed_workload();
    assert_eq!(exports.len(), 6, "all six exporters scanned");
    for (name, text) in &exports {
        assert!(!text.is_empty(), "{name}: exporter produced no output");
        scan(name, text);
    }
}

/// A `SessionKey` holding `KEY_EPOCH0`. It has no `Clone`, so every
/// holder below gets its own.
fn epoch0_key() -> SessionKey {
    SessionKey::new(&KEY_EPOCH0).unwrap()
}

#[test]
fn debug_formatting_of_key_holders_prints_no_key_bytes() {
    let live = LiveChannel {
        standard: Standard::Wifi,
        chan: SecureChannel::new(Standard::Wifi, 7),
        key: epoch0_key(),
        class: qos_class(Standard::Wifi),
        epoch: 0,
        established: true,
        in_flight: 0,
        queued: 0,
        draining: false,
        stats: ChannelStats::default(),
    };
    let ctr_stage = || PipelineStage {
        op: StageOp::Ctr,
        cipher: CipherSel::Aes,
        key: epoch0_key(),
    };
    let stage = ctr_stage();
    let chain = PipelineGraph::new(vec![ctr_stage()], 16);
    scan("SessionKey", &format!("{:?}", epoch0_key()));
    scan("LiveChannel", &format!("{live:?}"));
    scan("PipelineStage", &format!("{stage:?}"));
    scan("PipelineGraph", &format!("{chain:?}"));
}

#[test]
fn the_scanner_itself_catches_a_planted_leak() {
    // Negative control: if a key ever *did* reach an export, the scan
    // must fire. Plant each needle form and confirm detection.
    for needle in needles(&KEY_EPOCH0) {
        let planted = format!("{{\"debug\":\"{needle}\"}}");
        let caught = std::panic::catch_unwind(|| scan("planted", &planted)).is_err();
        assert!(caught, "scanner missed planted leak {needle:?}");
    }
}
