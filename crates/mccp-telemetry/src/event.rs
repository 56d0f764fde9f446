//! The typed, cycle-stamped event taxonomy of the MCCP pipeline.
//!
//! Every observable state transition of the simulated hardware has one
//! variant here: request lifecycle (submitted → dispatched → started →
//! completed → retrieved), FIFO activity, Key Cache hits and misses,
//! Cryptographic Unit operations, partial reconfiguration, and the
//! auth-failure wipe defense. Fields are plain integers and strings so the
//! crate stays independent of `mccp-core`'s types; the producers convert.
//!
//! Emission policy for high-rate sources: the DMA engine moves one 32-bit
//! word per core per cycle, so word-granular events would dwarf everything
//! else in the log. Producers therefore aggregate — [`Event::FifoPush`]
//! marks the *completion of a stream upload* into a core's input FIFO and
//! [`Event::FifoPop`] the drain at RETRIEVE_DATA, each carrying the
//! occupancy level observed at that point. Word counts live in the metrics
//! registry instead (`mccp_dma_words_total`).
//!
//! The [`std::fmt::Display`] impl reproduces, byte for byte, the legacy
//! string messages the removed `Mccp::enable_trace` API recorded, so
//! logs and assertions written against those lines keep working when
//! rendered from typed events.

use std::fmt;

/// Which side of a core's FIFO pair an event refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FifoPort {
    Input,
    Output,
}

impl FifoPort {
    /// Lower-case name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            FifoPort::Input => "input",
            FifoPort::Output => "output",
        }
    }
}

/// One typed MCCP event. See the module docs for the emission policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// ENCRYPT/DECRYPT accepted: cores allocated, key handling resolved.
    RequestSubmitted {
        request: u16,
        channel: u8,
        /// `Algorithm`'s display name, e.g. `AES-128-GCM`.
        algorithm: &'static str,
        /// `Encrypt` or `Decrypt`.
        direction: &'static str,
        cores: Vec<usize>,
    },
    /// The crossbar routed the data port to a core for the upload phase.
    RequestDispatched { request: u16, core: usize },
    /// A core's key wait elapsed and its firmware began executing.
    CoreStarted {
        request: u16,
        core: usize,
        /// `FirmwareId`'s debug name, e.g. `GcmEnc`.
        firmware: &'static str,
    },
    /// All cores reported and the output is resident (Data Available).
    RequestCompleted {
        request: u16,
        auth_ok: bool,
        /// Submission → Data Available, in cycles.
        cycles: u64,
    },
    /// RETRIEVE_DATA drained the producing core's output FIFO.
    RequestRetrieved { request: u16, core: usize },
    /// A stream upload into a core's FIFO completed (`level` = occupancy
    /// in 32-bit words after the final push).
    FifoPush {
        core: usize,
        port: FifoPort,
        level: usize,
    },
    /// A FIFO drain completed (`level` = occupancy after the pop).
    FifoPop {
        core: usize,
        port: FifoPort,
        level: usize,
    },
    /// A push was refused: the FIFO is exerting backpressure.
    FifoFull { core: usize, port: FifoPort },
    /// The core's Key Cache already held the channel's expanded key.
    KeyCacheHit { core: usize, key: u8 },
    /// Expansion charged to the Key Scheduler (`expansion_cycles` latency).
    KeyCacheMiss {
        core: usize,
        key: u8,
        expansion_cycles: u32,
    },
    /// A Cryptographic Unit instruction was accepted by the decoder
    /// (`op` is the ISA mnemonic, see `mccp_cryptounit::isa::MNEMONICS`).
    CuOpStarted { core: usize, op: &'static str },
    /// A Cryptographic Unit instruction retired.
    CuOpFinished { core: usize, op: &'static str },
    /// A partial bitstream started streaming into a core's CU region.
    ReconfigBegin {
        core: usize,
        personality: &'static str,
    },
    /// Reconfiguration completed; the new personality is active.
    ReconfigEnd {
        core: usize,
        personality: &'static str,
        cycles: u64,
    },
    /// The auth-failure defense wiped the request's output FIFOs.
    /// `channel`/`sequence` locate the offending packet in the stream so
    /// an operator can tell *which* traffic failed authentication.
    AuthFailWipe {
        request: u16,
        channel: u8,
        /// 1-based packet ordinal within the channel.
        sequence: u64,
    },
    /// The fault-injection plane fired a scheduled fault (`fault` is the
    /// schedule entry's label, e.g. `wedge_core`).
    FaultInjected { fault: String, core: usize },
    /// The engine attributed a request failure to a detected fault.
    FaultDetected {
        request: u16,
        core: usize,
        error: String,
    },
    /// The watchdog fenced a core off from dispatch.
    CoreQuarantined { core: usize },
    /// A quarantined core was hard-reset and returned to the idle pool.
    CoreReset { core: usize },
    /// A request terminated without producing output (fault path).
    RequestFailed {
        request: u16,
        error: String,
        cycles: u64,
    },
}

/// Defines [`Event::kind`] and [`Event::kind_series`] from one table of
/// variant → snake_case name, so the two can never drift apart.
macro_rules! event_kinds {
    ($($variant:ident => $name:literal,)*) => {
        impl Event {
            /// Stable snake_case discriminant used by the JSON-lines
            /// exporter and the per-kind event counters.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $name,)*
                }
            }

            /// The per-kind event counter's series name,
            /// `mccp_events_total{kind="<kind>"}`: static, so counting an
            /// event formats no string.
            pub fn kind_series(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => {
                        concat!("mccp_events_total{kind=\"", $name, "\"}")
                    })*
                }
            }
        }
    };
}

event_kinds! {
    RequestSubmitted => "request_submitted",
    RequestDispatched => "request_dispatched",
    CoreStarted => "core_started",
    RequestCompleted => "request_completed",
    RequestRetrieved => "request_retrieved",
    FifoPush => "fifo_push",
    FifoPop => "fifo_pop",
    FifoFull => "fifo_full",
    KeyCacheHit => "key_cache_hit",
    KeyCacheMiss => "key_cache_miss",
    CuOpStarted => "cu_op_started",
    CuOpFinished => "cu_op_finished",
    ReconfigBegin => "reconfig_begin",
    ReconfigEnd => "reconfig_end",
    AuthFailWipe => "auth_fail_wipe",
    FaultInjected => "fault_injected",
    FaultDetected => "fault_detected",
    CoreQuarantined => "core_quarantined",
    CoreReset => "core_reset",
    RequestFailed => "request_failed",
}

impl Event {
    /// Serializes the variant's fields (without the surrounding object or
    /// the cycle stamp) into `out` as JSON key/value pairs.
    fn write_json_fields(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Event::RequestSubmitted {
                request,
                channel,
                algorithm,
                direction,
                cores,
            } => {
                let _ = write!(
                    out,
                    "\"request\":{request},\"channel\":{channel},\"algorithm\":"
                );
                json_string(out, algorithm);
                let _ = write!(out, ",\"direction\":");
                json_string(out, direction);
                let _ = write!(out, ",\"cores\":[");
                for (i, c) in cores.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{c}");
                }
                out.push(']');
            }
            Event::RequestDispatched { request, core } => {
                let _ = write!(out, "\"request\":{request},\"core\":{core}");
            }
            Event::CoreStarted {
                request,
                core,
                firmware,
            } => {
                let _ = write!(out, "\"request\":{request},\"core\":{core},\"firmware\":");
                json_string(out, firmware);
            }
            Event::RequestCompleted {
                request,
                auth_ok,
                cycles,
            } => {
                let _ = write!(
                    out,
                    "\"request\":{request},\"auth_ok\":{auth_ok},\"cycles\":{cycles}"
                );
            }
            Event::RequestRetrieved { request, core } => {
                let _ = write!(out, "\"request\":{request},\"core\":{core}");
            }
            Event::FifoPush { core, port, level } | Event::FifoPop { core, port, level } => {
                let _ = write!(
                    out,
                    "\"core\":{core},\"port\":\"{}\",\"level\":{level}",
                    port.as_str()
                );
            }
            Event::FifoFull { core, port } => {
                let _ = write!(out, "\"core\":{core},\"port\":\"{}\"", port.as_str());
            }
            Event::KeyCacheHit { core, key } => {
                let _ = write!(out, "\"core\":{core},\"key\":{key}");
            }
            Event::KeyCacheMiss {
                core,
                key,
                expansion_cycles,
            } => {
                let _ = write!(
                    out,
                    "\"core\":{core},\"key\":{key},\"expansion_cycles\":{expansion_cycles}"
                );
            }
            Event::CuOpStarted { core, op } | Event::CuOpFinished { core, op } => {
                let _ = write!(out, "\"core\":{core},\"op\":");
                json_string(out, op);
            }
            Event::ReconfigBegin { core, personality } => {
                let _ = write!(out, "\"core\":{core},\"personality\":");
                json_string(out, personality);
            }
            Event::ReconfigEnd {
                core,
                personality,
                cycles,
            } => {
                let _ = write!(out, "\"core\":{core},\"personality\":");
                json_string(out, personality);
                let _ = write!(out, ",\"cycles\":{cycles}");
            }
            Event::AuthFailWipe {
                request,
                channel,
                sequence,
            } => {
                let _ = write!(
                    out,
                    "\"request\":{request},\"channel\":{channel},\"sequence\":{sequence}"
                );
            }
            Event::FaultInjected { fault, core } => {
                let _ = write!(out, "\"fault\":");
                json_string(out, fault);
                let _ = write!(out, ",\"core\":{core}");
            }
            Event::FaultDetected {
                request,
                core,
                error,
            } => {
                let _ = write!(out, "\"request\":{request},\"core\":{core},\"error\":");
                json_string(out, error);
            }
            Event::CoreQuarantined { core } | Event::CoreReset { core } => {
                let _ = write!(out, "\"core\":{core}");
            }
            Event::RequestFailed {
                request,
                error,
                cycles,
            } => {
                let _ = write!(out, "\"request\":{request},\"error\":");
                json_string(out, error);
                let _ = write!(out, ",\"cycles\":{cycles}");
            }
        }
    }
}

impl fmt::Display for Event {
    /// Human-readable rendering. For the four lifecycle events the old
    /// string tracer recorded, the output stays byte-identical to the
    /// legacy messages.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::RequestSubmitted {
                request,
                algorithm,
                direction,
                cores,
                ..
            } => write!(
                f,
                "submit RequestId({request}) {algorithm} {direction} on cores {cores:?}"
            ),
            Event::RequestDispatched { request, core } => {
                write!(
                    f,
                    "crossbar routes data port to core {core} for RequestId({request})"
                )
            }
            Event::CoreStarted {
                request,
                core,
                firmware,
            } => write!(f, "core {core} starts {firmware} for RequestId({request})"),
            Event::RequestCompleted {
                request,
                auth_ok,
                cycles,
            } => write!(
                f,
                "RequestId({request}) done (auth_ok={auth_ok}) after {cycles} cycles"
            ),
            Event::RequestRetrieved { request, core } => {
                write!(f, "RequestId({request}) retrieved from core {core}")
            }
            Event::FifoPush { core, port, level } => {
                write!(
                    f,
                    "core {core} {} FIFO filled to {level} words",
                    port.as_str()
                )
            }
            Event::FifoPop { core, port, level } => {
                write!(
                    f,
                    "core {core} {} FIFO drained to {level} words",
                    port.as_str()
                )
            }
            Event::FifoFull { core, port } => {
                write!(f, "core {core} {} FIFO full (backpressure)", port.as_str())
            }
            Event::KeyCacheHit { core, key } => {
                write!(f, "core {core} key cache hit for KeyId({key})")
            }
            Event::KeyCacheMiss {
                core,
                key,
                expansion_cycles,
            } => write!(
                f,
                "core {core} key cache miss for KeyId({key}): expansion {expansion_cycles} cycles"
            ),
            Event::CuOpStarted { core, op } => write!(f, "core {core} CU accepts {op}"),
            Event::CuOpFinished { core, op } => write!(f, "core {core} CU retires {op}"),
            Event::ReconfigBegin { core, personality } => {
                write!(f, "core {core} reconfiguration to {personality} begins")
            }
            Event::ReconfigEnd {
                core,
                personality,
                cycles,
            } => write!(
                f,
                "core {core} reconfigured to {personality} after {cycles} cycles"
            ),
            // Channel/sequence are JSON-only: the rendered line must stay
            // byte-identical to the legacy tracer's message.
            Event::AuthFailWipe { request, .. } => {
                write!(f, "AUTH_FAIL on RequestId({request}): output FIFOs wiped")
            }
            Event::FaultInjected { fault, core } => {
                write!(f, "FAULT injected on core {core}: {fault}")
            }
            Event::FaultDetected {
                request,
                core,
                error,
            } => write!(
                f,
                "FAULT detected on core {core} for RequestId({request}): {error}"
            ),
            Event::CoreQuarantined { core } => {
                write!(f, "core {core} quarantined (fenced from dispatch)")
            }
            Event::CoreReset { core } => {
                write!(f, "core {core} hard reset: returned to idle pool")
            }
            Event::RequestFailed {
                request,
                error,
                cycles,
            } => write!(
                f,
                "RequestId({request}) FAILED after {cycles} cycles: {error}"
            ),
        }
    }
}

/// An [`Event`] stamped with the simulation cycle it occurred on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimedEvent {
    pub cycle: u64,
    pub event: Event,
}

impl TimedEvent {
    /// One JSON object (no trailing newline) for the JSON-lines exporter.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"cycle\":{},\"kind\":\"{}\",",
            self.cycle,
            self.event.kind()
        );
        self.event.write_json_fields(&mut out);
        out.push('}');
        out
    }
}

/// Appends `s` to `out` as a JSON string literal with escaping.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_strings_are_reproduced_exactly() {
        // These four must match the strings the old string-based tracer
        // produced (mccp-core's deprecated shim renders events this way).
        let e = Event::RequestSubmitted {
            request: 1,
            channel: 0,
            algorithm: "AES-128-GCM",
            direction: "Encrypt",
            cores: vec![0],
        };
        assert_eq!(
            e.to_string(),
            "submit RequestId(1) AES-128-GCM Encrypt on cores [0]"
        );
        let e = Event::CoreStarted {
            request: 1,
            core: 0,
            firmware: "GcmEnc",
        };
        assert_eq!(e.to_string(), "core 0 starts GcmEnc for RequestId(1)");
        let e = Event::RequestCompleted {
            request: 1,
            auth_ok: true,
            cycles: 3305,
        };
        assert_eq!(
            e.to_string(),
            "RequestId(1) done (auth_ok=true) after 3305 cycles"
        );
        let e = Event::AuthFailWipe {
            request: 2,
            channel: 5,
            sequence: 17,
        };
        assert_eq!(
            e.to_string(),
            "AUTH_FAIL on RequestId(2): output FIFOs wiped"
        );
    }

    #[test]
    fn auth_fail_json_carries_channel_and_sequence() {
        let t = TimedEvent {
            cycle: 100,
            event: Event::AuthFailWipe {
                request: 2,
                channel: 5,
                sequence: 17,
            },
        };
        assert_eq!(
            t.to_json(),
            "{\"cycle\":100,\"kind\":\"auth_fail_wipe\",\"request\":2,\"channel\":5,\"sequence\":17}"
        );
    }

    #[test]
    fn fault_events_render_and_serialize() {
        let t = TimedEvent {
            cycle: 7,
            event: Event::FaultInjected {
                fault: "wedge_core".into(),
                core: 2,
            },
        };
        assert_eq!(
            t.to_json(),
            "{\"cycle\":7,\"kind\":\"fault_injected\",\"fault\":\"wedge_core\",\"core\":2}"
        );
        assert_eq!(t.event.to_string(), "FAULT injected on core 2: wedge_core");
        let e = Event::RequestFailed {
            request: 3,
            error: "watchdog deadline exceeded".into(),
            cycles: 9000,
        };
        assert_eq!(
            e.to_string(),
            "RequestId(3) FAILED after 9000 cycles: watchdog deadline exceeded"
        );
    }

    #[test]
    fn json_lines_are_well_formed() {
        let t = TimedEvent {
            cycle: 42,
            event: Event::RequestSubmitted {
                request: 7,
                channel: 3,
                algorithm: "AES-256-CCM",
                direction: "Decrypt",
                cores: vec![1, 2],
            },
        };
        assert_eq!(
            t.to_json(),
            "{\"cycle\":42,\"kind\":\"request_submitted\",\"request\":7,\"channel\":3,\
             \"algorithm\":\"AES-256-CCM\",\"direction\":\"Decrypt\",\"cores\":[1,2]}"
        );
        let t = TimedEvent {
            cycle: 9,
            event: Event::FifoPush {
                core: 0,
                port: FifoPort::Input,
                level: 512,
            },
        };
        assert_eq!(
            t.to_json(),
            "{\"cycle\":9,\"kind\":\"fifo_push\",\"core\":0,\"port\":\"input\",\"level\":512}"
        );
    }

    #[test]
    fn json_strings_escape_specials() {
        let mut s = String::new();
        json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn every_kind_is_unique() {
        let kinds = [
            Event::RequestSubmitted {
                request: 0,
                channel: 0,
                algorithm: "",
                direction: "Encrypt",
                cores: vec![],
            }
            .kind(),
            Event::RequestDispatched {
                request: 0,
                core: 0,
            }
            .kind(),
            Event::CoreStarted {
                request: 0,
                core: 0,
                firmware: "",
            }
            .kind(),
            Event::RequestCompleted {
                request: 0,
                auth_ok: true,
                cycles: 0,
            }
            .kind(),
            Event::RequestRetrieved {
                request: 0,
                core: 0,
            }
            .kind(),
            Event::FifoPush {
                core: 0,
                port: FifoPort::Input,
                level: 0,
            }
            .kind(),
            Event::FifoPop {
                core: 0,
                port: FifoPort::Output,
                level: 0,
            }
            .kind(),
            Event::FifoFull {
                core: 0,
                port: FifoPort::Input,
            }
            .kind(),
            Event::KeyCacheHit { core: 0, key: 0 }.kind(),
            Event::KeyCacheMiss {
                core: 0,
                key: 0,
                expansion_cycles: 0,
            }
            .kind(),
            Event::CuOpStarted { core: 0, op: "" }.kind(),
            Event::CuOpFinished { core: 0, op: "" }.kind(),
            Event::ReconfigBegin {
                core: 0,
                personality: "",
            }
            .kind(),
            Event::ReconfigEnd {
                core: 0,
                personality: "",
                cycles: 0,
            }
            .kind(),
            Event::AuthFailWipe {
                request: 0,
                channel: 0,
                sequence: 0,
            }
            .kind(),
            Event::FaultInjected {
                fault: String::new(),
                core: 0,
            }
            .kind(),
            Event::FaultDetected {
                request: 0,
                core: 0,
                error: String::new(),
            }
            .kind(),
            Event::CoreQuarantined { core: 0 }.kind(),
            Event::CoreReset { core: 0 }.kind(),
            Event::RequestFailed {
                request: 0,
                error: String::new(),
                cycles: 0,
            }
            .kind(),
        ];
        let mut set = std::collections::HashSet::new();
        for k in kinds {
            assert!(set.insert(k), "duplicate kind {k}");
        }
        assert_eq!(set.len(), 20);
    }
}
