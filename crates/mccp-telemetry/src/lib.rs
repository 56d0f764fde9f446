//! End-to-end telemetry for the MCCP reproduction.
//!
//! This crate gives the cycle-accurate model an observability layer that a
//! real multi-channel cryptoprocessor deployment would need:
//!
//! * **Typed events** ([`Event`]) — cycle-stamped state transitions across
//!   the whole pipeline: request lifecycle, FIFO activity, key-cache hits
//!   and misses, Cryptographic Unit operations, partial reconfiguration,
//!   and the auth-failure wipe.
//! * **Metrics** ([`Registry`]) — counters, gauges, and power-of-two
//!   cycle-latency histograms with deterministic (`BTreeMap`-ordered)
//!   snapshots.
//! * **Spans** ([`SpanTracker`]) — per-request lifecycle milestones
//!   (submitted → started → completed/failed/abandoned → retrieved)
//!   derived from the event stream, feeding latency metrics and the VCD
//!   bridge.
//! * **Causal traces** ([`trace`]) — cluster-level [`trace::PacketJourney`]
//!   records (one per packet, spanning retries, steals and failover hops)
//!   with JSON-lines and Chrome `trace_event` exporters.
//! * **Cycle-attribution profiles** ([`profile`]) — hierarchical
//!   shard → core → stage cycle accounting rendered as a
//!   flamegraph-compatible collapsed-stack file and a top-N report.
//! * **SLO engine** ([`slo`]) — per-channel deadline attainment, rolling
//!   burn-rate windows, and fault-counter-driven health scores.
//! * **Exporters** ([`export`], [`vcd_bridge`]) — JSON-lines event logs,
//!   Prometheus text exposition, a human-readable utilization report, and
//!   a waveform bridge into `mccp-sim`'s VCD writer.
//!
//! # Zero overhead when disabled
//!
//! A disabled [`Telemetry`] reduces every instrumentation call to one
//! branch on a bool. Events are built lazily ([`Telemetry::emit_with`]
//! takes a closure), so no allocation or formatting happens unless
//! telemetry is on. The cycle-budget tests in `mccp-bench` hold the model to this.
//!
//! # Determinism
//!
//! The simulator is deterministic and so is this layer: ring-buffer
//! eviction is purely count-based, metrics iterate in key order, and the
//! exporters are pure functions — two identical runs export byte-identical
//! text.

pub mod demand;
pub mod event;
pub mod export;
pub mod metrics;
pub mod profile;
pub mod service;
pub mod slo;
pub mod span;
pub mod trace;
pub mod vcd_bridge;

pub use demand::DemandCounters;
pub use event::{Event, FifoPort, TimedEvent};
pub use metrics::{Histogram, Registry, Snapshot};
pub use profile::WallProfile;
pub use service::{ClassCounters, ServiceCounters};
pub use slo::{ChannelAttainment, ChannelSlo, HealthScore, SloEngine};
pub use span::{RequestSpan, SpanTracker};
pub use trace::{Attempt, AttemptOutcome, PacketJourney};

use std::collections::VecDeque;

/// The telemetry hub one MCCP instance owns: a bounded typed-event log,
/// a metrics registry, and a span tracker, all fed through [`emit`].
///
/// [`emit`]: Telemetry::emit
#[derive(Clone, Debug)]
pub struct Telemetry {
    enabled: bool,
    capacity: usize,
    events: VecDeque<TimedEvent>,
    dropped: u64,
    registry: Registry,
    spans: SpanTracker,
    /// Per-core (input, output) FIFO occupancy high-water marks, kept as a
    /// plain vector so per-cycle sampling never allocates or hashes;
    /// published as gauges when a snapshot is taken.
    fifo_highwater: Vec<(usize, usize)>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    /// A telemetry hub that records nothing and costs one branch per call.
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            capacity: 0,
            events: VecDeque::new(),
            dropped: 0,
            registry: Registry::new(false),
            spans: SpanTracker::default(),
            fifo_highwater: Vec::new(),
        }
    }

    /// An enabled hub keeping the most recent `capacity` events. A
    /// capacity of 0 means "metrics and spans but no event log" — the
    /// registry and span tracker still populate, and every event counts
    /// as dropped.
    pub fn with_capacity(capacity: usize) -> Self {
        Telemetry {
            enabled: true,
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
            registry: Registry::new(true),
            spans: SpanTracker::default(),
            fifo_highwater: Vec::new(),
        }
    }

    /// Whether instrumentation is live.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event: appends to the ring-buffered log (evicting the
    /// oldest when full), updates the derived per-kind counters, and feeds
    /// the span tracker. No-op when disabled.
    pub fn emit(&mut self, cycle: u64, event: Event) {
        if !self.enabled {
            return;
        }
        self.auto_metrics(&event);
        self.spans.observe(cycle, &event);
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TimedEvent { cycle, event });
    }

    /// Records a lazily-built event — free when disabled; prefer this in
    /// hot paths where constructing the event allocates.
    pub fn emit_with<F: FnOnce() -> Event>(&mut self, cycle: u64, f: F) {
        if self.enabled {
            self.emit(cycle, f());
        }
    }

    /// Derived metrics every event updates, so the registry stays
    /// meaningful even when the event log itself wraps.
    fn auto_metrics(&mut self, event: &Event) {
        self.registry.counter_add("mccp_events_total", 1);
        self.registry.counter_add(event.kind_series(), 1);
        match event {
            Event::RequestSubmitted { channel, .. } => {
                self.registry
                    .counter_add("mccp_requests_submitted_total", 1);
                self.registry.counter_add(
                    &metrics::series("mccp_channel_requests_total", "channel", channel),
                    1,
                );
            }
            Event::CoreStarted { .. } => {
                self.registry.counter_add("mccp_core_starts_total", 1);
            }
            Event::RequestCompleted {
                auth_ok, cycles, ..
            } => {
                self.registry
                    .counter_add("mccp_requests_completed_total", 1);
                self.registry
                    .histogram_record("mccp_request_latency_cycles", *cycles);
                if !auth_ok {
                    self.registry.counter_add("mccp_auth_failures_total", 1);
                }
            }
            Event::KeyCacheHit { .. } => {
                self.registry.counter_add("mccp_key_cache_hits_total", 1);
            }
            Event::KeyCacheMiss {
                expansion_cycles, ..
            } => {
                self.registry.counter_add("mccp_key_cache_misses_total", 1);
                self.registry
                    .histogram_record("mccp_key_expansion_cycles", u64::from(*expansion_cycles));
            }
            Event::FifoFull { .. } => {
                self.registry.counter_add("mccp_fifo_full_total", 1);
            }
            Event::AuthFailWipe { .. } => {
                self.registry.counter_add("mccp_fifo_wipes_total", 1);
            }
            Event::ReconfigEnd { cycles, .. } => {
                self.registry.counter_add("mccp_reconfigurations_total", 1);
                self.registry
                    .histogram_record("mccp_reconfig_cycles", *cycles);
            }
            Event::FaultInjected { .. } => {
                self.registry.counter_add("mccp_faults_injected_total", 1);
            }
            Event::FaultDetected { .. } => {
                self.registry.counter_add("mccp_faults_detected_total", 1);
            }
            Event::CoreQuarantined { .. } => {
                self.registry.counter_add("mccp_core_quarantines_total", 1);
            }
            Event::CoreReset { .. } => {
                self.registry.counter_add("mccp_core_resets_total", 1);
            }
            Event::RequestFailed { cycles, .. } => {
                self.registry.counter_add("mccp_requests_failed_total", 1);
                self.registry
                    .histogram_record("mccp_request_latency_cycles", *cycles);
            }
            _ => {}
        }
    }

    /// Raises per-core FIFO occupancy high-water marks. The simulator
    /// reports each FIFO's own high-water mark when it publishes a
    /// snapshot (the FIFOs track it where their level changes, so the
    /// tick loop pays nothing); the marks become
    /// `mccp_fifo_highwater_words` gauges when [`snapshot`] runs.
    ///
    /// [`snapshot`]: Telemetry::snapshot
    pub fn observe_fifo_levels(&mut self, core: usize, input_words: usize, output_words: usize) {
        if !self.enabled {
            return;
        }
        if self.fifo_highwater.len() <= core {
            self.fifo_highwater.resize(core + 1, (0, 0));
        }
        let mark = &mut self.fifo_highwater[core];
        mark.0 = mark.0.max(input_words);
        mark.1 = mark.1.max(output_words);
    }

    /// Direct access to the metrics registry (counters the event taxonomy
    /// doesn't cover — DMA word counts, per-channel served bytes, …).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Per-request lifecycle spans derived so far.
    pub fn spans(&self) -> &SpanTracker {
        &self.spans
    }

    /// Closes the span of a packet the cluster abandoned (retry budget
    /// exhausted or dead shard) — no engine event exists for that terminal,
    /// so the cluster layer records it directly. One branch when disabled.
    pub fn abandon_request(&mut self, request: u16, cycle: u64) {
        if self.enabled {
            self.spans.abandon(request, cycle);
            self.registry
                .counter_add("mccp_requests_abandoned_total", 1);
        }
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter()
    }

    /// Count of events evicted (or never logged, when capacity is 0).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the event log (metrics and spans are unaffected).
    pub fn take_events(&mut self) -> Vec<TimedEvent> {
        self.events.drain(..).collect()
    }

    /// A deterministic point-in-time copy of the registry. Publishes the
    /// FIFO high-water marks as gauges first, so they appear in every
    /// export format without per-cycle registry traffic.
    pub fn snapshot(&mut self) -> Snapshot {
        for core in 0..self.fifo_highwater.len() {
            let (input, output) = self.fifo_highwater[core];
            self.registry.gauge_max(
                &format!("mccp_fifo_highwater_words{{core=\"{core}\",port=\"input\"}}"),
                input as u64,
            );
            self.registry.gauge_max(
                &format!("mccp_fifo_highwater_words{{core=\"{core}\",port=\"output\"}}"),
                output as u64,
            );
        }
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(request: u16, cycles: u64, auth_ok: bool) -> Event {
        Event::RequestCompleted {
            request,
            auth_ok,
            cycles,
        }
    }

    #[test]
    fn disabled_hub_is_inert() {
        let mut t = Telemetry::disabled();
        t.emit(1, Event::KeyCacheHit { core: 0, key: 1 });
        t.emit_with(2, || panic!("must not be built"));
        t.observe_fifo_levels(0, 100, 100);
        assert!(!t.is_enabled());
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.dropped(), 0);
        assert!(t.snapshot().counters.is_empty());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn emit_feeds_log_metrics_and_spans() {
        let mut t = Telemetry::with_capacity(16);
        t.emit(
            5,
            Event::RequestSubmitted {
                request: 1,
                channel: 0,
                algorithm: "AES-128-GCM",
                direction: "Encrypt",
                cores: vec![0],
            },
        );
        t.emit(300, completed(1, 295, true));
        t.emit(301, completed(2, 400, false));

        let s = t.snapshot();
        assert_eq!(s.counter("mccp_events_total"), 3);
        assert_eq!(
            s.counter("mccp_events_total{kind=\"request_completed\"}"),
            2
        );
        assert_eq!(s.counter("mccp_requests_submitted_total"), 1);
        assert_eq!(s.counter("mccp_channel_requests_total{channel=\"0\"}"), 1);
        assert_eq!(s.counter("mccp_requests_completed_total"), 2);
        assert_eq!(s.counter("mccp_auth_failures_total"), 1);
        let h = &s.histograms["mccp_request_latency_cycles"];
        assert_eq!((h.count, h.min, h.max), (2, 295, 400));

        assert_eq!(t.events().count(), 3);
        assert_eq!(t.spans().get(1).unwrap().completion_latency(), Some(295));
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let mut t = Telemetry::with_capacity(2);
        for cycle in 0..5 {
            t.emit(cycle, Event::KeyCacheHit { core: 0, key: 0 });
        }
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![3, 4]);
        assert_eq!(t.dropped(), 3);
        // Metrics saw everything despite the wrap.
        assert_eq!(t.snapshot().counter("mccp_key_cache_hits_total"), 5);
    }

    #[test]
    fn capacity_zero_keeps_metrics_but_logs_nothing() {
        let mut t = Telemetry::with_capacity(0);
        t.emit(1, completed(1, 50, true));
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.snapshot().counter("mccp_requests_completed_total"), 1);
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn fifo_high_water_is_monotone() {
        let mut t = Telemetry::with_capacity(4);
        t.observe_fifo_levels(0, 10, 2);
        t.observe_fifo_levels(0, 7, 8);
        t.observe_fifo_levels(0, 12, 1);
        let s = t.snapshot();
        assert_eq!(
            s.gauge("mccp_fifo_highwater_words{core=\"0\",port=\"input\"}"),
            12
        );
        assert_eq!(
            s.gauge("mccp_fifo_highwater_words{core=\"0\",port=\"output\"}"),
            8
        );
    }

    #[test]
    fn take_events_drains_log_only() {
        let mut t = Telemetry::with_capacity(8);
        t.emit(1, completed(1, 10, true));
        let drained = t.take_events();
        assert_eq!(drained.len(), 1);
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.snapshot().counter("mccp_requests_completed_total"), 1);
    }
}
