//! SLO / health plane: per-channel latency deadlines, rolling burn-rate
//! windows, and a fault-driven health score per engine shard.
//!
//! The SLO engine is sample-driven and engine-agnostic: the cluster layer
//! feeds it one `(channel, completed_at, latency)` observation per
//! delivered packet (and one violation per abandoned packet), against a
//! deadline target derived from the channel's radio standard. Attainment
//! and burn rate are pure functions of those samples, so the numbers are
//! identical across the cycle-accurate and functional engines.
//!
//! [`SloEngine`] keeps every observation, so any trailing window can be
//! asked for after the run. A long-running caller that only ever asks for
//! the whole run uses [`SloTotals`] instead: O(1) state per channel and
//! the same rows.
//!
//! *Burn rate* follows the SRE convention: the ratio of the observed error
//! rate in a window to the error budget implied by the SLO target. Burn
//! rate 1.0 means the budget is being consumed exactly at the sustainable
//! pace; > 1.0 means the channel will exhaust its budget early.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::Snapshot;

/// The SLO contract for one channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelSlo {
    pub channel: u8,
    /// A packet completing more than this many cycles after submission
    /// violates the objective. Derived from the channel's radio standard.
    pub deadline_cycles: u64,
    /// Attainment target in permille (e.g. 999 = 99.9% of packets on time).
    pub target_permille: u32,
}

impl ChannelSlo {
    /// Fraction of the packet population allowed to miss the deadline.
    pub fn error_budget(&self) -> f64 {
        1.0 - f64::from(self.target_permille.min(1000)) / 1000.0
    }
}

/// One latency observation: a packet that completed (or was abandoned).
#[derive(Clone, Copy, Debug)]
struct Observation {
    completed_at: u64,
    violated: bool,
}

/// Counts over a set of observations.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    packets: u64,
    violations: u64,
    worst_latency: u64,
    latency_sum: u64,
}

impl Tally {
    /// Counts one observation (an abandonment is a violated one).
    fn observe(&mut self, violated: bool) {
        self.packets += 1;
        self.violations += u64::from(violated);
    }

    fn completion(&mut self, violated: bool, latency: u64) {
        self.observe(violated);
        self.worst_latency = self.worst_latency.max(latency);
        self.latency_sum += latency;
    }

    /// The attainment row for `slo`, with `window` the tally of the
    /// trailing burn-rate window: the one home of the attainment and burn
    /// arithmetic.
    fn row(&self, slo: &ChannelSlo, window: &Tally) -> ChannelAttainment {
        let budget = slo.error_budget();
        let rate = |t: &Tally| {
            if t.packets == 0 {
                0.0
            } else {
                t.violations as f64 / t.packets as f64
            }
        };
        let attained_permille = ((self.packets - self.violations) * 1000)
            .checked_div(self.packets)
            .unwrap_or(1000) as u32;
        ChannelAttainment {
            channel: slo.channel,
            deadline_cycles: slo.deadline_cycles,
            target_permille: slo.target_permille,
            packets: self.packets,
            violations: self.violations,
            attained_permille,
            worst_latency: self.worst_latency,
            mean_latency: self.latency_sum.checked_div(self.packets).unwrap_or(0),
            burn_rate: burn(rate(self), budget),
            window_burn_rate: burn(rate(window), budget),
            met: attained_permille >= slo.target_permille,
        }
    }
}

fn burn(rate: f64, budget: f64) -> f64 {
    if rate == 0.0 {
        0.0
    } else if budget == 0.0 {
        f64::INFINITY
    } else {
        rate / budget
    }
}

/// Rolling attainment/burn-rate state for one channel.
#[derive(Clone, Debug, Default)]
struct ChannelTrack {
    all: Tally,
    observations: Vec<Observation>,
}

/// Per-channel attainment summary, produced by [`SloEngine::attainment`].
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelAttainment {
    pub channel: u8,
    pub deadline_cycles: u64,
    pub target_permille: u32,
    pub packets: u64,
    pub violations: u64,
    /// Attained fraction in permille, rounded down. 1000 when no packets.
    pub attained_permille: u32,
    pub worst_latency: u64,
    pub mean_latency: u64,
    /// Burn rate over the whole run (error rate / error budget).
    /// `f64::INFINITY` when the budget is zero and violations occurred.
    pub burn_rate: f64,
    /// Burn rate over the trailing window passed to `attainment`.
    pub window_burn_rate: f64,
    pub met: bool,
}

/// Accumulates latency observations against per-channel SLOs.
#[derive(Clone, Debug, Default)]
pub struct SloEngine {
    slos: BTreeMap<u8, ChannelSlo>,
    tracks: BTreeMap<u8, ChannelTrack>,
}

impl SloEngine {
    pub fn new(slos: impl IntoIterator<Item = ChannelSlo>) -> Self {
        Self {
            slos: slos.into_iter().map(|s| (s.channel, s)).collect(),
            tracks: BTreeMap::new(),
        }
    }

    pub fn slo(&self, channel: u8) -> Option<&ChannelSlo> {
        self.slos.get(&channel)
    }

    /// Records a delivered packet. Latency beyond the channel's deadline
    /// counts as a violation; channels without a registered SLO are ignored.
    pub fn record_completion(&mut self, channel: u8, completed_at: u64, latency: u64) {
        let Some(slo) = self.slos.get(&channel) else {
            return;
        };
        let violated = latency > slo.deadline_cycles;
        let track = self.tracks.entry(channel).or_default();
        track.observations.push(Observation {
            completed_at,
            violated,
        });
        track.all.completion(violated, latency);
    }

    /// Records an abandoned packet — always a violation (the packet never
    /// made its deadline because it never completed at all).
    pub fn record_abandonment(&mut self, channel: u8, at_cycle: u64) {
        if !self.slos.contains_key(&channel) {
            return;
        }
        let track = self.tracks.entry(channel).or_default();
        track.observations.push(Observation {
            completed_at: at_cycle,
            violated: true,
        });
        track.all.observe(true);
    }

    /// Computes per-channel attainment. `now` is the end of the run in
    /// cycles and `window_cycles` the trailing window for the windowed
    /// burn rate (observations with `completed_at > now - window` count).
    pub fn attainment(&self, now: u64, window_cycles: u64) -> Vec<ChannelAttainment> {
        let horizon = now.saturating_sub(window_cycles);
        self.slos
            .values()
            .map(|slo| {
                let empty = ChannelTrack::default();
                let track = self.tracks.get(&slo.channel).unwrap_or(&empty);
                let mut window = Tally::default();
                for o in track
                    .observations
                    .iter()
                    .filter(|o| o.completed_at > horizon)
                {
                    window.observe(o.violated);
                }
                track.all.row(slo, &window)
            })
            .collect()
    }

    /// Renders the attainment rows as a fixed-width table.
    pub fn attainment_table(rows: &[ChannelAttainment]) -> String {
        let mut out = String::from(
            "channel  deadline  target  packets  viol  attained  worst  burn    status\n",
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:>7}  {:>8}  {:>5}‰  {:>7}  {:>4}  {:>7}‰  {:>5}  {:>6}  {}",
                r.channel,
                r.deadline_cycles,
                r.target_permille,
                r.packets,
                r.violations,
                r.attained_permille,
                r.worst_latency,
                format_burn(r.burn_rate),
                if r.met { "met" } else { "MISSED" },
            );
        }
        out
    }

    /// Publishes attainment rows as Prometheus-style gauge series into a
    /// snapshot's gauge map (permille as integers — the exporter layer is
    /// integer-only by design).
    pub fn publish(rows: &[ChannelAttainment], snapshot: &mut Snapshot) {
        for r in rows {
            let label = |name: &str| format!("{name}{{channel=\"{}\"}}", r.channel);
            snapshot.gauges.insert(
                label("mccp_slo_attained_permille"),
                u64::from(r.attained_permille),
            );
            snapshot.gauges.insert(
                label("mccp_slo_target_permille"),
                u64::from(r.target_permille),
            );
            snapshot
                .gauges
                .insert(label("mccp_slo_deadline_cycles"), r.deadline_cycles);
            snapshot
                .gauges
                .insert(label("mccp_slo_violations_total"), r.violations);
            snapshot.gauges.insert(
                label("mccp_slo_burn_rate_permille"),
                burn_permille(r.burn_rate),
            );
        }
    }
}

/// Whole-run SLO state in O(1) per channel: the rows of
/// [`SloEngine::attainment`]`(now, now.max(1))` at any `now`, whose burn
/// window is every observation completed after cycle 0.
#[derive(Clone, Debug, Default)]
pub struct SloTotals {
    /// Each registered SLO with its whole-run tally and the tally of the
    /// observations completed after cycle 0.
    tracks: Vec<(ChannelSlo, Tally, Tally)>,
}

impl SloTotals {
    pub fn new(slos: impl IntoIterator<Item = ChannelSlo>) -> Self {
        let mut tracks: Vec<_> = slos
            .into_iter()
            .map(|s| (s, Tally::default(), Tally::default()))
            .collect();
        // Channel order, and one entry per channel, as `SloEngine` keys
        // them.
        tracks.sort_by_key(|t| t.0.channel);
        tracks.dedup_by_key(|t| t.0.channel);
        SloTotals { tracks }
    }

    fn track(&mut self, channel: u8) -> Option<&mut (ChannelSlo, Tally, Tally)> {
        self.tracks.iter_mut().find(|t| t.0.channel == channel)
    }

    /// Records a delivered packet; returns whether it missed its deadline
    /// (false for a channel without a registered SLO, which is ignored).
    pub fn record_completion(&mut self, channel: u8, completed_at: u64, latency: u64) -> bool {
        let Some((slo, all, window)) = self.track(channel) else {
            return false;
        };
        let violated = latency > slo.deadline_cycles;
        all.completion(violated, latency);
        if completed_at > 0 {
            window.observe(violated);
        }
        violated
    }

    /// Records an abandoned packet — always a violation.
    pub fn record_abandonment(&mut self, channel: u8, at_cycle: u64) {
        if let Some((_, all, window)) = self.track(channel) {
            all.observe(true);
            if at_cycle > 0 {
                window.observe(true);
            }
        }
    }

    /// Per-channel attainment over the whole run.
    pub fn attainment(&self) -> Vec<ChannelAttainment> {
        self.tracks
            .iter()
            .map(|(slo, all, window)| all.row(slo, window))
            .collect()
    }
}

fn format_burn(rate: f64) -> String {
    if rate.is_infinite() {
        "inf".to_owned()
    } else {
        format!("{rate:.2}")
    }
}

/// Burn rate as clamped permille for integer gauge export (caps at 1000x).
fn burn_permille(rate: f64) -> u64 {
    if rate.is_infinite() {
        1_000_000
    } else {
        ((rate * 1000.0).round() as u64).min(1_000_000)
    }
}

/// Health score (0–100) of one engine shard, derived from the fault
/// counters its snapshot already carries (PR 4 fault plane). 100 = no
/// fault activity; each class of incident subtracts a weighted penalty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthScore {
    pub shard: usize,
    pub score: u32,
    pub faults_detected: u64,
    pub quarantines: u64,
    pub resets: u64,
    pub failures: u64,
    pub abandoned: u64,
}

impl HealthScore {
    /// Scores one shard from its merged snapshot counters. Weights:
    /// abandonment is worst (10), quarantine 5, reset 3, request failure 2,
    /// detected fault 1 — saturating at zero.
    pub fn from_snapshot(shard: usize, snapshot: &Snapshot) -> Self {
        let c = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let faults_detected = c("mccp_faults_detected_total");
        let quarantines = c("mccp_core_quarantines_total");
        let resets = c("mccp_core_resets_total");
        let failures = c("mccp_requests_failed_total");
        let abandoned = c("mccp_requests_abandoned_total");
        let penalty =
            abandoned * 10 + quarantines * 5 + resets * 3 + failures * 2 + faults_detected;
        Self {
            shard,
            score: 100u64.saturating_sub(penalty) as u32,
            faults_detected,
            quarantines,
            resets,
            failures,
            abandoned,
        }
    }

    pub fn is_healthy(&self) -> bool {
        self.score >= 50
    }
}

/// Renders shard health scores as a table.
pub fn health_table(scores: &[HealthScore]) -> String {
    let mut out = String::from("shard  score  faults  quarantines  resets  failures  abandoned\n");
    for h in scores {
        let _ = writeln!(
            out,
            "{:>5}  {:>5}  {:>6}  {:>11}  {:>6}  {:>8}  {:>9}",
            h.shard, h.score, h.faults_detected, h.quarantines, h.resets, h.failures, h.abandoned,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> SloEngine {
        SloEngine::new([
            ChannelSlo {
                channel: 0,
                deadline_cycles: 100,
                target_permille: 990,
            },
            ChannelSlo {
                channel: 1,
                deadline_cycles: 50,
                target_permille: 1000,
            },
        ])
    }

    #[test]
    fn attainment_counts_deadline_violations() {
        let mut e = engine();
        e.record_completion(0, 100, 80); // on time
        e.record_completion(0, 200, 120); // late
        e.record_completion(0, 300, 100); // exactly at deadline: on time
        e.record_completion(1, 150, 10); // on time
        e.record_abandonment(1, 400); // violation
        e.record_completion(9, 10, 1); // no SLO registered: ignored

        let rows = e.attainment(400, 400);
        assert_eq!(rows.len(), 2);
        let r0 = &rows[0];
        assert_eq!((r0.channel, r0.packets, r0.violations), (0, 3, 1));
        assert_eq!(r0.attained_permille, 666);
        assert_eq!(r0.worst_latency, 120);
        assert_eq!(r0.mean_latency, 100);
        assert!(!r0.met, "666‰ < 990‰ target");
        // error rate 1/3 over budget 0.01 → burn 33.3x
        assert!((r0.burn_rate - (1.0 / 3.0) / 0.01).abs() < 1e-9);

        let r1 = &rows[1];
        assert_eq!((r1.packets, r1.violations), (2, 1));
        assert!(r1.burn_rate.is_infinite(), "zero error budget burned");
        assert!(!r1.met);
    }

    #[test]
    fn windowed_burn_rate_sees_only_recent_observations() {
        let mut e = engine();
        e.record_completion(0, 100, 200); // old violation
        e.record_completion(0, 900, 10); // recent, on time
        e.record_completion(0, 950, 10); // recent, on time
        let rows = e.attainment(1000, 200);
        let r0 = &rows[0];
        // Whole-run: 1/3 violations. Window (cycles 800..1000): 0/2.
        assert!(r0.burn_rate > 0.0);
        assert_eq!(r0.window_burn_rate, 0.0);
    }

    /// `SloTotals` gives the rows an observation-list engine gives for the
    /// whole-run window, on the same records, including records at cycle
    /// 0 (outside that window) and channels without an SLO.
    #[test]
    fn totals_match_the_engine_over_the_whole_run() {
        let mut e = engine();
        let mut t = SloTotals::new(e.slos.values().copied());
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        for i in 0..500u64 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let (channel, at, latency) =
                ((seed % 3) as u8, (seed >> 8) % 4 * i, (seed >> 16) % 150);
            if seed.is_multiple_of(7) {
                e.record_abandonment(channel, at);
                t.record_abandonment(channel, at);
            } else {
                e.record_completion(channel, at, latency);
                let violated = t.record_completion(channel, at, latency);
                assert_eq!(
                    violated,
                    channel < 2 && latency > [100, 50][channel as usize]
                );
            }
            let now = at + seed % 2;
            assert_eq!(t.attainment(), e.attainment(now, now.max(1)), "after {i}");
        }
        assert!(e.attainment(1, 1).iter().all(|r| r.packets > 0));
    }

    #[test]
    fn empty_channel_attains_fully() {
        let e = engine();
        let rows = e.attainment(0, 0);
        assert_eq!(rows[0].attained_permille, 1000);
        assert!(rows[0].met);
        assert_eq!(rows[0].burn_rate, 0.0);
    }

    #[test]
    fn attainment_table_and_publish_are_deterministic() {
        let mut e = engine();
        e.record_completion(0, 100, 80);
        e.record_completion(1, 120, 60); // late (deadline 50)
        let rows = e.attainment(200, 200);
        let table = SloEngine::attainment_table(&rows);
        assert!(table.contains("met"));
        assert!(table.contains("MISSED"));

        let mut snap = Snapshot::default();
        SloEngine::publish(&rows, &mut snap);
        assert_eq!(
            snap.gauges.get("mccp_slo_attained_permille{channel=\"0\"}"),
            Some(&1000)
        );
        assert_eq!(
            snap.gauges.get("mccp_slo_attained_permille{channel=\"1\"}"),
            Some(&0)
        );
        assert_eq!(
            snap.gauges
                .get("mccp_slo_burn_rate_permille{channel=\"1\"}"),
            Some(&1_000_000),
            "infinite burn clamps to cap"
        );
    }

    #[test]
    fn health_score_weights_fault_counters() {
        let mut snap = Snapshot::default();
        assert_eq!(HealthScore::from_snapshot(0, &snap).score, 100);

        snap.counters.insert("mccp_faults_detected_total".into(), 4);
        snap.counters
            .insert("mccp_core_quarantines_total".into(), 2);
        snap.counters.insert("mccp_core_resets_total".into(), 1);
        snap.counters.insert("mccp_requests_failed_total".into(), 3);
        snap.counters
            .insert("mccp_requests_abandoned_total".into(), 1);
        let h = HealthScore::from_snapshot(1, &snap);
        // 100 - (1*10 + 2*5 + 1*3 + 3*2 + 4) = 100 - 33 = 67
        assert_eq!(h.score, 67);
        assert!(h.is_healthy());

        snap.counters
            .insert("mccp_requests_abandoned_total".into(), 50);
        let h = HealthScore::from_snapshot(1, &snap);
        assert_eq!(h.score, 0, "penalty saturates at zero");
        assert!(!h.is_healthy());
        assert!(health_table(&[h]).contains("    1      0"));
    }
}
