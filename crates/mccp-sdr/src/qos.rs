//! Quality-of-service dispatch (paper §VIII: "it must also be possible to
//! priorize certain streams over others to allow some sort of
//! quality-of-service").
//!
//! The MCCP itself dispatches to the first idle core; *which packet* is
//! offered next is the communication controller's choice. [`DispatchPolicy`]
//! captures that choice: plain arrival order, or priority order (stable
//! within a class), which is the simple realization of the paper's QoS
//! discussion.

use crate::standards::StandardProfile;
use crate::workload::RadioPacket;
use mccp_telemetry::slo::ChannelSlo;

/// The packet-dispatch policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Arrival order (the paper's current release: "incoming packets are
    /// processed in their order of arrival as fast as possible").
    Fifo,
    /// Priority classes first (0 = highest), stable within a class.
    Priority,
}

impl DispatchPolicy {
    /// Produces the submission order (indices into `packets`).
    pub fn order(self, packets: &[RadioPacket]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..packets.len()).collect();
        if self == DispatchPolicy::Priority {
            idx.sort_by_key(|&i| (packets[i].priority, i));
        }
        idx
    }
}

/// The service plane's QoS classes — the coarse admission grain the
/// always-on front-end controls at, as opposed to the per-packet
/// `priority` byte the batch dispatch policies sort on. Ordering matters:
/// a *lower* discriminant is a more important class, and admission
/// watermarks rise with importance so critical traffic is the last to be
/// shed under overload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    /// Latency-critical streams (secure voice): admitted until the queue
    /// is completely full.
    Critical = 0,
    /// Default data streams: shed once the queue passes its high
    /// watermark.
    Standard = 1,
    /// Bulk/background streams: the first to be shed under pressure.
    BestEffort = 2,
}

impl QosClass {
    pub const ALL: [QosClass; 3] = [QosClass::Critical, QosClass::Standard, QosClass::BestEffort];

    /// Stable index for per-class counter arrays
    /// (matches `mccp_telemetry::service::CLASS_NAMES` order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Label for reports ("critical", "standard", "best_effort").
    pub fn name(self) -> &'static str {
        mccp_telemetry::service::CLASS_NAMES[self.index()]
    }
}

/// Maps a radio standard to its service QoS class: secure voice is the
/// paper's low-latency stream (critical); UMTS cell traffic rides as
/// best-effort bulk; the WLAN/WMAN standards are ordinary data.
pub fn qos_class(standard: crate::standards::Standard) -> QosClass {
    use crate::standards::Standard;
    match standard {
        Standard::SecureVoice => QosClass::Critical,
        Standard::Umts => QosClass::BestEffort,
        Standard::Wifi | Standard::Wimax => QosClass::Standard,
    }
}

/// Queue-fill fraction above which [`QosClass::BestEffort`] is shed.
const BEST_EFFORT_WATERMARK: f64 = 0.50;
/// Queue-fill fraction above which [`QosClass::Standard`] is shed.
const STANDARD_WATERMARK: f64 = 0.85;

/// Admission control by watermark: the fraction of a shard's queue
/// capacity each class may fill before its traffic is shed. Critical
/// traffic runs to 100%, Standard to 85% and BestEffort to 50%. Cutting
/// lower classes off earlier *reserves* the remaining headroom for more
/// important streams — the mechanism that lets secure voice preempt
/// best-effort under overload without explicit preemption.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AdmissionConfig {}

impl AdmissionConfig {
    /// The queue depth (in packets) at which `class` stops being admitted,
    /// for a queue of `capacity` packets.
    pub fn limit(&self, class: QosClass, capacity: usize) -> usize {
        let frac = match class {
            QosClass::Critical => 1.0,
            QosClass::Standard => STANDARD_WATERMARK,
            QosClass::BestEffort => BEST_EFFORT_WATERMARK,
        };
        ((capacity as f64 * frac).floor() as usize).min(capacity)
    }

    /// Admission decision for one packet: `Ok` to enqueue, or the
    /// backpressure verdict. `queued` is the shard queue's current depth,
    /// `drain_budget` its per-pump service rate (used to estimate
    /// `retry_after_pumps`, the number of pump rounds after which the
    /// queue will plausibly have drained below the class watermark).
    pub fn admit(
        &self,
        class: QosClass,
        queued: usize,
        capacity: usize,
        drain_budget: usize,
    ) -> Result<(), AdmitError> {
        let limit = self.limit(class, capacity);
        if queued < limit {
            return Ok(());
        }
        let excess = queued + 1 - limit;
        let retry_after_pumps = excess.div_ceil(drain_budget.max(1)) as u64;
        Err(AdmitError::Busy { retry_after_pumps })
    }
}

/// Why a submission was refused at the front door.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The shard queue is past this class's watermark; retry after the
    /// estimated number of pump rounds.
    Busy { retry_after_pumps: u64 },
}

/// The latency SLO rule shared by the batch and service planes: the
/// deadline scales with the largest packet served (DMA is one 32-bit word
/// per cycle, the crypto pipeline adds a per-block cost, and the constant
/// absorbs key expansion and scheduling), and the attainment target
/// reflects the class's latency demand — secure voice, the paper's
/// low-latency stream and the only Critical standard, gets 99.9%, the
/// rest 99%.
fn slo_rule(id: u8, max_packet: usize, class: QosClass) -> ChannelSlo {
    ChannelSlo {
        channel: id,
        deadline_cycles: 5_000 + 16 * max_packet as u64,
        target_permille: if class == QosClass::Critical {
            999
        } else {
            990
        },
    }
}

/// The per-channel latency SLO, from the channel's radio standard.
pub fn channel_slo(channel: u8, profile: &StandardProfile) -> ChannelSlo {
    slo_rule(channel, profile.max_packet(), qos_class(profile.standard))
}

/// The per-class SLO (the service-plane grain), sized for the largest
/// packet any standard in the class emits. The class index doubles as the
/// `channel` field, so [`SloEngine`](mccp_telemetry::slo::SloEngine)'s
/// attainment tables, burn rates and exporters apply unchanged.
pub fn class_slo(class: QosClass) -> ChannelSlo {
    let max_packet = crate::standards::Standard::ALL
        .iter()
        .filter(|s| qos_class(**s) == class)
        .map(|s| s.profile().max_packet())
        .max()
        .unwrap_or(0);
    slo_rule(class.index() as u8, max_packet, class)
}

/// Per-priority-class completion-time summary. Uses each packet's
/// completion time since the start of the run — the metric that includes
/// queueing delay, which is what a dispatch policy shapes.
#[derive(Clone, Debug, Default)]
pub struct ClassLatency {
    pub class: u8,
    pub packets: usize,
    pub mean_cycles: f64,
    pub max_cycles: u64,
}

/// Summarizes a run's completion times by priority class.
pub fn latency_by_class(
    packets: &[RadioPacket],
    records: &[crate::cluster::PacketRecord],
) -> Vec<ClassLatency> {
    let mut classes: Vec<u8> = packets.iter().map(|p| p.priority).collect();
    classes.sort_unstable();
    classes.dedup();
    classes
        .into_iter()
        .map(|class| {
            let lat: Vec<u64> = records
                .iter()
                .filter(|r| packets[r.packet_idx].priority == class)
                .map(|r| r.completed_at)
                .collect();
            let n = lat.len();
            ClassLatency {
                class,
                packets: n,
                mean_cycles: if n == 0 {
                    0.0
                } else {
                    lat.iter().sum::<u64>() as f64 / n as f64
                },
                max_cycles: lat.iter().copied().max().unwrap_or(0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(priority: u8) -> RadioPacket {
        RadioPacket {
            channel: 0,
            aad: vec![],
            payload: vec![0; 16],
            priority,
            arrival_cycle: 0,
        }
    }

    #[test]
    fn class_watermarks_are_ordered() {
        let cfg = AdmissionConfig::default();
        let cap = 100;
        let be = cfg.limit(QosClass::BestEffort, cap);
        let std_ = cfg.limit(QosClass::Standard, cap);
        let crit = cfg.limit(QosClass::Critical, cap);
        assert!(be < std_ && std_ < crit);
        assert_eq!(crit, cap, "critical runs to a full queue");
    }

    #[test]
    fn admission_sheds_lower_classes_first() {
        let cfg = AdmissionConfig::default();
        // Queue at 60/100: best-effort (watermark 50) is shed, standard
        // (85) and critical still go through.
        assert!(matches!(
            cfg.admit(QosClass::BestEffort, 60, 100, 8),
            Err(AdmitError::Busy { .. })
        ));
        assert!(cfg.admit(QosClass::Standard, 60, 100, 8).is_ok());
        assert!(cfg.admit(QosClass::Critical, 60, 100, 8).is_ok());
        // A full queue sheds everything, critical included.
        assert!(cfg.admit(QosClass::Critical, 100, 100, 8).is_err());
    }

    #[test]
    fn retry_after_scales_with_backlog() {
        let cfg = AdmissionConfig::default();
        let Err(AdmitError::Busy { retry_after_pumps }) =
            cfg.admit(QosClass::BestEffort, 90, 100, 8)
        else {
            panic!("must shed")
        };
        // 41 packets past the watermark at 8 per pump → 6 pump rounds.
        assert_eq!(retry_after_pumps, 6);
    }

    #[test]
    fn standards_map_to_classes() {
        use crate::standards::Standard;
        assert_eq!(qos_class(Standard::SecureVoice), QosClass::Critical);
        assert_eq!(qos_class(Standard::Umts), QosClass::BestEffort);
        assert_eq!(qos_class(Standard::Wifi), QosClass::Standard);
        assert_eq!(QosClass::Critical.name(), "critical");
        assert!(QosClass::Critical < QosClass::BestEffort);
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let pkts = vec![pkt(2), pkt(0), pkt(1)];
        assert_eq!(DispatchPolicy::Fifo.order(&pkts), vec![0, 1, 2]);
    }

    #[test]
    fn priority_sorts_stably() {
        let pkts = vec![pkt(2), pkt(0), pkt(1), pkt(0)];
        assert_eq!(DispatchPolicy::Priority.order(&pkts), vec![1, 3, 2, 0]);
    }

    #[test]
    fn slo_derivation_scales_with_packet_size() {
        use crate::standards::Standard;
        let wifi = channel_slo(0, &Standard::Wifi.profile());
        let voice = channel_slo(3, &Standard::SecureVoice.profile());
        assert!(
            wifi.deadline_cycles > voice.deadline_cycles,
            "bigger packets get a proportionally longer deadline"
        );
        assert_eq!(voice.target_permille, 999, "voice is the tight objective");
        assert!(voice.error_budget() < wifi.error_budget());
    }

    #[test]
    fn class_summary_counts() {
        use crate::cluster::PacketRecord;
        let pkts = vec![pkt(0), pkt(1), pkt(0)];
        let records: Vec<PacketRecord> = (0..3)
            .map(|i| PacketRecord {
                packet_idx: i,
                channel: 0,
                iv: Default::default(),
                ciphertext: vec![],
                tag: Default::default(),
                latency: (i as u64 + 1) * 100,
                completed_at: (i as u64 + 1) * 100,
            })
            .collect();
        let classes = latency_by_class(&pkts, &records);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].class, 0);
        assert_eq!(classes[0].packets, 2);
        assert_eq!(classes[0].mean_cycles, 200.0); // (100 + 300) / 2
        assert_eq!(classes[1].max_cycles, 200);
    }
}
