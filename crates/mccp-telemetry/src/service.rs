//! Service-plane metrics: the typed counter set an always-on ingestion
//! front-end maintains.
//!
//! The batch layers publish per-channel series (`channel="3"`), which is
//! the right grain for a handful of radio links. A service holding a
//! million channels cannot afford — or display — a million label values,
//! so the service plane aggregates by *QoS class* instead: every
//! admission decision, shed, delivery, and deadline verdict is attributed
//! to one of a small fixed set of classes. [`ServiceCounters`] is that
//! aggregate, kept as plain fields on the hot path and published to a
//! [`Registry`] only at snapshot time (the lesson of the PR 6 DMA
//! hot-path fix: no per-event registry lookups).

use crate::metrics::{series, Registry, Snapshot};

/// Label values for the service QoS classes, in class-index order.
pub const CLASS_NAMES: [&str; 3] = ["critical", "standard", "best_effort"];

/// Per-class admission/delivery counters (index = class index).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Packets offered to the ingestion queue.
    pub offered: u64,
    /// Packets accepted past admission control.
    pub admitted: u64,
    /// Packets refused with backpressure (`Busy`/retry-after).
    pub shed: u64,
    /// Packets delivered to the caller.
    pub delivered: u64,
    /// Deliveries that missed their class deadline.
    pub deadline_violations: u64,
}

/// The service plane's counter set: channel lifecycle churn, per-class
/// admission outcomes, and slab/warm-set health.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Channels opened over the service's lifetime.
    pub opened: u64,
    /// Channels closed (graceful; the slot frees once drained).
    pub closed: u64,
    /// Submissions refused because the channel id was stale (closed, or
    /// the slot was recycled under a newer generation).
    pub stale_rejects: u64,
    /// Completions dropped because their channel closed while they were
    /// in flight — counted, never delivered to a newer generation.
    pub stale_drops: u64,
    /// Backend channel bindings evicted from the warm set to make room.
    pub binding_evictions: u64,
    /// Packets abandoned by the engine (fault plane) after admission.
    pub abandoned: u64,
    /// Live key rotations completed (epoch bumps).
    pub rekeys: u64,
    /// Modeled channel-establishment handshakes started on an engine.
    pub handshakes: u64,
    /// Channel opens refused by admission control during a handshake
    /// flash crowd (also attributed per class in `classes[..].shed`).
    pub handshake_sheds: u64,
    /// Per-class admission outcomes.
    pub classes: [ClassCounters; CLASS_NAMES.len()],
}

impl ServiceCounters {
    /// Totals across classes: (offered, admitted, shed, delivered).
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        self.classes.iter().fold((0, 0, 0, 0), |acc, c| {
            (
                acc.0 + c.offered,
                acc.1 + c.admitted,
                acc.2 + c.shed,
                acc.3 + c.delivered,
            )
        })
    }

    /// Publishes the counter set into a registry under `mccp_service_*`
    /// keys (counter_set semantics: the fields are authoritative, so
    /// re-publishing after more traffic overwrites, never double-counts).
    pub fn publish(&self, registry: &mut Registry) {
        registry.counter_set("mccp_service_opened_total", self.opened);
        registry.counter_set("mccp_service_closed_total", self.closed);
        registry.counter_set("mccp_service_stale_rejects_total", self.stale_rejects);
        registry.counter_set("mccp_service_stale_drops_total", self.stale_drops);
        registry.counter_set(
            "mccp_service_binding_evictions_total",
            self.binding_evictions,
        );
        registry.counter_set("mccp_service_abandoned_total", self.abandoned);
        registry.counter_set("mccp_service_rekeys_total", self.rekeys);
        registry.counter_set("mccp_service_handshakes_total", self.handshakes);
        registry.counter_set("mccp_service_handshake_sheds_total", self.handshake_sheds);
        for (name, c) in CLASS_NAMES.iter().zip(self.classes.iter()) {
            registry.counter_set(
                &series("mccp_service_offered_total", "class", name),
                c.offered,
            );
            registry.counter_set(
                &series("mccp_service_admitted_total", "class", name),
                c.admitted,
            );
            registry.counter_set(&series("mccp_service_shed_total", "class", name), c.shed);
            registry.counter_set(
                &series("mccp_service_delivered_total", "class", name),
                c.delivered,
            );
            registry.counter_set(
                &series("mccp_service_deadline_violations_total", "class", name),
                c.deadline_violations,
            );
        }
    }

    /// Merges two counter sets (shard roll-up).
    pub fn merge_from(&mut self, other: &ServiceCounters) {
        self.opened += other.opened;
        self.closed += other.closed;
        self.stale_rejects += other.stale_rejects;
        self.stale_drops += other.stale_drops;
        self.binding_evictions += other.binding_evictions;
        self.abandoned += other.abandoned;
        self.rekeys += other.rekeys;
        self.handshakes += other.handshakes;
        self.handshake_sheds += other.handshake_sheds;
        for (a, b) in self.classes.iter_mut().zip(other.classes.iter()) {
            a.offered += b.offered;
            a.admitted += b.admitted;
            a.shed += b.shed;
            a.delivered += b.delivered;
            a.deadline_violations += b.deadline_violations;
        }
    }
}

/// Convenience read of the published service counters from a snapshot.
pub fn shed_total(snapshot: &Snapshot) -> u64 {
    CLASS_NAMES
        .iter()
        .map(|name| snapshot.counter(&series("mccp_service_shed_total", "class", name)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_and_read_back() {
        let mut c = ServiceCounters {
            opened: 5,
            closed: 2,
            ..ServiceCounters::default()
        };
        c.classes[0].offered = 10;
        c.classes[0].admitted = 9;
        c.classes[0].shed = 1;
        c.classes[2].shed = 4;
        let mut reg = Registry::new(true);
        c.publish(&mut reg);
        // Re-publish after more traffic: counter_set overwrites.
        c.classes[0].shed = 3;
        c.publish(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("mccp_service_opened_total"), 5);
        assert_eq!(
            snap.counter("mccp_service_shed_total{class=\"critical\"}"),
            3
        );
        assert_eq!(shed_total(&snap), 7);
    }

    #[test]
    fn merge_rolls_up_shards() {
        let mut a = ServiceCounters {
            opened: 1,
            ..ServiceCounters::default()
        };
        a.classes[1].delivered = 8;
        let mut b = ServiceCounters {
            opened: 2,
            stale_drops: 1,
            ..ServiceCounters::default()
        };
        b.classes[1].delivered = 5;
        a.merge_from(&b);
        assert_eq!(a.opened, 3);
        assert_eq!(a.classes[1].delivered, 13);
        assert_eq!(a.stale_drops, 1);
        assert_eq!(a.totals().3, 13);
    }
}
