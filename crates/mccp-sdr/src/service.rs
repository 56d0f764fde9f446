//! The always-on service plane: open/submit/pump/close over a sharded
//! generational slab, with bounded ingestion queues and QoS admission.
//!
//! The batch replayer ([`MccpCluster`](crate::cluster::MccpCluster)) runs
//! a finished workload to completion and exits — fine for benchmarking,
//! wrong for a deployed multi-channel terminal that holds sessions open
//! for hours and sees traffic arrive continuously. [`MccpService`] is the
//! long-lived front-end, and the only one with a channel lifecycle:
//!
//! * **State** — channels live in per-shard [`ChannelSlab`]s keyed by
//!   generational [`ServiceChannelId`]s, so 100k+ mostly-idle sessions
//!   cost only their slab entry and no stale handle can ever address a
//!   recycled slot. Only the *hot* channels hold an engine binding, kept
//!   in the channel's slab entry and bounded per shard by an LRU over the
//!   engine handles (the service-level analogue of the hardware's Key
//!   Cache).
//! * **Ingestion** — each shard fronts its engine with a bounded FIFO.
//!   Admission control sheds by QoS class at configurable watermarks
//!   ([`AdmissionConfig`]): best-effort first, secure voice last, with an
//!   explicit [`ServiceError::Busy`] retry-after verdict instead of
//!   silent loss or unbounded memory.
//! * **IV discipline** — every open draws a fresh salt from a monotonic
//!   sequence, so a recycled slot never re-issues an IV even under an
//!   identical key; IVs are committed at admission, in queue order.
//! * **Key lifecycle** — [`MccpService::rekey`] rotates a session key
//!   live: the rotation is a FIFO marker, so packets admitted before it
//!   finish under the old key/epoch and packets after it under the new,
//!   with zero drops and zero nonce reuse (the IV counter runs on).
//!   Opens can carry a modeled ECC handshake cost
//!   ([`ServiceConfig::handshake_cycles`]) admitted through the same QoS
//!   watermarks and overlapped with live traffic by the engine.
//! * **Delivery** — completions are tagged with the *submit-time*
//!   [`ServiceChannelId`] carried through the engine, never the slot's
//!   current occupant, so a drained-and-recycled slot cannot receive
//!   another session's ciphertext.
//!
//! Closing is graceful: a draining channel refuses new submissions and
//! frees its slot (bumping the generation and zeroizing the key) once the
//! last queued and in-flight packet has completed.

use std::collections::{HashMap, VecDeque};

use crate::channel::SecureChannel;
use crate::qos::{class_slo, qos_class, AdmissionConfig, AdmitError, QosClass};
use crate::slab::{ChannelSlab, ChannelStats, LiveChannel, ServiceChannelId, SlabError};
use crate::standards::Standard;
use mccp_core::format::Direction;
use mccp_core::protocol::{ChannelId, KeyId, MccpError, RequestId};
use mccp_core::ChannelBackend;
use mccp_telemetry::service::ServiceCounters;
use mccp_telemetry::slo::{ChannelAttainment, SloEngine};
use mccp_telemetry::Snapshot;

/// Service-plane tuning knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Engine shards (each shard owns one backend, one slab, one queue).
    pub shards: usize,
    /// Per-shard ingestion-queue bound, packets.
    pub queue_capacity: usize,
    /// Packets each shard feeds its engine per [`MccpService::pump`] call
    /// — the shard's service rate, and the unit `retry_after_pumps` is
    /// quoted in.
    pub drain_budget: usize,
    /// Engine bindings kept warm per shard, 1 to 254: the engines run out
    /// of channel handles at 256.
    pub warm_set_capacity: usize,
    /// QoS admission watermarks.
    pub admission: AdmissionConfig,
    /// Cycles each shard's engine may advance per pump while it has work.
    pub step_bound: u64,
    /// Modeled channel-establishment cost in engine cycles (the ECC
    /// scalar multiplication of [`mccp_core::model::ECC_SCALAR_MULT_CYCLES`]).
    /// `None` keeps the legacy instant open. When set, every open runs
    /// through QoS admission (a flash crowd of opens sheds best-effort
    /// before critical) and the engine overlaps the handshake with live
    /// traffic instead of stalling it.
    pub handshake_cycles: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 2,
            queue_capacity: 256,
            drain_budget: 32,
            warm_set_capacity: 64,
            admission: AdmissionConfig::default(),
            step_bound: 4096,
            handshake_cycles: None,
        }
    }
}

/// Why a service call failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The channel id does not name a live channel (never opened, closed,
    /// or its slot was recycled under a newer generation).
    Stale,
    /// The channel is draining after [`MccpService::close`]; no new
    /// submissions.
    Draining,
    /// Admission control shed the packet; retry after the given number of
    /// [`MccpService::pump`] rounds.
    Busy { retry_after_pumps: u64 },
    /// The shard's slab is at capacity.
    SlabFull,
    /// The engine refused the work with a non-backpressure error.
    Backend(MccpError),
}

/// One completed packet, delivered back to the caller.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// The channel as identified *at submission* — generation-exact, so a
    /// recycled slot can never receive a previous session's output.
    pub channel: ServiceChannelId,
    pub class: QosClass,
    /// Opaque caller correlation token from [`MccpService::submit`].
    pub user_tag: u64,
    /// The IV the packet was encrypted under (callers verifying against a
    /// software oracle need it; it is not secret).
    pub iv: Vec<u8>,
    pub auth_ok: bool,
    /// The channel key epoch the ciphertext was produced under — callers
    /// verifying against a software oracle pick the matching key of a
    /// rotation history with it.
    pub epoch: u32,
    /// Ciphertext.
    pub body: Vec<u8>,
    /// Authentication tag (empty for unauthenticated modes).
    pub tag: Vec<u8>,
    /// Engine-clock latency (0 on the functional engine).
    pub latency_cycles: u64,
}

/// Point-in-time service health for reports and benches.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    pub backend: &'static str,
    pub counters: ServiceCounters,
    /// Live channels across all shards.
    pub occupancy: usize,
    /// Slab high-water slot count across all shards.
    pub slab_capacity: usize,
    /// Engine bindings currently warm.
    pub warm_bindings: usize,
    /// Warm-set hit/miss counters, summed over shards (evictions are
    /// `counters.binding_evictions`).
    pub binding_stats: BindingStats,
    /// Per-shard ingestion-queue depths.
    pub queue_depths: Vec<usize>,
    /// Per-QoS-class SLO attainment (channel field = class index).
    pub attainment: Vec<ChannelAttainment>,
}

/// How often a packet or handshake found its channel's engine binding warm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BindingStats {
    pub hits: u64,
    pub misses: u64,
}

/// A packet admitted past the front door, waiting for engine capacity.
struct QueuedPacket {
    id: ServiceChannelId,
    iv: Vec<u8>,
    aad: Vec<u8>,
    body: Vec<u8>,
    user_tag: u64,
}

/// One entry of a shard's FIFO ingestion queue. Lifecycle transitions
/// ride the same queue as traffic, so their ordering relative to packets
/// is *exact*: every packet admitted before a [`QueueItem::Rekey`] marker
/// reaches the engine under the old key and epoch, everything after under
/// the new — no drops, no ambiguity, no nonce reuse (the IV counter runs
/// on across the rotation).
enum QueueItem {
    Packet(QueuedPacket),
    /// Key-rotation marker: when it drains, the channel's epoch bumps,
    /// the old key is zeroized, and a warm engine binding is rekeyed in
    /// place (in-flight engine work finishes on the old key — the cycle
    /// engine binds keys at submit).
    Rekey {
        id: ServiceChannelId,
        new_key: Vec<u8>,
    },
    /// Establishment marker: when it drains, the engine starts the
    /// modeled ECC handshake for the channel; packets reaching the engine
    /// before the handshake horizon passes are requeued, not dropped.
    Handshake {
        id: ServiceChannelId,
    },
}

/// A packet the engine has accepted; keyed by the engine's [`RequestId`].
struct InFlight {
    id: ServiceChannelId,
    class: QosClass,
    /// Channel key epoch at engine-accept time (the key the ciphertext is
    /// actually produced under).
    epoch: u32,
    iv: Vec<u8>,
    user_tag: u64,
}

/// Engine cycles a packet refused with `NoResource` may wait for a core —
/// counted as the cycles `step` advanced — before its shard abandons it.
/// A healthy engine frees a core within one packet time (under 20 000
/// cycles for 2 KiB); the longest legitimate wait is a partial
/// reconfiguration landing, at most Table IV's slowest load (Whirlpool
/// from CompactFlash, 416 ms ≈ 79M cycles at 190 MHz). 200M cycles
/// (≈ 1.05 s modeled) clears that with a queue of packets behind it.
const BACKPRESSURE_BUDGET_CYCLES: u64 = 200_000_000;

/// Engine handles are `u8`: this many can be bound at once.
const ENGINE_HANDLES: usize = 256;
/// Every bound handle's channel is live: closing unbinds it.
const BOUND: &str = "bound channels are live";

struct ServiceShard<B> {
    backend: B,
    slab: ChannelSlab,
    queue: VecDeque<QueueItem>,
    /// The warm set's recency table, indexed by engine handle: the service
    /// channel bound to it and that binding's last-use stamp. The binding
    /// itself lives in the channel's slab entry (`chan.handle`).
    recency: Vec<Option<(ServiceChannelId, u64)>>,
    /// Bound handles (the `Some` entries of `recency`).
    warm: usize,
    binding_stats: BindingStats,
    pending: HashMap<RequestId, InFlight>,
}

impl<B: ChannelBackend> ServiceShard<B> {
    /// Stamps `handle` as bound to `id` by the bind just counted: the
    /// bind count is the LRU clock, so stamps are unique.
    fn touch(&mut self, handle: ChannelId, id: ServiceChannelId) {
        let stamp = self.binding_stats.hits + self.binding_stats.misses;
        self.recency[usize::from(handle.0)] = Some((id, stamp));
    }

    /// Returns the warm engine handle for `id`, opening (and, at
    /// capacity, evicting the least-recently-used *idle* binding) on a
    /// miss.
    fn bind(
        &mut self,
        id: ServiceChannelId,
        warm_capacity: usize,
        handshake_cycles: Option<u64>,
        counters: &mut ServiceCounters,
    ) -> Result<ChannelId, MccpError> {
        if let Some(handle) = self.slab.get(id).expect("caller validated id").chan.handle {
            self.binding_stats.hits += 1;
            self.touch(handle, id);
            return Ok(handle);
        }
        self.evict_idle_bindings(warm_capacity - 1, counters);
        let live = self.slab.get(id).expect("caller validated id");
        let profile = live.standard.profile();
        // An unestablished channel pays the modeled ECC handshake on its
        // first binding; the engine runs it on the asymmetric unit, off
        // the crypto cores, so live traffic overlaps with it for free.
        let handle = match (live.established, handshake_cycles) {
            (false, Some(hs)) => self.backend.open_channel_handshake(
                profile.algorithm,
                &live.key,
                profile.tag_len,
                hs,
            )?,
            _ => self
                .backend
                .open_channel(profile.algorithm, &live.key, profile.tag_len)?,
        };
        self.slab.get_mut(id).expect("live").chan.handle = Some(handle);
        self.binding_stats.misses += 1;
        self.warm += 1;
        self.touch(handle, id);
        Ok(handle)
    }

    /// Closes `handle` on the engine and drops it from the warm set.
    fn unbind(&mut self, handle: ChannelId) {
        let _ = self.backend.close_channel(handle);
        self.recency[usize::from(handle.0)] = None;
        self.warm -= 1;
    }

    /// Frees a fully drained channel: unbinds the engine handle, frees the
    /// slot (bumping its generation), and zeroizes the session key.
    fn finish_close(&mut self, id: ServiceChannelId, counters: &mut ServiceCounters) {
        let mut dead = self.slab.free(id).expect("caller validated id");
        if let Some(handle) = dead.chan.handle {
            self.unbind(handle);
        }
        dead.key.iter_mut().for_each(|b| *b = 0);
        counters.closed += 1;
    }

    /// Terminal accounting for a packet that never reached the engine:
    /// releases its queue pin and finishes the close if that was the last
    /// thing holding a draining channel open.
    fn settle_unplaced(&mut self, id: ServiceChannelId, counters: &mut ServiceCounters) {
        let Ok(live) = self.slab.get_mut(id) else {
            return;
        };
        live.queued -= 1;
        if live.draining && live.is_idle() {
            self.finish_close(id, counters);
        }
    }

    /// Drains engine completions into deliveries.
    fn collect(
        &mut self,
        counters: &mut ServiceCounters,
        slo: &mut SloEngine,
        out: &mut Vec<Delivery>,
    ) {
        while let Some(c) = self.backend.poll_completion() {
            let Some(inf) = self.pending.remove(&c.request) else {
                continue;
            };
            let now = self.backend.now();
            let class_idx = inf.class.index();
            let mut drained = false;
            match self.slab.get_mut(inf.id) {
                Err(SlabError::Stale | SlabError::Full) => {
                    // The channel is gone; its output must not leak to
                    // whatever lives in the slot now.
                    counters.stale_drops += 1;
                    continue;
                }
                Ok(live) => {
                    live.in_flight -= 1;
                    if c.fault.is_some() {
                        counters.abandoned += 1;
                        slo.record_abandonment(class_idx as u8, now);
                    } else {
                        live.stats.delivered += 1;
                        live.stats.bytes += c.body.len() as u64;
                        counters.classes[class_idx].delivered += 1;
                        slo.record_completion(class_idx as u8, now, c.latency_cycles);
                        if let Some(s) = slo.slo(class_idx as u8) {
                            if c.latency_cycles > s.deadline_cycles {
                                counters.classes[class_idx].deadline_violations += 1;
                            }
                        }
                        out.push(Delivery {
                            channel: inf.id,
                            class: inf.class,
                            user_tag: inf.user_tag,
                            iv: inf.iv,
                            auth_ok: c.auth_ok,
                            epoch: inf.epoch,
                            body: c.body,
                            tag: c.tag,
                            latency_cycles: c.latency_cycles,
                        });
                    }
                    if live.draining && live.is_idle() {
                        drained = true;
                    }
                }
            }
            if drained {
                self.finish_close(inf.id, counters);
            }
        }
    }

    /// The drain budget scaled by live core availability: a shard whose
    /// engine has cores quarantined or mid-reconfiguration serves
    /// proportionally fewer packets per pump, and both the pump and QoS
    /// admission must see that capacity dip (earlier backpressure for the
    /// lower classes, honest retry-after estimates).
    fn effective_drain_budget(&self, cfg_budget: usize) -> usize {
        let h = self.backend.health();
        if h.cores == 0 {
            return cfg_budget;
        }
        (cfg_budget * h.available() / h.cores).max(1)
    }

    /// One shard pump: feed up to `drain_budget` queued packets to the
    /// engine, advance its clock, and collect completions.
    fn pump(
        &mut self,
        cfg: &ServiceConfig,
        counters: &mut ServiceCounters,
        slo: &mut SloEngine,
        out: &mut Vec<Delivery>,
    ) {
        let budget = self
            .effective_drain_budget(cfg.drain_budget)
            .min(self.queue.len());
        for _ in 0..budget {
            let pkt = match self.queue.pop_front().expect("budget <= len") {
                QueueItem::Rekey { id, mut new_key } => {
                    // FIFO position *is* the epoch boundary: every packet
                    // ahead of this marker has already reached the engine
                    // under the old key.
                    match self.slab.get_mut(id) {
                        Err(_) => {
                            // Channel drained away first; the key never
                            // got installed anywhere, scrub our copy.
                            new_key.iter_mut().for_each(|b| *b = 0);
                        }
                        Ok(live) => {
                            live.key.iter_mut().for_each(|b| *b = 0);
                            live.key = new_key;
                            live.epoch += 1;
                            counters.rekeys += 1;
                            if let Some(handle) = live.chan.handle {
                                // In-flight engine work still finishes on
                                // the old key (the engines bind keys at
                                // submit); only new submissions see this.
                                let _ = self.backend.rekey_channel(handle, &live.key);
                            }
                        }
                    }
                    continue;
                }
                QueueItem::Handshake { id } => {
                    let needs = matches!(self.slab.get(id), Ok(l) if !l.established);
                    if needs
                        && self
                            .bind(id, cfg.warm_set_capacity, cfg.handshake_cycles, counters)
                            .is_ok()
                    {
                        self.slab.get_mut(id).expect("live").established = true;
                        counters.handshakes += 1;
                    }
                    continue;
                }
                QueueItem::Packet(pkt) => pkt,
            };
            // `queued > 0` pins the slot for the whole time the packet is
            // being placed — it only drops once the packet reaches a
            // terminal state (accepted by the engine, or abandoned), so a
            // draining channel can never free underneath us even when
            // `collect` runs inside the backpressure retry loop below.
            let pid = pkt.id;
            let class = match self.slab.get(pid) {
                Err(_) => {
                    counters.stale_drops += 1;
                    continue;
                }
                Ok(live) => live.class,
            };
            let handle = match self.bind(pid, cfg.warm_set_capacity, cfg.handshake_cycles, counters)
            {
                Ok(h) => h,
                Err(_) => {
                    counters.abandoned += 1;
                    slo.record_abandonment(class.index() as u8, self.backend.now());
                    self.settle_unplaced(pid, counters);
                    continue;
                }
            };
            // The engine applies its own backpressure (every core busy):
            // wait in `step` (it returns once a resubmission can land),
            // collect, resubmit. Progress is guaranteed while the engine
            // drains; the cycle budget turns a wedged engine into an
            // abandoned packet instead of a hung service.
            let mut accepted = false;
            let mut requeued = false;
            let mut waited = 0u64;
            while waited <= BACKPRESSURE_BUDGET_CYCLES {
                match self.backend.submit_packet(
                    handle,
                    Direction::Encrypt,
                    &pkt.iv,
                    &pkt.aad,
                    &pkt.body,
                    None,
                ) {
                    Ok(req) => {
                        // Epoch read at accept time: the binding's key was
                        // rekeyed in lock-step with `live.epoch`, so this
                        // tag names the key the ciphertext is under.
                        let live = self.slab.get_mut(pid).expect("queued pins the slot");
                        self.pending.insert(
                            req,
                            InFlight {
                                id: pid,
                                class,
                                epoch: live.epoch,
                                iv: pkt.iv.clone(),
                                user_tag: pkt.user_tag,
                            },
                        );
                        live.queued -= 1;
                        live.in_flight += 1;
                        accepted = true;
                        break;
                    }
                    Err(MccpError::NoResource) => {
                        // At least one cycle per wait, so an engine that
                        // breaks `step`'s progress contract still runs out
                        // the budget.
                        waited += self.backend.step(cfg.step_bound).max(1);
                        self.collect(counters, slo, out);
                    }
                    Err(MccpError::HandshakePending) => {
                        // Establishment still running on the asymmetric
                        // unit: nudge the clock and requeue behind other
                        // traffic, which keeps flowing — the handshake is
                        // overlapped, never a head-of-line stall.
                        self.collect(counters, slo, out);
                        self.backend.step(cfg.step_bound);
                        self.queue.push_back(QueueItem::Packet(pkt));
                        requeued = true;
                        break;
                    }
                    Err(_) => break,
                }
            }
            if requeued {
                continue;
            }
            if !accepted {
                counters.abandoned += 1;
                slo.record_abandonment(class.index() as u8, self.backend.now());
                self.settle_unplaced(pid, counters);
            }
        }
        if self.backend.in_flight() > 0 {
            self.backend.step(cfg.step_bound);
        }
        self.collect(counters, slo, out);
        self.evict_idle_bindings(cfg.warm_set_capacity, counters);
    }

    /// Closes the least-recently-used bindings whose channel has nothing
    /// in flight until at most `keep` remain. A busy engine channel cannot
    /// close, so it is skipped; if every binding is busy the warm set
    /// overshoots rather than deadlocks, and the next round's trim
    /// restores the bound once completions drain.
    fn evict_idle_bindings(&mut self, keep: usize, counters: &mut ServiceCounters) {
        while self.warm > keep {
            // Min-scan of the recency table over the idle bindings: no
            // allocation, no sort.
            let victim = self
                .recency
                .iter()
                .enumerate()
                .filter_map(|(handle, entry)| entry.map(|(vid, stamp)| (handle, vid, stamp)))
                .filter(|&(_, vid, _)| self.slab.get(vid).expect(BOUND).in_flight == 0)
                .min_by_key(|&(_, _, stamp)| stamp);
            let Some((handle, vid, _)) = victim else {
                break;
            };
            self.unbind(ChannelId(handle as u8));
            self.slab.get_mut(vid).expect(BOUND).chan.handle = None;
            counters.binding_evictions += 1;
        }
    }
}

/// The always-on multi-channel crypto service.
pub struct MccpService<B: ChannelBackend> {
    shards: Vec<ServiceShard<B>>,
    config: ServiceConfig,
    /// Monotonic salt sequence: every open gets a distinct salt, which is
    /// what makes IV reuse on a recycled slot impossible (the IV embeds
    /// the salt for every mode with an IV at all).
    salt_seq: u32,
    /// Round-robin shard placement cursor.
    placed: u64,
    counters: ServiceCounters,
    slo: SloEngine,
}

impl<B: ChannelBackend> MccpService<B> {
    /// Builds a service over per-shard engines from `make_backend(shard)`.
    pub fn new(config: ServiceConfig, make_backend: impl FnMut(usize) -> B) -> Self {
        assert!(config.shards > 0, "at least one shard");
        assert!(
            config.shards <= ServiceChannelId::MAX_SHARDS,
            "shard index must fit the id encoding"
        );
        assert!(config.queue_capacity > 0, "queue must hold at least one");
        assert!(
            (1..ENGINE_HANDLES - 1).contains(&config.warm_set_capacity),
            "warm_set_capacity must be 1 to 254"
        );
        let shards: Vec<ServiceShard<B>> = (0..config.shards)
            .map(make_backend)
            .enumerate()
            .map(|(i, backend)| ServiceShard {
                backend,
                slab: ChannelSlab::new(i),
                queue: VecDeque::with_capacity(config.queue_capacity),
                recency: vec![None; ENGINE_HANDLES],
                warm: 0,
                binding_stats: BindingStats::default(),
                pending: HashMap::new(),
            })
            .collect();
        let slo = SloEngine::new(QosClass::ALL.map(class_slo));
        MccpService {
            shards,
            config,
            salt_seq: 0,
            placed: 0,
            counters: ServiceCounters::default(),
            slo,
        }
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Live channels across all shards.
    pub fn occupancy(&self) -> usize {
        self.shards.iter().map(|s| s.slab.len()).sum()
    }

    /// OPEN: creates a session running `standard` under `key`, placed
    /// round-robin across shards. The returned id is generation-exact:
    /// after [`close`](Self::close) drains it, every operation on it
    /// fails [`ServiceError::Stale`].
    pub fn open(
        &mut self,
        standard: Standard,
        key: &[u8],
    ) -> Result<ServiceChannelId, ServiceError> {
        let shard = (self.placed % self.shards.len() as u64) as usize;
        let class = qos_class(standard);
        if self.config.handshake_cycles.is_some() {
            // An establishment costs a modeled ECC scalar multiplication,
            // so opens are admitted like traffic: a flash crowd of them
            // sheds best-effort channels first and critical ones last.
            let s = &self.shards[shard];
            let cfg_budget = s.effective_drain_budget(self.config.drain_budget);
            if let Err(AdmitError::Busy { retry_after_pumps }) = self.config.admission.admit(
                class,
                s.queue.len(),
                self.config.queue_capacity,
                cfg_budget,
            ) {
                self.counters.classes[class.index()].shed += 1;
                self.counters.handshake_sheds += 1;
                return Err(ServiceError::Busy { retry_after_pumps });
            }
        }
        self.salt_seq = self.salt_seq.wrapping_add(1);
        let profile = standard.profile();
        let live = LiveChannel {
            standard,
            chan: SecureChannel::new(profile, KeyId(0), self.salt_seq),
            key: key.to_vec(),
            class,
            epoch: 0,
            established: self.config.handshake_cycles.is_none(),
            in_flight: 0,
            queued: 0,
            draining: false,
            stats: ChannelStats::default(),
        };
        let id = self.shards[shard]
            .slab
            .insert(live)
            .map_err(|_| ServiceError::SlabFull)?;
        if self.config.handshake_cycles.is_some() {
            // The marker rides the FIFO ahead of any packet this channel
            // can enqueue, so the engine-side handshake always starts
            // before its first submission arrives.
            self.shards[shard]
                .queue
                .push_back(QueueItem::Handshake { id });
        }
        self.placed += 1;
        self.counters.opened += 1;
        Ok(id)
    }

    /// REKEY: rotates the channel's session key live. The rotation is a
    /// marker in the shard's FIFO: every packet admitted before this call
    /// reaches the engine under the old key and epoch, every packet
    /// admitted after under the new — zero drops, and zero nonce reuse
    /// because the IV counter runs on across the boundary. The old key is
    /// zeroized when the marker drains; in-flight engine work finishes on
    /// the old key (the engines bind keys at submit).
    pub fn rekey(&mut self, id: ServiceChannelId, new_key: &[u8]) -> Result<(), ServiceError> {
        let shard = self.shards.get_mut(id.shard()).ok_or(ServiceError::Stale)?;
        let live = match shard.slab.get(id) {
            Ok(l) => l,
            Err(_) => {
                self.counters.stale_rejects += 1;
                return Err(ServiceError::Stale);
            }
        };
        if live.draining {
            return Err(ServiceError::Draining);
        }
        let wanted = live.standard.profile().algorithm.key_size().key_bytes();
        if new_key.len() != wanted {
            return Err(ServiceError::Backend(MccpError::BadKey));
        }
        shard.queue.push_back(QueueItem::Rekey {
            id,
            new_key: new_key.to_vec(),
        });
        Ok(())
    }

    /// CLOSE: marks the channel draining. New submissions are refused
    /// immediately; the slot frees (generation bump, key zeroized) once
    /// every queued and in-flight packet has completed. Idempotent while
    /// draining.
    pub fn close(&mut self, id: ServiceChannelId) -> Result<(), ServiceError> {
        let shard = self.shards.get_mut(id.shard()).ok_or(ServiceError::Stale)?;
        let live = shard.slab.get_mut(id).map_err(|_| ServiceError::Stale)?;
        live.draining = true;
        if live.is_idle() {
            shard.finish_close(id, &mut self.counters);
        }
        Ok(())
    }

    /// ENCRYPT: offers one packet. On admission the packet's IV is
    /// committed (queue order = IV order) and it joins the shard's bounded
    /// queue; [`ServiceError::Busy`] is the backpressure verdict with a
    /// retry-after estimate in pump rounds.
    pub fn submit(
        &mut self,
        id: ServiceChannelId,
        aad: &[u8],
        payload: &[u8],
        user_tag: u64,
    ) -> Result<(), ServiceError> {
        let cfg_cap = self.config.queue_capacity;
        let shard = self.shards.get_mut(id.shard()).ok_or(ServiceError::Stale)?;
        // Admission judges the queue against the *effective* service rate:
        // a reconfiguration-induced capacity dip shortens the budget and
        // backpressure arrives earlier (and retry-after honestly longer).
        let cfg_budget = shard.effective_drain_budget(self.config.drain_budget);
        let live = match shard.slab.get_mut(id) {
            Ok(l) => l,
            Err(_) => {
                self.counters.stale_rejects += 1;
                return Err(ServiceError::Stale);
            }
        };
        if live.draining {
            return Err(ServiceError::Draining);
        }
        let class = live.class;
        self.counters.classes[class.index()].offered += 1;
        if let Err(AdmitError::Busy { retry_after_pumps }) =
            self.config
                .admission
                .admit(class, shard.queue.len(), cfg_cap, cfg_budget)
        {
            self.counters.classes[class.index()].shed += 1;
            return Err(ServiceError::Busy { retry_after_pumps });
        }
        let iv = live.chan.next_iv();
        live.queued += 1;
        live.stats.admitted += 1;
        self.counters.classes[class.index()].admitted += 1;
        shard.queue.push_back(QueueItem::Packet(QueuedPacket {
            id,
            iv,
            aad: aad.to_vec(),
            body: payload.to_vec(),
            user_tag,
        }));
        Ok(())
    }

    /// One service round: every shard feeds up to `drain_budget` queued
    /// packets to its engine, advances the engine clock, and collects
    /// completions. Returns the round's deliveries.
    pub fn pump(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        for shard in &mut self.shards {
            shard.pump(&self.config, &mut self.counters, &mut self.slo, &mut out);
        }
        out
    }

    /// Pumps until every queue is empty and every in-flight packet has
    /// completed (or `max_rounds` is hit). Returns all deliveries.
    pub fn quiesce(&mut self, max_rounds: usize) -> Vec<Delivery> {
        let mut out = Vec::new();
        for _ in 0..max_rounds {
            out.extend(self.pump());
            let busy = self
                .shards
                .iter()
                .any(|s| !s.queue.is_empty() || !s.pending.is_empty());
            if !busy {
                break;
            }
        }
        out
    }

    /// Point-in-time health: lifecycle counters, slab occupancy, warm-set
    /// behaviour, queue depths, and per-class SLO attainment.
    pub fn report(&self) -> ServiceReport {
        let mut binding_stats = BindingStats::default();
        for s in &self.shards {
            binding_stats.hits += s.binding_stats.hits;
            binding_stats.misses += s.binding_stats.misses;
        }
        let now = self
            .shards
            .iter()
            .map(|s| s.backend.now())
            .max()
            .unwrap_or(0);
        ServiceReport {
            backend: self.shards[0].backend.backend_name(),
            counters: self.counters,
            occupancy: self.occupancy(),
            slab_capacity: self.shards.iter().map(|s| s.slab.capacity()).sum(),
            warm_bindings: self.shards.iter().map(|s| s.warm).sum(),
            binding_stats,
            queue_depths: self.shards.iter().map(|s| s.queue.len()).collect(),
            attainment: self.slo.attainment(now, now.max(1)),
        }
    }

    /// Service + engine metrics in one snapshot: publishes the service
    /// counters into the merged engine registries (when engine telemetry
    /// is enabled) or a standalone registry otherwise.
    pub fn telemetry_snapshot(&mut self) -> Snapshot {
        let mut merged = Snapshot::default();
        for s in &mut self.shards {
            if s.backend.telemetry_enabled() {
                merged.merge_from(&s.backend.telemetry_snapshot());
            }
        }
        let mut reg = mccp_telemetry::Registry::new(true);
        self.counters.publish(&mut reg);
        merged.merge_from(&reg.snapshot());
        merged
    }

    /// The per-channel accounting for a live channel.
    pub fn channel_stats(&self, id: ServiceChannelId) -> Result<ChannelStats, ServiceError> {
        let shard = self.shards.get(id.shard()).ok_or(ServiceError::Stale)?;
        shard
            .slab
            .get(id)
            .map(|l| l.stats)
            .map_err(|_| ServiceError::Stale)
    }

    /// Direct read of the lifecycle/admission counters.
    pub fn counters(&self) -> &ServiceCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccp_core::{FunctionalBackend, Mccp, MccpConfig};

    fn functional_service(cfg: ServiceConfig) -> MccpService<FunctionalBackend> {
        MccpService::new(cfg, |_| FunctionalBackend::new())
    }

    fn cycle_service(cfg: ServiceConfig) -> MccpService<Mccp> {
        MccpService::new(cfg, |_| {
            Mccp::new(MccpConfig {
                n_cores: 2,
                ..MccpConfig::default()
            })
        })
    }

    #[test]
    fn open_submit_pump_deliver() {
        let mut svc = functional_service(ServiceConfig::default());
        let id = svc.open(Standard::Wimax, &[7u8; 16]).unwrap();
        svc.submit(id, b"hdr", b"payload bytes", 42).unwrap();
        let out = svc.quiesce(64);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].channel, id);
        assert_eq!(out[0].user_tag, 42);
        assert!(out[0].auth_ok);
        assert_eq!(out[0].body.len(), 13);
        assert_eq!(out[0].tag.len(), 16);
        assert_eq!(
            svc.counters().classes[QosClass::Standard.index()].delivered,
            1
        );
    }

    #[test]
    fn engines_produce_identical_ciphertext() {
        let mut f = functional_service(ServiceConfig::default());
        let mut c = cycle_service(ServiceConfig::default());
        let key = [0x5Au8; 16];
        let fid = f.open(Standard::Wifi, &key).unwrap();
        let cid = c.open(Standard::Wifi, &key).unwrap();
        assert_eq!(fid, cid, "open sequences allocate identical ids");
        for tag in 0..4u64 {
            f.submit(fid, b"hd", &[tag as u8; 100], tag).unwrap();
            c.submit(cid, b"hd", &[tag as u8; 100], tag).unwrap();
        }
        let mut fo = f.quiesce(256);
        let mut co = c.quiesce(256);
        fo.sort_by_key(|d| d.user_tag);
        co.sort_by_key(|d| d.user_tag);
        assert_eq!(fo.len(), 4);
        for (a, b) in fo.iter().zip(co.iter()) {
            assert_eq!(a.iv, b.iv, "IV sequences must match across engines");
            assert_eq!(a.body, b.body);
            assert_eq!(a.tag, b.tag);
        }
    }

    #[test]
    fn stale_id_is_rejected_after_drain() {
        let mut svc = functional_service(ServiceConfig::default());
        let id = svc.open(Standard::Umts, &[1u8; 16]).unwrap();
        svc.submit(id, b"", &[0u8; 40], 0).unwrap();
        svc.close(id).unwrap();
        // Draining: no new submissions, but the queued packet still lands.
        assert_eq!(
            svc.submit(id, b"", &[0u8; 40], 1),
            Err(ServiceError::Draining)
        );
        let out = svc.quiesce(64);
        assert_eq!(out.len(), 1, "graceful close delivers queued work");
        assert_eq!(svc.occupancy(), 0, "slot freed after drain");
        assert_eq!(svc.submit(id, b"", &[0u8; 40], 2), Err(ServiceError::Stale));
        assert_eq!(svc.close(id), Err(ServiceError::Stale));
        assert_eq!(svc.counters().closed, 1);
        assert_eq!(svc.counters().stale_rejects, 1);
    }

    #[test]
    fn recycled_slot_gets_fresh_salt_and_generation() {
        let mut svc = functional_service(ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        });
        let key = [9u8; 16];
        let a = svc.open(Standard::Wimax, &key).unwrap();
        svc.submit(a, b"", &[1u8; 64], 0).unwrap();
        let iv_a = svc.quiesce(64)[0].iv.clone();
        svc.close(a).unwrap();
        let b = svc.open(Standard::Wimax, &key).unwrap();
        assert_eq!(a.slot(), b.slot(), "slot recycled");
        assert_ne!(a.generation(), b.generation());
        svc.submit(b, b"", &[1u8; 64], 0).unwrap();
        let iv_b = svc.quiesce(64)[0].iv.clone();
        assert_ne!(iv_a, iv_b, "recycled slot must never reuse an IV");
    }

    #[test]
    fn admission_sheds_best_effort_before_critical() {
        let mut svc = functional_service(ServiceConfig {
            shards: 1,
            queue_capacity: 10,
            drain_budget: 4,
            ..ServiceConfig::default()
        });
        let be = svc.open(Standard::Umts, &[2u8; 16]).unwrap();
        let crit = svc.open(Standard::SecureVoice, &[3u8; 32]).unwrap();
        // Fill to the best-effort watermark (50% of 10 = 5).
        let mut shed = 0;
        for i in 0..8 {
            if svc.submit(be, b"", &[0u8; 40], i).is_err() {
                shed += 1;
            }
        }
        assert_eq!(shed, 3, "best-effort shed past its watermark");
        // Critical still admits into the same queue.
        assert!(svc.submit(crit, b"v", &[0u8; 20], 99).is_ok());
        let c = svc.counters();
        assert_eq!(c.classes[QosClass::BestEffort.index()].shed, 3);
        assert_eq!(c.classes[QosClass::Critical.index()].shed, 0);
        let out = svc.quiesce(64);
        assert_eq!(out.len(), 6, "admitted packets all deliver");
    }

    #[test]
    fn warm_set_evicts_idle_bindings_under_churn() {
        let mut svc = functional_service(ServiceConfig {
            shards: 1,
            warm_set_capacity: 4,
            ..ServiceConfig::default()
        });
        let ids: Vec<_> = (0..12)
            .map(|i| svc.open(Standard::Wifi, &[i as u8; 16]).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            svc.submit(*id, b"h", &[0u8; 64], i as u64).unwrap();
        }
        let out = svc.quiesce(256);
        assert_eq!(out.len(), 12);
        let r = svc.report();
        assert!(r.warm_bindings <= 4, "bound by warm_set_capacity");
        assert!(r.counters.binding_evictions >= 8);
        assert_eq!(r.binding_stats.misses, 12, "each channel rebinds once");
        // Resubmitting on a warm channel hits the binding.
        let hot = ids[11];
        svc.submit(hot, b"h", &[0u8; 64], 100).unwrap();
        svc.quiesce(64);
        assert!(svc.report().binding_stats.hits >= 1);
    }

    /// Binds four channels on one shard with two warm bindings in a fixed
    /// order and returns who was evicted, in order, with the shard's
    /// stats. Channel 0 is the least-recently-used binding but in flight
    /// when channel 2 binds (the third bind), so 1 goes instead; a hit on
    /// 0 then leaves 2 the LRU binding.
    fn scripted_evictions() -> (Vec<usize>, BindingStats, u64) {
        let mut svc = functional_service(ServiceConfig {
            shards: 1,
            warm_set_capacity: 2,
            ..ServiceConfig::default()
        });
        let ids: Vec<_> = (0..4u8)
            .map(|i| svc.open(Standard::Wifi, &[i; 16]).unwrap())
            .collect();
        let shard = &mut svc.shards[0];
        let mut counters = ServiceCounters::default();
        let mut evicted = Vec::new();
        let bound =
            |s: &ServiceShard<_>, i: usize| s.slab.get(ids[i]).unwrap().chan.handle.is_some();
        for (step, ch) in [0, 1, 2, 0, 3, 1].into_iter().enumerate() {
            shard.slab.get_mut(ids[0]).unwrap().in_flight = u32::from(step == 2);
            let before: Vec<usize> = (0..ids.len()).filter(|&i| bound(shard, i)).collect();
            shard.bind(ids[ch], 2, None, &mut counters).unwrap();
            evicted.extend(before.into_iter().filter(|&i| !bound(shard, i)));
        }
        (evicted, shard.binding_stats, counters.binding_evictions)
    }

    #[test]
    fn warm_set_evicts_the_least_recently_used_idle_binding() {
        let (evicted, stats, evictions) = scripted_evictions();
        assert_eq!(evicted, [1, 2, 0], "busy LRU skipped, hit refreshed");
        assert_eq!(stats, BindingStats { hits: 1, misses: 5 });
        assert_eq!(evictions, 3);
    }

    #[test]
    fn warm_set_eviction_is_deterministic_across_runs() {
        assert_eq!(scripted_evictions(), scripted_evictions());
    }

    #[test]
    #[should_panic(expected = "warm_set_capacity must be 1 to 254")]
    fn warm_set_capacity_zero_is_rejected() {
        functional_service(ServiceConfig {
            warm_set_capacity: 0,
            ..ServiceConfig::default()
        });
    }

    #[test]
    fn hundred_k_idle_channels_are_cheap_to_hold() {
        let mut svc = functional_service(ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        });
        let key = [0u8; 32];
        for _ in 0..100_000 {
            svc.open(Standard::SecureVoice, &key).unwrap();
        }
        assert_eq!(svc.occupancy(), 100_000);
        let r = svc.report();
        assert_eq!(r.warm_bindings, 0, "idle channels hold no engine binding");
        // A few of them can still serve immediately.
        let id = svc.open(Standard::SecureVoice, &key).unwrap();
        svc.submit(id, b"v", &[1u8; 20], 0).unwrap();
        assert_eq!(svc.quiesce(64).len(), 1);
    }

    #[test]
    fn class_slo_attainment_is_reported() {
        let mut svc = cycle_service(ServiceConfig::default());
        let id = svc.open(Standard::SecureVoice, &[4u8; 32]).unwrap();
        for i in 0..3 {
            svc.submit(id, b"v", &[0u8; 20], i).unwrap();
        }
        let out = svc.quiesce(4096);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|d| d.latency_cycles > 0));
        let r = svc.report();
        let crit = r
            .attainment
            .iter()
            .find(|a| a.channel == QosClass::Critical.index() as u8)
            .unwrap();
        assert_eq!(crit.packets, 3);
        assert_eq!(crit.target_permille, 999);
    }

    #[test]
    fn live_rekey_is_epoch_exact_and_lossless() {
        // The same rekey sequence on both engines: packets admitted before
        // the rotation deliver under epoch 0, after under epoch 1, nothing
        // drops, ciphertext stays byte-identical across engines.
        let mut f = functional_service(ServiceConfig::default());
        let mut c = cycle_service(ServiceConfig::default());
        let k0 = [0x11u8; 16];
        let k1 = [0x99u8; 16];
        let fid = f.open(Standard::Wifi, &k0).unwrap();
        let cid = c.open(Standard::Wifi, &k0).unwrap();
        for tag in 0..3u64 {
            f.submit(fid, b"hd", &[7u8; 80], tag).unwrap();
            c.submit(cid, b"hd", &[7u8; 80], tag).unwrap();
        }
        f.rekey(fid, &k1).unwrap();
        c.rekey(cid, &k1).unwrap();
        for tag in 3..6u64 {
            f.submit(fid, b"hd", &[7u8; 80], tag).unwrap();
            c.submit(cid, b"hd", &[7u8; 80], tag).unwrap();
        }
        let mut fo = f.quiesce(1024);
        let mut co = c.quiesce(1024);
        fo.sort_by_key(|d| d.user_tag);
        co.sort_by_key(|d| d.user_tag);
        assert_eq!(fo.len(), 6, "zero drops across the rotation");
        assert_eq!(co.len(), 6);
        for (a, b) in fo.iter().zip(co.iter()) {
            let want_epoch = if a.user_tag < 3 { 0 } else { 1 };
            assert_eq!(a.epoch, want_epoch, "tag {}", a.user_tag);
            assert_eq!(b.epoch, want_epoch);
            assert_eq!(a.iv, b.iv);
            assert_eq!(a.body, b.body, "engines diverge at tag {}", a.user_tag);
            assert_eq!(a.tag, b.tag);
        }
        // IVs never repeat across the rotation (the counter runs on).
        let ivs: std::collections::HashSet<_> = fo.iter().map(|d| d.iv.clone()).collect();
        assert_eq!(ivs.len(), 6, "zero nonce reuse");
        assert_eq!(f.counters().rekeys, 1);
        // Rekey validation: wrong key size and dead channels are refused.
        assert_eq!(
            f.rekey(fid, &[1u8; 32]),
            Err(ServiceError::Backend(MccpError::BadKey))
        );
        f.close(fid).unwrap();
        f.quiesce(64);
        assert_eq!(f.rekey(fid, &k1), Err(ServiceError::Stale));
    }

    #[test]
    fn handshake_flash_crowd_sheds_best_effort_before_critical() {
        let mut svc = functional_service(ServiceConfig {
            shards: 1,
            queue_capacity: 10,
            drain_budget: 4,
            handshake_cycles: Some(mccp_core::model::ECC_SCALAR_MULT_CYCLES),
            ..ServiceConfig::default()
        });
        // A flash crowd of best-effort opens: each queues a handshake
        // marker, so admission pushes back once the watermark is crossed.
        let mut opened = 0;
        let mut shed = 0;
        for _ in 0..9 {
            match svc.open(Standard::Umts, &[2u8; 16]) {
                Ok(_) => opened += 1,
                Err(ServiceError::Busy { .. }) => shed += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(shed > 0, "flash crowd must hit the watermark");
        assert!(opened >= 5);
        // Critical voice still establishes through the same full queue.
        assert!(svc.open(Standard::SecureVoice, &[3u8; 32]).is_ok());
        let c = svc.counters();
        assert_eq!(c.handshake_sheds, shed);
        assert_eq!(c.classes[QosClass::BestEffort.index()].shed, shed);
        assert_eq!(c.classes[QosClass::Critical.index()].shed, 0);
        svc.quiesce(64);
        assert_eq!(svc.counters().handshakes, opened + 1);
    }

    #[test]
    fn handshake_overlaps_with_live_traffic() {
        // One channel pays the modeled ECC establishment while another is
        // mid-traffic: the handshaking channel's packet is deferred (not
        // dropped) and other traffic keeps flowing.
        let mut svc = cycle_service(ServiceConfig {
            shards: 1,
            handshake_cycles: Some(20_000),
            ..ServiceConfig::default()
        });
        let a = svc.open(Standard::Wifi, &[5u8; 16]).unwrap();
        let b = svc.open(Standard::Wifi, &[6u8; 16]).unwrap();
        svc.submit(a, b"", &[1u8; 64], 1).unwrap();
        svc.submit(b, b"", &[2u8; 64], 2).unwrap();
        let out = svc.quiesce(4096);
        assert_eq!(out.len(), 2, "handshake defers, never drops");
        assert_eq!(svc.counters().handshakes, 2);
        assert_eq!(svc.counters().abandoned, 0);
    }

    #[test]
    fn telemetry_snapshot_carries_service_counters() {
        let mut svc = functional_service(ServiceConfig::default());
        let id = svc.open(Standard::Wimax, &[8u8; 16]).unwrap();
        svc.submit(id, b"", &[0u8; 64], 0).unwrap();
        svc.quiesce(64);
        let snap = svc.telemetry_snapshot();
        assert_eq!(snap.counter("mccp_service_opened_total"), 1);
        assert_eq!(
            snap.counter("mccp_service_admitted_total{class=\"standard\"}"),
            1
        );
    }

    #[test]
    fn backpressure_budget_abandons_a_packet_on_a_stalled_engine() {
        use mccp_core::reconfig::{BitstreamSource, WHIRLPOOL_BITSTREAM};
        use mccp_core::{FaultKind, FaultPlan, FaultTrigger};
        // The budget clears the longest legitimate wait for a core.
        let slowest_swap = WHIRLPOOL_BITSTREAM.load_time_cycles(BitstreamSource::CompactFlash);
        assert!(BACKPRESSURE_BUDGET_CYCLES > slowest_swap);
        // Once four packets hold all four cores, every core stalls for
        // good: the fifth packet waits in `step` until the budget runs out.
        let plan = (0..4).fold(FaultPlan::new(), |plan, core| {
            plan.with(
                FaultTrigger::AtPacket(4),
                FaultKind::StallCore {
                    core,
                    cycles: u64::MAX,
                },
            )
        });
        let mut svc = MccpService::new(
            ServiceConfig {
                shards: 1,
                ..ServiceConfig::default()
            },
            |_| {
                let mut m = Mccp::new(MccpConfig::default());
                m.arm_faults(&plan);
                m
            },
        );
        let id = svc.open(Standard::Wimax, &[3u8; 16]).unwrap();
        for tag in 0..5 {
            svc.submit(id, b"", &[0u8; 256], tag).unwrap();
        }
        assert!(svc.pump().is_empty(), "stalled cores deliver nothing");
        assert_eq!(svc.counters().abandoned, 1);
        let shard = &svc.shards[0];
        let live = shard.slab.get(id).unwrap();
        assert_eq!(live.queued, 0, "the abandoned packet released its pin");
        assert_eq!(live.in_flight, 4);
        // The wait is bounded in engine cycles: the budget, plus at most
        // one step of overshoot and the pump's closing step.
        let now = shard.backend.now();
        let step = ServiceConfig::default().step_bound;
        assert!(now > BACKPRESSURE_BUDGET_CYCLES, "waited {now} cycles");
        assert!(
            now <= BACKPRESSURE_BUDGET_CYCLES + 2 * step,
            "waited {now} cycles"
        );
        assert!(shard.queue.is_empty());
    }
}
