//! Deterministic fault injection for the MCCP.
//!
//! The paper's Task Scheduler assumes cores are always healthy; this
//! module supplies the adversary that assumption needs to be tested
//! against. A [`FaultPlan`] is a seeded, reproducible schedule of
//! hardware failures — wedged controllers, frozen cores, flipped FIFO
//! bits, corrupted key caches, lost DMA words — each fired at a configured
//! cycle or packet point. [`Mccp::arm_faults`](crate::Mccp::arm_faults)
//! installs a plan; every injection is emitted as a telemetry
//! `FaultInjected` event so any downstream failure is attributable to its
//! cause.
//!
//! The plan is *data*, not behavior: with no plan armed the simulator
//! executes exactly the same instruction stream as before this module
//! existed (the cycle-identity suite pins that).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where in a run a fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTrigger {
    /// When the engine clock reaches this absolute cycle.
    AtCycle(u64),
    /// When the `n`-th accepted submission (1-based) enters the engine.
    AtPacket(u64),
}

/// What breaks when a fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Drives the PicoBlaze fault flag: the controller halts mid-firmware
    /// and never reports a result (permanent until the core is reset).
    WedgeCore { core: usize },
    /// Freezes a whole core — controller, Cryptographic Unit and FIFO
    /// clocks — for `cycles` cycles. Short stalls recover on their own;
    /// stalls past the watchdog deadline get the core quarantined.
    StallCore { core: usize, cycles: u64 },
    /// Flips one bit of a word queued in a core FIFO. The hardware's
    /// per-word parity catches it and the request fails with
    /// [`MccpError::DataIntegrity`](crate::MccpError::DataIntegrity)
    /// instead of returning silently wrong bytes.
    FlipFifoBit {
        core: usize,
        /// `true` = output FIFO, `false` = input FIFO.
        output: bool,
        /// Bit position 0..32 within the queued word.
        bit: u8,
    },
    /// Marks a core's cached key schedule corrupt. The integrity check at
    /// the next dispatch to that core wipes the cache and rejects the
    /// submission with [`MccpError::KeyCorrupt`](crate::MccpError::KeyCorrupt);
    /// a retry re-expands from the write-protected Key Memory.
    CorruptKeyCache { core: usize },
    /// Loses one 32-bit word on the DMA bus into a core's input FIFO.
    /// The firmware starves waiting for data that never arrives and the
    /// watchdog fails the request at its deadline.
    DropDmaWord { core: usize },
    /// Cluster-level: the shard stops serving after `after_packets` more
    /// completions (a whole-engine outage). Ignored by a single [`Mccp`];
    /// consumed by `MccpCluster`, which redistributes the dead shard's
    /// queue.
    KillShard { shard: usize, after_packets: u64 },
}

impl FaultKind {
    /// The core an engine-level fault targets (`None` for shard kills).
    pub fn target_core(&self) -> Option<usize> {
        match *self {
            FaultKind::WedgeCore { core }
            | FaultKind::StallCore { core, .. }
            | FaultKind::FlipFifoBit { core, .. }
            | FaultKind::CorruptKeyCache { core }
            | FaultKind::DropDmaWord { core } => Some(core),
            FaultKind::KillShard { .. } => None,
        }
    }

    /// Short label for telemetry (`FaultInjected.fault`).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::WedgeCore { .. } => "wedge_core",
            FaultKind::StallCore { .. } => "stall_core",
            FaultKind::FlipFifoBit { .. } => "flip_fifo_bit",
            FaultKind::CorruptKeyCache { .. } => "corrupt_key_cache",
            FaultKind::DropDmaWord { .. } => "drop_dma_word",
            FaultKind::KillShard { .. } => "kill_shard",
        }
    }

    /// Number of fault classes the seeded generators draw from.
    /// [`FaultKind::variant_index`] is the matching exhaustive match:
    /// adding a variant without teaching the generator about it fails to
    /// compile there, and the coverage test pins that every class is
    /// actually reachable from [`FaultPlan::random_with_shards`].
    pub const VARIANTS: u32 = 6;

    /// Stable index of this fault class in `0..VARIANTS`. The match is
    /// deliberately wildcard-free so a new variant cannot be added
    /// without extending the random generators in lock-step.
    pub fn variant_index(&self) -> u32 {
        match self {
            FaultKind::WedgeCore { .. } => 0,
            FaultKind::StallCore { .. } => 1,
            FaultKind::FlipFifoBit { .. } => 2,
            FaultKind::CorruptKeyCache { .. } => 3,
            FaultKind::DropDmaWord { .. } => 4,
            FaultKind::KillShard { .. } => 5,
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEntry {
    pub trigger: FaultTrigger,
    pub kind: FaultKind,
}

/// A deterministic, seeded fault schedule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// An empty plan (arming it is a no-op).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds one entry (builder style).
    pub fn with(mut self, trigger: FaultTrigger, kind: FaultKind) -> Self {
        self.entries.push(FaultEntry { trigger, kind });
        self
    }

    /// Generates a reproducible engine-level schedule: `faults` entries
    /// spread over `n_cores` cores, cycle triggers drawn from
    /// `1..cycle_horizon` and packet triggers from `1..=packet_horizon`.
    /// The same arguments always yield the same plan. Every engine-level
    /// [`FaultKind`] is reachable; shard kills need a shard count, so use
    /// [`FaultPlan::random_with_shards`] for cluster soaks.
    pub fn random(
        seed: u64,
        faults: usize,
        n_cores: usize,
        cycle_horizon: u64,
        packet_horizon: u64,
    ) -> Self {
        FaultPlan::random_with_shards(seed, faults, n_cores, 0, cycle_horizon, packet_horizon)
    }

    /// Like [`FaultPlan::random`] but covering *every* [`FaultKind`],
    /// including cluster-level shard kills over `n_shards` shards (pass
    /// `0` to stay engine-level). The draw runs over
    /// `0..FaultKind::VARIANTS` and the constructor match is kept in sync
    /// by [`FaultKind::variant_index`]'s exhaustiveness, so a new fault
    /// class cannot be silently skipped by chaos soaks.
    pub fn random_with_shards(
        seed: u64,
        faults: usize,
        n_cores: usize,
        n_shards: usize,
        cycle_horizon: u64,
        packet_horizon: u64,
    ) -> Self {
        assert!(n_cores >= 1, "at least one core");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entries = Vec::with_capacity(faults);
        for _ in 0..faults {
            let core = rng.gen_range(0..n_cores);
            let mut pick = rng.gen_range(0..FaultKind::VARIANTS);
            if n_shards == 0 && pick == 5 {
                // No shards to kill: redraw among the engine-level kinds.
                pick = rng.gen_range(0..FaultKind::VARIANTS - 1);
            }
            let kind = match pick {
                0 => FaultKind::WedgeCore { core },
                1 => FaultKind::StallCore {
                    core,
                    cycles: rng.gen_range(1_000u64..200_000),
                },
                2 => FaultKind::FlipFifoBit {
                    core,
                    output: rng.gen_range(0..2u32) == 1,
                    bit: rng.gen_range(0..32u32) as u8,
                },
                3 => FaultKind::CorruptKeyCache { core },
                4 => FaultKind::DropDmaWord { core },
                _ => FaultKind::KillShard {
                    shard: rng.gen_range(0..n_shards),
                    after_packets: rng.gen_range(1..=packet_horizon.max(1)),
                },
            };
            debug_assert!(kind.variant_index() < FaultKind::VARIANTS);
            // Key-cache corruption is only observable at dispatch, so pin
            // it to a packet trigger; shard kills carry their own packet
            // count and the trigger is ignored by the cluster, but keep it
            // a packet trigger for symmetry. Everything else can fire
            // mid-flight.
            let trigger = match kind {
                FaultKind::CorruptKeyCache { .. } | FaultKind::KillShard { .. } => {
                    FaultTrigger::AtPacket(rng.gen_range(1..=packet_horizon.max(1)))
                }
                _ => {
                    if rng.gen_range(0..2u32) == 0 {
                        FaultTrigger::AtCycle(rng.gen_range(1..cycle_horizon.max(2)))
                    } else {
                        FaultTrigger::AtPacket(rng.gen_range(1..=packet_horizon.max(1)))
                    }
                }
            };
            entries.push(FaultEntry { trigger, kind });
        }
        FaultPlan { entries }
    }

    /// The shard-kill entries (the cluster consumes these; a lone engine
    /// ignores them).
    pub fn shard_kills(&self) -> Vec<(usize, u64)> {
        self.entries
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::KillShard {
                    shard,
                    after_packets,
                } => Some((shard, after_packets)),
                _ => None,
            })
            .collect()
    }
}

/// One attacker-shaped mutation of otherwise-legitimate traffic.
///
/// Where [`FaultKind`] models the *hardware* misbehaving, `AdversaryKind`
/// models the *network* misbehaving: frames that arrive tampered,
/// replayed, resized, or aimed at channels the attacker should not be
/// able to reach. Every class must be rejected with a typed error (or a
/// failed authentication with no plaintext released) and must burn no
/// nonce — the adversary harness in `mccp-sdr` asserts exactly that on
/// both engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdversaryKind {
    /// XORs `xor` (never zero) into ciphertext byte `byte % len`:
    /// authenticated decryption must fail and release no plaintext.
    TamperCiphertext { byte: usize, xor: u8 },
    /// Flips bit `bit % (8 * tag_len)` of the authentication tag.
    FlipTagBit { bit: u8 },
    /// Resubmits an already-delivered frame unchanged — a replayed IV the
    /// receiver's replay window must reject before the engine sees it.
    ReplayFrame,
    /// Drops `bytes` (≥ 1) from the end of the ciphertext, keeping the
    /// original tag: the length is authenticated, so auth must fail.
    TruncateFrame { bytes: usize },
    /// Appends `bytes` (≥ 1) of `fill` to the ciphertext, keeping the
    /// original tag.
    ExtendFrame { bytes: usize, fill: u8 },
    /// Submits a frame tagged with the key epoch the channel already
    /// rotated past — rejected with
    /// [`MccpError::StaleEpoch`](crate::MccpError::StaleEpoch) before any
    /// core, IV, or nonce accounting happens.
    StaleEpochSubmit,
    /// Aims a frame at a forged or recycled channel id derived from
    /// `salt` — the generational id check must reject it even when the
    /// underlying slot has been reused by a new tenant.
    ForgeChannelId { salt: u64 },
}

impl AdversaryKind {
    /// Number of attack classes; [`AdversaryKind::variant_index`] is the
    /// matching exhaustive match, keeping [`AdversaryPlan::random`] in
    /// lock-step with the enum the same way [`FaultKind::VARIANTS`] does
    /// for hardware faults.
    pub const VARIANTS: u32 = 7;

    /// Stable index of this attack class in `0..VARIANTS` (wildcard-free
    /// match — extending the enum forces the generator to follow).
    pub fn variant_index(&self) -> u32 {
        match self {
            AdversaryKind::TamperCiphertext { .. } => 0,
            AdversaryKind::FlipTagBit { .. } => 1,
            AdversaryKind::ReplayFrame => 2,
            AdversaryKind::TruncateFrame { .. } => 3,
            AdversaryKind::ExtendFrame { .. } => 4,
            AdversaryKind::StaleEpochSubmit => 5,
            AdversaryKind::ForgeChannelId { .. } => 6,
        }
    }

    /// Short label for reports and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            AdversaryKind::TamperCiphertext { .. } => "tamper_ciphertext",
            AdversaryKind::FlipTagBit { .. } => "flip_tag_bit",
            AdversaryKind::ReplayFrame => "replay_frame",
            AdversaryKind::TruncateFrame { .. } => "truncate_frame",
            AdversaryKind::ExtendFrame { .. } => "extend_frame",
            AdversaryKind::StaleEpochSubmit => "stale_epoch_submit",
            AdversaryKind::ForgeChannelId { .. } => "forge_channel_id",
        }
    }
}

/// A deterministic, seeded schedule of attack traffic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdversaryPlan {
    pub attacks: Vec<AdversaryKind>,
}

impl AdversaryPlan {
    /// An empty plan.
    pub fn new() -> Self {
        AdversaryPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.attacks.is_empty()
    }

    /// Adds one attack (builder style).
    pub fn with(mut self, kind: AdversaryKind) -> Self {
        self.attacks.push(kind);
        self
    }

    /// Generates a reproducible attack schedule. The first
    /// [`AdversaryKind::VARIANTS`] entries walk every attack class once —
    /// so even a short plan exercises the whole surface — and the
    /// remainder draws uniformly. The same arguments always yield the
    /// same plan.
    pub fn random(seed: u64, attacks: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut list = Vec::with_capacity(attacks);
        for i in 0..attacks {
            let pick = if (i as u64) < AdversaryKind::VARIANTS as u64 {
                i as u32
            } else {
                rng.gen_range(0..AdversaryKind::VARIANTS)
            };
            let kind = match pick {
                0 => AdversaryKind::TamperCiphertext {
                    byte: rng.gen_range(0..4096),
                    xor: rng.gen_range(1..=255u32) as u8,
                },
                1 => AdversaryKind::FlipTagBit {
                    bit: rng.gen_range(0..128u32) as u8,
                },
                2 => AdversaryKind::ReplayFrame,
                3 => AdversaryKind::TruncateFrame {
                    bytes: rng.gen_range(1..=16),
                },
                4 => AdversaryKind::ExtendFrame {
                    bytes: rng.gen_range(1..=16),
                    fill: rng.gen_range(0..=255u32) as u8,
                },
                5 => AdversaryKind::StaleEpochSubmit,
                _ => AdversaryKind::ForgeChannelId {
                    salt: rng.gen_range(0..u64::MAX),
                },
            };
            debug_assert!(kind.variant_index() < AdversaryKind::VARIANTS);
            list.push(kind);
        }
        AdversaryPlan { attacks: list }
    }
}

/// The armed half of a plan inside a running engine: the entries not yet
/// fired.
pub(crate) struct FaultState {
    pending: Vec<FaultEntry>,
}

impl FaultState {
    /// Arms a plan. Shard-kill entries are dropped here — they belong to
    /// the cluster dispatcher, not to a single engine.
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        FaultState {
            pending: plan
                .entries
                .iter()
                .filter(|e| !matches!(e.kind, FaultKind::KillShard { .. }))
                .copied()
                .collect(),
        }
    }

    /// Removes and returns every entry due at or before `cycle`.
    pub(crate) fn take_due_cycle(&mut self, cycle: u64) -> Vec<FaultEntry> {
        let mut due = Vec::new();
        self.pending.retain(|e| match e.trigger {
            FaultTrigger::AtCycle(c) if c <= cycle => {
                due.push(*e);
                false
            }
            _ => true,
        });
        due
    }

    /// Removes and returns every entry due at or before accepted
    /// submission number `packet` (1-based).
    pub(crate) fn take_due_packet(&mut self, packet: u64) -> Vec<FaultEntry> {
        let mut due = Vec::new();
        self.pending.retain(|e| match e.trigger {
            FaultTrigger::AtPacket(p) if p <= packet => {
                due.push(*e);
                false
            }
            _ => true,
        });
        due
    }

    /// The earliest pending cycle trigger, if any — a bound the
    /// fast-forward horizon must not leap past.
    pub(crate) fn next_cycle_trigger(&self) -> Option<u64> {
        self.pending
            .iter()
            .filter_map(|e| match e.trigger {
                FaultTrigger::AtCycle(c) => Some(c),
                FaultTrigger::AtPacket(_) => None,
            })
            .min()
    }

    /// True when every entry has fired.
    pub(crate) fn exhausted(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic() {
        let a = FaultPlan::random(42, 8, 4, 100_000, 50);
        let b = FaultPlan::random(42, 8, 4, 100_000, 50);
        assert_eq!(a, b);
        assert_eq!(a.entries.len(), 8);
        let c = FaultPlan::random(43, 8, 4, 100_000, 50);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn random_plan_targets_valid_cores() {
        let plan = FaultPlan::random(7, 32, 3, 10_000, 20);
        for e in &plan.entries {
            let core = e.kind.target_core().expect("engine-level only");
            assert!(core < 3, "{e:?}");
            match e.trigger {
                FaultTrigger::AtCycle(c) => assert!((1..10_000).contains(&c)),
                FaultTrigger::AtPacket(p) => assert!((1..=20).contains(&p)),
            }
        }
    }

    #[test]
    fn random_covers_every_engine_level_kind() {
        // Satellite contract: the seeded generator must be able to emit
        // every fault class, so chaos soaks can't silently skip one.
        let plan = FaultPlan::random(3, 512, 4, 100_000, 64);
        let mut seen = [false; FaultKind::VARIANTS as usize];
        for e in &plan.entries {
            seen[e.kind.variant_index() as usize] = true;
        }
        for (i, hit) in seen.iter().enumerate().take(5) {
            assert!(hit, "engine-level fault class {i} never generated");
        }
        assert!(!seen[5], "no shard kills when n_shards == 0");
    }

    #[test]
    fn random_with_shards_covers_every_kind() {
        let plan = FaultPlan::random_with_shards(3, 512, 4, 2, 100_000, 64);
        let mut seen = [false; FaultKind::VARIANTS as usize];
        for e in &plan.entries {
            seen[e.kind.variant_index() as usize] = true;
            if let FaultKind::KillShard { shard, .. } = e.kind {
                assert!(shard < 2, "{e:?}");
            }
        }
        for (i, hit) in seen.iter().enumerate() {
            assert!(hit, "fault class {i} never generated");
        }
        assert!(!plan.shard_kills().is_empty());
    }

    #[test]
    fn adversary_plans_are_deterministic_and_exhaustive() {
        let a = AdversaryPlan::random(11, 64);
        let b = AdversaryPlan::random(11, 64);
        assert_eq!(a, b);
        assert_ne!(a, AdversaryPlan::random(12, 64), "seeds diverge");
        // The leading deck walks every attack class once, so even the
        // shortest full plan exercises the whole surface.
        let short = AdversaryPlan::random(0, AdversaryKind::VARIANTS as usize);
        let mut seen = [false; AdversaryKind::VARIANTS as usize];
        for k in &short.attacks {
            seen[k.variant_index() as usize] = true;
        }
        for (i, hit) in seen.iter().enumerate() {
            assert!(hit, "attack class {i} never generated");
        }
        // Structural invariants the harness relies on.
        for k in a.attacks.iter().chain(&short.attacks) {
            match *k {
                AdversaryKind::TamperCiphertext { xor, .. } => assert_ne!(xor, 0),
                AdversaryKind::TruncateFrame { bytes }
                | AdversaryKind::ExtendFrame { bytes, .. } => assert!(bytes >= 1),
                _ => {}
            }
        }
    }

    #[test]
    fn state_fires_each_entry_once() {
        let plan = FaultPlan::new()
            .with(FaultTrigger::AtCycle(10), FaultKind::WedgeCore { core: 0 })
            .with(
                FaultTrigger::AtPacket(2),
                FaultKind::CorruptKeyCache { core: 1 },
            )
            .with(
                FaultTrigger::AtCycle(20),
                FaultKind::DropDmaWord { core: 2 },
            );
        let mut st = FaultState::new(&plan);
        assert_eq!(st.next_cycle_trigger(), Some(10));
        assert!(st.take_due_cycle(5).is_empty());
        assert_eq!(st.take_due_cycle(10).len(), 1);
        assert_eq!(st.next_cycle_trigger(), Some(20));
        assert_eq!(st.take_due_packet(2).len(), 1);
        assert!(st.take_due_packet(2).is_empty(), "fires once");
        assert_eq!(st.take_due_cycle(100).len(), 1);
        assert!(st.exhausted());
    }

    #[test]
    fn shard_kills_split_from_engine_entries() {
        let plan = FaultPlan::new()
            .with(
                FaultTrigger::AtPacket(1),
                FaultKind::KillShard {
                    shard: 1,
                    after_packets: 5,
                },
            )
            .with(FaultTrigger::AtCycle(9), FaultKind::WedgeCore { core: 0 });
        assert_eq!(plan.shard_kills(), vec![(1, 5)]);
        let st = FaultState::new(&plan);
        assert_eq!(st.pending.len(), 1, "kill entries stay with the cluster");
    }
}
