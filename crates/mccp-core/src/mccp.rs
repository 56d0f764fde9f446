//! The Multi-Core Crypto-Processor top level (paper Fig. 1): the Task
//! Scheduler, the Cross Bar, the Key Scheduler/Memory and `n`
//! Cryptographic Cores, simulated in lock step at the modeled 190 MHz.
//!
//! This file is the thin facade: construction, configuration, telemetry
//! access and the convenience packet API. The machinery lives in sibling
//! modules, all extending `impl Mccp`:
//!
//! * [`scheduler`](crate::scheduler) — the per-cycle state machine
//!   ([`tick`](Mccp::tick)), core allocation, and the event-driven fast
//!   path ([`quiescent_horizon`](Mccp::quiescent_horizon) /
//!   [`skip`](Mccp::skip) and the `run_*` helpers);
//! * [`dma`](crate::dma) — word-per-cycle FIFO upload with backpressure
//!   accounting and the streaming drain;
//! * [`dispatch`](crate::dispatch) — the control protocol (OPEN / REKEY /
//!   CLOSE, ENCRYPT / DECRYPT submission, RETRIEVE_DATA / TRANSFER_DONE)
//!   and partial reconfiguration.
//!
//! *Substitution note:* the paper's Task Scheduler is itself an 8-bit
//! controller executing scheduling software; here the scheduling **policy**
//! (first-idle dispatch, §III.C) is implemented directly in Rust and its
//! decisions take effect between clock cycles. Key-expansion latency and
//! all datapath timing remain cycle-accurate; only the scheduler's own
//! instruction-execution overhead (a few dozen cycles per packet, identical
//! for every architecture compared) is abstracted away.

use crate::backend::{CoreHealth, EngineHealth};
use crate::core_unit::CryptoCore;
use crate::crossbar::CrossBar;
use crate::dispatch::Channel;
use crate::fault::{FaultPlan, FaultState};
use crate::format::Direction;
use crate::key::{KeyMemory, KeyScheduler};
use crate::protocol::{ChannelId, KeyId, MccpError, RequestId};
use crate::reconfig::{PolicyEngine, ReconfigController};
use crate::scheduler::{ReqState, RequestTable};
use mccp_telemetry::{metrics, Event, Snapshot, Telemetry};
use std::collections::{BTreeMap, VecDeque};

/// MCCP construction parameters.
#[derive(Clone, Debug)]
pub struct MccpConfig {
    /// Number of Cryptographic Cores (the paper implements 4; "more or
    /// less than four cores may be implemented", §III.A).
    pub n_cores: usize,
    /// FIFO depth in 32-bit words (512 = one 2048-byte packet).
    pub fifo_depth: usize,
    /// Prefer the two-core CCM schedule when an adjacent pair is idle
    /// (lower latency); otherwise CCM runs on a single core (higher
    /// aggregate throughput — the paper's 4×1 vs 2×2 trade-off, §VII.A).
    pub ccm_two_core: bool,
}

impl Default for MccpConfig {
    fn default() -> Self {
        MccpConfig {
            n_cores: 4,
            fifo_depth: 512,
            ccm_two_core: false,
        }
    }
}

/// The result of a completed encryption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncryptedPacket {
    pub ciphertext: Vec<u8>,
    pub tag: Vec<u8>,
    /// Clock cycles from submission to Data Available.
    pub cycles: u64,
}

/// The result of a completed decryption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecryptedPacket {
    pub plaintext: Vec<u8>,
    pub cycles: u64,
}

/// The MCCP.
pub struct Mccp {
    pub(crate) config: MccpConfig,
    pub(crate) cores: Vec<CryptoCore>,
    /// `mailboxes[i]`: inter-core port from core `i` to core `i+1 (mod n)`.
    pub(crate) mailboxes: Vec<Option<[u8; 16]>>,
    pub(crate) key_memory: KeyMemory,
    pub(crate) key_scheduler: KeyScheduler,
    pub(crate) crossbar: CrossBar,
    pub(crate) channels: BTreeMap<u8, Channel>,
    pub(crate) requests: RequestTable,
    pub(crate) next_request: u16,
    pub(crate) cycle: u64,
    pub(crate) data_available: VecDeque<RequestId>,
    pub(crate) telemetry: Telemetry,
    /// Per-core partial-reconfiguration controllers and the cycle each
    /// in-flight reconfiguration began.
    pub(crate) reconfigs: Vec<ReconfigController>,
    pub(crate) reconfig_started: Vec<u64>,
    /// Demand-driven reconfiguration policy (`None` = manual
    /// reconfiguration only, the pre-policy behavior).
    pub(crate) policy: Option<PolicyEngine>,
    /// Event-driven fast path: when set, the `run_*` helpers leap over
    /// spans where every component is provably quiescent instead of
    /// ticking cycle by cycle. Cycle counts, outputs and telemetry are
    /// identical either way; see [`quiescent_horizon`](Self::quiescent_horizon).
    pub(crate) fast_forward: bool,
    /// Armed fault schedule (`None` = fault plane off: zero cost, zero
    /// behavioral difference).
    pub(crate) faults: Option<FaultState>,
    /// Watchdog margin: a request's deadline is `margin ×` its modeled
    /// worst-case cycle bound. `None` disables the watchdog.
    pub(crate) watchdog_margin: Option<u32>,
    /// Cores with an injected one-word DMA loss pending (consumed by the
    /// next word transfer toward that core).
    pub(crate) pending_dma_drops: Vec<usize>,
    /// Accepted submissions, 1-based (drives `FaultTrigger::AtPacket`).
    pub(crate) packets_submitted: u64,
    /// Rekeyed-away session keys awaiting erase: each is zeroized the
    /// moment no channel binding and no undrained request names it.
    pub(crate) retiring_keys: Vec<KeyId>,
    /// Per-channel packet ordinals (1-based), for failure attribution.
    pub(crate) channel_seq: BTreeMap<u8, u64>,
    /// Stage-attribution accumulators for the cycle profiler, per core.
    /// These are architectural counters (they advance identically with
    /// telemetry on or off) published as `mccp_stage_cycles` gauges at
    /// snapshot time, alongside the CU-internal stage counters.
    pub(crate) stage_key_expand: Vec<u64>,
    pub(crate) stage_reconfig_stall: Vec<u64>,
    pub(crate) stage_quarantine_idle: Vec<u64>,
    /// DMA totals, also architectural: incremented on the word-transfer
    /// hot path as plain adds (a registry map lookup per word costs ~7%
    /// wall clock) and published as counters at snapshot time.
    pub(crate) dma_words: u64,
    pub(crate) dma_backpressure_cycles: u64,
    /// Per-personality demand (indexed by `reconfig::personality_index`)
    /// of the last submission if it was refused with `NoResource`, else
    /// zero: while the caller waits in `step` the packet stays offered, one
    /// policy sample per scheduling quantum, as if resubmitted each time.
    pub(crate) waiting_demand: [u32; 3],
    /// The earliest pending channel-handshake horizon (`u64::MAX` when
    /// none): `step` ends its wait there, since submissions on that channel
    /// turn from `HandshakePending` to accepted. May be stale after a close
    /// (the wait then ends early once and recomputes it).
    pub(crate) handshake_due: u64,
}

impl Mccp {
    /// Builds an MCCP.
    ///
    /// # Panics
    /// Panics on a zero-core or zero-depth configuration.
    pub fn new(config: MccpConfig) -> Self {
        assert!(config.n_cores >= 1, "at least one core");
        assert!(config.fifo_depth >= 16, "FIFO too shallow for one block");
        let cores = (0..config.n_cores)
            .map(|i| CryptoCore::new(i, config.fifo_depth))
            .collect();
        Mccp {
            mailboxes: vec![None; config.n_cores],
            cores,
            key_memory: KeyMemory::new(),
            key_scheduler: KeyScheduler::new(),
            crossbar: CrossBar::new(),
            channels: BTreeMap::new(),
            requests: RequestTable::default(),
            next_request: 1,
            cycle: 0,
            data_available: VecDeque::new(),
            telemetry: Telemetry::disabled(),
            reconfigs: vec![ReconfigController::new(); config.n_cores],
            reconfig_started: vec![0; config.n_cores],
            policy: None,
            fast_forward: true,
            faults: None,
            watchdog_margin: None,
            pending_dma_drops: Vec::new(),
            packets_submitted: 0,
            retiring_keys: Vec::new(),
            channel_seq: BTreeMap::new(),
            stage_key_expand: vec![0; config.n_cores],
            stage_reconfig_stall: vec![0; config.n_cores],
            stage_quarantine_idle: vec![0; config.n_cores],
            dma_words: 0,
            dma_backpressure_cycles: 0,
            waiting_demand: [0; 3],
            handshake_due: u64::MAX,
            config,
        }
    }

    /// Enables the typed telemetry pipeline: cycle-stamped
    /// [`Event`](mccp_telemetry::Event)s (keeping the most recent
    /// `capacity` in the ring buffer), the metrics registry and
    /// per-request spans. Zero overhead until called.
    pub fn enable_telemetry(&mut self, capacity: usize) {
        self.telemetry = Telemetry::with_capacity(capacity);
        // FIFO high-water gauges count from here on.
        for core in &mut self.cores {
            core.input.reset_high_water();
            core.output.reset_high_water();
        }
    }

    /// The telemetry sink (events, spans, registry).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable telemetry access (draining events, adding custom metrics).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Publishes the scheduler-owned gauges (cycles, per-core busy/wipe
    /// counts, controller retirement/sleep accounting, per-op Crypto Unit
    /// retirements, key expansions, crossbar switches) and returns a
    /// deterministic snapshot of the whole registry.
    pub fn telemetry_snapshot(&mut self) -> Snapshot {
        if self.telemetry.is_enabled() {
            let reg = self.telemetry.registry_mut();
            reg.gauge_set("mccp_cycles", self.cycle);
            reg.gauge_set("mccp_key_expansions", self.key_scheduler.expansions());
            reg.gauge_set("mccp_crossbar_switches", self.crossbar.switches());
            // DMA totals accumulate in plain fields on the word-transfer
            // hot path; publish them with counter semantics here.
            if self.dma_words > 0 {
                reg.counter_set("mccp_dma_words_total", self.dma_words);
            }
            if self.dma_backpressure_cycles > 0 {
                reg.counter_set(
                    "mccp_dma_backpressure_cycles_total",
                    self.dma_backpressure_cycles,
                );
            }
            // Reconfiguration-policy demand plane (plain fields on the
            // submission hot path, published here like the DMA totals).
            if let Some(pe) = &self.policy {
                let counters = mccp_telemetry::DemandCounters {
                    offered: pe.offered_total(),
                    served: pe.served_total(),
                    swaps: pe.swaps(),
                    swap_stall_cycles: self.stage_reconfig_stall.iter().sum(),
                };
                counters.publish(reg);
            }
            for (i, core) in self.cores.iter().enumerate() {
                let core_label = |name: &str| metrics::series(name, "core", i);
                reg.gauge_set(&core_label("mccp_core_busy_cycles"), core.busy_cycles());
                reg.gauge_set(&core_label("mccp_core_wipes"), core.wipes());
                reg.gauge_set(
                    &core_label("mccp_core_controller_retired"),
                    core.controller_retired(),
                );
                reg.gauge_set(
                    &core_label("mccp_core_controller_sleep_cycles"),
                    core.controller_sleep_cycles(),
                );
                for (op, &count) in mccp_cryptounit::isa::MNEMONICS
                    .iter()
                    .zip(core.cu_op_counts().iter())
                {
                    if count > 0 {
                        reg.gauge_set(&format!("mccp_cu_ops{{core=\"{i}\",op=\"{op}\"}}"), count);
                    }
                }
                // Stage attribution (shard → core → stage cycle profile).
                // A still-quarantined core contributes its live fenced span.
                let quarantine_idle = self.stage_quarantine_idle[i]
                    + core
                        .quarantined_at()
                        .map_or(0, |q| self.cycle.saturating_sub(q));
                let stages = [
                    ("key_expand", self.stage_key_expand[i]),
                    ("aes_rounds", core.cu_aes_busy_cycles()),
                    ("ghash", core.cu_ghash_busy_cycles()),
                    ("fifo_wait", core.cu_fg_wait_cycles()),
                    ("reconfig_stall", self.stage_reconfig_stall[i]),
                    ("quarantine_idle", quarantine_idle),
                ];
                for (stage, cycles) in stages {
                    if cycles > 0 {
                        reg.gauge_set(
                            &format!("mccp_stage_cycles{{core=\"{i}\",stage=\"{stage}\"}}"),
                            cycles,
                        );
                    }
                }
            }
            // FIFO occupancy high-water marks, tracked by the FIFOs where
            // their level changes (pushes), not sampled per tick.
            for (i, core) in self.cores.iter().enumerate() {
                self.telemetry.observe_fifo_levels(
                    i,
                    core.input.high_water(),
                    core.output.high_water(),
                );
            }
        }
        self.telemetry.snapshot()
    }

    /// The main controller's write path into the Key Memory.
    pub fn key_memory_mut(&mut self) -> &mut KeyMemory {
        &mut self.key_memory
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Enables or disables the event-driven fast path used by the `run_*`
    /// helpers. Enabled by default; disabling forces the per-tick
    /// reference schedule (useful for equivalence testing).
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Whether the event-driven fast path is enabled.
    pub fn fast_forward(&self) -> bool {
        self.fast_forward
    }

    /// Configuration.
    pub fn config(&self) -> &MccpConfig {
        &self.config
    }

    /// Access to a core (reports, reconfiguration experiments).
    pub fn core(&self, i: usize) -> &CryptoCore {
        &self.cores[i]
    }

    /// Mutable core access (reconfiguration).
    pub fn core_mut(&mut self, i: usize) -> &mut CryptoCore {
        &mut self.cores[i]
    }

    /// Crossbar state (architecture report).
    pub fn crossbar(&self) -> &CrossBar {
        &self.crossbar
    }

    /// Total key expansions the Key Scheduler has performed (cache-miss
    /// accounting for the Key Cache ablation).
    pub fn expansions(&self) -> u64 {
        self.key_scheduler.expansions()
    }

    // ------------------------------------------------------------------
    // Fault plane
    // ------------------------------------------------------------------

    /// Arms a fault schedule. Entries fire at their configured cycle or
    /// accepted-packet points; shard-kill entries are ignored here (they
    /// belong to the cluster dispatcher). Arming an empty plan disarms.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        let state = FaultState::new(plan);
        self.faults = if state.exhausted() { None } else { Some(state) };
    }

    /// Arms the per-request watchdog: a request whose completion overruns
    /// `margin ×` its modeled worst-case cycle bound is failed with
    /// [`MccpError::Deadline`] and its cores are quarantined. A margin
    /// below 1 is clamped to 1.
    pub fn arm_watchdog(&mut self, margin: u32) {
        self.watchdog_margin = Some(margin.max(1));
    }

    /// Core-pool health: total cores, the quarantined subset, and the
    /// cores mid-reconfiguration (a transient capacity dip).
    pub fn health(&self) -> EngineHealth {
        EngineHealth {
            cores: self.cores.len(),
            quarantined: self
                .cores
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    c.quarantined_at().map(|q| CoreHealth {
                        core: i,
                        quarantined_at: q,
                    })
                })
                .collect(),
            reconfiguring: self
                .reconfigs
                .iter()
                .filter(|rc| rc.is_reconfiguring())
                .count(),
        }
    }

    /// Total cycles cores have spent stalled in partial reconfiguration
    /// (the Table IV load latencies, as charged by completed swaps).
    pub fn reconfig_stall_cycles(&self) -> u64 {
        self.stage_reconfig_stall.iter().sum()
    }

    /// Hard-resets a core — the recovery path for quarantined cores. The
    /// controller, Cryptographic Unit, FIFOs and key cache all come back
    /// to power-on state; the next dispatch re-expands the channel key.
    ///
    /// Errors with [`MccpError::Busy`] while a live request still
    /// references the core or a reconfiguration is in flight, and
    /// [`MccpError::NoResource`] for an out-of-range index.
    pub fn reset_core(&mut self, core: usize) -> Result<(), MccpError> {
        if core >= self.cores.len() {
            return Err(MccpError::NoResource);
        }
        if self.reconfigs[core].is_reconfiguring() {
            return Err(MccpError::Busy);
        }
        let referenced = self
            .requests
            .values()
            .any(|r| r.cores.contains(&core) && !matches!(r.state, ReqState::Retrieved));
        if referenced {
            return Err(MccpError::Busy);
        }
        if let Some(q) = self.cores[core].quarantined_at() {
            self.stage_quarantine_idle[core] += self.cycle.saturating_sub(q);
        }
        self.cores[core].hard_reset();
        let cycle = self.cycle;
        self.telemetry
            .emit_with(cycle, || Event::CoreReset { core });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Convenience packet API
    // ------------------------------------------------------------------

    /// Encrypts one packet end-to-end (submit → simulate → retrieve →
    /// transfer-done) and reports the latency.
    pub fn encrypt_packet(
        &mut self,
        channel: ChannelId,
        aad: &[u8],
        payload: &[u8],
        iv: &[u8],
    ) -> Result<EncryptedPacket, MccpError> {
        let id = self.submit(channel, Direction::Encrypt, iv, aad, payload, None)?;
        let cycles = self.run_until_done(id, 10_000_000);
        let out = self.retrieve(id)?;
        self.transfer_done(id)?;
        Ok(EncryptedPacket {
            ciphertext: out.body,
            tag: out.tag.map(|t| t.to_vec()).unwrap_or_default(),
            cycles,
        })
    }

    /// Decrypts one packet end-to-end; `Err(AuthFail)` wipes the output.
    pub fn decrypt_packet(
        &mut self,
        channel: ChannelId,
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
        iv: &[u8],
    ) -> Result<DecryptedPacket, MccpError> {
        let id = self.submit(channel, Direction::Decrypt, iv, aad, ciphertext, Some(tag))?;
        let cycles = self.run_until_done(id, 10_000_000);
        let out = self.retrieve(id);
        self.transfer_done(id)?;
        Ok(DecryptedPacket {
            plaintext: out?.body,
            cycles,
        })
    }

    /// Number of requests currently holding cores.
    pub fn active_requests(&self) -> usize {
        self.requests
            .values()
            .filter(|r| !matches!(r.state, ReqState::Retrieved))
            .count()
    }

    /// True when the request has terminated (Data Available or failed).
    pub fn is_done(&self, id: RequestId) -> bool {
        self.requests
            .get(&id.0)
            .map(|r| {
                matches!(
                    r.state,
                    ReqState::Done { .. } | ReqState::Failed { .. } | ReqState::Retrieved
                )
            })
            .unwrap_or(false)
    }

    /// Request latency (submission → Data Available), once done.
    pub fn request_cycles(&self, id: RequestId) -> Option<u64> {
        let r = self.requests.get(&id.0)?;
        Some(r.done_cycle? - r.start_cycle)
    }

    /// The cores assigned to a request.
    pub fn request_cores(&self, id: RequestId) -> Option<&[usize]> {
        self.requests.get(&id.0).map(|r| r.cores.as_slice())
    }
}
