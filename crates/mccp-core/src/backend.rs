//! The unified channel-engine interface: one trait over the
//! cycle-accurate [`Mccp`] simulator and the functional fast path
//! ([`FunctionalBackend`](crate::functional::FunctionalBackend)), so a
//! workload driver written once runs on either engine — and so engines
//! can be replicated into shards behind a cluster dispatcher.
//!
//! The contract mirrors the paper's control protocol: OPEN a channel,
//! ENCRYPT/DECRYPT-submit packets until the engine reports
//! [`MccpError::NoResource`], advance the clock, and poll Data Available
//! for completions. Time is modeled cycles for the simulator and a
//! submission-order virtual clock for the functional engine; both are
//! deterministic for a given call sequence.

use crate::bytes::Tag;
use crate::format::Direction;
use crate::protocol::{Algorithm, ChannelId, MccpError, RequestId};
use mccp_telemetry::{Snapshot, Telemetry};

/// One finished request, as surfaced by [`ChannelBackend::poll_completion`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    pub request: RequestId,
    /// False when an authenticated mode rejected the tag — in which case
    /// `body` and `tag` are empty (the engine has wiped the output).
    pub auth_ok: bool,
    /// Ciphertext (encrypt) or plaintext (decrypt); empty for MAC-only
    /// modes.
    pub body: Vec<u8>,
    /// Authentication tag (encrypt on authenticated modes, MAC modes),
    /// held inline.
    pub tag: Tag,
    /// Submission → Data Available, in the engine's clock. The functional
    /// engine does not model service time and reports 0.
    pub latency_cycles: u64,
    /// The fault that terminated the request, if the fault plane did
    /// (`body`/`tag` are empty, `auth_ok` is false). Retryable errors —
    /// see [`MccpError::is_retryable`] — are safe to resubmit elsewhere:
    /// no output ever left the engine.
    pub fault: Option<MccpError>,
    /// The channel's key epoch at submission time: a packet in flight
    /// across a [`ChannelBackend::rekey_channel`] finishes on the epoch
    /// (and key) it started with.
    pub epoch: u32,
}

/// One quarantined core, as reported by [`ChannelBackend::health`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreHealth {
    pub core: usize,
    /// The engine-clock cycle the watchdog fenced the core off.
    pub quarantined_at: u64,
}

/// Core-pool health for one engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineHealth {
    /// Total cores in the engine.
    pub cores: usize,
    /// The quarantined subset (empty when fully healthy).
    pub quarantined: Vec<CoreHealth>,
    /// Cores whose CU region is mid-reconfiguration (a capacity dip the
    /// service plane's admission control must see). Always 0 for engines
    /// without a reconfigurable region model.
    pub reconfiguring: usize,
}

impl EngineHealth {
    /// Cores currently eligible for dispatch.
    pub fn available(&self) -> usize {
        self.cores
            .saturating_sub(self.quarantined.len())
            .saturating_sub(self.reconfiguring)
    }
}

/// A multi-channel crypto engine: the protocol surface of the paper's
/// MCCP, abstracted over how (and whether) time is simulated.
///
/// # Contract
///
/// - [`open_channel`](Self::open_channel) binds an algorithm + session
///   key and returns a handle; handles are allocated deterministically
///   (the same open sequence yields the same handles on every
///   implementation).
/// - [`submit_packet`](Self::submit_packet) either accepts a packet or
///   returns [`MccpError::NoResource`] when every core is busy — the
///   caller's cue to [`step`](Self::step), poll and resubmit. A busy
///   engine refuses before it validates the packet, so a malformed
///   packet's typed error comes once a core frees. Implementations
///   without a core limit accept unboundedly.
/// - [`step`](Self::step) advances the engine's clock by at most `bound`
///   cycles (`bound` must be finite and non-zero for progress) and
///   returns the cycles actually advanced. It may return 0 only when a
///   completion is already pollable, and it may stop short of `bound`
///   only where the caller can act, so "step, poll, resubmit" is the
///   whole wait loop a caller needs.
/// - [`poll_completion`](Self::poll_completion) drains finished requests
///   in Data Available order, releasing the resources they held. Every
///   accepted submission produces exactly one completion; authentication
///   failures surface as `auth_ok == false`, never as an error.
/// - Outputs are bit-identical across implementations for the same
///   channel/packet sequence: ciphertext, tags and auth verdicts do not
///   depend on which engine ran the work.
pub trait ChannelBackend {
    /// Short engine name for reports ("cycle", "functional").
    fn backend_name(&self) -> &'static str;

    /// OPEN: binds an algorithm and session-key bytes to a new channel.
    fn open_channel(
        &mut self,
        algorithm: Algorithm,
        key: &[u8],
        tag_len: usize,
    ) -> Result<ChannelId, MccpError>;

    /// CLOSE: releases a channel. Errors with [`MccpError::Busy`] while
    /// the channel has in-flight requests.
    ///
    /// Engine resources (the channel id and, for engines that allocate
    /// one per open, the key slot) are recycled: a later
    /// [`open_channel`](Self::open_channel) may return the *same*
    /// [`ChannelId`]. A caller serving open/close churn must therefore
    /// layer its own aliasing protection over the raw handle — the
    /// service plane's generational slab ids exist precisely so a stale
    /// handle can never address a recycled slot.
    fn close_channel(&mut self, channel: ChannelId) -> Result<(), MccpError>;

    /// OPEN with a modeled channel-establishment cost: identical to
    /// [`open_channel`](Self::open_channel), except submissions on the new
    /// channel are refused with [`MccpError::HandshakePending`] until the
    /// engine clock passes `now() + handshake_cycles` (the ECC
    /// scalar-multiplication budget; see
    /// `mccp_core::model::ECC_SCALAR_MULT_CYCLES`). The handshake runs on
    /// the platform's asymmetric unit, not a Cryptographic Core — other
    /// channels keep serving throughout, which is what lets a scheduler
    /// hide establishment behind live traffic.
    fn open_channel_handshake(
        &mut self,
        algorithm: Algorithm,
        key: &[u8],
        tag_len: usize,
        handshake_cycles: u64,
    ) -> Result<ChannelId, MccpError>;

    /// REKEY: rotates a live channel onto new session-key bytes, bumping
    /// its epoch (returned). In-flight packets finish on the old key and
    /// carry their submission epoch in [`Completion::epoch`]; submissions
    /// accepted after this call use the new key. The old key is zeroized
    /// once the last old-epoch request drains — never earlier, never from
    /// the tick path.
    fn rekey_channel(&mut self, channel: ChannelId, new_key: &[u8]) -> Result<u32, MccpError>;

    /// The channel's current key epoch (0 until the first rekey).
    fn channel_epoch(&self, channel: ChannelId) -> Result<u32, MccpError>;

    /// ENCRYPT/DECRYPT pinned to a key epoch: exactly
    /// [`submit_packet`](Self::submit_packet), except the submission is
    /// refused with [`MccpError::StaleEpoch`] when `epoch` is not the
    /// channel's current one — *before* any core reservation, nonce or
    /// packet accounting. A delayed or replayed frame carrying a retired
    /// epoch burns nothing.
    #[allow(clippy::too_many_arguments)]
    fn submit_packet_epoch(
        &mut self,
        channel: ChannelId,
        epoch: u32,
        direction: Direction,
        iv: &[u8],
        aad: &[u8],
        body: &[u8],
        tag: Option<&[u8]>,
    ) -> Result<RequestId, MccpError> {
        if self.channel_epoch(channel)? != epoch {
            return Err(MccpError::StaleEpoch);
        }
        self.submit_packet(channel, direction, iv, aad, body, tag)
    }

    /// ENCRYPT/DECRYPT: submits one packet on a channel.
    ///
    /// `iv`: GCM — 12-byte IV; CCM — 7..13-byte nonce; CTR — 16-byte
    /// counter block; CBC-MAC — empty. `tag` is required when decrypting
    /// authenticated modes.
    ///
    /// Refused with [`MccpError::NoResource`] while no core can take the
    /// packet — checked before the packet is formatted or validated, so a
    /// busy engine touches none of its data and a malformed packet gets
    /// its typed error only once a core frees — and with
    /// [`MccpError::HandshakePending`] before the channel's handshake
    /// horizon. Either way the caller waits in [`step`](Self::step) and
    /// resubmits.
    #[allow(clippy::too_many_arguments)]
    fn submit_packet(
        &mut self,
        channel: ChannelId,
        direction: Direction,
        iv: &[u8],
        aad: &[u8],
        body: &[u8],
        tag: Option<&[u8]>,
    ) -> Result<RequestId, MccpError>;

    /// Advances the engine clock by at most `bound` cycles; returns the
    /// cycles advanced (0 only when a completion is already pollable).
    ///
    /// The one wait primitive: an engine that models time keeps advancing
    /// until the caller can act — a fresh completion to poll, a free core,
    /// a channel's handshake horizon reached — or `bound` cycles pass. A
    /// caller that resubmits a refused packet after every `step` gets the
    /// same accept cycle as one advancing a single cycle (or quiescent
    /// leap) at a time.
    fn step(&mut self, bound: u64) -> u64;

    /// Pops the next finished request, releasing its resources.
    fn poll_completion(&mut self) -> Option<Completion>;

    /// Requests accepted but not yet drained via
    /// [`poll_completion`](Self::poll_completion).
    fn in_flight(&self) -> usize;

    /// The engine's current clock value.
    fn now(&self) -> u64;

    /// Enables the engine's telemetry pipeline (ring capacity as in
    /// [`Mccp::enable_telemetry`]).
    fn enable_telemetry(&mut self, capacity: usize);

    /// Whether telemetry is recording.
    fn telemetry_enabled(&self) -> bool;

    /// Adds to a registry counter when telemetry is enabled (no-op
    /// otherwise) — the hook drivers use for their own serving metrics.
    fn telemetry_counter_add(&mut self, key: &str, delta: u64);

    /// Publishes engine-owned gauges and snapshots the metrics registry.
    fn telemetry_snapshot(&mut self) -> Snapshot;

    /// The engine's telemetry hub (events, spans, registry).
    fn telemetry(&self) -> &Telemetry;

    /// Mutable telemetry hub access — the cluster layer uses this to close
    /// spans for packets it abandons (no engine event exists for those).
    fn telemetry_mut(&mut self) -> &mut Telemetry;

    /// Runs the engine until every accepted request is pollable or the
    /// guard expires. Returns cycles advanced.
    ///
    /// # Panics
    /// Panics if in-flight work fails to complete within `max_cycles`.
    fn drain(&mut self, max_cycles: u64) -> u64;

    /// Core-pool health: total cores and the quarantined subset. Engines
    /// without a core model report an empty quarantine list.
    fn health(&self) -> EngineHealth;

    /// Hard-resets a core, clearing its quarantine — the cluster's
    /// recovery path. Errors with [`MccpError::Busy`] while a live request
    /// still references the core.
    fn reset_core(&mut self, core: usize) -> Result<(), MccpError>;
}

/// Cycle bound for [`submit_and_wait`]: far past any handshake or packet
/// the engines model, so hitting it means the engine wedged.
const SUBMIT_AND_WAIT_MAX_CYCLES: u64 = 100_000_000;

/// Submits one packet and steps the engine until its completion arrives,
/// for callers that drive one packet at a time (receivers, attack drivers,
/// tests). While the engine refuses with [`MccpError::NoResource`] or
/// [`MccpError::HandshakePending`], it waits in `step` (up to 4096 cycles
/// a call) and resubmits; any other submit error is returned as-is, so a
/// caller can count typed rejections.
///
/// # Panics
/// Panics if the completion has not arrived within 100M cycles, or if the
/// first completion belongs to another request (the engine must have had
/// nothing else in flight).
pub fn submit_and_wait<B: ChannelBackend + ?Sized>(
    backend: &mut B,
    channel: ChannelId,
    direction: Direction,
    iv: &[u8],
    aad: &[u8],
    body: &[u8],
    tag: Option<&[u8]>,
) -> Result<Completion, MccpError> {
    let mut spent = 0u64;
    let request = loop {
        match backend.submit_packet(channel, direction, iv, aad, body, tag) {
            Ok(request) => break request,
            Err(MccpError::NoResource | MccpError::HandshakePending) => {}
            Err(e) => return Err(e),
        }
        spent += backend.step(4096);
        assert!(
            spent < SUBMIT_AND_WAIT_MAX_CYCLES,
            "submission refused for {spent} cycles"
        );
    };
    loop {
        if let Some(done) = backend.poll_completion() {
            assert_eq!(done.request, request, "another request was in flight");
            return Ok(done);
        }
        spent += backend.step(4096);
        assert!(
            spent < SUBMIT_AND_WAIT_MAX_CYCLES,
            "request wedged after {spent} cycles"
        );
    }
}

use crate::mccp::Mccp;

impl ChannelBackend for Mccp {
    fn backend_name(&self) -> &'static str {
        "cycle"
    }

    /// Checks the key, stores it under the first free [`KeyId`]
    /// (allocated ascending from 1) and opens the channel on it. A refused
    /// open leaves the Key Memory as it found it.
    fn open_channel(
        &mut self,
        algorithm: Algorithm,
        key: &[u8],
        tag_len: usize,
    ) -> Result<ChannelId, MccpError> {
        self.open_on_fresh_key(algorithm, key, |m, kid| {
            m.open_with_tag_len(algorithm, kid, tag_len)
        })
    }

    /// CLOSE, recycling every session key [`open_channel`] or
    /// [`Mccp::open_pipeline`] allocated for the channel (a pipeline holds
    /// one per CU stage): each [`KeyId`] nothing else references is erased
    /// — the Key Memory slot zeroized and every core's Key Cache entry for
    /// it wiped, since the next open reuses the lowest free id. Without
    /// this, open/close churn through the trait would exhaust the 255-slot
    /// Key Memory after 255 opens — long-lived service operation demands
    /// that both the channel id and the key slots come back.
    ///
    /// [`open_channel`]: ChannelBackend::open_channel
    fn close_channel(&mut self, channel: ChannelId) -> Result<(), MccpError> {
        let ch = self.channel(channel)?;
        let (key, pipeline) = (ch.key, ch.pipeline.clone());
        self.close(channel)?;
        let stage_keys = pipeline.iter().flat_map(|pl| pl.stages.iter());
        let cu_keys = stage_keys.filter(|s| s.key_bytes.is_none()).map(|s| s.key);
        for k in std::iter::once(key).chain(cu_keys) {
            if !self.key_in_use(k) {
                self.erase_key(k);
            }
        }
        Ok(())
    }

    fn open_channel_handshake(
        &mut self,
        algorithm: Algorithm,
        key: &[u8],
        tag_len: usize,
        handshake_cycles: u64,
    ) -> Result<ChannelId, MccpError> {
        self.open_on_fresh_key(algorithm, key, |m, kid| {
            m.open_with_handshake(algorithm, kid, tag_len, handshake_cycles)
        })
    }

    /// Stores the new key under a fresh [`KeyId`], rotates the channel and
    /// retires the old id: its Key Memory slot (and any per-core cache
    /// expansion) is zeroized the moment the last request submitted under
    /// the old epoch drains. A stage-chain pipeline is refused with
    /// [`MccpError::BadInstruction`] before any key slot is taken.
    fn rekey_channel(&mut self, channel: ChannelId, new_key: &[u8]) -> Result<u32, MccpError> {
        let (algorithm, old_key) = self.rekeyable(channel)?;
        algorithm.check_key(new_key)?;
        let kid = self.alloc_key(new_key)?;
        if let Err(e) = self.rekey(channel, kid) {
            self.erase_key(kid);
            return Err(e);
        }
        self.retire_key(old_key);
        self.epoch_of(channel)
    }

    fn channel_epoch(&self, channel: ChannelId) -> Result<u32, MccpError> {
        self.epoch_of(channel)
    }

    fn submit_packet(
        &mut self,
        channel: ChannelId,
        direction: Direction,
        iv: &[u8],
        aad: &[u8],
        body: &[u8],
        tag: Option<&[u8]>,
    ) -> Result<RequestId, MccpError> {
        self.submit(channel, direction, iv, aad, body, tag)
    }

    /// Runs the simulator until the caller can act (see `Mccp::wait`): a
    /// fresh Data Available entry, an idle core, a reached handshake
    /// horizon, or `bound`. Each quantum is a quiescent leap or one
    /// simulated cycle, and the wait ends on the first quantum boundary
    /// where a resubmission could land, so accept cycles match a caller
    /// that resubmits after every single quantum.
    fn step(&mut self, bound: u64) -> u64 {
        self.wait(bound)
    }

    fn poll_completion(&mut self) -> Option<Completion> {
        let id = self.poll_data_available()?;
        let latency_cycles = self.request_cycles(id).unwrap_or(0);
        let epoch = self.requests.get(&id.0).map(|r| r.epoch).unwrap_or(0);
        let (auth_ok, body, tag, fault) = match self.retrieve(id) {
            Ok(out) => (true, out.body, out.tag.unwrap_or_default(), None),
            Err(MccpError::AuthFail) => (false, Vec::new(), Tag::EMPTY, None),
            // Fault-plane terminations surface as typed faults; anything
            // else on a Data Available request is unexpected but must not
            // panic the serving loop — report it as the completion's fault.
            Err(e) => (false, Vec::new(), Tag::EMPTY, Some(e)),
        };
        // TRANSFER_DONE releases the cores; a request already released (or
        // racing a reset) is not an error worth crashing over.
        let _ = self.transfer_done(id);
        Some(Completion {
            request: id,
            auth_ok,
            body,
            tag,
            latency_cycles,
            fault,
            epoch,
        })
    }

    fn in_flight(&self) -> usize {
        self.active_requests()
    }

    fn now(&self) -> u64 {
        self.cycle()
    }

    fn enable_telemetry(&mut self, capacity: usize) {
        Mccp::enable_telemetry(self, capacity);
    }

    fn telemetry_enabled(&self) -> bool {
        self.telemetry().is_enabled()
    }

    fn telemetry_counter_add(&mut self, key: &str, delta: u64) {
        if self.telemetry().is_enabled() {
            self.telemetry_mut().registry_mut().counter_add(key, delta);
        }
    }

    fn telemetry_snapshot(&mut self) -> Snapshot {
        Mccp::telemetry_snapshot(self)
    }

    fn telemetry(&self) -> &Telemetry {
        Mccp::telemetry(self)
    }

    fn telemetry_mut(&mut self) -> &mut Telemetry {
        Mccp::telemetry_mut(self)
    }

    fn drain(&mut self, max_cycles: u64) -> u64 {
        self.run_to_completion(max_cycles)
    }

    fn health(&self) -> EngineHealth {
        Mccp::health(self)
    }

    fn reset_core(&mut self, core: usize) -> Result<(), MccpError> {
        Mccp::reset_core(self, core)
    }
}
