//! The control-protocol half of the Task Scheduler: channel management
//! (OPEN / REKEY / CLOSE), packet submission with personality-matched
//! core allocation and key-cache handling, output retrieval
//! (RETRIEVE_DATA / TRANSFER_DONE) and partial reconfiguration.
//!
//! Split out of the `Mccp` monolith; every method here is an `impl Mccp`
//! block so the public API surface is unchanged.

use crate::bytes::Tag;
use crate::core_unit::Personality;
use crate::crossbar::Route;
use crate::format::{format_request, parse_output, Direction, FormattedRequest, ProcessedPacket};
use crate::key::SessionKey;
use crate::mccp::Mccp;
use crate::pipeline::{
    stage_counter, whirlpool_hmac, whirlpool_hmac_cycles, PipelineGraph, PipelinePlan,
    ResolvedPipeline, ResolvedStage, StageOp,
};
use crate::protocol::{Algorithm, ChannelId, CipherSel, KeyId, MccpError, Mode, RequestId};
use crate::reconfig::{
    bitstream_for, personality_index, Bitstream, BitstreamSource, PolicyConfig, PolicyEngine,
};
use crate::scheduler::{ReqState, Request};
use mccp_telemetry::{Event, FifoPort};
use std::sync::Arc;

/// Tag length in bytes of a channel opened by [`Mccp::open`].
const DEFAULT_TAG_LEN: usize = 16;

/// A live channel binding (algorithm, session key, tag length, cipher).
#[derive(Clone, Debug)]
pub(crate) struct Channel {
    pub(crate) algorithm: Algorithm,
    pub(crate) key: KeyId,
    pub(crate) tag_len: usize,
    /// The block cipher this channel runs on; Twofish channels dispatch
    /// only to cores whose reconfigurable region hosts the Twofish unit.
    pub(crate) cipher: CipherSel,
    /// Multi-stage pipeline graph, for channels opened through
    /// [`Mccp::open_pipeline`].
    pub(crate) pipeline: Option<Arc<ResolvedPipeline>>,
    /// Key epoch: bumped by every REKEY. Submissions are stamped with the
    /// epoch they were accepted under, so in-flight packets finish on the
    /// key they started with while new traffic uses the rotated one.
    pub(crate) epoch: u32,
    /// Cycle the channel's modeled asymmetric establishment completes;
    /// submissions before this horizon are rejected with
    /// [`MccpError::HandshakePending`]. Zero for instant opens.
    pub(crate) ready_at: u64,
}

impl Mccp {
    /// OPEN: binds an algorithm and session key to a new channel.
    pub fn open(&mut self, algorithm: Algorithm, key: KeyId) -> Result<ChannelId, MccpError> {
        self.open_with_tag_len(algorithm, key, DEFAULT_TAG_LEN)
    }

    /// OPEN with an explicit tag length (authenticated channels).
    pub fn open_with_tag_len(
        &mut self,
        algorithm: Algorithm,
        key: KeyId,
        tag_len: usize,
    ) -> Result<ChannelId, MccpError> {
        self.open_with_cipher(algorithm, key, tag_len, CipherSel::Aes)
    }

    /// OPEN with an explicit cipher selection (paper §IX: "AES core may be
    /// easily replaced by any other 128-bit block cipher"). Twofish
    /// channels are served only by cores reconfigured to the Twofish unit.
    pub fn open_with_cipher(
        &mut self,
        algorithm: Algorithm,
        key: KeyId,
        tag_len: usize,
        cipher: CipherSel,
    ) -> Result<ChannelId, MccpError> {
        if self.key_memory.key_size(key) != Some(algorithm.key_size()) {
            return Err(MccpError::BadKey);
        }
        let id = (0..=u8::MAX)
            .find(|i| !self.channels.contains_key(i))
            .ok_or(MccpError::NoChannelId)?;
        self.channels.insert(
            id,
            Channel {
                algorithm,
                key,
                tag_len,
                cipher,
                pipeline: None,
                epoch: 0,
                ready_at: 0,
            },
        );
        Ok(ChannelId(id))
    }

    /// OPEN with a modeled channel-establishment phase: the platform's
    /// asymmetric unit runs the ECC scalar multiplication for
    /// `handshake_cycles` while the MCCP keeps serving other channels.
    /// Submissions on this channel before the horizon elapses are refused
    /// with [`MccpError::HandshakePending`]; nothing is scheduled onto a
    /// Cryptographic Core for the handshake itself, so live traffic
    /// overlaps it for free.
    pub fn open_with_handshake(
        &mut self,
        algorithm: Algorithm,
        key: KeyId,
        tag_len: usize,
        handshake_cycles: u64,
    ) -> Result<ChannelId, MccpError> {
        let id = self.open_with_cipher(algorithm, key, tag_len, CipherSel::Aes)?;
        let ready_at = self.cycle + handshake_cycles;
        if let Some(c) = self.channels.get_mut(&id.0) {
            c.ready_at = ready_at;
        }
        if ready_at > self.cycle {
            self.handshake_due = self.handshake_due.min(ready_at);
        }
        Ok(id)
    }

    /// Cycles left until a channel's establishment completes (0 = ready).
    pub fn handshake_remaining(&self, channel: ChannelId) -> Result<u64, MccpError> {
        let ch = self.channel(channel)?;
        Ok(ch.ready_at.saturating_sub(self.cycle))
    }

    /// The channel's current key epoch (bumped by every rekey).
    pub fn epoch_of(&self, channel: ChannelId) -> Result<u32, MccpError> {
        Ok(self.channel(channel)?.epoch)
    }

    /// OPEN a pipeline channel: the channel's transform is the graph's
    /// ordered stage chain, each stage dispatched to a core hosting the
    /// matching personality, intermediate bytes handed core-to-core.
    ///
    /// Stage keys are carried as bytes and stored into free Key Memory
    /// slots here (the main controller's key-load step); a refused open
    /// releases every slot it took.
    pub fn open_pipeline(&mut self, graph: &PipelineGraph) -> Result<ChannelId, MccpError> {
        graph.validate()?;
        let id = (0..=u8::MAX)
            .find(|i| !self.channels.contains_key(i))
            .ok_or(MccpError::NoChannelId)?;
        let mut resolved: Vec<ResolvedStage> = Vec::with_capacity(graph.stages.len());
        for st in &graph.stages {
            let algorithm = st.algorithm()?;
            // Whirlpool stages hash key bytes directly; CU stages go
            // through the write-protected Key Memory.
            let (key, key_bytes) = if st.op == StageOp::WhirlpoolHmac {
                (KeyId(0), Some(SessionKey::new(st.key.as_bytes())?))
            } else {
                let kid = self.alloc_key(st.key.as_bytes()).inspect_err(|_| {
                    for s in resolved.iter().filter(|s| s.key_bytes.is_none()) {
                        self.erase_key(s.key);
                    }
                })?;
                (kid, None)
            };
            resolved.push(ResolvedStage {
                op: st.op,
                cipher: st.cipher,
                personality: st.personality(),
                key,
                key_bytes,
                algorithm,
            });
        }
        let first_cu = resolved.iter().find(|s| s.key_bytes.is_none());
        self.channels.insert(
            id,
            Channel {
                algorithm: resolved[0].algorithm,
                key: first_cu.map(|s| s.key).unwrap_or(KeyId(0)),
                tag_len: graph.tag_len,
                cipher: first_cu.map(|s| s.cipher).unwrap_or(CipherSel::Aes),
                pipeline: Some(Arc::new(ResolvedPipeline {
                    stages: resolved,
                    tag_len: graph.tag_len,
                })),
                epoch: 0,
                ready_at: 0,
            },
        );
        Ok(ChannelId(id))
    }

    /// Stores key bytes into the first free Key Memory slot: the one
    /// search for a free [`KeyId`].
    pub(crate) fn alloc_key(&mut self, bytes: &[u8]) -> Result<KeyId, MccpError> {
        let id = (1..=u8::MAX)
            .map(KeyId)
            .find(|&k| !self.key_memory.contains(k))
            .ok_or(MccpError::BadKey)?;
        self.key_memory.store(id, bytes);
        Ok(id)
    }

    /// Checks `key` before touching any state, stores it under a fresh
    /// [`KeyId`] and runs `open` on it, releasing the slot if that fails.
    pub(crate) fn open_on_fresh_key(
        &mut self,
        algorithm: Algorithm,
        key: &[u8],
        open: impl FnOnce(&mut Self, KeyId) -> Result<ChannelId, MccpError>,
    ) -> Result<ChannelId, MccpError> {
        algorithm.check_key(key)?;
        let kid = self.alloc_key(key)?;
        open(self, kid).inspect_err(|_| self.erase_key(kid))
    }

    /// The key a channel REKEY may rotate, with its algorithm. A stage
    /// chain is refused with [`MccpError::BadInstruction`]: its stages run
    /// on keys fixed when the graph opened, so moving the channel key alone
    /// would report a new epoch over the old keystream.
    pub(crate) fn rekeyable(&self, channel: ChannelId) -> Result<(Algorithm, KeyId), MccpError> {
        let ch = self.channel(channel)?;
        if ch.pipeline.is_some() {
            return Err(MccpError::BadInstruction);
        }
        Ok((ch.algorithm, ch.key))
    }

    /// Rebinds a live channel to a new session key (rekeying: the main
    /// controller has rotated keys; in-flight requests keep the old key,
    /// subsequent packets use the new one — stale per-core key caches miss
    /// on the new id and re-expand). A stage-chain pipeline is refused (see
    /// [`rekeyable`](Self::rekeyable)).
    pub fn rekey(&mut self, channel: ChannelId, new_key: KeyId) -> Result<(), MccpError> {
        let (algorithm, _) = self.rekeyable(channel)?;
        if self.key_memory.key_size(new_key) != Some(algorithm.key_size()) {
            return Err(MccpError::BadKey);
        }
        match self.channels.get_mut(&channel.0) {
            Some(c) => {
                c.key = new_key;
                c.epoch += 1;
                Ok(())
            }
            None => Err(MccpError::BadChannel),
        }
    }

    /// Marks a session key for retirement: the Key Memory slot is zeroized
    /// (and any per-core Key Cache expansion of it wiped) as soon as no
    /// live channel and no undrained request references it. Until then the
    /// key stays resident so in-flight packets submitted under the old
    /// epoch finish on the key they started with.
    pub fn retire_key(&mut self, key: KeyId) {
        if !self.retiring_keys.contains(&key) {
            self.retiring_keys.push(key);
        }
        self.reap_retired_keys();
    }

    /// True while a retired key is still awaiting its last old-epoch
    /// completion (observable drain point for tests and the service plane).
    pub fn key_retirement_pending(&self, key: KeyId) -> bool {
        self.retiring_keys.contains(&key)
    }

    /// Erases every retired key whose last reference has drained. Runs at
    /// submission/retirement boundaries only — never from `tick()` — so
    /// the fast-forward cycle identity is untouched.
    pub(crate) fn reap_retired_keys(&mut self) {
        if self.retiring_keys.is_empty() {
            return;
        }
        let retiring = std::mem::take(&mut self.retiring_keys);
        let mut kept = Vec::new();
        for k in retiring {
            if self.key_in_use(k) {
                kept.push(k);
                continue;
            }
            self.erase_key(k);
        }
        self.retiring_keys = kept;
    }

    /// True while a channel binding (any pipeline stage's included) or an
    /// undrained request names `k`.
    pub(crate) fn key_in_use(&self, k: KeyId) -> bool {
        let staged = |pl: &Arc<ResolvedPipeline>| pl.stages.iter().any(|s| s.key == k);
        self.channels
            .values()
            .any(|c| c.key == k || c.pipeline.as_ref().is_some_and(staged))
            || self.requests.values().any(|r| r.key == k)
    }

    /// Erases a session key: zeroizes its Key Memory slot and wipes every
    /// core's Key Cache entry for the id. Key Caches match on the id alone,
    /// so a cached expansion left behind would serve the next key stored
    /// under the recycled id.
    pub(crate) fn erase_key(&mut self, k: KeyId) {
        self.key_memory.erase(k);
        for core in &mut self.cores {
            if core.key_cache.cached_id() == Some(k) {
                core.key_cache.wipe();
            }
        }
    }

    /// CLOSE: releases a channel.
    pub fn close(&mut self, channel: ChannelId) -> Result<(), MccpError> {
        if self
            .requests
            .values()
            .any(|r| r.channel == channel && !matches!(r.state, ReqState::Retrieved))
        {
            return Err(MccpError::Busy);
        }
        self.channels
            .remove(&channel.0)
            .map(|_| ())
            .ok_or(MccpError::BadChannel)
    }

    pub(crate) fn channel(&self, id: ChannelId) -> Result<&Channel, MccpError> {
        self.channels.get(&id.0).ok_or(MccpError::BadChannel)
    }

    /// The core personality a channel's cipher requires.
    pub(crate) fn personality_for(cipher: CipherSel) -> Personality {
        match cipher {
            CipherSel::Aes => Personality::AesUnit,
            CipherSel::Twofish => Personality::TwofishUnit,
        }
    }

    /// ENCRYPT/DECRYPT: formats and submits a packet on a channel.
    ///
    /// `iv`: GCM — 12-byte IV; CCM — 7..13-byte nonce; CTR — 16-byte
    /// counter block; CBC-MAC — empty. `tag` is required when decrypting
    /// authenticated modes.
    pub fn submit(
        &mut self,
        channel: ChannelId,
        direction: Direction,
        iv: &[u8],
        aad: &[u8],
        body: &[u8],
        tag: Option<&[u8]>,
    ) -> Result<RequestId, MccpError> {
        self.waiting_demand = [0; 3];
        let ch = self.channel(channel)?.clone();
        if ch.ready_at > self.cycle {
            return Err(MccpError::HandshakePending);
        }
        if let Some(pl) = ch.pipeline.clone() {
            // Pipeline channels carry their whole transform in the graph:
            // AAD and caller-side tags have no stage to run on.
            if direction != Direction::Encrypt || !aad.is_empty() || tag.is_some() {
                return Err(MccpError::BadInstruction);
            }
            return self.submit_pipeline(channel, &pl, iv, body);
        }
        let want = Self::personality_for(ch.cipher);
        if let Some(pe) = &mut self.policy {
            pe.record_offered(want);
        }
        // The Task Scheduler hands a packet to an idle core or refuses it;
        // a busy engine never takes (or formats) the packet's data, so a
        // malformed packet gets `NoResource` first and its typed error once
        // a core frees.
        if self.first_idle(want).is_none() {
            let mut demand = [0; 3];
            demand[personality_index(want)] = 1;
            self.refuse(demand);
            return Err(MccpError::NoResource);
        }
        let two_core = self.config.ccm_two_core
            && ch.algorithm.mode() == Mode::Ccm
            && self.idle_pair(want).is_some();
        let fmt = format_request(
            ch.algorithm,
            direction,
            two_core,
            iv,
            aad,
            body,
            tag,
            ch.tag_len,
        )?;
        let id = self.submit_formatted(channel, direction, fmt)?;
        if let Some(pe) = &mut self.policy {
            pe.record_served(want);
        }
        Ok(id)
    }

    /// A `NoResource` refusal of a submission that offered `demand` (one
    /// count per personality it sampled): demand outran the personality
    /// mix, so the policy engine may flip an idle core before the caller
    /// retries, and the demand stays offered while the caller waits in
    /// [`step`](crate::ChannelBackend::step).
    fn refuse(&mut self, demand: [u32; 3]) {
        self.waiting_demand = demand;
        self.maybe_reconfigure();
    }

    /// Submits a pre-formatted request (the data the communication
    /// controller would push through the crossbar).
    pub fn submit_formatted(
        &mut self,
        channel: ChannelId,
        direction: Direction,
        fmt: FormattedRequest,
    ) -> Result<RequestId, MccpError> {
        let ch = self.channel(channel)?.clone();
        if ch.ready_at > self.cycle {
            return Err(MccpError::HandshakePending);
        }
        let n = self.cores.len();

        // Core allocation (personality-matched: Twofish channels dispatch
        // to Twofish-configured cores only).
        let want = Self::personality_for(ch.cipher);
        let core_ids: Vec<usize> = if fmt.jobs.len() == 2 {
            let left = self.idle_pair(want).ok_or(MccpError::NoResource)?;
            vec![left, (left + 1) % n]
        } else {
            vec![self.first_idle(want).ok_or(MccpError::NoResource)?]
        };
        for &c in &core_ids {
            self.cores[c].reserve();
        }

        // Capacity checks: every stream must fit its FIFO *unless* we run
        // in streaming mode (oversize experiments).
        let fifo_bytes = self.config.fifo_depth * 4;
        let streaming = fmt
            .jobs
            .iter()
            .any(|j| j.stream.len() > fifo_bytes || j.output_bytes > fifo_bytes);

        // Key handling: reuse a cached expansion or charge the Key
        // Scheduler latency. Any rejection from here on must release the
        // reservations taken above.
        let mut key_delay = 0u32;
        for &c in &core_ids {
            // Key-cache integrity gate: a corrupt cache is wiped and the
            // submission rejected; the retry re-expands from the
            // write-protected Key Memory, which self-heals the core.
            if self.cores[c].key_cache.is_corrupt() {
                self.cores[c].key_cache.wipe();
                for &cc in &core_ids {
                    self.cores[cc].finish();
                }
                let error = MccpError::KeyCorrupt;
                self.telemetry
                    .emit_with(self.cycle, || Event::FaultDetected {
                        request: 0,
                        core: c,
                        error: error.to_string(),
                    });
                return Err(error);
            }
            if self.cores[c].key_cache.get(ch.key, ch.cipher).is_none() {
                let before = self.key_scheduler.busy_cycles();
                let Some(engine) =
                    self.key_scheduler
                        .expand_engine(&self.key_memory, ch.key, ch.cipher)
                else {
                    for &cc in &core_ids {
                        self.cores[cc].finish();
                    }
                    return Err(MccpError::BadKey);
                };
                let this_delay = self.key_scheduler.busy_cycles() - before;
                key_delay = key_delay.max(this_delay);
                self.stage_key_expand[c] += u64::from(this_delay);
                self.cores[c].key_cache.install(ch.key, ch.cipher, engine);
                self.telemetry
                    .emit_with(self.cycle, || Event::KeyCacheMiss {
                        core: c,
                        key: ch.key.0,
                        expansion_cycles: this_delay,
                    });
            } else {
                self.telemetry.emit_with(self.cycle, || Event::KeyCacheHit {
                    core: c,
                    key: ch.key.0,
                });
            }
            let engine = match self.cores[c].key_cache.get(ch.key, ch.cipher) {
                Some(e) => e.clone(),
                None => {
                    for &cc in &core_ids {
                        self.cores[cc].finish();
                    }
                    return Err(MccpError::BadKey);
                }
            };
            self.cores[c].load_engine(engine);
        }

        let id = RequestId(self.next_request);
        self.next_request = self.next_request.wrapping_add(1).max(1);
        let sequence = {
            let seq = self.channel_seq.entry(channel.0).or_insert(0);
            *seq += 1;
            *seq
        };

        // Watchdog deadline: margin × the modeled worst-case cycle bound
        // (key wait, a generous fixed firmware overhead, and a per-word
        // allowance far above the datapath's real per-word cost).
        let deadline = self.watchdog_margin.map(|margin| {
            let words: usize = fmt
                .jobs
                .iter()
                .map(|j| j.stream.len().div_ceil(4) + j.output_bytes.div_ceil(4))
                .sum();
            let bound = key_delay as u64 + 4096 + 64 * words as u64;
            self.cycle + u64::from(margin) * bound
        });

        let producing_core = fmt
            .jobs
            .iter()
            .position(|j| j.produces_output)
            .map(|i| core_ids[i])
            .unwrap_or(core_ids[0]);
        let expected_output = fmt
            .jobs
            .iter()
            .find(|j| j.produces_output)
            .map(|j| j.output_bytes)
            .unwrap_or(0);

        // Route the crossbar to the producing core's input for the upload
        // phase (protocol fidelity; the model pushes words during tick()).
        self.crossbar.select(Route::WriteTo(producing_core));

        let mut pending_input = Vec::new();
        let mut jobs = Vec::new();
        for (i, job) in fmt.jobs.into_iter().enumerate() {
            let core = core_ids[i];
            pending_input.push((core, job.stream.clone(), 0usize, false));
            jobs.push((core, job));
        }

        self.telemetry
            .emit_with(self.cycle, || Event::RequestSubmitted {
                request: id.0,
                channel: channel.0,
                algorithm: ch.algorithm.name(),
                direction: match direction {
                    Direction::Encrypt => "Encrypt",
                    Direction::Decrypt => "Decrypt",
                },
                cores: core_ids.clone(),
            });
        self.telemetry
            .emit_with(self.cycle, || Event::RequestDispatched {
                request: id.0,
                core: producing_core,
            });
        self.requests.insert(Request {
            id,
            channel,
            algorithm: ch.algorithm,
            direction,
            cores: core_ids,
            producing_core,
            payload_len: fmt.payload_len,
            tag_len: fmt.tag_len,
            expected_output,
            pending_input,
            jobs,
            collected: Vec::new(),
            streaming,
            state: ReqState::KeyWait(key_delay),
            start_cycle: self.cycle,
            done_cycle: None,
            signaled: false,
            deadline,
            sequence,
            pipeline: None,
            epoch: ch.epoch,
            key: ch.key,
        });

        // Fault plane: fire every schedule entry due at this accepted
        // submission (1-based packet ordinal across the engine).
        self.packets_submitted += 1;
        if self.faults.is_some() {
            let due = match &mut self.faults {
                Some(f) => f.take_due_packet(self.packets_submitted),
                None => Vec::new(),
            };
            for e in due {
                self.apply_fault(e.kind);
            }
        }
        Ok(id)
    }

    /// RETRIEVE_DATA: returns the processed packet, or [`MccpError::AuthFail`]
    /// — in which case the output FIFO has already been wiped. A request
    /// terminated by the fault plane returns its recorded error instead.
    pub fn retrieve(&mut self, id: RequestId) -> Result<ProcessedPacket, MccpError> {
        let req = self.requests.get_mut(&id.0).ok_or(MccpError::BadChannel)?;
        let ReqState::Done { auth_ok } = req.state else {
            if let ReqState::Failed { error } = req.state {
                req.state = ReqState::Retrieved;
                return Err(error);
            }
            return Err(MccpError::Busy);
        };
        req.state = ReqState::Retrieved;
        if !auth_ok {
            return Err(MccpError::AuthFail);
        }
        if let Some(plan) = &mut req.pipeline {
            // Pipeline output was collected stage by stage; the final body
            // and tag are already assembled in the plan. A chain without a
            // CTR stage delivers only its tag.
            let ciphered = plan.pipeline.stages.iter().any(|s| s.op == StageOp::Ctr);
            let packet = ProcessedPacket {
                body: if ciphered {
                    std::mem::take(&mut plan.body)
                } else {
                    Vec::new()
                },
                tag: plan.tag.take(),
            };
            let (request, core) = (id.0, req.producing_core);
            self.telemetry
                .emit_with(self.cycle, || Event::RequestRetrieved { request, core });
            return Ok(packet);
        }
        self.crossbar.select(Route::ReadFrom(req.producing_core));
        let mut raw = std::mem::take(&mut req.collected);
        let remaining = req.expected_output - raw.len();
        if remaining > 0 {
            let fifo_bytes = self.cores[req.producing_core]
                .output
                .pop_bytes(remaining)
                .ok_or(MccpError::Busy)?;
            // A packet that never streamed out early has collected
            // nothing: the drain is its whole output, kept without a copy.
            if raw.is_empty() {
                raw = fifo_bytes;
            } else {
                raw.extend_from_slice(&fifo_bytes);
            }
        }
        if self.telemetry.is_enabled() {
            let core = req.producing_core;
            let level = self.cores[core].output.len();
            self.telemetry.emit(
                self.cycle,
                Event::RequestRetrieved {
                    request: id.0,
                    core,
                },
            );
            self.telemetry.emit(
                self.cycle,
                Event::FifoPop {
                    core,
                    port: FifoPort::Output,
                    level,
                },
            );
        }
        Ok(parse_output(
            req.algorithm,
            req.direction,
            req.payload_len,
            req.tag_len,
            raw,
        ))
    }

    /// TRANSFER_DONE: releases the cores and forgets the request.
    pub fn transfer_done(&mut self, id: RequestId) -> Result<(), MccpError> {
        let req = self.requests.remove(&id.0).ok_or(MccpError::BadChannel)?;
        for &c in &req.cores {
            self.cores[c].finish();
            self.cores[c].input.wipe();
            self.cores[c].output.wipe();
        }
        self.crossbar.release();
        // A drained request may have been the last reference holding a
        // retired (pre-rekey) key resident.
        self.reap_retired_keys();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Pipeline graphs
    // ------------------------------------------------------------------

    /// Submits one packet on a pipeline channel: admission requires an
    /// idle core for stage 0 *now* and every stage personality somewhere
    /// in the pool (live or already loading); later stages queue in
    /// `StageWait` until a matching core frees up.
    fn submit_pipeline(
        &mut self,
        channel: ChannelId,
        pl: &Arc<ResolvedPipeline>,
        iv: &[u8],
        body: &[u8],
    ) -> Result<RequestId, MccpError> {
        // Per-personality demand accounting feeds the swap policy; every
        // attempt is an offered-load sample, rejections included.
        if self.policy.is_some() {
            for st in &pl.stages {
                let p = st.personality;
                if let Some(pe) = &mut self.policy {
                    pe.record_offered(p);
                }
            }
        }
        if pl.stages.iter().any(|s| s.op == StageOp::Ctr) && iv.len() < 16 {
            return Err(MccpError::BadInstruction);
        }
        // Pipelines run stage-at-a-time inside the FIFOs (no streaming).
        let fifo_bytes = self.config.fifo_depth * 4;
        if body.len().div_ceil(16) * 16 + 32 > fifo_bytes {
            return Err(MccpError::TooLarge);
        }
        for st in &pl.stages {
            let want = st.personality;
            let present = self.cores.iter().enumerate().any(|(i, c)| {
                !c.is_quarantined()
                    && if self.reconfigs[i].is_reconfiguring() {
                        self.reconfigs[i].target() == Some(want)
                    } else {
                        c.personality() == want
                    }
            });
            if !present {
                self.refuse(pipeline_demand(pl));
                return Err(MccpError::NoResource);
            }
        }
        if self
            .idle_for_stage(pl.stages[0].personality, None)
            .is_none()
        {
            self.refuse(pipeline_demand(pl));
            return Err(MccpError::NoResource);
        }

        let ch = self.channel(channel)?.clone();
        let id = RequestId(self.next_request);
        self.next_request = self.next_request.wrapping_add(1).max(1);
        let sequence = {
            let seq = self.channel_seq.entry(channel.0).or_insert(0);
            *seq += 1;
            *seq
        };
        self.telemetry
            .emit_with(self.cycle, || Event::RequestSubmitted {
                request: id.0,
                channel: channel.0,
                algorithm: ch.algorithm.name(),
                direction: "Encrypt",
                cores: Vec::new(),
            });
        self.requests.insert(Request {
            id,
            channel,
            algorithm: ch.algorithm,
            direction: Direction::Encrypt,
            cores: Vec::new(),
            producing_core: 0,
            payload_len: body.len(),
            tag_len: pl.tag_len,
            expected_output: 0,
            pending_input: Vec::new(),
            jobs: Vec::new(),
            collected: Vec::new(),
            streaming: false,
            state: ReqState::StageWait,
            start_cycle: self.cycle,
            done_cycle: None,
            signaled: false,
            deadline: None,
            sequence,
            pipeline: Some(PipelinePlan {
                pipeline: pl.clone(),
                current: 0,
                iv: iv.to_vec(),
                body: body.to_vec(),
                tag: None,
                prev_core: None,
            }),
            epoch: ch.epoch,
            key: ch.key,
        });
        self.packets_submitted += 1;
        if self.faults.is_some() {
            let due = match &mut self.faults {
                Some(f) => f.take_due_packet(self.packets_submitted),
                None => Vec::new(),
            };
            for e in due {
                self.apply_fault(e.kind);
            }
        }
        self.try_start_stage(id);
        if self.policy.is_some() {
            for st in &pl.stages {
                let p = st.personality;
                if let Some(pe) = &mut self.policy {
                    pe.record_served(p);
                }
            }
        }
        Ok(id)
    }

    /// Tries to dispatch a pipeline request's current stage onto an idle
    /// core of the right personality; parks it in `StageWait` otherwise
    /// (retried every active tick).
    pub(crate) fn try_start_stage(&mut self, id: RequestId) {
        let (pipeline, idx, prev, body, iv) = {
            let Some(req) = self.requests.get(&id.0) else {
                return;
            };
            let Some(plan) = &req.pipeline else {
                return;
            };
            (
                plan.pipeline.clone(),
                plan.current,
                plan.prev_core,
                plan.body.clone(),
                plan.iv.clone(),
            )
        };
        let (stage, tag_len) = (&pipeline.stages[idx], pipeline.tag_len);
        let Some(core) = self.idle_for_stage(stage.personality, prev) else {
            if let Some(r) = self.requests.get_mut(&id.0) {
                r.state = ReqState::StageWait;
            }
            return;
        };
        let cycle = self.cycle;
        if stage.op == StageOp::WhirlpoolHmac {
            // The digest is computed with the same `mccp-aes` code the
            // functional engine uses; the Whirlpool core is held for the
            // modeled hash latency and the tag lands when it expires.
            self.cores[core].reserve();
            let key = stage
                .key_bytes
                .as_ref()
                .expect("Whirlpool stages keep their key");
            let digest = whirlpool_hmac(key.as_bytes(), &body);
            let cycles = whirlpool_hmac_cycles(body.len());
            let deadline = self
                .watchdog_margin
                .map(|m| cycle + u64::from(m) * (cycles + 4096));
            let request = id.0;
            self.telemetry
                .emit_with(cycle, || Event::RequestDispatched { request, core });
            let req = self.requests.get_mut(&id.0).expect("request exists");
            req.cores = vec![core];
            req.producing_core = core;
            req.expected_output = 0;
            req.pending_input = Vec::new();
            req.jobs = Vec::new();
            req.deadline = deadline;
            req.state = ReqState::Hashing { left: cycles };
            let plan = req.pipeline.as_mut().expect("pipeline plan");
            plan.tag = Some(Tag::from_slice(&digest[..tag_len.min(64)]));
            return;
        }

        // A CU stage (CTR or CBC-MAC): the ordinary single-core dispatch —
        // reserve, key-cache gate, format, upload via the crossbar.
        self.cores[core].reserve();
        if self.cores[core].key_cache.is_corrupt() {
            self.cores[core].key_cache.wipe();
            self.cores[core].finish();
            self.fail_request(id, MccpError::KeyCorrupt, core);
            return;
        }
        let mut key_delay = 0u32;
        if self.cores[core]
            .key_cache
            .get(stage.key, stage.cipher)
            .is_none()
        {
            let before = self.key_scheduler.busy_cycles();
            let Some(engine) =
                self.key_scheduler
                    .expand_engine(&self.key_memory, stage.key, stage.cipher)
            else {
                self.cores[core].finish();
                self.fail_request(id, MccpError::BadKey, core);
                return;
            };
            key_delay = self.key_scheduler.busy_cycles() - before;
            self.stage_key_expand[core] += u64::from(key_delay);
            self.cores[core]
                .key_cache
                .install(stage.key, stage.cipher, engine);
            let (key, expansion_cycles) = (stage.key.0, key_delay);
            self.telemetry.emit_with(cycle, || Event::KeyCacheMiss {
                core,
                key,
                expansion_cycles,
            });
        } else {
            let key = stage.key.0;
            self.telemetry
                .emit_with(cycle, || Event::KeyCacheHit { core, key });
        }
        let engine = match self.cores[core].key_cache.get(stage.key, stage.cipher) {
            Some(e) => e.clone(),
            None => {
                self.cores[core].finish();
                self.fail_request(id, MccpError::BadKey, core);
                return;
            }
        };
        self.cores[core].load_engine(engine);
        let fmt = match stage.op {
            StageOp::Ctr => format_request(
                stage.algorithm,
                Direction::Encrypt,
                false,
                &stage_counter(&iv, idx),
                &[],
                &body,
                None,
                16,
            ),
            _ => format_request(
                stage.algorithm,
                Direction::Encrypt,
                false,
                &[],
                &[],
                &body,
                None,
                tag_len.min(16),
            ),
        };
        let fmt = match fmt {
            Ok(f) => f,
            Err(e) => {
                self.cores[core].finish();
                self.fail_request(id, e, core);
                return;
            }
        };
        let Some(job) = fmt.jobs.into_iter().next() else {
            self.cores[core].finish();
            self.fail_request(id, MccpError::BadInstruction, core);
            return;
        };
        let words = job.stream.len().div_ceil(4) + job.output_bytes.div_ceil(4);
        let deadline = self
            .watchdog_margin
            .map(|m| cycle + u64::from(m) * (u64::from(key_delay) + 4096 + 64 * words as u64));
        self.crossbar.select(Route::WriteTo(core));
        let request = id.0;
        self.telemetry
            .emit_with(cycle, || Event::RequestDispatched { request, core });
        let req = self.requests.get_mut(&id.0).expect("request exists");
        req.algorithm = stage.algorithm;
        req.payload_len = fmt.payload_len;
        req.tag_len = fmt.tag_len;
        req.expected_output = job.output_bytes;
        req.producing_core = core;
        req.cores = vec![core];
        req.pending_input = vec![(core, job.stream.clone(), 0usize, false)];
        req.jobs = vec![(core, job)];
        req.collected = Vec::new();
        req.deadline = deadline;
        req.state = ReqState::KeyWait(key_delay);
    }

    /// A pipeline stage completed on its core: collect the stage output,
    /// fold it into the plan, release the stage's core and hand off to the
    /// next stage (or finish the request after the last one).
    pub(crate) fn advance_pipeline(&mut self, id: RequestId) {
        let (producing, expected, payload_len, cores, idx, op, tag_len, n_stages) = {
            let Some(req) = self.requests.get(&id.0) else {
                return;
            };
            let Some(plan) = &req.pipeline else {
                return;
            };
            (
                req.producing_core,
                req.expected_output,
                req.payload_len,
                req.cores.clone(),
                plan.current,
                plan.pipeline.stages[plan.current].op,
                plan.pipeline.tag_len,
                plan.pipeline.stages.len(),
            )
        };
        let raw = if expected > 0 {
            self.cores[producing]
                .output
                .pop_bytes(expected)
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        {
            let req = self.requests.get_mut(&id.0).expect("request exists");
            let plan = req.pipeline.as_mut().expect("pipeline plan");
            match op {
                // The drain becomes the body in place: MAC stages never
                // change it, so after the last stage it is the delivered
                // ciphertext.
                StageOp::Ctr => {
                    plan.body = raw;
                    plan.body.truncate(payload_len);
                }
                StageOp::CbcMac => {
                    plan.tag = Some(Tag::from_slice(&raw[..tag_len.min(raw.len())]));
                }
                // The Whirlpool tag landed when the hash countdown expired.
                StageOp::WhirlpoolHmac => {}
            }
        }
        if idx + 1 == n_stages {
            self.finish_pipeline(id);
            return;
        }
        // Release the finished stage's core; the next stage prefers a
        // different one (the inter-core handoff is the pipeline's point).
        for &c in &cores {
            self.cores[c].finish();
            self.cores[c].input.wipe();
            self.cores[c].output.wipe();
        }
        self.crossbar.release();
        {
            let req = self.requests.get_mut(&id.0).expect("request exists");
            req.cores = Vec::new();
            req.deadline = None;
            req.state = ReqState::StageWait;
            let plan = req.pipeline.as_mut().expect("pipeline plan");
            plan.current = idx + 1;
            plan.prev_core = Some(producing);
        }
        self.try_start_stage(id);
    }

    /// Terminates a pipeline request successfully (Data Available). The
    /// final stage's core stays reserved until TRANSFER_DONE, like any
    /// completed request.
    pub(crate) fn finish_pipeline(&mut self, id: RequestId) {
        let cycle = self.cycle;
        let Some(req) = self.requests.get_mut(&id.0) else {
            return;
        };
        req.state = ReqState::Done { auth_ok: true };
        req.done_cycle = Some(cycle);
        let (request, cycles) = (req.id.0, cycle - req.start_cycle);
        self.telemetry.emit_with(cycle, || Event::RequestCompleted {
            request,
            auth_ok: true,
            cycles,
        });
        self.data_available.push_back(id);
    }

    // ------------------------------------------------------------------
    // Demand-driven reconfiguration policy
    // ------------------------------------------------------------------

    /// Installs the demand-driven reconfiguration policy: from here on the
    /// Task Scheduler samples per-personality offered load on every
    /// submission and may flip an *idle* core's CU region toward starved
    /// demand (charging the Table IV load latency of the configured
    /// bitstream source).
    pub fn enable_reconfig_policy(&mut self, cfg: PolicyConfig) {
        self.policy = Some(PolicyEngine::new(cfg));
    }

    /// The policy engine's state, when enabled.
    pub fn policy(&self) -> Option<&PolicyEngine> {
        self.policy.as_ref()
    }

    /// Consults the policy engine and begins at most one swap. Called on
    /// every `NoResource` rejection — never from `tick()`, so the
    /// fast-forward identity is untouched (decisions depend only on
    /// submission-time state).
    pub(crate) fn maybe_reconfigure(&mut self) {
        let Some(pe) = &self.policy else {
            return;
        };
        let cores: Vec<(Personality, bool, bool)> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                // A core mid-load already counts for its target personality.
                let p = self.reconfigs[i]
                    .target()
                    .unwrap_or_else(|| c.personality());
                let out = self.reconfigs[i].is_reconfiguring() || c.is_quarantined();
                (p, c.is_idle() && !out, out)
            })
            .collect();
        // Personalities that in-flight pipeline stages still need keep at
        // least one core: a swap may never strand queued work.
        let mut pinned: Vec<Personality> = Vec::new();
        for req in self.requests.values() {
            if !matches!(
                req.state,
                ReqState::KeyWait(_)
                    | ReqState::Running
                    | ReqState::StageWait
                    | ReqState::Hashing { .. }
            ) {
                continue;
            }
            if let Some(plan) = &req.pipeline {
                for st in &plan.pipeline.stages[plan.current..] {
                    pinned.push(st.personality);
                }
            }
        }
        let Some(d) = pe.decide(self.cycle, &cores, &pinned) else {
            return;
        };
        let source = pe.config().source;
        if self
            .begin_reconfiguration(d.core, bitstream_for(d.target), source)
            .is_ok()
        {
            if let Some(pe) = &mut self.policy {
                pe.note_swap(self.cycle);
            }
        }
    }

    /// Begins a policy-accounted swap of one idle core to `target`,
    /// charging the policy's configured bitstream source. The benches use
    /// this to drive explicit mix-shift swaps through the same accounting
    /// path the demand policy uses. Returns the load-time budget.
    pub fn policy_swap(&mut self, core: usize, target: Personality) -> Result<u64, MccpError> {
        let source = self
            .policy
            .as_ref()
            .map(|p| p.config().source)
            .unwrap_or(BitstreamSource::Ram);
        let budget = self.begin_reconfiguration(core, bitstream_for(target), source)?;
        if let Some(pe) = &mut self.policy {
            pe.note_swap(self.cycle);
        }
        Ok(budget)
    }

    // ------------------------------------------------------------------
    // Partial reconfiguration
    // ------------------------------------------------------------------

    /// Begins loading a partial bitstream into a core's reconfigurable
    /// region (paper §IX). The core is reserved for the duration — the
    /// scheduler will not dispatch to it — and comes back up with the
    /// bitstream's personality once the modeled load time elapses during
    /// [`tick`](Self::tick). Returns the load-time budget in cycles.
    ///
    /// Errors with [`MccpError::Busy`] if the core is mid-request or
    /// already reconfiguring.
    pub fn begin_reconfiguration(
        &mut self,
        core: usize,
        bitstream: Bitstream,
        source: BitstreamSource,
    ) -> Result<u64, MccpError> {
        if !self.cores[core].is_idle() || self.reconfigs[core].is_reconfiguring() {
            return Err(MccpError::Busy);
        }
        let personality = bitstream.personality;
        let budget = self.reconfigs[core]
            .begin(bitstream, source)
            .ok_or(MccpError::Busy)?;
        self.cores[core].reserve();
        self.reconfig_started[core] = self.cycle;
        self.telemetry
            .emit_with(self.cycle, || Event::ReconfigBegin {
                core,
                personality: personality.name(),
            });
        Ok(budget)
    }

    /// True while a core's reconfigurable region is being rewritten.
    pub fn is_reconfiguring(&self, core: usize) -> bool {
        self.reconfigs[core].is_reconfiguring()
    }
}

/// The demand one pipeline submission offers: a sample per stage.
fn pipeline_demand(pl: &ResolvedPipeline) -> [u32; 3] {
    let mut demand = [0; 3];
    for st in &pl.stages {
        demand[personality_index(st.personality)] += 1;
    }
    demand
}
