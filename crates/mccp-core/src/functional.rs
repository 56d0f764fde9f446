//! The fast functional engine: the MCCP's control protocol behind the
//! [`ChannelBackend`] trait, with the reference `mccp-aes` implementations
//! as the datapath.
//!
//! Bit-identical results to the cycle-accurate simulator, no cycle
//! accounting — this is what the wall-clock benchmarks and the service
//! plane's fast path drive. Host parallelism comes from sharding: one
//! [`FunctionalBackend`] per shard, each with its own key-context cache,
//! fanned out across threads by the `mccp-sdr` cluster.

use crate::backend::{ChannelBackend, Completion, EngineHealth};
use crate::fault::{FaultKind, FaultPlan, FaultTrigger};
use crate::format::Direction;
use crate::pipeline::{run_stages_functional, PipelineGraph, PipelineKind};
use crate::protocol::{Algorithm, ChannelId, MccpError, Mode, RequestId};
use crate::warmcache::{WarmCache, WarmStats};
use mccp_aes::modes::{
    cbc_mac, ccm_open_detached, ccm_seal, ctr_xcrypt, CcmParams, GcmContext, ModeError,
};
use mccp_aes::Aes;
use mccp_telemetry::{Event, Snapshot, Telemetry};
use std::collections::{BTreeMap, VecDeque};

/// A Key Cache entry: the expanded AES key schedule plus, lazily, the GCM
/// hash-key powers `H^1..H^8`.
///
/// Building the powers takes seven field multiplications, plus eight 4 KiB
/// Shoup tables on hosts without PCLMULQDQ — more than a packet's worth of
/// GHASH work — so it happens once per key, not once per packet, exactly
/// like the hardware, where the Key Scheduler expands a key into the Key
/// Cache when the channel opens, not on every frame.
struct KeyCtx {
    aes: Aes,
    gcm: Option<GcmContext<Aes>>,
}

impl KeyCtx {
    fn new(key: &[u8]) -> Self {
        KeyCtx {
            aes: Aes::new(key),
            gcm: None,
        }
    }

    /// The GCM context for this key, built on first GCM packet.
    fn gcm(&mut self) -> &GcmContext<Aes> {
        self.gcm
            .get_or_insert_with(|| GcmContext::new(self.aes.clone()))
    }
}

/// [`FunctionalBackend`]'s mode dispatch: one packet through the
/// reference implementation of its mode, using the per-key cached state
/// (key schedule + GHASH powers) in `ctx`.
#[allow(clippy::too_many_arguments)]
fn run_mode(
    ctx: &mut KeyCtx,
    algorithm: Algorithm,
    direction: Direction,
    iv: &[u8],
    aad: &[u8],
    body: &[u8],
    tag: Option<&[u8]>,
    tag_len: usize,
) -> Result<Vec<u8>, ModeError> {
    let tag = tag.unwrap_or(&[]);
    match (algorithm.mode(), direction) {
        (Mode::Gcm, Direction::Encrypt) => ctx.gcm().seal(iv, aad, body, tag_len),
        (Mode::Gcm, Direction::Decrypt) => ctx.gcm().open_detached(iv, aad, body, tag),
        (Mode::Ccm, dir) => {
            let params = CcmParams {
                nonce_len: iv.len(),
                tag_len,
            };
            match dir {
                Direction::Encrypt => ccm_seal(&ctx.aes, &params, iv, aad, body),
                Direction::Decrypt => ccm_open_detached(&ctx.aes, &params, iv, aad, body, tag),
            }
        }
        (Mode::Ctr, _) => {
            let mut body = body.to_vec();
            let ctr0: [u8; 16] = iv
                .try_into()
                .map_err(|_| ModeError::InvalidParams("CTR needs a 16-byte counter"))?;
            ctr_xcrypt(&ctx.aes, &ctr0, &mut body)?;
            Ok(body)
        }
        (Mode::CbcMac, _) => cbc_mac(&ctx.aes, body, tag_len),
    }
}

/// Default warm-set bound for key contexts: far above any batch
/// workload's key count, far below a million-channel service's — idle
/// channels' schedules age out instead of pinning memory.
pub const DEFAULT_KEY_CACHE_CAPACITY: usize = 4096;

/// A live channel on the functional engine.
#[derive(Clone, Debug)]
struct FunctionalChannel {
    algorithm: Algorithm,
    key: Vec<u8>,
    tag_len: usize,
    /// Stage-chain transform for pipeline channels (the graph itself is
    /// the datapath here — no cores to map stages onto).
    pipeline: Option<PipelineGraph>,
    /// Key epoch, bumped by every rekey (mirrors the cycle engine's
    /// channel epoch; completions are stamped with it at submission).
    epoch: u32,
    /// Virtual-clock cycle the channel's modeled establishment completes;
    /// submissions before it are refused with `HandshakePending`.
    ready_at: u64,
}

/// The functional engine behind the [`ChannelBackend`] trait: the same
/// control protocol as the cycle-accurate [`Mccp`](crate::Mccp), with the
/// reference `mccp-aes` implementations as the datapath. Packets are
/// processed synchronously at submission (bit-identical output to the
/// simulator), so it never refuses work with `NoResource`; the clock is a
/// virtual cycle counter advanced by [`step`](ChannelBackend::step) so
/// arrival-paced drivers behave, and completion latency is reported as 0
/// (service time is not modeled — wall-clock is what this engine trades
/// cycle fidelity for).
pub struct FunctionalBackend {
    channels: BTreeMap<u8, FunctionalChannel>,
    /// Per-key context cache (the hardware Key Cache, degenerated to one
    /// shared cache since there is no per-core state to model): expanded
    /// key schedule plus lazily-built GCM hash-key powers. Bounded LRU —
    /// under channel churn the schedules of keys no longer seen age out
    /// instead of growing the cache without limit.
    cache: WarmCache<Vec<u8>, KeyCtx>,
    /// Finished packets in submission order, tagged with their channel so
    /// CLOSE can refuse while results are undrained.
    completions: VecDeque<(u8, Completion)>,
    next_request: u16,
    now: u64,
    telemetry: Telemetry,
    /// Armed packet-triggered faults: accepted-submission ordinal → the
    /// error that submission completes with. The functional engine has no
    /// cycle model, so cycle-triggered entries are ignored.
    faults: BTreeMap<u64, MccpError>,
    /// Accepted submissions, 1-based (drives the packet triggers).
    packets_submitted: u64,
    /// Per-channel packet ordinals (1-based), for failure attribution.
    channel_seq: BTreeMap<u8, u64>,
}

impl FunctionalBackend {
    pub fn new() -> Self {
        Self::with_key_cache_capacity(DEFAULT_KEY_CACHE_CAPACITY)
    }

    /// A backend whose key-context warm set holds at most `capacity`
    /// expanded schedules (0 = unbounded). The service plane sizes this
    /// to its hot working set; batch drivers keep the default.
    pub fn with_key_cache_capacity(capacity: usize) -> Self {
        FunctionalBackend {
            channels: BTreeMap::new(),
            cache: WarmCache::new(capacity),
            completions: VecDeque::new(),
            next_request: 1,
            now: 0,
            telemetry: Telemetry::disabled(),
            faults: BTreeMap::new(),
            packets_submitted: 0,
            channel_seq: BTreeMap::new(),
        }
    }

    /// Warm-set hit/miss/eviction counters for the key-context cache.
    pub fn key_cache_stats(&self) -> WarmStats {
        self.cache.stats()
    }

    /// Expanded key schedules currently resident.
    pub fn key_cache_len(&self) -> usize {
        self.cache.len()
    }

    /// OPEN a pipeline channel — the functional mirror of
    /// [`Mccp::open_pipeline`](crate::Mccp::open_pipeline). Stage chains
    /// run through [`run_stages_functional`] at submission; the `FusedCcm2`
    /// form is an ordinary CCM channel (no cores to schedule in pairs).
    pub fn open_pipeline(&mut self, graph: &PipelineGraph) -> Result<ChannelId, MccpError> {
        graph.validate()?;
        let id = (0..=u8::MAX)
            .find(|i| !self.channels.contains_key(i))
            .ok_or(MccpError::NoChannelId)?;
        let ch = match &graph.kind {
            PipelineKind::FusedCcm2 { algorithm } => FunctionalChannel {
                algorithm: *algorithm,
                key: graph.fused_key().unwrap_or_default().to_vec(),
                tag_len: graph.tag_len,
                pipeline: None,
                epoch: 0,
                ready_at: 0,
            },
            // The algorithm field is bookkeeping only for stage chains
            // (telemetry labels); the graph drives the processing.
            PipelineKind::Stages(_) => FunctionalChannel {
                algorithm: Algorithm::AesCtr128,
                key: Vec::new(),
                tag_len: graph.tag_len,
                pipeline: Some(graph.clone()),
                epoch: 0,
                ready_at: 0,
            },
        };
        self.channels.insert(id, ch);
        Ok(ChannelId(id))
    }

    /// Arms the packet-triggered subset of a fault schedule: the `n`-th
    /// accepted submission completes as failed with the error its fault
    /// kind maps to (wedge/stall → `CoreFault`, FIFO flip →
    /// `DataIntegrity`, key corruption → `KeyCorrupt`, DMA loss →
    /// `Deadline`). Cycle triggers and shard kills are ignored — the
    /// functional engine models neither a clock nor shards.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        for e in &plan.entries {
            let FaultTrigger::AtPacket(p) = e.trigger else {
                continue;
            };
            let error = match e.kind {
                FaultKind::WedgeCore { .. } | FaultKind::StallCore { .. } => MccpError::CoreFault,
                FaultKind::FlipFifoBit { .. } => MccpError::DataIntegrity,
                FaultKind::CorruptKeyCache { .. } => MccpError::KeyCorrupt,
                FaultKind::DropDmaWord { .. } => MccpError::Deadline,
                FaultKind::KillShard { .. } => continue,
            };
            self.faults.insert(p, error);
        }
    }
}

impl Default for FunctionalBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl ChannelBackend for FunctionalBackend {
    fn backend_name(&self) -> &'static str {
        "functional"
    }

    fn open_channel(
        &mut self,
        algorithm: Algorithm,
        key: &[u8],
        tag_len: usize,
    ) -> Result<ChannelId, MccpError> {
        if key.len() != algorithm.key_size().key_bytes() {
            return Err(MccpError::BadKey);
        }
        let id = (0..=u8::MAX)
            .find(|i| !self.channels.contains_key(i))
            .ok_or(MccpError::NoChannelId)?;
        self.channels.insert(
            id,
            FunctionalChannel {
                algorithm,
                key: key.to_vec(),
                tag_len,
                pipeline: None,
                epoch: 0,
                ready_at: 0,
            },
        );
        Ok(ChannelId(id))
    }

    fn open_channel_handshake(
        &mut self,
        algorithm: Algorithm,
        key: &[u8],
        tag_len: usize,
        handshake_cycles: u64,
    ) -> Result<ChannelId, MccpError> {
        let id = self.open_channel(algorithm, key, tag_len)?;
        if let Some(ch) = self.channels.get_mut(&id.0) {
            ch.ready_at = self.now + handshake_cycles;
        }
        Ok(id)
    }

    /// Rotates the channel's key bytes in place: the replaced key is
    /// zeroized immediately (processing is synchronous here, so nothing
    /// can still be in flight on it) and its expanded context is dropped
    /// from the warm set.
    fn rekey_channel(&mut self, channel: ChannelId, new_key: &[u8]) -> Result<u32, MccpError> {
        let ch = self
            .channels
            .get_mut(&channel.0)
            .ok_or(MccpError::BadChannel)?;
        if new_key.len() != ch.algorithm.key_size().key_bytes() {
            return Err(MccpError::BadKey);
        }
        let old = std::mem::replace(&mut ch.key, new_key.to_vec());
        ch.epoch += 1;
        let epoch = ch.epoch;
        self.cache.remove(&old);
        let mut old = old;
        old.fill(0);
        Ok(epoch)
    }

    fn channel_epoch(&self, channel: ChannelId) -> Result<u32, MccpError> {
        self.channels
            .get(&channel.0)
            .map(|c| c.epoch)
            .ok_or(MccpError::BadChannel)
    }

    fn close_channel(&mut self, channel: ChannelId) -> Result<(), MccpError> {
        if self.completions.iter().any(|(ch, _)| *ch == channel.0) {
            return Err(MccpError::Busy);
        }
        let mut ch = self
            .channels
            .remove(&channel.0)
            .ok_or(MccpError::BadChannel)?;
        self.cache.remove(&ch.key);
        ch.key.fill(0);
        Ok(())
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
        // Disjoint field borrows: the channel table is read-only here while
        // the key-context cache is mutated, so no per-submit clone of the
        // channel (and its key bytes) is needed. A warm-set hit costs one
        // hash probe; a miss re-expands the schedule and may age out the
        // least-recently-used key.
        let ch = self.channels.get(&channel.0).ok_or(MccpError::BadChannel)?;
        if ch.ready_at > self.now {
            return Err(MccpError::HandshakePending);
        }
        let epoch = ch.epoch;
        // Pipeline channels carry their whole transform in the graph: AAD
        // and caller-side tags have no stage to run on (mirrors the
        // cycle-accurate engine's pipeline admission).
        if ch.pipeline.is_some()
            && (direction != Direction::Encrypt || !aad.is_empty() || tag.is_some())
        {
            return Err(MccpError::BadInstruction);
        }

        let id = RequestId(self.next_request);
        self.next_request = self.next_request.wrapping_add(1).max(1);
        self.packets_submitted += 1;
        let sequence = {
            let seq = self.channel_seq.entry(channel.0).or_insert(0);
            *seq += 1;
            *seq
        };
        self.telemetry
            .emit_with(self.now, || Event::RequestSubmitted {
                request: id.0,
                channel: channel.0,
                algorithm: ch.algorithm.name(),
                direction: match direction {
                    Direction::Encrypt => "Encrypt",
                    Direction::Decrypt => "Decrypt",
                },
                cores: Vec::new(),
            });

        // Armed packet fault: this submission fails instead of producing
        // output (the functional analogue of the simulator's fault plane).
        if let Some(error) = self.faults.remove(&self.packets_submitted) {
            self.telemetry.emit_with(self.now, || Event::FaultInjected {
                fault: error.to_string(),
                core: 0,
            });
            self.telemetry.emit_with(self.now, || Event::FaultDetected {
                request: id.0,
                core: 0,
                error: error.to_string(),
            });
            self.telemetry.emit_with(self.now, || Event::RequestFailed {
                request: id.0,
                error: error.to_string(),
                cycles: 0,
            });
            self.completions.push_back((
                channel.0,
                Completion {
                    request: id,
                    auth_ok: false,
                    body: Vec::new(),
                    tag: Vec::new(),
                    latency_cycles: 0,
                    fault: Some(error),
                    epoch,
                },
            ));
            return Ok(id);
        }

        let (auth_ok, out_body, out_tag) = if let Some(graph) = &ch.pipeline {
            let (out_body, out_tag) =
                run_stages_functional(graph.stages(), iv, body, graph.tag_len)?;
            (true, out_body, out_tag.unwrap_or_default())
        } else {
            let ctx = self
                .cache
                .get_or_insert_with(&ch.key, || KeyCtx::new(&ch.key));
            let result = run_mode(ctx, ch.algorithm, direction, iv, aad, body, tag, ch.tag_len);
            match result {
                Ok(out) => match (ch.algorithm.mode(), direction) {
                    (Mode::Gcm | Mode::Ccm, Direction::Encrypt) => {
                        let split = out.len() - ch.tag_len;
                        let mut out = out;
                        let tag = out.split_off(split);
                        (true, out, tag)
                    }
                    (Mode::Gcm | Mode::Ccm, Direction::Decrypt) => (true, out, Vec::new()),
                    (Mode::Ctr, _) => (true, out, Vec::new()),
                    (Mode::CbcMac, _) => (true, Vec::new(), out),
                },
                Err(ModeError::AuthFail) => {
                    let (request, channel) = (id.0, channel.0);
                    self.telemetry.emit_with(self.now, || Event::AuthFailWipe {
                        request,
                        channel,
                        sequence,
                    });
                    (false, Vec::new(), Vec::new())
                }
                Err(_) => return Err(MccpError::BadInstruction),
            }
        };
        self.telemetry
            .emit_with(self.now, || Event::RequestCompleted {
                request: id.0,
                auth_ok,
                cycles: 0,
            });
        self.completions.push_back((
            channel.0,
            Completion {
                request: id,
                auth_ok,
                body: out_body,
                tag: out_tag,
                latency_cycles: 0,
                fault: None,
                epoch,
            },
        ));
        Ok(id)
    }

    fn step(&mut self, bound: u64) -> u64 {
        if !self.completions.is_empty() {
            return 0;
        }
        self.now = self.now.saturating_add(bound);
        bound
    }

    fn poll_completion(&mut self) -> Option<Completion> {
        self.completions.pop_front().map(|(_, c)| c)
    }

    fn in_flight(&self) -> usize {
        self.completions.len()
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn enable_telemetry(&mut self, capacity: usize) {
        self.telemetry = Telemetry::with_capacity(capacity);
    }

    fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_enabled()
    }

    fn telemetry_counter_add(&mut self, key: &str, delta: u64) {
        if self.telemetry.is_enabled() {
            self.telemetry.registry_mut().counter_add(key, delta);
        }
    }

    fn telemetry_snapshot(&mut self) -> Snapshot {
        if self.telemetry.is_enabled() {
            self.telemetry
                .registry_mut()
                .gauge_set("mccp_cycles", self.now);
        }
        self.telemetry.snapshot()
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Processing is synchronous at submission — everything accepted is
    /// already pollable.
    fn drain(&mut self, _max_cycles: u64) -> u64 {
        0
    }

    /// No persistent core pool to get sick: always healthy.
    fn health(&self) -> EngineHealth {
        EngineHealth::default()
    }

    /// No cores to reset; the recovery call is accepted as a no-op so
    /// cluster self-healing code is engine-agnostic.
    fn reset_core(&mut self, _core: usize) -> Result<(), MccpError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::submit_and_wait;
    use mccp_aes::modes::gcm_seal;

    const KEY: [u8; 16] = [7u8; 16];

    #[test]
    fn gcm_output_matches_reference() {
        let mut b = FunctionalBackend::new();
        let ch = b.open_channel(Algorithm::AesGcm128, &KEY, 16).unwrap();
        let aes = Aes::new(&KEY);
        for i in 0..32u8 {
            let iv = [i; 12];
            let body = vec![i; 100];
            let done = submit_and_wait(&mut b, ch, Direction::Encrypt, &iv, b"hdr", &body, None)
                .expect("accepted");
            assert!(done.auth_ok);
            let expect = gcm_seal(&aes, &iv, b"hdr", &body, 16).unwrap();
            assert_eq!(done.body, expect[..100]);
            assert_eq!(done.tag, expect[100..]);
        }
        assert_eq!(b.in_flight(), 0);
        assert_eq!(b.now(), 0, "every completion was pollable without a step");
    }

    #[test]
    fn decrypt_roundtrip_and_bad_tag_fails_auth() {
        let mut b = FunctionalBackend::new();
        let ch = b.open_channel(Algorithm::AesGcm128, &KEY, 16).unwrap();
        let iv = [1u8; 12];
        let sealed = submit_and_wait(
            &mut b,
            ch,
            Direction::Encrypt,
            &iv,
            b"hdr",
            b"secret data",
            None,
        )
        .expect("accepted");

        let opened = submit_and_wait(
            &mut b,
            ch,
            Direction::Decrypt,
            &iv,
            b"hdr",
            &sealed.body,
            Some(&sealed.tag),
        )
        .expect("accepted");
        assert!(opened.auth_ok);
        assert_eq!(opened.body, b"secret data");

        let forged = submit_and_wait(
            &mut b,
            ch,
            Direction::Decrypt,
            &iv,
            b"hdr",
            &sealed.body,
            Some(&[0u8; 16]),
        )
        .expect("accepted");
        assert!(!forged.auth_ok, "a bad tag must fail authentication");
        assert!(
            forged.body.is_empty(),
            "nothing is released on auth failure"
        );
        assert_eq!(b.now(), 0, "every completion was pollable without a step");
    }

    #[test]
    fn all_modes_run() {
        let mut b = FunctionalBackend::new();
        let body = [0xABu8; 64];
        // (algorithm, IV, tag length) -> (body length, tag length) out.
        let cases = [
            (Algorithm::AesGcm128, vec![0u8; 12], 16, (64, 16)),
            (Algorithm::AesCcm128, vec![0u8; 11], 8, (64, 8)),
            (Algorithm::AesCtr128, vec![0u8; 16], 16, (64, 0)),
            (Algorithm::AesCbcMac128, vec![], 16, (0, 16)),
        ];
        for (alg, iv, tag_len, (body_len, out_tag_len)) in cases {
            let ch = b.open_channel(alg, &KEY, tag_len).unwrap();
            let done = submit_and_wait(&mut b, ch, Direction::Encrypt, &iv, b"hdr", &body, None)
                .expect("accepted");
            assert!(done.auth_ok, "{alg:?}");
            assert_eq!(done.body.len(), body_len, "{alg:?} body");
            assert_eq!(done.tag.len(), out_tag_len, "{alg:?} tag");
            if alg == Algorithm::AesCbcMac128 {
                assert_eq!(done.tag, cbc_mac(&Aes::new(&KEY), &body, 16).unwrap());
            }
        }
        assert_eq!(b.now(), 0, "every completion was pollable without a step");
    }
}
