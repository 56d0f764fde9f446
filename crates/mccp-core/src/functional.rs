//! The fast functional engine: the MCCP's control protocol behind the
//! [`ChannelBackend`] trait, with the reference `mccp-aes` implementations
//! as the datapath.
//!
//! Bit-identical results to the cycle-accurate simulator, no cycle
//! accounting — this is what the wall-clock benchmarks and the service
//! plane's fast path drive. Each open channel owns its expanded key state
//! ([`KeyCtx`]), built at open like the hardware's Key Cache fill and
//! wiped on close or rekey. Host parallelism comes from sharding: one
//! [`FunctionalBackend`] per shard, fanned out across threads by the
//! `mccp-sdr` cluster.

use crate::backend::{ChannelBackend, Completion, EngineHealth};
use crate::fault::{FaultKind, FaultPlan, FaultTrigger};
use crate::format::Direction;
use crate::pipeline::{run_stages_functional, PipelineGraph, PipelineKind};
use crate::protocol::{Algorithm, ChannelId, MccpError, Mode, RequestId};
use mccp_aes::modes::{
    cbc_mac, ccm_open_detached, ccm_seal, ctr_xcrypt, CcmParams, GcmContext, ModeError,
};
use mccp_aes::Aes;
use mccp_telemetry::{Event, Snapshot, Telemetry};
use std::collections::{BTreeMap, VecDeque};

/// A channel's Key Cache entry: the key state its packets run on.
///
/// It is built once when the channel opens (and again on rekey), exactly
/// like the hardware, where the Key Scheduler expands a key into the Key
/// Cache at OPEN, not on every frame: GCM's hash-key powers take seven
/// field multiplications, plus eight 4 KiB Shoup tables on hosts without
/// PCLMULQDQ — more than a packet's worth of GHASH work. Dropping it wipes
/// the expanded schedule and the powers (`RoundKeys` and `GhashPowers`
/// zeroize on drop), so close and rekey leave no key material behind.
enum KeyCtx {
    /// GCM: one context holding the cipher and `H^1..H^8`.
    Gcm(GcmContext<Aes>),
    /// CCM, CTR and CBC-MAC: the expanded AES schedule.
    Aes(Aes),
    /// A stage chain: the graph is the datapath and each stage carries
    /// its own key (there are no cores to map stages onto).
    Stages(PipelineGraph),
}

impl KeyCtx {
    fn new(algorithm: Algorithm, key: &[u8]) -> Self {
        let aes = Aes::new(key);
        match algorithm.mode() {
            Mode::Gcm => KeyCtx::Gcm(GcmContext::new(aes)),
            _ => KeyCtx::Aes(aes),
        }
    }
}

/// [`FunctionalBackend`]'s mode dispatch: one packet through the
/// reference implementation of its mode, on the channel's key context.
fn run_mode(
    ch: &FunctionalChannel,
    direction: Direction,
    iv: &[u8],
    aad: &[u8],
    body: &[u8],
    tag: Option<&[u8]>,
) -> Result<Vec<u8>, ModeError> {
    let (tag, tag_len) = (tag.unwrap_or(&[]), ch.tag_len);
    let aes = match &*ch.key {
        KeyCtx::Gcm(gcm) => {
            return match direction {
                Direction::Encrypt => gcm.seal(iv, aad, body, tag_len),
                Direction::Decrypt => gcm.open_detached(iv, aad, body, tag),
            }
        }
        KeyCtx::Aes(aes) => aes,
        KeyCtx::Stages(_) => unreachable!("stage chains run through their graph"),
    };
    match (ch.algorithm.mode(), direction) {
        (Mode::Ccm, dir) => {
            let params = CcmParams {
                nonce_len: iv.len(),
                tag_len,
            };
            match dir {
                Direction::Encrypt => ccm_seal(aes, &params, iv, aad, body),
                Direction::Decrypt => ccm_open_detached(aes, &params, iv, aad, body, tag),
            }
        }
        (Mode::Ctr, _) => {
            let mut body = body.to_vec();
            let ctr0: [u8; 16] = iv
                .try_into()
                .map_err(|_| ModeError::InvalidParams("CTR needs a 16-byte counter"))?;
            ctr_xcrypt(aes, &ctr0, &mut body)?;
            Ok(body)
        }
        (Mode::CbcMac, _) => cbc_mac(aes, body, tag_len),
        (Mode::Gcm, _) => unreachable!("GCM channels hold a GCM context"),
    }
}

/// A live channel on the functional engine.
struct FunctionalChannel {
    algorithm: Algorithm,
    /// Boxed: a GCM context is ~400 bytes, and the channel table moves
    /// entries on every open and close.
    key: Box<KeyCtx>,
    tag_len: usize,
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
/// cycle fidelity for). Every channel owns its [`KeyCtx`]; no key state
/// is shared between channels, even under identical key bytes.
pub struct FunctionalBackend {
    channels: BTreeMap<u8, FunctionalChannel>,
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
        FunctionalBackend {
            channels: BTreeMap::new(),
            completions: VecDeque::new(),
            next_request: 1,
            now: 0,
            telemetry: Telemetry::disabled(),
            faults: BTreeMap::new(),
            packets_submitted: 0,
            channel_seq: BTreeMap::new(),
        }
    }

    /// Inserts a channel under the lowest free id.
    fn insert(
        &mut self,
        algorithm: Algorithm,
        key: KeyCtx,
        tag_len: usize,
    ) -> Result<ChannelId, MccpError> {
        let id = (0..=u8::MAX)
            .find(|i| !self.channels.contains_key(i))
            .ok_or(MccpError::NoChannelId)?;
        self.channels.insert(
            id,
            FunctionalChannel {
                algorithm,
                key: Box::new(key),
                tag_len,
                epoch: 0,
                ready_at: 0,
            },
        );
        Ok(ChannelId(id))
    }

    /// OPEN a pipeline channel — the functional mirror of
    /// [`Mccp::open_pipeline`](crate::Mccp::open_pipeline). Stage chains
    /// run through [`run_stages_functional`] at submission; the `FusedCcm2`
    /// form is an ordinary CCM channel (no cores to schedule in pairs).
    pub fn open_pipeline(&mut self, graph: &PipelineGraph) -> Result<ChannelId, MccpError> {
        graph.validate()?;
        match &graph.kind {
            PipelineKind::FusedCcm2 { algorithm } => {
                let key = graph.fused_key().ok_or(MccpError::BadKey)?;
                self.insert(*algorithm, KeyCtx::new(*algorithm, key), graph.tag_len)
            }
            // The algorithm field is bookkeeping only for stage chains
            // (telemetry labels); the graph drives the processing.
            PipelineKind::Stages(_) => self.insert(
                Algorithm::AesCtr128,
                KeyCtx::Stages(graph.clone()),
                graph.tag_len,
            ),
        }
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
        self.insert(algorithm, KeyCtx::new(algorithm, key), tag_len)
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

    /// Rotates the channel onto `new_key` in place: the replaced key
    /// context is dropped, and so wiped, immediately (processing is
    /// synchronous here, so nothing can still be in flight on it). A
    /// stage chain keeps its graph and only bumps its epoch.
    fn rekey_channel(&mut self, channel: ChannelId, new_key: &[u8]) -> Result<u32, MccpError> {
        let ch = self
            .channels
            .get_mut(&channel.0)
            .ok_or(MccpError::BadChannel)?;
        if new_key.len() != ch.algorithm.key_size().key_bytes() {
            return Err(MccpError::BadKey);
        }
        if !matches!(*ch.key, KeyCtx::Stages(_)) {
            *ch.key = KeyCtx::new(ch.algorithm, new_key);
        }
        ch.epoch += 1;
        Ok(ch.epoch)
    }

    fn channel_epoch(&self, channel: ChannelId) -> Result<u32, MccpError> {
        self.channels
            .get(&channel.0)
            .map(|c| c.epoch)
            .ok_or(MccpError::BadChannel)
    }

    /// Frees the channel id; dropping the channel wipes its key context.
    fn close_channel(&mut self, channel: ChannelId) -> Result<(), MccpError> {
        if self.completions.iter().any(|(ch, _)| *ch == channel.0) {
            return Err(MccpError::Busy);
        }
        self.channels
            .remove(&channel.0)
            .ok_or(MccpError::BadChannel)?;
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
        // Disjoint field borrows: the channel (and its key context) is
        // read in place while the telemetry and completion queue mutate,
        // so nothing is cloned or looked up by key bytes per packet.
        let ch = self.channels.get(&channel.0).ok_or(MccpError::BadChannel)?;
        if ch.ready_at > self.now {
            return Err(MccpError::HandshakePending);
        }
        let epoch = ch.epoch;
        // Pipeline channels carry their whole transform in the graph: AAD
        // and caller-side tags have no stage to run on (mirrors the
        // cycle-accurate engine's pipeline admission).
        if matches!(*ch.key, KeyCtx::Stages(_))
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

        let (auth_ok, out_body, out_tag) = if let KeyCtx::Stages(graph) = &*ch.key {
            let (out_body, out_tag) =
                run_stages_functional(graph.stages(), iv, body, graph.tag_len)?;
            (true, out_body, out_tag.unwrap_or_default())
        } else {
            match run_mode(ch, direction, iv, aad, body, tag) {
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
    fn channels_sharing_key_bytes_keep_separate_contexts() {
        // Rekeying or closing one channel must not disturb another opened
        // under the same key bytes.
        let mut b = FunctionalBackend::new();
        let aes = Aes::new(&KEY);
        for (alg, iv, tag_len) in [
            (Algorithm::AesGcm128, vec![3u8; 12], 16),
            (Algorithm::AesCcm128, vec![3u8; 11], 8),
        ] {
            let want = match alg.mode() {
                Mode::Gcm => gcm_seal(&aes, &iv, b"hdr", b"payload", tag_len),
                _ => ccm_seal(
                    &aes,
                    &CcmParams {
                        nonce_len: 11,
                        tag_len,
                    },
                    &iv,
                    b"hdr",
                    b"payload",
                ),
            }
            .unwrap();
            let check = |b: &mut FunctionalBackend, ch| {
                let done =
                    submit_and_wait(b, ch, Direction::Encrypt, &iv, b"hdr", b"payload", None)
                        .expect("accepted");
                assert_eq!([done.body, done.tag].concat(), want, "{alg:?}");
            };
            let a = b.open_channel(alg, &KEY, tag_len).unwrap();
            let c = b.open_channel(alg, &KEY, tag_len).unwrap();
            b.rekey_channel(a, &[9u8; 16]).unwrap();
            check(&mut b, c);
            b.close_channel(a).unwrap();
            check(&mut b, c);
            b.close_channel(c).unwrap();
        }
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
