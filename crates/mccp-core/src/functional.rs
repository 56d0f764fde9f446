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
use crate::bytes::Tag;
use crate::fault::{FaultKind, FaultPlan, FaultTrigger};
use crate::format::Direction;
use crate::key::SessionKey;
use crate::pipeline::{run_stages_functional, PipelineGraph, PipelineStage};
use crate::protocol::{Algorithm, ChannelId, MccpError, Mode, RequestId};
use mccp_aes::modes::{
    cbc_mac, ccm_open_detached_into, ccm_seal_into, ctr_xcrypt, CcmParams, GcmContext, ModeError,
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
    /// A stage chain: the stages are the datapath and each carries its
    /// own key (there are no cores to map stages onto).
    Stages(Vec<PipelineStage>),
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
/// reference implementation of its mode, on the channel's key context,
/// returned as the output body and tag. A seal writes `ciphertext ‖ tag`
/// into the one output buffer, then the tag moves inline and the buffer
/// is truncated, so a packet allocates once: the body the caller keeps.
fn run_mode(
    ch: &FunctionalChannel,
    direction: Direction,
    iv: &[u8],
    aad: &[u8],
    body: &[u8],
    tag: Option<&[u8]>,
) -> Result<(Vec<u8>, Tag), ModeError> {
    let (tag, tag_len) = (tag.unwrap_or(&[]), ch.tag_len);
    let mut out = Vec::new();
    let sealed = match (&*ch.key, ch.algorithm.mode(), direction) {
        (KeyCtx::Gcm(gcm), _, Direction::Encrypt) => {
            gcm.seal_into(iv, aad, body, tag_len, &mut out)?;
            true
        }
        (KeyCtx::Gcm(gcm), _, Direction::Decrypt) => {
            gcm.open_detached_into(iv, aad, body, tag, &mut out)?;
            false
        }
        (KeyCtx::Aes(aes), Mode::Ccm, dir) => {
            let params = CcmParams {
                nonce_len: iv.len(),
                tag_len,
            };
            match dir {
                Direction::Encrypt => ccm_seal_into(aes, &params, iv, aad, body, &mut out)?,
                Direction::Decrypt => {
                    ccm_open_detached_into(aes, &params, iv, aad, body, tag, &mut out)?
                }
            }
            dir == Direction::Encrypt
        }
        (KeyCtx::Aes(aes), Mode::Ctr, _) => {
            let ctr0: &[u8; 16] = iv
                .try_into()
                .map_err(|_| ModeError::InvalidParams("CTR needs a 16-byte counter"))?;
            out.extend_from_slice(body);
            ctr_xcrypt(aes, ctr0, &mut out)?;
            false
        }
        (KeyCtx::Aes(aes), Mode::CbcMac, _) => {
            return Ok((out, Tag::from_slice(&cbc_mac(aes, body, tag_len)?)));
        }
        (KeyCtx::Aes(_), Mode::Gcm, _) => unreachable!("GCM channels hold a GCM context"),
        (KeyCtx::Stages(_), ..) => unreachable!("stage chains run through their graph"),
    };
    if !sealed {
        return Ok((out, Tag::EMPTY));
    }
    let n = out.len() - tag_len;
    let tag = Tag::from_slice(&out[n..]);
    out.truncate(n);
    Ok((out, tag))
}

/// A live channel on the functional engine.
struct FunctionalChannel {
    algorithm: Algorithm,
    /// Boxed: a GCM context is ~400 bytes, and the channel table holds
    /// one slot per handle ever opened.
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
    /// Open channels indexed by handle, grown on demand.
    channels: Vec<Option<FunctionalChannel>>,
    /// Occupied handles, one bit each: the lowest free handle is the first
    /// zero bit.
    occupied: [u64; 4],
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
    /// Per-handle packet ordinals (1-based), for failure attribution:
    /// indexed by handle, grown on demand, and kept across close, so a
    /// reopened handle counts on.
    channel_seq: Vec<u64>,
}

impl FunctionalBackend {
    pub fn new() -> Self {
        FunctionalBackend {
            channels: Vec::new(),
            occupied: [0; 4],
            completions: VecDeque::new(),
            next_request: 1,
            now: 0,
            telemetry: Telemetry::disabled(),
            faults: BTreeMap::new(),
            packets_submitted: 0,
            channel_seq: Vec::new(),
        }
    }

    fn channel(&self, channel: ChannelId) -> Result<&FunctionalChannel, MccpError> {
        let slot = self.channels.get(usize::from(channel.0));
        slot.and_then(Option::as_ref).ok_or(MccpError::BadChannel)
    }

    fn channel_mut(&mut self, channel: ChannelId) -> Result<&mut FunctionalChannel, MccpError> {
        let slot = self.channels.get_mut(usize::from(channel.0));
        slot.and_then(Option::as_mut).ok_or(MccpError::BadChannel)
    }

    /// Inserts a channel under the lowest free id.
    fn insert(
        &mut self,
        algorithm: Algorithm,
        key: KeyCtx,
        tag_len: usize,
    ) -> Result<ChannelId, MccpError> {
        let word = self
            .occupied
            .iter()
            .position(|w| *w != u64::MAX)
            .ok_or(MccpError::NoChannelId)?;
        let bit = self.occupied[word].trailing_ones();
        self.occupied[word] |= 1 << bit;
        let id = word * 64 + bit as usize;
        if self.channels.len() <= id {
            self.channels.resize_with(id + 1, || None);
        }
        self.channels[id] = Some(FunctionalChannel {
            algorithm,
            key: Box::new(key),
            tag_len,
            epoch: 0,
            ready_at: 0,
        });
        Ok(ChannelId(id as u8))
    }

    /// OPEN a pipeline channel — the functional mirror of
    /// [`Mccp::open_pipeline`](crate::Mccp::open_pipeline). Stage chains
    /// run through [`run_stages_functional`] at submission.
    pub fn open_pipeline(&mut self, graph: &PipelineGraph) -> Result<ChannelId, MccpError> {
        graph.validate()?;
        // The algorithm field is bookkeeping only for stage chains
        // (telemetry labels); the stages drive the processing, each on the
        // channel's own copy of its key.
        let copy = |st: &PipelineStage| {
            SessionKey::new(st.key.as_bytes()).map(|key| PipelineStage { key, ..*st })
        };
        let stages = graph.stages.iter().map(copy).collect::<Result<_, _>>()?;
        self.insert(Algorithm::AesCtr128, KeyCtx::Stages(stages), graph.tag_len)
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
        algorithm.check_key(key)?;
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
        let ready_at = self.now + handshake_cycles;
        self.channel_mut(id)?.ready_at = ready_at;
        Ok(id)
    }

    /// Rotates the channel onto `new_key` in place: the replaced key
    /// context is dropped, and so wiped, immediately (processing is
    /// synchronous here, so nothing can still be in flight on it). A stage
    /// chain is refused with [`MccpError::BadInstruction`], epoch
    /// untouched: its stages run on keys fixed when the graph opened, as on
    /// the cycle engine.
    fn rekey_channel(&mut self, channel: ChannelId, new_key: &[u8]) -> Result<u32, MccpError> {
        let ch = self.channel_mut(channel)?;
        if matches!(*ch.key, KeyCtx::Stages(_)) {
            return Err(MccpError::BadInstruction);
        }
        ch.algorithm.check_key(new_key)?;
        *ch.key = KeyCtx::new(ch.algorithm, new_key);
        ch.epoch += 1;
        Ok(ch.epoch)
    }

    fn channel_epoch(&self, channel: ChannelId) -> Result<u32, MccpError> {
        self.channel(channel).map(|c| c.epoch)
    }

    /// Frees the channel id; dropping the channel wipes its key context.
    fn close_channel(&mut self, channel: ChannelId) -> Result<(), MccpError> {
        if self.completions.iter().any(|(ch, _)| *ch == channel.0) {
            return Err(MccpError::Busy);
        }
        let id = usize::from(channel.0);
        let slot = self.channels.get_mut(id).ok_or(MccpError::BadChannel)?;
        slot.take().ok_or(MccpError::BadChannel)?;
        self.occupied[id / 64] &= !(1 << (id % 64));
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
        let ch = self.channels.get(usize::from(channel.0));
        let ch = ch.and_then(Option::as_ref).ok_or(MccpError::BadChannel)?;
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
            let handle = usize::from(channel.0);
            if self.channel_seq.len() <= handle {
                self.channel_seq.resize(handle + 1, 0);
            }
            self.channel_seq[handle] += 1;
            self.channel_seq[handle]
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
                    tag: Tag::EMPTY,
                    latency_cycles: 0,
                    fault: Some(error),
                    epoch,
                },
            ));
            return Ok(id);
        }

        let (auth_ok, out_body, out_tag) = if let KeyCtx::Stages(stages) = &*ch.key {
            let (out_body, out_tag) = run_stages_functional(stages, iv, body, ch.tag_len)?;
            let out_tag = out_tag.as_deref().map_or(Tag::EMPTY, Tag::from_slice);
            (true, out_body, out_tag)
        } else {
            match run_mode(ch, direction, iv, aad, body, tag) {
                Ok((out_body, out_tag)) => (true, out_body, out_tag),
                Err(ModeError::AuthFail) => {
                    let (request, channel) = (id.0, channel.0);
                    self.telemetry.emit_with(self.now, || Event::AuthFailWipe {
                        request,
                        channel,
                        sequence,
                    });
                    (false, Vec::new(), Tag::EMPTY)
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
    use mccp_aes::modes::{ccm_seal, gcm_seal};

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
                assert_eq!([&done.body[..], &done.tag].concat(), want, "{alg:?}");
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
