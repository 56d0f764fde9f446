//! The adversarial traffic plane: attacker-shaped frames replayed against
//! a live engine, with the rejection contract asserted for every class.
//!
//! Where [`mccp_core::FaultPlan`] models the *hardware* misbehaving, an
//! [`AdversaryPlan`] models the *network*: tampered ciphertext, flipped
//! tag bits, replayed IVs, truncated and extended frames, submissions
//! tagged with a retired key epoch, and frames aimed at forged or
//! recycled channel ids. [`run_adversary_suite`] drives a seeded plan
//! against any [`ChannelBackend`] — both engines must satisfy the same
//! contract:
//!
//! * every attack is **rejected** — a typed [`MccpError`], a receiver-side
//!   replay block, or a failed authentication;
//! * **no plaintext** is ever released on a rejection (failed auth
//!   delivers an empty body);
//! * **no nonce is burned**: attack traffic leaves the channel's crypto
//!   state untouched, proven by a post-attack probe encryption that must
//!   still match the software oracle byte-for-byte.

use std::collections::HashSet;

use mccp_aes::modes::gcm_seal;
use mccp_aes::Aes;
use mccp_core::format::Direction;
use mccp_core::protocol::{Algorithm, ChannelId, MccpError};
use mccp_core::{submit_and_wait, AdversaryKind, AdversaryPlan, ChannelBackend, Completion};

/// One legitimate frame captured off the victim channel.
#[derive(Clone)]
struct Frame {
    iv: Vec<u8>,
    aad: Vec<u8>,
    ct: Vec<u8>,
    tag: Vec<u8>,
}

/// The outcome of one adversarial soak: totals per rejection path plus
/// the two leak counters the security contract requires to be zero.
#[derive(Clone, Debug, Default)]
pub struct AdversaryReport {
    /// Attacks driven.
    pub attacks: u64,
    /// Attacks rejected (any path). The contract is `rejected == attacks`.
    pub rejected: u64,
    /// Rejections via failed authentication (tag check).
    pub auth_failures: u64,
    /// Rejections via a typed [`MccpError`] before any crypto ran.
    pub typed_errors: u64,
    /// Rejections by the receiver-side replay window.
    pub replay_blocks: u64,
    /// Attacks that released plaintext bytes — must stay 0.
    pub plaintext_leaks: u64,
    /// Attacks that disturbed the channel's crypto state (post-attack
    /// probe no longer matches the oracle) — must stay 0.
    pub nonces_burned: u64,
    /// Per-attack-class counts, `(label, driven, rejected)`.
    pub per_kind: Vec<(&'static str, u64, u64)>,
}

impl AdversaryReport {
    /// True when the full contract held: everything rejected, nothing
    /// leaked, no crypto state disturbed.
    pub fn contract_holds(&self) -> bool {
        self.rejected == self.attacks && self.plaintext_leaks == 0 && self.nonces_burned == 0
    }
}

fn encrypt_frame<B: ChannelBackend>(
    backend: &mut B,
    ch: ChannelId,
    iv: &[u8],
    aad: &[u8],
    payload: &[u8],
) -> Frame {
    let c = submit_and_wait(backend, ch, Direction::Encrypt, iv, aad, payload, None)
        .expect("legit encrypt accepted");
    assert!(c.auth_ok);
    Frame {
        iv: iv.to_vec(),
        aad: aad.to_vec(),
        ct: c.body,
        tag: c.tag,
    }
}

/// Checks that the channel still encrypts exactly what the software
/// oracle says it should — the "no nonce burned / no state disturbed"
/// witness run after every attack batch.
fn probe_matches_oracle<B: ChannelBackend>(
    backend: &mut B,
    ch: ChannelId,
    key: &[u8],
    iv: &[u8],
) -> bool {
    let payload = b"post-attack probe: state must be untouched";
    let c = match submit_and_wait(backend, ch, Direction::Encrypt, iv, b"probe", payload, None) {
        Ok(c) => c,
        Err(_) => return false,
    };
    let sealed = gcm_seal(&Aes::new(key), iv, b"probe", payload, 16).expect("oracle");
    let (oct, otag) = sealed.split_at(sealed.len() - 16);
    c.auth_ok && c.body == oct && c.tag == otag
}

/// Drives a seeded [`AdversaryPlan`] against a fresh GCM channel on
/// `backend`: captures legitimate frames under two key epochs (rotating
/// live in between), applies every attack, and accounts each rejection
/// path. The returned report's [`AdversaryReport::contract_holds`] is the
/// pass verdict; the suite itself asserts the engine never panics or
/// wedges.
pub fn run_adversary_suite<B: ChannelBackend>(
    backend: &mut B,
    plan: &AdversaryPlan,
) -> AdversaryReport {
    let key_old = [0x4Bu8; 16];
    let key_new = [0xA7u8; 16];
    let ch = backend
        .open_channel(Algorithm::AesGcm128, &key_old, 16)
        .expect("victim channel");

    // Legit traffic under epoch 0, then a live rotation, then epoch 1.
    let epoch0 = backend.channel_epoch(ch).expect("live channel");
    let mut frames = Vec::new();
    for i in 0..4u8 {
        let iv = [i + 1; 12];
        frames.push(encrypt_frame(backend, ch, &iv, b"hdr", &[i ^ 0x5A; 96]));
    }
    let epoch1 = backend.rekey_channel(ch, &key_new).expect("live rekey");
    assert_eq!(epoch1, epoch0 + 1, "rekey bumps exactly one epoch");
    for i in 4..8u8 {
        let iv = [i + 1; 12];
        frames.push(encrypt_frame(backend, ch, &iv, b"hdr", &[i ^ 0x5A; 96]));
    }

    // The receiver's replay window: IVs it has already accepted.
    let mut seen_ivs: HashSet<Vec<u8>> = HashSet::new();
    for f in &frames {
        seen_ivs.insert(f.iv.clone());
    }

    let mut report = AdversaryReport::default();
    let mut kinds: Vec<(&'static str, u64, u64)> = Vec::new();
    let count = |kinds: &mut Vec<(&'static str, u64, u64)>, label, rejected: bool| match kinds
        .iter_mut()
        .find(|(l, _, _)| *l == label)
    {
        Some(row) => {
            row.1 += 1;
            row.2 += u64::from(rejected);
        }
        None => kinds.push((label, 1, u64::from(rejected))),
    };

    for (i, kind) in plan.attacks.iter().enumerate() {
        // Only frames of the current epoch decrypt under the bound key;
        // mutation attacks use those so "auth fail" is attributable to
        // the mutation alone.
        let frame = &frames[4 + (i % 4)];
        report.attacks += 1;
        let rejected = match *kind {
            AdversaryKind::TamperCiphertext { byte, xor } => {
                let mut ct = frame.ct.clone();
                let idx = byte % ct.len();
                ct[idx] ^= xor;
                let c = submit_and_wait(
                    backend,
                    ch,
                    Direction::Decrypt,
                    &frame.iv,
                    &frame.aad,
                    &ct,
                    Some(&frame.tag),
                )
                .expect("decrypt submission accepted");
                settle_auth(&c, &mut report)
            }
            AdversaryKind::FlipTagBit { bit } => {
                let mut tag = frame.tag.clone();
                let b = (bit as usize) % (tag.len() * 8);
                tag[b / 8] ^= 1 << (b % 8);
                let c = submit_and_wait(
                    backend,
                    ch,
                    Direction::Decrypt,
                    &frame.iv,
                    &frame.aad,
                    &frame.ct,
                    Some(&tag),
                )
                .expect("decrypt submission accepted");
                settle_auth(&c, &mut report)
            }
            AdversaryKind::ReplayFrame => {
                // The frame is *valid* — the replay window must stop it
                // before the engine ever sees it.
                let blocked = seen_ivs.contains(&frame.iv);
                if blocked {
                    report.replay_blocks += 1;
                }
                blocked
            }
            AdversaryKind::TruncateFrame { bytes } => {
                let keep = frame.ct.len().saturating_sub(bytes.max(1));
                let c = submit_and_wait(
                    backend,
                    ch,
                    Direction::Decrypt,
                    &frame.iv,
                    &frame.aad,
                    &frame.ct[..keep],
                    Some(&frame.tag),
                )
                .expect("decrypt submission accepted");
                settle_auth(&c, &mut report)
            }
            AdversaryKind::ExtendFrame { bytes, fill } => {
                let mut ct = frame.ct.clone();
                ct.resize(ct.len() + bytes.max(1), fill);
                let c = submit_and_wait(
                    backend,
                    ch,
                    Direction::Decrypt,
                    &frame.iv,
                    &frame.aad,
                    &ct,
                    Some(&frame.tag),
                )
                .expect("decrypt submission accepted");
                settle_auth(&c, &mut report)
            }
            AdversaryKind::StaleEpochSubmit => {
                // A frame tagged with the retired epoch: rejected typed,
                // before any core, IV, or nonce accounting.
                let old = &frames[i % 4];
                match backend.submit_packet_epoch(
                    ch,
                    epoch0,
                    Direction::Decrypt,
                    &old.iv,
                    &old.aad,
                    &old.ct,
                    Some(&old.tag),
                ) {
                    Err(MccpError::StaleEpoch) => {
                        report.typed_errors += 1;
                        true
                    }
                    Err(_) | Ok(_) => false,
                }
            }
            AdversaryKind::ForgeChannelId { salt } => {
                // A recycled-slot forgery: open a throwaway channel, close
                // it, then aim a frame at the dead handle (salted payload
                // so each forgery differs).
                let victim = backend
                    .open_channel(Algorithm::AesGcm128, &[salt as u8; 16], 16)
                    .expect("throwaway channel");
                backend.close_channel(victim).expect("close");
                let body = vec![(salt >> 8) as u8; 32];
                match backend.submit_packet(
                    victim,
                    Direction::Decrypt,
                    &frame.iv,
                    b"",
                    &body,
                    Some(&frame.tag),
                ) {
                    Err(MccpError::BadChannel) => {
                        report.typed_errors += 1;
                        true
                    }
                    Err(_) | Ok(_) => false,
                }
            }
        };
        if rejected {
            report.rejected += 1;
        }
        count(&mut kinds, kind.label(), rejected);
    }

    // The witness probe: the victim channel's crypto state must be
    // exactly where legit traffic left it.
    if !probe_matches_oracle(backend, ch, &key_new, &[0xEEu8; 12]) {
        report.nonces_burned += 1;
    }
    assert_eq!(
        backend.channel_epoch(ch).expect("still live"),
        epoch1,
        "attack traffic must not advance the key epoch"
    );
    report.per_kind = kinds;
    report
}

/// Classifies an engine completion for a mutated frame: rejection means
/// failed auth *and* an empty body.
fn settle_auth(c: &Completion, report: &mut AdversaryReport) -> bool {
    if !c.body.is_empty() {
        report.plaintext_leaks += 1;
        return false;
    }
    if c.auth_ok {
        return false;
    }
    report.auth_failures += 1;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccp_core::{FunctionalBackend, Mccp, MccpConfig};

    #[test]
    fn every_attack_class_is_rejected_on_the_functional_engine() {
        let plan = AdversaryPlan::random(0xAD5E_ED01, 28);
        let mut b = FunctionalBackend::new();
        let r = run_adversary_suite(&mut b, &plan);
        assert_eq!(r.attacks, 28);
        assert!(r.contract_holds(), "{r:?}");
        assert_eq!(r.per_kind.len(), AdversaryKind::VARIANTS as usize);
        for (label, driven, rejected) in &r.per_kind {
            assert_eq!(driven, rejected, "{label}: some attacks slipped through");
        }
    }

    #[test]
    fn every_attack_class_is_rejected_on_the_cycle_engine() {
        let plan = AdversaryPlan::random(0xAD5E_ED02, 14);
        let mut b = Mccp::new(MccpConfig::default());
        let r = run_adversary_suite(&mut b, &plan);
        assert_eq!(r.attacks, 14);
        assert!(r.contract_holds(), "{r:?}");
        assert!(r.auth_failures > 0 && r.typed_errors > 0 && r.replay_blocks > 0);
    }
}
