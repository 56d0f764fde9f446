//! Security-property integration tests: the paper's red/black boundary
//! claims (§III.A) and the anti-spoofing FIFO wipe (§IV.C).

use mccp::core::core_unit::Personality;
use mccp::core::protocol::{Algorithm, CipherSel, KeyId, MccpError};
use mccp::core::{
    ChannelBackend, Direction, FunctionalBackend, Mccp, MccpConfig, PipelineGraph, PipelineStage,
    SessionKey, StageOp,
};
use proptest::prelude::*;

fn setup() -> (Mccp, mccp::core::protocol::ChannelId) {
    let mut m = Mccp::new(MccpConfig::default());
    m.key_memory_mut().store(KeyId(1), &[0x42; 16]);
    let ch = m.open(Algorithm::AesGcm128, KeyId(1)).unwrap();
    (m, ch)
}

fn cfg(cases: u32) -> ProptestConfig {
    ProptestConfig {
        cases,
        failure_persistence: None,
        ..ProptestConfig::default()
    }
}

#[test]
fn auth_failure_releases_nothing() {
    let (mut m, ch) = setup();
    let body = b"highly classified plaintext that must never leak on tamper";
    let pkt = m.encrypt_packet(ch, b"hdr", body, &[1u8; 12]).unwrap();

    let mut evil_tag = pkt.tag.clone();
    evil_tag[15] ^= 1;
    let id = m
        .submit(
            ch,
            Direction::Decrypt,
            &[1u8; 12],
            b"hdr",
            &pkt.ciphertext,
            Some(&evil_tag),
        )
        .unwrap();
    let cores = m.request_cores(id).unwrap().to_vec();
    m.run_until_done(id, 10_000_000);

    // RETRIEVE_DATA returns AUTH_FAIL...
    assert_eq!(m.retrieve(id).unwrap_err(), MccpError::AuthFail);
    // ...and the producing core's output FIFO has been reinitialized: no
    // plaintext words remain readable.
    for &c in &cores {
        assert!(
            m.core(c).output.is_empty(),
            "core {c} output FIFO still holds data after AUTH_FAIL"
        );
        assert!(m.core(c).wipes() > 0, "core {c} never wiped");
    }
    m.transfer_done(id).unwrap();

    // The channel remains usable afterwards.
    let pkt2 = m.encrypt_packet(ch, b"hdr", body, &[2u8; 12]).unwrap();
    let dec = m
        .decrypt_packet(ch, b"hdr", &pkt2.ciphertext, &pkt2.tag, &[2u8; 12])
        .unwrap();
    assert_eq!(dec.plaintext, body);
}

#[test]
fn wrong_aad_and_wrong_iv_both_fail() {
    let (mut m, ch) = setup();
    let pkt = m
        .encrypt_packet(ch, b"aad", b"payload", &[3u8; 12])
        .unwrap();
    assert_eq!(
        m.decrypt_packet(ch, b"dad", &pkt.ciphertext, &pkt.tag, &[3u8; 12])
            .unwrap_err(),
        MccpError::AuthFail
    );
    assert_eq!(
        m.decrypt_packet(ch, b"aad", &pkt.ciphertext, &pkt.tag, &[4u8; 12])
            .unwrap_err(),
        MccpError::AuthFail
    );
}

#[test]
fn truncated_and_extended_tags_fail() {
    let (mut m, ch) = setup();
    let pkt = m.encrypt_packet(ch, &[], b"data", &[5u8; 12]).unwrap();
    // A zeroed tag of the right length.
    assert_eq!(
        m.decrypt_packet(ch, &[], &pkt.ciphertext, &[0u8; 16], &[5u8; 12])
            .unwrap_err(),
        MccpError::AuthFail
    );
    // Bit-flip in every tag byte position must be caught.
    for i in 0..16 {
        let mut t = pkt.tag.clone();
        t[i] ^= 0x01;
        assert_eq!(
            m.decrypt_packet(ch, &[], &pkt.ciphertext, &t, &[5u8; 12])
                .unwrap_err(),
            MccpError::AuthFail,
            "flip at byte {i} not detected"
        );
    }
}

#[test]
fn keys_are_not_reachable_through_the_api() {
    // The Key Memory offers presence/size metadata only; there is no read
    // path. This is a compile-time property — this test documents it by
    // exercising everything the MCCP-facing API exposes about a key.
    let mut m = Mccp::new(MccpConfig::default());
    m.key_memory_mut().store(KeyId(9), &[0xAA; 32]);
    assert!(m.key_memory_mut().contains(KeyId(9)));
    assert_eq!(
        m.key_memory_mut().key_size(KeyId(9)),
        Some(mccp::aes::KeySize::Aes256)
    );
    // Erasure zeroizes.
    m.key_memory_mut().erase(KeyId(9));
    assert!(!m.key_memory_mut().contains(KeyId(9)));
}

#[test]
fn ciphertexts_do_not_leak_key_or_plaintext_structure() {
    // Weak but useful smoke check: encrypting all-zero payloads produces
    // high-entropy-looking output that differs per IV (no ECB-style
    // repetition, no key bytes in the output stream).
    let (mut m, ch) = setup();
    let zeros = vec![0u8; 64];
    let a = m.encrypt_packet(ch, &[], &zeros, &[1u8; 12]).unwrap();
    let b = m.encrypt_packet(ch, &[], &zeros, &[2u8; 12]).unwrap();
    assert_ne!(a.ciphertext, b.ciphertext, "IV must randomize the stream");
    // No 16-byte block repeats within a single CTR keystream.
    let blocks: Vec<&[u8]> = a.ciphertext.chunks(16).collect();
    for i in 0..blocks.len() {
        for j in i + 1..blocks.len() {
            assert_ne!(blocks[i], blocks[j], "keystream block repetition");
        }
    }
}

#[test]
fn transfer_done_clears_residual_fifo_state() {
    let (mut m, ch) = setup();
    let id = m
        .submit(ch, Direction::Encrypt, &[8u8; 12], &[], &[0xEE; 128], None)
        .unwrap();
    let cores = m.request_cores(id).unwrap().to_vec();
    m.run_until_done(id, 10_000_000);
    let _ = m.retrieve(id).unwrap();
    m.transfer_done(id).unwrap();
    for &c in &cores {
        assert!(m.core(c).input.is_empty(), "input FIFO not cleared");
        assert!(m.core(c).output.is_empty(), "output FIFO not cleared");
        assert!(m.core(c).is_idle());
    }
}

/// Splitmix64 — deterministic shape/key material for the garbage fuzzers.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn drive<B: ChannelBackend + ?Sized>(b: &mut B) -> mccp::core::Completion {
    loop {
        if let Some(c) = b.poll_completion() {
            return c;
        }
        b.step(4096);
    }
}

proptest! {
    #![proptest_config(cfg(24))]
    #[test]
    fn decrypt_of_garbage_never_panics_on_either_engine(
        garbage in proptest::collection::vec(any::<u8>(), 0..300),
        tag in proptest::array::uniform16(any::<u8>()),
        iv in proptest::array::uniform12(any::<u8>()),
    ) {
        let engines: Vec<Box<dyn ChannelBackend>> = vec![
            Box::new(Mccp::new(MccpConfig::default())),
            Box::new(FunctionalBackend::new()),
        ];
        for mut b in engines {
            let ch = b.open_channel(Algorithm::AesGcm128, &[0x42; 16], 16).unwrap();
            b.submit_packet(ch, Direction::Decrypt, &iv, b"x", &garbage, Some(&tag))
                .unwrap();
            let c = drive(&mut *b);
            prop_assert!(!c.auth_ok, "{}: forged tag must not verify", b.backend_name());
            prop_assert!(c.body.is_empty(), "{}: no plaintext on auth failure", b.backend_name());
            // The channel survives the garbage and still serves.
            b.submit_packet(ch, Direction::Encrypt, &iv, b"x", b"probe", None).unwrap();
            prop_assert!(drive(&mut *b).auth_ok);
        }
    }
}

proptest! {
    #![proptest_config(cfg(16))]
    #[test]
    fn decrypt_of_garbage_never_panics_on_random_pipelines(
        shape_seed in any::<u64>(),
        key_seed in any::<u64>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..160),
        iv_head in proptest::array::uniform12(any::<u8>()),
    ) {
        // A random 1–3 stage pipeline graph (CTR cascades into an
        // optionally MAC-ed final stage, mixed AES/Twofish personalities).
        let mut s = shape_seed;
        let mut k = key_seed;
        let n_stages = 1 + (mix(&mut s) % 3) as usize;
        let mut stages = Vec::with_capacity(n_stages);
        let mut tag_len = 16;
        for i in 0..n_stages {
            let last = i + 1 == n_stages;
            let op = if last {
                match mix(&mut s) % 3 {
                    0 => StageOp::Ctr,
                    1 => StageOp::CbcMac,
                    _ => StageOp::WhirlpoolHmac,
                }
            } else {
                StageOp::Ctr
            };
            let cipher = if mix(&mut s) & 1 == 0 { CipherSel::Aes } else { CipherSel::Twofish };
            let key = match (op, cipher) {
                (StageOp::WhirlpoolHmac, _) => {
                    (0..1 + (mix(&mut s) % 64) as usize).map(|_| mix(&mut k) as u8).collect()
                }
                (_, CipherSel::Twofish) => (0..16).map(|_| mix(&mut k) as u8).collect(),
                (_, CipherSel::Aes) => {
                    let len = [16usize, 24, 32][(mix(&mut s) % 3) as usize];
                    (0..len).map(|_| mix(&mut k) as u8).collect::<Vec<u8>>()
                }
            };
            if last {
                tag_len = match op {
                    StageOp::CbcMac => 1 + (mix(&mut s) % 16) as usize,
                    StageOp::WhirlpoolHmac => 1 + (mix(&mut s) % 64) as usize,
                    StageOp::Ctr => 16,
                };
            }
            let key = SessionKey::new(&key).unwrap();
            stages.push(PipelineStage { op, cipher, key });
        }
        let graph = PipelineGraph::new(stages, tag_len);
        prop_assert!(graph.validate().is_ok());
        let authenticated = graph.stages.last().unwrap().op.is_mac();
        let mut iv = [0u8; 16];
        iv[..12].copy_from_slice(&iv_head);
        let forged_tag: Vec<u8> = (0..tag_len).map(|_| mix(&mut k) as u8).collect();

        for engine in 0..2 {
            let mut cycle;
            let mut func;
            let (b, ch): (&mut dyn ChannelBackend, _) = if engine == 0 {
                cycle = Mccp::new(MccpConfig::default());
                cycle.core_mut(1).set_personality(Personality::TwofishUnit);
                cycle.core_mut(2).set_personality(Personality::WhirlpoolUnit);
                let ch = cycle.open_pipeline(&graph).unwrap();
                (&mut cycle, ch)
            } else {
                func = FunctionalBackend::new();
                let ch = func.open_pipeline(&graph).unwrap();
                (&mut func, ch)
            };
            let iv_arg: &[u8] = if graph.needs_iv() { &iv } else { &[] };
            let tag_arg = if authenticated { Some(&forged_tag[..]) } else { None };
            match b.submit_packet(ch, Direction::Decrypt, iv_arg, &[], &garbage, tag_arg) {
                Ok(_) => {
                    let c = drive(b);
                    if authenticated {
                        prop_assert!(!c.auth_ok, "{}: forged pipeline tag verified", b.backend_name());
                        prop_assert!(c.body.is_empty(), "{}: pipeline leaked on auth fail", b.backend_name());
                    }
                }
                // A typed rejection (bad length for the graph, etc.) is
                // fine — the property is no panic and no leak.
                Err(e) => prop_assert!(e.code() != 0, "typed error expected, got {e:?}"),
            }
        }
    }
}

#[test]
fn rekeying_switches_keys_between_packets() {
    use mccp::aes::modes::gcm_seal;
    use mccp::aes::Aes;
    let mut m = Mccp::new(MccpConfig::default());
    let k1 = [0x10u8; 16];
    let k2 = [0x20u8; 16];
    m.key_memory_mut().store(KeyId(1), &k1);
    m.key_memory_mut().store(KeyId(2), &k2);
    let ch = m.open(Algorithm::AesGcm128, KeyId(1)).unwrap();

    let a = m.encrypt_packet(ch, &[], b"payload", &[1u8; 12]).unwrap();
    m.rekey(ch, KeyId(2)).unwrap();
    let b = m.encrypt_packet(ch, &[], b"payload", &[1u8; 12]).unwrap();

    let r1 = gcm_seal(&Aes::new(&k1), &[1u8; 12], &[], b"payload", 16).unwrap();
    let r2 = gcm_seal(&Aes::new(&k2), &[1u8; 12], &[], b"payload", 16).unwrap();
    assert_eq!(a.ciphertext, r1[..7]);
    assert_eq!(b.ciphertext, r2[..7]);
    assert_ne!(a.ciphertext, b.ciphertext);

    // Rekey validation: unknown key and size mismatch are refused.
    assert_eq!(m.rekey(ch, KeyId(9)).unwrap_err(), MccpError::BadKey);
    m.key_memory_mut().store(KeyId(3), &[0x30u8; 32]);
    assert_eq!(m.rekey(ch, KeyId(3)).unwrap_err(), MccpError::BadKey);
}

#[test]
fn hardware_fault_injection_is_caught_by_auth() {
    // Flip a bit inside a core's input FIFO *mid-flight* (a modeled SEU /
    // glitch on the ciphertext words) — the tag check must catch it.
    let (mut m, ch) = setup();
    let payload = vec![0x42u8; 512];
    let pkt = m.encrypt_packet(ch, &[], &payload, &[6u8; 12]).unwrap();

    let id = m
        .submit(
            ch,
            Direction::Decrypt,
            &[6u8; 12],
            &[],
            &pkt.ciphertext,
            Some(&pkt.tag),
        )
        .unwrap();
    let core = m.request_cores(id).unwrap()[0];
    // Let the upload get ahead, then corrupt a queued ciphertext word.
    for _ in 0..200 {
        m.tick();
    }
    let w = m.core_mut(core).input.pop().expect("words queued");
    assert!(m.core_mut(core).input.push(w ^ 0x0000_0100));
    // Keep the stream order intact: rotate the remaining words once so the
    // corrupted word sits at the back — order changes are themselves a
    // corruption, which is equally detectable; either way auth must fail.
    m.run_until_done(id, 10_000_000);
    assert_eq!(m.retrieve(id).unwrap_err(), MccpError::AuthFail);
    assert!(m.core(core).output.is_empty(), "no plaintext released");
    m.transfer_done(id).unwrap();
}
