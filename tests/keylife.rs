//! Key-lifecycle integration tests: live rekeying with epoch-tagged
//! keys, retired-key zeroization, stale-epoch rejection, and the modeled
//! channel-establishment handshake — on both engines, through the shared
//! [`ChannelBackend`] surface.

use mccp::aes::modes::gcm_seal;
use mccp::aes::Aes;
use mccp::core::protocol::{ret, Algorithm, KeyId, MccpError};
use mccp::core::{
    submit_and_wait, ChannelBackend, Direction, FunctionalBackend, Mccp, MccpConfig, Tag,
};
use proptest::prelude::*;

/// One delivery: (epoch, ciphertext, tag).
type EpochOut = (u32, Vec<u8>, Tag);

fn cfg(cases: u32) -> ProptestConfig {
    ProptestConfig {
        cases,
        failure_persistence: None,
        ..ProptestConfig::default()
    }
}

proptest! {
    #![proptest_config(cfg(12))]
    #[test]
    fn rekey_is_epoch_exact_and_byte_identical_across_engines(
        key0 in proptest::array::uniform16(any::<u8>()),
        key1 in proptest::array::uniform16(any::<u8>()),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        body in proptest::collection::vec(any::<u8>(), 1..300),
        before in 1usize..3,
        after in 1usize..3,
    ) {
        prop_assume!(key0 != key1);
        let mut cycle = Mccp::new(MccpConfig::default());
        let mut func = FunctionalBackend::new();
        let mut outs: Vec<Vec<EpochOut>> = Vec::new();
        for engine in 0..2 {
            let b: &mut dyn ChannelBackend = if engine == 0 { &mut cycle } else { &mut func };
            let ch = b.open_channel(Algorithm::AesGcm128, &key0, 16).unwrap();
            let mut got = Vec::new();
            let mut ivn = 0u8;
            for _ in 0..before {
                ivn += 1;
                let c = submit_and_wait(b, ch, Direction::Encrypt, &[ivn; 12], &aad, &body, None).unwrap();
                got.push((c.epoch, c.body, c.tag));
            }
            let epoch = b.rekey_channel(ch, &key1).unwrap();
            prop_assert_eq!(epoch, 1, "one rotation, epoch 1");
            prop_assert_eq!(b.channel_epoch(ch).unwrap(), 1);
            for _ in 0..after {
                ivn += 1;
                let c = submit_and_wait(b, ch, Direction::Encrypt, &[ivn; 12], &aad, &body, None).unwrap();
                got.push((c.epoch, c.body, c.tag));
            }
            got.iter().take(before).for_each(|(e, _, _)| assert_eq!(*e, 0));
            got.iter().skip(before).for_each(|(e, _, _)| assert_eq!(*e, 1));
            outs.push(got);
        }
        // Cross-engine equivalence: same epochs, same bytes.
        prop_assert_eq!(&outs[0], &outs[1]);
        // And both match the software oracle for the right epoch's key.
        for (i, (epoch, ct, tag)) in outs[0].iter().enumerate() {
            let key = if *epoch == 0 { &key0 } else { &key1 };
            let sealed = gcm_seal(&Aes::new(key), &[(i + 1) as u8; 12], &aad, &body, 16).unwrap();
            prop_assert_eq!(&sealed[..body.len()], &ct[..]);
            prop_assert_eq!(&sealed[body.len()..], &tag[..]);
        }
    }
}

#[test]
fn in_flight_packets_finish_on_the_old_epoch() {
    // Rekey while a packet is mid-flight on the cycle engine: the packet
    // must complete under the key it was submitted with — zero drops —
    // and only later submissions see the new epoch.
    let key0 = [0x21u8; 16];
    let key1 = [0x84u8; 16];
    let mut m = Mccp::new(MccpConfig::default());
    let ch = m.open_channel(Algorithm::AesGcm128, &key0, 16).unwrap();
    let body = vec![0x3Cu8; 256];
    let req = m
        .submit_packet(ch, Direction::Encrypt, &[1u8; 12], b"a", &body, None)
        .unwrap();
    // Mid-flight rotation.
    let epoch = m.rekey_channel(ch, &key1).unwrap();
    assert_eq!(epoch, 1);
    let c = loop {
        if let Some(c) = m.poll_completion() {
            break c;
        }
        m.step(4096);
    };
    assert_eq!(c.request, req);
    assert_eq!(c.epoch, 0, "in-flight work finishes on its submit epoch");
    let sealed = gcm_seal(&Aes::new(&key0), &[1u8; 12], b"a", &body, 16).unwrap();
    assert_eq!(c.body, sealed[..body.len()], "old key, not the new one");
    // The next packet runs under the new key.
    let c2 = submit_and_wait(
        &mut m,
        ch,
        Direction::Encrypt,
        &[2u8; 12],
        b"a",
        &body,
        None,
    )
    .unwrap();
    assert_eq!(c2.epoch, 1);
    let sealed1 = gcm_seal(&Aes::new(&key1), &[2u8; 12], b"a", &body, 16).unwrap();
    assert_eq!(c2.body, sealed1[..body.len()]);
}

#[test]
fn retired_key_is_zeroized_once_the_last_old_epoch_packet_drains() {
    let key0 = [0x42u8; 16];
    let key1 = [0x17u8; 16];
    let mut m = Mccp::new(MccpConfig::default());
    let ch = m.open_channel(Algorithm::AesGcm128, &key0, 16).unwrap();
    // Trait-level open stores the key under the first free id.
    let old_kid = KeyId(1);
    assert!(m.key_memory_mut().contains(old_kid));
    let _req = m
        .submit_packet(ch, Direction::Encrypt, &[9u8; 12], b"", &[1u8; 200], None)
        .unwrap();
    m.rekey_channel(ch, &key1).unwrap();
    // The old key is retirement-pending while its packet is in flight:
    // still resident, because the engine needs it to finish the work.
    assert!(m.key_retirement_pending(old_kid));
    assert!(m.key_memory_mut().contains(old_kid));
    // Drain; the retirement reap runs at the transfer boundary.
    let c = loop {
        if let Some(c) = m.poll_completion() {
            break c;
        }
        m.step(4096);
    };
    assert!(c.auth_ok);
    assert!(
        !m.key_memory_mut().contains(old_kid),
        "old key must be erased (zeroized) once the last old-epoch packet drains"
    );
    assert!(!m.key_retirement_pending(old_kid));
    // The channel still serves under the new key.
    let c2 = submit_and_wait(
        &mut m,
        ch,
        Direction::Encrypt,
        &[8u8; 12],
        b"",
        &[1u8; 200],
        None,
    )
    .unwrap();
    assert!(c2.auth_ok);
    assert_eq!(c2.epoch, 1);
}

#[test]
fn stale_epoch_is_a_typed_non_retryable_rejection_on_both_engines() {
    let engines: Vec<Box<dyn ChannelBackend>> = vec![
        Box::new(Mccp::new(MccpConfig::default())),
        Box::new(FunctionalBackend::new()),
    ];
    for mut b in engines {
        let ch = b
            .open_channel(Algorithm::AesGcm128, &[7u8; 16], 16)
            .unwrap();
        let epoch0 = b.channel_epoch(ch).unwrap();
        b.rekey_channel(ch, &[8u8; 16]).unwrap();
        let err = b
            .submit_packet_epoch(
                ch,
                epoch0,
                Direction::Encrypt,
                &[1u8; 12],
                b"",
                &[0u8; 64],
                None,
            )
            .unwrap_err();
        assert_eq!(err, MccpError::StaleEpoch, "{}", b.backend_name());
        assert_eq!(err.code(), ret::ERR_STALE_EPOCH);
        assert!(!err.is_retryable(), "stale epochs never succeed on retry");
        assert_eq!(b.in_flight(), 0, "rejected before any core was touched");
        // The current epoch still submits fine.
        let c = submit_and_wait(
            &mut *b,
            ch,
            Direction::Encrypt,
            &[1u8; 12],
            b"",
            &[0u8; 64],
            None,
        )
        .unwrap();
        assert!(c.auth_ok);
        assert_eq!(c.epoch, 1);
    }
}

#[test]
fn handshake_gates_submissions_until_the_horizon_passes() {
    let hs = 10_000u64;
    let engines: Vec<Box<dyn ChannelBackend>> = vec![
        Box::new(Mccp::new(MccpConfig::default())),
        Box::new(FunctionalBackend::new()),
    ];
    for mut b in engines {
        let ch = b
            .open_channel_handshake(Algorithm::AesGcm128, &[3u8; 16], 16, hs)
            .unwrap();
        let err = b
            .submit_packet(ch, Direction::Encrypt, &[1u8; 12], b"", &[0u8; 32], None)
            .unwrap_err();
        assert_eq!(err, MccpError::HandshakePending, "{}", b.backend_name());
        assert_eq!(err.code(), ret::ERR_HANDSHAKE_PENDING);
        // Step past the establishment horizon; the channel comes alive.
        while b.now() < hs {
            b.step(hs);
        }
        let req = b
            .submit_packet(ch, Direction::Encrypt, &[1u8; 12], b"", &[0u8; 32], None)
            .expect("alive past the horizon");
        b.drain(1_000_000);
        let c = b.poll_completion().expect("drained");
        assert_eq!(c.request, req);
        assert!(c.auth_ok);
    }
}

#[test]
fn handshake_overlaps_with_live_traffic_on_the_cycle_engine() {
    // The ECC establishment runs on the asymmetric unit, not a crypto
    // core — so traffic on an established channel proceeds at full rate
    // while another channel is mid-handshake.
    let hs = 40_000u64;
    let mut m = Mccp::new(MccpConfig::default());
    let live = m
        .open_channel(Algorithm::AesGcm128, &[1u8; 16], 16)
        .unwrap();
    let pending = m
        .open_channel_handshake(Algorithm::AesGcm128, &[2u8; 16], 16, hs)
        .unwrap();
    assert!(m.handshake_remaining(pending).unwrap() > 0);
    // Serve traffic on the live channel well before the handshake ends.
    let c = submit_and_wait(
        &mut m,
        live,
        Direction::Encrypt,
        &[5u8; 12],
        b"",
        &[9u8; 512],
        None,
    )
    .unwrap();
    assert!(c.auth_ok);
    assert!(
        m.now() < hs,
        "live traffic finished while the handshake was still pending ({} < {hs})",
        m.now()
    );
    assert!(m.handshake_remaining(pending).unwrap() > 0);
    // And the pending channel serves once its horizon passes.
    while m.handshake_remaining(pending).unwrap() > 0 {
        m.step(hs);
    }
    let req = m
        .submit_packet(
            pending,
            Direction::Encrypt,
            &[6u8; 12],
            b"",
            &[9u8; 64],
            None,
        )
        .expect("alive past the horizon");
    m.drain(1_000_000);
    let c2 = m.poll_completion().expect("drained");
    assert_eq!(c2.request, req);
    assert!(c2.auth_ok);
}
