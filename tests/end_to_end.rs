//! Cross-crate integration: the full cycle-accurate MCCP (task scheduler →
//! PicoBlaze firmware → Cryptographic Unit → FIFOs) against the NIST
//! reference implementations, across modes, key sizes, directions and
//! packet shapes.

use mccp::aes::modes::{ccm_seal, gcm_seal, CcmParams};
use mccp::aes::Aes;
use mccp::core::protocol::{Algorithm, KeyId};
use mccp::core::{Mccp, MccpConfig};

fn mccp_with(key: &[u8]) -> Mccp {
    let mut m = Mccp::new(MccpConfig::default());
    m.key_memory_mut().store(KeyId(1), key);
    m
}

#[test]
fn gcm_all_key_sizes_and_shapes() {
    for key_len in [16usize, 24, 32] {
        let key: Vec<u8> = (0..key_len as u8).map(|i| i.wrapping_mul(9)).collect();
        let alg = match key_len {
            16 => Algorithm::AesGcm128,
            24 => Algorithm::AesGcm192,
            _ => Algorithm::AesGcm256,
        };
        let mut m = mccp_with(&key);
        let ch = m.open(alg, KeyId(1)).unwrap();
        let aes = Aes::new(&key);
        // Shapes: aligned, unaligned, single byte, one block, AAD-heavy.
        for (aad_len, body_len) in [(0usize, 64usize), (13, 100), (0, 1), (32, 16), (100, 0)] {
            let aad: Vec<u8> = (0..aad_len as u8).collect();
            let body: Vec<u8> = (0..body_len).map(|i| (i * 7) as u8).collect();
            let iv = [key_len as u8; 12];
            let pkt = m.encrypt_packet(ch, &aad, &body, &iv).unwrap();
            let reference = gcm_seal(&aes, &iv, &aad, &body, 16).unwrap();
            assert_eq!(
                pkt.ciphertext,
                reference[..body_len],
                "{key_len}/{aad_len}/{body_len}"
            );
            assert_eq!(
                pkt.tag,
                reference[body_len..],
                "{key_len}/{aad_len}/{body_len}"
            );
            // And decrypt back through the hardware.
            let dec = m
                .decrypt_packet(ch, &aad, &pkt.ciphertext, &pkt.tag, &iv)
                .unwrap();
            assert_eq!(dec.plaintext, body);
        }
    }
}

#[test]
fn ccm_all_key_sizes_both_schedules() {
    for two_core in [false, true] {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len as u8).map(|i| i.wrapping_add(3)).collect();
            let alg = match key_len {
                16 => Algorithm::AesCcm128,
                24 => Algorithm::AesCcm192,
                _ => Algorithm::AesCcm256,
            };
            let mut m = Mccp::new(MccpConfig {
                ccm_two_core: two_core,
                ..MccpConfig::default()
            });
            m.key_memory_mut().store(KeyId(1), &key);
            let ch = m.open_with_tag_len(alg, KeyId(1), 8).unwrap();
            let aes = Aes::new(&key);
            let nonce = [7u8; 11];
            let body: Vec<u8> = (0..77u8).collect();
            let pkt = m.encrypt_packet(ch, b"hdr", &body, &nonce).unwrap();
            let params = CcmParams {
                nonce_len: 11,
                tag_len: 8,
            };
            let reference = ccm_seal(&aes, &params, &nonce, b"hdr", &body).unwrap();
            assert_eq!(
                pkt.ciphertext,
                reference[..77],
                "two_core={two_core} key={key_len}"
            );
            assert_eq!(
                pkt.tag,
                reference[77..],
                "two_core={two_core} key={key_len}"
            );
            let dec = m
                .decrypt_packet(ch, b"hdr", &pkt.ciphertext, &pkt.tag, &nonce)
                .unwrap();
            assert_eq!(dec.plaintext, body);
        }
    }
}

#[test]
fn mixed_channels_share_the_four_cores() {
    // One MCCP, four channels with different algorithms and keys, packets
    // interleaved — the paper's multi-standard scenario.
    let mut m = Mccp::new(MccpConfig::default());
    m.key_memory_mut().store(KeyId(1), &[0x11; 16]);
    m.key_memory_mut().store(KeyId(2), &[0x22; 24]);
    m.key_memory_mut().store(KeyId(3), &[0x33; 32]);
    m.key_memory_mut().store(KeyId(4), &[0x44; 16]);
    let gcm = m.open(Algorithm::AesGcm128, KeyId(1)).unwrap();
    let gcm192 = m.open(Algorithm::AesGcm192, KeyId(2)).unwrap();
    let ccm = m
        .open_with_tag_len(Algorithm::AesCcm256, KeyId(3), 16)
        .unwrap();
    let ctr = m.open(Algorithm::AesCtr128, KeyId(4)).unwrap();

    for round in 0..3u8 {
        let body = vec![round; 200];
        let p1 = m
            .encrypt_packet(gcm, b"a", &body, &[round + 1; 12])
            .unwrap();
        let p2 = m
            .encrypt_packet(gcm192, b"b", &body, &[round + 1; 12])
            .unwrap();
        let p3 = m
            .encrypt_packet(ccm, b"c", &body, &[round + 1; 13])
            .unwrap();
        let p4 = m.encrypt_packet(ctr, &[], &body, &[round + 1; 16]).unwrap();
        // All four produce distinct ciphertexts of the right length.
        assert_eq!(p1.ciphertext.len(), 200);
        assert_ne!(p1.ciphertext, p2.ciphertext);
        assert_ne!(p2.ciphertext, p3.ciphertext);
        assert_ne!(p3.ciphertext, p4.ciphertext);
        // Round-trips.
        assert_eq!(
            m.decrypt_packet(gcm, b"a", &p1.ciphertext, &p1.tag, &[round + 1; 12])
                .unwrap()
                .plaintext,
            body
        );
        assert_eq!(
            m.decrypt_packet(ccm, b"c", &p3.ciphertext, &p3.tag, &[round + 1; 13])
                .unwrap()
                .plaintext,
            body
        );
    }
}

#[test]
fn cbc_mac_channel_matches_reference() {
    let key = [0x77u8; 16];
    let mut m = mccp_with(&key);
    let ch = m.open(Algorithm::AesCbcMac128, KeyId(1)).unwrap();
    let aes = Aes::new(&key);
    for len in [16usize, 32, 48, 160] {
        let data: Vec<u8> = (0..len).map(|i| (i * 3) as u8).collect();
        let pkt = m.encrypt_packet(ch, &[], &data, &[]).unwrap();
        let expect = mccp::aes::modes::cbc_mac::cbc_mac_raw(&aes, &data).unwrap();
        assert_eq!(pkt.tag, expect.to_vec(), "len={len}");
    }
}

#[test]
fn full_2kb_packets_all_modes() {
    let key = [0xABu8; 16];
    let mut m = mccp_with(&key);
    let aes = Aes::new(&key);
    let body = vec![0xCD; 2048];

    let gcm = m.open(Algorithm::AesGcm128, KeyId(1)).unwrap();
    let pkt = m.encrypt_packet(gcm, &[], &body, &[1u8; 12]).unwrap();
    let reference = gcm_seal(&aes, &[1u8; 12], &[], &body, 16).unwrap();
    assert_eq!(pkt.ciphertext, reference[..2048]);

    let ccm = m
        .open_with_tag_len(Algorithm::AesCcm128, KeyId(1), 16)
        .unwrap();
    let pkt = m.encrypt_packet(ccm, &[], &body, &[2u8; 12]).unwrap();
    let params = CcmParams {
        nonce_len: 12,
        tag_len: 16,
    };
    let reference = ccm_seal(&aes, &params, &[2u8; 12], &[], &body).unwrap();
    assert_eq!(pkt.ciphertext, reference[..2048]);
}

#[test]
fn oversize_packet_streams_through_shallow_fifo() {
    // An 8 KB packet through the standard 2 KB FIFOs exercises the
    // documented streaming mode.
    let key = [0x5Au8; 16];
    let mut m = mccp_with(&key);
    let ch = m.open(Algorithm::AesGcm128, KeyId(1)).unwrap();
    let body: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
    let pkt = m.encrypt_packet(ch, &[], &body, &[9u8; 12]).unwrap();
    let aes = Aes::new(&key);
    let reference = gcm_seal(&aes, &[9u8; 12], &[], &body, 16).unwrap();
    assert_eq!(pkt.ciphertext, reference[..8192]);
    assert_eq!(pkt.tag, reference[8192..]);
}

#[test]
fn functional_mode_agrees_with_cycle_accurate() {
    use mccp::core::{ChannelBackend, Direction, FunctionalBackend};

    let key = [0x3Cu8; 16];
    let mut sim = mccp_with(&key);
    let ch = sim.open(Algorithm::AesGcm128, KeyId(1)).unwrap();
    let body: Vec<u8> = (0..333).map(|i| (i * 11) as u8).collect();
    let iv = [6u8; 12];
    let hw = sim.encrypt_packet(ch, b"hdr", &body, &iv).unwrap();

    let mut functional = FunctionalBackend::new();
    let fch = functional
        .open_channel(Algorithm::AesGcm128, &key, 16)
        .unwrap();
    functional
        .submit_packet(fch, Direction::Encrypt, &iv, b"hdr", &body, None)
        .unwrap();
    let sw = functional.poll_completion().unwrap();
    assert_eq!(sw.body, hw.ciphertext);
    assert_eq!(sw.tag, hw.tag);
}
