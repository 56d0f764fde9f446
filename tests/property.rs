//! Property-based integration tests (proptest): random packets through
//! the cycle-accurate MCCP must match the NIST reference implementations
//! bit-for-bit, for every mode, and auth must catch every injected flip.
//!
//! Case counts are modest (the simulator runs thousands of modeled cycles
//! per packet) but each case covers a fresh (key, IV, AAD, payload) tuple.

use mccp::aes::modes::{ccm_seal, ctr_xcrypt, gcm_seal, CcmParams};
use mccp::aes::Aes;
use mccp::core::protocol::{Algorithm, KeyId};
use mccp::core::{Mccp, MccpConfig};
use proptest::prelude::*;

fn cfg(cases: u32) -> ProptestConfig {
    ProptestConfig {
        cases,
        failure_persistence: None,
        ..ProptestConfig::default()
    }
}

proptest! {
    #![proptest_config(cfg(24))]
    #[test]
    fn gcm_matches_reference(
        key in proptest::array::uniform16(any::<u8>()),
        iv in proptest::array::uniform12(any::<u8>()),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        body in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let mut m = Mccp::new(MccpConfig::default());
        m.key_memory_mut().store(KeyId(1), &key);
        let ch = m.open(Algorithm::AesGcm128, KeyId(1)).unwrap();
        let pkt = m.encrypt_packet(ch, &aad, &body, &iv).unwrap();
        let aes = Aes::new(&key);
        let reference = gcm_seal(&aes, &iv, &aad, &body, 16).unwrap();
        prop_assert_eq!(&pkt.ciphertext[..], &reference[..body.len()]);
        prop_assert_eq!(&pkt.tag[..], &reference[body.len()..]);
        let dec = m.decrypt_packet(ch, &aad, &pkt.ciphertext, &pkt.tag, &iv).unwrap();
        prop_assert_eq!(dec.plaintext, body);
    }
}

proptest! {
    #![proptest_config(cfg(16))]
    #[test]
    fn ccm_matches_reference_both_schedules(
        key in proptest::array::uniform16(any::<u8>()),
        nonce_len in 7usize..=13,
        body in proptest::collection::vec(any::<u8>(), 1..300),
        aad in proptest::collection::vec(any::<u8>(), 0..48),
        two_core in any::<bool>(),
        tag_sel in 0usize..=6,
    ) {
        let tag_len = 4 + 2 * tag_sel; // 4..=16, even
        let nonce: Vec<u8> = (0..nonce_len as u8).map(|i| i.wrapping_mul(5)).collect();
        let mut m = Mccp::new(MccpConfig { ccm_two_core: two_core, ..MccpConfig::default() });
        m.key_memory_mut().store(KeyId(1), &key);
        let ch = m.open_with_tag_len(Algorithm::AesCcm128, KeyId(1), tag_len).unwrap();
        let pkt = m.encrypt_packet(ch, &aad, &body, &nonce).unwrap();
        let aes = Aes::new(&key);
        let params = CcmParams { nonce_len, tag_len };
        let reference = ccm_seal(&aes, &params, &nonce, &aad, &body).unwrap();
        prop_assert_eq!(&pkt.ciphertext[..], &reference[..body.len()]);
        prop_assert_eq!(&pkt.tag[..], &reference[body.len()..]);
        let dec = m.decrypt_packet(ch, &aad, &pkt.ciphertext, &pkt.tag, &nonce).unwrap();
        prop_assert_eq!(dec.plaintext, body);
    }
}

proptest! {
    #![proptest_config(cfg(16))]
    #[test]
    fn ctr_matches_reference(
        key in proptest::array::uniform16(any::<u8>()),
        body in proptest::collection::vec(any::<u8>(), 0..300),
        salt in any::<u64>(),
    ) {
        // Counter block with INC headroom (low 16 bits zero).
        let mut ctr0 = [0u8; 16];
        ctr0[..8].copy_from_slice(&salt.to_be_bytes());
        let mut m = Mccp::new(MccpConfig::default());
        m.key_memory_mut().store(KeyId(1), &key);
        let ch = m.open(Algorithm::AesCtr128, KeyId(1)).unwrap();
        let pkt = m.encrypt_packet(ch, &[], &body, &ctr0).unwrap();
        let aes = Aes::new(&key);
        let mut expect = body.clone();
        ctr_xcrypt(&aes, &ctr0, &mut expect).unwrap();
        prop_assert_eq!(pkt.ciphertext, expect);
    }
}

proptest! {
    #![proptest_config(cfg(12))]
    #[test]
    fn any_single_bit_flip_breaks_auth(
        key in proptest::array::uniform16(any::<u8>()),
        body in proptest::collection::vec(any::<u8>(), 1..120),
        flip_byte_seed in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let iv = [3u8; 12];
        let mut m = Mccp::new(MccpConfig::default());
        m.key_memory_mut().store(KeyId(1), &key);
        let ch = m.open(Algorithm::AesGcm128, KeyId(1)).unwrap();
        let pkt = m.encrypt_packet(ch, &[], &body, &iv).unwrap();
        let mut ct = pkt.ciphertext.clone();
        let idx = flip_byte_seed % ct.len();
        ct[idx] ^= 1 << flip_bit;
        let r = m.decrypt_packet(ch, &[], &ct, &pkt.tag, &iv);
        prop_assert!(r.is_err(), "flip at byte {} bit {} undetected", idx, flip_bit);
    }
}

proptest! {
    #![proptest_config(cfg(32))]
    #[test]
    fn functional_mode_equals_reference(
        key in proptest::array::uniform16(any::<u8>()),
        body in proptest::collection::vec(any::<u8>(), 0..600),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        use mccp::core::{ChannelBackend, Direction, FunctionalBackend};
        let mut functional = FunctionalBackend::new();
        let ch = functional.open_channel(Algorithm::AesGcm128, &key, 16).unwrap();
        functional
            .submit_packet(ch, Direction::Encrypt, &[9u8; 12], &aad, &body, None)
            .unwrap();
        let out = functional.poll_completion().unwrap();
        let aes = Aes::new(&key);
        let reference = gcm_seal(&aes, &[9u8; 12], &aad, &body, 16).unwrap();
        prop_assert_eq!(&out.body[..], &reference[..body.len()]);
        prop_assert_eq!(&out.tag[..], &reference[body.len()..]);
    }
}

proptest! {
    #![proptest_config(cfg(64))]
    #[test]
    fn format_masks_are_consistent(
        payload_len in 0usize..5000,
        tag_len in 1usize..=16,
    ) {
        use mccp::core::format::{blocks, byte_mask, final_block_mask};
        let m = final_block_mask(payload_len);
        // The mask always keeps at least one byte and is left-packed.
        let kept = m.count_ones();
        prop_assert!((1..=16).contains(&kept));
        prop_assert_eq!(m.leading_zeros(), 0, "mask must start at byte 0");
        // Consistency: mask width equals payload_len mod 16 (or 16).
        let want = if payload_len == 0 || payload_len % 16 == 0 { 16 } else { payload_len % 16 };
        prop_assert_eq!(kept as usize, want);
        // blocks() covers the payload.
        prop_assert!(16 * blocks(payload_len) as usize >= payload_len);
        prop_assert!(byte_mask(tag_len).count_ones() as usize == tag_len);
    }
}
