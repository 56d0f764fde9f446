//! Property tests over the cryptographic substrates: round-trips,
//! implementation agreement, and mode-level invariants for every cipher.

use mccp_aes::block::encrypt_with_round_keys;
use mccp_aes::column_serial::encrypt_block_serial;
use mccp_aes::key_schedule::RoundKeys;
use mccp_aes::modes::{ccm_open, ccm_seal, ctr_xcrypt, gcm_open, gcm_seal, CcmParams, ModeError};
use mccp_aes::twofish::Twofish;
use mccp_aes::whirlpool::{whirlpool, Whirlpool};
use mccp_aes::{Aes, BlockCipher128};
use proptest::prelude::*;

fn any_key() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 16..=16),
        proptest::collection::vec(any::<u8>(), 24..=24),
        proptest::collection::vec(any::<u8>(), 32..=32),
    ]
}

proptest! {
    #[test]
    fn ttable_agrees_with_reference(key in any_key(), block in proptest::array::uniform16(any::<u8>())) {
        let rk = RoundKeys::expand(&key);
        let mut fast = block;
        mccp_aes::tables::encrypt_block_ttable(&rk, &mut fast);
        let mut reference = block;
        encrypt_with_round_keys(&rk, &mut reference);
        prop_assert_eq!(fast, reference);
    }

    #[test]
    fn column_serial_agrees_with_reference(key in any_key(), block in proptest::array::uniform16(any::<u8>())) {
        let rk = RoundKeys::expand(&key);
        let serial = encrypt_block_serial(&rk, &block);
        let mut reference = block;
        encrypt_with_round_keys(&rk, &mut reference);
        prop_assert_eq!(serial.block, reference);
        prop_assert_eq!(serial.cycles, rk.key_size().aes_core_cycles());
    }

    #[test]
    fn ctr_is_an_involution(
        key in any_key(),
        ctr0 in proptest::array::uniform16(any::<u8>()),
        data in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let aes = Aes::new(&key);
        let mut d = data.clone();
        ctr_xcrypt(&aes, &ctr0, &mut d).unwrap();
        ctr_xcrypt(&aes, &ctr0, &mut d).unwrap();
        prop_assert_eq!(d, data);
    }

    #[test]
    fn gcm_seal_open_roundtrip_any_cipher(
        key in any_key(),
        iv in proptest::collection::vec(any::<u8>(), 1..60),
        aad in proptest::collection::vec(any::<u8>(), 0..60),
        pt in proptest::collection::vec(any::<u8>(), 0..300),
        use_twofish in any::<bool>(),
        tag_len in 4usize..=16,
    ) {
        let cipher: Box<dyn BlockCipher128> = if use_twofish {
            Box::new(Twofish::new(&key))
        } else {
            Box::new(Aes::new(&key))
        };
        let sealed = gcm_seal(&cipher.as_ref(), &iv, &aad, &pt, tag_len).unwrap();
        prop_assert_eq!(sealed.len(), pt.len() + tag_len);
        let opened = gcm_open(&cipher.as_ref(), &iv, &aad, &sealed, tag_len).unwrap();
        prop_assert_eq!(opened, pt);
    }

    #[test]
    fn ccm_seal_open_roundtrip(
        key in any_key(),
        nonce_len in 7usize..=13,
        tag_sel in 0usize..=6,
        aad in proptest::collection::vec(any::<u8>(), 0..80),
        pt in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let params = CcmParams { nonce_len, tag_len: 4 + 2 * tag_sel };
        let nonce: Vec<u8> = (0..nonce_len as u8).collect();
        let aes = Aes::new(&key);
        let sealed = ccm_seal(&aes, &params, &nonce, &aad, &pt).unwrap();
        let opened = ccm_open(&aes, &params, &nonce, &aad, &sealed).unwrap();
        prop_assert_eq!(opened, pt);
    }

    #[test]
    fn ccm_tamper_always_detected(
        key in any_key(),
        pt in proptest::collection::vec(any::<u8>(), 1..100),
        flip in any::<usize>(),
    ) {
        let params = CcmParams { nonce_len: 12, tag_len: 8 };
        let nonce = [7u8; 12];
        let aes = Aes::new(&key);
        let mut sealed = ccm_seal(&aes, &params, &nonce, &[], &pt).unwrap();
        let idx = flip % sealed.len();
        sealed[idx] ^= 0x40;
        prop_assert_eq!(
            ccm_open(&aes, &params, &nonce, &[], &sealed).unwrap_err(),
            ModeError::AuthFail
        );
    }

    #[test]
    fn gcm_tag_depends_on_everything(
        key in proptest::array::uniform16(any::<u8>()),
        pt in proptest::collection::vec(any::<u8>(), 1..100),
    ) {
        let aes = Aes::new(&key);
        let base = gcm_seal(&aes, &[1u8; 12], b"a", &pt, 16).unwrap();
        let other_iv = gcm_seal(&aes, &[2u8; 12], b"a", &pt, 16).unwrap();
        let other_aad = gcm_seal(&aes, &[1u8; 12], b"b", &pt, 16).unwrap();
        let n = pt.len();
        prop_assert_ne!(&base[n..], &other_iv[n..]);
        prop_assert_ne!(&base[n..], &other_aad[n..]);
    }

    #[test]
    fn whirlpool_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        chunk in 1usize..64,
    ) {
        let oneshot = whirlpool(&data);
        let mut h = Whirlpool::new();
        for c in data.chunks(chunk) {
            h.update(c);
        }
        prop_assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn whirlpool_is_injective_on_small_perturbations(
        data in proptest::collection::vec(any::<u8>(), 1..200),
        flip in any::<usize>(),
    ) {
        let mut other = data.clone();
        let idx = flip % other.len();
        other[idx] ^= 1;
        prop_assert_ne!(whirlpool(&data), whirlpool(&other));
    }
}
