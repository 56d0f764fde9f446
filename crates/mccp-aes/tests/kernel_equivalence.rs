//! Batched-kernel ↔ scalar-path equivalence (the referee suite).
//!
//! The batched kernels — eight-block GHASH folding over precomputed
//! `H^1..H^8`, four-wide CTR keystream generation, and the per-key
//! [`GcmContext`] — must be **byte-identical** to the scalar reference
//! path on every input shape: payload lengths 0..=1024 including
//! non-multiple-of-16 tails, AAD-only packets, and short/long IVs. The
//! NIST SP 800-38D vectors are additionally replayed through both arms.

use mccp_aes::modes::{
    ccm_open_detached, ccm_seal, ctr_xcrypt, ctr_xcrypt_scalar, gcm_open_detached,
    gcm_open_detached_scalar, gcm_seal, gcm_seal_scalar, CcmParams, GcmContext,
};
use mccp_aes::Aes;
use mccp_gf128::{ghash, ghash_batched, Gf128, GhashKey, GhashPowers};
use proptest::prelude::*;

fn payloads() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..=1024)
}

fn aads() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..=256)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn ghash_batched_matches_serial_horner(
        h_bytes in proptest::array::uniform16(any::<u8>()),
        aad in aads(),
        ct in payloads(),
    ) {
        let h = Gf128::from_bytes(&h_bytes);
        let key = GhashKey::new(h);
        let powers = GhashPowers::new(h);
        prop_assert_eq!(ghash(&key, &aad, &ct), ghash_batched(&powers, &aad, &ct));
    }

    #[test]
    fn ghash_batched_aad_only(h_bytes in proptest::array::uniform16(any::<u8>()), aad in payloads()) {
        let h = Gf128::from_bytes(&h_bytes);
        let key = GhashKey::new(h);
        let powers = GhashPowers::new(h);
        prop_assert_eq!(ghash(&key, &aad, &[]), ghash_batched(&powers, &aad, &[]));
    }

    #[test]
    fn ctr_batched_matches_scalar(
        key in proptest::array::uniform16(any::<u8>()),
        ctr0 in proptest::array::uniform16(any::<u8>()),
        data in payloads(),
    ) {
        let aes = Aes::new_128(&key);
        let mut a = data.clone();
        let mut b = data;
        ctr_xcrypt(&aes, &ctr0, &mut a).unwrap();
        ctr_xcrypt_scalar(&aes, &ctr0, &mut b).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn gcm_batched_matches_scalar(
        key in proptest::array::uniform32(any::<u8>()),
        iv in proptest::collection::vec(any::<u8>(), 1..=24),
        aad in aads(),
        pt in payloads(),
    ) {
        let aes = Aes::new_256(&key);
        let scalar = gcm_seal_scalar(&aes, &iv, &aad, &pt, 16).unwrap();
        let batched = gcm_seal(&aes, &iv, &aad, &pt, 16).unwrap();
        prop_assert_eq!(&scalar, &batched);

        let ctx = GcmContext::new(&aes);
        prop_assert_eq!(&scalar, &ctx.seal(&iv, &aad, &pt, 16).unwrap());

        let (ct, tag) = scalar.split_at(scalar.len() - 16);
        prop_assert_eq!(
            gcm_open_detached_scalar(&aes, &iv, &aad, ct, tag).unwrap(),
            gcm_open_detached(&aes, &iv, &aad, ct, tag).unwrap()
        );
    }

    #[test]
    fn ccm_roundtrips_through_batched_kernels(
        key in proptest::array::uniform16(any::<u8>()),
        aad in aads(),
        pt in proptest::collection::vec(any::<u8>(), 0..=512),
    ) {
        let aes = Aes::new_128(&key);
        let params = CcmParams { nonce_len: 11, tag_len: 12 };
        let nonce = [9u8; 11];
        let sealed = ccm_seal(&aes, &params, &nonce, &aad, &pt).unwrap();
        let (ct, tag) = sealed.split_at(sealed.len() - params.tag_len);
        prop_assert_eq!(ccm_open_detached(&aes, &params, &nonce, &aad, ct, tag).unwrap(), pt);
    }
}

/// Replays the SP 800-38D vectors through the scalar arm (the batched arm
/// runs them in `modes::gcm`'s unit tests via the free functions).
#[test]
fn nist_vectors_through_scalar_arm() {
    fn hex(s: &str) -> Vec<u8> {
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
            .collect()
    }
    // Test case 1.
    let aes = Aes::new_128(&[0u8; 16]);
    assert_eq!(
        gcm_seal_scalar(&aes, &[0u8; 12], &[], &[], 16).unwrap(),
        hex("58e2fccefa7e3061367f1d57a4e7455a")
    );
    // Test case 4 (partial final block + AAD).
    let aes = Aes::new(&hex("feffe9928665731c6d6a8f9467308308"));
    let pt = hex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
    );
    let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    let iv = hex("cafebabefacedbaddecaf888");
    let out = gcm_seal_scalar(&aes, &iv, &aad, &pt, 16).unwrap();
    assert_eq!(
        &out[60..],
        hex("5bc94fbc3221a5db94fae95ae7121a47").as_slice()
    );
    // Test case 5 (8-byte IV → GHASH-derived J0).
    let iv8 = hex("cafebabefacedbad");
    let out = gcm_seal_scalar(&aes, &iv8, &aad, &pt, 16).unwrap();
    assert_eq!(
        &out[60..],
        hex("3612d2e79e3b0785561be14aaca2fccb").as_slice()
    );
    assert_eq!(out, gcm_seal(&aes, &iv8, &aad, &pt, 16).unwrap());
}

/// Every leftover of 0–4 keystream blocks (with partial last blocks) and
/// the 128-byte GHASH fold boundary, swept deterministically: a warm
/// [`GcmContext`] against the scalar arm for payloads 0..=130 bytes under
/// AAD lengths around the block and batch edges, and 4-wide CTR against
/// per-block CTR for the same payload lengths.
#[test]
fn leftover_blocks_and_fold_boundary_sweep() {
    let aes = Aes::new_128(&[0x3Cu8; 16]);
    let ctx = GcmContext::new(&aes);
    let iv = [0x5Au8; 12];
    let data: Vec<u8> = (0..400u32).map(|i| (i * 37 % 253) as u8).collect();
    let mut sealed = Vec::new();
    let mut opened = Vec::new();
    for aad_len in [0usize, 1, 15, 16, 17, 128, 129] {
        let aad = &data[..aad_len];
        for pt_len in 0..=130usize {
            let pt = &data[aad_len..aad_len + pt_len];
            let scalar = gcm_seal_scalar(&aes, &iv, aad, pt, 16).unwrap();
            ctx.seal_into(&iv, aad, pt, 16, &mut sealed).unwrap();
            assert_eq!(sealed, scalar, "seal: aad {aad_len} pt {pt_len}");

            let (ct, tag) = scalar.split_at(scalar.len() - 16);
            ctx.open_detached_into(&iv, aad, ct, tag, &mut opened)
                .unwrap();
            assert_eq!(
                opened,
                gcm_open_detached_scalar(&aes, &iv, aad, ct, tag).unwrap(),
                "open: aad {aad_len} pt {pt_len}"
            );
            assert_eq!(opened, pt, "open: aad {aad_len} pt {pt_len}");
        }
    }

    let ctr0 = [0xF0u8; 16];
    for len in 0..=130usize {
        let mut batched = data[..len].to_vec();
        let mut scalar = batched.clone();
        ctr_xcrypt(&aes, &ctr0, &mut batched).unwrap();
        ctr_xcrypt_scalar(&aes, &ctr0, &mut scalar).unwrap();
        assert_eq!(batched, scalar, "ctr: len {len}");
    }
}
