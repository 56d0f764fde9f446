//! Batched-kernel ↔ scalar-path equivalence (the referee suite).
//!
//! The batched kernels — eight-block GHASH folding over precomputed
//! `H^1..H^8`, four-wide CTR keystream generation, the per-key
//! [`GcmContext`] with its stitched GCM pass, and the stitched CCM pass —
//! must be **byte-identical** to the scalar reference path on every input
//! shape: payload lengths 0..=1024 including non-multiple-of-16 tails,
//! AAD-only packets, and short/long IVs. The NIST SP 800-38D vectors are
//! additionally replayed through both arms.

use mccp_aes::block::encrypt_with_round_keys;
use mccp_aes::modes::{
    ccm_open_detached, ccm_open_detached_into, ccm_seal, ctr_xcrypt, ctr_xcrypt_scalar,
    gcm_open_detached, gcm_open_detached_scalar, gcm_seal, gcm_seal_scalar, CcmParams, GcmContext,
    ModeError,
};
use mccp_aes::{Aes, BlockCipher128, RoundKeys};
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
        let reference = BytewiseAes(RoundKeys::expand(&key));
        prop_assert_eq!(&sealed, &ccm_seal(&reference, &params, &nonce, &aad, &pt).unwrap());
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

/// AES on the byte-wise datapath model ([`encrypt_with_round_keys`]). It
/// overrides only the single-block calls, so CCM over it takes the
/// trait's default serial pass: the reference arm on every host, with or
/// without AES-NI.
struct BytewiseAes(RoundKeys);

impl BlockCipher128 for BytewiseAes {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        encrypt_with_round_keys(&self.0, block);
    }
    fn name(&self) -> &'static str {
        "AES (byte-wise reference)"
    }
}

/// CCM over [`Aes`] (the stitched AES-NI pass where the CPU has it) against
/// CCM over [`BytewiseAes`]: [`Aes`] must seal to the reference's bytes
/// and open them back. Payloads 0..=130 bytes under AAD lengths around the
/// block edges, 128/192/256-bit keys, 7- and 13-byte nonces, every tag
/// length 4..=16 (cycled over the payloads), and an AAD of 0xFF00 bytes,
/// whose length takes the 6-byte prefix. A flipped tag bit must fail and
/// release nothing.
#[test]
fn ccm_stitched_pass_matches_serial_reference_sweep() {
    let data: Vec<u8> = (0..0xFF00u32 + 131).map(|i| (i * 29 % 251) as u8).collect();
    let mut opened = Vec::new();
    for key_len in [16usize, 24, 32] {
        let key: Vec<u8> = (0..key_len as u8).map(|i| i ^ 0xA5).collect();
        let aes = Aes::new(&key);
        let reference = BytewiseAes(RoundKeys::expand(&key));
        for nonce_len in [7usize, 13] {
            let nonce = &data[3..3 + nonce_len];
            let shapes = [0usize, 1, 15, 16, 17, 128, 129]
                .into_iter()
                .flat_map(|aad_len| (0..=130usize).map(move |pt_len| (aad_len, pt_len)))
                .chain([0usize, 17].map(|pt_len| (0xFF00, pt_len)));
            for (aad_len, pt_len) in shapes {
                let tag_len = 4 + 2 * ((aad_len + pt_len) % 7);
                let params = CcmParams { nonce_len, tag_len };
                let (aad, pt) = (&data[..aad_len], &data[aad_len..aad_len + pt_len]);
                let at = format!(
                    "key {key_len} nonce {nonce_len} tag {tag_len} aad {aad_len} pt {pt_len}"
                );

                let sealed = ccm_seal(&aes, &params, nonce, aad, pt).unwrap();
                assert_eq!(
                    sealed,
                    ccm_seal(&reference, &params, nonce, aad, pt).unwrap(),
                    "seal: {at}"
                );

                let (ct, tag) = sealed.split_at(pt_len);
                ccm_open_detached_into(&aes, &params, nonce, aad, ct, tag, &mut opened).unwrap();
                assert_eq!(opened, pt, "open: {at}");

                let mut bad = tag.to_vec();
                bad[pt_len % tag_len] ^= 1 << (pt_len % 8);
                assert_eq!(
                    ccm_open_detached_into(&aes, &params, nonce, aad, ct, &bad, &mut opened),
                    Err(ModeError::AuthFail),
                    "flipped tag: {at}"
                );
                assert!(opened.is_empty(), "flipped tag released plaintext: {at}");
            }
        }
    }
}

/// GCM over a warm [`GcmContext`] of [`Aes`] (the stitched AES-NI +
/// PCLMULQDQ pass where the CPU has them) against the scalar arm over
/// [`BytewiseAes`] (byte-wise AES, one block per call, and the serial
/// Shoup GHASH), which shares no code with the stitched pass. Payloads
/// 0..=130 bytes (every leftover shape under one 8-block batch) plus
/// 255/256/257 and 1500/2000/4096 (many batches, with and without a
/// leftover), AAD lengths around the block and batch edges, 12- and
/// 8-byte IVs (the second derives `J0` through GHASH, so its counter word
/// is arbitrary), 128/192/256-bit keys. The context must seal to the
/// reference's bytes and open them back; a flipped tag bit must fail and
/// leave `out` empty.
#[test]
fn gcm_stitched_pass_matches_serial_reference_sweep() {
    let data: Vec<u8> = (0..4096u32 + 129).map(|i| (i * 41 % 253) as u8).collect();
    let payload_lens: Vec<usize> = (0..=130usize)
        .chain([255, 256, 257, 1500, 2000, 4096])
        .collect();
    let (mut sealed, mut opened) = (Vec::new(), Vec::new());
    for key_len in [16usize, 24, 32] {
        let key: Vec<u8> = (0..key_len as u8)
            .map(|i| i.wrapping_mul(7) ^ 0x3C)
            .collect();
        let ctx = GcmContext::new(Aes::new(&key));
        let reference = BytewiseAes(RoundKeys::expand(&key));
        for iv_len in [12usize, 8] {
            let iv = &data[7..7 + iv_len];
            for aad_len in [0usize, 1, 12, 15, 16, 17, 128, 129] {
                for &pt_len in &payload_lens {
                    let (aad, pt) = (&data[..aad_len], &data[aad_len..aad_len + pt_len]);
                    let at = format!("key {key_len} iv {iv_len} aad {aad_len} pt {pt_len}");

                    let expect = gcm_seal_scalar(&reference, iv, aad, pt, 16).unwrap();
                    ctx.seal_into(iv, aad, pt, 16, &mut sealed).unwrap();
                    assert_eq!(sealed, expect, "seal: {at}");

                    let (ct, tag) = expect.split_at(pt_len);
                    ctx.open_detached_into(iv, aad, ct, tag, &mut opened)
                        .unwrap();
                    assert_eq!(opened, pt, "open: {at}");

                    let mut bad = tag.to_vec();
                    bad[pt_len % 16] ^= 1 << (pt_len % 8);
                    assert_eq!(
                        ctx.open_detached_into(iv, aad, ct, &bad, &mut opened),
                        Err(ModeError::AuthFail),
                        "flipped tag: {at}"
                    );
                    assert!(opened.is_empty(), "flipped tag released plaintext: {at}");
                }
            }
        }
    }
}
