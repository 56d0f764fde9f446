//! GCM — Galois/Counter Mode (NIST SP 800-38D).
//!
//! The MCCP's highest-throughput mode: the GCM main loop has no
//! block-to-block data dependency on the AES side, so a core sustains one
//! block per `T_SAES + T_FAES = 49` cycles, and four independent cores
//! reach the paper's headline 1.7 Gbps.
//!
//! ## Batched kernels
//!
//! The hot path is [`GcmContext`], which caches the expanded cipher plus
//! the precomputed GHASH key powers `H^1..H^8` so neither is rebuilt per
//! packet, generates keystream four counter blocks at a time through
//! [`BlockCipher128::encrypt_blocks4`] (the leftover blocks and the tag
//! mask `E(K, J0)` included), and folds GHASH eight blocks per step via
//! [`GhashBatched`] — on PCLMULQDQ when the CPU has it. GF(2^128)
//! arithmetic is exact, so every output is **byte-identical** to the
//! scalar path — asserted by the NIST vectors below,
//! `tests/kernel_equivalence.rs`, and the cross-engine suites. The
//! pre-batching implementations survive as [`gcm_seal_scalar`] /
//! [`gcm_open_detached_scalar`] (the reference arm for equivalence tests
//! and the "before" side of `bench_kernels`).

use super::{tags_equal, xor_keystream, xor_keystream_blocks, ModeError};
use crate::cipher::BlockCipher128;
use crate::modes::ctr::inc32;
use mccp_gf128::{Gf128, Ghash, GhashBatched, GhashKey, GhashPowers};

/// Derives the GHASH subkey `H = E(K, 0^128)`.
pub fn hash_subkey<C: BlockCipher128>(cipher: &C) -> GhashKey {
    let h = cipher.encrypt_copy(&[0u8; 16]);
    GhashKey::new(Gf128::from_bytes(&h))
}

/// Computes the pre-counter block `J0` (SP 800-38D §7.1 step 2).
pub fn j0<C: BlockCipher128>(cipher: &C, key: &GhashKey, iv: &[u8]) -> [u8; 16] {
    if iv.len() == 12 {
        let mut block = [0u8; 16];
        block[..12].copy_from_slice(iv);
        block[15] = 1;
        block
    } else {
        let _ = cipher; // cipher unused in this branch; kept for symmetry
        let mut g = Ghash::new(key);
        g.update_ciphertext(iv);
        g.finalize().to_bytes()
    }
}

/// Per-key GCM state: the cipher (with its expanded key schedule) and the
/// precomputed GHASH powers `H^1..H^8`.
///
/// With PCLMULQDQ the powers are eight field elements (128 B); without
/// it, each also needs a Shoup table (16 bitwise field multiplications
/// plus 256 table additions *per power*). Deriving them once per key
/// instead of once per packet keeps key setup off the functional packet
/// path. The `_into` methods reuse a caller-owned output buffer, so a warm
/// context seals and opens without allocating (asserted by
/// `tests/zero_alloc.rs`).
pub struct GcmContext<C: BlockCipher128> {
    cipher: C,
    powers: GhashPowers,
}

impl<C: BlockCipher128> GcmContext<C> {
    /// Derives `H = E(K, 0^128)` and precomputes its first eight powers.
    pub fn new(cipher: C) -> Self {
        let h = cipher.encrypt_copy(&[0u8; 16]);
        let powers = GhashPowers::new(Gf128::from_bytes(&h));
        GcmContext { cipher, powers }
    }

    /// The underlying cipher.
    pub fn cipher(&self) -> &C {
        &self.cipher
    }

    /// The cached GHASH key powers.
    pub fn powers(&self) -> &GhashPowers {
        &self.powers
    }

    fn derive_j0(&self, iv: &[u8]) -> [u8; 16] {
        if iv.len() == 12 {
            let mut block = [0u8; 16];
            block[..12].copy_from_slice(iv);
            block[15] = 1;
            block
        } else {
            let mut g = GhashBatched::new(&self.powers);
            g.update_ciphertext(iv);
            g.finalize().to_bytes()
        }
    }

    /// GCTR with four counter blocks per cipher call (`inc32` semantics).
    fn gctr(&self, icb: &[u8; 16], data: &mut [u8]) {
        let template = *icb;
        let base = u32::from_be_bytes(icb[12..16].try_into().expect("4 bytes"));
        xor_keystream_blocks(&self.cipher, data, |i| {
            let mut c = template;
            c[12..16].copy_from_slice(&base.wrapping_add(i as u32).to_be_bytes());
            c
        });
    }

    /// Full 16-byte tag `GCTR(J0, GHASH(A, C))`. The mask `E(K, J0)` takes
    /// a zero-padded `encrypt_blocks4` call, the batched kernel's cipher
    /// path, instead of a single-block one.
    fn tag(&self, j0: &[u8; 16], aad: &[u8], ct: &[u8]) -> [u8; 16] {
        let mut g = GhashBatched::new(&self.powers);
        g.update_aad(aad);
        g.update_ciphertext(ct);
        let mut tag = g.finalize().to_bytes();
        let mut ek = [0u8; 64];
        ek[..16].copy_from_slice(j0);
        self.cipher.encrypt_blocks4(&mut ek);
        for (t, k) in tag.iter_mut().zip(ek.iter()) {
            *t ^= k;
        }
        tag
    }

    /// Seals `payload` and writes `ciphertext || tag` into `out`.
    ///
    /// `out` is cleared first and only grown if its capacity is too small:
    /// a warm buffer makes the whole call allocation-free.
    pub fn seal_into(
        &self,
        iv: &[u8],
        aad: &[u8],
        payload: &[u8],
        tag_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), ModeError> {
        if !(4..=16).contains(&tag_len) {
            return Err(ModeError::InvalidParams("GCM tag length must be 4..=16"));
        }
        if iv.is_empty() {
            return Err(ModeError::InvalidParams("GCM IV must be non-empty"));
        }
        let j0 = self.derive_j0(iv);

        out.clear();
        out.reserve(payload.len() + tag_len);
        out.extend_from_slice(payload);
        let mut icb = j0;
        inc32(&mut icb);
        self.gctr(&icb, out);

        let tag = self.tag(&j0, aad, out);
        out.extend_from_slice(&tag[..tag_len]);
        Ok(())
    }

    /// Seals `payload` into a fresh `ciphertext || tag` vector.
    pub fn seal(
        &self,
        iv: &[u8],
        aad: &[u8],
        payload: &[u8],
        tag_len: usize,
    ) -> Result<Vec<u8>, ModeError> {
        let mut out = Vec::new();
        self.seal_into(iv, aad, payload, tag_len, &mut out)?;
        Ok(out)
    }

    /// Opens a detached `ciphertext` + `tag`, writing the plaintext into
    /// `out` (cleared first; warm buffers make this allocation-free). On
    /// authentication failure `out` is left cleared.
    pub fn open_detached_into(
        &self,
        iv: &[u8],
        aad: &[u8],
        ct: &[u8],
        tag: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), ModeError> {
        if !(4..=16).contains(&tag.len()) {
            return Err(ModeError::InvalidParams("GCM tag length must be 4..=16"));
        }
        if iv.is_empty() {
            return Err(ModeError::InvalidParams("GCM IV must be non-empty"));
        }
        let j0 = self.derive_j0(iv);

        out.clear();
        let expect = self.tag(&j0, aad, ct);
        if !tags_equal(tag, &expect[..tag.len()]) {
            return Err(ModeError::AuthFail);
        }

        out.reserve(ct.len());
        out.extend_from_slice(ct);
        let mut icb = j0;
        inc32(&mut icb);
        self.gctr(&icb, out);
        Ok(())
    }

    /// Opens a detached `ciphertext` + `tag` into a fresh plaintext vector.
    pub fn open_detached(
        &self,
        iv: &[u8],
        aad: &[u8],
        ct: &[u8],
        tag: &[u8],
    ) -> Result<Vec<u8>, ModeError> {
        let mut out = Vec::new();
        self.open_detached_into(iv, aad, ct, tag, &mut out)?;
        Ok(out)
    }

    /// Opens `ciphertext || tag` into a fresh plaintext vector.
    pub fn open(
        &self,
        iv: &[u8],
        aad: &[u8],
        ct_and_tag: &[u8],
        tag_len: usize,
    ) -> Result<Vec<u8>, ModeError> {
        if !(4..=16).contains(&tag_len) {
            return Err(ModeError::InvalidParams("GCM tag length must be 4..=16"));
        }
        if ct_and_tag.len() < tag_len {
            return Err(ModeError::InvalidParams("ciphertext shorter than tag"));
        }
        let (ct, tag) = ct_and_tag.split_at(ct_and_tag.len() - tag_len);
        self.open_detached(iv, aad, ct, tag)
    }
}

/// GCM authenticated encryption. Returns `ciphertext || tag`.
///
/// `tag_len` must be in `12..=16` bytes (SP 800-38D also permits 4 and 8 in
/// constrained profiles; the MCCP's channels use full-length tags, and we
/// accept `4..=16` to cover both).
///
/// One-shot convenience: builds a [`GcmContext`] per call (so it runs the
/// batched kernels). Hot paths that reuse a key should hold a context.
pub fn gcm_seal<C: BlockCipher128>(
    cipher: &C,
    iv: &[u8],
    aad: &[u8],
    payload: &[u8],
    tag_len: usize,
) -> Result<Vec<u8>, ModeError> {
    GcmContext::new(cipher).seal(iv, aad, payload, tag_len)
}

/// GCM authenticated decryption of `ciphertext || tag`.
pub fn gcm_open<C: BlockCipher128>(
    cipher: &C,
    iv: &[u8],
    aad: &[u8],
    ct_and_tag: &[u8],
    tag_len: usize,
) -> Result<Vec<u8>, ModeError> {
    GcmContext::new(cipher).open(iv, aad, ct_and_tag, tag_len)
}

/// GCM authenticated decryption with the ciphertext and tag passed as
/// separate slices — spares callers that hold them separately (like the
/// functional-mode job queue) from concatenating into a temporary buffer.
pub fn gcm_open_detached<C: BlockCipher128>(
    cipher: &C,
    iv: &[u8],
    aad: &[u8],
    ct: &[u8],
    tag: &[u8],
) -> Result<Vec<u8>, ModeError> {
    GcmContext::new(cipher).open_detached(iv, aad, ct, tag)
}

// ---------------------------------------------------------------------------
// Scalar reference arm — the exact pre-batching implementation.
// ---------------------------------------------------------------------------

fn gctr_scalar<C: BlockCipher128>(cipher: &C, icb: &[u8; 16], data: &mut [u8]) {
    let mut counter = *icb;
    for chunk in data.chunks_mut(16) {
        xor_keystream(cipher, &counter, chunk);
        inc32(&mut counter);
    }
}

fn compute_tag_scalar<C: BlockCipher128>(
    cipher: &C,
    key: &GhashKey,
    j0: &[u8; 16],
    aad: &[u8],
    ct: &[u8],
    tag_len: usize,
) -> Vec<u8> {
    let mut g = Ghash::new(key);
    g.update_aad(aad);
    g.update_ciphertext(ct);
    let s = g.finalize().to_bytes();
    let mut tag = s;
    // Tag = GCTR(J0, S) — a single-block CTR with the *initial* counter.
    let ek = cipher.encrypt_copy(j0);
    for (t, k) in tag.iter_mut().zip(ek.iter()) {
        *t ^= k;
    }
    tag[..tag_len].to_vec()
}

/// The pre-batching GCM seal: derives the hash subkey per call, absorbs
/// GHASH with the serial Horner loop and generates keystream one block per
/// cipher call. Byte-identical to [`gcm_seal`]; kept as the reference arm
/// of the kernel-equivalence suite and `bench_kernels`' scalar side.
pub fn gcm_seal_scalar<C: BlockCipher128>(
    cipher: &C,
    iv: &[u8],
    aad: &[u8],
    payload: &[u8],
    tag_len: usize,
) -> Result<Vec<u8>, ModeError> {
    if !(4..=16).contains(&tag_len) {
        return Err(ModeError::InvalidParams("GCM tag length must be 4..=16"));
    }
    if iv.is_empty() {
        return Err(ModeError::InvalidParams("GCM IV must be non-empty"));
    }
    let key = hash_subkey(cipher);
    let j0 = j0(cipher, &key, iv);

    let mut ct = payload.to_vec();
    let mut icb = j0;
    inc32(&mut icb);
    gctr_scalar(cipher, &icb, &mut ct);

    let tag = compute_tag_scalar(cipher, &key, &j0, aad, &ct, tag_len);
    ct.extend_from_slice(&tag);
    Ok(ct)
}

/// The pre-batching detached GCM open — scalar counterpart of
/// [`gcm_open_detached`].
pub fn gcm_open_detached_scalar<C: BlockCipher128>(
    cipher: &C,
    iv: &[u8],
    aad: &[u8],
    ct: &[u8],
    tag: &[u8],
) -> Result<Vec<u8>, ModeError> {
    if !(4..=16).contains(&tag.len()) {
        return Err(ModeError::InvalidParams("GCM tag length must be 4..=16"));
    }
    if iv.is_empty() {
        return Err(ModeError::InvalidParams("GCM IV must be non-empty"));
    }
    let key = hash_subkey(cipher);
    let j0 = j0(cipher, &key, iv);

    let expect = compute_tag_scalar(cipher, &key, &j0, aad, ct, tag.len());
    if !tags_equal(tag, &expect) {
        return Err(ModeError::AuthFail);
    }

    let mut pt = ct.to_vec();
    let mut icb = j0;
    inc32(&mut icb);
    gctr_scalar(cipher, &icb, &mut pt);
    Ok(pt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::testutil::hex;
    use crate::Aes;

    #[test]
    fn gcm_test_case_1() {
        let aes = Aes::new_128(&[0u8; 16]);
        let out = gcm_seal(&aes, &[0u8; 12], &[], &[], 16).unwrap();
        assert_eq!(out, hex("58e2fccefa7e3061367f1d57a4e7455a"));
    }

    #[test]
    fn gcm_test_case_2() {
        let aes = Aes::new_128(&[0u8; 16]);
        let out = gcm_seal(&aes, &[0u8; 12], &[], &[0u8; 16], 16).unwrap();
        assert_eq!(
            out,
            hex("0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf")
        );
    }

    fn case34_key() -> Aes {
        Aes::new(&hex("feffe9928665731c6d6a8f9467308308"))
    }

    fn case3_pt() -> Vec<u8> {
        hex("d9313225f88406e5a55909c5aff5269a\
             86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525\
             b16aedf5aa0de657ba637b391aafd255")
    }

    #[test]
    fn gcm_test_case_3() {
        let out = gcm_seal(
            &case34_key(),
            &hex("cafebabefacedbaddecaf888"),
            &[],
            &case3_pt(),
            16,
        )
        .unwrap();
        let expect_ct = hex("42831ec2217774244b7221b784d0d49c\
             e3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa05\
             1ba30b396a0aac973d58e091473f5985");
        assert_eq!(&out[..64], expect_ct.as_slice());
        assert_eq!(
            &out[64..],
            hex("4d5c2af327cd64a62cf35abd2ba6fab4").as_slice()
        );
    }

    #[test]
    fn gcm_test_case_4() {
        let pt = &case3_pt()[..60];
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let out = gcm_seal(
            &case34_key(),
            &hex("cafebabefacedbaddecaf888"),
            &aad,
            pt,
            16,
        )
        .unwrap();
        let expect_ct = hex("42831ec2217774244b7221b784d0d49c\
             e3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa05\
             1ba30b396a0aac973d58e091");
        assert_eq!(&out[..60], expect_ct.as_slice());
        assert_eq!(
            &out[60..],
            hex("5bc94fbc3221a5db94fae95ae7121a47").as_slice()
        );
        let rt = gcm_open(
            &case34_key(),
            &hex("cafebabefacedbaddecaf888"),
            &aad,
            &out,
            16,
        )
        .unwrap();
        assert_eq!(rt, pt);
    }

    #[test]
    fn gcm_test_case_5_short_iv() {
        // 8-byte IV exercises the GHASH-based J0 derivation.
        let pt = &case3_pt()[..60];
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let out = gcm_seal(&case34_key(), &hex("cafebabefacedbad"), &aad, pt, 16).unwrap();
        let expect_ct = hex("61353b4c2806934a777ff51fa22a4755\
             699b2a714fcdc6f83766e5f97b6c7423\
             73806900e49f24b22b097544d4896b42\
             4989b5e1ebac0f07c23f4598");
        assert_eq!(&out[..60], expect_ct.as_slice());
        assert_eq!(
            &out[60..],
            hex("3612d2e79e3b0785561be14aaca2fccb").as_slice()
        );
    }

    #[test]
    fn tamper_detection() {
        let aes = Aes::new_128(&[7u8; 16]);
        let mut out = gcm_seal(&aes, &[1u8; 12], b"aad", b"secret payload", 16).unwrap();
        out[3] ^= 0x80;
        assert_eq!(
            gcm_open(&aes, &[1u8; 12], b"aad", &out, 16),
            Err(ModeError::AuthFail)
        );
    }

    #[test]
    fn wrong_iv_fails_auth() {
        let aes = Aes::new_128(&[7u8; 16]);
        let out = gcm_seal(&aes, &[1u8; 12], &[], b"payload", 16).unwrap();
        assert_eq!(
            gcm_open(&aes, &[2u8; 12], &[], &out, 16),
            Err(ModeError::AuthFail)
        );
    }

    #[test]
    fn parameter_validation() {
        let aes = Aes::new_128(&[0u8; 16]);
        assert!(gcm_seal(&aes, &[], &[], &[], 16).is_err());
        assert!(gcm_seal(&aes, &[0u8; 12], &[], &[], 3).is_err());
        assert!(gcm_open(&aes, &[0u8; 12], &[], &[0u8; 4], 16).is_err());
    }

    #[test]
    fn open_rejects_empty_iv_on_both_arms() {
        // SP 800-38D §7.2 step 1: an unsupported IV length is rejected
        // before anything is authenticated, as on the seal side.
        let aes = Aes::new_128(&[7u8; 16]);
        let ctx = GcmContext::new(&aes);
        let sealed = ctx.seal(&[1u8; 12], b"aad", b"payload", 16).unwrap();
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        let empty = ModeError::InvalidParams("GCM IV must be non-empty");
        let mut out = Vec::new();
        let batched = ctx.open_detached_into(&[], b"aad", ct, tag, &mut out);
        assert_eq!(batched, Err(empty));
        for result in [
            ctx.open(&[], b"aad", &sealed, 16),
            gcm_open(&aes, &[], b"aad", &sealed, 16),
            gcm_open_detached(&aes, &[], b"aad", ct, tag),
            gcm_open_detached_scalar(&aes, &[], b"aad", ct, tag),
        ] {
            assert_eq!(result, Err(empty));
        }
    }

    #[test]
    fn aes256_gcm_roundtrip() {
        let aes = Aes::new_256(&[0xAB; 32]);
        let pt: Vec<u8> = (0..100u8).collect();
        let out = gcm_seal(&aes, &[9u8; 12], b"hdr", &pt, 16).unwrap();
        assert_eq!(gcm_open(&aes, &[9u8; 12], b"hdr", &out, 16).unwrap(), pt);
    }

    #[test]
    fn batched_matches_scalar_assorted_shapes() {
        let aes = Aes::new_128(&[0x21u8; 16]);
        let ctx = GcmContext::new(&aes);
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 7) as u8).collect();
        for &(iv_len, aad_len, pt_len) in &[
            (12usize, 0usize, 0usize),
            (12, 0, 1),
            (12, 20, 60),
            (12, 0, 512),
            (12, 512, 0),
            (8, 20, 60),
            (1, 0, 33),
            (16, 16, 16),
            (60, 13, 129),
        ] {
            let iv = &data[..iv_len];
            let aad = &data[..aad_len];
            let pt = &data[..pt_len];
            let scalar = gcm_seal_scalar(&aes, iv, aad, pt, 16).unwrap();
            let batched = gcm_seal(&aes, iv, aad, pt, 16).unwrap();
            let via_ctx = ctx.seal(iv, aad, pt, 16).unwrap();
            assert_eq!(scalar, batched, "iv {iv_len} aad {aad_len} pt {pt_len}");
            assert_eq!(
                scalar, via_ctx,
                "ctx: iv {iv_len} aad {aad_len} pt {pt_len}"
            );

            let (ct, tag) = scalar.split_at(scalar.len() - 16);
            let ps = gcm_open_detached_scalar(&aes, iv, aad, ct, tag).unwrap();
            let pb = ctx.open_detached(iv, aad, ct, tag).unwrap();
            assert_eq!(ps, pt);
            assert_eq!(pb, pt);
        }
    }

    #[test]
    fn seal_into_reuses_buffer() {
        let ctx = GcmContext::new(Aes::new_128(&[9u8; 16]));
        let mut buf = Vec::new();
        ctx.seal_into(&[1u8; 12], b"a", &[0x33u8; 600], 16, &mut buf)
            .unwrap();
        let first = buf.clone();
        let cap = buf.capacity();
        // Second identical seal into the warm buffer: same bytes, no growth.
        ctx.seal_into(&[1u8; 12], b"a", &[0x33u8; 600], 16, &mut buf)
            .unwrap();
        assert_eq!(buf, first);
        assert_eq!(buf.capacity(), cap);

        let (ct, tag) = first.split_at(first.len() - 16);
        let mut pt = Vec::new();
        ctx.open_detached_into(&[1u8; 12], b"a", ct, tag, &mut pt)
            .unwrap();
        assert_eq!(pt, vec![0x33u8; 600]);
    }

    #[test]
    fn open_detached_into_clears_on_auth_fail() {
        let ctx = GcmContext::new(Aes::new_128(&[9u8; 16]));
        let sealed = ctx.seal(&[1u8; 12], &[], b"payload", 16).unwrap();
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        let mut bad_tag = tag.to_vec();
        bad_tag[0] ^= 1;
        let mut out = b"stale".to_vec();
        assert_eq!(
            ctx.open_detached_into(&[1u8; 12], &[], ct, &bad_tag, &mut out),
            Err(ModeError::AuthFail)
        );
        assert!(out.is_empty(), "no plaintext released on AUTH_FAIL");
    }
}
