//! CCM — Counter with CBC-MAC (NIST SP 800-38C).
//!
//! The mode whose *data dependency* motivates the paper's multi-core
//! design: CBC-MAC is strictly serial, so unrolled/pipelined cores gain
//! nothing, while the MCCP can either run a whole CCM packet on one core
//! (`T_loop = T_CTR + T_CBC = 104` cycles/block) or split CBC-MAC and CTR
//! across two cores chained by the inter-core port
//! (`T_loop = 55` cycles/block).
//!
//! The host runs both halves as one pass per packet,
//! [`BlockCipher128::ccm_pass`]. The serial default walks the CBC-MAC
//! chain one block at a time and then the CTR keystream, the host's form
//! of the one-core 104-cycle loop. With AES-NI, [`crate::Aes`] carries
//! each chained CBC-MAC block through the rounds together with an
//! independent counter block: the chain is bound by `AESENC` latency and
//! the keystream rides in its shadow, the host's form of the two-core
//! 55-cycle loop. On a 2-vCPU Xeon VM a 512 B seal with 16 B of AAD took
//! ~510 ns stitched against ~920 ns for the serial pass over single-block
//! AES-NI, 1.8–1.9x, beside the paper's 104/55 = 1.9x.
//!
//! The formatting of `B0`, the AAD length encoding and the counter blocks
//! follow SP 800-38C Appendix A — in the real system this formatting is the
//! communication controller's job (paper §VI.B); `mccp-sdr` reuses the
//! functions exposed here.

use super::{tags_equal, xor_in_place, xor_keystream_blocks, ModeError, PassDirection};
use crate::cipher::BlockCipher128;
use crate::modes::cbc_mac::CbcMacState;

/// CCM parameters: nonce and tag lengths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CcmParams {
    /// Nonce length in bytes, 7..=13. The counter field gets `q = 15 - n`.
    pub nonce_len: usize,
    /// Tag length in bytes: 4, 6, 8, 10, 12, 14 or 16.
    pub tag_len: usize,
}

impl CcmParams {
    /// Validates the parameter combination per SP 800-38C §5.3/5.4.
    pub fn validate(&self) -> Result<(), ModeError> {
        if !(7..=13).contains(&self.nonce_len) {
            return Err(ModeError::InvalidParams("CCM nonce must be 7..=13 bytes"));
        }
        if self.tag_len < 4 || self.tag_len > 16 || !self.tag_len.is_multiple_of(2) {
            return Err(ModeError::InvalidParams(
                "CCM tag must be an even length in 4..=16",
            ));
        }
        Ok(())
    }

    /// The byte width of the counter field, `q = 15 - n`.
    pub fn q(&self) -> usize {
        15 - self.nonce_len
    }

    /// Maximum payload length representable: `2^(8q) - 1` (saturated).
    pub fn max_payload(&self) -> u64 {
        let bits = 8 * self.q() as u32;
        if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        }
    }
}

/// Builds the `B0` block (SP 800-38C A.2.1).
pub fn format_b0(params: &CcmParams, nonce: &[u8], aad_len: usize, payload_len: usize) -> [u8; 16] {
    let q = params.q();
    let mut b0 = [0u8; 16];
    let adata = if aad_len > 0 { 1u8 } else { 0 };
    let t_enc = ((params.tag_len - 2) / 2) as u8;
    b0[0] = (adata << 6) | (t_enc << 3) | ((q - 1) as u8);
    b0[1..1 + nonce.len()].copy_from_slice(nonce);
    let plen = payload_len as u64;
    let qbytes = plen.to_be_bytes();
    b0[16 - q..].copy_from_slice(&qbytes[8 - q..]);
    b0
}

/// Encodes the AAD length prefix (SP 800-38C A.2.2): 2, 6 or 10 bytes.
pub fn encode_aad_len(aad_len: usize) -> Vec<u8> {
    let mut buf = [0u8; 10];
    let n = encode_aad_len_into(aad_len, &mut buf);
    buf[..n].to_vec()
}

/// Stack-buffer variant of [`encode_aad_len`]: writes the prefix into
/// `buf` and returns its length (0, 2, 6 or 10).
fn encode_aad_len_into(aad_len: usize, buf: &mut [u8; 10]) -> usize {
    let a = aad_len as u64;
    if a == 0 {
        0
    } else if a < 0xFF00 {
        buf[..2].copy_from_slice(&(a as u16).to_be_bytes());
        2
    } else if a <= u32::MAX as u64 {
        buf[0] = 0xFF;
        buf[1] = 0xFE;
        buf[2..6].copy_from_slice(&(a as u32).to_be_bytes());
        6
    } else {
        buf[0] = 0xFF;
        buf[1] = 0xFF;
        buf[2..10].copy_from_slice(&a.to_be_bytes());
        10
    }
}

/// Builds the counter block `Ctr_i` (SP 800-38C A.3).
pub fn format_counter(params: &CcmParams, nonce: &[u8], i: u64) -> [u8; 16] {
    let q = params.q();
    let mut ctr = [0u8; 16];
    ctr[0] = (q - 1) as u8;
    ctr[1..1 + nonce.len()].copy_from_slice(nonce);
    let ibytes = i.to_be_bytes();
    ctr[16 - q..].copy_from_slice(&ibytes[8 - q..]);
    ctr
}

/// Assembles the full CBC-MAC input `B0 || encoded(AAD) || padded AAD ||
/// padded payload` — exactly the byte stream the paper's communication
/// controller must push into a core's input FIFO.
pub fn format_mac_input(params: &CcmParams, nonce: &[u8], aad: &[u8], payload: &[u8]) -> Vec<u8> {
    let b0 = format_b0(params, nonce, aad.len(), payload.len());
    let mut blocks = Vec::with_capacity(16 + aad.len() + payload.len() + 48);
    blocks.extend_from_slice(&b0);
    if !aad.is_empty() {
        blocks.extend_from_slice(&encode_aad_len(aad.len()));
        blocks.extend_from_slice(aad);
        let pad = (16 - blocks.len() % 16) % 16;
        blocks.extend(std::iter::repeat_n(0u8, pad));
    }
    blocks.extend_from_slice(payload);
    let pad = (16 - blocks.len() % 16) % 16;
    blocks.extend(std::iter::repeat_n(0u8, pad));
    blocks
}

/// One packet's formatted CCM control blocks (SP 800-38C A.2–A.3): what
/// [`BlockCipher128::ccm_pass`] needs besides the payload. Only the seal
/// and open functions of this module build one, after checking the
/// parameters, the nonce and the payload length.
#[derive(Clone, Copy, Debug)]
pub struct CcmPacket<'a> {
    direction: PassDirection,
    b0: [u8; 16],
    ctr0: [u8; 16],
    aad_prefix: [u8; 10],
    aad_prefix_len: usize,
    aad: &'a [u8],
}

impl<'a> CcmPacket<'a> {
    fn new(
        direction: PassDirection,
        params: &CcmParams,
        nonce: &[u8],
        aad: &'a [u8],
        payload_len: usize,
    ) -> Self {
        let mut aad_prefix = [0u8; 10];
        let aad_prefix_len = encode_aad_len_into(aad.len(), &mut aad_prefix);
        CcmPacket {
            direction,
            b0: format_b0(params, nonce, aad.len(), payload_len),
            ctr0: format_counter(params, nonce, 0),
            aad_prefix,
            aad_prefix_len,
            aad,
        }
    }

    /// Seal or open.
    pub fn direction(&self) -> PassDirection {
        self.direction
    }

    /// `B0`, the first CBC-MAC block.
    pub fn b0(&self) -> &[u8; 16] {
        &self.b0
    }

    /// `Ctr_0`, whose encryption masks the tag. Payload block `i`
    /// (0-based) takes `Ctr_{i+1}`, which is `Ctr_0 + i + 1` as a 128-bit
    /// big-endian integer: the payload is bounded by
    /// [`CcmParams::max_payload`], so the sum never carries out of the
    /// `q`-byte counter field.
    pub fn ctr0(&self) -> &[u8; 16] {
        &self.ctr0
    }

    /// The AAD section `len(A) ‖ A ‖ zero pad` as 16-byte CBC-MAC blocks;
    /// none when there is no AAD.
    pub fn aad_blocks(&self) -> impl Iterator<Item = [u8; 16]> + 'a {
        let (aad, prefix) = (self.aad, &self.aad_prefix[..self.aad_prefix_len]);
        let head = aad.len().min(16 - prefix.len());
        let first = (!aad.is_empty()).then(|| {
            let mut block = [0u8; 16];
            block[..prefix.len()].copy_from_slice(prefix);
            block[prefix.len()..prefix.len() + head].copy_from_slice(&aad[..head]);
            block
        });
        let rest = aad[head..].chunks(16).map(|chunk| {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            block
        });
        first.into_iter().chain(rest)
    }
}

/// The serial CCM pass, [`BlockCipher128::ccm_pass`]'s default: the
/// CBC-MAC chain one [`BlockCipher128::encrypt_block`] at a time, the CTR
/// keystream four blocks at a time, then the tag mask `E(K, Ctr_0)`.
/// Returns the full 16-byte tag.
pub(crate) fn ccm_pass_serial<C: BlockCipher128 + ?Sized>(
    cipher: &C,
    packet: &CcmPacket<'_>,
    data: &mut [u8],
) -> [u8; 16] {
    let base = u128::from_be_bytes(packet.ctr0);
    let counter = |i: u64| base.wrapping_add(u128::from(i) + 1).to_be_bytes();
    let mut mac = CbcMacState::new();
    mac.absorb(cipher, &packet.b0);
    // The AAD section streams through the carry buffer rather than
    // `aad_blocks`, so the referee suite compares two formatters.
    if !packet.aad.is_empty() {
        mac.absorb(cipher, &packet.aad_prefix[..packet.aad_prefix_len]);
        mac.absorb(cipher, packet.aad);
        mac.pad_block(cipher);
    }
    match packet.direction {
        PassDirection::Seal => {
            mac.absorb(cipher, data);
            mac.pad_block(cipher);
            xor_keystream_blocks(cipher, data, counter);
        }
        PassDirection::Open => {
            xor_keystream_blocks(cipher, data, counter);
            mac.absorb(cipher, data);
            mac.pad_block(cipher);
        }
    }
    let mut tag = mac.mac();
    xor_in_place(&mut tag, &cipher.encrypt_copy(&packet.ctr0));
    tag
}

/// The checks seal and open share: the parameters, the nonce length, and
/// a payload short enough for the `q`-byte counter field to count.
fn check_lengths(params: &CcmParams, nonce: &[u8], payload_len: usize) -> Result<(), ModeError> {
    params.validate()?;
    if nonce.len() != params.nonce_len {
        return Err(ModeError::InvalidParams("nonce length mismatch"));
    }
    if payload_len as u64 > params.max_payload() {
        return Err(ModeError::InvalidParams("payload too long for q"));
    }
    Ok(())
}

/// CCM authenticated encryption. Returns `ciphertext || tag`.
pub fn ccm_seal<C: BlockCipher128>(
    cipher: &C,
    params: &CcmParams,
    nonce: &[u8],
    aad: &[u8],
    payload: &[u8],
) -> Result<Vec<u8>, ModeError> {
    let mut out = Vec::new();
    ccm_seal_into(cipher, params, nonce, aad, payload, &mut out)?;
    Ok(out)
}

/// CCM seal writing `ciphertext || tag` into `out` (cleared first; a warm
/// buffer makes the call allocation-free).
pub fn ccm_seal_into<C: BlockCipher128>(
    cipher: &C,
    params: &CcmParams,
    nonce: &[u8],
    aad: &[u8],
    payload: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), ModeError> {
    check_lengths(params, nonce, payload.len())?;
    let packet = CcmPacket::new(PassDirection::Seal, params, nonce, aad, payload.len());
    out.clear();
    out.reserve(payload.len() + params.tag_len);
    out.extend_from_slice(payload);
    let tag = cipher.ccm_pass(&packet, out);
    out.extend_from_slice(&tag[..params.tag_len]);
    Ok(())
}

/// CCM authenticated decryption of `ciphertext || tag`. Returns the
/// plaintext, or — like the MCCP, which wipes the output FIFO and raises
/// `AUTH_FAIL` — releases nothing on tag mismatch.
pub fn ccm_open<C: BlockCipher128>(
    cipher: &C,
    params: &CcmParams,
    nonce: &[u8],
    aad: &[u8],
    ct_and_tag: &[u8],
) -> Result<Vec<u8>, ModeError> {
    params.validate()?;
    if ct_and_tag.len() < params.tag_len {
        return Err(ModeError::InvalidParams("ciphertext shorter than tag"));
    }
    let (ct, tag) = ct_and_tag.split_at(ct_and_tag.len() - params.tag_len);
    ccm_open_detached(cipher, params, nonce, aad, ct, tag)
}

/// CCM authenticated decryption with the ciphertext and tag passed as
/// separate slices — spares callers that hold them separately (like the
/// functional-mode job queue) from concatenating into a temporary buffer.
pub fn ccm_open_detached<C: BlockCipher128>(
    cipher: &C,
    params: &CcmParams,
    nonce: &[u8],
    aad: &[u8],
    ct: &[u8],
    tag: &[u8],
) -> Result<Vec<u8>, ModeError> {
    let mut out = Vec::new();
    ccm_open_detached_into(cipher, params, nonce, aad, ct, tag, &mut out)?;
    Ok(out)
}

/// Detached CCM open writing the plaintext into `out` (cleared first; warm
/// buffers make the call allocation-free). On tag mismatch `out` is wiped
/// — the software analogue of the MCCP clearing the output FIFO on
/// `AUTH_FAIL`.
pub fn ccm_open_detached_into<C: BlockCipher128>(
    cipher: &C,
    params: &CcmParams,
    nonce: &[u8],
    aad: &[u8],
    ct: &[u8],
    tag: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), ModeError> {
    check_lengths(params, nonce, ct.len())?;
    if tag.len() != params.tag_len {
        return Err(ModeError::InvalidParams("tag length mismatch"));
    }
    let packet = CcmPacket::new(PassDirection::Open, params, nonce, aad, ct.len());
    out.clear();
    out.reserve(ct.len());
    out.extend_from_slice(ct);
    let expect = cipher.ccm_pass(&packet, out);
    if !tags_equal(tag, &expect[..params.tag_len]) {
        out.clear();
        return Err(ModeError::AuthFail);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::testutil::hex;
    use crate::Aes;

    fn k() -> Aes {
        Aes::new(&hex("404142434445464748494a4b4c4d4e4f"))
    }

    #[test]
    fn sp800_38c_example_1() {
        let params = CcmParams {
            nonce_len: 7,
            tag_len: 4,
        };
        let nonce = hex("10111213141516");
        let aad = hex("0001020304050607");
        let payload = hex("20212223");
        let ct = ccm_seal(&k(), &params, &nonce, &aad, &payload).unwrap();
        assert_eq!(ct, hex("7162015b4dac255d"));
        let pt = ccm_open(&k(), &params, &nonce, &aad, &ct).unwrap();
        assert_eq!(pt, payload);
    }

    #[test]
    fn sp800_38c_example_2() {
        let params = CcmParams {
            nonce_len: 8,
            tag_len: 6,
        };
        let nonce = hex("1011121314151617");
        let aad = hex("000102030405060708090a0b0c0d0e0f");
        let payload = hex("202122232425262728292a2b2c2d2e2f");
        let ct = ccm_seal(&k(), &params, &nonce, &aad, &payload).unwrap();
        assert_eq!(ct, hex("d2a1f0e051ea5f62081a7792073d593d1fc64fbfaccd"));
    }

    #[test]
    fn sp800_38c_example_3() {
        let params = CcmParams {
            nonce_len: 12,
            tag_len: 8,
        };
        let nonce = hex("101112131415161718191a1b");
        let aad = hex("000102030405060708090a0b0c0d0e0f10111213");
        let payload = hex("202122232425262728292a2b2c2d2e2f3031323334353637");
        let ct = ccm_seal(&k(), &params, &nonce, &aad, &payload).unwrap();
        assert_eq!(
            ct,
            hex("e3b201a9f5b71a7a9b1ceaeccd97e70b6176aad9a4428aa5484392fbc1b09951")
        );
        assert_eq!(ccm_open(&k(), &params, &nonce, &aad, &ct).unwrap(), payload);
    }

    #[test]
    fn tamper_detection() {
        let params = CcmParams {
            nonce_len: 7,
            tag_len: 8,
        };
        let nonce = [1u8; 7];
        let mut ct = ccm_seal(&k(), &params, &nonce, b"aad", b"payload bytes").unwrap();
        ct[0] ^= 1;
        assert_eq!(
            ccm_open(&k(), &params, &nonce, b"aad", &ct),
            Err(ModeError::AuthFail)
        );
        // Wrong AAD also fails.
        ct[0] ^= 1;
        assert_eq!(
            ccm_open(&k(), &params, &nonce, b"dad", &ct),
            Err(ModeError::AuthFail)
        );
    }

    #[test]
    fn empty_payload_and_aad() {
        let params = CcmParams {
            nonce_len: 13,
            tag_len: 16,
        };
        let nonce = [5u8; 13];
        let ct = ccm_seal(&k(), &params, &nonce, &[], &[]).unwrap();
        assert_eq!(ct.len(), 16);
        assert_eq!(ccm_open(&k(), &params, &nonce, &[], &ct).unwrap(), vec![]);
    }

    #[test]
    fn parameter_validation() {
        assert!(CcmParams {
            nonce_len: 6,
            tag_len: 8
        }
        .validate()
        .is_err());
        assert!(CcmParams {
            nonce_len: 14,
            tag_len: 8
        }
        .validate()
        .is_err());
        assert!(CcmParams {
            nonce_len: 7,
            tag_len: 5
        }
        .validate()
        .is_err());
        assert!(CcmParams {
            nonce_len: 7,
            tag_len: 2
        }
        .validate()
        .is_err());
        assert!(CcmParams {
            nonce_len: 7,
            tag_len: 4
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn serial_pass_matches_formatted_input() {
        use crate::modes::cbc_mac::cbc_mac_raw;
        let params = CcmParams {
            nonce_len: 11,
            tag_len: 12,
        };
        let nonce = [3u8; 11];
        let data: Vec<u8> = (0..0xFF40u32).map(|i| (i * 13) as u8).collect();
        let s0 = k().encrypt_copy(&format_counter(&params, &nonce, 0));
        for &(aad_len, pt_len) in &[
            (0usize, 0usize),
            (0, 37),
            (8, 4),
            (14, 3),
            (20, 60),
            (300, 259),
            (0xFF00, 17),
        ] {
            let aad = &data[..aad_len];
            let payload = &data[..pt_len];
            let packet = CcmPacket::new(PassDirection::Seal, &params, &nonce, aad, pt_len);
            let mut mac =
                cbc_mac_raw(&k(), &format_mac_input(&params, &nonce, aad, payload)).unwrap();
            xor_in_place(&mut mac, &s0);
            let mut buf = payload.to_vec();
            assert_eq!(
                ccm_pass_serial(&k(), &packet, &mut buf),
                mac,
                "aad {aad_len} pt {pt_len}"
            );
        }
    }

    #[test]
    fn open_refuses_a_payload_seal_refuses() {
        // q = 2 counts at most 65,535 payload bytes.
        let params = CcmParams {
            nonce_len: 13,
            tag_len: 8,
        };
        let nonce = [4u8; 13];
        let long = vec![0u8; 65_536];
        let refused = ModeError::InvalidParams("payload too long for q");
        assert_eq!(ccm_seal(&k(), &params, &nonce, &[], &long), Err(refused));
        let mut out = vec![0xEEu8; 3];
        assert_eq!(
            ccm_open_detached_into(&k(), &params, &nonce, &[], &long, &[0u8; 8], &mut out),
            Err(refused)
        );
        assert_eq!(out, [0xEE; 3], "refused before any work");
        assert_eq!(
            ccm_open_detached(&k(), &params, &nonce, &[], &long, &[0u8; 8]),
            Err(refused)
        );
        // The longest payload q = 2 counts still round-trips.
        let sealed = ccm_seal(&k(), &params, &nonce, &[], &long[1..]).unwrap();
        assert_eq!(
            ccm_open(&k(), &params, &nonce, &[], &sealed).unwrap(),
            &long[1..]
        );
    }

    #[test]
    fn seal_into_reuses_buffer() {
        let params = CcmParams {
            nonce_len: 13,
            tag_len: 8,
        };
        let nonce = [7u8; 13];
        let mut buf = Vec::new();
        ccm_seal_into(&k(), &params, &nonce, b"hdr", &[0x5Au8; 500], &mut buf).unwrap();
        let first = buf.clone();
        let cap = buf.capacity();
        ccm_seal_into(&k(), &params, &nonce, b"hdr", &[0x5Au8; 500], &mut buf).unwrap();
        assert_eq!(buf, first);
        assert_eq!(buf.capacity(), cap);

        let (ct, tag) = first.split_at(first.len() - params.tag_len);
        let mut pt = Vec::new();
        ccm_open_detached_into(&k(), &params, &nonce, b"hdr", ct, tag, &mut pt).unwrap();
        assert_eq!(pt, vec![0x5Au8; 500]);

        // Auth failure wipes the output buffer.
        let mut bad = tag.to_vec();
        bad[0] ^= 1;
        assert_eq!(
            ccm_open_detached_into(&k(), &params, &nonce, b"hdr", ct, &bad, &mut pt),
            Err(ModeError::AuthFail)
        );
        assert!(pt.is_empty());
    }

    #[test]
    fn aad_length_encoding_tiers() {
        assert!(encode_aad_len(0).is_empty());
        assert_eq!(encode_aad_len(8), vec![0, 8]);
        assert_eq!(encode_aad_len(0xFEFF), vec![0xFE, 0xFF]);
        let big = encode_aad_len(0xFF00);
        assert_eq!(&big[..2], &[0xFF, 0xFE]);
        assert_eq!(big.len(), 6);
    }

    #[test]
    fn b0_layout_example1() {
        // From SP 800-38C example 1: B0 = 4f101112131415160000000000000004.
        let params = CcmParams {
            nonce_len: 7,
            tag_len: 4,
        };
        let b0 = format_b0(&params, &hex("10111213141516"), 8, 4);
        assert_eq!(b0.to_vec(), hex("4f101112131415160000000000000004"));
    }
}
