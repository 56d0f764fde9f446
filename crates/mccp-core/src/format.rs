//! Packet formatting — the communication controller's half of the data
//! contract (paper §VI.B: "the communication controller must format data
//! prior to send them to the cryptographic cores": IV first, then packet
//! data, then the authentication tag).
//!
//! For each algorithm/direction this module builds the exact byte streams
//! the firmware expects in the input FIFO(s) (see [`crate::firmware`] for
//! the layouts), the parameter bank, and parses the output FIFO back into
//! ciphertext/plaintext + tag.
//!
//! Security note: everything here is computable *without* the session key
//! — the red/black boundary stays inside the MCCP. That is also why GCM is
//! limited to 96-bit IVs on this datapath: a non-96-bit IV would require
//! `GHASH_H(IV)` for `J0`, and `H` is key material the communication
//! controller must never see. (The reference implementation in `mccp-aes`
//! supports arbitrary IVs for comparison.)

use crate::bytes::Tag;
use crate::core_unit::ParamBank;
use crate::firmware::FirmwareId;
use crate::protocol::{Algorithm, MccpError, Mode};
use mccp_aes::modes::ccm::{encode_aad_len, format_b0, format_counter, CcmParams};

/// Direction of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    Encrypt,
    Decrypt,
}

/// Work for one Cryptographic Core.
#[derive(Clone, Debug)]
pub struct CoreJob {
    pub firmware: FirmwareId,
    pub params: ParamBank,
    /// The pre-formatted input-FIFO byte stream.
    pub stream: Vec<u8>,
    /// Bytes this core will deposit into its output FIFO.
    pub output_bytes: usize,
    /// True if this core's output FIFO carries the request's data.
    pub produces_output: bool,
}

/// A formatted request: one job (single core) or two (the CCM pair, in
/// pair order: `jobs[0]` runs on the *left* core, `jobs[1]` on the right —
/// the inter-core port points left → right).
#[derive(Clone, Debug)]
pub struct FormattedRequest {
    pub jobs: Vec<CoreJob>,
    pub payload_len: usize,
    pub tag_len: usize,
}

/// Zero-pads to a whole number of 16-byte blocks.
pub fn pad16(data: &[u8]) -> Vec<u8> {
    let mut v = data.to_vec();
    let rem = v.len() % 16;
    if rem != 0 {
        v.extend(std::iter::repeat_n(0u8, 16 - rem));
    }
    v
}

/// Number of 16-byte blocks covering `len` bytes.
pub fn blocks(len: usize) -> u16 {
    len.div_ceil(16) as u16
}

/// Byte mask keeping the first `k` bytes of a block (bit `15-j` gates byte
/// `j`). `k = 16` keeps everything.
pub fn byte_mask(k: usize) -> u16 {
    assert!((1..=16).contains(&k), "mask must keep 1..=16 bytes");
    if k == 16 {
        0xFFFF
    } else {
        !0u16 << (16 - k)
    }
}

/// Mask for the final block of a `len`-byte field (full mask when `len`
/// is block-aligned or empty).
pub fn final_block_mask(len: usize) -> u16 {
    if len == 0 || len.is_multiple_of(16) {
        0xFFFF
    } else {
        byte_mask(len % 16)
    }
}

fn param_bank(np: u16, na: u16, pm: u16, tm: u16) -> ParamBank {
    [
        (np & 0xFF) as u8,
        (np >> 8) as u8,
        (na & 0xFF) as u8,
        (na >> 8) as u8,
        (pm & 0xFF) as u8,
        (pm >> 8) as u8,
        (tm & 0xFF) as u8,
        (tm >> 8) as u8,
    ]
}

/// Builds GCM's pre-counter block `J0` for a 96-bit IV.
pub fn gcm_j0(iv: &[u8]) -> Result<[u8; 16], MccpError> {
    if iv.len() != 12 {
        return Err(MccpError::BadInstruction);
    }
    let mut j0 = [0u8; 16];
    j0[..12].copy_from_slice(iv);
    j0[15] = 1;
    Ok(j0)
}

/// The GHASH length block `len(A) || len(C)` in bits.
pub fn gcm_len_block(aad_len: usize, ct_len: usize) -> [u8; 16] {
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&((aad_len as u64) * 8).to_be_bytes());
    b[8..].copy_from_slice(&((ct_len as u64) * 8).to_be_bytes());
    b
}

/// The CCM authenticated prefix: `B0 · encoded(len(A)) · A`, zero-padded.
pub fn ccm_auth_blocks(ccm: &CcmParams, nonce: &[u8], aad: &[u8], payload_len: usize) -> Vec<u8> {
    let b0 = format_b0(ccm, nonce, aad.len(), payload_len);
    let mut v = Vec::with_capacity(16 + aad.len() + 16);
    v.extend_from_slice(&b0);
    if !aad.is_empty() {
        let mut a = encode_aad_len(aad.len());
        a.extend_from_slice(aad);
        v.extend_from_slice(&pad16(&a));
    }
    v
}

/// Formats a request into per-core jobs.
///
/// * `iv`: GCM — 12-byte IV; CCM — 7..13-byte nonce; CTR — 16-byte initial
///   counter; CBC-MAC — unused.
/// * `body`: plaintext (encrypt) or ciphertext (decrypt), true length.
/// * `tag`: the received tag (decrypt of authenticated modes only).
/// * `two_core`: use the two-core CCM schedule (ignored for other modes).
#[allow(clippy::too_many_arguments)] // mirrors the ENCRYPT/DECRYPT operand list
pub fn format_request(
    algorithm: Algorithm,
    direction: Direction,
    two_core: bool,
    iv: &[u8],
    aad: &[u8],
    body: &[u8],
    tag: Option<&[u8]>,
    tag_len: usize,
) -> Result<FormattedRequest, MccpError> {
    let np = blocks(body.len());
    let pm = final_block_mask(body.len());
    let padded_body = pad16(body);
    let decrypting = direction == Direction::Decrypt;
    if algorithm.is_authenticated() && !(1..=16).contains(&tag_len) {
        return Err(MccpError::BadInstruction);
    }
    if decrypting && algorithm.is_authenticated() && algorithm.mode() != Mode::CbcMac {
        let t = tag.ok_or(MccpError::BadInstruction)?;
        if t.len() != tag_len {
            return Err(MccpError::BadInstruction);
        }
    }

    let jobs = match (algorithm.mode(), direction) {
        (Mode::Gcm, dir) => {
            let j0 = gcm_j0(iv)?;
            let na = blocks(aad.len());
            let mut stream = Vec::with_capacity(16 * (2 + na as usize + np as usize) + 16);
            stream.extend_from_slice(&j0);
            stream.extend_from_slice(&pad16(aad));
            stream.extend_from_slice(&padded_body);
            stream.extend_from_slice(&gcm_len_block(aad.len(), body.len()));
            match dir {
                Direction::Encrypt => vec![CoreJob {
                    firmware: FirmwareId::GcmEnc,
                    params: param_bank(np, na, pm, 0xFFFF),
                    stream,
                    output_bytes: 16 * np as usize + 16,
                    produces_output: true,
                }],
                Direction::Decrypt => {
                    stream.extend_from_slice(&pad16(tag.expect("checked above")));
                    vec![CoreJob {
                        firmware: FirmwareId::GcmDec,
                        params: param_bank(np, na, pm, byte_mask(tag_len)),
                        stream,
                        output_bytes: 16 * np as usize,
                        produces_output: true,
                    }]
                }
            }
        }
        (Mode::Ccm, dir) => {
            let ccm = CcmParams {
                nonce_len: iv.len(),
                tag_len: if tag_len.is_multiple_of(2) {
                    tag_len
                } else {
                    tag_len + 1
                },
            };
            ccm.validate().map_err(|_| MccpError::BadInstruction)?;
            if (body.len() as u64) > ccm.max_payload() {
                return Err(MccpError::TooLarge);
            }
            let ctr0 = format_counter(&ccm, iv, 0);
            let auth = ccm_auth_blocks(&ccm, iv, aad, body.len());
            let na = blocks(auth.len());
            match (two_core, dir) {
                (false, Direction::Encrypt) => {
                    let mut stream = Vec::new();
                    stream.extend_from_slice(&ctr0);
                    stream.extend_from_slice(&auth);
                    stream.extend_from_slice(&padded_body);
                    stream.extend_from_slice(&ctr0);
                    vec![CoreJob {
                        firmware: FirmwareId::Ccm1Enc,
                        params: param_bank(np, na, pm, 0xFFFF),
                        stream,
                        output_bytes: 16 * np as usize + 16,
                        produces_output: true,
                    }]
                }
                (false, Direction::Decrypt) => {
                    let mut stream = Vec::new();
                    stream.extend_from_slice(&ctr0);
                    stream.extend_from_slice(&auth);
                    stream.extend_from_slice(&padded_body);
                    stream.extend_from_slice(&ctr0);
                    stream.extend_from_slice(&pad16(tag.expect("checked above")));
                    vec![CoreJob {
                        firmware: FirmwareId::Ccm1Dec,
                        params: param_bank(np, na, pm, byte_mask(tag_len)),
                        stream,
                        output_bytes: 16 * np as usize,
                        produces_output: true,
                    }]
                }
                (true, Direction::Encrypt) => {
                    // Left: CBC-MAC half (auth prefix + plaintext).
                    let mut cbc = Vec::new();
                    cbc.extend_from_slice(&auth);
                    cbc.extend_from_slice(&padded_body);
                    // Right: CTR half (counter + plaintext + counter).
                    let mut ctr = Vec::new();
                    ctr.extend_from_slice(&ctr0);
                    ctr.extend_from_slice(&padded_body);
                    ctr.extend_from_slice(&ctr0);
                    vec![
                        CoreJob {
                            firmware: FirmwareId::Ccm2CbcEnc,
                            params: param_bank(np, na, 0xFFFF, 0xFFFF),
                            stream: cbc,
                            output_bytes: 0,
                            produces_output: false,
                        },
                        CoreJob {
                            firmware: FirmwareId::Ccm2CtrEnc,
                            params: param_bank(np, 0, pm, 0xFFFF),
                            stream: ctr,
                            output_bytes: 16 * np as usize + 16,
                            produces_output: true,
                        },
                    ]
                }
                (true, Direction::Decrypt) => {
                    // Left: CTR half decrypts and forwards pt blocks.
                    let mut ctr = Vec::new();
                    ctr.extend_from_slice(&ctr0);
                    ctr.extend_from_slice(&padded_body);
                    ctr.extend_from_slice(&ctr0);
                    // Right: CBC half re-MACs and verdicts.
                    let mut cbc = Vec::new();
                    cbc.extend_from_slice(&auth);
                    cbc.extend_from_slice(&ctr0);
                    cbc.extend_from_slice(&pad16(tag.expect("checked above")));
                    vec![
                        CoreJob {
                            firmware: FirmwareId::Ccm2CtrDec,
                            params: param_bank(np, 0, pm, 0xFFFF),
                            stream: ctr,
                            output_bytes: 16 * np as usize,
                            produces_output: true,
                        },
                        CoreJob {
                            firmware: FirmwareId::Ccm2CbcDec,
                            params: param_bank(np, na, 0xFFFF, byte_mask(tag_len)),
                            stream: cbc,
                            output_bytes: 0,
                            produces_output: false,
                        },
                    ]
                }
            }
        }
        (Mode::Ctr, _) => {
            if iv.len() != 16 {
                return Err(MccpError::BadInstruction);
            }
            let mut stream = Vec::new();
            stream.extend_from_slice(iv);
            stream.extend_from_slice(&padded_body);
            // One trailing pad block feeds the firmware's pipelined final
            // LOAD prefetch (GCM uses the length block for this, CCM the
            // trailing counter copy).
            stream.extend_from_slice(&[0u8; 16]);
            vec![CoreJob {
                firmware: FirmwareId::Ctr,
                params: param_bank(np, 0, pm, 0xFFFF),
                stream,
                output_bytes: 16 * np as usize,
                produces_output: true,
            }]
        }
        (Mode::CbcMac, _) => {
            // Both directions compute the MAC; the consumer compares on
            // verify. Data is zero-padded per FIPS-113 practice.
            vec![CoreJob {
                firmware: FirmwareId::CbcMac,
                params: param_bank(np, 0, 0xFFFF, 0xFFFF),
                stream: padded_body,
                output_bytes: 16,
                produces_output: true,
            }]
        }
    };

    Ok(FormattedRequest {
        jobs,
        payload_len: body.len(),
        tag_len,
    })
}

/// A parsed output packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessedPacket {
    /// Ciphertext (encrypt) or plaintext (decrypt), true length.
    pub body: Vec<u8>,
    /// The (truncated) tag, for encrypt on authenticated modes and for
    /// CBC-MAC.
    pub tag: Option<Tag>,
}

/// Parses the producing core's output-FIFO bytes. `raw` becomes the body
/// in place: the tag is copied out inline, then `raw` is cut to the
/// payload.
pub fn parse_output(
    algorithm: Algorithm,
    direction: Direction,
    payload_len: usize,
    tag_len: usize,
    mut raw: Vec<u8>,
) -> ProcessedPacket {
    let npad = 16 * blocks(payload_len) as usize;
    let (body_len, tag) = match (algorithm.mode(), direction) {
        (Mode::Gcm | Mode::Ccm, Direction::Encrypt) => {
            (payload_len, Some(&raw[npad..npad + tag_len]))
        }
        (Mode::Gcm | Mode::Ccm, Direction::Decrypt) | (Mode::Ctr, _) => (payload_len, None),
        (Mode::CbcMac, _) => (0, Some(&raw[..tag_len])),
    };
    let tag = tag.map(Tag::from_slice);
    raw.truncate(body_len);
    ProcessedPacket { body: raw, tag }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_and_masks() {
        assert_eq!(pad16(&[1, 2, 3]).len(), 16);
        assert_eq!(pad16(&[0; 16]).len(), 16);
        assert_eq!(pad16(&[]).len(), 0);
        assert_eq!(blocks(0), 0);
        assert_eq!(blocks(1), 1);
        assert_eq!(blocks(16), 1);
        assert_eq!(blocks(17), 2);
        assert_eq!(byte_mask(16), 0xFFFF);
        assert_eq!(byte_mask(1), 0x8000);
        assert_eq!(byte_mask(12), 0xFFF0);
        assert_eq!(final_block_mask(0), 0xFFFF);
        assert_eq!(final_block_mask(32), 0xFFFF);
        assert_eq!(final_block_mask(33), 0x8000);
        assert_eq!(final_block_mask(47), 0xFFFE);
    }

    #[test]
    fn gcm_j0_layout() {
        let iv = [0xAB; 12];
        let j0 = gcm_j0(&iv).unwrap();
        assert_eq!(&j0[..12], &iv);
        assert_eq!(&j0[12..], &[0, 0, 0, 1]);
        assert!(gcm_j0(&[0u8; 8]).is_err());
    }

    #[test]
    fn gcm_len_block_layout() {
        let b = gcm_len_block(20, 60);
        assert_eq!(u64::from_be_bytes(b[..8].try_into().unwrap()), 160);
        assert_eq!(u64::from_be_bytes(b[8..].try_into().unwrap()), 480);
    }

    #[test]
    fn gcm_encrypt_stream_layout() {
        let r = format_request(
            Algorithm::AesGcm128,
            Direction::Encrypt,
            false,
            &[1u8; 12],
            &[2u8; 20],
            &[3u8; 50],
            None,
            16,
        )
        .unwrap();
        assert_eq!(r.jobs.len(), 1);
        let j = &r.jobs[0];
        // J0 + 2 AAD blocks + 4 PT blocks + LEN = 8 blocks.
        assert_eq!(j.stream.len(), 16 * 8);
        assert_eq!(j.params[0], 4); // np
        assert_eq!(j.params[2], 2); // na
        assert_eq!(j.output_bytes, 16 * 4 + 16);
        assert_eq!(j.firmware, FirmwareId::GcmEnc);
    }

    #[test]
    fn gcm_decrypt_requires_tag() {
        let e = format_request(
            Algorithm::AesGcm128,
            Direction::Decrypt,
            false,
            &[1u8; 12],
            &[],
            &[0u8; 16],
            None,
            16,
        );
        assert!(e.is_err());
    }

    #[test]
    fn ccm_two_core_jobs() {
        let r = format_request(
            Algorithm::AesCcm128,
            Direction::Encrypt,
            true,
            &[7u8; 7],
            b"hdr",
            &[9u8; 64],
            None,
            8,
        )
        .unwrap();
        assert_eq!(r.jobs.len(), 2);
        assert_eq!(r.jobs[0].firmware, FirmwareId::Ccm2CbcEnc);
        assert_eq!(r.jobs[1].firmware, FirmwareId::Ccm2CtrEnc);
        assert!(!r.jobs[0].produces_output);
        assert!(r.jobs[1].produces_output);
        // CBC stream: B0 + 1 encoded-AAD block + 4 PT = 6 blocks.
        assert_eq!(r.jobs[0].stream.len(), 16 * 6);
        // CTR stream: CTR0 + 4 PT + CTR0 = 6 blocks.
        assert_eq!(r.jobs[1].stream.len(), 16 * 6);
    }

    #[test]
    fn ccm_two_core_decrypt_orientation() {
        let r = format_request(
            Algorithm::AesCcm128,
            Direction::Decrypt,
            true,
            &[7u8; 7],
            b"hdr",
            &[9u8; 32],
            Some(&[1u8; 8]),
            8,
        )
        .unwrap();
        assert_eq!(r.jobs[0].firmware, FirmwareId::Ccm2CtrDec);
        assert_eq!(r.jobs[1].firmware, FirmwareId::Ccm2CbcDec);
        assert!(r.jobs[0].produces_output);
    }

    #[test]
    fn ctr_requires_full_counter_block() {
        assert!(format_request(
            Algorithm::AesCtr128,
            Direction::Encrypt,
            false,
            &[0u8; 12],
            &[],
            &[1u8; 16],
            None,
            0,
        )
        .is_err());
    }

    #[test]
    fn parse_outputs() {
        // 20-byte payload → 2 padded blocks + tag block.
        let mut raw = vec![0u8; 48];
        for (i, b) in raw.iter_mut().enumerate() {
            *b = i as u8;
        }
        let p = parse_output(
            Algorithm::AesGcm128,
            Direction::Encrypt,
            20,
            12,
            raw.clone(),
        );
        assert_eq!(p.body.len(), 20);
        assert_eq!(p.body[..4], [0, 1, 2, 3]);
        let tag = p.tag.unwrap();
        assert_eq!(tag.len(), 12);
        assert_eq!(tag[0], 32);

        let p = parse_output(
            Algorithm::AesCcm128,
            Direction::Decrypt,
            20,
            8,
            raw[..32].to_vec(),
        );
        assert_eq!(p.body.len(), 20);
        assert!(p.tag.is_none());

        let p = parse_output(
            Algorithm::AesCbcMac128,
            Direction::Encrypt,
            0,
            16,
            raw[..16].to_vec(),
        );
        assert!(p.body.is_empty());
        assert_eq!(p.tag.unwrap().len(), 16);
    }

    #[test]
    fn ccm_nonce_validation() {
        assert!(format_request(
            Algorithm::AesCcm128,
            Direction::Encrypt,
            false,
            &[0u8; 5],
            &[],
            &[1u8; 16],
            None,
            8,
        )
        .is_err());
    }
}
