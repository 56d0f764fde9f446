//! Per-channel **pipeline graphs**: a channel's transform expressed as an
//! ordered chain of crypto stages mapped onto distinct cores (Nawinne et
//! al.'s product-cipher pipeline, generalized to the MCCP's reconfigurable
//! core pool).
//!
//! The paper's two-core CCM schedule is the degenerate case: CBC-MAC on
//! the left core feeding CTR on the right over the inter-core port. A
//! [`PipelineGraph`] generalizes that shape to arbitrary 1–3 stage chains
//! — e.g. AES-CTR → Whirlpool-HMAC, or Twofish-CTR → AES-CMAC — where
//! each stage runs on a core whose reconfigurable region hosts the
//! matching personality (AES, Twofish or Whirlpool), and intermediate
//! bytes move core-to-core through the crossbar/FIFO fabric.
//!
//! Two invariants make the graphs safe to run on either engine:
//!
//! * **Stage semantics are engine-neutral.** A `Ctr` stage replaces the
//!   body with its keystream XOR; a MAC stage (`CbcMac`,
//!   `WhirlpoolHmac`) computes the tag over the body as it stands and
//!   must be the final stage. The delivered packet is the body after the
//!   last `Ctr` stage plus the final MAC tag (if any) — identical bytes
//!   on the cycle-accurate and functional engines, enforced by
//!   `tests/pipeline_equivalence.rs`.
//! * **Per-stage counter separation.** Every `Ctr` stage derives its
//!   counter block from the submitted IV XOR the stage index
//!   ([`stage_counter`]), so a two-cipher cascade never feeds the same
//!   counter stream to both stages.

use crate::bytes::Tag;
use crate::core_unit::Personality;
use crate::key::SessionKey;
use crate::protocol::{Algorithm, CipherSel, KeyId, MccpError};
use mccp_aes::modes::{cbc_mac, ctr_xcrypt};
use mccp_aes::twofish::Twofish;
use mccp_aes::whirlpool::Whirlpool;
use mccp_aes::Aes;

/// What one pipeline stage computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageOp {
    /// Counter-mode encryption: body → body (same length). Runs on an
    /// AES- or Twofish-configured core.
    Ctr,
    /// CBC-MAC over the current body: produces the tag; final stage only.
    CbcMac,
    /// HMAC-Whirlpool over the current body: produces the tag; final
    /// stage only. Runs on a Whirlpool-configured core — the personality
    /// only a live partial reconfiguration can provide.
    WhirlpoolHmac,
}

impl StageOp {
    /// True for tag-producing (final-position-only) stages.
    pub fn is_mac(self) -> bool {
        matches!(self, StageOp::CbcMac | StageOp::WhirlpoolHmac)
    }
}

/// One stage of a pipeline graph: the operation, the block cipher the
/// stage's core must host, and the stage's own session key.
#[derive(Debug)]
pub struct PipelineStage {
    pub op: StageOp,
    /// Ignored for `WhirlpoolHmac` (the hash core has no block cipher).
    pub cipher: CipherSel,
    pub key: SessionKey,
}

impl PipelineStage {
    /// The core personality this stage dispatches to.
    pub fn personality(&self) -> Personality {
        match self.op {
            StageOp::WhirlpoolHmac => Personality::WhirlpoolUnit,
            _ => match self.cipher {
                CipherSel::Aes => Personality::AesUnit,
                CipherSel::Twofish => Personality::TwofishUnit,
            },
        }
    }

    /// The mode×key-size algorithm the stage's firmware runs (the
    /// `Aes*` names select the *mode*; `cipher` selects the block cipher,
    /// exactly as in [`Mccp::open_with_cipher`](crate::Mccp::open_with_cipher)).
    pub fn algorithm(&self) -> Result<Algorithm, MccpError> {
        let alg = match (self.op, self.key.as_bytes().len()) {
            (StageOp::Ctr, 16) => Algorithm::AesCtr128,
            (StageOp::Ctr, 24) => Algorithm::AesCtr192,
            (StageOp::Ctr, 32) => Algorithm::AesCtr256,
            (StageOp::CbcMac, 16) => Algorithm::AesCbcMac128,
            (StageOp::CbcMac, 24) => Algorithm::AesCbcMac192,
            (StageOp::CbcMac, 32) => Algorithm::AesCbcMac256,
            // Whirlpool keys are free-form (the HMAC construction hashes
            // them into a 64-byte block); report the MAC-mode grid entry
            // closest in spirit for bookkeeping.
            (StageOp::WhirlpoolHmac, _) => Algorithm::AesCbcMac128,
            _ => return Err(MccpError::BadKey),
        };
        Ok(alg)
    }
}

/// A per-channel pipeline graph: an ordered chain of 1–3 stages, each
/// carrying its own key. Keys are carried as bytes; each engine maps them
/// into its own key store when the channel opens (the cycle-accurate
/// engine allocates [`KeyId`]s in the write-protected Key Memory, the
/// functional engine keeps the bytes).
///
/// The paper's two-core CCM schedule is not a graph: it is the engine-wide
/// `MccpConfig::ccm_two_core` knob.
#[derive(Debug)]
pub struct PipelineGraph {
    pub stages: Vec<PipelineStage>,
    /// Tag length in bytes for the final MAC stage (≤ 16 for CBC-MAC,
    /// ≤ 64 for HMAC-Whirlpool).
    pub tag_len: usize,
}

impl PipelineGraph {
    /// A stage chain.
    pub fn new(stages: Vec<PipelineStage>, tag_len: usize) -> Self {
        PipelineGraph { stages, tag_len }
    }

    /// Validates the graph: 1–3 stages, MAC stages final-only, legal key
    /// sizes (Twofish stages are fixed at 128-bit keys; HMAC-Whirlpool
    /// takes any [`SessionKey`]), tag length in range for the final stage.
    pub fn validate(&self) -> Result<(), MccpError> {
        let stages = &self.stages;
        if stages.is_empty() || stages.len() > 3 {
            return Err(MccpError::BadInstruction);
        }
        for (i, st) in stages.iter().enumerate() {
            if st.op.is_mac() && i + 1 != stages.len() {
                return Err(MccpError::BadInstruction);
            }
            match st.op {
                StageOp::WhirlpoolHmac => {
                    if self.tag_len == 0 || self.tag_len > 64 {
                        return Err(MccpError::BadInstruction);
                    }
                }
                _ => {
                    st.algorithm()?;
                    if st.cipher == CipherSel::Twofish && st.key.as_bytes().len() != 16 {
                        return Err(MccpError::BadKey);
                    }
                    if st.op == StageOp::CbcMac && (self.tag_len == 0 || self.tag_len > 16) {
                        return Err(MccpError::BadInstruction);
                    }
                }
            }
        }
        Ok(())
    }

    /// True when any stage needs a 16-byte CTR counter block as the IV.
    pub fn needs_iv(&self) -> bool {
        self.stages.iter().any(|s| s.op == StageOp::Ctr)
    }

    /// The distinct core personalities the graph dispatches to.
    pub fn personalities(&self) -> Vec<Personality> {
        let mut ps: Vec<Personality> = self.stages.iter().map(|s| s.personality()).collect();
        ps.dedup();
        ps
    }
}

/// Modeled HMAC-Whirlpool throughput: cycles per 512-bit compression on
/// the Whirlpool core (10 rounds of the W block cipher, pipelined across
/// the 8×8 state — same order as the paper's AES round timing), plus a
/// fixed init/finalize overhead per message.
pub const WHIRLPOOL_BLOCK_CYCLES: u64 = 58;
/// Fixed per-message overhead (state init, padding, digest drain).
pub const WHIRLPOOL_FIXED_CYCLES: u64 = 64;

/// Modeled cycle cost of an HMAC-Whirlpool stage over `body_len` bytes.
/// HMAC runs two hash passes: inner over `block ‖ body`, outer over
/// `block ‖ inner-digest` (the 64-byte Whirlpool block size).
pub fn whirlpool_hmac_cycles(body_len: usize) -> u64 {
    let inner_blocks = padded_whirlpool_blocks(64 + body_len);
    let outer_blocks = padded_whirlpool_blocks(64 + 64);
    (inner_blocks + outer_blocks) * WHIRLPOOL_BLOCK_CYCLES + WHIRLPOOL_FIXED_CYCLES
}

/// 512-bit compression invocations for a `len`-byte message after
/// Whirlpool padding (0x80 marker + 256-bit length field).
fn padded_whirlpool_blocks(len: usize) -> u64 {
    ((len + 1 + 32).div_ceil(64)) as u64
}

/// HMAC-Whirlpool (RFC 2104 with the 64-byte Whirlpool block size):
/// `H((k ⊕ opad) ‖ H((k ⊕ ipad) ‖ m))`. Keys longer than a block are
/// hashed first. Shared by both engines, so the bytes match by
/// construction.
pub fn whirlpool_hmac(key: &[u8], msg: &[u8]) -> [u8; 64] {
    let mut block = [0u8; 64];
    if key.len() > 64 {
        block.copy_from_slice(&mccp_aes::whirlpool::whirlpool(key));
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Whirlpool::new();
    let ipad: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
    inner.update(&ipad);
    inner.update(msg);
    let inner_digest = inner.finalize();
    let mut outer = Whirlpool::new();
    let opad: Vec<u8> = block.iter().map(|b| b ^ 0x5C).collect();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// The counter block a `Ctr` stage at `stage` index derives from the
/// submitted IV: the IV with the stage index folded into the first byte,
/// so cascaded CTR stages never share a keystream.
pub fn stage_counter(iv: &[u8], stage: usize) -> [u8; 16] {
    let mut ctr = [0u8; 16];
    ctr.copy_from_slice(&iv[..16]);
    ctr[0] ^= stage as u8;
    ctr
}

/// Runs a stage chain functionally (the reference datapath both engines
/// agree with): returns `(body-after-last-Ctr-stage, final-MAC-tag)`.
pub fn run_stages_functional(
    stages: &[PipelineStage],
    iv: &[u8],
    body: &[u8],
    tag_len: usize,
) -> Result<(Vec<u8>, Option<Vec<u8>>), MccpError> {
    let mut cur = body.to_vec();
    let mut ciphered = false;
    let mut tag = None;
    for (i, st) in stages.iter().enumerate() {
        match st.op {
            StageOp::Ctr => {
                if iv.len() < 16 {
                    return Err(MccpError::BadInstruction);
                }
                let ctr = stage_counter(iv, i);
                let key = st.key.as_bytes();
                let r = match st.cipher {
                    CipherSel::Aes => ctr_xcrypt(&Aes::new(key), &ctr, &mut cur),
                    CipherSel::Twofish => ctr_xcrypt(&Twofish::new(key), &ctr, &mut cur),
                };
                r.map_err(|_| MccpError::BadInstruction)?;
                ciphered = true;
            }
            StageOp::CbcMac => {
                let key = st.key.as_bytes();
                let mac = match st.cipher {
                    CipherSel::Aes => cbc_mac(&Aes::new(key), &cur, tag_len),
                    CipherSel::Twofish => cbc_mac(&Twofish::new(key), &cur, tag_len),
                };
                tag = Some(mac.map_err(|_| MccpError::BadInstruction)?);
            }
            StageOp::WhirlpoolHmac => {
                tag = Some(whirlpool_hmac(st.key.as_bytes(), &cur)[..tag_len].to_vec());
            }
        }
    }
    // MAC stages never change the body, so after the chain it is the
    // body the last `Ctr` stage left.
    if !ciphered {
        cur = Vec::new();
    }
    Ok((cur, tag))
}

/// A stage resolved against the cycle-accurate engine's key stores.
#[derive(Debug)]
pub(crate) struct ResolvedStage {
    pub(crate) op: StageOp,
    pub(crate) cipher: CipherSel,
    /// The core personality the stage dispatches to.
    pub(crate) personality: Personality,
    /// Key Memory slot for CU stages; unused (0) for Whirlpool stages.
    pub(crate) key: KeyId,
    /// Whirlpool stages only: the key bytes they hash at run time (CU
    /// stages read theirs from the Key Memory).
    pub(crate) key_bytes: Option<SessionKey>,
    pub(crate) algorithm: Algorithm,
}

/// A pipeline channel's resolved graph, shared by its requests.
#[derive(Debug)]
pub(crate) struct ResolvedPipeline {
    pub(crate) stages: Vec<ResolvedStage>,
    pub(crate) tag_len: usize,
}

/// One in-flight pipeline request's progress.
#[derive(Clone, Debug)]
pub(crate) struct PipelinePlan {
    pub(crate) pipeline: std::sync::Arc<ResolvedPipeline>,
    /// Index of the stage currently running (or waiting to start).
    pub(crate) current: usize,
    /// The submitted IV (CTR stages derive their counters from it).
    pub(crate) iv: Vec<u8>,
    /// The body as it stands entering the current stage; after the last
    /// stage, the delivered ciphertext (when any stage was `Ctr`).
    pub(crate) body: Vec<u8>,
    /// The final MAC tag, once computed.
    pub(crate) tag: Option<Tag>,
    /// The producing core of the previously completed stage (the next
    /// stage prefers a *different* core — the inter-core transfer is the
    /// point of the pipeline).
    pub(crate) prev_core: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(byte: u8, len: usize) -> SessionKey {
        SessionKey::new(&vec![byte; len]).unwrap()
    }

    fn ctr(cipher: CipherSel) -> PipelineStage {
        PipelineStage {
            op: StageOp::Ctr,
            cipher,
            key: key(0x11, 16),
        }
    }

    #[test]
    fn validation_rules() {
        // MAC stages only in final position.
        let bad = PipelineGraph::new(
            vec![
                PipelineStage {
                    op: StageOp::CbcMac,
                    cipher: CipherSel::Aes,
                    key: key(1, 16),
                },
                ctr(CipherSel::Aes),
            ],
            16,
        );
        assert!(bad.validate().is_err());
        // 1–3 stages.
        assert!(PipelineGraph::new(vec![], 16).validate().is_err());
        assert!(PipelineGraph::new(
            vec![
                ctr(CipherSel::Aes),
                ctr(CipherSel::Aes),
                ctr(CipherSel::Aes),
                ctr(CipherSel::Aes)
            ],
            0
        )
        .validate()
        .is_err());
        // Twofish keys are 128-bit.
        let bad_tf = PipelineGraph::new(
            vec![PipelineStage {
                op: StageOp::Ctr,
                cipher: CipherSel::Twofish,
                key: key(1, 24),
            }],
            0,
        );
        assert!(bad_tf.validate().is_err());
        // The canonical product-cipher chain is accepted.
        let good = PipelineGraph::new(
            vec![
                ctr(CipherSel::Aes),
                PipelineStage {
                    op: StageOp::WhirlpoolHmac,
                    cipher: CipherSel::Aes,
                    key: key(7, 32),
                },
            ],
            32,
        );
        assert!(good.validate().is_ok());
        assert_eq!(
            good.personalities(),
            vec![Personality::AesUnit, Personality::WhirlpoolUnit]
        );
        assert!(good.needs_iv());
    }

    #[test]
    fn stage_counters_are_domain_separated() {
        let iv = [0xAA; 16];
        let c0 = stage_counter(&iv, 0);
        let c1 = stage_counter(&iv, 1);
        assert_eq!(c0, iv);
        assert_ne!(c0, c1);
        assert_eq!(&c0[1..], &c1[1..]);
    }

    #[test]
    fn hmac_whirlpool_matches_reference_structure() {
        // Long keys are pre-hashed; the digest differs from the raw-key
        // envelope (structure check, since no external vectors ship).
        let short = whirlpool_hmac(&[1; 16], b"data");
        let long = whirlpool_hmac(&[1; 100], b"data");
        assert_ne!(short, long);
        assert_ne!(
            whirlpool_hmac(&[1; 16], b"data"),
            whirlpool_hmac(&[2; 16], b"data")
        );
        // Deterministic.
        assert_eq!(short, whirlpool_hmac(&[1; 16], b"data"));
    }

    #[test]
    fn whirlpool_cycle_model_scales_with_blocks() {
        let small = whirlpool_hmac_cycles(16);
        let large = whirlpool_hmac_cycles(2048);
        assert!(small >= 3 * WHIRLPOOL_BLOCK_CYCLES);
        assert!(large > small + 30 * WHIRLPOOL_BLOCK_CYCLES);
    }

    #[test]
    fn functional_runner_chains_stages() {
        let stages = vec![
            ctr(CipherSel::Aes),
            PipelineStage {
                op: StageOp::CbcMac,
                cipher: CipherSel::Twofish,
                key: key(9, 16),
            },
        ];
        let (body, tag) = run_stages_functional(&stages, &[3; 16], &[0x5A; 40], 12).unwrap();
        assert_eq!(body.len(), 40);
        assert_ne!(body, vec![0x5A; 40]);
        assert_eq!(tag.unwrap().len(), 12);
        // MAC-only chain: empty body, tag over the plaintext.
        let mac_only = vec![PipelineStage {
            op: StageOp::WhirlpoolHmac,
            cipher: CipherSel::Aes,
            key: key(4, 20),
        }];
        let (body, tag) = run_stages_functional(&mac_only, &[], &[1, 2, 3], 64).unwrap();
        assert!(body.is_empty());
        assert_eq!(tag.unwrap().len(), 64);
    }
}
