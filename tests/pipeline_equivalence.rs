//! Pipeline-graph equivalence: any 1–3 stage pipeline graph over random
//! payloads must produce identical bytes on the cycle-accurate and
//! functional engines, and the paper's two-core CCM schedule
//! (`MccpConfig::ccm_two_core`) must seal the same bytes as single-core
//! CCM and the functional engine.

use mccp::core::core_unit::Personality;
use mccp::core::protocol::{Algorithm, ChannelId, CipherSel, KeyId, MccpError};
use mccp::core::{
    submit_and_wait, ChannelBackend, Direction, FunctionalBackend, Mccp, MccpConfig, PipelineGraph,
    PipelineStage, SessionKey, StageOp,
};
use proptest::prelude::*;

fn cfg(cases: u32) -> ProptestConfig {
    ProptestConfig {
        cases,
        failure_persistence: None,
        ..ProptestConfig::default()
    }
}

/// Deterministic per-test key/shape material (splitmix64).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_key(seed: &mut u64, len: usize) -> SessionKey {
    SessionKey::new(&(0..len).map(|_| mix(seed) as u8).collect::<Vec<u8>>()).unwrap()
}

/// Derives a random legal 1–3 stage pipeline graph from two seeds:
/// non-final stages are CTR (AES or Twofish), the final stage is CTR,
/// AES/Twofish CBC-MAC, or HMAC-Whirlpool, with legal key and tag sizes.
fn derive_graph(shape_seed: u64, key_seed: u64) -> PipelineGraph {
    let mut s = shape_seed;
    let mut k = key_seed;
    let n_stages = 1 + (mix(&mut s) % 3) as usize;
    let mut stages = Vec::with_capacity(n_stages);
    let mut tag_len = 16;
    for i in 0..n_stages {
        let last = i + 1 == n_stages;
        let op = if last {
            match mix(&mut s) % 3 {
                0 => StageOp::Ctr,
                1 => StageOp::CbcMac,
                _ => StageOp::WhirlpoolHmac,
            }
        } else {
            StageOp::Ctr
        };
        let cipher = if mix(&mut s).is_multiple_of(2) {
            CipherSel::Aes
        } else {
            CipherSel::Twofish
        };
        let key = match (op, cipher) {
            (StageOp::WhirlpoolHmac, _) => random_key(&mut k, 1 + (mix(&mut s) % 64) as usize),
            (_, CipherSel::Twofish) => random_key(&mut k, 16),
            (_, CipherSel::Aes) => random_key(&mut k, [16, 24, 32][(mix(&mut s) % 3) as usize]),
        };
        if last {
            tag_len = match op {
                StageOp::CbcMac => 1 + (mix(&mut s) % 16) as usize,
                StageOp::WhirlpoolHmac => 1 + (mix(&mut s) % 64) as usize,
                StageOp::Ctr => 16,
            };
        }
        stages.push(PipelineStage { op, cipher, key });
    }
    PipelineGraph::new(stages, tag_len)
}

/// A 4-core engine with every stage personality resident: cores 0 and 3
/// stay AES, core 1 hosts Twofish, core 2 hosts Whirlpool.
fn personalized_mccp() -> Mccp {
    let mut m = Mccp::new(MccpConfig::default());
    m.core_mut(1).set_personality(Personality::TwofishUnit);
    m.core_mut(2).set_personality(Personality::WhirlpoolUnit);
    m
}

proptest! {
    #![proptest_config(cfg(24))]
    #[test]
    fn random_pipeline_graphs_match_functional(
        shape_seed in any::<u64>(),
        key_seed in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 1..160),
        iv_head in proptest::array::uniform12(any::<u8>()),
    ) {
        // Counter blocks keep INC headroom in the low 4 bytes.
        let mut iv = [0u8; 16];
        iv[..12].copy_from_slice(&iv_head);

        let graph = derive_graph(shape_seed, key_seed);
        prop_assert!(graph.validate().is_ok());

        // Cycle-accurate engine.
        let mut m = personalized_mccp();
        let ch = m.open_pipeline(&graph).unwrap();
        let id = m
            .submit(ch, Direction::Encrypt, &iv, &[], &body, None)
            .unwrap();
        m.run_until_done(id, 50_000_000);
        let pkt = m.retrieve(id).unwrap();
        m.transfer_done(id).unwrap();

        // Functional engine, same graph and inputs.
        let mut f = FunctionalBackend::new();
        let fch = f.open_pipeline(&graph).unwrap();
        f.submit_packet(fch, Direction::Encrypt, &iv, &[], &body, None)
            .unwrap();
        let comp = f.poll_completion().unwrap();

        prop_assert!(comp.auth_ok);
        prop_assert_eq!(&pkt.body[..], &comp.body[..]);
        prop_assert_eq!(pkt.tag.unwrap_or_default(), comp.tag);
    }
}

proptest! {
    #![proptest_config(cfg(12))]
    /// The paper's two-core CCM schedule (`MccpConfig::ccm_two_core`) seals
    /// the same bytes and tag as single-core CCM and as the functional
    /// engine. Its cycle count is pinned by `cycle_identity.rs`.
    #[test]
    fn two_core_ccm_matches_single_core_and_functional(
        key in proptest::array::uniform16(any::<u8>()),
        body in proptest::collection::vec(any::<u8>(), 1..200),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        tag_sel in 0usize..=6,
    ) {
        let tag_len = 4 + 2 * tag_sel; // 4..=16, even
        let nonce = [0x4Du8; 12];
        let seal = |ccm_two_core: bool| {
            let mut m = Mccp::new(MccpConfig {
                ccm_two_core,
                ..MccpConfig::default()
            });
            let ch = m.open_channel(Algorithm::AesCcm128, &key, tag_len).unwrap();
            m.encrypt_packet(ch, &aad, &body, &nonce).unwrap()
        };
        let two_core = seal(true);
        let single = seal(false);
        prop_assert_eq!(&two_core.ciphertext[..], &single.ciphertext[..]);
        prop_assert_eq!(&two_core.tag[..], &single.tag[..]);

        let mut f = FunctionalBackend::new();
        let fch = f.open_channel(Algorithm::AesCcm128, &key, tag_len).unwrap();
        f.submit_packet(fch, Direction::Encrypt, &nonce, &aad, &body, None)
            .unwrap();
        let comp = f.poll_completion().unwrap();
        prop_assert!(comp.auth_ok);
        prop_assert_eq!(&comp.body[..], &two_core.ciphertext[..]);
        prop_assert_eq!(&comp.tag[..], &two_core.tag[..]);
    }
}

/// The flagship heterogeneous chain from the issue — AES-CTR into
/// HMAC-Whirlpool across two differently-personalized cores — runs
/// deterministically and matches the functional engine, including an
/// exercised second packet on the same channel (stage keys stay cached).
#[test]
fn ctr_then_whirlpool_hmac_two_packets() {
    let graph = PipelineGraph::new(
        vec![
            PipelineStage {
                op: StageOp::Ctr,
                cipher: CipherSel::Aes,
                key: SessionKey::new(&[0xA5; 16]).unwrap(),
            },
            PipelineStage {
                op: StageOp::WhirlpoolHmac,
                cipher: CipherSel::Aes,
                key: SessionKey::new(&[0x5A; 32]).unwrap(),
            },
        ],
        32,
    );
    let mut m = personalized_mccp();
    let ch = m.open_pipeline(&graph).unwrap();
    let mut f = FunctionalBackend::new();
    let fch = f.open_pipeline(&graph).unwrap();

    for round in 0u8..2 {
        let iv = [round.wrapping_add(1); 16];
        let body: Vec<u8> = (0..100u8).map(|b| b ^ round).collect();
        let id = m
            .submit(ch, Direction::Encrypt, &iv, &[], &body, None)
            .unwrap();
        m.run_until_done(id, 50_000_000);
        let pkt = m.retrieve(id).unwrap();
        m.transfer_done(id).unwrap();
        f.submit_packet(fch, Direction::Encrypt, &iv, &[], &body, None)
            .unwrap();
        let comp = f.poll_completion().unwrap();
        assert!(comp.auth_ok);
        assert_eq!(pkt.body, comp.body);
        assert_eq!(pkt.tag.unwrap(), comp.tag);
        assert_eq!(comp.tag.len(), 32);
        assert_ne!(pkt.body, body, "CTR stage must actually transform");
    }
}

/// A MAC-only chain delivers an empty body and only the tag — on both
/// engines.
#[test]
fn mac_only_chain_delivers_empty_body() {
    let graph = PipelineGraph::new(
        vec![PipelineStage {
            op: StageOp::CbcMac,
            cipher: CipherSel::Twofish,
            key: SessionKey::new(&[0x11; 16]).unwrap(),
        }],
        12,
    );
    let body = vec![0xC3u8; 64];
    let iv = [0u8; 16];

    let mut m = personalized_mccp();
    let ch = m.open_pipeline(&graph).unwrap();
    let id = m
        .submit(ch, Direction::Encrypt, &iv, &[], &body, None)
        .unwrap();
    m.run_until_done(id, 50_000_000);
    let pkt = m.retrieve(id).unwrap();
    m.transfer_done(id).unwrap();

    let mut f = FunctionalBackend::new();
    let fch = f.open_pipeline(&graph).unwrap();
    f.submit_packet(fch, Direction::Encrypt, &iv, &[], &body, None)
        .unwrap();
    let comp = f.poll_completion().unwrap();

    assert!(pkt.body.is_empty());
    assert!(comp.body.is_empty());
    assert_eq!(pkt.tag.unwrap(), comp.tag);
    assert_eq!(comp.tag.len(), 12);
}

/// Closing a pipeline channel through the trait releases the Key Memory
/// slot of every CU stage, not only the first: a CTR → CBC-MAC chain holds
/// two, so 300 open/close rounds would exhaust the 255 slots otherwise.
#[test]
fn pipeline_open_close_churn_releases_every_stage_key() {
    let mut m = personalized_mccp();
    for round in 0..300u32 {
        let [a, b] = [round.to_le_bytes()[0], !round.to_le_bytes()[0]];
        let graph = PipelineGraph::new(
            vec![
                PipelineStage {
                    op: StageOp::Ctr,
                    cipher: CipherSel::Aes,
                    key: SessionKey::new(&[a; 16]).unwrap(),
                },
                PipelineStage {
                    op: StageOp::CbcMac,
                    cipher: CipherSel::Aes,
                    key: SessionKey::new(&[b; 16]).unwrap(),
                },
            ],
            16,
        );
        let ch = m
            .open_pipeline(&graph)
            .unwrap_or_else(|e| panic!("open {round}: {e}"));
        m.close_channel(ch).unwrap();
    }
    let resident: Vec<u8> = (0..=u8::MAX)
        .filter(|&k| m.key_memory_mut().contains(KeyId(k)))
        .collect();
    assert!(resident.is_empty(), "key ids left resident: {resident:?}");
}

/// Rekeying a stage chain is refused with a typed error on both engines
/// before a key slot or the epoch moves: its stages run on keys fixed when
/// the graph opened, so rotating the channel key alone would report epoch
/// 1 over the old keystream. The channel keeps its original key.
#[test]
fn pipeline_rekey_is_refused_on_both_engines() {
    let graph = PipelineGraph::new(
        vec![PipelineStage {
            op: StageOp::Ctr,
            cipher: CipherSel::Aes,
            key: SessionKey::new(&[0x11; 16]).unwrap(),
        }],
        16,
    );
    let (iv, body) = ([0u8; 16], [0u8; 32]);
    let mut m = personalized_mccp();
    let mut f = FunctionalBackend::new();
    let (mch, fch) = (
        m.open_pipeline(&graph).unwrap(),
        f.open_pipeline(&graph).unwrap(),
    );
    let engines: [(&mut dyn ChannelBackend, ChannelId); 2] = [(&mut m, mch), (&mut f, fch)];
    for (b, ch) in engines {
        let name = b.backend_name();
        let encrypt = |b: &mut dyn ChannelBackend| {
            submit_and_wait(b, ch, Direction::Encrypt, &iv, &[], &body, None).unwrap()
        };
        let before = encrypt(b);
        assert_eq!(
            b.rekey_channel(ch, &[0x22; 16]),
            Err(MccpError::BadInstruction),
            "{name}"
        );
        assert_eq!(b.channel_epoch(ch), Ok(0), "{name}");
        let after = encrypt(b);
        assert_eq!((after.epoch, &after.body), (0, &before.body), "{name}");
    }
    let resident = (0..=u8::MAX)
        .filter(|&k| m.key_memory_mut().contains(KeyId(k)))
        .count();
    assert_eq!(resident, 1, "the refused rekey took a Key Memory slot");
}
