//! Wall-clock benchmarks of the cryptographic substrates: the block
//! ciphers, GHASH, and the full reference modes on 2 KB packets. Each line
//! is a harness median ([`mccp_bench::Sampler::RECORD`]) with its min and
//! p90.
//!
//! ```sh
//! cargo bench -p mccp-bench --bench primitives
//! ```

use mccp_aes::key_schedule::RoundKeys;
use mccp_aes::modes::{ccm_seal, gcm_seal, CcmParams};
use mccp_aes::twofish::Twofish;
use mccp_aes::whirlpool::whirlpool;
use mccp_aes::{Aes, BlockCipher128};
use mccp_bench::{Args, Sampler};
use mccp_gf128::digit_serial::DigitSerialMultiplier;
use mccp_gf128::{ghash, Gf128, GhashKey};
use std::hint::black_box;

fn main() {
    Args::parse(&["--bench"]);
    let s = Sampler::RECORD;

    let aes128 = Aes::new_128(&[7u8; 16]);
    let aes256 = Aes::new_256(&[7u8; 32]);
    let twofish = Twofish::new(&[7u8; 16]);
    let mut block = [0u8; 16];
    s.bench("block-ciphers/aes128-encrypt-block", 16, || {
        aes128.encrypt_block(black_box(&mut block))
    });
    s.bench("block-ciphers/aes256-encrypt-block", 16, || {
        aes256.encrypt_block(black_box(&mut block))
    });
    s.bench("block-ciphers/twofish128-encrypt-block", 16, || {
        twofish.encrypt_block(black_box(&mut block))
    });

    let h = Gf128(0x66e9_4bd4_ef8a_2c3b_884c_fa59_ca34_2b2e);
    let key = GhashKey::new(h);
    let digit = DigitSerialMultiplier::new(h);
    let data = vec![0xA5u8; 2048];
    let x = Gf128(0x1234_5678_9abc_def0_0fed_cba9_8765_4321);
    s.bench("ghash/ghash-2kb-table", 2048, || {
        ghash(&key, &[], black_box(&data))
    });
    s.bench("ghash/gf128-mul-table", 16, || key.mul_h(black_box(x)));
    s.bench("ghash/gf128-mul-digit-serial-model", 16, || {
        digit.mul(black_box(x))
    });

    let aes = Aes::new_128(&[3u8; 16]);
    let payload = vec![0xC3u8; 2048];
    let params = CcmParams {
        nonce_len: 12,
        tag_len: 8,
    };
    s.bench("modes-2kb/gcm-seal", 2048, || {
        gcm_seal(&aes, &[1u8; 12], b"hdr", black_box(&payload), 16).unwrap()
    });
    s.bench("modes-2kb/ccm-seal", 2048, || {
        ccm_seal(&aes, &params, &[1u8; 12], b"hdr", black_box(&payload)).unwrap()
    });
    s.bench("modes-2kb/whirlpool", 2048, || {
        whirlpool(black_box(&payload))
    });

    s.bench("key-schedule/aes128-expand", 0, || {
        RoundKeys::expand(black_box(&[7u8; 16]))
    });
    s.bench("key-schedule/aes256-expand", 0, || {
        RoundKeys::expand(black_box(&[7u8; 32]))
    });
}
