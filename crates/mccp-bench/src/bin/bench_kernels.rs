//! Functional-kernel microbenchmarks: serial vs batched or stitched arms
//! of the four kernels the packet path spends its time in, emitted as
//! `BENCH_functional_kernels.json`.
//!
//! [`Aes`] runs every block on AES-NI when the CPU has it, else on the
//! T-table (`aes_arm`: `aesni` or `ttable`), so on an `aesni` host the
//! serial arms below make one AES-NI call per block.
//!
//! - **GHASH** — serial Shoup-table Horner loop vs 8-block folding over
//!   precomputed H-powers ([`GhashPowers`]), GB/s over an 8 KiB buffer.
//!   The batched arm is whichever the CPU selects (`ghash_arm`: `clmul`
//!   with PCLMULQDQ, else `table`); on a `clmul` host it must run at
//!   least 8x the serial arm.
//! - **AES-CTR** — one `encrypt_block` per counter vs the 4-wide
//!   interleaved keystream, GB/s over an 8 KiB buffer.
//! - **GCM packets** — the serial seal path (per-call hash subkey +
//!   serial GHASH + one `encrypt_block` per keystream block) vs a warm
//!   [`GcmContext`] reused across packets with `seal_into`, packets/s at
//!   the 512 B reference payload with 16 B of AAD. A third arm seals
//!   through a warm context over [`Aes`] seen only through `encrypt_block`
//!   and `encrypt_blocks4`, which runs the trait's two-pass GCM kernel
//!   (4-wide keystream, then batched GHASH); on a host with AES-NI and
//!   PCLMULQDQ the warm context over [`Aes`] runs the stitched one-pass
//!   kernel and must beat the two-pass arm by
//!   [`MIN_STITCHED_GCM_SPEEDUP`].
//! - **CCM packets** — `ccm_seal_into` over [`Aes`] seen only through
//!   `encrypt_block` (the trait's serial CCM pass) vs over [`Aes`] itself
//!   (the stitched one-pass arm on an `aesni` host), packets/s at the same
//!   512 B payload with 16 B of AAD. On an `aesni` host the stitched arm
//!   must run at least 1.5x the serial one.
//!
//! Every number is a harness median ([`Sampler::RECORD`]; `--quick` takes
//! [`Sampler::QUICK`]'s shorter samples and does not rewrite the JSON).
//! The `FLOOR_*` constants below are regression floors for the batched
//! and stitched arms, recorded in the JSON as `floor_*`; every run,
//! `--quick` (the CI perf smoke) included, fails if one of those arms'
//! medians lands below its floor. The ratio gates (GCM ≥ 4x, CLMUL
//! GHASH ≥ 8x, stitched CCM ≥ 1.5x, stitched GCM ≥ 1.1x) compare two
//! arms on the same host, so they hold across machines.
//!
//! ```sh
//! cargo run --release -p mccp-bench --bin bench_kernels [-- --quick]
//! ```

use mccp_aes::modes::{
    ccm_seal_into, ctr_xcrypt, ctr_xcrypt_scalar, gcm_seal_scalar, CcmParams, GcmContext,
};
use mccp_aes::{Aes, BlockCipher128};
use mccp_bench::{Args, BenchFile, Sampler, Stats};
use mccp_gf128::{ghash, ghash_batched, Gf128, GhashKey, GhashPowers};
use std::hint::black_box;

const KERNEL_BUF_BYTES: usize = 8192;
const PACKET_PAYLOAD_BYTES: usize = 512;
const PACKET_AAD_BYTES: usize = 16;

// Regression floors for the batched arms. Deliberately far below the
// measured numbers (see BENCH_functional_kernels.json) so only a real
// kernel regression — not host noise — trips them.
const FLOOR_GHASH_BATCHED_GB_S: f64 = 0.04;
const FLOOR_CTR_BATCHED_GB_S: f64 = 0.04;
const FLOOR_GCM512_BATCHED_PACKETS_PER_SEC: f64 = 4000.0;
const FLOOR_CCM512_STITCHED_PACKETS_PER_SEC: f64 = 4000.0;

/// Batched GHASH over the serial Shoup arm, required when the batched arm
/// runs on PCLMULQDQ (the table arm reads about 1.75x and is not gated).
const MIN_CLMUL_GHASH_SPEEDUP: f64 = 8.0;

/// Stitched CCM over the serial pass, required on an AES-NI host (without
/// AES-NI both arms run the same serial pass).
const MIN_AESNI_CCM_SPEEDUP: f64 = 1.5;

/// Stitched 512 B GCM over the two-pass kernel, required on a host with
/// AES-NI and PCLMULQDQ (elsewhere both arms run the two-pass kernel).
/// Six `--quick` runs on a 2-vCPU Xeon VM read 1.43–2.60x (the VM's speed
/// shifts between runs, the stitched arm's most); the gate sits 23% below
/// the lowest.
const MIN_STITCHED_GCM_SPEEDUP: f64 = 1.1;

/// [`Aes`] seen only through `encrypt_block`: CCM over it takes the
/// trait's default serial pass, one block per call.
struct SerialCcm<'a>(&'a Aes);

impl BlockCipher128 for SerialCcm<'_> {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        self.0.encrypt_block(block);
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// [`Aes`] seen only through `encrypt_block` and `encrypt_blocks4`: GCM
/// over it takes the trait's default two-pass kernel.
struct TwoPassGcm<'a>(&'a Aes);

impl BlockCipher128 for TwoPassGcm<'_> {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        self.0.encrypt_block(block);
    }
    fn encrypt_blocks4(&self, blocks: &mut [u8; 64]) {
        self.0.encrypt_blocks4(blocks);
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

fn main() {
    let quick = Args::parse(&["--quick"]).flag("--quick");
    let sampler = Sampler::new(quick);
    let gb_s = |s: Stats| s.rate(KERNEL_BUF_BYTES as f64) / 1e9;
    let host_parallelism = mccp_sdr::host_parallelism();
    let aes_arm = if mccp_aes::aesni::supported() {
        "aesni"
    } else {
        "ttable"
    };
    println!(
        "bench_kernels{}: host parallelism {host_parallelism}, AES arm {aes_arm}",
        if quick { " (--quick)" } else { "" }
    );

    let mut buf = vec![0u8; KERNEL_BUF_BYTES];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(31).wrapping_add(7);
    }

    // --- GHASH: serial Horner vs 8-block H-power folding -----------------
    let h = Gf128::from_bytes(&[0xB8; 16]);
    let key = GhashKey::new(h);
    let powers = GhashPowers::new(h);
    let ghash_arm = powers.arm();
    assert_eq!(
        ghash(&key, &[], &buf),
        ghash_batched(&powers, &[], &buf),
        "batched GHASH must agree with the serial arm"
    );
    let ghash_scalar_gb_s = gb_s(sampler.run(|| ghash(black_box(&key), &[], black_box(&buf))));
    let ghash_batched_gb_s =
        gb_s(sampler.run(|| ghash_batched(black_box(&powers), &[], black_box(&buf))));
    let ghash_speedup = ghash_batched_gb_s / ghash_scalar_gb_s;
    println!(
        "  GHASH {KERNEL_BUF_BYTES} B: scalar {ghash_scalar_gb_s:.3} GB/s, \
         batched ({ghash_arm}) {ghash_batched_gb_s:.3} GB/s ({ghash_speedup:.2}x)"
    );
    if ghash_arm == "clmul" {
        assert!(
            ghash_speedup >= MIN_CLMUL_GHASH_SPEEDUP,
            "CLMUL GHASH must be >= {MIN_CLMUL_GHASH_SPEEDUP}x the serial Shoup arm, \
             got {ghash_speedup:.2}x"
        );
    }

    // --- AES-CTR keystream: per-block vs 4-wide interleaved --------------
    let aes = Aes::new(&[0x42; 16]);
    let counter = [0xA5u8; 16];
    let mut scalar_out = buf.clone();
    ctr_xcrypt_scalar(&aes, &counter, &mut scalar_out).unwrap();
    let mut batched_out = buf.clone();
    ctr_xcrypt(&aes, &counter, &mut batched_out).unwrap();
    assert_eq!(
        scalar_out, batched_out,
        "batched CTR must agree with scalar"
    );
    let mut work = buf.clone();
    let ctr_scalar_gb_s =
        gb_s(sampler.run(|| ctr_xcrypt_scalar(&aes, &counter, black_box(&mut work)).unwrap()));
    let ctr_batched_gb_s =
        gb_s(sampler.run(|| ctr_xcrypt(&aes, &counter, black_box(&mut work)).unwrap()));
    println!(
        "  AES-CTR {KERNEL_BUF_BYTES} B: scalar {ctr_scalar_gb_s:.3} GB/s, \
         batched {ctr_batched_gb_s:.3} GB/s ({:.2}x)",
        ctr_batched_gb_s / ctr_scalar_gb_s
    );

    // --- GCM 512 B packets: pre-batching path vs warm context ------------
    let iv = [0x11u8; 12];
    let aad = [0x22u8; PACKET_AAD_BYTES];
    let payload = vec![0xC3u8; PACKET_PAYLOAD_BYTES];
    let ctx = GcmContext::new(aes.clone());
    assert_eq!(
        gcm_seal_scalar(&aes, &iv, &aad, &payload, 16).unwrap(),
        ctx.seal(&iv, &aad, &payload, 16).unwrap(),
        "warm-context seal must be byte-identical to the pre-batching path"
    );
    let gcm_scalar_pps = sampler
        .run(|| gcm_seal_scalar(&aes, &iv, &aad, black_box(&payload), 16).unwrap())
        .rate(1.0);
    let mut out = Vec::with_capacity(PACKET_PAYLOAD_BYTES + 16);
    let gcm_batched_pps = sampler
        .run(|| {
            ctx.seal_into(&iv, &aad, black_box(&payload), 16, &mut out)
                .unwrap();
            black_box(&out);
        })
        .rate(1.0);
    let gcm_speedup = gcm_batched_pps / gcm_scalar_pps;
    let two_pass = GcmContext::new(TwoPassGcm(&aes));
    let mut two_pass_out = Vec::new();
    two_pass
        .seal_into(&iv, &aad, &payload, 16, &mut two_pass_out)
        .unwrap();
    assert_eq!(
        two_pass_out,
        ctx.seal(&iv, &aad, &payload, 16).unwrap(),
        "two-pass GCM seal must be byte-identical to the warm context"
    );
    let gcm_two_pass_pps = sampler
        .run(|| {
            two_pass
                .seal_into(&iv, &aad, black_box(&payload), 16, &mut out)
                .unwrap();
            black_box(&out);
        })
        .rate(1.0);
    let gcm_stitch_speedup = gcm_batched_pps / gcm_two_pass_pps;
    let gcm_arm = if mccp_aes::aesni::gcm_supported() && ghash_arm == "clmul" {
        "stitched"
    } else {
        "two-pass"
    };
    println!(
        "  GCM {PACKET_PAYLOAD_BYTES} B packets: scalar {gcm_scalar_pps:.0}/s, \
         two-pass {gcm_two_pass_pps:.0}/s, batched ({gcm_arm}) {gcm_batched_pps:.0}/s \
         ({gcm_speedup:.2}x scalar, {gcm_stitch_speedup:.2}x two-pass)"
    );
    assert!(
        gcm_speedup >= 4.0,
        "batched 512 B GCM must be >= 4x the serial path, got {gcm_speedup:.2}x"
    );
    if gcm_arm == "stitched" {
        assert!(
            gcm_stitch_speedup >= MIN_STITCHED_GCM_SPEEDUP,
            "stitched 512 B GCM must be >= {MIN_STITCHED_GCM_SPEEDUP}x the two-pass kernel, \
             got {gcm_stitch_speedup:.2}x"
        );
    }

    // --- CCM 512 B packets: serial pass vs stitched pass -----------------
    let ccm = CcmParams {
        nonce_len: 13,
        tag_len: 8,
    };
    let nonce = [0x33u8; 13];
    let serial = SerialCcm(&aes);
    let ccm_seal = |cipher: &dyn BlockCipher128, out: &mut Vec<u8>| {
        ccm_seal_into(&cipher, &ccm, &nonce, &aad, black_box(&payload), out).unwrap();
    };
    let (mut serial_out, mut stitched_out) = (Vec::new(), Vec::new());
    ccm_seal(&serial, &mut serial_out);
    ccm_seal(&aes, &mut stitched_out);
    assert_eq!(
        serial_out, stitched_out,
        "stitched CCM seal must be byte-identical to the serial pass"
    );
    let ccm_serial_pps = sampler
        .run(|| {
            ccm_seal(&serial, &mut out);
            black_box(&out);
        })
        .rate(1.0);
    let ccm_stitched_pps = sampler
        .run(|| {
            ccm_seal(&aes, &mut out);
            black_box(&out);
        })
        .rate(1.0);
    let ccm_speedup = ccm_stitched_pps / ccm_serial_pps;
    println!(
        "  CCM {PACKET_PAYLOAD_BYTES} B packets: serial {ccm_serial_pps:.0}/s, \
         stitched {ccm_stitched_pps:.0}/s ({ccm_speedup:.2}x)"
    );
    if aes_arm == "aesni" {
        assert!(
            ccm_speedup >= MIN_AESNI_CCM_SPEEDUP,
            "stitched 512 B CCM must be >= {MIN_AESNI_CCM_SPEEDUP}x the serial pass, \
             got {ccm_speedup:.2}x"
        );
    }

    for (label, measured, floor) in [
        (
            "GHASH batched GB/s",
            ghash_batched_gb_s,
            FLOOR_GHASH_BATCHED_GB_S,
        ),
        ("CTR batched GB/s", ctr_batched_gb_s, FLOOR_CTR_BATCHED_GB_S),
        (
            "GCM 512B batched packets/s",
            gcm_batched_pps,
            FLOOR_GCM512_BATCHED_PACKETS_PER_SEC,
        ),
        (
            "CCM 512B stitched packets/s",
            ccm_stitched_pps,
            FLOOR_CCM512_STITCHED_PACKETS_PER_SEC,
        ),
    ] {
        assert!(
            measured >= floor,
            "{label} = {measured:.4} fell below its regression floor {floor:.4}"
        );
    }

    let json = format!(
        "{{\n  \"benchmark\": \"functional_kernels\",\n  \
         \"host_parallelism\": {host_parallelism},\n  \
         \"samples\": {},\n  \
         \"kernel_buf_bytes\": {KERNEL_BUF_BYTES},\n  \
         \"aes_arm\": \"{aes_arm}\",\n  \
         \"ghash_arm\": \"{ghash_arm}\",\n  \
         \"ghash_scalar_gb_s\": {ghash_scalar_gb_s:.4},\n  \
         \"ghash_batched_gb_s\": {ghash_batched_gb_s:.4},\n  \
         \"ghash_speedup\": {ghash_speedup:.2},\n  \
         \"ctr_scalar_gb_s\": {ctr_scalar_gb_s:.4},\n  \
         \"ctr_batched_gb_s\": {ctr_batched_gb_s:.4},\n  \
         \"ctr_speedup\": {:.2},\n  \
         \"gcm_payload_bytes\": {PACKET_PAYLOAD_BYTES},\n  \
         \"gcm_aad_bytes\": {PACKET_AAD_BYTES},\n  \
         \"gcm512_scalar_packets_per_sec\": {gcm_scalar_pps:.0},\n  \
         \"gcm512_batched_packets_per_sec\": {gcm_batched_pps:.0},\n  \
         \"gcm512_packet_speedup\": {gcm_speedup:.2},\n  \
         \"gcm_arm\": \"{gcm_arm}\",\n  \
         \"gcm512_two_pass_packets_per_sec\": {gcm_two_pass_pps:.0},\n  \
         \"gcm512_stitch_speedup\": {gcm_stitch_speedup:.2},\n  \
         \"ccm512_serial_packets_per_sec\": {ccm_serial_pps:.0},\n  \
         \"ccm512_stitched_packets_per_sec\": {ccm_stitched_pps:.0},\n  \
         \"ccm512_stitch_speedup\": {ccm_speedup:.2},\n  \
         \"floor_ghash_batched_gb_s\": {FLOOR_GHASH_BATCHED_GB_S},\n  \
         \"floor_ctr_batched_gb_s\": {FLOOR_CTR_BATCHED_GB_S},\n  \
         \"floor_gcm512_batched_packets_per_sec\": {FLOOR_GCM512_BATCHED_PACKETS_PER_SEC},\n  \
         \"floor_ccm512_stitched_packets_per_sec\": {FLOOR_CCM512_STITCHED_PACKETS_PER_SEC},\n  \
         \"note\": \"every rate is the median of `samples` harness samples; aes_arm is the \
         AES the CPU selected (aesni: AES-NI for single blocks, 4-wide batches, the stitched \
         CCM pass and, with PCLMULQDQ, the stitched GCM pass; ttable: software T-tables); \
         scalar arms are the serial kernels, one encrypt_block per keystream block, with a \
         per-call hash subkey and serial GHASH on the GCM path; gcm_arm is the kernel the warm \
         GCM context (the batched arm) ran (stitched: the one-pass AES-NI + PCLMULQDQ override; \
         two-pass: the trait default), the two-pass arm is a warm context over AES seen only \
         through encrypt_block and encrypt_blocks4 (the stitched arm is gated at >= 1.1x it); \
         the CCM serial arm is the trait's default pass over encrypt_block alone and the \
         stitched arm the one-pass AES-NI override (gated at >= 1.5x the serial arm on \
         aesni); ghash_arm is the batched arm the CPU selected (clmul: PCLMULQDQ, gated at >= \
         8x the scalar arm; table: Shoup tables); packet arms seal 512 B with 16 B of AAD; \
         floors are deliberate underestimates that bench_kernels checks the batched and \
         stitched medians against on every run, --quick included\"\n}}\n",
        sampler.samples,
        ctr_batched_gb_s / ctr_scalar_gb_s,
    );
    BenchFile("BENCH_functional_kernels.json").record(&json, !quick);
    print!("{json}");
    println!(
        "bench_kernels PASSED: 512 B GCM speedup {gcm_speedup:.2}x (>= 4x required), \
         GCM stitch {gcm_stitch_speedup:.2}x, CCM stitch {ccm_speedup:.2}x"
    );
}
