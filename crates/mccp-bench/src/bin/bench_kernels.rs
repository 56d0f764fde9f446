//! Functional-kernel microbenchmarks: scalar vs block-batched arms of the
//! three kernels the packet path spends its time in, emitted as
//! `BENCH_functional_kernels.json`.
//!
//! - **GHASH** — serial Shoup-table Horner loop vs 8-block folding over
//!   precomputed H-powers ([`GhashPowers`]), GB/s over an 8 KiB buffer.
//!   The batched arm is whichever the CPU selects (`ghash_arm`: `clmul`
//!   with PCLMULQDQ, else `table`); on a `clmul` host it must run at
//!   least 8x the serial arm.
//! - **AES-CTR** — one `encrypt_block` per counter vs the 4-wide
//!   interleaved T-table keystream, GB/s over an 8 KiB buffer.
//! - **GCM packets** — the exact pre-batching seal path (per-call hash
//!   subkey + serial GHASH + per-block keystream) vs a warm
//!   [`GcmContext`] reused across packets with `seal_into`, packets/s at
//!   the 512 B reference payload.
//!
//! The `floor_*` fields are conservative regression floors (well under
//! half of what this class of host measures); `bench_cluster --quick`
//! re-measures the batched arms and fails if they drop below a floor. The
//! ratio gates (GCM ≥ 4x, CLMUL GHASH ≥ 8x) compare two arms on the same
//! host, so they hold across machines.
//!
//! ```sh
//! cargo run --release -p mccp-bench --bin bench_kernels [-- --quick]
//! ```

use mccp_aes::modes::{ctr_xcrypt, ctr_xcrypt_scalar, gcm_seal_scalar, GcmContext};
use mccp_aes::Aes;
use mccp_gf128::{ghash, ghash_batched, Gf128, GhashKey, GhashPowers};
use std::hint::black_box;
use std::time::Instant;

const KERNEL_BUF_BYTES: usize = 8192;
const GCM_PAYLOAD_BYTES: usize = 512;
const GCM_AAD_BYTES: usize = 16;

// Regression floors for the batched arms. Deliberately far below the
// measured numbers (see BENCH_functional_kernels.json) so only a real
// kernel regression — not host noise — trips the perf smoke check.
const FLOOR_GHASH_BATCHED_GB_S: f64 = 0.04;
const FLOOR_CTR_BATCHED_GB_S: f64 = 0.04;
const FLOOR_GCM512_BATCHED_PACKETS_PER_SEC: f64 = 4000.0;

/// Batched GHASH over the serial Shoup arm, required when the batched arm
/// runs on PCLMULQDQ (the table arm reads about 1.75x and is not gated).
const MIN_CLMUL_GHASH_SPEEDUP: f64 = 8.0;

/// Calls `f` repeatedly until at least `target_secs` of wall clock has
/// been sampled and returns the measured calls per second.
fn calls_per_sec(target_secs: f64, mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= target_secs || iters >= (1 << 30) {
            return iters as f64 / dt.max(1e-12);
        }
        let scale = ((target_secs / dt.max(1e-9)) * 1.25).ceil().max(2.0) as u64;
        iters = iters.saturating_mul(scale).min(1 << 30);
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let target = if quick { 0.08 } else { 0.4 };
    let host_parallelism = mccp_sdr::host_parallelism();
    println!(
        "bench_kernels{}: host parallelism {host_parallelism}",
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
    let ghash_scalar_gb_s = calls_per_sec(target, || {
        black_box(ghash(black_box(&key), &[], black_box(&buf)));
    }) * KERNEL_BUF_BYTES as f64
        / 1e9;
    let ghash_batched_gb_s = calls_per_sec(target, || {
        black_box(ghash_batched(black_box(&powers), &[], black_box(&buf)));
    }) * KERNEL_BUF_BYTES as f64
        / 1e9;
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
    let ctr_scalar_gb_s = calls_per_sec(target, || {
        ctr_xcrypt_scalar(&aes, &counter, black_box(&mut work)).unwrap();
    }) * KERNEL_BUF_BYTES as f64
        / 1e9;
    let ctr_batched_gb_s = calls_per_sec(target, || {
        ctr_xcrypt(&aes, &counter, black_box(&mut work)).unwrap();
    }) * KERNEL_BUF_BYTES as f64
        / 1e9;
    println!(
        "  AES-CTR {KERNEL_BUF_BYTES} B: scalar {ctr_scalar_gb_s:.3} GB/s, \
         batched {ctr_batched_gb_s:.3} GB/s ({:.2}x)",
        ctr_batched_gb_s / ctr_scalar_gb_s
    );

    // --- GCM 512 B packets: pre-batching path vs warm context ------------
    let iv = [0x11u8; 12];
    let aad = [0x22u8; GCM_AAD_BYTES];
    let payload = vec![0xC3u8; GCM_PAYLOAD_BYTES];
    let ctx = GcmContext::new(aes.clone());
    assert_eq!(
        gcm_seal_scalar(&aes, &iv, &aad, &payload, 16).unwrap(),
        ctx.seal(&iv, &aad, &payload, 16).unwrap(),
        "warm-context seal must be byte-identical to the pre-batching path"
    );
    let gcm_scalar_pps = calls_per_sec(target, || {
        black_box(gcm_seal_scalar(&aes, &iv, &aad, black_box(&payload), 16).unwrap());
    });
    let mut out = Vec::with_capacity(GCM_PAYLOAD_BYTES + 16);
    let gcm_batched_pps = calls_per_sec(target, || {
        ctx.seal_into(&iv, &aad, black_box(&payload), 16, &mut out)
            .unwrap();
        black_box(&out);
    });
    let gcm_speedup = gcm_batched_pps / gcm_scalar_pps;
    println!(
        "  GCM {GCM_PAYLOAD_BYTES} B packets: scalar {gcm_scalar_pps:.0}/s, \
         batched {gcm_batched_pps:.0}/s ({gcm_speedup:.2}x)"
    );
    assert!(
        gcm_speedup >= 4.0,
        "batched 512 B GCM must be >= 4x the pre-batching path, got {gcm_speedup:.2}x"
    );

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
    ] {
        assert!(
            measured >= floor,
            "{label} = {measured:.4} fell below its regression floor {floor:.4}"
        );
    }

    let json = format!(
        "{{\n  \"benchmark\": \"functional_kernels\",\n  \
         \"host_parallelism\": {host_parallelism},\n  \
         \"kernel_buf_bytes\": {KERNEL_BUF_BYTES},\n  \
         \"ghash_arm\": \"{ghash_arm}\",\n  \
         \"ghash_scalar_gb_s\": {ghash_scalar_gb_s:.4},\n  \
         \"ghash_batched_gb_s\": {ghash_batched_gb_s:.4},\n  \
         \"ghash_speedup\": {ghash_speedup:.2},\n  \
         \"ctr_scalar_gb_s\": {ctr_scalar_gb_s:.4},\n  \
         \"ctr_batched_gb_s\": {ctr_batched_gb_s:.4},\n  \
         \"ctr_speedup\": {:.2},\n  \
         \"gcm_payload_bytes\": {GCM_PAYLOAD_BYTES},\n  \
         \"gcm_aad_bytes\": {GCM_AAD_BYTES},\n  \
         \"gcm512_scalar_packets_per_sec\": {gcm_scalar_pps:.0},\n  \
         \"gcm512_batched_packets_per_sec\": {gcm_batched_pps:.0},\n  \
         \"gcm512_packet_speedup\": {gcm_speedup:.2},\n  \
         \"floor_ghash_batched_gb_s\": {FLOOR_GHASH_BATCHED_GB_S},\n  \
         \"floor_ctr_batched_gb_s\": {FLOOR_CTR_BATCHED_GB_S},\n  \
         \"floor_gcm512_batched_packets_per_sec\": {FLOOR_GCM512_BATCHED_PACKETS_PER_SEC},\n  \
         \"note\": \"scalar arms are the exact pre-batching kernels (per-call hash subkey on \
         the GCM path); ghash_arm is the batched arm the CPU selected (clmul: PCLMULQDQ, \
         gated at >= 8x the scalar arm; table: Shoup tables); floors are deliberate \
         underestimates consumed by bench_cluster --quick as regression tripwires\"\n}}\n",
        ctr_batched_gb_s / ctr_scalar_gb_s,
    );
    if quick {
        println!("--quick: floors checked, not rewriting BENCH_functional_kernels.json");
    } else {
        std::fs::write("BENCH_functional_kernels.json", &json).expect("write BENCH json");
    }
    print!("{json}");
    println!("bench_kernels PASSED: 512 B GCM speedup {gcm_speedup:.2}x (>= 4x required)");
}
