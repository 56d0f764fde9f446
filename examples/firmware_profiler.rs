//! Profiles the GCM firmware on a live Cryptographic Core — the analysis
//! behind the paper's Listing 1 scheduling: which instructions form the
//! hot loop, how many controller cycles per iteration, and how much time
//! the controller spends asleep waiting on the Cryptographic Unit.
//!
//! ```sh
//! cargo run --release --example firmware_profiler
//! ```

use mccp::core::core_unit::CryptoCore;
use mccp::core::firmware::{FirmwareId, FirmwareLibrary};
use mccp::core::format::{format_request, Direction};
use mccp::core::protocol::Algorithm;
use mccp::picoblaze::isa::Instruction;

fn main() {
    // Build one core and a formatted 2 KB GCM packet for it.
    let lib = FirmwareLibrary::shared();
    // Deep FIFO so the whole formatted stream (J0 + AAD + 128 blocks + LEN
    // + margin) is resident up front; the MCCP proper streams it instead.
    let mut core = CryptoCore::new(0, 1024);
    let key = [0x42u8; 16];
    core.load_round_keys(mccp::aes::RoundKeys::expand(&key));

    let payload = vec![0xA5u8; 2048];
    let fmt = format_request(
        Algorithm::AesGcm128,
        Direction::Encrypt,
        false,
        &[7u8; 12],
        b"hdr-bytes",
        &payload,
        None,
        16,
    )
    .expect("formats");
    let job = &fmt.jobs[0];
    assert!(core.input.push_bytes(&job.stream));
    core.start(job.firmware, job.params);

    // Run to completion, sampling the controller every cycle.
    let mut counts = vec![0u64; 1024];
    let mut sleep_cycles = 0u64;
    let mut total = 0u64;
    let (mut left, mut right) = (None, None);
    let mut retired_before = core.controller_retired();
    while core.result().is_none() {
        let pc = core.controller_pc();
        let was_sleeping = core.controller_sleeping();
        core.tick(&mut left, &mut right);
        total += 1;
        if was_sleeping && core.controller_sleeping() {
            sleep_cycles += 1;
        }
        let retired = core.controller_retired();
        if retired > retired_before {
            counts[pc as usize] += retired - retired_before;
            retired_before = retired;
        }
        // Drain the output so STORE never stalls.
        while core.output.pop().is_some() {}
        assert!(total < 10_000_000, "wedged");
    }
    assert!(!core.is_faulted());

    println!("GCM-128 encrypt, 2 KB packet on one Cryptographic Core\n");
    println!("total cycles:      {total}");
    println!(
        "controller asleep: {sleep_cycles} ({:.1}% — waiting on the CU, the sign of a",
        sleep_cycles as f64 / total as f64 * 100.0
    );
    println!("                   well-scheduled loop: the CU, not the controller, is busy)\n");

    // Hot-loop report.
    let image = lib.image(FirmwareId::GcmEnc);
    let mut ranked: Vec<(usize, u64)> = counts
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, c)| *c > 0)
        .collect();
    ranked.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    println!("hottest instructions (the Listing-1 loop body):");
    println!("{:>7} {:>10}   instruction", "addr", "count");
    for (addr, count) in ranked.iter().take(12) {
        let text = Instruction::decode(image[*addr])
            .map(|i| i.to_string())
            .unwrap_or_else(|| "<illegal>".into());
        println!("  0x{addr:03X} {count:>10}   {text}");
    }
    let hot = ranked.first().map(|&(_, c)| c).unwrap_or(0);
    println!("\n{hot} iterations ≈ 128 payload blocks — the loop executes once per");
    println!(
        "128-bit block and sustains the paper's 49-cycle budget ({} cycles",
        total
    );
    println!("≈ 128 × 49 + pre/post overhead).");
}
