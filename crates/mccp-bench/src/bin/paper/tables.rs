//! Tables I–IV, the §VII loop budgets and the Figs. 1–3 area report.

use crate::rig::{algorithm_for, measure_schedule, warm_packet_cycles};
use crate::KEYS;
use mccp_aes::KeySize;
use mccp_baselines::table3::Table3;
use mccp_core::core_unit::Personality;
use mccp_core::model::{theoretical_mbps, Schedule, PAPER_OUR_WORK, PAPER_TABLE2};
use mccp_core::protocol::CipherSel;
use mccp_core::reconfig::{
    BitstreamSource, PolicyConfig, AES_BITSTREAM, REGION, WHIRLPOOL_BITSTREAM,
};
use mccp_core::{Mccp, MccpConfig};
use mccp_cryptounit::timing::{GHASH_CYCLES, T_FINALIZE, T_FOREGROUND, T_SAMPLE};
use mccp_cryptounit::CuInstruction;
use mccp_sim::resources::{ResourceReport, Virtex4Sx35};

/// Table I — the Cryptographic Unit instruction set, with the timing
/// behaviour each instruction exhibits in the cycle-accurate model.
pub fn table1_isa() {
    println!("Table I — The Cryptographic Unit ISA");
    println!("(4-bit opcode, two 2-bit bank-register addresses; 8-bit instructions)\n");
    println!(
        "{:<12} {:<10} {:<10} Description",
        "Instruction", "Encoding", "Cycles"
    );
    let rows: Vec<(CuInstruction, &str)> = vec![
        (
            CuInstruction::Load { a: 0 },
            "Loads a 128-bit word from the input FIFO into @A",
        ),
        (
            CuInstruction::Store { a: 0 },
            "Stores @A into the output FIFO (Listing 1)",
        ),
        (
            CuInstruction::LoadH { a: 0 },
            "Loads the computed H constant into the GHASH core",
        ),
        (
            CuInstruction::Sgfm { a: 0 },
            "Starts one GHASH iteration in the background",
        ),
        (
            CuInstruction::Fgfm { a: 0 },
            "Stores the GHASH result into @A (waits for the core)",
        ),
        (
            CuInstruction::Saes { a: 0 },
            "Starts AES encryption of @A in the background",
        ),
        (
            CuInstruction::Faes { a: 0 },
            "Stores the AES result into @A (waits for the core)",
        ),
        (
            CuInstruction::Inc { a: 0, amount: 1 },
            "Increments the 16 LSBs of @A by I (1..4)",
        ),
        (CuInstruction::Xor { a: 0, b: 1 }, "B = (A XOR B) AND mask"),
        (
            CuInstruction::Equ { a: 0, b: 1 },
            "Sets equ_flag to 1 if A = B",
        ),
        (
            CuInstruction::Xput { a: 0 },
            "Sends @A over the inter-core port (our realization)",
        ),
        (
            CuInstruction::Xget { a: 0 },
            "Receives a word from the inter-core port (ours)",
        ),
    ];
    for (ins, desc) in rows {
        let cycles = match ins {
            CuInstruction::Faes { .. } => format!("AES+{T_FINALIZE}"),
            CuInstruction::Fgfm { .. } => format!("GHASH+{T_FINALIZE}"),
            _ => format!("{}", T_SAMPLE + T_FOREGROUND),
        };
        println!(
            "{:<12} 0x{:02X}       {:<10} {}",
            ins.to_string(),
            ins.encode(),
            cycles,
            desc
        );
    }
    println!();
    println!("Background engines: AES = 44/52/60 cycles (key 128/192/256),");
    println!("GHASH digit-serial = {GHASH_CYCLES} cycles (3-bit digits).");
    println!(
        "Fixed-time instructions: {} cycle sampling + {} execute = the paper's 7;",
        T_SAMPLE, T_FOREGROUND
    );
    println!("completion-edge acceptance skips the sampling cycle (the NOP trick).");
}

/// §VII loop-cycle equations: measures the steady-state cycles per
/// 128-bit block of every mode loop from the cycle-accurate simulator
/// (firmware + CU + controller) and compares against the paper's
/// closed-form budgets (49 / 55 / 104, +8 per step of key size).
pub fn loop_cycles() {
    println!("Mode-loop cycle budgets: paper equations vs cycle-accurate measurement\n");
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>10}",
        "Loop", "key", "paper", "measured", "delta"
    );
    let loops = [
        ("GCM (= CTR)", Schedule::Gcm1Core),
        ("CCM 1 core", Schedule::Ccm1Core),
        ("CCM 2 cores (CBC)", Schedule::Ccm2Core),
    ];
    let mut worst: f64 = 0.0;
    for (name, schedule) in loops {
        for key in KEYS {
            let paper = schedule.loop_cycles(key) as f64;
            let measured = block_cycles(schedule, key);
            let delta = measured - paper;
            worst = worst.max(delta.abs());
            println!(
                "{:<22} {:>8} {:>8.0} {:>8.2} {:>+10.2}",
                name,
                key.key_bits(),
                paper,
                measured,
                delta
            );
        }
    }
    println!("\nworst |delta| = {worst:.2} cycles/block");
    println!("(paper §VII: T_GCMloop = T_SAES+T_FAES = 49; T_CCM,2cores = 55;");
    println!(" T_CCM,1core = T_CTR+T_CBC = 104; +8 for 192-bit keys, +16 for 256.)");
}

/// Steady-state cycles per block of `schedule`'s mode loop: one packet of
/// N blocks and one of 2N blocks, each on a fresh MCCP; the pre/post-loop
/// overheads cancel exactly in the difference.
fn block_cycles(schedule: Schedule, key: KeySize) -> f64 {
    const N: usize = 48;
    let packet = |blocks: usize| {
        let m = Mccp::new(MccpConfig {
            ccm_two_core: schedule == Schedule::Ccm2Core,
            ..MccpConfig::default()
        });
        let alg = algorithm_for(schedule, key);
        warm_packet_cycles(m, alg, CipherSel::Aes, 0, blocks * 16)
    };
    (packet(2 * N) - packet(N)) as f64 / N as f64
}

/// Table II — MCCP encryption throughputs at 190 MHz.
///
/// For every (schedule × key size) cell: the analytical theoretical value
/// (which must equal the paper's), the paper's measured 2 KB value, and
/// our cycle-accurate simulator's measured 2 KB value. Absolute measured
/// numbers differ from the paper's by the pre/post-loop overhead of the
/// (unpublished) original firmware; the loop-bound shape must match.
pub fn table2_throughput() {
    println!("Table II — MCCP encryption throughputs at 190 MHz (Mbps)");
    println!("packet = 2 KB; theoretical / paper-2KB / reproduced-2KB\n");
    print!("{:<10}", "Key");
    for s in Schedule::ALL {
        print!("{:>24}", s.label());
    }
    println!();

    let mut max_measured: f64 = 0.0;
    for (row_idx, key) in KEYS.iter().enumerate() {
        print!("{:<10}", key.key_bits());
        for (col, s) in Schedule::ALL.iter().enumerate() {
            let theo = theoretical_mbps(*s, *key);
            let paper_theo = PAPER_TABLE2[row_idx].entries[col].0;
            let paper_2kb = PAPER_TABLE2[row_idx].entries[col].1;
            assert_eq!(
                theo, paper_theo,
                "analytical model must reproduce the paper's theoretical column"
            );
            let measured = measure_schedule(*s, *key, 2048);
            max_measured = max_measured.max(measured.mbps);
            print!("{:>24}", format!("{theo}/{paper_2kb}/{:.0}", measured.mbps));
        }
        println!();
    }

    println!("\nHeadline: paper abstract claims 1.7 Gbps max (GCM-128 4x1).");
    println!("Reproduced maximum measured aggregate: {max_measured:.0} Mbps");
    assert!(max_measured >= 1700.0, "headline claim must reproduce");
    println!("=> the 1.7 Gbps claim REPRODUCES.");

    println!("\nShape checks:");
    println!("  - GCM > CCM at equal resources (no serial MAC on the critical path)");
    println!("  - CCM 4x1 > CCM 2x2 aggregate throughput (paper §VII.A)");
    for key in KEYS {
        let c4 = measure_schedule(Schedule::Ccm4x1, key, 2048).mbps;
        let c22 = measure_schedule(Schedule::Ccm2x2, key, 2048).mbps;
        assert!(c4 > c22, "{key:?}: 4x1 {c4} vs 2x2 {c22}");
        println!(
            "    AES-{}: 4x1 = {:.0} Mbps > 2x2 = {:.0} Mbps  OK",
            key.key_bits(),
            c4,
            c22
        );
    }
}

/// Table III — performance comparison against the literature.
///
/// Literature ASIC rows use their published Mbps/MHz figures (we cannot
/// re-synthesize closed ASICs); the pipelined-GCM and dual-CCM FPGA
/// baselines and the MCCP rows are regenerated from executable models.
pub fn table3_comparison() {
    let gcm = measure_schedule(Schedule::Gcm4x1, KeySize::Aes128, 2048);
    let ccm = measure_schedule(Schedule::Ccm4x1, KeySize::Aes128, 2048);
    let table = Table3::build(gcm.mbps, ccm.mbps);

    println!("Table III — Performance comparison");
    println!(
        "{:<32} {:<16} {:<6} {:<6} {:>10} {:>8} {:>14}",
        "Implementation", "Platform", "Prog.", "Alg.", "Mbps/MHz", "MHz", "Slices (BRAM)"
    );
    for row in &table.rows {
        let area = match (row.slices, row.brams) {
            (Some(s), Some(b)) => format!("{s} ({b})"),
            _ => "—".to_string(),
        };
        println!(
            "{:<32} {:<16} {:<6} {:<6} {:>10.2} {:>8} {:>14}",
            row.name,
            row.platform,
            if row.programmable { "Yes" } else { "No" },
            row.algorithm,
            row.mbps_per_mhz,
            row.frequency_mhz,
            area
        );
    }

    println!(
        "\nPaper's own row: GCM {:.2} / CCM {:.2} Mbps/MHz; reproduced: GCM {:.2} / CCM {:.2}",
        PAPER_OUR_WORK.0,
        PAPER_OUR_WORK.1,
        gcm.mbps / 190.0,
        ccm.mbps / 190.0
    );

    assert!(table.shape_holds(), "Table III ordering must reproduce");
    println!("\nShape check PASSES: pipelined GCM > MCCP > every programmable design,");
    println!("while the MCCP remains the only architecture covering all modes + channels.");
}

/// Table IV — partial reconfiguration results: bitstream sizes and
/// reconfiguration times for the AES and Whirlpool Cryptographic Unit
/// configurations, from CompactFlash and from RAM.
///
/// The load latencies are charged through the demand-policy swap path
/// ([`Mccp::policy_swap`]) — the same accounting every policy-driven
/// personality flip uses — and cross-checked against the bitstreams'
/// published budgets, so the table reports what the engine actually
/// charges.
pub fn table4_reconfig() {
    println!("Table IV — Partial reconfiguration results");
    println!(
        "(reconfigurable region: {} slices, {} BRAM)\n",
        REGION.slices, REGION.brams
    );
    println!(
        "{:<28} {:>18} {:>12}",
        "Core", "AES Encryption (KS)", "Whirlpool"
    );
    println!(
        "{:<28} {:>18} {:>12}",
        "Slices (BRAM)",
        format!(
            "{} ({})",
            AES_BITSTREAM.resources.slices, AES_BITSTREAM.resources.brams
        ),
        format!(
            "{} ({})",
            WHIRLPOOL_BITSTREAM.resources.slices, WHIRLPOOL_BITSTREAM.resources.brams
        )
    );
    println!(
        "{:<28} {:>18} {:>12}",
        "Bitstream Size (kB)", AES_BITSTREAM.size_kb, WHIRLPOOL_BITSTREAM.size_kb
    );
    for (label, src, paper) in [
        (
            "Reconf. time, CF (ms)",
            BitstreamSource::CompactFlash,
            (380.0, 416.0),
        ),
        ("Reconf. time, RAM (ms)", BitstreamSource::Ram, (63.0, 69.0)),
    ] {
        let aes = AES_BITSTREAM.load_time_ms(src);
        let wp = WHIRLPOOL_BITSTREAM.load_time_ms(src);
        println!(
            "{:<28} {:>18} {:>12}   (paper: {} / {})",
            label,
            format!("{aes:.0}"),
            format!("{wp:.0}"),
            paper.0,
            paper.1
        );
        assert!((aes - paper.0).abs() / paper.0 < 0.02);
        assert!((wp - paper.1).abs() / paper.1 < 0.02);
        // The policy engine must charge exactly these budgets when it
        // flips a core — Table IV is what swaps actually cost.
        let (aes_cycles, wp_cycles) = charge_swaps(src);
        assert_eq!(aes_cycles, AES_BITSTREAM.load_time_cycles(src));
        assert_eq!(wp_cycles, WHIRLPOOL_BITSTREAM.load_time_cycles(src));
    }

    let cycles = AES_BITSTREAM.load_time_cycles(BitstreamSource::Ram);
    let packet = 128u64 * 49;
    println!("\nInterpretation (paper §VII.B):");
    println!(
        "  RAM reconfiguration = {cycles} cycles at 190 MHz ≈ {} 2 KB GCM packets;",
        cycles / packet
    );
    println!("  => no real-time (per-packet) reconfiguration, but occasional");
    println!("  algorithm swaps are practical, and the other cores keep running.");
    println!("  Bitstream caching in RAM is ~6x faster than CompactFlash.");
}

/// Charges one AES and one Whirlpool personality load through the policy
/// engine's swap path, returning the (aes, whirlpool) cycle budgets.
fn charge_swaps(source: BitstreamSource) -> (u64, u64) {
    let mut m = Mccp::new(MccpConfig::default());
    m.enable_reconfig_policy(PolicyConfig {
        source,
        ..PolicyConfig::default()
    });
    // Core 0 starts as an AES unit: make the AES load a real flip.
    m.core_mut(0).set_personality(Personality::WhirlpoolUnit);
    let aes = m.policy_swap(0, Personality::AesUnit).unwrap();
    let wp = m.policy_swap(1, Personality::WhirlpoolUnit).unwrap();
    assert_eq!(m.policy().unwrap().swaps(), 2);
    (aes, wp)
}

/// Figures 1–3 — the architecture, as a component inventory with the area
/// budget that reproduces the paper's synthesis result (4084 slices /
/// 26 BRAM on the Virtex-4 SX35).
pub fn architecture_report() {
    println!("MCCP architecture report (Figs. 1-3 as an inventory)\n");

    println!("Fig. 1 — top level:");
    println!("  Task Scheduler (8-bit controller) -> Instruction/Return registers");
    println!("  Cross Bar: communication controller <-> per-core FIFO pairs");
    println!("  Key Memory (write-protected) -> Key Scheduler -> per-core Key Caches");
    println!("  4 x Cryptographic Core, ring of inter-core ports\n");

    println!("Fig. 2 — one Cryptographic Core:");
    println!("  8-bit controller (PicoBlaze-class, 2 cycles/instr, custom HALT)");
    println!("  shared dual-port 1024x18 instruction memory per core pair");
    println!("  input FIFO 512x32, output FIFO 512x32, 4x32 shift register");
    println!("  Key Cache; inter-core ports left/right\n");

    println!("Fig. 3 — the Cryptographic Unit:");
    println!("  4x128-bit bank register, 2-bit sub-word counter, S register");
    println!("  decoder; AES core (44/52/60 cyc), GHASH digit-serial (43 cyc)");
    println!("  XOR/comparator + 16-bit mask, INC core, 32-bit I/O core\n");

    for n in [1usize, 2, 4, 8] {
        let report = ResourceReport::mccp(n as u32);
        let total = report.total();
        println!("--- {n}-core MCCP area budget ---");
        print!("{report}");
        println!(
            "  fits Virtex-4 SX35: {} (slice utilization {:.1}%)\n",
            Virtex4Sx35::fits(total),
            Virtex4Sx35::slice_utilization(total) * 100.0
        );
        if n == 4 {
            assert_eq!(total.slices, 4084, "paper: 4084 slices");
            assert_eq!(total.brams, 26, "paper: 26 BRAMs");
        }
    }
    println!("4-core totals match the paper's §VII.A synthesis: 4084 slices, 26 BRAMs.");
}
