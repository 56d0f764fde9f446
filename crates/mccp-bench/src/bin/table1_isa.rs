//! Table I — the Cryptographic Unit instruction set, with the timing
//! behaviour each instruction exhibits in the cycle-accurate model.

use mccp_cryptounit::timing::{GHASH_CYCLES, T_FINALIZE, T_FOREGROUND, T_SAMPLE};
use mccp_cryptounit::CuInstruction;

fn main() {
    mccp_bench::Args::parse(&[]);
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
