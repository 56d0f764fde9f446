//! Prints the assembled mode firmware — the reproduction's counterpart to
//! the paper's Listing 1 (the GCMloop body). Pass a firmware name to dump
//! one program, or nothing for a summary of all ten.
//!
//! ```sh
//! cargo run -p mccp-bench --bin firmware_listing            # summary
//! cargo run -p mccp-bench --bin firmware_listing GcmEnc     # full listing
//! ```

use mccp_core::firmware::{source, FirmwareId, FirmwareLibrary};

fn main() {
    let lib = FirmwareLibrary::shared();
    let arg = std::env::args().nth(1);

    match arg {
        Some(name) => {
            let id = FirmwareId::ALL
                .iter()
                .find(|id| format!("{id:?}").eq_ignore_ascii_case(&name))
                .copied()
                .unwrap_or_else(|| {
                    eprintln!("unknown firmware `{name}`; one of: {:?}", FirmwareId::ALL);
                    std::process::exit(2);
                });
            println!("=== {id:?} — assembled listing ===\n");
            let prog = lib.program(id);
            for (addr, text) in prog.disassemble() {
                let line = prog
                    .source_line(addr)
                    .map(|l| format!("  ; src:{l}"))
                    .unwrap_or_default();
                println!("0x{addr:03X}  {text}{line}");
            }
            println!("\n--- source ---\n{}", source(id));
        }
        None => {
            println!("Mode firmware inventory (PicoBlaze assembly, 1024-word budget)\n");
            println!(
                "{:<16} {:>12} {:>14}",
                "program", "instructions", "memory used"
            );
            for id in FirmwareId::ALL {
                let n = lib.program(id).disassemble().len();
                println!(
                    "{:<16} {:>12} {:>13.1}%",
                    format!("{id:?}"),
                    n,
                    n as f64 / 1024.0 * 100.0
                );
            }
            println!("\nThe paper's Listing 1 corresponds to GcmEnc's main_loop; run");
            println!("`firmware_listing GcmEnc` to see the scheduled loop with the");
            println!("counter arithmetic interleaved into the NOP slots.");
        }
    }
}
