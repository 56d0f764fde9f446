//! Ablation — the NOP trick (completion-edge acceptance).
//!
//! §VI.A: "a HALT instruction may be replaced by two NOP instructions. In
//! this case the controller does not wait for the predictable done signal
//! and one clock cycle can be saved." In the model this is the difference
//! between an instruction accepted from the pending register on the
//! completion edge (6 cycles) and a fresh strobe that pays the sampling
//! cycle (7 cycles). Measured here on the raw CU, then projected onto the
//! mode loops.

use mccp_aes::KeySize;
use mccp_cryptounit::timing::{t_cbc_loop, t_ccm_loop_1core, t_gcm_loop, T_FOREGROUND, T_SAMPLE};
use mccp_cryptounit::{CryptoUnit, CuInstruction, CuIo};
use mccp_sim::HwFifo;

fn measure(pipelined: bool, n: usize) -> f64 {
    let mut cu = CryptoUnit::new();
    let mut input = HwFifo::new(64);
    let mut output = HwFifo::new(64);
    let (mut l, mut r) = (None, None);
    let ins = CuInstruction::Inc { a: 0, amount: 1 }.encode();
    let mut retired = 0usize;
    let start_cycle = cu.cycles();
    while retired < n {
        let can_issue = if pipelined {
            // Keep the pending register primed: acceptance happens on the
            // completion edge, skipping the sampling cycle.
            cu.can_strobe()
        } else {
            // Fresh strobe against an idle decoder: pays the sampling
            // cycle every time (the HALT-resynchronized pattern).
            cu.is_idle()
        };
        if can_issue {
            cu.strobe(ins);
        }
        let mut io = CuIo {
            input: &mut input,
            output: &mut output,
            to_right: &mut r,
            from_left: &mut l,
        };
        cu.tick(&mut io);
        if cu.done_pulse() {
            retired += 1;
        }
    }
    (cu.cycles() - start_cycle) as f64 / n as f64
}

fn main() {
    mccp_bench::Args::parse(&[]);
    let pipelined = measure(true, 200);
    let fresh = measure(false, 200);
    println!("Ablation: completion-edge acceptance (the HALT->NOP-pair trick)\n");
    println!("  back-to-back (pending register): {pipelined:.2} cycles/instruction");
    println!("  fresh strobe (resampled):        {fresh:.2} cycles/instruction");
    println!(
        "  saving: {:.2} cycle(s) per instruction (paper: \"one clock cycle\")\n",
        fresh - pipelined
    );
    assert!((pipelined - T_FOREGROUND as f64).abs() < 0.2);
    assert!((fresh - (T_SAMPLE + T_FOREGROUND) as f64).abs() < 0.2);

    println!("Projected loop impact if every CU instruction paid the sampling cycle:");
    for key in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
        // GCM: AES-bound, only the FAES drain on the path; CBC adds XOR.
        let gcm = t_gcm_loop(key);
        let cbc = t_cbc_loop(key);
        let ccm = t_ccm_loop_1core(key);
        println!(
            "  AES-{}: GCM {} -> {} | CBC {} -> {} | CCM1 {} -> {}",
            key.key_bits(),
            gcm,
            gcm + 1, // FAES resampled
            cbc,
            cbc + 2, // FAES + XOR resampled
            ccm,
            ccm + 3, // two FAES + XOR
        );
    }
    println!("\n(1-3 cycles per 49-104-cycle loop: ~2-6% throughput, which is why");
    println!(" the paper bothers with the NOP replacement in Listing 1.)");
}
