//! Ablation — the start/finalize ISA split (background overlap).
//!
//! The CU ISA splits AES/GHASH into SAES/SGFM (start, background) and
//! FAES/FGFM (finalize). This is what lets Listing 1 hide XOR/STORE/INC/
//! LOAD behind the 44-cycle AES computation. Here we drive the same GCM
//! block schedule twice on the raw Cryptographic Unit:
//!
//! * **overlapped** — next instruction strobed as soon as the pending
//!   register frees (the firmware's behaviour);
//! * **serialized** — next instruction strobed only after the previous
//!   one *completes* (as a blocking, non-split ISA would behave).

use mccp_aes::key_schedule::RoundKeys;
use mccp_cryptounit::{CryptoUnit, CuInstruction, CuIo};
use mccp_sim::HwFifo;

struct Rig {
    cu: CryptoUnit,
    input: HwFifo,
    output: HwFifo,
    left: Option<[u8; 16]>,
    right: Option<[u8; 16]>,
}

impl Rig {
    fn new() -> Self {
        let mut cu = CryptoUnit::new();
        cu.load_round_keys(RoundKeys::expand(&[7u8; 16]));
        let aes = mccp_aes::Aes::new_128(&[7u8; 16]);
        let h = {
            use mccp_aes::BlockCipher128;
            aes.encrypt_copy(&[0u8; 16])
        };
        cu.set_bank(3, h);
        let mut ctr = [0u8; 16];
        ctr[15] = 1;
        cu.set_bank(0, ctr);
        Rig {
            cu,
            input: HwFifo::new(8192),
            output: HwFifo::new(8192),
            left: None,
            right: None,
        }
    }

    fn tick(&mut self) {
        let mut io = CuIo {
            input: &mut self.input,
            output: &mut self.output,
            to_right: &mut self.right,
            from_left: &mut self.left,
        };
        self.cu.tick(&mut io);
    }

    /// Runs `n` instructions from the cyclic schedule. With `serialize`,
    /// each instruction is strobed only once the whole unit (foreground
    /// *and* background engines) is quiescent — the behaviour of a
    /// blocking, non-split ISA where SAES/SGFM would stall the datapath
    /// until the engine finishes. Returns total cycles.
    fn run(&mut self, schedule: &[CuInstruction], n: usize, serialize: bool) -> u64 {
        let start = self.cu.cycles();
        let mut issued = 0usize;
        let mut retired = 0usize;
        while retired < n {
            let can_issue = if serialize {
                self.cu.is_idle()
            } else {
                self.cu.can_strobe()
            };
            if issued < n && can_issue {
                self.cu.strobe(schedule[issued % schedule.len()].encode());
                issued += 1;
            }
            self.tick();
            if self.cu.done_pulse() {
                retired += 1;
            }
            assert!(!self.cu.is_faulted());
        }
        self.cu.cycles() - start
    }
}

fn main() {
    mccp_bench::Args::parse(&[]);
    // The Listing-1 GCM body (7 CU instructions per block).
    let body = [
        CuInstruction::Faes { a: 1 },
        CuInstruction::Saes { a: 0 },
        CuInstruction::Xor { a: 2, b: 1 },
        CuInstruction::Sgfm { a: 1 },
        CuInstruction::Store { a: 1 },
        CuInstruction::Inc { a: 0, amount: 1 },
        CuInstruction::Load { a: 2 },
    ];
    const BLOCKS: usize = 64;

    let prep = |rig: &mut Rig| {
        rig.input.push_bytes(&vec![0x5Au8; 16 * (BLOCKS + 2)]);
        rig.run(
            &[
                CuInstruction::LoadH { a: 3 },
                CuInstruction::Load { a: 2 },
                CuInstruction::Saes { a: 0 },
                CuInstruction::Inc { a: 0, amount: 1 },
            ],
            4,
            false,
        );
    };

    let mut fast = Rig::new();
    prep(&mut fast);
    let overlapped = fast.run(&body, body.len() * BLOCKS, false);

    let mut slow = Rig::new();
    prep(&mut slow);
    let serialized = slow.run(&body, body.len() * BLOCKS, true);

    let per_block_fast = overlapped as f64 / BLOCKS as f64;
    let per_block_slow = serialized as f64 / BLOCKS as f64;

    println!("Ablation: background start/finalize overlap (GCM loop, {BLOCKS} blocks)\n");
    println!("  overlapped (firmware behaviour): {per_block_fast:.1} cycles/block");
    println!("  serialized (blocking ISA):       {per_block_slow:.1} cycles/block");
    println!(
        "  overlap speedup:                 {:.2}x",
        per_block_slow / per_block_fast
    );
    println!("\n(The paper's 49-cycle loop depends on the split; a blocking ISA");
    println!(" pays every foreground instruction on the critical path.)");
    assert!(per_block_fast < 51.0, "overlapped must hit ~49");
    assert!(
        per_block_slow > per_block_fast + 20.0,
        "serialization must cost >20 cycles/block"
    );
}
