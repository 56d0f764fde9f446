//! The design ablations: each removes or varies one mechanism of the
//! architecture and measures what it was worth.

use crate::rig::{nonce, warm_packet_cycles};
use crate::KEYS;
use mccp_aes::key_schedule::RoundKeys;
use mccp_aes::BlockCipher128;
use mccp_core::core_unit::Personality;
use mccp_core::key::KeyScheduler;
use mccp_core::protocol::{Algorithm, CipherSel, KeyId};
use mccp_core::{Mccp, MccpConfig, PolicyConfig};
use mccp_cryptounit::engine::TWOFISH_CYCLES;
use mccp_cryptounit::timing::{
    t_cbc_loop, t_ccm_loop_1core, t_gcm_loop, T_FINALIZE, T_FOREGROUND, T_SAMPLE,
};
use mccp_cryptounit::{CryptoUnit, CuInstruction, CuIo};
use mccp_sim::{throughput_mbps, HwFifo};

/// A bare Cryptographic Unit with its FIFOs and inter-core ports.
struct CuRig {
    cu: CryptoUnit,
    input: HwFifo,
    output: HwFifo,
    left: Option<[u8; 16]>,
    right: Option<[u8; 16]>,
}

impl CuRig {
    fn new(cu: CryptoUnit) -> Self {
        CuRig {
            cu,
            input: HwFifo::new(8192),
            output: HwFifo::new(8192),
            left: None,
            right: None,
        }
    }

    /// Runs `n` instructions from the cyclic `schedule` and returns the
    /// cycles until the n-th retires. With `overlap`, each instruction is
    /// strobed as soon as the pending register frees, so it is accepted on
    /// the previous one's completion edge (the firmware's behaviour).
    /// Without it, each waits until the whole unit, foreground and
    /// background engines, is idle and then pays the sampling cycle, as
    /// under a blocking, non-split ISA.
    fn run(&mut self, schedule: &[CuInstruction], n: usize, overlap: bool) -> u64 {
        let start = self.cu.cycles();
        let (mut issued, mut retired) = (0usize, 0usize);
        while retired < n {
            let can_issue = if overlap {
                self.cu.can_strobe()
            } else {
                self.cu.is_idle()
            };
            if issued < n && can_issue {
                self.cu.strobe(schedule[issued % schedule.len()].encode());
                issued += 1;
            }
            let mut io = CuIo {
                input: &mut self.input,
                output: &mut self.output,
                to_right: &mut self.right,
                from_left: &mut self.left,
            };
            self.cu.tick(&mut io);
            if self.cu.done_pulse() {
                retired += 1;
            }
            assert!(!self.cu.is_faulted());
        }
        self.cu.cycles() - start
    }
}

/// Ablation — the start/finalize ISA split (background overlap).
///
/// The CU ISA splits AES/GHASH into SAES/SGFM (start, background) and
/// FAES/FGFM (finalize). This is what lets Listing 1 hide XOR/STORE/INC/
/// LOAD behind the 44-cycle AES computation. Here we drive the same GCM
/// block schedule twice on the raw Cryptographic Unit: **overlapped**
/// (the firmware's behaviour) and **serialized** (as a blocking,
/// non-split ISA would behave).
pub fn ablation_overlap() {
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
    let cycles_per_block = |overlap: bool| {
        let key = [7u8; 16];
        let h = mccp_aes::Aes::new_128(&key).encrypt_copy(&[0u8; 16]);
        let mut cu = CryptoUnit::new();
        cu.load_round_keys(RoundKeys::expand(&key));
        cu.set_bank(3, h);
        let mut ctr = [0u8; 16];
        ctr[15] = 1;
        cu.set_bank(0, ctr);
        let mut rig = CuRig::new(cu);
        rig.input.push_bytes(&vec![0x5Au8; 16 * (BLOCKS + 2)]);
        let prologue = [
            CuInstruction::LoadH { a: 3 },
            CuInstruction::Load { a: 2 },
            CuInstruction::Saes { a: 0 },
            CuInstruction::Inc { a: 0, amount: 1 },
        ];
        rig.run(&prologue, prologue.len(), true);
        rig.run(&body, body.len() * BLOCKS, overlap) as f64 / BLOCKS as f64
    };
    let per_block_fast = cycles_per_block(true);
    let per_block_slow = cycles_per_block(false);

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

/// Ablation — the NOP trick (completion-edge acceptance).
///
/// §VI.A: "a HALT instruction may be replaced by two NOP instructions. In
/// this case the controller does not wait for the predictable done signal
/// and one clock cycle can be saved." In the model this is the difference
/// between an instruction accepted from the pending register on the
/// completion edge (6 cycles) and a fresh strobe that pays the sampling
/// cycle (7 cycles). Measured here on the raw CU, then projected onto the
/// mode loops.
pub fn ablation_nop() {
    const N: usize = 200;
    let cycles_per_instruction = |overlap: bool| {
        let inc = [CuInstruction::Inc { a: 0, amount: 1 }];
        CuRig::new(CryptoUnit::new()).run(&inc, N, overlap) as f64 / N as f64
    };
    let pipelined = cycles_per_instruction(true);
    let fresh = cycles_per_instruction(false);
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
    for key in KEYS {
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

/// Ablation — FIFO depth.
///
/// The paper picks 512 × 32-bit FIFOs ("a packet of 2048 bytes ... is
/// sufficient for most of communication protocols"). This sweep shows what
/// shallower FIFOs cost on a 2 KB GCM-128 packet: once the packet no
/// longer fits, the core stalls on LOAD/STORE against the streaming DMA
/// (one word per cycle), and the 49-cycle loop is throttled.
pub fn ablation_fifo() {
    println!("Ablation: FIFO depth vs 2 KB GCM-128 packet throughput\n");
    println!(
        "{:>12} {:>12} {:>14}",
        "depth (words)", "bytes", "Mbps @190MHz"
    );
    let mut results = Vec::new();
    for depth in [16usize, 32, 64, 128, 256, 512, 1024] {
        let m = Mccp::new(MccpConfig {
            fifo_depth: depth,
            ..MccpConfig::default()
        });
        let cycles = warm_packet_cycles(m, Algorithm::AesGcm128, CipherSel::Aes, 0, 2048);
        let mbps = throughput_mbps(2048 * 8, cycles);
        println!("{:>12} {:>12} {:>14.1}", depth, depth * 4, mbps);
        results.push((depth, mbps));
    }
    let lo = results.iter().map(|(_, m)| *m).fold(f64::MAX, f64::min);
    let hi = results.iter().map(|(_, m)| *m).fold(0.0f64, f64::max);
    println!("\nThroughput is flat ({lo:.1}..{hi:.1} Mbps) across all depths: the 32-bit");
    println!("streaming bus (4 B/cycle) outruns the 16 B / 49-cycle consumption rate,");
    println!("so depth never throttles a single stream. The paper's 512-word choice");
    println!("is about *packet containment*, not speed: a whole 2048-byte packet");
    println!("stays resident, which is what makes the wipe-on-auth-failure defense");
    println!("airtight (no plaintext leaves before the tag verdict) and lets the");
    println!("crossbar burst one packet per core without flow control.");
    assert!(
        hi - lo < 0.05 * hi,
        "depth must not affect single-stream throughput"
    );
    // Packets beyond the FIFO run in the (documented) streaming mode that
    // weakens the containment property — the depth buys security, not Mbps.
}

/// Ablation — the per-core Key Cache (paper §IV.A).
///
/// Each Cryptographic Core caches one expanded key schedule. A channel
/// that keeps landing on the same core pays the Key Scheduler exactly
/// once; channels that *alternate* on one core thrash the cache and pay
/// the expansion latency on every packet. This measures both patterns and
/// the cost per miss.
pub fn ablation_key_cache() {
    println!("Ablation: per-core Key Cache under channel interleaving");
    println!("(single core, 16 x 256-byte GCM-128 packets)\n");
    println!(
        "{:>10} {:>12} {:>12} {:>16}",
        "channels", "cycles", "expansions", "cycles/packet"
    );
    const PACKETS: usize = 16;
    let mut base = 0u64;
    for channels in [1usize, 2, 4] {
        let (cycles, expansions) = interleaved_packets(channels, PACKETS);
        if channels == 1 {
            base = cycles;
        }
        println!(
            "{:>10} {:>12} {:>12} {:>16.1}",
            channels,
            cycles,
            expansions,
            cycles as f64 / PACKETS as f64
        );
        if channels == 1 {
            assert_eq!(expansions, 1, "one channel = one expansion");
        } else {
            // Alternating channels on one core miss every packet.
            assert_eq!(expansions as usize, PACKETS, "thrash = miss per packet");
        }
    }
    let (thrash, _) = interleaved_packets(2, PACKETS);
    let per_miss = (thrash - base) as f64 / (PACKETS - 1) as f64;
    println!(
        "\ncache-miss cost ≈ {per_miss:.0} cycles/packet (AES-128 expansion = {} cycles)",
        KeyScheduler::expansion_cycles(mccp_aes::KeySize::Aes128)
    );
    println!("On a 4-core MCCP the first-idle dispatcher tends to re-land a");
    println!("channel on its previous core, so real workloads mostly hit; the");
    println!("cache is what makes the shared Key Scheduler a non-bottleneck.");
}

/// Runs `packets` small packets on a single-core MCCP over `channels`
/// channels (round-robin) and reports (total cycles, key expansions).
fn interleaved_packets(channels: usize, packets: usize) -> (u64, u64) {
    let mut m = Mccp::new(MccpConfig {
        n_cores: 1,
        ..MccpConfig::default()
    });
    let chans: Vec<_> = (0..channels)
        .map(|i| {
            let key = [i as u8 + 1; 16];
            m.key_memory_mut().store(KeyId(i as u8 + 1), &key);
            m.open(Algorithm::AesGcm128, KeyId(i as u8 + 1)).unwrap()
        })
        .collect();
    let payload = [0xA5u8; 256];
    let start = m.cycle();
    for p in 0..packets {
        let ch = chans[p % channels.max(1)];
        m.encrypt_packet(ch, &[], &payload, &nonce(p as u64))
            .unwrap();
    }
    (m.cycle() - start, m.expansions())
}

/// Ablation — replacing AES with Twofish (paper §IX).
///
/// "AES core may be easily replaced by any other 128-bit block cipher
/// (such as Twofish) according to the user needs." Here one core is
/// live-reconfigured to the Twofish unit through the demand-policy swap
/// path — charging the full Table IV RAM load latency before the first
/// packet — and the *same GCM firmware* runs on both engines; throughput
/// shifts only by the engines' per-block latencies (44 vs 48 modeled
/// cycles).
pub fn ablation_cipher_swap() {
    println!("Ablation: cipher swap in the reconfigurable CU region (GCM, 2 KB)\n");
    let aes = swapped_gcm_mbps(CipherSel::Aes);
    let tf = swapped_gcm_mbps(CipherSel::Twofish);
    println!("  AES engine (44-cycle core):      {aes:.1} Mbps @ 190 MHz");
    println!("  Twofish engine ({TWOFISH_CYCLES}-cycle model): {tf:.1} Mbps @ 190 MHz");
    let model_ratio = (44 + T_FINALIZE) as f64 / (TWOFISH_CYCLES + T_FINALIZE) as f64;
    println!(
        "  measured ratio {:.3} vs loop-model ratio {:.3}",
        tf / aes,
        model_ratio
    );
    println!("\nSame firmware, same protocol, same packets — only the engine in");
    println!(
        "the reconfigurable region differs. The ~{:.0}% delta is exactly the",
        (1.0 - model_ratio) * 100.0
    );
    println!("44→{TWOFISH_CYCLES}-cycle block-latency difference; everything else hides in");
    println!("the background window. That is the paper's flexibility claim, measured.");
    assert!(
        (tf / aes - model_ratio).abs() < 0.03,
        "swap must track the loop model"
    );
}

/// 2 KB GCM-128 throughput on a `cipher` engine.
fn swapped_gcm_mbps(cipher: CipherSel) -> f64 {
    let mut m = Mccp::new(MccpConfig::default());
    if cipher == CipherSel::Twofish {
        // A policy-accounted live swap, not a teleport: the region is
        // reserved for the whole RAM load budget and only then comes up
        // with the Twofish personality.
        m.enable_reconfig_policy(PolicyConfig::default());
        let budget = m.policy_swap(0, Personality::TwofishUnit).unwrap();
        let target = m.cycle() + budget + 1;
        m.run_until(target);
        assert!(!m.is_reconfiguring(0), "swap must complete within budget");
        assert_eq!(m.policy().unwrap().swaps(), 1);
    }
    let cycles = warm_packet_cycles(m, Algorithm::AesGcm128, cipher, 0, 2048);
    throughput_mbps(2048 * 8, cycles)
}
