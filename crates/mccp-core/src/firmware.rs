//! The Cryptographic Core firmware: the paper's block-cipher modes written
//! in PicoBlaze assembly (§VI: "Cryptographic algorithms executed by
//! proposed MCCP are implemented with Xilinx PicoBlaze assembler language
//! which is used to generate the Cryptographic Unit instruction flow").
//!
//! Ten programs cover the mode × direction × core-count grid:
//! GCM encrypt/decrypt, single-core CCM encrypt/decrypt, two-core CCM
//! (CBC-MAC half and CTR half, each direction), plain CTR and CBC-MAC.
//!
//! ## Controller port map
//!
//! | dir | port | function |
//! |-----|------|----------|
//! | IN  | 0x00 | CU status byte |
//! | IN  | 0x01/0x02 | `nP` payload blocks (lo/hi) |
//! | IN  | 0x03/0x04 | `nA` auth-only blocks (lo/hi) |
//! | IN  | 0x05/0x06 | final-payload-block byte mask (lo/hi) |
//! | IN  | 0x07/0x08 | tag byte mask (lo/hi) |
//! | OUT | 0x00 | CU instruction strobe |
//! | OUT | 0x01 | result register (0x01 = OK, 0x02 = AUTH_FAIL) |
//! | OUT | 0x02 | wipe output FIFO (auth-failure defense) |
//! | OUT | 0x03/0x04 | CU XOR mask (lo/hi) |
//!
//! ## Input-FIFO stream layouts (built by the communication controller —
//! see [`crate::format`])
//!
//! ```text
//! GCM  enc: J0 · AAD* · PT* · LEN                  → CT* · TAG
//! GCM  dec: J0 · AAD* · CT* · LEN · TAG            → PT*
//! CCM1 enc: CTR0 · (B0·encAAD)* · PT* · CTR0       → CT* · TAG
//! CCM1 dec: CTR0 · (B0·encAAD)* · CT* · CTR0 · TAG → PT*
//! CCM2 enc: CBC half: (B0·encAAD)* · PT*           → (mac via inter-core port)
//!           CTR half: CTR0 · PT* · CTR0            → CT* · TAG
//! CCM2 dec: CTR half: CTR0 · CT* · CTR0            → PT* (pt via inter-core port)
//!           CBC half: (B0·encAAD)* · CTR0 · TAG    → (verdict)
//! CTR:      CTR0 · PT*                             → CT*
//! CBC-MAC:  DATA*                                  → MAC
//! ```
//! (`*` = zero-padded 16-byte blocks; every layout matches §VI.B's rule
//! that the communication controller formats packets before upload.)

use mccp_cryptounit::CuInstruction;
use mccp_picoblaze::asm::{assemble, Program};
use mccp_picoblaze::Rom;
use std::sync::{Arc, OnceLock};

/// Input port numbers (controller `INPUT`).
pub mod in_port {
    pub const CU_STATUS: u8 = 0x00;
    pub const NP_LO: u8 = 0x01;
    pub const NP_HI: u8 = 0x02;
    pub const NA_LO: u8 = 0x03;
    pub const NA_HI: u8 = 0x04;
    pub const PM_LO: u8 = 0x05;
    pub const PM_HI: u8 = 0x06;
    pub const TM_LO: u8 = 0x07;
    pub const TM_HI: u8 = 0x08;
}

/// Output port numbers (controller `OUTPUT`).
pub mod out_port {
    pub const CU_INSTR: u8 = 0x00;
    pub const RESULT: u8 = 0x01;
    pub const WIPE: u8 = 0x02;
    pub const MASK_LO: u8 = 0x03;
    pub const MASK_HI: u8 = 0x04;
}

/// Result-register values written by firmware.
pub mod result_code {
    pub const OK: u8 = 0x01;
    pub const AUTH_FAIL: u8 = 0x02;
}

/// CU status bits the firmware polls (must match `mccp_cryptounit::CuStatus`).
const BUSY_MASK: u8 = 0x1E; // AES | GHASH | FG | PENDING
const EQU_BIT: u8 = 0x01;

/// The firmware programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FirmwareId {
    GcmEnc,
    GcmDec,
    Ccm1Enc,
    Ccm1Dec,
    /// Two-core CCM encrypt, CBC-MAC half (left core of the pair).
    Ccm2CbcEnc,
    /// Two-core CCM encrypt, CTR half (right core).
    Ccm2CtrEnc,
    /// Two-core CCM decrypt, CTR half (left core).
    Ccm2CtrDec,
    /// Two-core CCM decrypt, CBC-MAC half (right core).
    Ccm2CbcDec,
    Ctr,
    CbcMac,
}

impl FirmwareId {
    /// Static name, identical to the `Debug` rendering but allocation-free
    /// for hot telemetry paths.
    pub fn name(self) -> &'static str {
        match self {
            FirmwareId::GcmEnc => "GcmEnc",
            FirmwareId::GcmDec => "GcmDec",
            FirmwareId::Ccm1Enc => "Ccm1Enc",
            FirmwareId::Ccm1Dec => "Ccm1Dec",
            FirmwareId::Ccm2CbcEnc => "Ccm2CbcEnc",
            FirmwareId::Ccm2CtrEnc => "Ccm2CtrEnc",
            FirmwareId::Ccm2CtrDec => "Ccm2CtrDec",
            FirmwareId::Ccm2CbcDec => "Ccm2CbcDec",
            FirmwareId::Ctr => "Ctr",
            FirmwareId::CbcMac => "CbcMac",
        }
    }

    pub const ALL: [FirmwareId; 10] = [
        FirmwareId::GcmEnc,
        FirmwareId::GcmDec,
        FirmwareId::Ccm1Enc,
        FirmwareId::Ccm1Dec,
        FirmwareId::Ccm2CbcEnc,
        FirmwareId::Ccm2CtrEnc,
        FirmwareId::Ccm2CtrDec,
        FirmwareId::Ccm2CbcDec,
        FirmwareId::Ctr,
        FirmwareId::CbcMac,
    ];
}

/// Shared CONSTANT prelude: ports, result codes, and every CU instruction
/// byte, generated from the real encoder so firmware and hardware can
/// never drift apart.
fn prelude() -> String {
    let mut s = String::with_capacity(4096);
    let mut c = |name: &str, v: u8| s.push_str(&format!("CONSTANT {name}, 0x{v:02X}\n"));
    c("CU", out_port::CU_INSTR);
    c("RESULT", out_port::RESULT);
    c("WIPE", out_port::WIPE);
    c("MLO", out_port::MASK_LO);
    c("MHI", out_port::MASK_HI);
    c("ST", in_port::CU_STATUS);
    c("NPLO", in_port::NP_LO);
    c("NPHI", in_port::NP_HI);
    c("NALO", in_port::NA_LO);
    c("NAHI", in_port::NA_HI);
    c("PMLO", in_port::PM_LO);
    c("PMHI", in_port::PM_HI);
    c("TMLO", in_port::TM_LO);
    c("TMHI", in_port::TM_HI);
    c("ROK", result_code::OK);
    c("RFAIL", result_code::AUTH_FAIL);
    c("BUSY", BUSY_MASK);
    c("EQUBIT", EQU_BIT);
    for a in 0..4u8 {
        c(&format!("LOAD{a}"), CuInstruction::Load { a }.encode());
        c(&format!("STORE{a}"), CuInstruction::Store { a }.encode());
        c(&format!("LOADH{a}"), CuInstruction::LoadH { a }.encode());
        c(&format!("SGFM{a}"), CuInstruction::Sgfm { a }.encode());
        c(&format!("FGFM{a}"), CuInstruction::Fgfm { a }.encode());
        c(&format!("SAES{a}"), CuInstruction::Saes { a }.encode());
        c(&format!("FAES{a}"), CuInstruction::Faes { a }.encode());
        c(
            &format!("INC{a}"),
            CuInstruction::Inc { a, amount: 1 }.encode(),
        );
        c(&format!("XPUT{a}"), CuInstruction::Xput { a }.encode());
        c(&format!("XGET{a}"), CuInstruction::Xget { a }.encode());
        for b in 0..4u8 {
            c(
                &format!("XOR_{a}_{b}"),
                CuInstruction::Xor { a, b }.encode(),
            );
            c(
                &format!("EQU_{a}_{b}"),
                CuInstruction::Equ { a, b }.encode(),
            );
        }
    }
    s
}

/// `OUTPUT <instr const>; HALT` via the scratch register s6 — the generic
/// (non-preloaded) way to issue one CU instruction.
fn op(name: &str) -> String {
    format!("LOAD s6, {name}\nOUTPUT s6, CU\nHALT DISABLE\n")
}

/// Shared epilogue: `quiesce` subroutine (poll until the CU is fully idle)
/// and the `spin` terminal loop.
const EPILOGUE: &str = "
spin:   JUMP spin
quiesce:
        INPUT s4, ST
        TEST  s4, BUSY
        JUMP  NZ, quiesce
        RETURN
";

/// Loads the 16-bit payload count into s0:s1 and auth count into s2:s3.
const LOAD_COUNTS: &str = "
        INPUT s0, NPLO
        INPUT s1, NPHI
        INPUT s2, NALO
        INPUT s3, NAHI
";

/// Restores the CU XOR mask to 0xFFFF.
const MASK_ALL: &str = "
        LOAD  s6, 0xFF
        OUTPUT s6, MLO
        OUTPUT s6, MHI
";

/// Emits the `nA`-counted auth loop used by GCM (LOAD + SGFM per block).
fn gcm_aad_loop() -> String {
    format!(
        "
        LOAD  s4, s2
        OR    s4, s3
        JUMP  Z, aad_done
aad_loop:
{load}{sgfm}        SUB   s2, 0x01
        SUBCY s3, 0x00
        LOAD  s4, s2
        OR    s4, s3
        JUMP  NZ, aad_loop
aad_done:
",
        load = op("LOAD2"),
        sgfm = op("SGFM2"),
    )
}

/// Emits the software-pipelined CBC-MAC accumulation loop over a 16-bit
/// count in `lo:hi`. The data source instruction must be preloaded in s8
/// (LOAD @3 from the FIFO, or XGET @3 from the inter-core port), and
/// s9/sA/sB hold `XOR @3,@2; SAES @2; FAES @2`.
///
/// The next block is fetched *inside the AES window* and `FAES → XOR →
/// SAES` forms the critical chain, which is exactly the paper's
/// `T_CBC = T_SAES + T_FAES + T_XOR = 55` cycles per block.
fn cbc_loop(label: &str, lo: &str, hi: &str) -> String {
    format!(
        "
        LOAD  s4, {lo}
        OR    s4, {hi}
        JUMP  Z, {label}_done
        ; pipeline preamble: fetch b1, xor into the chain, start AES
        OUTPUT s8, CU
        HALT  DISABLE
        OUTPUT s9, CU
        HALT  DISABLE
        OUTPUT sA, CU
        HALT  DISABLE
        SUB   {lo}, 0x01
        SUBCY {hi}, 0x00
        LOAD  s4, {lo}
        OR    s4, {hi}
        JUMP  Z, {label}_fin
{label}:
        OUTPUT s8, CU
        HALT  DISABLE
        OUTPUT sB, CU
        HALT  DISABLE
        OUTPUT s9, CU
        HALT  DISABLE
        OUTPUT sA, CU
        HALT  DISABLE
        SUB   {lo}, 0x01
        SUBCY {hi}, 0x00
        LOAD  s4, {lo}
        OR    s4, {hi}
        JUMP  NZ, {label}
{label}_fin:
        OUTPUT sB, CU
        HALT  DISABLE
{label}_done:
"
    )
}

/// Preloads the CBC-loop op bytes into s8..sB (FIFO data source).
const CBC_PRELOAD: &str = "
        LOAD  s8, LOAD3
        LOAD  s9, XOR_3_2
        LOAD  sA, SAES2
        LOAD  sB, FAES2
";

/// Preloads the CBC-loop op bytes with the inter-core port as the data
/// source (two-core CCM decrypt: plaintext arrives block-by-block).
const CBC_PRELOAD_XGET: &str = "
        LOAD  s8, XGET3
        LOAD  s9, XOR_3_2
        LOAD  sA, SAES2
        LOAD  sB, FAES2
";

/// Emits the last-iteration check that programs the final-block CT mask:
/// when the 16-bit count s0:s1 equals 1, write PM into the CU mask ports.
fn mask_if_last() -> String {
    "
        LOAD  s4, s0
        XOR   s4, 0x01
        OR    s4, s1
        JUMP  NZ, not_last
        INPUT s6, PMLO
        OUTPUT s6, MLO
        INPUT s6, PMHI
        OUTPUT s6, MHI
not_last:
"
    .to_string()
}

/// 16-bit loop bottom: decrement s0:s1 and jump to `label` while non-zero.
fn count_loop_bottom(label: &str) -> String {
    format!(
        "
        SUB   s0, 0x01
        SUBCY s1, 0x00
        LOAD  s4, s0
        OR    s4, s1
        JUMP  NZ, {label}
"
    )
}

/// The masked tag comparison shared by the decrypt programs: computed tag
/// in `@1`, expected tag loaded into a scratch bank; sets `equ_flag` and
/// branches to OK / AUTH_FAIL (wiping the output FIFO on failure).
fn tag_compare_and_result() -> String {
    format!(
        "
        INPUT s6, TMLO
        OUTPUT s6, MLO
        INPUT s6, TMHI
        OUTPUT s6, MHI
{load_expected}{diff}{zero}{equ}        CALL  quiesce
        INPUT s4, ST
        TEST  s4, EQUBIT
        JUMP  Z, auth_fail
        LOAD  s6, ROK
        OUTPUT s6, RESULT
        JUMP  spin
auth_fail:
        OUTPUT s6, WIPE
        LOAD  s6, RFAIL
        OUTPUT s6, RESULT
        JUMP  spin
",
        load_expected = op("LOAD2"), // expected tag -> @2
        diff = op("XOR_1_2"),        // @2 = (computed ^ expected) & tagmask
        zero = op("XOR_1_1"),        // @1 = 0 (x ^ x masked is all-zero)
        equ = op("EQU_2_1"),         // equ_flag = (@2 == 0)
    )
}

fn gcm_common_preamble() -> String {
    format!(
        "{counts}{mask_all}{zero1}{saes1}{faes1}{loadh}{loadj0}{saes0}{faes3}{inc}",
        counts = LOAD_COUNTS,
        mask_all = MASK_ALL,
        zero1 = op("XOR_1_1"), // @1 = 0
        saes1 = op("SAES1"),   // E(0)
        faes1 = op("FAES1"),   // @1 = H
        loadh = op("LOADH1"),  // GHASH key = H, accumulator reset
        loadj0 = op("LOAD0"),  // @0 = J0
        saes0 = op("SAES0"),   // E(J0)
        faes3 = op("FAES3"),   // @3 = E(J0), kept for the tag
        inc = op("INC0"),      // @0 = ctr_1
    )
}

/// The Listing-1 GCM main loop, shared by encrypt and decrypt (the three
/// mid-loop ops in s[A..C] differ). The counter arithmetic and the
/// last-block-mask test are interleaved into the pacing slots between
/// `OUTPUT` strobes — the paper's replace-HALT-by-NOPs trick — so the
/// next `FAES` is strobed early enough to catch the AES result latch and
/// the loop sustains exactly `T_SAES + T_FAES` (49) cycles per block.
///
/// Register plan: s8=FAES1, s9=SAES0, sA/sB/sC = the three mode ops,
/// sD=INC0, sE=LOAD2; s0:s1 = block count, s5 = last-block predicate.
fn gcm_main_loop() -> String {
    "
        ; when the very first block is also the last, set its mask now
        LOAD  s4, s0
        XOR   s4, 0x01
        OR    s4, s1
        JUMP  NZ, pipeline_go
        INPUT s6, PMLO
        OUTPUT s6, MLO
        INPUT s6, PMHI
        OUTPUT s6, MHI
pipeline_go:
        ; software-pipeline preamble: start E(ctr_1), pre-inc, fetch block_1
        OUTPUT s9, CU
        HALT  DISABLE
        OUTPUT sD, CU
        HALT  DISABLE
        OUTPUT sE, CU
        HALT  DISABLE
main_loop:
        OUTPUT s8, CU
        HALT  DISABLE
        OUTPUT s9, CU
        HALT  DISABLE
        OUTPUT sA, CU
        SUB   s0, 0x01
        SUBCY s1, 0x00
        OUTPUT sB, CU
        LOAD  s5, s0
        XOR   s5, 0x01
        OUTPUT sC, CU
        OR    s5, s1
        HALT  DISABLE
        OUTPUT sD, CU
        JUMP  Z, set_mask
mask_done:
        LOAD  s4, s4
        OUTPUT sE, CU
        HALT  DISABLE
        LOAD  s4, s0
        OR    s4, s1
        JUMP  NZ, main_loop
        JUMP  finalize
set_mask:
        INPUT s6, PMLO
        OUTPUT s6, MLO
        INPUT s6, PMHI
        OUTPUT s6, MHI
        JUMP  mask_done
"
    .to_string()
}

fn gcm_enc_source() -> String {
    format!(
        "{prelude}
start:
{preamble}{aad}
        ; preload the Listing-1 loop ops
        LOAD  s8, FAES1
        LOAD  s9, SAES0
        LOAD  sA, XOR_2_1
        LOAD  sB, SGFM1
        LOAD  sC, STORE1
        LOAD  sD, INC0
        LOAD  sE, LOAD2
        LOAD  s4, s0
        OR    s4, s1
        JUMP  Z, no_payload
{main_loop}no_payload:
{load_len}finalize:
{mask_all}{sgfm_len}{fgfm}{tag_xor}{store_tag}        CALL  quiesce
        LOAD  s6, ROK
        OUTPUT s6, RESULT
{epilogue}",
        prelude = prelude(),
        preamble = gcm_common_preamble(),
        aad = gcm_aad_loop(),
        main_loop = gcm_main_loop(),
        load_len = op("LOAD2"),
        mask_all = MASK_ALL,
        sgfm_len = op("SGFM2"),
        fgfm = op("FGFM1"),
        tag_xor = op("XOR_3_1"), // @1 = GHASH ^ E(J0)
        store_tag = op("STORE1"),
        epilogue = EPILOGUE,
    )
}

fn gcm_dec_source() -> String {
    format!(
        "{prelude}
start:
{preamble}{aad}
        LOAD  s8, FAES1
        LOAD  s9, SAES0
        LOAD  sA, SGFM2
        LOAD  sB, XOR_1_2
        LOAD  sC, STORE2
        LOAD  sD, INC0
        LOAD  sE, LOAD2
        LOAD  s4, s0
        OR    s4, s1
        JUMP  Z, no_payload
{main_loop}no_payload:
{load_len}finalize:
{mask_all}{sgfm_len}{fgfm}{tag_xor}{compare}{epilogue}",
        prelude = prelude(),
        preamble = gcm_common_preamble(),
        aad = gcm_aad_loop(),
        main_loop = gcm_main_loop(),
        load_len = op("LOAD2"),
        mask_all = MASK_ALL,
        sgfm_len = op("SGFM2"),
        fgfm = op("FGFM1"),
        tag_xor = op("XOR_3_1"), // @1 = computed tag
        compare = tag_compare_and_result(),
        epilogue = EPILOGUE,
    )
}

/// The single-core CCM payload schedule (paper: `T_CTR + T_CBC = 104`).
///
/// Register plan: s8=FAES1, s9=XOR_3_2 (mac^pt), sA=SAES2, sB=XOR_3_1
/// (ct=pt^ks) for encrypt / XOR_1_2 (mac^pt) for decrypt, sC=STORE1,
/// sD=INC0, sE=LOAD3, sF=FAES2; SAES0 issued via the s6 immediate.
/// Critical chain per block: `FAES1 → XOR(mac) → SAES2 → FAES2 → SAES0`
/// = 49 + 6 + 49 = 104; XOR(ct)/STORE/INC/LOAD hide in the AES windows.
/// The final loop iteration's LOAD @3 fetches the trailing CTR0 copy the
/// stream carries, which the tag finalization then encrypts.
const CCM1_PRELOAD_ENC: &str = "
        LOAD  s8, FAES1
        LOAD  s9, XOR_3_2
        LOAD  sA, SAES2
        LOAD  sB, XOR_3_1
        LOAD  sC, STORE1
        LOAD  sD, INC0
        LOAD  sE, LOAD3
        LOAD  sF, FAES2
";

fn ccm1_enc_source() -> String {
    format!(
        "{prelude}
start:
{counts}{mask_all}{load_ctr0}{zero_mac}{cbc_preload}{auth}
        LOAD  s4, s0
        OR    s4, s1
        JUMP  Z, fin_load
{payload_preload}
        ; software-pipeline preamble: ctr_1, start AES, fetch pt_1
        OUTPUT sD, CU
        HALT  DISABLE
{saes_ctr_imm}        OUTPUT sE, CU
        HALT  DISABLE
main_loop:
        OUTPUT s8, CU
        HALT  DISABLE
        OUTPUT s9, CU
        HALT  DISABLE
        OUTPUT sA, CU
        HALT  DISABLE
{mask_last}        OUTPUT sB, CU
        HALT  DISABLE
        OUTPUT sC, CU
        HALT  DISABLE
{unmask}        OUTPUT sD, CU
        HALT  DISABLE
        OUTPUT sE, CU
        HALT  DISABLE
        OUTPUT sF, CU
        HALT  DISABLE
{saes_ctr_imm2}{loop_bottom}        JUMP  finalize
fin_load:
{load_ctr0_tail}finalize:
{mask_all2}{saes_tagks}{faes_tagks}{tag_xor}{store_tag}        CALL  quiesce
        LOAD  s6, ROK
        OUTPUT s6, RESULT
{epilogue}",
        prelude = prelude(),
        counts = LOAD_COUNTS,
        mask_all = MASK_ALL,
        load_ctr0 = op("LOAD0"),
        zero_mac = op("XOR_2_2"),
        cbc_preload = CBC_PRELOAD,
        auth = cbc_loop("auth_loop", "s2", "s3"),
        payload_preload = CCM1_PRELOAD_ENC,
        saes_ctr_imm = op("SAES0"),
        mask_last = mask_if_last(),
        unmask = MASK_ALL,
        saes_ctr_imm2 = op("SAES0"),
        loop_bottom = count_loop_bottom("main_loop"),
        load_ctr0_tail = op("LOAD3"),
        mask_all2 = MASK_ALL,
        saes_tagks = op("SAES3"),
        faes_tagks = op("FAES1"), // @1 = E(ctr0)
        tag_xor = op("XOR_2_1"),  // @1 = mac ^ E(ctr0)
        store_tag = op("STORE1"),
        epilogue = EPILOGUE,
    )
}

fn ccm1_dec_source() -> String {
    // Decrypt chain: `FAES1 → XOR31 (pt) → XOR12 (mac^pt) → SAES2 → FAES2
    // → SAES0` — the masked pt XOR sits on the MAC path, so the loop runs
    // 110 cycles/block (104 + one extra foreground XOR; the paper reports
    // encrypt only). On the final block the pt mask must be *restored*
    // between the two adjacent XORs, which costs a one-off quiesce.
    format!(
        "{prelude}
start:
{counts}{mask_all}{load_ctr0}{zero_mac}{cbc_preload}{auth}
        LOAD  s4, s0
        OR    s4, s1
        JUMP  Z, fin_load
        LOAD  s8, FAES1
        LOAD  s9, XOR_1_2
        LOAD  sA, SAES2
        LOAD  sB, XOR_3_1
        LOAD  sC, STORE1
        LOAD  sD, INC0
        LOAD  sE, LOAD3
        LOAD  sF, FAES2
        OUTPUT sD, CU
        HALT  DISABLE
{saes_ctr_imm}        OUTPUT sE, CU
        HALT  DISABLE
main_loop:
        OUTPUT s8, CU
        HALT  DISABLE
        ; last block: set the pt mask, XOR, drain, restore — the two XORs
        ; are adjacent so the restore needs a completed pipeline.
        LOAD  s4, s0
        XOR   s4, 0x01
        OR    s4, s1
        JUMP  NZ, not_last
        INPUT s6, PMLO
        OUTPUT s6, MLO
        INPUT s6, PMHI
        OUTPUT s6, MHI
        OUTPUT sB, CU
        HALT  DISABLE
        CALL  quiesce
        LOAD  s6, 0xFF
        OUTPUT s6, MLO
        OUTPUT s6, MHI
        JUMP  joined
not_last:
        OUTPUT sB, CU
        HALT  DISABLE
joined:
        OUTPUT s9, CU
        HALT  DISABLE
        OUTPUT sA, CU
        HALT  DISABLE
        OUTPUT sC, CU
        HALT  DISABLE
        OUTPUT sD, CU
        HALT  DISABLE
        OUTPUT sE, CU
        HALT  DISABLE
        OUTPUT sF, CU
        HALT  DISABLE
{saes_ctr_imm2}{loop_bottom}        JUMP  finalize
fin_load:
{load_ctr0_tail}finalize:
{mask_all2}{saes_tagks}{faes_tagks}{tag_xor}{compare}{epilogue}",
        prelude = prelude(),
        counts = LOAD_COUNTS,
        mask_all = MASK_ALL,
        load_ctr0 = op("LOAD0"),
        zero_mac = op("XOR_2_2"),
        cbc_preload = CBC_PRELOAD,
        auth = cbc_loop("auth_loop", "s2", "s3"),
        saes_ctr_imm = op("SAES0"),
        saes_ctr_imm2 = op("SAES0"),
        loop_bottom = count_loop_bottom("main_loop"),
        load_ctr0_tail = op("LOAD3"),
        mask_all2 = MASK_ALL,
        saes_tagks = op("SAES3"),
        faes_tagks = op("FAES1"), // @1 = E(ctr0)
        tag_xor = op("XOR_2_1"),  // @1 = computed tag
        compare = tag_compare_and_result(),
        epilogue = EPILOGUE,
    )
}

fn ccm2_cbc_enc_source() -> String {
    format!(
        "{prelude}
start:
{counts}{mask_all}{zero_mac}{cbc_preload}{auth}{payload}{xput}        CALL  quiesce
        LOAD  s6, ROK
        OUTPUT s6, RESULT
{epilogue}",
        prelude = prelude(),
        counts = LOAD_COUNTS,
        mask_all = MASK_ALL,
        zero_mac = op("XOR_2_2"),
        cbc_preload = CBC_PRELOAD,
        auth = cbc_loop("auth_loop", "s2", "s3"),
        payload = cbc_loop("pay_loop", "s0", "s1"),
        xput = op("XPUT2"),
        epilogue = EPILOGUE,
    )
}

/// The CTR-half loop registers: s8=FAES1, s9=SAES0, sA=XOR_3_1, sB=STORE1,
/// sC=INC0, sD=LOAD3 (+ sE=XPUT1 for decrypt). The GCM discipline applies:
/// `FAES → SAES` back-to-back keeps the AES engine saturated (49/block);
/// everything else hides inside the 44-cycle window.
const CTR_HALF_PRELOAD: &str = "
        LOAD  s8, FAES1
        LOAD  s9, SAES0
        LOAD  sA, XOR_3_1
        LOAD  sB, STORE1
        LOAD  sC, INC0
        LOAD  sD, LOAD3
";

/// Shared CTR-half loop body (optionally forwarding pt over the inter-core
/// port). The final iteration's `LOAD @3` fetches the trailing CTR0 copy.
fn ctr_half_loop(xput_pt: bool) -> String {
    let xput = if xput_pt {
        "        OUTPUT sE, CU\n        HALT  DISABLE\n"
    } else {
        ""
    };
    format!(
        "
        ; pipeline preamble: ctr_1, start AES, ctr_2, fetch block_1
        OUTPUT sC, CU
        HALT  DISABLE
        OUTPUT s9, CU
        HALT  DISABLE
        OUTPUT sC, CU
        HALT  DISABLE
        OUTPUT sD, CU
        HALT  DISABLE
main_loop:
{mask_last}        OUTPUT s8, CU
        HALT  DISABLE
        OUTPUT s9, CU
        HALT  DISABLE
        OUTPUT sA, CU
        HALT  DISABLE
        OUTPUT sB, CU
        HALT  DISABLE
{xput}        OUTPUT sC, CU
        HALT  DISABLE
        OUTPUT sD, CU
        HALT  DISABLE
{loop_bottom}",
        mask_last = mask_if_last(),
        loop_bottom = count_loop_bottom("main_loop"),
    )
}

fn ccm2_ctr_enc_source() -> String {
    format!(
        "{prelude}
start:
{counts}{mask_all}{load_ctr0}{preload}
        LOAD  s4, s0
        OR    s4, s1
        JUMP  Z, fin_load
{loop_body}        JUMP  finalize
fin_load:
{load_ctr0_tail}finalize:
{mask_all2}{xget_mac}{saes_tagks}{faes_tagks}{tag_xor}{store_tag}        CALL  quiesce
        LOAD  s6, ROK
        OUTPUT s6, RESULT
{epilogue}",
        prelude = prelude(),
        counts = LOAD_COUNTS,
        mask_all = MASK_ALL,
        load_ctr0 = op("LOAD0"),
        preload = CTR_HALF_PRELOAD,
        loop_body = ctr_half_loop(false),
        load_ctr0_tail = op("LOAD3"),
        mask_all2 = MASK_ALL,
        xget_mac = op("XGET2"),   // mac from the CBC half (left neighbour)
        saes_tagks = op("SAES3"), // E(ctr0) — @3 holds the trailing CTR0
        faes_tagks = op("FAES1"),
        tag_xor = op("XOR_2_1"),
        store_tag = op("STORE1"),
        epilogue = EPILOGUE,
    )
}

fn ccm2_ctr_dec_source() -> String {
    format!(
        "{prelude}
start:
{counts}{mask_all}{load_ctr0}{preload}
        LOAD  sE, XPUT1
        LOAD  s4, s0
        OR    s4, s1
        JUMP  Z, fin
{loop_body}fin:
        CALL  quiesce
        LOAD  s6, ROK
        OUTPUT s6, RESULT
{epilogue}",
        prelude = prelude(),
        counts = LOAD_COUNTS,
        mask_all = MASK_ALL,
        load_ctr0 = op("LOAD0"),
        preload = CTR_HALF_PRELOAD,
        loop_body = ctr_half_loop(true),
        epilogue = EPILOGUE,
    )
}

fn ccm2_cbc_dec_source() -> String {
    format!(
        "{prelude}
start:
{counts}{mask_all}{zero_mac}{cbc_preload}{auth}
        ; switch the CBC data source to the inter-core port for the
        ; plaintext blocks the CTR half forwards
{xget_preload}{payload}finalize:
{load_ctr0}{saes_tagks}{faes_tagks}{tag_xor}{compare}{epilogue}",
        prelude = prelude(),
        counts = LOAD_COUNTS,
        mask_all = MASK_ALL,
        zero_mac = op("XOR_2_2"),
        cbc_preload = CBC_PRELOAD,
        auth = cbc_loop("auth_loop", "s2", "s3"),
        xget_preload = CBC_PRELOAD_XGET,
        payload = cbc_loop("pay_loop", "s0", "s1"),
        load_ctr0 = op("LOAD3"),
        saes_tagks = op("SAES3"),
        faes_tagks = op("FAES1"),
        tag_xor = op("XOR_2_1"),
        compare = tag_compare_and_result(),
        epilogue = EPILOGUE,
    )
}

fn ctr_source() -> String {
    // Plain CTR (SP 800-38A) starts the keystream at CTR0 itself, so the
    // pipeline preamble differs from the CCM half: SAES first, then INC.
    // The stream carries one trailing pad block for the final prefetch.
    format!(
        "{prelude}
start:
{counts}{mask_all}{load_ctr0}{preload}
        LOAD  s4, s0
        OR    s4, s1
        JUMP  Z, fin
        OUTPUT s9, CU
        HALT  DISABLE
        OUTPUT sC, CU
        HALT  DISABLE
        OUTPUT sD, CU
        HALT  DISABLE
main_loop:
{mask_last}        OUTPUT s8, CU
        HALT  DISABLE
        OUTPUT s9, CU
        HALT  DISABLE
        OUTPUT sA, CU
        HALT  DISABLE
        OUTPUT sB, CU
        HALT  DISABLE
        OUTPUT sC, CU
        HALT  DISABLE
        OUTPUT sD, CU
        HALT  DISABLE
{loop_bottom}fin:
        CALL  quiesce
        LOAD  s6, ROK
        OUTPUT s6, RESULT
{epilogue}",
        prelude = prelude(),
        counts = LOAD_COUNTS,
        mask_all = MASK_ALL,
        load_ctr0 = op("LOAD0"),
        preload = CTR_HALF_PRELOAD,
        mask_last = mask_if_last(),
        loop_bottom = count_loop_bottom("main_loop"),
        epilogue = EPILOGUE,
    )
}

fn cbc_mac_source() -> String {
    format!(
        "{prelude}
start:
{counts}{mask_all}{zero_mac}{cbc_preload}{data}{store_mac}        CALL  quiesce
        LOAD  s6, ROK
        OUTPUT s6, RESULT
{epilogue}",
        prelude = prelude(),
        counts = LOAD_COUNTS,
        mask_all = MASK_ALL,
        zero_mac = op("XOR_2_2"),
        cbc_preload = CBC_PRELOAD,
        data = cbc_loop("data_loop", "s0", "s1"),
        store_mac = op("STORE2"),
        epilogue = EPILOGUE,
    )
}

/// Assembly source for one firmware program.
pub fn source(id: FirmwareId) -> String {
    match id {
        FirmwareId::GcmEnc => gcm_enc_source(),
        FirmwareId::GcmDec => gcm_dec_source(),
        FirmwareId::Ccm1Enc => ccm1_enc_source(),
        FirmwareId::Ccm1Dec => ccm1_dec_source(),
        FirmwareId::Ccm2CbcEnc => ccm2_cbc_enc_source(),
        FirmwareId::Ccm2CtrEnc => ccm2_ctr_enc_source(),
        FirmwareId::Ccm2CtrDec => ccm2_ctr_dec_source(),
        FirmwareId::Ccm2CbcDec => ccm2_cbc_dec_source(),
        FirmwareId::Ctr => ctr_source(),
        FirmwareId::CbcMac => cbc_mac_source(),
    }
}

/// All firmware programs, assembled and predecoded — the images the Task
/// Scheduler loads into a core's (shared) instruction memory when
/// retargeting it. The firmware is fixed, so the library is built once
/// per process ([`shared`](Self::shared)) and every core of every engine
/// loads the same predecoded [`Rom`]s.
pub struct FirmwareLibrary {
    /// Indexed by `FirmwareId as usize` (the order of [`FirmwareId::ALL`]).
    programs: Vec<(Program, Arc<Rom>)>,
}

impl FirmwareLibrary {
    /// The process-wide library, assembled on first use.
    ///
    /// # Panics
    /// Panics if any firmware fails to assemble — a build-time invariant.
    pub fn shared() -> &'static FirmwareLibrary {
        static LIBRARY: OnceLock<FirmwareLibrary> = OnceLock::new();
        LIBRARY.get_or_init(|| {
            let programs = FirmwareId::ALL
                .iter()
                .map(|&id| {
                    let program = assemble(&source(id))
                        .unwrap_or_else(|e| panic!("firmware {id:?} failed to assemble: {e}"));
                    let rom = Arc::new(Rom::new(program.image()));
                    (program, rom)
                })
                .collect();
            FirmwareLibrary { programs }
        })
    }

    /// The assembled image for a program.
    pub fn image(&self, id: FirmwareId) -> &[u32] {
        self.programs[id as usize].0.image()
    }

    /// The assembled program (with symbols) for inspection.
    pub fn program(&self, id: FirmwareId) -> &Program {
        &self.programs[id as usize].0
    }

    /// The predecoded instruction memory a core loads to run a program.
    pub fn rom(&self, id: FirmwareId) -> &Arc<Rom> {
        &self.programs[id as usize].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_firmware_assembles() {
        let lib = FirmwareLibrary::shared();
        for (i, id) in FirmwareId::ALL.into_iter().enumerate() {
            assert_eq!(id as usize, i, "ALL is in declaration order");
            let prog = lib.program(id);
            let n = prog.disassemble().len();
            assert!(n > 20, "{id:?} suspiciously small ({n} instructions)");
            assert!(n < 1024, "{id:?} overflows instruction memory");
        }
    }

    #[test]
    fn gcm_loop_fits_the_cycle_budget() {
        // The controller work per GCM main-loop iteration (counter and
        // mask-test interleaved into the pacing slots) must fit the
        // 49-cycle CU budget with margin, or the loop becomes
        // controller-bound and the paper's T_GCMloop = 49 is lost.
        let lib = FirmwareLibrary::shared();
        for id in [FirmwareId::GcmEnc, FirmwareId::GcmDec] {
            let prog = lib.program(id);
            let start = prog.label("main_loop").expect("label exists");
            let dis = prog.disassemble();
            let back_target = format!("JUMP NZ, 0x{start:03X}");
            let jump_back = dis
                .iter()
                .filter(|(addr, text)| *addr > start && *text == back_target)
                .map(|(addr, _)| *addr)
                .next()
                .expect("loop bottom exists");
            let body_len = (jump_back - start + 1) as u32;
            let controller_cycles = body_len * mccp_picoblaze::CYCLES_PER_INSTRUCTION;
            assert!(
                controller_cycles <= 49,
                "{id:?} loop body is {body_len} instructions = {controller_cycles} cycles > 49"
            );
        }
    }

    #[test]
    fn sources_reference_only_defined_constants() {
        // The assembler itself catches undefined symbols; this double-checks
        // that each program contains its terminal spin loop and result write.
        for id in FirmwareId::ALL {
            let src = source(id);
            assert!(src.contains("spin:"), "{id:?} missing epilogue");
            assert!(src.contains("OUTPUT s6, RESULT"), "{id:?} never reports");
        }
    }
}
