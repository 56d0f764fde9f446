//! A Cryptographic Core: the 8-bit controller, the Cryptographic Unit, the
//! packet FIFO pair and the parameter/result registers (paper Fig. 2),
//! glued together in lock step.

use crate::firmware::{in_port, out_port, FirmwareId, FirmwareLibrary};
use crate::key::KeyCache;
use mccp_aes::key_schedule::RoundKeys;
use mccp_cryptounit::{CipherEngine, CryptoUnit, CuIo};
use mccp_picoblaze::{PicoBlaze, PortIo};
use mccp_sim::HwFifo;

/// Firmware parameter bank: one byte per input port 0x01..=0x08
/// (`[np_lo, np_hi, na_lo, na_hi, pm_lo, pm_hi, tm_lo, tm_hi]`).
pub type ParamBank = [u8; 8];

/// What the reconfigurable Cryptographic Unit region currently contains
/// (paper §VII.B / Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Personality {
    /// The AES + GHASH unit running the block-cipher-mode firmware.
    AesUnit,
    /// The Twofish + GHASH unit (paper §IX: "AES core may be easily
    /// replaced by any other 128-bit block cipher (such as Twofish)").
    /// Runs the *same* firmware — the CU ISA is cipher-agnostic.
    TwofishUnit,
    /// The Whirlpool hash core (alternative bitstream).
    WhirlpoolUnit,
}

impl Personality {
    /// True if this personality executes the block-cipher-mode firmware.
    pub fn runs_mode_firmware(self) -> bool {
        matches!(self, Personality::AesUnit | Personality::TwofishUnit)
    }

    /// Static name, identical to the `Debug` rendering but allocation-free
    /// for hot telemetry paths.
    pub fn name(self) -> &'static str {
        match self {
            Personality::AesUnit => "AesUnit",
            Personality::TwofishUnit => "TwofishUnit",
            Personality::WhirlpoolUnit => "WhirlpoolUnit",
        }
    }
}

/// One Cryptographic Core.
pub struct CryptoCore {
    pub id: usize,
    cpu: PicoBlaze,
    cu: CryptoUnit,
    pub input: HwFifo,
    pub output: HwFifo,
    pub key_cache: KeyCache,
    params: ParamBank,
    result: Option<u8>,
    running: bool,
    /// Claimed by the Task Scheduler for a request whose key expansion is
    /// still in flight (allocated but not yet started).
    reserved: bool,
    firmware: Option<FirmwareId>,
    personality: Personality,
    wipes: u64,
    busy_cycles: u64,
    /// Remaining cycles of an injected clock stall: while positive the
    /// whole core — controller, CU and FIFO clocks — is frozen.
    stall: u64,
    /// Cycle at which the watchdog quarantined this core, if it has been.
    /// A quarantined core is skipped by the dispatcher until
    /// [`hard_reset`](Self::hard_reset) clears it.
    quarantined: Option<u64>,
}

impl CryptoCore {
    /// A fresh core with FIFOs of `fifo_depth` 32-bit words (512 in the
    /// paper's configuration).
    pub fn new(id: usize, fifo_depth: usize) -> Self {
        CryptoCore {
            id,
            cpu: PicoBlaze::new(&[]),
            cu: CryptoUnit::new(),
            input: HwFifo::new(fifo_depth),
            output: HwFifo::new(fifo_depth),
            key_cache: KeyCache::default(),
            params: [0; 8],
            result: None,
            running: false,
            reserved: false,
            firmware: None,
            personality: Personality::AesUnit,
            wipes: 0,
            busy_cycles: 0,
            stall: 0,
            quarantined: None,
        }
    }

    /// True when the core can accept a new task. Quarantined cores are
    /// never idle — the dispatcher must not allocate onto them.
    pub fn is_idle(&self) -> bool {
        !self.running && !self.reserved && self.quarantined.is_none()
    }

    /// Claims the core for a request before its firmware starts (the Task
    /// Scheduler allocates at ENCRYPT/DECRYPT time, §III.C).
    pub fn reserve(&mut self) {
        self.reserved = true;
    }

    /// The firmware currently loaded.
    pub fn firmware(&self) -> Option<FirmwareId> {
        self.firmware
    }

    /// The reconfigurable region's current contents.
    pub fn personality(&self) -> Personality {
        self.personality
    }

    /// Swaps the reconfigurable region (partial reconfiguration). Wipes
    /// all datapath state — a reconfiguration must never leak key material
    /// between personalities.
    pub fn set_personality(&mut self, p: Personality) {
        self.personality = p;
        self.cu.reset();
        self.key_cache.wipe();
        self.running = false;
        self.result = None;
        self.firmware = None;
    }

    /// Installs round keys into the Cryptographic Unit (from the Key
    /// Scheduler via the Key Cache).
    pub fn load_round_keys(&mut self, keys: RoundKeys) {
        self.cu.load_round_keys(keys);
    }

    /// Installs an arbitrary cipher engine (AES or Twofish) into the CU.
    pub fn load_engine(&mut self, engine: CipherEngine) {
        self.cu.load_engine(engine);
    }

    /// Loads a firmware program (the shared, predecoded image of
    /// [`FirmwareLibrary::shared`]) and task parameters, then starts the
    /// controller (the Task Scheduler's per-task setup, §VI.B).
    ///
    /// # Panics
    /// Panics if the core is reconfigured to a non-block-cipher personality.
    pub fn start(&mut self, firmware: FirmwareId, params: ParamBank) {
        assert!(
            self.personality.runs_mode_firmware(),
            "core {} is reconfigured to {:?}; cannot run block-cipher firmware",
            self.id,
            self.personality
        );
        self.cpu
            .load_program(FirmwareLibrary::shared().rom(firmware));
        self.params = params;
        self.result = None;
        self.running = true;
        self.reserved = false;
        self.firmware = Some(firmware);
    }

    /// The latched result code, once the firmware reports.
    pub fn result(&self) -> Option<u8> {
        self.result
    }

    /// Acknowledges a finished task and returns the core to idle.
    pub fn finish(&mut self) -> Option<u8> {
        let r = self.result.take();
        self.running = false;
        self.reserved = false;
        self.firmware = None;
        r
    }

    /// Times the output FIFO was wiped by the auth-failure defense.
    pub fn wipes(&self) -> u64 {
        self.wipes
    }

    /// Cycles spent with a task loaded.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// True if either the controller or the CU flagged a fault.
    pub fn is_faulted(&self) -> bool {
        self.cpu.is_faulted() || self.cu.is_faulted()
    }

    /// Fault injection: wedges the controller mid-firmware (drives the
    /// PicoBlaze fault flag). Permanent until [`hard_reset`](Self::hard_reset).
    pub fn wedge(&mut self) {
        self.cpu.inject_fault();
    }

    /// Fault injection: freezes the core's clocks for `cycles` cycles.
    /// Stalls accumulate if injected while one is already in progress.
    pub fn stall(&mut self, cycles: u64) {
        self.stall = self.stall.saturating_add(cycles);
    }

    /// True while an injected clock stall is freezing the core.
    pub fn is_stalled(&self) -> bool {
        self.stall > 0
    }

    /// Quarantines the core at `cycle` (watchdog containment): the
    /// dispatcher treats it as permanently busy until a hard reset.
    pub fn quarantine(&mut self, cycle: u64) {
        self.quarantined = Some(cycle);
    }

    /// True while the core is fenced off from dispatch.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.is_some()
    }

    /// The cycle at which the core was quarantined, if it is.
    pub fn quarantined_at(&self) -> Option<u64> {
        self.quarantined
    }

    /// Full recovery reset: clears faults, stalls, quarantine, FIFOs, the
    /// key cache and any in-flight task. The core returns to the idle pool
    /// as if power-cycled; round keys must be re-expanded before reuse.
    pub fn hard_reset(&mut self) {
        self.cpu.reset();
        self.cu.reset();
        self.input.wipe();
        self.output.wipe();
        self.key_cache.wipe();
        self.result = None;
        self.running = false;
        self.reserved = false;
        self.firmware = None;
        self.stall = 0;
        self.quarantined = None;
    }

    /// Cryptographic Unit status (profiling/waveform introspection).
    pub fn cu_status(&self) -> mccp_cryptounit::CuStatus {
        self.cu.status()
    }

    /// Controller program counter (profiling/debug introspection).
    pub fn controller_pc(&self) -> u16 {
        self.cpu.pc()
    }

    /// Controller instructions retired (profiling/debug introspection).
    pub fn controller_retired(&self) -> u64 {
        self.cpu.retired()
    }

    /// True while the controller sleeps in a HALT (waiting on the CU).
    pub fn controller_sleeping(&self) -> bool {
        self.cpu.is_sleeping()
    }

    /// Cycles the controller has spent asleep in HALT (cumulative).
    pub fn controller_sleep_cycles(&self) -> u64 {
        self.cpu.sleep_cycles()
    }

    /// Cryptographic Unit retirements per ISA operation, indexed per
    /// `mccp_cryptounit::isa::MNEMONICS`.
    pub fn cu_op_counts(&self) -> &[u64; mccp_cryptounit::isa::OP_COUNT] {
        self.cu.op_counts()
    }

    /// Cycles this core's CU background AES engine spent computing.
    pub fn cu_aes_busy_cycles(&self) -> u64 {
        self.cu.aes_busy_cycles()
    }

    /// Cycles this core's CU background GHASH multiplier spent accumulating.
    pub fn cu_ghash_busy_cycles(&self) -> u64 {
        self.cu.ghash_busy_cycles()
    }

    /// Cycles a staged CU instruction waited on FIFO/mailbox resources.
    pub fn cu_fg_wait_cycles(&self) -> u64 {
        self.cu.fg_wait_cycles()
    }

    /// Conservative fast-forward horizon for the whole core (see
    /// `mccp_sim::Clocked`), given the occupancy of the inter-core
    /// mailboxes this core is wired to.
    pub fn quiescent_for(&self, from_left_full: bool, to_right_full: bool) -> u64 {
        // A stalled core is frozen solid: nothing observable happens until
        // the stall countdown runs out, so that span is exactly skippable.
        if self.stall > 0 {
            return self.stall;
        }
        // The controller first: while it executes it answers 0 at once.
        // The wake line is driven with `can_strobe` every tick; across a
        // quiescent span of the CU that level is frozen.
        let cpu = if self.running {
            self.cpu.quiescent_for(self.cu.can_strobe())
        } else {
            u64::MAX
        };
        if cpu == 0 {
            return 0;
        }
        cpu.min(self.cu.quiescent_for(
            self.input.len(),
            self.output.free(),
            from_left_full,
            to_right_full,
        ))
    }

    /// Advances the core `n` cycles at once. Only valid for `n` up to the
    /// horizon just reported by [`CryptoCore::quiescent_for`].
    pub fn skip(&mut self, n: u64) {
        // Burn any stalled cycles first: the core is frozen through them,
        // so wall-clock advances but no component state does.
        let stalled = n.min(self.stall);
        self.stall -= stalled;
        if self.running {
            self.busy_cycles += stalled;
        }
        let n = n - stalled;
        if n == 0 {
            return;
        }
        self.cu.skip(n);
        if self.running {
            self.busy_cycles += n;
            // Mirror the per-tick wake-line drive (a frozen level).
            self.cpu.set_wake(self.cu.can_strobe());
            self.cpu.skip(n);
        }
    }

    /// Advances the core one clock cycle. `from_left` / `to_right` are the
    /// inter-core mailboxes this core is wired to.
    pub fn tick(&mut self, from_left: &mut Option<[u8; 16]>, to_right: &mut Option<[u8; 16]>) {
        // 0. Injected clock stall: the whole core is frozen this cycle.
        if self.stall > 0 {
            self.stall -= 1;
            if self.running {
                self.busy_cycles += 1;
            }
            return;
        }
        // 1. Cryptographic Unit.
        {
            let mut io = CuIo {
                input: &mut self.input,
                output: &mut self.output,
                to_right,
                from_left,
            };
            self.cu.tick(&mut io);
        }
        if !self.running {
            return;
        }
        self.busy_cycles += 1;

        // 2. Controller wake line: level = "instruction port free".
        self.cpu.set_wake(self.cu.can_strobe());

        // 3. Controller step with the port adapter.
        let mut ports = CorePorts {
            cu: &mut self.cu,
            output_fifo: &mut self.output,
            params: &self.params,
            result: &mut self.result,
            wipes: &mut self.wipes,
        };
        self.cpu.tick(&mut ports);
    }
}

/// The controller's port fabric (Fig. 2's dashed control connections).
struct CorePorts<'a> {
    cu: &'a mut CryptoUnit,
    output_fifo: &'a mut HwFifo,
    params: &'a ParamBank,
    result: &'a mut Option<u8>,
    wipes: &'a mut u64,
}

impl PortIo for CorePorts<'_> {
    fn input(&mut self, port: u8) -> u8 {
        match port {
            in_port::CU_STATUS => self.cu.status().0,
            p @ 0x01..=0x08 => self.params[(p - 1) as usize],
            _ => 0,
        }
    }

    fn output(&mut self, port: u8, value: u8) {
        match port {
            out_port::CU_INSTR => self.cu.strobe(value),
            out_port::RESULT => *self.result = Some(value),
            out_port::WIPE => {
                self.output_fifo.wipe();
                *self.wipes += 1;
            }
            out_port::MASK_LO => {
                let m = self.cu.mask();
                self.cu.set_mask((m & 0xFF00) | value as u16);
            }
            out_port::MASK_HI => {
                let m = self.cu.mask();
                self.cu.set_mask((m & 0x00FF) | ((value as u16) << 8));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::result_code;

    fn params(np: u16, na: u16, pm: u16, tm: u16) -> ParamBank {
        [
            (np & 0xFF) as u8,
            (np >> 8) as u8,
            (na & 0xFF) as u8,
            (na >> 8) as u8,
            (pm & 0xFF) as u8,
            (pm >> 8) as u8,
            (tm & 0xFF) as u8,
            (tm >> 8) as u8,
        ]
    }

    /// Runs a single core to completion on the CBC-MAC firmware and checks
    /// the MAC against the reference implementation.
    #[test]
    fn cbc_mac_firmware_end_to_end() {
        let mut core = CryptoCore::new(0, 512);
        let key = [0x11u8; 16];
        core.load_round_keys(RoundKeys::expand(&key));

        let data: Vec<u8> = (0..64u8).collect();
        assert!(core.input.push_bytes(&data));
        core.start(FirmwareId::CbcMac, params(4, 0, 0xFFFF, 0xFFFF));

        let mut left = None;
        let mut right = None;
        for _ in 0..20_000 {
            core.tick(&mut left, &mut right);
            if core.result().is_some() {
                break;
            }
        }
        assert!(!core.is_faulted(), "core faulted");
        assert_eq!(core.result(), Some(result_code::OK));

        let aes = mccp_aes::Aes::new_128(&key);
        let expect = mccp_aes::modes::cbc_mac::cbc_mac_raw(&aes, &data).unwrap();
        let got = core.output.pop_bytes(16).unwrap();
        assert_eq!(got, expect.to_vec());
    }

    #[test]
    fn ctr_firmware_end_to_end() {
        let mut core = CryptoCore::new(0, 512);
        let key = [0x22u8; 16];
        core.load_round_keys(RoundKeys::expand(&key));

        let ctr0 = {
            let mut c = [0u8; 16];
            c[0] = 0xF0;
            c
        };
        let pt: Vec<u8> = (0..48u8).collect();
        assert!(core.input.push_bytes(&ctr0));
        assert!(core.input.push_bytes(&pt));
        // Trailing pad block for the firmware's pipelined final prefetch.
        assert!(core.input.push_bytes(&[0u8; 16]));
        core.start(FirmwareId::Ctr, params(3, 0, 0xFFFF, 0xFFFF));

        let (mut l, mut r) = (None, None);
        for _ in 0..20_000 {
            core.tick(&mut l, &mut r);
            if core.result().is_some() {
                break;
            }
        }
        assert!(!core.is_faulted());
        assert_eq!(core.result(), Some(result_code::OK));

        let aes = mccp_aes::Aes::new_128(&key);
        let mut expect = pt.clone();
        mccp_aes::modes::ctr::ctr_xcrypt(&aes, &ctr0, &mut expect).unwrap();
        let got = core.output.pop_bytes(48).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn reconfiguration_wipes_state() {
        let mut core = CryptoCore::new(1, 512);
        core.load_round_keys(RoundKeys::expand(&[1u8; 16]));
        core.set_personality(Personality::WhirlpoolUnit);
        assert_eq!(core.personality(), Personality::WhirlpoolUnit);
        assert!(core.is_idle());
        assert!(core.key_cache.cached_id().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot run block-cipher firmware")]
    fn start_on_whirlpool_personality_panics() {
        let mut core = CryptoCore::new(0, 512);
        core.set_personality(Personality::WhirlpoolUnit);
        core.start(FirmwareId::Ctr, params(1, 0, 0xFFFF, 0xFFFF));
    }

    /// The whole CBC-MAC firmware on a Twofish engine: the ISA really is
    /// cipher-agnostic (paper §IX).
    #[test]
    fn cbc_mac_firmware_runs_on_twofish() {
        use mccp_aes::twofish::Twofish;
        let mut core = CryptoCore::new(0, 512);
        core.set_personality(Personality::TwofishUnit);
        let key = [0x5Au8; 16];
        core.load_engine(CipherEngine::Twofish(Box::new(Twofish::new(&key))));

        let data: Vec<u8> = (0..64u8).collect();
        assert!(core.input.push_bytes(&data));
        core.start(FirmwareId::CbcMac, params(4, 0, 0xFFFF, 0xFFFF));
        let (mut l, mut r) = (None, None);
        for _ in 0..30_000 {
            core.tick(&mut l, &mut r);
            if core.result().is_some() {
                break;
            }
        }
        assert!(!core.is_faulted());
        let tf = Twofish::new(&key);
        let expect = mccp_aes::modes::cbc_mac::cbc_mac_raw(&tf, &data).unwrap();
        assert_eq!(core.output.pop_bytes(16).unwrap(), expect.to_vec());
    }
}
