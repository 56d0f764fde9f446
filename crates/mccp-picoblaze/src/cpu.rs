//! The cycle-accurate controller simulator.
//!
//! Timing model (paper §IV.B): every instruction takes **two clock
//! cycles**. Architectural effects — register writes, flag updates, and the
//! `OUTPUT` write strobe the Cryptographic Unit's `start` input is wired to
//! — land on the instruction's *second* cycle. The custom `HALT`
//! instruction freezes the program counter until an external wake signal
//! (the CU's `done`) arrives; wake-up costs no extra cycles beyond the
//! normal fetch of the next instruction.

use crate::isa::{Cond, Instruction, Operand, ShiftOp};
use crate::{IMEM_DEPTH, INTERRUPT_VECTOR};
use std::sync::Arc;

/// The environment a controller is wired into: 8-bit port reads/writes.
pub trait PortIo {
    /// `INPUT sX, port` — combinational read of an input port.
    fn input(&mut self, port: u8) -> u8;

    /// `OUTPUT sX, port` — write strobe on the instruction's final cycle.
    fn output(&mut self, port: u8, value: u8);
}

/// A port environment that reads zero and discards writes.
pub struct NullPorts;

impl PortIo for NullPorts {
    fn input(&mut self, _port: u8) -> u8 {
        0
    }
    fn output(&mut self, _port: u8, _value: u8) {}
}

/// Call/interrupt stack depth (KCPSM3: 31 entries).
pub const STACK_DEPTH: usize = 31;

/// Scratchpad RAM size (KCPSM3: 64 bytes).
pub const SCRATCHPAD: usize = 64;

/// The contents of the 1024-word instruction memory, decoded once: `None`
/// marks an illegal word (executing it faults the controller). Share one
/// `Rom` per program image through an [`Arc`], so loading a program is a
/// reference-count bump and executing an instruction is an array read —
/// no copy of the image per load and no decode per executed instruction.
#[derive(Debug)]
pub struct Rom {
    code: [Option<Instruction>; IMEM_DEPTH],
}

impl Rom {
    /// Decodes an image of 18-bit words. The image is padded (with
    /// illegal words) or truncated to the 1024-word instruction memory.
    pub fn new(image: &[u32]) -> Self {
        let mut code = [None; IMEM_DEPTH];
        for (slot, &word) in code.iter_mut().zip(image) {
            *slot = Instruction::decode(word);
        }
        Rom { code }
    }

    /// The instruction at `pc` (wrapped to the memory depth).
    #[inline]
    fn fetch(&self, pc: u16) -> Option<Instruction> {
        self.code[pc as usize & (IMEM_DEPTH - 1)]
    }
}

/// The controller state.
#[derive(Clone)]
pub struct PicoBlaze {
    rom: Arc<Rom>,
    regs: [u8; 16],
    scratch: [u8; SCRATCHPAD],
    pc: u16,
    stack: Vec<u16>,
    zero: bool,
    carry: bool,
    /// Interrupt enable.
    ie: bool,
    /// Flags preserved across an interrupt (KCPSM3 shadow flags).
    shadow_flags: Option<(bool, bool)>,
    /// Pending interrupt request line.
    irq: bool,
    /// Sleeping after HALT until `wake` is asserted.
    sleeping: bool,
    /// Wake line (level-sensed when sleeping).
    wake: bool,
    /// Phase within the current instruction (0 = fetch, 1 = execute).
    phase: u32,
    /// Total cycles ticked.
    cycles: u64,
    /// Total instructions retired.
    retired: u64,
    /// Cycles spent asleep after a HALT, waiting for wake.
    sleep_cycles: u64,
    /// Set when the CPU executed an illegal/undecodable instruction.
    fault: bool,
}

impl PicoBlaze {
    /// Builds a controller around a program image (18-bit words). The image
    /// is padded/truncated to the 1024-word instruction memory.
    pub fn new(image: &[u32]) -> Self {
        PicoBlaze {
            rom: Arc::new(Rom::new(image)),
            regs: [0; 16],
            scratch: [0; SCRATCHPAD],
            pc: 0,
            stack: Vec::with_capacity(STACK_DEPTH),
            zero: false,
            carry: false,
            ie: false,
            shadow_flags: None,
            irq: false,
            sleeping: false,
            wake: false,
            phase: 0,
            cycles: 0,
            retired: 0,
            sleep_cycles: 0,
            fault: false,
        }
    }

    /// Replaces the program and resets the processor — the moral
    /// equivalent of reloading the shared instruction BRAM when the Task
    /// Scheduler re-targets a core to a different cipher mode.
    pub fn load_program(&mut self, rom: &Arc<Rom>) {
        self.rom = Arc::clone(rom);
        self.reset();
    }

    /// Synchronous reset (registers and scratchpad are *not* cleared on the
    /// real core; we clear architectural control state only).
    pub fn reset(&mut self) {
        self.pc = 0;
        self.stack.clear();
        self.zero = false;
        self.carry = false;
        self.ie = false;
        self.shadow_flags = None;
        self.irq = false;
        self.sleeping = false;
        self.wake = false;
        self.phase = 0;
        self.fault = false;
    }

    /// Register read (for tests and the Task Scheduler's return path).
    pub fn reg(&self, i: usize) -> u8 {
        self.regs[i & 0xF]
    }

    /// Register write (used by test harnesses to seed parameters).
    pub fn set_reg(&mut self, i: usize, v: u8) {
        self.regs[i & 0xF] = v;
    }

    /// Scratchpad read.
    pub fn scratch(&self, addr: usize) -> u8 {
        self.scratch[addr % SCRATCHPAD]
    }

    /// Current program counter.
    pub fn pc(&self) -> u16 {
        self.pc
    }

    /// True when sleeping after a HALT.
    pub fn is_sleeping(&self) -> bool {
        self.sleeping
    }

    /// True after an illegal instruction or stack violation.
    pub fn is_faulted(&self) -> bool {
        self.fault
    }

    /// Drives the fault flag externally — the fault-injection plane's
    /// "wedged controller" model. The CPU stops executing exactly as it
    /// would after an illegal instruction; only [`reset`](Self::reset)
    /// (or a program reload) clears it.
    pub fn inject_fault(&mut self) {
        self.fault = true;
        self.sleeping = false;
    }

    /// Zero flag.
    pub fn flag_zero(&self) -> bool {
        self.zero
    }

    /// Carry flag.
    pub fn flag_carry(&self) -> bool {
        self.carry
    }

    /// Total cycles ticked so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total instructions retired.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Cycles spent asleep in HALT (cumulative, like [`cycles`] and
    /// [`retired`]; `cycles - sleep_cycles` is the active cycle count).
    ///
    /// [`cycles`]: PicoBlaze::cycles
    /// [`retired`]: PicoBlaze::retired
    pub fn sleep_cycles(&self) -> u64 {
        self.sleep_cycles
    }

    /// Asserts or deasserts the interrupt request line.
    pub fn set_irq(&mut self, level: bool) {
        self.irq = level;
    }

    /// Deposits a wake token (the CU `done` pulse). Token semantics make
    /// the done-before-HALT race benign, as in the hardware handshake: a
    /// `HALT` executed after `done` already pulsed falls straight through,
    /// consuming the token. `set_wake(false)` explicitly clears a pending
    /// token (reset path only).
    pub fn set_wake(&mut self, level: bool) {
        if level {
            self.wake = true;
            if self.sleeping {
                self.sleeping = false;
                self.wake = false;
            }
        } else {
            self.wake = false;
        }
    }

    fn operand(&self, op: Operand) -> u8 {
        match op {
            Operand::Reg(r) => self.regs[r as usize & 0xF],
            Operand::Imm(k) => k,
        }
    }

    fn cond_met(&self, c: Cond) -> bool {
        match c {
            Cond::Always => true,
            Cond::Zero => self.zero,
            Cond::NotZero => !self.zero,
            Cond::Carry => self.carry,
            Cond::NotCarry => !self.carry,
        }
    }

    /// Advances one clock cycle against the given port environment.
    pub fn tick<P: PortIo>(&mut self, ports: &mut P) {
        self.cycles += 1;
        if self.fault {
            return;
        }
        if self.sleeping {
            if self.wake {
                self.sleeping = false;
                self.wake = false;
            } else {
                self.sleep_cycles += 1;
                return;
            }
        }
        if self.phase == 0 {
            // Fetch cycle. Interrupts are taken at instruction boundaries.
            if self.ie && self.irq {
                if self.stack.len() == STACK_DEPTH {
                    self.fault = true;
                    return;
                }
                self.stack.push(self.pc);
                self.shadow_flags = Some((self.zero, self.carry));
                self.pc = INTERRUPT_VECTOR;
                self.ie = false;
            }
            self.phase = 1;
            return;
        }
        // Execute cycle.
        self.phase = 0;
        let Some(ins) = self.rom.fetch(self.pc) else {
            self.fault = true;
            return;
        };
        self.retired += 1;
        let mut next_pc = self.pc.wrapping_add(1) & 0x3FF;
        match ins {
            Instruction::Load(x, o) => {
                self.regs[x as usize] = self.operand(o);
            }
            Instruction::And(x, o) => {
                let v = self.regs[x as usize] & self.operand(o);
                self.regs[x as usize] = v;
                self.zero = v == 0;
                self.carry = false;
            }
            Instruction::Or(x, o) => {
                let v = self.regs[x as usize] | self.operand(o);
                self.regs[x as usize] = v;
                self.zero = v == 0;
                self.carry = false;
            }
            Instruction::Xor(x, o) => {
                let v = self.regs[x as usize] ^ self.operand(o);
                self.regs[x as usize] = v;
                self.zero = v == 0;
                self.carry = false;
            }
            Instruction::Add(x, o) => {
                let (v, c) = self.regs[x as usize].overflowing_add(self.operand(o));
                self.regs[x as usize] = v;
                self.zero = v == 0;
                self.carry = c;
            }
            Instruction::AddCy(x, o) => {
                let cin = self.carry as u16;
                let sum = self.regs[x as usize] as u16 + self.operand(o) as u16 + cin;
                self.regs[x as usize] = sum as u8;
                self.zero = (sum as u8) == 0;
                self.carry = sum > 0xFF;
            }
            Instruction::Sub(x, o) => {
                let (v, b) = self.regs[x as usize].overflowing_sub(self.operand(o));
                self.regs[x as usize] = v;
                self.zero = v == 0;
                self.carry = b;
            }
            Instruction::SubCy(x, o) => {
                let bin = self.carry as i16;
                let diff = self.regs[x as usize] as i16 - self.operand(o) as i16 - bin;
                self.regs[x as usize] = diff as u8;
                self.zero = (diff as u8) == 0;
                self.carry = diff < 0;
            }
            Instruction::Compare(x, o) => {
                let (v, b) = self.regs[x as usize].overflowing_sub(self.operand(o));
                self.zero = v == 0;
                self.carry = b;
            }
            Instruction::Test(x, o) => {
                let v = self.regs[x as usize] & self.operand(o);
                self.zero = v == 0;
                self.carry = v.count_ones() % 2 == 1;
            }
            Instruction::Shift(x, op) => {
                let r = self.regs[x as usize];
                let (v, c) = match op {
                    ShiftOp::Sl0 => (r << 1, r & 0x80 != 0),
                    ShiftOp::Sl1 => ((r << 1) | 1, r & 0x80 != 0),
                    ShiftOp::Slx => ((r << 1) | (r & 1), r & 0x80 != 0),
                    ShiftOp::Sla => ((r << 1) | self.carry as u8, r & 0x80 != 0),
                    ShiftOp::Rl => (r.rotate_left(1), r & 0x80 != 0),
                    ShiftOp::Sr0 => (r >> 1, r & 1 != 0),
                    ShiftOp::Sr1 => ((r >> 1) | 0x80, r & 1 != 0),
                    ShiftOp::Srx => ((r >> 1) | (r & 0x80), r & 1 != 0),
                    ShiftOp::Sra => ((r >> 1) | ((self.carry as u8) << 7), r & 1 != 0),
                    ShiftOp::Rr => (r.rotate_right(1), r & 1 != 0),
                };
                self.regs[x as usize] = v;
                self.zero = v == 0;
                self.carry = c;
            }
            Instruction::Input(x, o) => {
                let port = self.operand(o);
                self.regs[x as usize] = ports.input(port);
            }
            Instruction::Output(x, o) => {
                let port = self.operand(o);
                ports.output(port, self.regs[x as usize]);
            }
            Instruction::Store(x, o) => {
                let addr = self.operand(o) as usize % SCRATCHPAD;
                self.scratch[addr] = self.regs[x as usize];
            }
            Instruction::Fetch(x, o) => {
                let addr = self.operand(o) as usize % SCRATCHPAD;
                self.regs[x as usize] = self.scratch[addr];
            }
            Instruction::Jump(c, a) => {
                if self.cond_met(c) {
                    next_pc = a & 0x3FF;
                }
            }
            Instruction::Call(c, a) => {
                if self.cond_met(c) {
                    if self.stack.len() == STACK_DEPTH {
                        self.fault = true;
                        return;
                    }
                    self.stack.push(next_pc);
                    next_pc = a & 0x3FF;
                }
            }
            Instruction::Return(c) => {
                if self.cond_met(c) {
                    match self.stack.pop() {
                        Some(addr) => next_pc = addr,
                        None => {
                            self.fault = true;
                            return;
                        }
                    }
                }
            }
            Instruction::ReturnI(enable) => {
                match self.stack.pop() {
                    Some(addr) => next_pc = addr,
                    None => {
                        self.fault = true;
                        return;
                    }
                }
                if let Some((z, c)) = self.shadow_flags.take() {
                    self.zero = z;
                    self.carry = c;
                }
                self.ie = enable;
            }
            Instruction::SetInterrupt(enable) => {
                self.ie = enable;
            }
            Instruction::Halt(enable) => {
                self.ie = enable;
                if self.wake {
                    // The done pulse beat us to the HALT: consume the token
                    // and fall straight through.
                    self.wake = false;
                } else {
                    self.sleeping = true;
                }
            }
        }
        self.pc = next_pc;
    }

    /// Conservative fast-forward horizon (see `mccp_sim::Clocked`): how many
    /// upcoming ticks have no architectural effect beyond cycle counting.
    ///
    /// `wake_incoming` is the level the environment will drive onto the wake
    /// line each tick (the CU's `can_strobe`, in a core). Three states are
    /// quiescent indefinitely: a faulted CPU, a sleeping CPU whose wake line
    /// stays low, and a CPU spinning on an unconditional jump-to-self (the
    /// firmware epilogue) with no interrupt pending. Everything else is
    /// executing and must be stepped per-tick.
    pub fn quiescent_for(&self, wake_incoming: bool) -> u64 {
        if self.fault {
            return u64::MAX;
        }
        if self.sleeping {
            return if wake_incoming { 0 } else { u64::MAX };
        }
        if let Some(Instruction::Jump(Cond::Always, addr)) = self.rom.fetch(self.pc) {
            if addr & 0x3FF == self.pc & 0x3FF && !(self.ie && self.irq) {
                return u64::MAX;
            }
        }
        0
    }

    /// Advances `n` cycles at once. Only valid when the CPU just reported
    /// `quiescent_for(..) >= n`: asleep it accrues sleep time, spinning it
    /// retires the self-jump every second cycle, faulted it only counts.
    pub fn skip(&mut self, n: u64) {
        self.cycles += n;
        if self.fault || n == 0 {
            return;
        }
        if self.sleeping {
            self.sleep_cycles += n;
            return;
        }
        // Spinning on the self-jump: the execute phase lands on every
        // second cycle, exactly as per-tick stepping would retire it.
        self.retired += (n + self.phase as u64) / 2;
        self.phase = ((self.phase as u64 + n) % 2) as u32;
    }

    /// Runs until the CPU sleeps, faults, or `max_cycles` elapse. Returns
    /// the number of cycles consumed.
    pub fn run_until_sleep<P: PortIo>(&mut self, ports: &mut P, max_cycles: u64) -> u64 {
        let start = self.cycles;
        while !self.sleeping && !self.fault && self.cycles - start < max_cycles {
            self.tick(ports);
        }
        self.cycles - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::CYCLES_PER_INSTRUCTION;

    fn run(src: &str, cycles: u64) -> PicoBlaze {
        let p = assemble(src).unwrap();
        let mut cpu = PicoBlaze::new(p.image());
        let mut ports = NullPorts;
        for _ in 0..cycles {
            cpu.tick(&mut ports);
        }
        cpu
    }

    #[test]
    fn two_cycles_per_instruction() {
        let cpu = run("LOAD s0, 0x01\nLOAD s1, 0x02\nhalt_loop: JUMP halt_loop", 4);
        assert_eq!(cpu.retired(), CYCLES_PER_INSTRUCTION as u64 * 4 / 4);
        assert_eq!(cpu.reg(0), 1);
        assert_eq!(cpu.reg(1), 2);
    }

    #[test]
    fn sleep_cycles_count_halt_wait_only() {
        // LOAD (2 cycles), HALT executes (2 cycles), then the CPU sleeps.
        let p = assemble("LOAD s0, 0x01\nHALT DISABLE\nend: JUMP end").unwrap();
        let mut cpu = PicoBlaze::new(p.image());
        let mut ports = NullPorts;
        for _ in 0..24 {
            cpu.tick(&mut ports);
        }
        assert!(cpu.is_sleeping());
        assert_eq!(cpu.sleep_cycles(), 24 - 4, "every post-HALT cycle slept");
        // Wake; subsequent active cycles must not accrue sleep time.
        cpu.set_wake(true);
        for _ in 0..6 {
            cpu.tick(&mut ports);
        }
        assert!(!cpu.is_sleeping());
        assert_eq!(cpu.sleep_cycles(), 20);
        assert_eq!(cpu.cycles(), 30);
    }

    #[test]
    fn arithmetic_and_flags() {
        let cpu = run(
            "LOAD s0, 0xFF\nADD s0, 0x01\nJUMP 0x002", // 0xFF + 1 = 0 carry
            6,
        );
        assert_eq!(cpu.reg(0), 0);
        assert!(cpu.flag_zero());
        assert!(cpu.flag_carry());
    }

    #[test]
    fn addcy_chains_carry() {
        let cpu = run(
            "LOAD s0, 0xFF\nLOAD s1, 0x00\nADD s0, 0x01\nADDCY s1, 0x00\nend: JUMP end",
            10,
        );
        assert_eq!(cpu.reg(0), 0);
        assert_eq!(cpu.reg(1), 1); // carry propagated
    }

    #[test]
    fn sub_and_compare() {
        let cpu = run(
            "LOAD s0, 0x05\nSUB s0, 0x07\nend: JUMP end", // borrow
            6,
        );
        assert_eq!(cpu.reg(0), 0xFE);
        assert!(cpu.flag_carry());
        let cpu = run("LOAD s0, 0x09\nCOMPARE s0, 0x09\nend: JUMP end", 6);
        assert!(cpu.flag_zero());
        assert_eq!(cpu.reg(0), 9); // COMPARE doesn't write
    }

    #[test]
    fn test_sets_parity_carry() {
        let cpu = run("LOAD s0, 0x07\nTEST s0, 0xFF\nend: JUMP end", 6);
        assert!(!cpu.flag_zero());
        assert!(cpu.flag_carry()); // 3 bits set = odd parity
    }

    #[test]
    fn shifts() {
        let cpu = run("LOAD s0, 0x81\nRL s0\nend: JUMP end", 6);
        assert_eq!(cpu.reg(0), 0x03);
        assert!(cpu.flag_carry());
        let cpu = run("LOAD s0, 0x81\nSR0 s0\nend: JUMP end", 6);
        assert_eq!(cpu.reg(0), 0x40);
        assert!(cpu.flag_carry());
    }

    #[test]
    fn call_and_return() {
        let cpu = run(
            "CALL sub\nLOAD s1, 0xAA\nend: JUMP end\nsub: LOAD s0, 0x55\nRETURN",
            12,
        );
        assert_eq!(cpu.reg(0), 0x55);
        assert_eq!(cpu.reg(1), 0xAA);
    }

    #[test]
    fn conditional_jump_loop() {
        // Count down from 3.
        let cpu = run(
            "LOAD s0, 0x03\nloop: SUB s0, 0x01\nJUMP NZ, loop\nend: JUMP end",
            20,
        );
        assert_eq!(cpu.reg(0), 0);
        assert!(cpu.flag_zero());
    }

    #[test]
    fn scratchpad_store_fetch() {
        let cpu = run(
            "LOAD s0, 0xBE\nSTORE s0, 0x10\nLOAD s0, 0x00\nFETCH s1, 0x10\nend: JUMP end",
            12,
        );
        assert_eq!(cpu.reg(1), 0xBE);
        assert_eq!(cpu.scratch(0x10), 0xBE);
    }

    #[test]
    fn indirect_store_fetch() {
        let cpu = run(
            "LOAD s0, 0x2A\nLOAD s1, 0x05\nSTORE s0, (s1)\nFETCH s2, (s1)\nend: JUMP end",
            12,
        );
        assert_eq!(cpu.reg(2), 0x2A);
    }

    #[test]
    fn halt_sleeps_until_wake() {
        let p = assemble("LOAD s0, 0x01\nHALT DISABLE\nLOAD s0, 0x02\nend: JUMP end").unwrap();
        let mut cpu = PicoBlaze::new(p.image());
        let mut ports = NullPorts;
        for _ in 0..20 {
            cpu.tick(&mut ports);
        }
        assert!(cpu.is_sleeping());
        assert_eq!(cpu.reg(0), 1);
        cpu.set_wake(true);
        cpu.set_wake(false); // pulse
        for _ in 0..4 {
            cpu.tick(&mut ports);
        }
        assert!(!cpu.is_sleeping());
        assert_eq!(cpu.reg(0), 2);
    }

    #[test]
    fn halt_with_wake_already_high_falls_through() {
        let p = assemble("HALT DISABLE\nLOAD s0, 0x09\nend: JUMP end").unwrap();
        let mut cpu = PicoBlaze::new(p.image());
        cpu.set_wake(true);
        let mut ports = NullPorts;
        for _ in 0..6 {
            cpu.tick(&mut ports);
        }
        assert_eq!(cpu.reg(0), 9);
    }

    #[test]
    fn interrupts_vector_and_preserve_flags() {
        // Main: set carry, loop. ISR at 0x3FF jumps to handler that stores
        // a marker and RETURNIs.
        let src = "
            LOAD s0, 0xFF
            ADD s0, 0x01      ; sets carry + zero
            ENABLE INTERRUPT
            main: JUMP main
            ADDRESS 0x300
            handler:
            LOAD s1, 0x77
            XOR s2, 0xFF      ; clobber flags inside ISR
            RETURNI ENABLE
            ADDRESS 0x3FF
            JUMP handler
        ";
        let p = assemble(src).unwrap();
        let mut cpu = PicoBlaze::new(p.image());
        let mut ports = NullPorts;
        for _ in 0..8 {
            cpu.tick(&mut ports);
        }
        assert!(cpu.flag_carry() && cpu.flag_zero());
        cpu.set_irq(true);
        for _ in 0..2 {
            cpu.tick(&mut ports);
        }
        cpu.set_irq(false);
        for _ in 0..10 {
            cpu.tick(&mut ports);
        }
        assert_eq!(cpu.reg(1), 0x77);
        // Flags restored by RETURNI.
        assert!(cpu.flag_carry() && cpu.flag_zero());
    }

    #[test]
    fn io_ports() {
        struct Echo {
            last: u8,
        }
        impl PortIo for Echo {
            fn input(&mut self, port: u8) -> u8 {
                port.wrapping_add(1)
            }
            fn output(&mut self, _port: u8, value: u8) {
                self.last = value;
            }
        }
        let p = assemble("INPUT s0, 0x10\nOUTPUT s0, 0x20\nend: JUMP end").unwrap();
        let mut cpu = PicoBlaze::new(p.image());
        let mut ports = Echo { last: 0 };
        for _ in 0..6 {
            cpu.tick(&mut ports);
        }
        assert_eq!(cpu.reg(0), 0x11);
        assert_eq!(ports.last, 0x11);
    }

    #[test]
    fn stack_overflow_faults() {
        let p = assemble("loop: CALL loop").unwrap();
        let mut cpu = PicoBlaze::new(p.image());
        let mut ports = NullPorts;
        for _ in 0..200 {
            cpu.tick(&mut ports);
        }
        assert!(cpu.is_faulted());
    }

    #[test]
    fn return_with_empty_stack_faults() {
        let p = assemble("RETURN").unwrap();
        let mut cpu = PicoBlaze::new(p.image());
        let mut ports = NullPorts;
        for _ in 0..4 {
            cpu.tick(&mut ports);
        }
        assert!(cpu.is_faulted());
    }

    #[test]
    fn fibonacci_program() {
        // Compute fib(10) = 55 iteratively.
        let src = "
            LOAD s0, 0x00     ; a
            LOAD s1, 0x01     ; b
            LOAD s2, 0x0A     ; n = 10
            loop:
            LOAD s3, s1       ; t = b
            ADD  s1, s0       ; b = a + b
            LOAD s0, s3       ; a = t
            SUB  s2, 0x01
            JUMP NZ, loop
            end: JUMP end
        ";
        let cpu = run(src, 300);
        assert_eq!(cpu.reg(0), 55);
    }
}
