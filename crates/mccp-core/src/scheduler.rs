//! The Task Scheduler's simulation half: the per-cycle state machine
//! (key waits, core starts, completion detection), the first-idle core
//! allocation policy (paper §III.C), and the event-driven fast path
//! (`quiescent_horizon` / `skip` and the `run_*` helpers).
//!
//! Split out of the `Mccp` monolith; every method here is an `impl Mccp`
//! block so the public API surface is unchanged.

use crate::core_unit::Personality;
use crate::fault::FaultKind;
use crate::firmware::result_code;
use crate::format::CoreJob;
use crate::format::Direction;
use crate::mccp::Mccp;
use crate::protocol::{ChannelId, MccpError, RequestId};
use mccp_telemetry::Event;

/// One in-flight request's scheduler state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReqState {
    /// Waiting on the Key Scheduler before the cores start.
    KeyWait(u32),
    Running,
    /// A pipeline request between stages: the next stage's personality has
    /// no idle core yet. Retried every active tick; contributes to the
    /// fast-forward horizon only when an eligible core is idle (the
    /// unblocking events — completions, reconfigurations — all land on
    /// active ticks, so the retry can never be leapt over).
    StageWait,
    /// A Whirlpool pipeline stage's modeled hash countdown; the digest is
    /// already computed (same `mccp-aes` code as the functional engine)
    /// and lands when the countdown expires, `left + 1` ticks out.
    Hashing {
        left: u64,
    },
    /// All cores reported and the output is resident (Data Available).
    Done {
        auth_ok: bool,
    },
    /// A detected fault or the watchdog terminated the request; no output
    /// will be produced (RETRIEVE_DATA returns the error).
    Failed {
        error: MccpError,
    },
    Retrieved,
}

pub(crate) struct Request {
    pub(crate) id: RequestId,
    pub(crate) channel: ChannelId,
    pub(crate) algorithm: crate::protocol::Algorithm,
    pub(crate) direction: Direction,
    /// Core indices, in pair order (left first).
    pub(crate) cores: Vec<usize>,
    pub(crate) producing_core: usize,
    pub(crate) payload_len: usize,
    pub(crate) tag_len: usize,
    pub(crate) expected_output: usize,
    /// Pending input bytes per core (streamed one word/cycle, modeling the
    /// 32-bit data bus).
    pub(crate) pending_input: Vec<crate::dma::PendingInput>,
    /// Firmware/params to load once the key is ready.
    pub(crate) jobs: Vec<(usize, CoreJob)>,
    /// Progressively drained output (only for oversize streaming requests).
    pub(crate) collected: Vec<u8>,
    pub(crate) streaming: bool,
    pub(crate) state: ReqState,
    pub(crate) start_cycle: u64,
    pub(crate) done_cycle: Option<u64>,
    pub(crate) signaled: bool,
    /// Watchdog deadline (absolute cycle); `None` when the watchdog is
    /// disarmed.
    pub(crate) deadline: Option<u64>,
    /// 1-based packet ordinal within the request's channel.
    pub(crate) sequence: u64,
    /// Pipeline-graph progress for multi-stage requests (`None` for the
    /// classic single-transform requests).
    pub(crate) pipeline: Option<crate::pipeline::PipelinePlan>,
    /// Key epoch the submission was accepted under: the completion is
    /// tagged with it, and a rekey never touches an in-flight request.
    pub(crate) epoch: u32,
    /// The session key the request was bound to at submission — the
    /// reference that keeps a retired key resident until the last
    /// old-epoch packet drains.
    pub(crate) key: crate::protocol::KeyId,
}

/// The request table: every accepted request until TRANSFER_DONE, sorted by
/// id in one dense vector. The per-tick walks iterate a slice in ascending
/// id order (the order a `BTreeMap` would give, so the schedule is the
/// same) and lookups binary-search the handful of entries an engine holds.
#[derive(Default)]
pub(crate) struct RequestTable {
    slots: Vec<Request>,
}

impl RequestTable {
    fn position(&self, id: u16) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&id, |r| r.id.0)
    }

    pub(crate) fn get(&self, id: &u16) -> Option<&Request> {
        self.position(*id).ok().map(|i| &self.slots[i])
    }

    pub(crate) fn get_mut(&mut self, id: &u16) -> Option<&mut Request> {
        self.position(*id).ok().map(|i| &mut self.slots[i])
    }

    /// Inserts a request under its id, replacing any entry already there.
    pub(crate) fn insert(&mut self, req: Request) {
        match self.position(req.id.0) {
            Ok(i) => self.slots[i] = req,
            Err(i) => self.slots.insert(i, req),
        }
    }

    pub(crate) fn remove(&mut self, id: &u16) -> Option<Request> {
        self.position(*id).ok().map(|i| self.slots.remove(i))
    }

    pub(crate) fn values(&self) -> std::slice::Iter<'_, Request> {
        self.slots.iter()
    }

    pub(crate) fn values_mut(&mut self) -> std::slice::IterMut<'_, Request> {
        self.slots.iter_mut()
    }
}

/// Core `i`'s two inter-core ports on a ring of at least two cores: the
/// mailbox its left neighbour writes, and the one it writes for its right
/// neighbour (`mailboxes[i]`).
fn ports_of(
    mailboxes: &mut [Option<[u8; 16]>],
    i: usize,
) -> (&mut Option<[u8; 16]>, &mut Option<[u8; 16]>) {
    if i == 0 {
        let (own, rest) = mailboxes.split_first_mut().expect("ring of two or more");
        (rest.last_mut().expect("ring of two or more"), own)
    } else {
        let (left, right) = mailboxes.split_at_mut(i);
        (&mut left[i - 1], &mut right[0])
    }
}

impl Mccp {
    /// Finds the first idle core with the right personality (the paper's
    /// dispatch policy, §III.C).
    pub(crate) fn first_idle(&self, personality: Personality) -> Option<usize> {
        self.cores
            .iter()
            .position(|c| c.is_idle() && c.personality() == personality)
    }

    /// Finds an idle core for a pipeline stage, preferring one *different*
    /// from the previous stage's core (the inter-core transfer is the
    /// point of the pipeline; only a pool with a single matching core
    /// falls back to reusing it).
    pub(crate) fn idle_for_stage(
        &self,
        personality: Personality,
        avoid: Option<usize>,
    ) -> Option<usize> {
        let mut fallback = None;
        for (i, c) in self.cores.iter().enumerate() {
            if !c.is_idle() || c.personality() != personality {
                continue;
            }
            if Some(i) != avoid {
                return Some(i);
            }
            fallback = Some(i);
        }
        fallback
    }

    /// True when a stage-waiting pipeline request could start now.
    pub(crate) fn stage_core_ready(&self, req: &Request) -> bool {
        let Some(plan) = &req.pipeline else {
            return false;
        };
        let stage = &plan.pipeline.stages[plan.current];
        self.idle_for_stage(stage.personality(), plan.prev_core)
            .is_some()
    }

    /// Finds an adjacent idle pair `(i, i+1 mod n)` for two-core CCM.
    pub(crate) fn idle_pair(&self, personality: Personality) -> Option<usize> {
        let n = self.cores.len();
        if n < 2 {
            return None;
        }
        (0..n).find(|&i| {
            let j = (i + 1) % n;
            self.cores[i].is_idle()
                && self.cores[j].is_idle()
                && self.cores[i].personality() == personality
                && self.cores[j].personality() == personality
        })
    }

    /// Applies one scheduled fault to the datapath, emitting the
    /// `FaultInjected` event. Shard-kill entries are cluster-level and
    /// ignored here.
    pub(crate) fn apply_fault(&mut self, kind: FaultKind) {
        let Some(core) = kind.target_core() else {
            return;
        };
        if core >= self.cores.len() {
            return;
        }
        if let Some(f) = &mut self.faults {
            f.injected += 1;
        }
        let cycle = self.cycle;
        let label = kind.label();
        self.telemetry.emit_with(cycle, || Event::FaultInjected {
            fault: label.to_string(),
            core,
        });
        match kind {
            FaultKind::WedgeCore { core } => self.cores[core].wedge(),
            FaultKind::StallCore { core, cycles } => self.cores[core].stall(cycles),
            FaultKind::FlipFifoBit { core, output, bit } => {
                let fifo = if output {
                    &mut self.cores[core].output
                } else {
                    &mut self.cores[core].input
                };
                // An SEU in the FIFO RAM: hits the word at the head of the
                // queue; harmless when nothing is queued.
                fifo.corrupt_word(0, bit);
            }
            FaultKind::CorruptKeyCache { core } => {
                self.cores[core].key_cache.corrupt();
            }
            FaultKind::DropDmaWord { core } => self.pending_dma_drops.push(core),
            FaultKind::KillShard { .. } => {}
        }
    }

    /// Terminates a request on a detected fault: containment wipes (no
    /// possibly-corrupt bytes leave the cores), quarantine for permanent
    /// faults, telemetry attribution, and the Data Available interrupt so
    /// pollers observe the failure.
    pub(crate) fn fail_request(&mut self, id: RequestId, error: MccpError, detected_core: usize) {
        let cycle = self.cycle;
        let Some(req) = self.requests.get_mut(&id.0) else {
            return;
        };
        let cores = req.cores.clone();
        let request = req.id.0;
        let cycles = cycle - req.start_cycle;
        req.state = ReqState::Failed { error };
        req.done_cycle = Some(cycle);
        req.collected.clear();
        self.telemetry.emit_with(cycle, || Event::FaultDetected {
            request,
            core: detected_core,
            error: error.to_string(),
        });
        // Transient integrity faults don't condemn the core; a wedged or
        // unresponsive core is fenced off until a hard reset.
        let quarantine = matches!(error, MccpError::CoreFault | MccpError::Deadline);
        for &c in &cores {
            self.cores[c].input.wipe();
            self.cores[c].output.wipe();
            if quarantine && !self.cores[c].is_quarantined() {
                self.cores[c].quarantine(cycle);
                self.telemetry
                    .emit_with(cycle, || Event::CoreQuarantined { core: c });
            }
        }
        self.telemetry.emit_with(cycle, || Event::RequestFailed {
            request,
            error: error.to_string(),
            cycles,
        });
        self.data_available.push_back(id);
    }

    /// Advances the whole MCCP one clock cycle.
    pub fn tick(&mut self) {
        self.cycle += 1;
        self.key_scheduler.tick();

        // Fault plane: fire every schedule entry due at this cycle.
        if self.faults.is_some() {
            let due = match &mut self.faults {
                Some(f) => f.take_due_cycle(self.cycle),
                None => Vec::new(),
            };
            for e in due {
                self.apply_fault(e.kind);
            }
        }

        // Partial-reconfiguration engine: finish any bitstream whose load
        // time has elapsed and bring the core up with its new personality.
        for i in 0..self.reconfigs.len() {
            if let Some(p) = self.reconfigs[i].tick() {
                self.cores[i].set_personality(p);
                self.cores[i].finish();
                let started = self.reconfig_started[i];
                let cycle = self.cycle;
                self.stage_reconfig_stall[i] += cycle - started;
                self.telemetry.emit_with(cycle, || Event::ReconfigEnd {
                    core: i,
                    personality: p.name(),
                    cycles: cycle - started,
                });
            }
        }

        // Task-scheduler state machine: start cores whose key is ready,
        // count down modeled hash stages, and retry pipeline stages that
        // are waiting for a core with the right personality.
        let cycle = self.cycle;
        let mut stage_retry = Vec::new();
        let mut hash_done = Vec::new();
        for req in self.requests.values_mut() {
            match req.state {
                ReqState::KeyWait(left) => {
                    if left == 0 {
                        for (core, job) in &req.jobs {
                            self.cores[*core].start(job.firmware, job.params);
                            let (core, firmware, request) = (*core, job.firmware, req.id.0);
                            self.telemetry.emit_with(cycle, || Event::CoreStarted {
                                request,
                                core,
                                firmware: firmware.name(),
                            });
                        }
                        req.state = ReqState::Running;
                    } else {
                        req.state = ReqState::KeyWait(left - 1);
                    }
                }
                ReqState::StageWait => stage_retry.push(req.id),
                ReqState::Hashing { left } => {
                    if left == 0 {
                        hash_done.push(req.id);
                    } else {
                        req.state = ReqState::Hashing { left: left - 1 };
                    }
                }
                _ => {}
            }
        }
        for id in stage_retry {
            self.try_start_stage(id);
        }
        for id in hash_done {
            self.finish_pipeline(id);
        }

        // Communication-controller DMA: one 32-bit word per core per cycle.
        self.dma_cycle();

        // Tick every core with its mailboxes, in index order: core `i`
        // sees this cycle's write of core `i - 1` and last cycle's state of
        // the mailbox it writes.
        if self.cores.len() == 1 {
            // Single-core MCCP: no inter-core ports.
            self.cores[0].tick(&mut None, &mut None);
        } else {
            for (i, core) in self.cores.iter_mut().enumerate() {
                let (from_left, to_right) = ports_of(&mut self.mailboxes, i);
                core.tick(from_left, to_right);
            }
        }

        // Fault detection and watchdog containment. Only runs when a plan
        // or the watchdog is armed, so the unfaulted path is untouched.
        if self.faults.is_some() || self.watchdog_margin.is_some() {
            let mut failures: Vec<(RequestId, MccpError, usize)> = Vec::new();
            for req in self.requests.values() {
                if !matches!(
                    req.state,
                    ReqState::KeyWait(_)
                        | ReqState::Running
                        | ReqState::StageWait
                        | ReqState::Hashing { .. }
                ) {
                    continue;
                }
                if let Some(&c) = req.cores.iter().find(|&&c| self.cores[c].is_faulted()) {
                    failures.push((req.id, MccpError::CoreFault, c));
                } else if let Some(d) = req.deadline {
                    if self.cycle > d {
                        failures.push((req.id, MccpError::Deadline, req.producing_core));
                    }
                }
            }
            for (id, error, core) in failures {
                self.fail_request(id, error, core);
            }
        }

        // Completion detection.
        let mut newly_done = Vec::new();
        let mut stage_complete = Vec::new();
        let mut integrity_failures: Vec<(RequestId, usize)> = Vec::new();
        for req in self.requests.values_mut() {
            if req.state != ReqState::Running {
                continue;
            }
            let all_reported = req.cores.iter().all(|&c| self.cores[c].result().is_some());
            if !all_reported {
                continue;
            }
            // FIFO parity: a corrupted word anywhere in the datapath means
            // the bytes cannot be trusted — fail instead of handing out
            // silently wrong output (or a bogus auth verdict).
            if let Some(&bad) = req.cores.iter().find(|&&c| {
                self.cores[c].input.parity_error() || self.cores[c].output.parity_error()
            }) {
                integrity_failures.push((req.id, bad));
                continue;
            }
            let auth_ok = req
                .cores
                .iter()
                .all(|&c| self.cores[c].result() == Some(result_code::OK));
            // On auth failure the firmware has already wiped the output
            // FIFO, so the residency check only applies to the OK path.
            let resident = if req.streaming {
                req.collected.len() + self.cores[req.producing_core].output.len() * 4
                    >= req.expected_output
            } else {
                self.cores[req.producing_core].output.len() * 4 >= req.expected_output
            };
            if auth_ok && !resident {
                continue;
            }
            // A completed pipeline stage hands off to the next stage
            // instead of terminating the request (the final stage ends the
            // pipeline inside `advance_pipeline`).
            if req.pipeline.is_some() && auth_ok {
                stage_complete.push(req.id);
                continue;
            }
            if !auth_ok {
                // The paper's defense: reinitialize the output FIFO(s) so
                // no unauthenticated plaintext can be read out.
                for &c in &req.cores {
                    self.cores[c].output.wipe();
                }
                req.collected.clear();
                let (request, channel, sequence) = (req.id.0, req.channel.0, req.sequence);
                self.telemetry.emit_with(cycle, || Event::AuthFailWipe {
                    request,
                    channel,
                    sequence,
                });
            }
            let (request, cycles) = (req.id.0, self.cycle - req.start_cycle);
            self.telemetry.emit_with(cycle, || Event::RequestCompleted {
                request,
                auth_ok,
                cycles,
            });
            req.state = ReqState::Done { auth_ok };
            req.done_cycle = Some(self.cycle);
            newly_done.push(req.id);
        }
        for id in newly_done {
            self.data_available.push_back(id);
        }
        for id in stage_complete {
            self.advance_pipeline(id);
        }
        for (id, core) in integrity_failures {
            self.fail_request(id, MccpError::DataIntegrity, core);
        }
    }

    /// Conservative event-driven horizon: the number of upcoming cycles
    /// guaranteed to be pure countdown for *every* component, i.e. cycles
    /// [`skip`](Self::skip) may leap over without changing any observable
    /// state (outputs, cycle stamps, telemetry). `0` means the next cycle
    /// is (or may be) active and must be simulated with [`tick`](Self::tick);
    /// `u64::MAX` means nothing bounds the leap (the machine is idle).
    ///
    /// The rules, component by component:
    /// - a reconfiguration countdown with `left` cycles remaining
    ///   contributes `left` (the swap lands on tick `left + 1`);
    /// - a request in KeyWait(`left`) contributes `left` (cores start on
    ///   tick `left + 1`);
    /// - an upload stream with words left and FIFO space is active (`0`);
    ///   stalled on a full FIFO it contributes nothing — the FIFO cannot
    ///   drain while its core is quiescent — except that the first stalled
    ///   cycle emits the `FifoFull` edge and is therefore active;
    /// - a streaming request with resident output words drains one word
    ///   per cycle (`0`);
    /// - each core reports its own horizon (engine countdowns, staged-op
    ///   readiness, controller sleep/wake) given the frozen mailbox state;
    /// - the Key Scheduler's saturating countdown has no observable
    ///   zero-crossing and never bounds the horizon.
    pub fn quiescent_horizon(&self) -> u64 {
        // Cores first: an executing core answers 0 at once, and on a busy
        // engine one almost always is.
        let mut h = u64::MAX;
        let n = self.cores.len();
        for (i, core) in self.cores.iter().enumerate() {
            let from_left_full = n > 1 && self.mailboxes[(i + n - 1) % n].is_some();
            let to_right_full = n > 1 && self.mailboxes[i].is_some();
            h = h.min(core.quiescent_for(from_left_full, to_right_full));
            if h == 0 {
                return 0;
            }
        }
        // Armed fault plane: the leap must land at (or before) the cycle
        // *preceding* the next trigger — tick() increments the clock first
        // and then fires entries, so the trigger cycle itself is active.
        if let Some(f) = &self.faults {
            if let Some(t) = f.next_cycle_trigger() {
                if t <= self.cycle {
                    return 0;
                }
                h = h.min(t - 1 - self.cycle);
            }
        }
        for rc in &self.reconfigs {
            h = h.min(rc.quiescent_for());
        }
        for req in self.requests.values() {
            match req.state {
                ReqState::KeyWait(left) => h = h.min(left as u64),
                ReqState::Running => {}
                // A hash countdown is pure decrement, like KeyWait.
                ReqState::Hashing { left } => h = h.min(left),
                // A stage waiting for a core is active the moment an
                // eligible core is idle; while none is, the unblocking
                // event (a completion or reconfiguration elsewhere) is
                // itself horizon-bounded, so the wait contributes nothing.
                ReqState::StageWait => {
                    if self.stage_core_ready(req) {
                        return 0;
                    }
                }
                _ => continue,
            }
            // Watchdog: the deadline check fires on the tick that crosses
            // it, so a leap may reach the deadline cycle but not pass it.
            if let Some(d) = req.deadline {
                h = h.min(d.saturating_sub(self.cycle));
            }
            if !self.dma_is_quiescent(req) {
                return 0;
            }
        }
        h
    }

    /// Advances `n` cycles at once; only valid for
    /// `n <= quiescent_horizon()`. Equivalent to `n` calls to
    /// [`tick`](Self::tick): countdowns decrement in bulk, the per-cycle
    /// DMA-backpressure counter advances for streams stalled on a full
    /// FIFO, and everything else — by the horizon contract — is frozen.
    pub fn skip(&mut self, n: u64) {
        debug_assert!(n <= self.quiescent_horizon());
        if n == 0 {
            return;
        }
        self.cycle += n;
        self.key_scheduler.skip(n);
        for rc in &mut self.reconfigs {
            rc.skip(n);
        }
        for req in self.requests.values_mut() {
            match req.state {
                ReqState::KeyWait(left) => req.state = ReqState::KeyWait(left - n as u32),
                ReqState::Hashing { left } => req.state = ReqState::Hashing { left: left - n },
                _ => {}
            }
        }
        self.dma_skip(n);
        for core in &mut self.cores {
            core.skip(n);
        }
    }

    /// The wait behind [`ChannelBackend::step`](crate::ChannelBackend::step):
    /// runs scheduling quanta — each a leap over the quiescent span (capped
    /// at `bound`, fast-forward on) or one simulated cycle — until the
    /// caller can act: a fresh Data Available entry appears, a core is
    /// idle, a channel's handshake horizon is reached, or the next quantum
    /// would take the total past `bound`. Returns the cycles advanced.
    ///
    /// Every quantum is exactly the one a `step` call of the old one-quantum
    /// schedule would have run, and the wait ends at the first of those
    /// quantum boundaries where a resubmission could be accepted — so a
    /// caller that resubmits after each `step` sees the same accept cycles
    /// either way. With a reconfiguration policy armed, the refused packet
    /// is re-offered at each boundary the wait passes (one demand sample
    /// per quantum, as the resubmission would have recorded); no core is
    /// idle there, so the policy could not have swapped one.
    pub(crate) fn wait(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        let signaled = self.data_available.len();
        let mut spent = 0u64;
        loop {
            let span = if self.fast_forward {
                self.quiescent_horizon().min(bound)
            } else {
                0
            };
            let len = span.max(1);
            if spent > 0 {
                if spent + len > bound {
                    return spent;
                }
                self.reoffer_waiting_demand();
            }
            if span == 0 {
                self.tick();
            } else {
                self.skip(span);
            }
            spent += len;
            if self.data_available.len() > signaled || self.cores.iter().any(|c| c.is_idle()) {
                return spent;
            }
            if self.cycle >= self.handshake_due {
                self.handshake_due = self
                    .channels
                    .values()
                    .map(|c| c.ready_at)
                    .filter(|&r| r > self.cycle)
                    .min()
                    .unwrap_or(u64::MAX);
                return spent;
            }
        }
    }

    /// One more policy sample per personality the refused submission
    /// offered (see [`wait`](Self::wait)).
    fn reoffer_waiting_demand(&mut self) {
        let Some(pe) = &mut self.policy else {
            return;
        };
        for (p, &n) in crate::reconfig::PERSONALITIES
            .iter()
            .zip(self.waiting_demand.iter())
        {
            for _ in 0..n {
                pe.record_offered(*p);
            }
        }
    }

    /// Advances the simulation to an absolute cycle, leaping over
    /// quiescent spans when fast-forward is enabled.
    pub fn run_until(&mut self, target: u64) {
        while self.cycle < target {
            let span = if self.fast_forward {
                self.quiescent_horizon().min(target - self.cycle)
            } else {
                0
            };
            if span == 0 {
                self.tick();
            } else {
                self.skip(span);
            }
        }
    }

    /// Runs until every submitted request has reached Data Available.
    /// Returns the cycles elapsed.
    ///
    /// # Panics
    /// Panics if a core faults or the guard expires (firmware bug).
    pub fn run_to_completion(&mut self, max_cycles: u64) -> u64 {
        let start = self.cycle;
        while self.requests.values().any(|r| {
            matches!(
                r.state,
                ReqState::KeyWait(_)
                    | ReqState::Running
                    | ReqState::StageWait
                    | ReqState::Hashing { .. }
            )
        }) {
            assert!(
                self.cycle - start < max_cycles,
                "requests wedged after {max_cycles} cycles"
            );
            let span = if self.fast_forward {
                self.quiescent_horizon()
                    .min(max_cycles - (self.cycle - start))
            } else {
                0
            };
            if span == 0 {
                self.tick();
                for (c, core) in self.cores.iter().enumerate() {
                    // Quarantined cores are expected casualties of the
                    // fault plane, not firmware bugs.
                    assert!(
                        !core.is_faulted() || core.is_quarantined(),
                        "core {c} faulted running {:?}",
                        core.firmware()
                    );
                }
            } else {
                self.skip(span);
            }
        }
        self.cycle - start
    }

    /// Runs the simulation until the request reaches Data Available.
    /// Returns the request latency in cycles.
    ///
    /// Uses the event-driven fast path when enabled: quiescent spans
    /// (engine countdowns, key waits, reconfiguration loads) are leapt in
    /// one step; active cycles are simulated exactly. Faults can only
    /// arise on active cycles, so the fault check runs after each tick.
    ///
    /// # Panics
    /// Panics if a core faults or the guard expires (firmware bug).
    pub fn run_until_done(&mut self, id: RequestId, max_cycles: u64) -> u64 {
        let start = self.cycle;
        loop {
            let state = self.requests.get(&id.0).expect("request exists").state;
            if matches!(state, ReqState::Done { .. } | ReqState::Failed { .. }) {
                let req = self.requests.get(&id.0).expect("request exists");
                return req.done_cycle.expect("done") - req.start_cycle;
            }
            assert!(
                self.cycle - start < max_cycles,
                "request {id:?} wedged after {max_cycles} cycles"
            );
            let span = if self.fast_forward {
                self.quiescent_horizon()
                    .min(max_cycles - (self.cycle - start))
            } else {
                0
            };
            if span > 0 {
                self.skip(span);
                continue;
            }
            self.tick();
            if let Some(req) = self.requests.get(&id.0) {
                for &c in &req.cores {
                    assert!(
                        !self.cores[c].is_faulted() || self.cores[c].is_quarantined(),
                        "core {c} faulted running {:?}",
                        self.cores[c].firmware()
                    );
                }
            }
        }
    }

    /// The Data Available interrupt queue.
    pub fn poll_data_available(&mut self) -> Option<RequestId> {
        while let Some(id) = self.data_available.front().copied() {
            let fresh = self
                .requests
                .get(&id.0)
                .map(|r| !r.signaled)
                .unwrap_or(false);
            if fresh {
                if let Some(r) = self.requests.get_mut(&id.0) {
                    r.signaled = true;
                }
                return Some(id);
            }
            self.data_available.pop_front();
        }
        None
    }
}
