//! The batch replayer: N [`ChannelBackend`] shards serving one finished
//! multi-channel workload.
//!
//! The crate has two front ends. [`MccpService`](crate::MccpService) is
//! the API for long-lived channels that open, close and rekey while
//! traffic flows. [`MccpCluster`] replays a workload that is known in
//! full up front on 1 to N shards and reports what every packet cost. A
//! one-shard cluster is the plain communication-controller loop: it keeps
//! every idle core busy (the paper's as-fast-as-possible dispatch,
//! §III.C) and measures aggregate throughput and per-packet latency in
//! the engine's clock.
//!
//! The paper scales a single MCCP by adding cores; a communication
//! gateway terminating many radio links scales further by replicating
//! whole engines. [`MccpCluster`] models that tier:
//!
//! - **Channel-affinity dispatch** — packets route to shard
//!   `channel % shards`, so each channel's stream stays on one engine
//!   (warm key schedule, in-order completion per channel).
//! - **Idle-shard work stealing** — with
//!   [`ClusterConfig::work_stealing`] on, the dispatcher rebalances at
//!   dispatch time: while one shard's backlog exceeds another's by more
//!   than one packet, the idle shard steals from the *tail* of the
//!   longest queue. Dispatch stays deterministic, so runs are
//!   reproducible.
//! - **Nonce discipline** — IVs are assigned *centrally*, from the
//!   cluster's single channel table, in policy order, before any packet
//!   is routed. A stolen packet keeps its IV; no channel can ever reuse
//!   a counter because two shards advanced it independently.
//!
//! Every shard opens every channel (same keys, same handle sequence), so
//! any shard can serve any packet. Shards run to completion on their own
//! clocks; the cluster's modeled makespan is the slowest shard's cycle
//! count. [`MccpCluster::run`] serves every pass (the main one and each
//! failover pass) through one fan-out on [`std::thread::scope`]: a pass
//! carrying at least [`SERIAL_FALLBACK_BYTES`] of queued payload spreads
//! the shards over `min(shards, host_parallelism())` lanes, anything
//! smaller runs on the caller's thread. Per-shard outcomes fold into the
//! report in shard order, so no result depends on thread timing.

use crate::channel::SecureChannel;
use crate::qos::{channel_slo, DispatchPolicy};
use crate::standards::Standard;
use crate::workload::Workload;
use mccp_core::protocol::{ChannelId, KeyId, MccpError, Mode};
use mccp_core::{submit_and_wait, ChannelBackend, Direction, FunctionalBackend, Mccp, MccpConfig};
use mccp_sim::throughput_mbps;
use mccp_telemetry::slo::{ChannelAttainment, HealthScore, SloEngine};
use mccp_telemetry::trace::{Attempt, AttemptOutcome, PacketJourney};
use mccp_telemetry::{metrics, Snapshot, WallProfile};
use std::collections::VecDeque;

/// One finished packet with its provenance (for verification).
#[derive(Clone, Debug)]
pub struct PacketRecord {
    pub packet_idx: usize,
    pub channel: usize,
    pub iv: Vec<u8>,
    pub ciphertext: Vec<u8>,
    pub tag: Vec<u8>,
    /// Cycles from submission to Data Available (service time).
    pub latency: u64,
    /// Cycles from the start of the run to Data Available — includes
    /// queueing, which is what a QoS policy actually shapes.
    pub completed_at: u64,
}

/// The outcome of one workload run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Total simulated cycles from first submission to last retrieval.
    pub cycles: u64,
    pub packets: usize,
    pub payload_bits: u64,
    pub records: Vec<PacketRecord>,
}

impl RunReport {
    /// Aggregate throughput at the modeled 190 MHz clock.
    pub fn throughput_mbps(&self) -> f64 {
        throughput_mbps(self.payload_bits, self.cycles)
    }

    /// Mean packet latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.latency as f64).sum::<f64>() / self.records.len() as f64
    }

    /// Maximum packet latency in cycles.
    pub fn max_latency(&self) -> u64 {
        self.records.iter().map(|r| r.latency).max().unwrap_or(0)
    }

    /// Latency percentile. `p` is clamped to `0.0..=1.0` (so `p <= 0.0`
    /// is the minimum, `p >= 1.0` the maximum, and NaN maps to the
    /// minimum); an empty record set reports 0.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        if self.records.is_empty() {
            return 0;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        let mut l: Vec<u64> = self.records.iter().map(|r| r.latency).collect();
        l.sort_unstable();
        let idx = ((l.len() - 1) as f64 * p).round() as usize;
        l[idx]
    }
}

/// Why a packet record failed reference verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyErrorKind {
    /// The engine's ciphertext differs from the reference computation.
    CiphertextMismatch,
    /// The engine's authentication tag differs from the reference.
    TagMismatch,
    /// The reference implementation rejected the packet's parameters
    /// (bad IV length, oversize payload, …).
    Reference(String),
}

/// A typed verification failure: which packet, on which channel, failed
/// how — matchable by harnesses, unlike a formatted string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    pub packet_idx: usize,
    pub channel: usize,
    pub kind: VerifyErrorKind,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "packet {} on channel {}: ",
            self.packet_idx, self.channel
        )?;
        match &self.kind {
            VerifyErrorKind::CiphertextMismatch => write!(f, "ciphertext mismatch"),
            VerifyErrorKind::TagMismatch => write!(f, "tag mismatch"),
            VerifyErrorKind::Reference(e) => write!(f, "reference rejected packet: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Cluster shape and dispatch policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of engine shards (≥ 1).
    pub shards: usize,
    /// Rebalance queues at dispatch time so no shard idles while another
    /// holds a backlog.
    pub work_stealing: bool,
    /// Enable each shard's telemetry pipeline (ring capacity per shard).
    pub telemetry_capacity: Option<usize>,
    /// Enable the observability plane: per-packet causal journeys
    /// ([`ClusterReport::journeys`]) and the per-channel SLO attainment
    /// table ([`ClusterReport::slo`]). Off by default; when off, the
    /// serving loop's only extra cost is one branch per recording site.
    pub observe: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 1,
            work_stealing: true,
            telemetry_capacity: None,
            observe: false,
        }
    }
}

// Fault recovery. A faulted packet never produced output (the engine
// wipes on failure), so resubmitting it *with its original IV* is safe:
// same key, same plaintext, same IV is byte-for-byte the same computation
// — no nonce is burned and none is reused across distinct plaintexts.

/// Total attempts per packet (first try included). Packets still failing
/// after this many are reported in [`ClusterReport::abandoned`], never
/// silently dropped.
const MAX_ATTEMPTS: u32 = 3;
/// Backoff before retry `n` is `BACKOFF_BASE_CYCLES << (n - 1)` cycles,
/// capped at `BACKOFF_CAP_CYCLES`.
const BACKOFF_BASE_CYCLES: u64 = 2048;
const BACKOFF_CAP_CYCLES: u64 = 65_536;
/// Cycles a quarantined core cools down before the dispatcher issues a
/// hard reset to reclaim it.
const RESET_DELAY_CYCLES: u64 = 4096;

fn backoff_cycles(failed_attempts: u32) -> u64 {
    BACKOFF_BASE_CYCLES
        .saturating_mul(1u64 << failed_attempts.saturating_sub(1).min(16))
        .min(BACKOFF_CAP_CYCLES)
}

/// The host's available parallelism (1 if it cannot be determined) — the
/// value every BENCH file records as `host_parallelism`.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Queued payload (bytes, across all shards) below which a pass runs on
/// the caller's thread. On a 2-vCPU host, spreading 80 KiB of functional
/// shards over lanes was no faster than serving them inline, and the
/// 2-shard, 230 KB cycle-engine run behind the observability-overhead
/// gate measured a higher observe-on/off ratio fanned out than inline
/// (DESIGN §5h). The benchmarks record this value as
/// `serial_fallback_bytes` so the measured regimes are attributable.
pub const SERIAL_FALLBACK_BYTES: u64 = 256 * 1024;

/// Runs `tasks` and returns their results in task order.
///
/// Passes under [`SERIAL_FALLBACK_BYTES`] of `work_bytes`, passes with one
/// task, and every pass on a one-CPU host run inline on the caller's
/// thread. Otherwise task `i` runs on lane `i % lanes` with
/// `lanes = min(tasks, host_parallelism())`; lane 0 is the caller's
/// thread. A panicking task re-raises once every lane has joined.
fn fan_out<F, T>(tasks: Vec<F>, work_bytes: u64) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    // The size check comes first: `host_parallelism` reads the affinity
    // mask and cgroup quota on every call.
    let lanes = if work_bytes < SERIAL_FALLBACK_BYTES || tasks.len() <= 1 {
        1
    } else {
        tasks.len().min(host_parallelism())
    };
    if lanes == 1 {
        return tasks.into_iter().map(|task| task()).collect();
    }
    let mut per_lane: Vec<Vec<(usize, F)>> = (0..lanes).map(|_| Vec::new()).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        per_lane[i % lanes].push((i, task));
    }
    let run_lane = |lane: Vec<(usize, F)>| -> Vec<(usize, T)> {
        lane.into_iter().map(|(i, task)| (i, task())).collect()
    };
    let mut done = std::thread::scope(|scope| {
        let mut lanes = per_lane.into_iter();
        let caller_lane = lanes.next().expect("at least two lanes");
        let spawned: Vec<_> = lanes
            .map(|lane| scope.spawn(move || run_lane(lane)))
            .collect();
        // If the caller's lane panics, the scope still joins every lane
        // before the panic resumes.
        let mut done = run_lane(caller_lane);
        let joined: Vec<_> = spawned.into_iter().map(|h| h.join()).collect();
        for lane in joined {
            done.extend(lane.unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// One shard's share of a cluster run.
#[derive(Clone, Debug)]
pub struct ShardReport {
    pub shard: usize,
    /// Packets this shard served.
    pub packets: usize,
    /// How many of them were stolen from another shard's queue.
    pub stolen: usize,
    /// The shard's own clock at the end of its run.
    pub cycles: u64,
    /// Resubmissions this shard performed after engine faults.
    pub retries: u64,
    /// Quarantined cores this shard hard-reset back into service.
    pub resets: u64,
    /// The shard died mid-run (fault-plane shard kill); its unserved
    /// queue was redistributed to the survivors.
    pub dead: bool,
    /// Host wall-clock seconds spent inside this shard's serving loop
    /// (across the main pass and any healing passes).
    pub busy_seconds: f64,
    /// The shard's telemetry snapshot (when enabled).
    pub snapshot: Option<Snapshot>,
}

/// A packet the cluster gave up on: retries exhausted or no shard left to
/// serve it. Reported, never silently dropped.
#[derive(Clone, Debug)]
pub struct AbandonedPacket {
    pub pkt_idx: usize,
    pub channel: usize,
    /// Display form of the final [`MccpError`].
    pub error: String,
    /// Attempts made before giving up (0 when no shard survived to try).
    pub attempts: u32,
}

/// The aggregate outcome of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// All shards' records merged and sorted by packet index. `cycles` is
    /// the modeled makespan (slowest shard); per-record `latency` and
    /// `completed_at` are in the serving shard's clock.
    pub merged: RunReport,
    pub shards: Vec<ShardReport>,
    /// Total packets served off a stolen queue slot.
    pub stolen_packets: usize,
    /// Host wall-clock spent inside the shard run loops.
    pub wall_seconds: f64,
    /// Total fault-recovery resubmissions across all shards.
    pub retries: u64,
    /// Total quarantined-core hard resets across all shards.
    pub core_resets: u64,
    /// Shards that died mid-run (their queues were redistributed).
    pub dead_shards: usize,
    /// Packets the cluster could not deliver (retries exhausted or no
    /// surviving shard). Delivered + abandoned covers the whole workload.
    pub abandoned: Vec<AbandonedPacket>,
    /// All shards' telemetry merged (counters add, gauges max, histograms
    /// merge), when telemetry is enabled.
    pub telemetry: Option<Snapshot>,
    /// One causal journey per workload packet (trace id = packet index),
    /// covering every retry attempt and steal/failover hop. Populated when
    /// [`ClusterConfig::observe`] is on.
    pub journeys: Option<Vec<PacketJourney>>,
    /// Per-channel SLO attainment against deadlines derived from each
    /// channel's radio standard. Populated when observe is on.
    pub slo: Option<Vec<ChannelAttainment>>,
    /// Per-shard health scores from the fault-plane counters (100 = no
    /// fault activity; empty-snapshot shards score 100).
    pub health: Vec<HealthScore>,
    /// Host wall-clock profile: per-shard-thread busy time against the
    /// run's makespan, next to the host's available parallelism.
    pub wall: WallProfile,
}

impl ClusterReport {
    /// Aggregate modeled throughput: total payload bits over the makespan
    /// at the 190 MHz clock — N shards running in parallel divide the
    /// makespan, not the work.
    pub fn aggregate_throughput_mbps(&self) -> f64 {
        self.merged.throughput_mbps()
    }
}

/// A packet with its centrally assigned IV, routed to a shard queue.
/// Cloned only when a dead shard's queue is redistributed.
#[derive(Clone)]
struct Job {
    pkt_idx: usize,
    iv: Vec<u8>,
    stolen: bool,
}

/// N channel engines behind one dispatcher.
pub struct MccpCluster<B: ChannelBackend> {
    config: ClusterConfig,
    backends: Vec<B>,
    /// The single, central channel table — the only IV source.
    channels: Vec<SecureChannel>,
    keys: Vec<Vec<u8>>,
    /// Channel handles, identical on every shard (asserted at build).
    handles: Vec<ChannelId>,
    /// Fault-plane shard kills: `(shard, dies after serving N packets)`.
    shard_kills: Vec<(usize, u64)>,
}

impl MccpCluster<FunctionalBackend> {
    /// A cluster of functional engines (the deploy-shaped configuration:
    /// software shards on host threads).
    pub fn functional(config: ClusterConfig, standards: &[Standard], key_seed: u64) -> Self {
        let backends = (0..config.shards.max(1))
            .map(|_| FunctionalBackend::new())
            .collect();
        Self::with_backends(config, backends, standards, key_seed)
    }
}

impl MccpCluster<Mccp> {
    /// A cluster of cycle-accurate MCCP simulators (for modeled scaling
    /// curves: modeled cycles do not depend on how shards map to host
    /// threads).
    pub fn cycle_accurate(
        config: ClusterConfig,
        mccp_config: MccpConfig,
        standards: &[Standard],
        key_seed: u64,
    ) -> Self {
        let backends = (0..config.shards.max(1))
            .map(|_| {
                let mut m = Mccp::new(mccp_config.clone());
                m.set_fast_forward(true);
                m
            })
            .collect();
        Self::with_backends(config, backends, standards, key_seed)
    }
}

impl<B: ChannelBackend> MccpCluster<B> {
    /// Builds a cluster from pre-constructed shards with one channel per
    /// standard, opened on every shard; all shards must allocate the same
    /// handle sequence (the [`ChannelBackend`] determinism contract).
    /// Session keys are derived deterministically from `key_seed` (test
    /// reproducibility — a real radio would run a key exchange here), so
    /// the same `(standards, key_seed)` pair yields the same keys, handles
    /// and IV sequences on every engine.
    ///
    /// # Panics
    /// Panics if `backends` is empty or a shard allocates a divergent
    /// channel handle.
    pub fn with_backends(
        mut config: ClusterConfig,
        mut backends: Vec<B>,
        standards: &[Standard],
        key_seed: u64,
    ) -> Self {
        assert!(!backends.is_empty(), "at least one shard");
        config.shards = backends.len();
        if let Some(capacity) = config.telemetry_capacity {
            for b in &mut backends {
                b.enable_telemetry(capacity);
            }
        }
        let mut channels = Vec::new();
        let mut keys = Vec::new();
        for (i, &std_) in standards.iter().enumerate() {
            let profile = std_.profile();
            let key_len = profile.algorithm.key_size().key_bytes();
            let key: Vec<u8> = (0..key_len)
                .map(|j| (key_seed as u8) ^ ((i as u8) * 31) ^ ((j as u8).wrapping_mul(7)))
                .collect();
            let tag_len = if profile.tag_len == 0 {
                16
            } else {
                profile.tag_len
            };
            let mut handle = None;
            for (s, b) in backends.iter_mut().enumerate() {
                let h = b
                    .open_channel(profile.algorithm, &key, tag_len)
                    .expect("channel opens");
                match handle {
                    None => handle = Some(h),
                    Some(h0) => assert_eq!(h0, h, "shard {s} diverged on channel {i} handle"),
                }
            }
            let mut ch = SecureChannel::new(profile, KeyId(i as u8 + 1), 0x1000_0000 + i as u32);
            ch.handle = handle;
            channels.push(ch);
            keys.push(key);
        }
        let handles = channels.iter().map(|c| c.handle.unwrap()).collect();
        MccpCluster {
            config,
            backends,
            channels,
            keys,
            handles,
            shard_kills: Vec::new(),
        }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn shard_count(&self) -> usize {
        self.backends.len()
    }

    /// Direct access to one shard's engine — the hook fault-injection
    /// harnesses use to arm engine-level fault plans and watchdogs.
    pub fn backend_mut(&mut self, shard: usize) -> &mut B {
        &mut self.backends[shard]
    }

    /// Arms shard-level kills (typically from
    /// [`mccp_core::FaultPlan::shard_kills`]): shard `s` dies after
    /// serving `n` packets, and the dispatcher redistributes its queue.
    pub fn set_shard_kills(&mut self, kills: Vec<(usize, u64)>) {
        self.shard_kills = kills;
    }

    fn kill_for(&self, shard: usize) -> Option<u64> {
        self.shard_kills
            .iter()
            .find(|&&(s, _)| s == shard)
            .map(|&(_, n)| n)
    }

    /// The central channel table.
    pub fn channels(&self) -> &[SecureChannel] {
        &self.channels
    }

    /// Assigns IVs centrally in policy order and routes each packet to
    /// its affinity shard, then (optionally) steals from queue tails
    /// until no shard's backlog exceeds another's by more than one.
    fn dispatch(&mut self, workload: &Workload, policy: DispatchPolicy) -> Vec<VecDeque<Job>> {
        let shards = self.backends.len();
        let mut queues: Vec<VecDeque<Job>> = (0..shards).map(|_| VecDeque::new()).collect();
        for pkt_idx in policy.order(&workload.packets) {
            let channel = workload.packets[pkt_idx].channel;
            let iv = self.channels[channel].next_iv();
            queues[channel % shards].push_back(Job {
                pkt_idx,
                iv,
                stolen: false,
            });
        }
        if self.config.work_stealing {
            loop {
                let longest = (0..shards).max_by_key(|&i| queues[i].len()).unwrap();
                let shortest = (0..shards).min_by_key(|&i| queues[i].len()).unwrap();
                if queues[longest].len() - queues[shortest].len() <= 1 {
                    break;
                }
                let mut job = queues[longest].pop_back().unwrap();
                job.stolen = true;
                queues[shortest].push_back(job);
            }
        }
        queues
    }

    /// Serves the workload: dispatches it, runs every shard through the
    /// fan-out, then runs failover passes while any shard died holding
    /// unserved work. A failover pass deals the orphans round-robin over
    /// the survivors; packets that outlive every shard are reported as
    /// abandoned. Terminates: orphans only appear when a shard dies, and
    /// dead shards never serve again.
    ///
    /// Modeled results (records, cycles, retries, journeys) are the same
    /// whether a pass runs inline or fanned out; only host wall-clock
    /// differs.
    pub fn run(&mut self, workload: &Workload, policy: DispatchPolicy) -> ClusterReport
    where
        B: Send,
    {
        let queues = self.dispatch(workload, policy);
        let shards = self.backends.len();
        let started = std::time::Instant::now();
        let mut kills: Vec<Option<u64>> = (0..shards).map(|s| self.kill_for(s)).collect();
        let mut outcomes: Vec<ShardOutcome> =
            (0..shards).map(|_| ShardOutcome::default()).collect();
        let mut abandoned: Vec<AbandonedPacket> = Vec::new();
        let mut failover: Option<Vec<VecDeque<Job>>> = None;
        for pass in 0.. {
            let pass_queues = failover.as_deref().unwrap_or(&queues);
            let mut orphans: Vec<Job> = Vec::new();
            let served = self.serve_pass(workload, pass_queues, &kills, pass);
            for (s, mut out) in served.into_iter().enumerate() {
                if let Some(k) = &mut kills[s] {
                    *k = k.saturating_sub(out.records.len() as u64);
                }
                orphans.append(&mut out.orphans);
                outcomes[s].absorb(out);
            }
            if orphans.is_empty() {
                break;
            }
            let survivors: Vec<usize> = (0..shards).filter(|&s| !outcomes[s].dead).collect();
            if survivors.is_empty() {
                abandoned.extend(orphans.into_iter().map(|job| AbandonedPacket {
                    pkt_idx: job.pkt_idx,
                    channel: workload.packets[job.pkt_idx].channel,
                    error: "no surviving shard".into(),
                    attempts: 0,
                }));
                break;
            }
            let mut next: Vec<VecDeque<Job>> = (0..shards).map(|_| VecDeque::new()).collect();
            for (i, job) in orphans.into_iter().enumerate() {
                next[survivors[i % survivors.len()]].push_back(job);
            }
            failover = Some(next);
        }
        let wall_seconds = started.elapsed().as_secs_f64();
        self.assemble(workload, queues, outcomes, abandoned, wall_seconds)
    }

    /// One pass: shard `s` serves `queues[s]` (empty for shards with no
    /// work, which return at once) within its remaining kill quota.
    fn serve_pass(
        &mut self,
        workload: &Workload,
        queues: &[VecDeque<Job>],
        kills: &[Option<u64>],
        pass: u32,
    ) -> Vec<ShardOutcome>
    where
        B: Send,
    {
        let work_bytes: u64 = queues
            .iter()
            .flatten()
            .map(|job| workload.packets[job.pkt_idx].payload.len() as u64)
            .sum();
        let handles = &self.handles;
        let observe = self.config.observe;
        let tasks: Vec<_> = self
            .backends
            .iter_mut()
            .zip(queues)
            .zip(kills)
            .enumerate()
            .map(|(shard, ((backend, queue), &kill))| {
                let at = ShardPass {
                    shard,
                    pass,
                    observe,
                };
                move || run_shard(backend, workload, handles, queue, kill, at)
            })
            .collect();
        fan_out(tasks, work_bytes)
    }

    fn assemble(
        &mut self,
        workload: &Workload,
        queues: Vec<VecDeque<Job>>,
        outcomes: Vec<ShardOutcome>,
        mut abandoned: Vec<AbandonedPacket>,
        wall_seconds: f64,
    ) -> ClusterReport {
        let mut records = Vec::with_capacity(workload.packets.len());
        let mut shards = Vec::with_capacity(outcomes.len());
        let mut stolen_packets = 0;
        let mut retries = 0u64;
        let mut core_resets = 0u64;
        let mut dead_shards = 0;
        let mut telemetry: Option<Snapshot> = None;
        let mut served: Vec<Option<usize>> = vec![None; workload.packets.len()];
        let mut attempts: Vec<(usize, u32, Attempt)> = Vec::new();
        for (shard, (mut outcome, queue)) in outcomes.into_iter().zip(queues.iter()).enumerate() {
            let stolen = queue.iter().filter(|j| j.stolen).count();
            stolen_packets += stolen;
            retries += outcome.retries;
            core_resets += outcome.resets;
            dead_shards += outcome.dead as usize;
            abandoned.extend(outcome.abandoned);
            for r in &outcome.records {
                served[r.packet_idx] = Some(shard);
            }
            attempts.append(&mut outcome.attempts);
            let backend = &mut self.backends[shard];
            backend.telemetry_counter_add("mccp_cluster_stolen_packets_total", stolen as u64);
            let snapshot = if backend.telemetry_enabled() {
                let snap = backend.telemetry_snapshot();
                match &mut telemetry {
                    None => telemetry = Some(snap.clone()),
                    Some(t) => t.merge_from(&snap),
                }
                Some(snap)
            } else {
                None
            };
            shards.push(ShardReport {
                shard,
                packets: outcome.records.len(),
                stolen,
                cycles: outcome.cycles,
                retries: outcome.retries,
                resets: outcome.resets,
                dead: outcome.dead,
                busy_seconds: outcome.busy_seconds,
                snapshot,
            });
            records.extend(outcome.records);
        }
        records.sort_by_key(|r| r.packet_idx);
        abandoned.sort_by_key(|a| a.pkt_idx);
        let cycles = shards.iter().map(|s| s.cycles).max().unwrap_or(0);
        // Throughput counts delivered bits only — abandoned packets moved
        // no payload (identical to the full workload when fault-free).
        let payload_bits: u64 = records
            .iter()
            .map(|r| workload.packets[r.packet_idx].payload.len() as u64 * 8)
            .sum();

        let journeys = self
            .config
            .observe
            .then(|| self.build_journeys(workload, &queues, &served, attempts));
        let slo = self.config.observe.then(|| {
            let mut engine = SloEngine::new(
                self.channels
                    .iter()
                    .enumerate()
                    .map(|(i, ch)| channel_slo(i as u8, &ch.profile)),
            );
            for r in &records {
                engine.record_completion(r.channel as u8, r.completed_at, r.latency);
            }
            for a in &abandoned {
                engine.record_abandonment(a.channel as u8, cycles);
            }
            engine.attainment(cycles, cycles / 4)
        });
        if let (Some(rows), Some(t)) = (slo.as_deref(), telemetry.as_mut()) {
            SloEngine::publish(rows, t);
        }
        let health = shards
            .iter()
            .map(|s| {
                let empty = Snapshot::default();
                HealthScore::from_snapshot(s.shard, s.snapshot.as_ref().unwrap_or(&empty))
            })
            .collect();
        let wall = WallProfile {
            host_parallelism: host_parallelism(),
            wall_seconds,
            shard_busy_seconds: shards.iter().map(|s| s.busy_seconds).collect(),
        };

        ClusterReport {
            merged: RunReport {
                cycles,
                packets: records.len(),
                payload_bits,
                records,
            },
            shards,
            stolen_packets,
            wall_seconds,
            retries,
            core_resets,
            dead_shards,
            abandoned,
            telemetry,
            journeys,
            slo,
            health,
            wall,
        }
    }

    /// Assembles one [`PacketJourney`] per workload packet from the
    /// attempts tagged `(packet index, pass)`: attempts sort causally by
    /// pass (a packet sits in exactly one shard's queue per pass) and are
    /// numbered 1..n.
    fn build_journeys(
        &self,
        workload: &Workload,
        queues: &[VecDeque<Job>],
        served: &[Option<usize>],
        mut tagged: Vec<(usize, u32, Attempt)>,
    ) -> Vec<PacketJourney> {
        let shards = self.backends.len();
        // Which original dispatch queue held each packet, and whether it
        // got there by stealing.
        let mut queue_shard: Vec<usize> = vec![0; workload.packets.len()];
        let mut stolen: Vec<bool> = vec![false; workload.packets.len()];
        for (s, queue) in queues.iter().enumerate() {
            for job in queue {
                queue_shard[job.pkt_idx] = s;
                stolen[job.pkt_idx] = job.stolen;
            }
        }
        tagged.sort_by_key(|&(pkt_idx, pass, _)| (pkt_idx, pass));
        let mut per_pkt: Vec<Vec<Attempt>> = vec![Vec::new(); workload.packets.len()];
        for (pkt_idx, _, mut attempt) in tagged {
            let list = &mut per_pkt[pkt_idx];
            attempt.attempt = list.len() as u32 + 1;
            list.push(attempt);
        }
        per_pkt
            .into_iter()
            .enumerate()
            .map(|(pkt_idx, attempts)| {
                let channel = workload.packets[pkt_idx].channel;
                let failover = attempts.iter().any(|a| a.shard != queue_shard[pkt_idx]);
                let outcome = if served[pkt_idx].is_some() {
                    AttemptOutcome::Completed
                } else {
                    AttemptOutcome::Abandoned
                };
                PacketJourney {
                    trace_id: pkt_idx,
                    channel: channel as u8,
                    home_shard: channel % shards,
                    served_shard: served[pkt_idx].or_else(|| attempts.last().map(|a| a.shard)),
                    stolen: stolen[pkt_idx],
                    failover,
                    attempts,
                    outcome,
                }
            })
            .collect()
    }

    /// Verifies every merged record against the reference (`mccp-aes`)
    /// implementations. Returns the number of packets checked. Records may
    /// come from any engine or shard layout; only bytes matter.
    pub fn verify(
        &self,
        workload: &Workload,
        report: &ClusterReport,
    ) -> Result<usize, VerifyError> {
        use mccp_aes::modes::{ccm_seal, ctr_xcrypt, CcmParams, GcmContext};

        let records = &report.merged.records;
        // One expanded key schedule — and, for GCM channels, one set of
        // cached hash-key powers — per *channel*, not per record.
        let channels = self.channels.len();
        let mut aes_by_ch: Vec<Option<mccp_aes::Aes>> = (0..channels).map(|_| None).collect();
        let mut gcm_by_ch: Vec<Option<GcmContext<mccp_aes::Aes>>> =
            (0..channels).map(|_| None).collect();

        for rec in records {
            let fail = |kind| VerifyError {
                packet_idx: rec.packet_idx,
                channel: rec.channel,
                kind,
            };
            let reference = |e: String| fail(VerifyErrorKind::Reference(e));
            let pkt = &workload.packets[rec.packet_idx];
            let ch = &self.channels[rec.channel];
            let aes = aes_by_ch[rec.channel]
                .get_or_insert_with(|| mccp_aes::Aes::new(&self.keys[rec.channel]));
            let (expect_ct, expect_tag): (Vec<u8>, Vec<u8>) = match ch.profile.algorithm.mode() {
                Mode::Gcm => {
                    let ctx =
                        gcm_by_ch[rec.channel].get_or_insert_with(|| GcmContext::new(aes.clone()));
                    let out = ctx
                        .seal(&rec.iv, &pkt.aad, &pkt.payload, 16)
                        .map_err(|e| reference(e.to_string()))?;
                    let n = pkt.payload.len();
                    (out[..n].to_vec(), out[n..].to_vec())
                }
                Mode::Ccm => {
                    let params = CcmParams {
                        nonce_len: rec.iv.len(),
                        tag_len: ch.profile.tag_len,
                    };
                    let out = ccm_seal(&*aes, &params, &rec.iv, &pkt.aad, &pkt.payload)
                        .map_err(|e| reference(e.to_string()))?;
                    let n = pkt.payload.len();
                    (out[..n].to_vec(), out[n..].to_vec())
                }
                Mode::Ctr => {
                    let mut body = pkt.payload.clone();
                    let ctr0: [u8; 16] = rec.iv.as_slice().try_into().map_err(|_| {
                        reference(format!("CTR IV must be 16 bytes, got {}", rec.iv.len()))
                    })?;
                    ctr_xcrypt(&*aes, &ctr0, &mut body).map_err(|e| reference(e.to_string()))?;
                    (body, Vec::new())
                }
                Mode::CbcMac => {
                    let mac = mccp_aes::modes::cbc_mac(&*aes, &pkt.payload, 16)
                        .map_err(|e| reference(e.to_string()))?;
                    (Vec::new(), mac)
                }
            };
            if rec.ciphertext != expect_ct {
                return Err(fail(VerifyErrorKind::CiphertextMismatch));
            }
            if rec.tag != expect_tag {
                return Err(fail(VerifyErrorKind::TagMismatch));
            }
        }
        Ok(records.len())
    }

    /// The receiver role: decrypts a previously produced run back through
    /// shard 0 (every shard holds every channel under the same handle, with
    /// the same keys and IVs) and checks every payload round-trips.
    /// Returns the total decrypt cycles.
    ///
    /// # Panics
    /// Panics if an authentic packet fails authentication or mismatches —
    /// either is an engine bug, not a workload condition.
    pub fn run_receive(&mut self, workload: &Workload, sent: &RunReport) -> u64 {
        let backend = &mut self.backends[0];
        let start = backend.now();
        for rec in &sent.records {
            let pkt = &workload.packets[rec.packet_idx];
            let handle = self.handles[rec.channel];
            let mode = self.channels[rec.channel].profile.algorithm.mode();
            let done = match mode {
                Mode::Gcm | Mode::Ccm => submit_and_wait(
                    backend,
                    handle,
                    Direction::Decrypt,
                    &rec.iv,
                    &pkt.aad,
                    &rec.ciphertext,
                    Some(&rec.tag),
                ),
                // CTR decrypt = encrypt with the same counter block.
                Mode::Ctr => submit_and_wait(
                    backend,
                    handle,
                    Direction::Decrypt,
                    &rec.iv,
                    &[],
                    &rec.ciphertext,
                    None,
                ),
                // Verify-by-recompute: MAC the payload again and compare.
                Mode::CbcMac => submit_and_wait(
                    backend,
                    handle,
                    Direction::Encrypt,
                    &[],
                    &[],
                    &pkt.payload,
                    None,
                ),
            }
            .expect("receive accepted");
            match mode {
                Mode::Gcm | Mode::Ccm => {
                    assert!(done.auth_ok, "authentic packet must decrypt");
                    assert_eq!(done.body, pkt.payload, "round-trip mismatch");
                }
                Mode::Ctr => assert_eq!(done.body, pkt.payload, "round-trip mismatch"),
                Mode::CbcMac => assert_eq!(done.tag, rec.tag, "MAC verify mismatch"),
            }
        }
        backend.now() - start
    }
}

#[derive(Default)]
struct ShardOutcome {
    records: Vec<PacketRecord>,
    cycles: u64,
    retries: u64,
    resets: u64,
    abandoned: Vec<AbandonedPacket>,
    /// Jobs left behind when the shard died (queued or in flight).
    orphans: Vec<Job>,
    dead: bool,
    /// Host wall-clock seconds inside this serving-loop call.
    busy_seconds: f64,
    /// Attempts tagged `(packet index, pass)`, recorded when observe is
    /// on; ordinals are assigned when journeys are assembled.
    attempts: Vec<(usize, u32, Attempt)>,
}

impl ShardOutcome {
    /// Folds one pass on the same shard into this total (the caller has
    /// taken the pass's orphans). A shard with nothing queued in a pass
    /// returns an empty outcome, so a dead shard stays dead.
    fn absorb(&mut self, pass: ShardOutcome) {
        self.records.extend(pass.records);
        self.cycles += pass.cycles;
        self.retries += pass.retries;
        self.resets += pass.resets;
        self.abandoned.extend(pass.abandoned);
        self.dead |= pass.dead;
        self.busy_seconds += pass.busy_seconds;
        self.attempts.extend(pass.attempts);
    }
}

/// Which shard and pass a serving-loop call is, and whether it records
/// its attempts (observe on).
#[derive(Clone, Copy)]
struct ShardPass {
    shard: usize,
    pass: u32,
    observe: bool,
}

/// A queued attempt: the job's slot in `queue`, failed attempts so far,
/// and the shard-local cycle it may be submitted at — its arrival, or the
/// end of its retry backoff.
#[derive(Clone, Copy)]
struct Try {
    q: usize,
    attempt: u32,
    ready_at: u64,
}

/// One shard's serving loop: submit arrived jobs in queue order (IVs
/// pre-assigned) until the engine reports `NoResource`, advance the clock
/// — leaping quiescent spans up to the next arrival, an external event the
/// engine's horizon cannot see — and poll completions. On top of that sits
/// the fault-recovery plane: faulted packets are resubmitted with
/// exponential backoff, quarantined cores are hard-reset after a
/// cool-down, and a killed shard hands its leftovers back as orphans.
fn run_shard<B: ChannelBackend>(
    backend: &mut B,
    workload: &Workload,
    handles: &[ChannelId],
    queue: &VecDeque<Job>,
    kill_after: Option<u64>,
    at: ShardPass,
) -> ShardOutcome {
    let host_started = std::time::Instant::now();
    let mut pending: VecDeque<Try> = (0..queue.len())
        .map(|q| Try {
            q,
            attempt: 0,
            ready_at: workload.packets[queue[q].pkt_idx].arrival_cycle,
        })
        .collect();
    // (request, queue slot, failed attempts so far, shard-local submit cycle)
    let mut in_flight: Vec<(mccp_core::RequestId, usize, u32, u64)> = Vec::new();
    let mut records = Vec::with_capacity(queue.len());
    let mut abandoned = Vec::new();
    let mut attempts: Vec<(usize, u32, Attempt)> = Vec::new();
    let mut retries = 0u64;
    let mut resets = 0u64;
    let start = backend.now();
    let mut guard = 0u64;

    while !pending.is_empty() || !in_flight.is_empty() {
        // Shard kill: the whole engine dies after serving its quota; the
        // dispatcher inherits everything still queued or in flight (a
        // faulted engine's in-flight work never produced output, so the
        // jobs are safe to replay elsewhere with their original IVs).
        if let Some(k) = kill_after {
            if records.len() as u64 >= k {
                let now = backend.now() - start;
                let now_abs = backend.now();
                // In-flight work dies with the shard: close its spans (no
                // engine event will) and record the failed attempts — the
                // jobs replay on a survivor as a failover hop.
                for &(id, q, _, submitted_at) in &in_flight {
                    backend.telemetry_mut().abandon_request(id.0, now_abs);
                    if at.observe {
                        attempts.push((
                            queue[q].pkt_idx,
                            at.pass,
                            Attempt {
                                attempt: 0,
                                shard: at.shard,
                                request: id.0,
                                submitted_at,
                                finished_at: now,
                                outcome: AttemptOutcome::Failed,
                                error: Some("shard died".into()),
                            },
                        ));
                    }
                }
                let orphans = pending
                    .iter()
                    .map(|t| queue[t.q].clone())
                    .chain(in_flight.iter().map(|&(_, q, _, _)| queue[q].clone()))
                    .collect();
                return ShardOutcome {
                    records,
                    cycles: now,
                    retries,
                    resets,
                    abandoned,
                    orphans,
                    dead: true,
                    busy_seconds: host_started.elapsed().as_secs_f64(),
                    attempts,
                };
            }
        }

        // Self-healing: hard-reset quarantined cores once their cool-down
        // has passed. `reset_core` refuses (Busy) while a live request
        // still references the core — retried on the next iteration.
        let now_abs = backend.now();
        for c in backend.health().quarantined {
            if now_abs >= c.quarantined_at.saturating_add(RESET_DELAY_CYCLES)
                && backend.reset_core(c.core).is_ok()
            {
                resets += 1;
            }
        }

        loop {
            let now = backend.now() - start;
            let Some(pos) = pending.iter().position(|t| t.ready_at <= now) else {
                break;
            };
            let t = pending[pos];
            let job = &queue[t.q];
            let pkt = &workload.packets[job.pkt_idx];
            match backend.submit_packet(
                handles[pkt.channel],
                Direction::Encrypt,
                &job.iv,
                &pkt.aad,
                &pkt.payload,
                None,
            ) {
                Ok(id) => {
                    backend.telemetry_counter_add(
                        &metrics::series("mccp_sdr_offered_packets_total", "channel", pkt.channel),
                        1,
                    );
                    in_flight.push((id, t.q, t.attempt, now));
                    pending.remove(pos);
                }
                Err(MccpError::NoResource) => break,
                // Dispatch-time faults (e.g. a corrupted key cache, wiped
                // on detection) back off and retry like completion faults.
                Err(e) if e.is_retryable() => {
                    let failed = t.attempt + 1;
                    let terminal = failed >= MAX_ATTEMPTS;
                    if at.observe {
                        // A refused submission never got a request id; the
                        // attempt still happened, at dispatch time.
                        attempts.push((
                            job.pkt_idx,
                            at.pass,
                            Attempt {
                                attempt: 0,
                                shard: at.shard,
                                request: 0,
                                submitted_at: now,
                                finished_at: now,
                                outcome: if terminal {
                                    AttemptOutcome::Abandoned
                                } else {
                                    AttemptOutcome::Failed
                                },
                                error: Some(e.to_string()),
                            },
                        ));
                    }
                    if terminal {
                        abandoned.push(AbandonedPacket {
                            pkt_idx: job.pkt_idx,
                            channel: pkt.channel,
                            error: e.to_string(),
                            attempts: failed,
                        });
                        pending.remove(pos);
                    } else {
                        retries += 1;
                        backend.telemetry_counter_add("mccp_cluster_retries_total", 1);
                        pending[pos].attempt = failed;
                        pending[pos].ready_at = now + backoff_cycles(failed);
                    }
                }
                Err(e) => panic!("packet {} rejected: {e}", job.pkt_idx),
            }
        }

        // Clock advance, bounded by the next arrival or backoff release
        // and by the next quarantine cool-down expiry (else a shard with
        // every core fenced and nothing in flight would fast-forward
        // straight past its own recovery point).
        let now = backend.now() - start;
        let wait_bound = pending
            .iter()
            .map(|t| t.ready_at)
            .filter(|&a| a > now)
            .map(|a| a - now)
            .min()
            .unwrap_or(u64::MAX);
        let now_abs = backend.now();
        let reset_bound = backend
            .health()
            .quarantined
            .iter()
            .map(|c| {
                c.quarantined_at
                    .saturating_add(RESET_DELAY_CYCLES)
                    .saturating_sub(now_abs)
                    .max(1)
            })
            .min()
            .unwrap_or(u64::MAX);
        guard += backend.step(wait_bound.min(reset_bound).min(500_000_000 - guard));
        assert!(guard < 500_000_000, "shard wedged");

        loop {
            // Stop polling at the kill quota — the next iteration's death
            // check orphans everything still queued or in flight.
            if let Some(k) = kill_after {
                if records.len() as u64 >= k {
                    break;
                }
            }
            let Some(done) = backend.poll_completion() else {
                break;
            };
            let pos = in_flight
                .iter()
                .position(|(r, _, _, _)| *r == done.request)
                .expect("tracked request");
            let (_, q, attempt, submitted_at) = in_flight.swap_remove(pos);
            let job = &queue[q];
            let pkt = &workload.packets[job.pkt_idx];
            let now = backend.now() - start;
            if let Some(err) = done.fault {
                // Fault-plane termination: the engine wiped everything, so
                // the packet replays with its original IV — same key, same
                // plaintext, byte-identical output on success. No nonce is
                // burned and none is reused across distinct plaintexts.
                let failed = attempt + 1;
                let will_retry = err.is_retryable() && failed < MAX_ATTEMPTS;
                if at.observe {
                    attempts.push((
                        job.pkt_idx,
                        at.pass,
                        Attempt {
                            attempt: 0,
                            shard: at.shard,
                            request: done.request.0,
                            submitted_at,
                            finished_at: now,
                            outcome: if will_retry {
                                AttemptOutcome::Failed
                            } else {
                                AttemptOutcome::Abandoned
                            },
                            error: Some(err.to_string()),
                        },
                    ));
                }
                if will_retry {
                    retries += 1;
                    backend.telemetry_counter_add("mccp_cluster_retries_total", 1);
                    pending.push_back(Try {
                        q,
                        attempt: failed,
                        ready_at: now + backoff_cycles(failed),
                    });
                } else {
                    // The engine's RequestFailed already closed the span's
                    // failure milestone; stamp the cluster-level terminal.
                    let now_abs = backend.now();
                    backend
                        .telemetry_mut()
                        .abandon_request(done.request.0, now_abs);
                    abandoned.push(AbandonedPacket {
                        pkt_idx: job.pkt_idx,
                        channel: pkt.channel,
                        error: err.to_string(),
                        attempts: failed,
                    });
                }
                continue;
            }
            assert!(done.auth_ok, "encrypt never auth-fails");
            let completed_at = now;
            if at.observe {
                attempts.push((
                    job.pkt_idx,
                    at.pass,
                    Attempt {
                        attempt: 0,
                        shard: at.shard,
                        request: done.request.0,
                        submitted_at,
                        finished_at: now,
                        outcome: AttemptOutcome::Completed,
                        error: None,
                    },
                ));
            }
            if backend.telemetry_enabled() {
                backend.telemetry_counter_add(
                    &metrics::series("mccp_sdr_served_packets_total", "channel", pkt.channel),
                    1,
                );
                backend.telemetry_counter_add(
                    &metrics::series("mccp_sdr_served_bytes_total", "channel", pkt.channel),
                    pkt.payload.len() as u64,
                );
            }
            records.push(PacketRecord {
                packet_idx: job.pkt_idx,
                channel: pkt.channel,
                iv: job.iv.clone(),
                ciphertext: done.body,
                tag: done.tag,
                latency: done.latency_cycles,
                completed_at,
            });
        }
    }

    ShardOutcome {
        records,
        cycles: backend.now() - start,
        retries,
        resets,
        abandoned,
        orphans: Vec::new(),
        dead: false,
        busy_seconds: host_started.elapsed().as_secs_f64(),
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use mccp_core::{FaultKind, FaultPlan, FaultTrigger};

    fn spec(standards: Vec<Standard>, packets: usize) -> WorkloadSpec {
        WorkloadSpec {
            standards,
            packets,
            seed: 11,
            fixed_payload_len: Some(160),
            mean_interarrival_cycles: None,
        }
    }

    #[test]
    fn functional_cluster_serves_and_verifies() {
        let spec = spec(
            vec![
                Standard::Wifi,
                Standard::Wimax,
                Standard::Umts,
                Standard::SecureVoice,
            ],
            24,
        );
        let workload = Workload::generate(spec.clone());
        let mut cluster = MccpCluster::functional(
            ClusterConfig {
                shards: 4,
                work_stealing: true,
                telemetry_capacity: Some(1024),
                observe: true,
            },
            &spec.standards,
            7,
        );
        let report = cluster.run(&workload, DispatchPolicy::Fifo);
        assert_eq!(report.merged.packets, 24);
        assert_eq!(cluster.verify(&workload, &report).unwrap(), 24);
        // Affinity dispatch on a balanced round-robin workload: no steals
        // needed, every shard served its own channel's packets.
        assert_eq!(report.stolen_packets, 0);
        assert!(report.shards.iter().all(|s| s.packets == 6));
        // Merged telemetry sums the per-shard serving counters.
        let t = report.telemetry.as_ref().expect("telemetry on");
        assert_eq!(t.counter("mccp_requests_submitted_total"), 24);
        // Observability plane: one complete single-attempt journey per
        // packet (fault-free), served on the packet's home shard.
        let journeys = report.journeys.as_ref().expect("observe on");
        assert_eq!(journeys.len(), 24);
        for j in journeys {
            assert!(j.is_complete(), "incomplete journey: {j:?}");
            assert_eq!(j.attempts.len(), 1);
            assert_eq!(j.served_shard, Some(j.home_shard));
            assert!(!j.stolen && !j.failover);
        }
        // SLO rows cover every channel; a fault-free run attains 1000‰.
        let slo = report.slo.as_ref().expect("observe on");
        assert_eq!(slo.len(), 4);
        assert!(slo.iter().all(|row| row.attained_permille == 1000));
        // SLO gauges land in the merged snapshot; health is fully green.
        assert_eq!(t.gauge("mccp_slo_attained_permille{channel=\"0\"}"), 1000);
        assert!(report.health.iter().all(|h| h.score == 100));
        assert_eq!(report.wall.shard_busy_seconds.len(), 4);
    }

    #[test]
    fn work_stealing_rebalances_skewed_load() {
        // Two channels, both mapping to shard 0 of 2 (channels 0 and 2
        // would balance; here 2 channels over 4 shards leaves 2 idle).
        let spec = spec(vec![Standard::Wifi, Standard::Wimax], 16);
        let workload = Workload::generate(spec.clone());
        let cfg = |stealing| ClusterConfig {
            shards: 4,
            work_stealing: stealing,
            telemetry_capacity: None,
            observe: false,
        };
        let mut lazy = MccpCluster::functional(cfg(false), &spec.standards, 3);
        let r_lazy = lazy.run(&workload, DispatchPolicy::Fifo);
        assert_eq!(r_lazy.stolen_packets, 0);
        assert_eq!(r_lazy.shards[2].packets + r_lazy.shards[3].packets, 0);

        let mut stealing = MccpCluster::functional(cfg(true), &spec.standards, 3);
        let r = stealing.run(&workload, DispatchPolicy::Fifo);
        assert!(r.stolen_packets > 0, "idle shards must steal");
        assert!(
            r.shards.iter().all(|s| s.packets == 4),
            "stealing balances 16 packets over 4 shards"
        );
        // Stolen or not, every packet still verifies (IVs are central).
        assert_eq!(stealing.verify(&workload, &r).unwrap(), 16);
    }

    #[test]
    fn work_stealing_rebalances_channel_affinity_hotspot() {
        // 8 channels over 4 shards: channels 0 and 4 both have affinity
        // shard 0. A traffic hotspot on exactly those two channels loads
        // shard 0 with everything while 3 shards idle — the case affinity
        // dispatch cannot balance and *only* work stealing fixes. (The
        // older skewed test uses fewer channels than shards; this one
        // proves stealing also fires when every shard owns channels but
        // the *traffic* is skewed.)
        let standards = vec![
            Standard::Wifi,
            Standard::Wimax,
            Standard::Umts,
            Standard::SecureVoice,
            Standard::Wifi,
            Standard::Wimax,
            Standard::Umts,
            Standard::SecureVoice,
        ];
        let spec = WorkloadSpec {
            standards: standards.clone(),
            packets: 16,
            seed: 0,
            fixed_payload_len: Some(160),
            mean_interarrival_cycles: None,
        };
        let packets: Vec<crate::workload::RadioPacket> = (0..16)
            .map(|i| crate::workload::RadioPacket {
                channel: if i % 2 == 0 { 0 } else { 4 },
                aad: vec![0xA5; 8],
                payload: vec![i as u8; 160],
                priority: 1,
                arrival_cycle: 0,
            })
            .collect();
        let workload = Workload { spec, packets };
        let cfg = |stealing| ClusterConfig {
            shards: 4,
            work_stealing: stealing,
            telemetry_capacity: None,
            observe: false,
        };
        let mut lazy = MccpCluster::functional(cfg(false), &standards, 3);
        let r_lazy = lazy.run(&workload, DispatchPolicy::Fifo);
        assert_eq!(r_lazy.stolen_packets, 0);
        assert_eq!(
            r_lazy.shards[0].packets, 16,
            "without stealing the hotspot shard serves everything"
        );

        let mut stealing = MccpCluster::functional(cfg(true), &standards, 3);
        let r = stealing.run(&workload, DispatchPolicy::Fifo);
        assert!(
            r.stolen_packets > 0,
            "hotspot traffic must trigger steals even when all shards own channels"
        );
        assert!(
            r.shards.iter().all(|s| s.packets == 4),
            "stealing balances the hotspot: {:?}",
            r.shards.iter().map(|s| s.packets).collect::<Vec<_>>()
        );
        assert_eq!(stealing.verify(&workload, &r).unwrap(), 16);
    }

    /// A one-shard cycle-accurate cluster: the plain batch replayer.
    fn cycle_radio(config: MccpConfig, standards: &[Standard], key_seed: u64) -> MccpCluster<Mccp> {
        MccpCluster::cycle_accurate(ClusterConfig::default(), config, standards, key_seed)
    }

    #[test]
    fn multi_standard_run_verifies() {
        let spec = WorkloadSpec {
            standards: vec![Standard::Wifi, Standard::Wimax, Standard::Umts],
            packets: 12,
            seed: 42,
            fixed_payload_len: Some(200),
            mean_interarrival_cycles: None,
        };
        let workload = Workload::generate(spec.clone());
        let mut radio = cycle_radio(MccpConfig::default(), &spec.standards, 7);
        let report = radio.run(&workload, DispatchPolicy::Fifo);
        assert_eq!(report.merged.packets, 12);
        assert!(report.aggregate_throughput_mbps() > 0.0);
        let checked = radio.verify(&workload, &report).expect("all verified");
        assert_eq!(checked, 12);
    }

    #[test]
    fn functional_backend_run_verifies() {
        // The same workload through the functional engine: every record
        // still checks against the reference implementations.
        let spec = WorkloadSpec {
            standards: vec![Standard::Wifi, Standard::Wimax, Standard::Umts],
            packets: 12,
            seed: 42,
            fixed_payload_len: Some(200),
            mean_interarrival_cycles: None,
        };
        let workload = Workload::generate(spec.clone());
        let mut radio = MccpCluster::functional(ClusterConfig::default(), &spec.standards, 7);
        let report = radio.run(&workload, DispatchPolicy::Fifo);
        assert_eq!(report.merged.packets, 12);
        let checked = radio.verify(&workload, &report).expect("all verified");
        assert_eq!(checked, 12);
        // And the functional engine decrypts its own output back.
        let mut rx = MccpCluster::functional(ClusterConfig::default(), &spec.standards, 7);
        rx.run_receive(&workload, &report.merged);
    }

    #[test]
    fn four_cores_beat_one_core_on_throughput() {
        let spec = WorkloadSpec {
            standards: vec![Standard::Wimax],
            packets: 8,
            seed: 1,
            fixed_payload_len: Some(1024),
            mean_interarrival_cycles: None,
        };
        let workload = Workload::generate(spec.clone());

        let r4 = cycle_radio(MccpConfig::default(), &spec.standards, 3)
            .run(&workload, DispatchPolicy::Fifo)
            .merged;
        let cfg1 = MccpConfig {
            n_cores: 1,
            ..MccpConfig::default()
        };
        let r1 = cycle_radio(cfg1, &spec.standards, 3)
            .run(&workload, DispatchPolicy::Fifo)
            .merged;

        assert!(
            r4.throughput_mbps() > 3.0 * r1.throughput_mbps(),
            "4 cores: {:.0} Mbps, 1 core: {:.0} Mbps",
            r4.throughput_mbps(),
            r1.throughput_mbps()
        );
    }

    #[test]
    fn duplex_roundtrip_through_hardware() {
        // Transmit with one radio, receive with another (fresh MCCP, same
        // keys) — every packet decrypts back through the simulator.
        let spec = WorkloadSpec {
            standards: vec![Standard::Wifi, Standard::Wimax, Standard::Umts],
            packets: 9,
            seed: 77,
            fixed_payload_len: Some(120),
            mean_interarrival_cycles: None,
        };
        let workload = Workload::generate(spec.clone());
        let mut tx = cycle_radio(MccpConfig::default(), &spec.standards, 5);
        let report = tx.run(&workload, DispatchPolicy::Fifo);
        let mut rx = cycle_radio(MccpConfig::default(), &spec.standards, 5);
        let cycles = rx.run_receive(&workload, &report.merged);
        assert!(cycles > 0);
    }

    #[test]
    fn telemetry_counts_offered_and_served_per_channel() {
        let spec = WorkloadSpec {
            standards: vec![Standard::Wifi, Standard::Umts],
            packets: 10,
            seed: 13,
            fixed_payload_len: Some(96),
            mean_interarrival_cycles: None,
        };
        let workload = Workload::generate(spec.clone());
        let mut radio = cycle_radio(MccpConfig::default(), &spec.standards, 2);
        radio.backend_mut(0).enable_telemetry(1024);
        let report = radio.run(&workload, DispatchPolicy::Fifo);
        assert_eq!(report.merged.packets, 10);

        let snap = radio.backend_mut(0).telemetry_snapshot();
        for ch in 0..spec.standards.len() {
            let expect = workload.packets.iter().filter(|p| p.channel == ch).count() as u64;
            let offered = snap.counter(&metrics::series(
                "mccp_sdr_offered_packets_total",
                "channel",
                ch,
            ));
            let served = snap.counter(&metrics::series(
                "mccp_sdr_served_packets_total",
                "channel",
                ch,
            ));
            assert_eq!(offered, expect, "offered on channel {ch}");
            assert_eq!(served, expect, "served on channel {ch}");
            let bytes = snap.counter(&metrics::series(
                "mccp_sdr_served_bytes_total",
                "channel",
                ch,
            ));
            assert_eq!(bytes, expect * 96, "bytes on channel {ch}");
        }
        // The simulator-side lifecycle counters agree with the run report.
        assert_eq!(snap.counter("mccp_requests_submitted_total"), 10);
        assert_eq!(snap.counter("mccp_requests_completed_total"), 10);
    }

    #[test]
    fn latency_stats_are_consistent() {
        let spec = WorkloadSpec {
            standards: vec![Standard::SecureVoice],
            packets: 6,
            seed: 5,
            fixed_payload_len: Some(64),
            mean_interarrival_cycles: None,
        };
        let workload = Workload::generate(spec.clone());
        let report = cycle_radio(MccpConfig::default(), &spec.standards, 1)
            .run(&workload, DispatchPolicy::Fifo)
            .merged;
        assert!(report.mean_latency() > 0.0);
        assert!(report.max_latency() >= report.latency_percentile(0.5));
        assert_eq!(report.latency_percentile(1.0), report.max_latency());
    }

    fn report_with_latencies(latencies: &[u64]) -> RunReport {
        RunReport {
            cycles: 1,
            packets: latencies.len(),
            payload_bits: 0,
            records: latencies
                .iter()
                .enumerate()
                .map(|(i, &l)| PacketRecord {
                    packet_idx: i,
                    channel: 0,
                    iv: Vec::new(),
                    ciphertext: Vec::new(),
                    tag: Vec::new(),
                    latency: l,
                    completed_at: l,
                })
                .collect(),
        }
    }

    #[test]
    fn latency_percentile_empty_records() {
        let r = report_with_latencies(&[]);
        for p in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(r.latency_percentile(p), 0);
        }
    }

    #[test]
    fn latency_percentile_clamps_p() {
        let r = report_with_latencies(&[30, 10, 20, 50, 40]);
        assert_eq!(r.latency_percentile(0.0), 10, "p=0 is the minimum");
        assert_eq!(r.latency_percentile(1.0), 50, "p=1 is the maximum");
        assert_eq!(r.latency_percentile(-0.3), 10, "p<0 clamps to minimum");
        assert_eq!(r.latency_percentile(7.0), 50, "p>1 clamps to maximum");
        assert_eq!(r.latency_percentile(f64::NAN), 10, "NaN maps to minimum");
        assert_eq!(r.latency_percentile(0.5), 30, "median of five");
    }

    #[test]
    fn cycle_cluster_halves_makespan_with_two_shards() {
        // Single-core shards so the scaling signal is all from sharding,
        // not from intra-shard core parallelism.
        let mccp_cfg = MccpConfig {
            n_cores: 1,
            ..MccpConfig::default()
        };
        let spec = spec(vec![Standard::Wifi, Standard::Wimax], 12);
        let workload = Workload::generate(spec.clone());
        let one = MccpCluster::cycle_accurate(
            ClusterConfig {
                shards: 1,
                work_stealing: true,
                telemetry_capacity: None,
                observe: false,
            },
            mccp_cfg.clone(),
            &spec.standards,
            9,
        )
        .run(&workload, DispatchPolicy::Fifo);
        let two = MccpCluster::cycle_accurate(
            ClusterConfig {
                shards: 2,
                work_stealing: true,
                telemetry_capacity: None,
                observe: false,
            },
            mccp_cfg,
            &spec.standards,
            9,
        )
        .run(&workload, DispatchPolicy::Fifo);
        assert_eq!(one.merged.packets, 12);
        assert_eq!(two.merged.packets, 12);
        assert!(
            (two.merged.cycles as f64) < 0.75 * one.merged.cycles as f64,
            "2 shards: {} cycles, 1 shard: {} cycles",
            two.merged.cycles,
            one.merged.cycles
        );
    }

    #[test]
    fn functional_cluster_retries_transient_faults() {
        let spec = spec(vec![Standard::Wifi, Standard::Wimax], 12);
        let workload = Workload::generate(spec.clone());
        let mut cluster = MccpCluster::functional(
            ClusterConfig {
                shards: 2,
                ..Default::default()
            },
            &spec.standards,
            5,
        );
        // Two transient faults on shard 0's 2nd and 5th submissions; both
        // packets must come back on retry with their original IVs.
        let plan = FaultPlan::new()
            .with(
                FaultTrigger::AtPacket(2),
                FaultKind::FlipFifoBit {
                    core: 0,
                    output: false,
                    bit: 3,
                },
            )
            .with(
                FaultTrigger::AtPacket(5),
                FaultKind::CorruptKeyCache { core: 0 },
            );
        cluster.backend_mut(0).arm_faults(&plan);
        let report = cluster.run(&workload, DispatchPolicy::Fifo);
        assert_eq!(report.merged.packets, 12, "every packet recovered");
        assert!(report.abandoned.is_empty());
        assert_eq!(report.retries, 2);
        assert_eq!(report.shards[0].retries, 2);
        assert_eq!(cluster.verify(&workload, &report).unwrap(), 12);
    }

    #[test]
    fn exhausted_retries_are_abandoned_not_dropped() {
        let spec = spec(vec![Standard::Wifi], 1);
        let workload = Workload::generate(spec.clone());
        let mut cluster = MccpCluster::functional(ClusterConfig::default(), &spec.standards, 5);
        // The lone packet faults on its first try and on both retries:
        // max_attempts (3) exhausted, so it is reported abandoned.
        let mut plan = FaultPlan::new();
        for p in 1..=3 {
            plan = plan.with(FaultTrigger::AtPacket(p), FaultKind::WedgeCore { core: 0 });
        }
        cluster.backend_mut(0).arm_faults(&plan);
        let report = cluster.run(&workload, DispatchPolicy::Fifo);
        assert_eq!(report.merged.packets, 0);
        assert_eq!(report.retries, 2, "two retries, then give up");
        assert_eq!(report.abandoned.len(), 1);
        assert_eq!(report.abandoned[0].pkt_idx, 0);
        assert_eq!(report.abandoned[0].attempts, 3);
    }

    #[test]
    fn dead_shard_queue_redistributes_to_survivors() {
        let spec = spec(
            vec![
                Standard::Wifi,
                Standard::Wimax,
                Standard::Umts,
                Standard::SecureVoice,
            ],
            24,
        );
        let workload = Workload::generate(spec.clone());
        let mut cluster = MccpCluster::functional(
            ClusterConfig {
                shards: 4,
                ..Default::default()
            },
            &spec.standards,
            7,
        );
        cluster.set_shard_kills(vec![(1, 2)]);
        let report = cluster.run(&workload, DispatchPolicy::Fifo);
        assert_eq!(report.dead_shards, 1);
        assert!(report.shards[1].dead);
        assert_eq!(report.shards[1].packets, 2, "died after its quota");
        assert_eq!(report.merged.packets, 24, "survivors absorbed the rest");
        assert!(report.abandoned.is_empty());
        assert_eq!(cluster.verify(&workload, &report).unwrap(), 24);
    }

    #[test]
    fn all_shards_dead_reports_unserved_packets() {
        let spec = spec(vec![Standard::Wifi], 3);
        let workload = Workload::generate(spec.clone());
        let mut cluster = MccpCluster::functional(ClusterConfig::default(), &spec.standards, 5);
        cluster.set_shard_kills(vec![(0, 1)]);
        let report = cluster.run(&workload, DispatchPolicy::Fifo);
        assert_eq!(report.merged.packets, 1);
        assert_eq!(report.dead_shards, 1);
        assert_eq!(report.abandoned.len(), 2, "unserved packets are reported");
        assert!(report
            .abandoned
            .iter()
            .all(|a| a.error == "no surviving shard"));
    }

    #[test]
    fn cycle_cluster_quarantines_wedged_core_and_heals() {
        let mccp_cfg = MccpConfig {
            n_cores: 2,
            ..MccpConfig::default()
        };
        let spec = spec(vec![Standard::Wifi, Standard::Wimax], 8);
        let workload = Workload::generate(spec.clone());
        let mut cluster =
            MccpCluster::cycle_accurate(ClusterConfig::default(), mccp_cfg, &spec.standards, 9);
        cluster.backend_mut(0).arm_faults(
            &FaultPlan::new().with(FaultTrigger::AtPacket(2), FaultKind::WedgeCore { core: 0 }),
        );
        let report = cluster.run(&workload, DispatchPolicy::Fifo);
        assert_eq!(report.merged.packets, 8, "wedge recovered, nothing lost");
        assert!(report.abandoned.is_empty());
        assert!(report.retries >= 1, "the wedged request was resubmitted");
        assert!(
            report.core_resets >= 1,
            "the core came back after cool-down"
        );
        let health = cluster.backend_mut(0).health();
        assert!(health.quarantined.is_empty(), "no core left fenced");
        assert_eq!(cluster.verify(&workload, &report).unwrap(), 8);
    }

    /// Each task reports its index and the thread it ran on.
    fn tagged_tasks(n: usize) -> Vec<impl FnOnce() -> (usize, std::thread::ThreadId) + Send> {
        (0..n)
            .map(|i| move || (i, std::thread::current().id()))
            .collect()
    }

    #[test]
    fn fan_out_returns_results_in_task_order() {
        // More tasks than lanes on any host, at and below the threshold.
        for work_bytes in [SERIAL_FALLBACK_BYTES - 1, SERIAL_FALLBACK_BYTES] {
            let tasks = tagged_tasks(host_parallelism() * 2 + 3);
            let n = tasks.len();
            let order: Vec<usize> = fan_out(tasks, work_bytes)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            assert_eq!(order, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fan_out_under_the_threshold_stays_on_the_caller_thread() {
        let caller = std::thread::current().id();
        let out = fan_out(tagged_tasks(6), SERIAL_FALLBACK_BYTES - 1);
        assert!(
            out.iter().all(|&(_, tid)| tid == caller),
            "small pass hopped threads"
        );
    }

    #[test]
    fn fan_out_at_the_threshold_leaves_the_caller_thread() {
        if host_parallelism() < 2 {
            return; // one CPU: every pass runs inline by design
        }
        let caller = std::thread::current().id();
        let out = fan_out(tagged_tasks(4), SERIAL_FALLBACK_BYTES);
        // Lane 0 (tasks 0, lanes, ...) is the caller's thread itself.
        assert_eq!(out[0].1, caller);
        assert!(
            out.iter().any(|&(_, tid)| tid != caller),
            "an at-threshold pass must use a second lane"
        );
    }

    #[test]
    fn fan_out_panic_reraises_after_the_other_lanes_finish() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;
        if host_parallelism() < 2 {
            return; // one CPU: the pass runs inline, so there is no other lane
        }
        /// Signals from inside the unwind of the task that owns it.
        struct SignalOnDrop(mpsc::Sender<()>);
        impl Drop for SignalOnDrop {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }
        let (unwinding, unwound) = mpsc::channel();
        let finished = &AtomicBool::new(false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                // Lane 0, the caller's thread.
                Box::new(move || {
                    let _signal = SignalOnDrop(unwinding);
                    panic!("shard task failed");
                }),
                // Lane 1 finishes only after lane 0 has started unwinding.
                Box::new(move || {
                    unwound.recv().expect("lane 0 unwinds");
                    finished.store(true, Ordering::SeqCst);
                }),
            ];
            fan_out(tasks, SERIAL_FALLBACK_BYTES)
        }));
        assert!(result.is_err(), "the task's panic must reach the caller");
        assert!(
            finished.load(Ordering::SeqCst),
            "the panic resumed before lane 1 was joined"
        );
    }
}
