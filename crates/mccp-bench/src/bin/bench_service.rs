//! Always-on service-plane benchmark: holds 100k+ mostly-idle secure
//! sessions open while a heavy-tailed (Zipf) hot set drives traffic, then
//! sweeps offered load through the admission knee. Emits
//! `BENCH_service.json`.
//!
//! Four measurements:
//!
//! - **Idle cost** — resident bytes per open-but-idle channel, measured
//!   as the `/proc/self/statm` RSS delta across the mass-open phase, and
//!   the p50/p99 wall latency of `open()` itself.
//! - **Sustained serving** — offered-vs-served Mbps under Zipf(1.1)
//!   channel activity at the service's drain capacity.
//! - **Admission knee** — an offered-load sweep from 0.25x to 3x drain
//!   capacity: per-class admitted/shed counts show best-effort shedding
//!   first, standard next, and SecureVoice (Critical) only when the queue
//!   is completely full. Below the knee Critical sheds must be zero.
//! - **Churn** — open/close cycle rate on the fully loaded slab (slot
//!   recycling + generation bumps on every cycle).
//!
//! The two wall-clock rates (served Mbps, lifecycle ops/s) are each the
//! median over [`CHUNKS`] equal chunks of their phase.
//!
//! `--quick` shrinks the channel count and round counts into a CI smoke
//! that asserts the same invariants and prints the JSON without rewriting
//! the BENCH file.
//!
//! ```sh
//! cargo run --release -p mccp-bench --bin bench_service [-- --quick]
//! ```

use mccp_bench::{percentile, Args, BenchFile, Stats};
use mccp_core::FunctionalBackend;
use mccp_sdr::{MccpService, QosClass, ServiceChannelId, ServiceConfig, ServiceError, Standard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SEED: u64 = 0x5E21_CE00;
const ZIPF_EXPONENT: f64 = 1.1;
const PAYLOAD_LEN: usize = 256;
/// Equal chunks the activity and churn phases are timed in; each phase
/// reports its median chunk's rate.
const CHUNKS: usize = 10;

const STANDARDS: [Standard; 4] = [
    Standard::Wifi,
    Standard::Wimax,
    Standard::Umts,
    Standard::SecureVoice,
];

/// Standard for the i-th open, decorrelated from the service's
/// round-robin shard placement (`i % shards`): a plain `i % 4` would give
/// every shard a single QoS class, and per-class admission would never
/// compete inside one queue.
fn standard_for(i: usize) -> Standard {
    STANDARDS[(i.wrapping_mul(2654435761) >> 7) % STANDARDS.len()]
}

fn key_for(standard: Standard, i: usize) -> Vec<u8> {
    let len = match standard {
        Standard::SecureVoice => 32,
        _ => 16,
    };
    vec![(i % 251) as u8 ^ 0x6D; len]
}

/// Resident-set bytes from `/proc/self/statm` (field 2, pages).
fn resident_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0);
    pages * 4096
}

/// Zipf sampler over `n` ranks: precomputed CDF, one binary search per
/// draw. Rank 0 is the hottest channel.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

struct SweepArm {
    multiplier: f64,
    offered_per_round: usize,
    offered: [u64; 3],
    admitted: [u64; 3],
    shed: [u64; 3],
    delivered: u64,
    max_queue_depth: usize,
}

fn class_counts(svc: &MccpService<FunctionalBackend>) -> ([u64; 3], [u64; 3], [u64; 3]) {
    let mut offered = [0u64; 3];
    let mut admitted = [0u64; 3];
    let mut shed = [0u64; 3];
    for class in QosClass::ALL {
        let c = svc.counters().classes[class.index()];
        offered[class.index()] = c.offered;
        admitted[class.index()] = c.admitted;
        shed[class.index()] = c.shed;
    }
    (offered, admitted, shed)
}

fn main() {
    let quick = Args::parse(&["--quick"]).flag("--quick");
    let channels: usize = if quick { 20_000 } else { 120_000 };
    let activity_rounds = if quick { 40 } else { 250 };
    let arm_rounds = if quick { 15 } else { 50 };

    let config = ServiceConfig {
        shards: 4,
        queue_capacity: 256,
        drain_budget: 32,
        warm_set_capacity: 128,
        ..ServiceConfig::default()
    };
    // Per-pump drain capacity across all shards — the knee's x-axis unit.
    let capacity = config.shards * config.drain_budget;
    println!(
        "bench_service{}: {channels} channels over {} shards, \
         queue {} / drain {} per shard ({capacity} pkts per pump)",
        if quick { " (--quick)" } else { "" },
        config.shards,
        config.queue_capacity,
        config.drain_budget
    );

    let mut svc: MccpService<FunctionalBackend> =
        MccpService::new(config.clone(), |_| FunctionalBackend::new());

    // ---- Phase 1: mass open. -------------------------------------------
    let rss_before = resident_bytes();
    let mut open_ns: Vec<u64> = Vec::with_capacity(channels);
    let mut ids: Vec<ServiceChannelId> = Vec::with_capacity(channels);
    let t_open = Instant::now();
    for i in 0..channels {
        let standard = standard_for(i);
        let t = Instant::now();
        let id = svc.open(standard, &key_for(standard, i)).expect("open");
        open_ns.push(t.elapsed().as_nanos() as u64);
        ids.push(id);
    }
    let open_wall = t_open.elapsed().as_secs_f64();
    let rss_after = resident_bytes();
    assert_eq!(svc.occupancy(), channels, "every open channel is resident");
    open_ns.sort_unstable();
    let open_p50 = percentile(&open_ns, 0.50);
    let open_p99 = percentile(&open_ns, 0.99);
    let bytes_per_idle = (rss_after.saturating_sub(rss_before)) / channels as u64;
    println!(
        "  open: {channels} channels in {open_wall:.3}s \
         (p50 {open_p50} ns, p99 {open_p99} ns); \
         RSS {rss_before} -> {rss_after} B (~{bytes_per_idle} B/idle channel)"
    );
    assert!(
        bytes_per_idle < 4096,
        "an idle channel must cost well under a page, got {bytes_per_idle} B"
    );

    // ---- Phase 2: heavy-tailed sustained activity. ---------------------
    // Zipf rank r -> channel r: ranks cycle through the standards, so the
    // hot set spans every QoS class.
    let zipf = Zipf::new(channels, ZIPF_EXPONENT);
    let mut rng = StdRng::seed_from_u64(SEED);
    let payload = vec![0xE7u8; PAYLOAD_LEN];
    let mut delivered = 0u64;
    let mut submitted = 0u64;
    let mut shed_warm = 0u64;
    let mut hits = vec![0u32; channels];
    assert_eq!(activity_rounds % CHUNKS, 0, "activity chunks are equal");
    let rounds_per_chunk = activity_rounds / CHUNKS;
    let mut chunk_mbps = Vec::with_capacity(CHUNKS);
    for chunk in 0..CHUNKS {
        let (t_chunk, delivered_before) = (Instant::now(), delivered);
        for round in chunk * rounds_per_chunk..(chunk + 1) * rounds_per_chunk {
            for _ in 0..capacity {
                let ch = zipf.sample(&mut rng);
                hits[ch] += 1;
                match svc.submit(ids[ch], b"svc-aad", &payload, round as u64) {
                    Ok(()) => submitted += 1,
                    Err(ServiceError::Busy { .. }) => shed_warm += 1,
                    Err(e) => panic!("activity submit: {e:?}"),
                }
            }
            for d in svc.pump() {
                assert!(d.auth_ok);
                delivered += d.body.len() as u64;
            }
        }
        // The last chunk also drains what the phase left queued.
        if chunk + 1 == CHUNKS {
            for d in svc.quiesce(10_000) {
                delivered += d.body.len() as u64;
            }
        }
        let wall = t_chunk.elapsed().as_secs_f64();
        chunk_mbps.push((delivered - delivered_before) as f64 * 8.0 / wall.max(1e-12) / 1e6);
    }
    let served_mbps = Stats::of(chunk_mbps).median;
    let offered_pkts = (activity_rounds * capacity) as u64;
    let mut distinct = 0usize;
    let mut top_hits = 0u64;
    let top_n = channels / 100;
    let mut sorted_hits: Vec<u32> = hits.iter().copied().filter(|&h| h > 0).collect();
    sorted_hits.sort_unstable_by(|a, b| b.cmp(a));
    for (i, h) in sorted_hits.iter().enumerate() {
        distinct += 1;
        if i < top_n.max(1) {
            top_hits += *h as u64;
        }
    }
    let top1pct_share = top_hits as f64 / offered_pkts as f64;
    println!(
        "  activity: {offered_pkts} pkts offered at capacity over {distinct} distinct \
         channels (top 1% of slots took {:.0}% of traffic); served {served_mbps:.0} Mbps \
         sustained (median of {CHUNKS} chunks), {submitted} admitted / {shed_warm} shed",
        top1pct_share * 100.0
    );
    assert!(
        top1pct_share > 0.30,
        "Zipf(1.1) traffic must be heavy-tailed, top-1% share {top1pct_share:.2}"
    );
    assert!(delivered > 0);

    // ---- Phase 3: offered-load sweep through the admission knee. -------
    let multipliers: &[f64] = if quick {
        &[0.5, 1.0, 3.0]
    } else {
        &[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
    };
    let mut arms: Vec<SweepArm> = Vec::new();
    for &m in multipliers {
        let offered_per_round = (capacity as f64 * m).round() as usize;
        let (o0, a0, s0) = class_counts(&svc);
        let mut arm_delivered = 0u64;
        let mut max_queue_depth = 0usize;
        for round in 0..arm_rounds {
            for _ in 0..offered_per_round {
                let ch = zipf.sample(&mut rng);
                match svc.submit(ids[ch], b"svc-aad", &payload, round as u64) {
                    Ok(()) | Err(ServiceError::Busy { .. }) => {}
                    Err(e) => panic!("sweep submit: {e:?}"),
                }
            }
            max_queue_depth =
                max_queue_depth.max(svc.report().queue_depths.iter().copied().max().unwrap_or(0));
            arm_delivered += svc.pump().len() as u64;
        }
        arm_delivered += svc.quiesce(10_000).len() as u64;
        let (o1, a1, s1) = class_counts(&svc);
        let arm = SweepArm {
            multiplier: m,
            offered_per_round,
            offered: [o1[0] - o0[0], o1[1] - o0[1], o1[2] - o0[2]],
            admitted: [a1[0] - a0[0], a1[1] - a0[1], a1[2] - a0[2]],
            shed: [s1[0] - s0[0], s1[1] - s0[1], s1[2] - s0[2]],
            delivered: arm_delivered,
            max_queue_depth,
        };
        println!(
            "  sweep {m:.2}x: offered {:?}, shed {:?} (critical/standard/best-effort), \
             delivered {}, max queue {}",
            arm.offered, arm.shed, arm.delivered, arm.max_queue_depth
        );
        arms.push(arm);
    }

    // The knee: the first arm that sheds more than 0.5% of its offer.
    let knee = arms
        .iter()
        .find(|a| {
            let offered: u64 = a.offered.iter().sum();
            let shed: u64 = a.shed.iter().sum();
            shed as f64 > offered as f64 * 0.005
        })
        .map(|a| a.multiplier);
    println!("  admission knee at {knee:?} x drain capacity");
    for a in &arms {
        if a.multiplier <= 1.0 {
            assert_eq!(
                a.shed[QosClass::Critical.index()],
                0,
                "SecureVoice must never shed below the knee ({}x)",
                a.multiplier
            );
        }
        assert_eq!(
            a.offered.iter().sum::<u64>(),
            a.admitted.iter().sum::<u64>() + a.shed.iter().sum::<u64>(),
            "every offer is admitted or shed"
        );
        assert_eq!(
            a.delivered,
            a.admitted.iter().sum::<u64>(),
            "every admitted packet is delivered"
        );
    }
    let top = arms.last().expect("arms");
    assert!(
        top.shed.iter().sum::<u64>() > 0,
        "3x offered load must overrun the queue and shed"
    );
    let shed_rate = |a: &SweepArm, class: QosClass| {
        a.shed[class.index()] as f64 / a.offered[class.index()].max(1) as f64
    };
    assert!(
        shed_rate(top, QosClass::BestEffort) >= shed_rate(top, QosClass::Standard)
            && shed_rate(top, QosClass::Standard) >= shed_rate(top, QosClass::Critical),
        "shed rates must order best-effort >= standard >= critical, got {:.2}/{:.2}/{:.2}",
        shed_rate(top, QosClass::BestEffort),
        shed_rate(top, QosClass::Standard),
        shed_rate(top, QosClass::Critical)
    );

    // ---- Phase 4: churn on the loaded slab. ----------------------------
    let churn_cycles = if quick { 2_000 } else { 20_000 };
    assert_eq!(churn_cycles % CHUNKS, 0, "churn chunks are equal");
    let cycles_per_chunk = churn_cycles / CHUNKS;
    let mut churn_wall = 0.0;
    let mut chunk_ops = Vec::with_capacity(CHUNKS);
    for chunk in 0..CHUNKS {
        let t_chunk = Instant::now();
        for i in chunk * cycles_per_chunk..(chunk + 1) * cycles_per_chunk {
            let standard = standard_for(i);
            let id = svc
                .open(standard, &key_for(standard, i))
                .expect("churn open");
            svc.close(id).expect("churn close");
        }
        let wall = t_chunk.elapsed().as_secs_f64();
        churn_wall += wall;
        chunk_ops.push(cycles_per_chunk as f64 * 2.0 / wall.max(1e-12));
    }
    let churn_ops_per_sec = Stats::of(chunk_ops).median;
    assert_eq!(svc.occupancy(), channels, "churn must not leak slots");
    println!(
        "  churn: {churn_cycles} open/close cycles in {churn_wall:.3}s \
         ({churn_ops_per_sec:.0} lifecycle ops/s, median of {CHUNKS} chunks); \
         occupancy back to {channels}"
    );

    let arm_rows: Vec<String> = arms
        .iter()
        .map(|a| {
            format!(
                "    {{\"multiplier\": {:.2}, \"offered_per_round\": {}, \
                 \"offered\": {{\"critical\": {}, \"standard\": {}, \"best_effort\": {}}}, \
                 \"admitted\": {{\"critical\": {}, \"standard\": {}, \"best_effort\": {}}}, \
                 \"shed\": {{\"critical\": {}, \"standard\": {}, \"best_effort\": {}}}, \
                 \"delivered\": {}, \"served_ratio\": {:.4}, \"max_queue_depth\": {}}}",
                a.multiplier,
                a.offered_per_round,
                a.offered[0],
                a.offered[1],
                a.offered[2],
                a.admitted[0],
                a.admitted[1],
                a.admitted[2],
                a.shed[0],
                a.shed[1],
                a.shed[2],
                a.delivered,
                a.delivered as f64 / (a.offered.iter().sum::<u64>().max(1)) as f64,
                a.max_queue_depth
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"service_plane\",\n  \
         \"engine\": \"functional\",\n  \
         \"config\": {{\"shards\": {}, \"queue_capacity\": {}, \"drain_budget\": {}, \
         \"warm_set_capacity\": {}, \"capacity_packets_per_pump\": {capacity}}},\n  \
         \"host_parallelism\": {},\n  \
         \"open_phase\": {{\"channels\": {channels}, \"wall_seconds\": {open_wall:.4}, \
         \"open_p50_ns\": {open_p50}, \"open_p99_ns\": {open_p99}, \
         \"rss_before_bytes\": {rss_before}, \"rss_after_bytes\": {rss_after}, \
         \"bytes_per_idle_channel\": {bytes_per_idle}}},\n  \
         \"activity\": {{\"distribution\": \"zipf\", \"exponent\": {ZIPF_EXPONENT}, \
         \"rounds\": {activity_rounds}, \"payload_bytes\": {PAYLOAD_LEN}, \
         \"offered_packets\": {offered_pkts}, \"admitted_packets\": {submitted}, \
         \"distinct_channels\": {distinct}, \"top1pct_traffic_share\": {top1pct_share:.4}, \
         \"chunks\": {CHUNKS}, \"served_mbps\": {served_mbps:.1}}},\n  \
         \"admission_sweep\": {{\"rounds_per_arm\": {arm_rounds}, \
         \"knee_multiplier\": {}, \"points\": [\n{}\n  ]}},\n  \
         \"churn\": {{\"cycles\": {churn_cycles}, \"wall_seconds\": {churn_wall:.4}, \
         \"chunks\": {CHUNKS}, \"lifecycle_ops_per_sec\": {churn_ops_per_sec:.0}}},\n  \
         \"note\": \"knee = first arm shedding >0.5% of offer; SecureVoice (critical) sheds \
         only with the queue completely full; bytes_per_idle_channel is the statm RSS delta \
         over the mass-open phase, an upper bound including allocator slack\"\n}}\n",
        config.shards,
        config.queue_capacity,
        config.drain_budget,
        config.warm_set_capacity,
        mccp_sdr::host_parallelism(),
        knee.map(|k| format!("{k:.2}"))
            .unwrap_or_else(|| "null".into()),
        arm_rows.join(",\n")
    );
    BenchFile("BENCH_service.json").record(&json, !quick);
    print!("{json}");
    println!(
        "bench_service PASSED: {channels} channels at {bytes_per_idle} B idle, \
         {served_mbps:.0} Mbps served, knee at {knee:?}x drain capacity"
    );
}
