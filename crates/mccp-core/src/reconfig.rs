//! Partial reconfiguration of the Cryptographic Unit region (paper §VII.B,
//! Table IV).
//!
//! The paper reserves a 1280-slice / 16-BRAM reconfigurable region per
//! Cryptographic Unit and measures two configurations — the AES encryption
//! core (with key schedule) and the Whirlpool hash core — loading their
//! partial bitstreams either from CompactFlash or from RAM:
//!
//! | Core | Slices (BRAM) | Bitstream | CF load | RAM load |
//! |------|---------------|-----------|---------|----------|
//! | AES + KS  | 351 (4)  | 89 kB | 380 ms | 63 ms |
//! | Whirlpool | 1153 (4) | 97 kB | 416 ms | 69 ms |
//!
//! We model bitstream size as a linear function of the region (frames
//! cover the whole reconfigurable area, so size varies only with the
//! constant-overhead difference the paper measured), and the load time as
//! `size / bandwidth` with the bandwidths the paper's numbers imply:
//! CompactFlash ≈ 234 kB/s, RAM ≈ 1.41 MB/s.

use crate::core_unit::Personality;
use mccp_sim::resources::{costs, Resources};
use mccp_sim::CLOCK_HZ;

/// The bitstream source (paper Table IV rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BitstreamSource {
    CompactFlash,
    Ram,
}

impl BitstreamSource {
    /// Sustained load bandwidth in bytes/second, derived from the paper's
    /// measurements (89 kB / 380 ms and 89 kB / 63 ms).
    pub fn bandwidth_bytes_per_s(self) -> f64 {
        match self {
            BitstreamSource::CompactFlash => 89_000.0 / 0.380,
            BitstreamSource::Ram => 89_000.0 / 0.063,
        }
    }
}

/// A partial bitstream for the reconfigurable CU region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bitstream {
    pub personality: Personality,
    /// Logic actually instantiated inside the region.
    pub resources: Resources,
    /// Bitstream size in kilobytes.
    pub size_kb: u32,
}

/// The reconfigurable region itself (1280 slices, 16 BRAM — §VII.B).
pub const REGION: Resources = Resources::new(1280, 16);

/// The AES-with-key-schedule configuration (Table IV column 1).
pub const AES_BITSTREAM: Bitstream = Bitstream {
    personality: Personality::AesUnit,
    resources: costs::RECONF_AES_WITH_KS,
    size_kb: 89,
};

/// The Whirlpool configuration (Table IV column 2).
pub const WHIRLPOOL_BITSTREAM: Bitstream = Bitstream {
    personality: Personality::WhirlpoolUnit,
    resources: costs::RECONF_WHIRLPOOL,
    size_kb: 97,
};

/// A Twofish configuration — the paper's §IX example of replacing AES
/// with another 128-bit block cipher. The paper never synthesized one;
/// the area is an estimate for an iterative 32-bit Twofish with
/// key-dependent S-boxes in BRAM, and the bitstream size tracks the
/// (region-dominated) AES/Whirlpool sizes.
pub const TWOFISH_BITSTREAM: Bitstream = Bitstream {
    personality: Personality::TwofishUnit,
    resources: Resources::new(520, 4),
    size_kb: 91,
};

impl Bitstream {
    /// Reconfiguration time in milliseconds from a given source.
    pub fn load_time_ms(&self, source: BitstreamSource) -> f64 {
        (self.size_kb as f64 * 1000.0) / source.bandwidth_bytes_per_s() * 1000.0
    }

    /// Reconfiguration time in MCCP clock cycles — the budget during which
    /// the *other* cores keep processing (the paper's key observation that
    /// "the reconfiguration of one part of the FPGA does not prevent
    /// others parts to work").
    pub fn load_time_cycles(&self, source: BitstreamSource) -> u64 {
        (self.load_time_ms(source) / 1000.0 * CLOCK_HZ as f64) as u64
    }

    /// True if the configuration fits the reserved region.
    pub fn fits_region(&self) -> bool {
        self.resources.slices <= REGION.slices && self.resources.brams <= REGION.brams
    }
}

/// A reconfiguration controller for one core's CU region: tracks an
/// in-flight partial reconfiguration and applies the personality swap on
/// completion.
#[derive(Clone, Copy, Debug)]
pub struct ReconfigController {
    current: Personality,
    in_flight: Option<(Bitstream, u64)>,
    completed: u64,
}

impl Default for ReconfigController {
    fn default() -> Self {
        Self::new()
    }
}

impl ReconfigController {
    pub fn new() -> Self {
        ReconfigController {
            current: Personality::AesUnit,
            in_flight: None,
            completed: 0,
        }
    }

    /// The personality currently configured (the old one remains active
    /// until the new bitstream finishes loading).
    pub fn current(&self) -> Personality {
        self.current
    }

    /// True while a partial bitstream is streaming in.
    pub fn is_reconfiguring(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Starts a reconfiguration. Returns the cycle budget, or `None` if
    /// one is already in flight.
    pub fn begin(&mut self, bitstream: Bitstream, source: BitstreamSource) -> Option<u64> {
        if self.in_flight.is_some() {
            return None;
        }
        assert!(bitstream.fits_region(), "bitstream exceeds the region");
        let cycles = bitstream.load_time_cycles(source);
        self.in_flight = Some((bitstream, cycles));
        Some(cycles)
    }

    /// Advances one clock cycle; returns the new personality on the cycle
    /// the reconfiguration completes.
    pub fn tick(&mut self) -> Option<Personality> {
        let (bs, left) = self.in_flight.as_mut()?;
        if *left > 0 {
            *left -= 1;
            return None;
        }
        let p = bs.personality;
        self.current = p;
        self.in_flight = None;
        self.completed += 1;
        Some(p)
    }

    /// Fast-forward horizon: the number of upcoming ticks that only
    /// decrement the in-flight countdown. With `left` cycles remaining the
    /// completion (personality swap) lands on tick `left + 1`, so the
    /// first `left` ticks are skippable. `u64::MAX` when idle.
    pub fn quiescent_for(&self) -> u64 {
        match &self.in_flight {
            Some((_, left)) => *left,
            None => u64::MAX,
        }
    }

    /// Advances `n` cycles at once; only valid for
    /// `n <= quiescent_for()`.
    pub fn skip(&mut self, n: u64) {
        if let Some((_, left)) = self.in_flight.as_mut() {
            debug_assert!(n <= *left);
            *left -= n;
        }
    }

    /// Completed reconfigurations.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// The personality the in-flight bitstream will install, if any.
    pub fn target(&self) -> Option<Personality> {
        self.in_flight.as_ref().map(|(bs, _)| bs.personality)
    }
}

// ----------------------------------------------------------------------
// Demand-driven reconfiguration policy
// ----------------------------------------------------------------------

/// Index of a personality in the policy's demand arrays (and in
/// `mccp_telemetry::demand::PERSONALITY_NAMES`).
pub fn personality_index(p: Personality) -> usize {
    match p {
        Personality::AesUnit => 0,
        Personality::TwofishUnit => 1,
        Personality::WhirlpoolUnit => 2,
    }
}

/// Every personality, in [`personality_index`] order.
pub const PERSONALITIES: [Personality; 3] = [
    Personality::AesUnit,
    Personality::TwofishUnit,
    Personality::WhirlpoolUnit,
];

/// The bitstream that installs a personality (Table IV rows, plus the
/// §IX Twofish estimate).
pub fn bitstream_for(p: Personality) -> Bitstream {
    match p {
        Personality::AesUnit => AES_BITSTREAM,
        Personality::TwofishUnit => TWOFISH_BITSTREAM,
        Personality::WhirlpoolUnit => WHIRLPOOL_BITSTREAM,
    }
}

/// Policy-engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct PolicyConfig {
    /// Where partial bitstreams load from — this is what charges the
    /// paper's Table IV latency to every policy-driven swap.
    pub source: BitstreamSource,
    /// Minimum cycles between swaps of the same core (a swap costs
    /// millions of cycles; thrashing would starve the pool).
    pub min_dwell_cycles: u64,
    /// Offered-load samples (submissions) a personality must accumulate
    /// in the current window before the policy acts on its demand.
    pub min_samples: u64,
    /// How much more per-core demand the winning personality must show
    /// over the victim before a swap triggers (×, ≥ 1).
    pub demand_ratio: u64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            source: BitstreamSource::Ram,
            min_dwell_cycles: 0,
            min_samples: 4,
            demand_ratio: 2,
        }
    }
}

/// A demand-driven reconfiguration decision (one idle core → one new
/// personality).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwapDecision {
    pub core: usize,
    pub target: Personality,
}

/// The demand-driven policy engine the Task Scheduler consults: it
/// watches per-personality offered-load counters (every submission
/// attempt, including `NoResource` rejections, is a demand sample, and a
/// refused packet waiting in `step` re-offers once per quantum) and
/// decides when an idle core's CU region should flip to a starved
/// personality. Swaps are applied through the ordinary
/// [`begin_reconfiguration`](crate::Mccp::begin_reconfiguration) path, so
/// they charge the Table IV load latency of the configured
/// [`BitstreamSource`] and only ever claim *idle* cores — in-flight work
/// is never interrupted, which is how the no-packet-loss / no-nonce-reuse
/// contract holds across swaps (rejected submissions are requeued by the
/// caller with their already-committed IV).
#[derive(Clone, Debug)]
pub struct PolicyEngine {
    cfg: PolicyConfig,
    /// Demand window since the last swap (per personality).
    window_offered: [u64; 3],
    /// Lifetime counters, published to telemetry.
    offered_total: [u64; 3],
    served_total: [u64; 3],
    swaps: u64,
    last_swap: u64,
}

impl PolicyEngine {
    pub fn new(cfg: PolicyConfig) -> Self {
        PolicyEngine {
            cfg,
            window_offered: [0; 3],
            offered_total: [0; 3],
            served_total: [0; 3],
            swaps: 0,
            last_swap: 0,
        }
    }

    pub fn config(&self) -> &PolicyConfig {
        &self.cfg
    }

    /// Records one offered-load sample for a personality (called on every
    /// submission attempt, accepted or refused).
    pub fn record_offered(&mut self, p: Personality) {
        self.window_offered[personality_index(p)] += 1;
        self.offered_total[personality_index(p)] += 1;
    }

    /// Records an accepted submission for a personality.
    pub fn record_served(&mut self, p: Personality) {
        self.served_total[personality_index(p)] += 1;
    }

    /// Lifetime offered-load counters, indexed by [`personality_index`].
    pub fn offered_total(&self) -> [u64; 3] {
        self.offered_total
    }

    /// Lifetime served counters, indexed by [`personality_index`].
    pub fn served_total(&self) -> [u64; 3] {
        self.served_total
    }

    /// Policy-driven swaps begun so far.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Decides whether an idle core should flip. `cores` describes the
    /// pool: `(personality, idle, reconfiguring-or-quarantined)` per
    /// core; `pinned` are personalities that must keep at least one core
    /// (in-flight pipeline stages still waiting to run on them).
    ///
    /// The rule: pick the personality with the highest per-core demand in
    /// the current window as the *target* and the lowest as the *victim*;
    /// swap one idle victim core when the target is starved (no core at
    /// all) or out-demands the victim by [`PolicyConfig::demand_ratio`].
    pub fn decide(
        &self,
        now: u64,
        cores: &[(Personality, bool, bool)],
        pinned: &[Personality],
    ) -> Option<SwapDecision> {
        if now < self.last_swap.saturating_add(self.cfg.min_dwell_cycles) && self.swaps > 0 {
            return None;
        }
        let mut count = [0u64; 3];
        // A core mid-reconfiguration already counts toward its *target*
        // personality: demand it will serve is not starved, just waiting.
        for &(p, _, _) in cores {
            count[personality_index(p)] += 1;
        }
        let per_core = |i: usize| match self.window_offered[i].checked_div(count[i]) {
            // Starved personality: demand with no server dominates.
            None => self.window_offered[i].saturating_mul(u64::from(u32::MAX)),
            Some(share) => share,
        };
        let target = (0..3).max_by_key(|&i| (per_core(i), self.window_offered[i]))?;
        if self.window_offered[target] < self.cfg.min_samples {
            return None;
        }
        // Never give away the last available core of the whole pool.
        let available = cores.iter().filter(|&&(_, _, out)| !out).count();
        if available <= 1 {
            return None;
        }
        // Victim: the lowest per-core demand among personalities that can
        // spare a core — an idle core exists, and taking it strands
        // neither pinned in-flight work nor the personality's last core
        // when live work still needs it.
        let victim = (0..3)
            .filter(|&i| i != target && count[i] > 0)
            .filter(|&i| count[i] > 1 || !pinned.contains(&PERSONALITIES[i]))
            .filter(|&i| {
                cores
                    .iter()
                    .any(|&(p, idle, out)| p == PERSONALITIES[i] && idle && !out)
            })
            .min_by_key(|&i| per_core(i))?;
        if count[target] > 0
            && per_core(target)
                < per_core(victim)
                    .saturating_mul(self.cfg.demand_ratio)
                    .max(1)
        {
            return None;
        }
        let core = cores
            .iter()
            .position(|&(p, idle, out)| p == PERSONALITIES[victim] && idle && !out)?;
        Some(SwapDecision {
            core,
            target: PERSONALITIES[target],
        })
    }

    /// Records that a decided swap has begun: resets the demand window so
    /// the next decision re-samples the post-swap mix.
    pub fn note_swap(&mut self, now: u64) {
        self.swaps += 1;
        self.last_swap = now;
        self.window_offered = [0; 3];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_times_reproduce() {
        // CF: 380 ms (AES) / 416 ms (Whirlpool); RAM: 63 / 69 ms.
        let aes_cf = AES_BITSTREAM.load_time_ms(BitstreamSource::CompactFlash);
        let wp_cf = WHIRLPOOL_BITSTREAM.load_time_ms(BitstreamSource::CompactFlash);
        let aes_ram = AES_BITSTREAM.load_time_ms(BitstreamSource::Ram);
        let wp_ram = WHIRLPOOL_BITSTREAM.load_time_ms(BitstreamSource::Ram);
        assert!((aes_cf - 380.0).abs() < 2.0, "{aes_cf}");
        assert!((wp_cf - 416.0).abs() < 5.0, "{wp_cf}");
        assert!((aes_ram - 63.0).abs() < 1.0, "{aes_ram}");
        assert!((wp_ram - 69.0).abs() < 1.5, "{wp_ram}");
    }

    #[test]
    fn all_configurations_fit_the_region() {
        assert!(AES_BITSTREAM.fits_region());
        assert!(WHIRLPOOL_BITSTREAM.fits_region());
        assert!(TWOFISH_BITSTREAM.fits_region());
    }

    #[test]
    fn reconfiguration_takes_millions_of_cycles() {
        // 63 ms at 190 MHz ≈ 12M cycles — the paper's conclusion that
        // real-time (per-packet) reconfiguration is out of reach, but
        // occasional reconfiguration is fine.
        let cycles = AES_BITSTREAM.load_time_cycles(BitstreamSource::Ram);
        assert!(cycles > 10_000_000);
        let packet_cycles = 128 * 49; // one 2 KB GCM packet
        assert!(cycles / packet_cycles > 1000);
    }

    #[test]
    fn controller_lifecycle() {
        let mut rc = ReconfigController::new();
        assert_eq!(rc.current(), Personality::AesUnit);
        let budget = rc.begin(WHIRLPOOL_BITSTREAM, BitstreamSource::Ram).unwrap();
        assert!(rc.is_reconfiguring());
        // A second begin is refused while in flight.
        assert!(rc.begin(AES_BITSTREAM, BitstreamSource::Ram).is_none());
        let mut done = None;
        for _ in 0..=budget + 1 {
            if let Some(p) = rc.tick() {
                done = Some(p);
                break;
            }
        }
        assert_eq!(done, Some(Personality::WhirlpoolUnit));
        assert_eq!(rc.current(), Personality::WhirlpoolUnit);
        assert_eq!(rc.completed(), 1);
        assert!(!rc.is_reconfiguring());
    }

    #[test]
    fn policy_flips_an_idle_core_toward_starved_demand() {
        let mut pe = PolicyEngine::new(PolicyConfig::default());
        // Four AES cores, Twofish demand building up.
        let cores = [
            (Personality::AesUnit, true, false),
            (Personality::AesUnit, false, false),
            (Personality::AesUnit, true, false),
            (Personality::AesUnit, true, false),
        ];
        assert_eq!(pe.decide(0, &cores, &[]), None, "no demand yet");
        for _ in 0..4 {
            pe.record_offered(Personality::TwofishUnit);
        }
        let d = pe.decide(100, &cores, &[]).expect("swap");
        assert_eq!(d.target, Personality::TwofishUnit);
        assert!(cores[d.core].1, "victim core is idle");
        pe.note_swap(100);
        assert_eq!(pe.swaps(), 1);
        // Window reset: the same demand no longer retriggers.
        assert_eq!(pe.decide(101, &cores, &[]), None);
    }

    #[test]
    fn policy_respects_dwell_pins_and_last_core() {
        let mut pe = PolicyEngine::new(PolicyConfig {
            min_dwell_cycles: 1_000,
            ..PolicyConfig::default()
        });
        for _ in 0..8 {
            pe.record_offered(Personality::WhirlpoolUnit);
        }
        // Single-core pool: never give away the last available core.
        let one = [(Personality::AesUnit, true, false)];
        assert_eq!(pe.decide(0, &one, &[]), None);
        // Pinned victim personality with only one core: refused.
        let two = [
            (Personality::AesUnit, true, false),
            (Personality::TwofishUnit, true, false),
        ];
        assert!(pe.decide(0, &two, &[Personality::AesUnit]).is_some());
        assert_eq!(
            pe.decide(0, &two, &[Personality::AesUnit, Personality::TwofishUnit]),
            None
        );
        // Dwell: after a swap, decisions pause for min_dwell_cycles.
        pe.note_swap(500);
        for _ in 0..8 {
            pe.record_offered(Personality::WhirlpoolUnit);
        }
        assert_eq!(pe.decide(600, &two, &[]), None, "inside dwell");
        assert!(pe.decide(1_501, &two, &[]).is_some(), "dwell elapsed");
    }
}
