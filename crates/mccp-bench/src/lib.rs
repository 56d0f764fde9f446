//! # mccp-bench — the benchmark harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! (see `DESIGN.md`'s experiment index) and records the host-side
//! benchmarks as checked-in `BENCH_*.json` files:
//!
//! | binary or bench target | artifact |
//! |------------------------|----------|
//! | `paper table1_isa` | Table I — the Cryptographic Unit ISA with timing |
//! | `paper loop_cycles` | §VII loop-cycle equations (49 / 55 / 104, +8/+16) |
//! | `paper table2_throughput` | Table II — throughput grid, paper vs measured |
//! | `paper table3_comparison` | Table III — architecture comparison |
//! | `paper table4_reconfig` | Table IV — partial reconfiguration |
//! | `paper architecture_report` | Figs 1–3 — component inventory + area budget |
//! | `paper fig_packet_sweep` | derived: throughput vs packet size |
//! | `paper fig_latency_tradeoff` | derived: CCM 4×1 vs 2×2 latency/throughput |
//! | `paper fig_core_scaling` | derived: throughput vs core count |
//! | `paper fig_aad_fraction` | derived: throughput vs authenticated-only fraction |
//! | `paper fig_offered_load` | derived: latency vs offered load |
//! | `paper ablation_overlap` | ablation: background start/finalize vs blocking |
//! | `paper ablation_nop` | ablation: completion-edge acceptance (NOP trick) |
//! | `paper ablation_fifo` | ablation: FIFO depth sweep |
//! | `paper ablation_key_cache` | ablation: the per-core key cache |
//! | `paper ablation_cipher_swap` | ablation: AES replaced by Twofish |
//! | `firmware_listing [<firmware>]` | Listing 1 — the assembled mode firmware |
//! | `soak [<packets>] [--engine cycle\|functional]` | duplex verification soak |
//! | `telemetry_report [--vcd]` | every telemetry export, checked deterministic |
//! | `bench_kernels [--quick]` | `BENCH_functional_kernels.json` — scalar vs batched kernels |
//! | `bench_cluster [--quick]` | `BENCH_cluster.json` — 1/2/4/8-shard scaling curve |
//! | `bench_snapshot [--check]` | `BENCH_sim_speed.json` — per-tick vs fast-forward |
//! | `bench_service [--quick]` | `BENCH_service.json` — idle cost, admission knee, churn |
//! | `bench_reconfig [--quick]` | `BENCH_reconfig.json` — demand-driven CU swaps |
//! | `bench_keylife [--quick]` | `BENCH_keylife.json` — rekeying, handshakes, attacks |
//! | `chaos_soak [--packets, --seed, --faults, --shards <n>]` | `BENCH_chaos.json` — fault recovery |
//! | `obs_report [--packets, --seed, --shards, --pairs <n>]` | `BENCH_obs.json` — observability overhead |
//! | `cargo bench --bench primitives` | wall clock: block ciphers, GHASH, modes on 2 KB |
//! | `cargo bench --bench simulator` | wall clock: one cycle-accurate 2 KB packet |
//! | `cargo bench --bench functional_throughput` | W-1: functional engine over 1/2/4/8 shards |
//!
//! `paper` takes exactly one artifact name; every other binary and bench
//! target goes through one harness: [`Args`] parses the command line
//! (anything a binary does not name exits 2 before it does any work),
//! [`Sampler`] times closures, and [`BenchFile`] reads and writes the
//! checked-in `BENCH_*.json` files.

use std::hint::black_box;
use std::str::FromStr;
use std::time::Instant;

/// A binary's parsed command line. Each `spec` entry names one accepted
/// argument: `"--quick"` is a switch, `"--packets <n>"` takes one value,
/// and `"<packets>"` is an optional positional argument.
#[derive(Debug, Default)]
pub struct Args {
    usage: String,
    switches: Vec<String>,
    /// `(flag or positional spec, value)`; a repeated flag's last value wins.
    values: Vec<(String, String)>,
}

impl Args {
    /// Parses the process arguments against `spec`. On anything `spec`
    /// does not name, prints the usage line and exits 2.
    pub fn parse(spec: &[&str]) -> Args {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_default();
        let program = program.rsplit('/').next().unwrap_or_default();
        let usage = spec
            .iter()
            .fold(format!("usage: {program}"), |u, s| u + " [" + s + "]");
        match Args::parse_from(spec, argv) {
            Ok(args) => Args { usage, ..args },
            Err(e) => fail(&format!("{e}\n{usage}")),
        }
    }

    fn parse_from(spec: &[&str], argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut positionals = spec.iter().filter(|s| s.starts_with('<'));
        let mut args = Args::default();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with('-') {
                let name = positionals
                    .next()
                    .ok_or(format!("unexpected argument {arg:?}"))?;
                args.values.push((name.to_string(), arg));
            } else if spec.contains(&arg.as_str()) {
                args.switches.push(arg);
            } else if spec
                .iter()
                .any(|s| s.split_once(' ').is_some_and(|(f, _)| f == arg))
            {
                let value = argv.next().ok_or(format!("{arg} expects a value"))?;
                args.values.push((arg, value));
            } else {
                return Err(format!("unknown flag {arg:?}"));
            }
        }
        Ok(args)
    }

    /// Whether the switch `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The value of the flag or positional `name`, parsed; exits 2 when
    /// it does not parse.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        let (_, raw) = self.values.iter().rev().find(|(n, _)| n == name)?;
        let usage = &self.usage;
        Some(
            raw.parse()
                .unwrap_or_else(|_| fail(&format!("{name}: bad value {raw:?}\n{usage}"))),
        )
    }
}

fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// Times a closure: a warm-up that doubles the batch size until one batch
/// takes `sample_secs`, then `samples` samples of whole batches, each at
/// least `sample_secs` long. Reports seconds per call.
#[derive(Clone, Copy, Debug)]
pub struct Sampler {
    pub samples: usize,
    pub sample_secs: f64,
}

impl Sampler {
    /// For the numbers a BENCH file records: 11 samples of at least 100 ms.
    pub const RECORD: Sampler = Sampler {
        samples: 11,
        sample_secs: 0.1,
    };
    /// For the CI smoke modes (`--quick`, `--check`): 3 samples of at
    /// least 10 ms.
    pub const QUICK: Sampler = Sampler {
        samples: 3,
        sample_secs: 0.01,
    };

    /// [`Sampler::QUICK`] when `quick`, else [`Sampler::RECORD`].
    pub fn new(quick: bool) -> Sampler {
        if quick {
            Sampler::QUICK
        } else {
            Sampler::RECORD
        }
    }

    /// Samples `f`; its results go through `black_box`.
    pub fn run<O>(&self, mut f: impl FnMut() -> O) -> Stats {
        let mut batch = |calls: u64| {
            let t0 = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            t0.elapsed().as_secs_f64()
        };
        let mut calls = 1u64;
        while batch(calls) < self.sample_secs && calls < 1 << 30 {
            calls *= 2;
        }
        let per_call = (0..self.samples.max(1))
            .map(|_| {
                let (mut secs, mut n) = (0.0, 0);
                while secs < self.sample_secs || n == 0 {
                    secs += batch(calls);
                    n += calls;
                }
                secs / n as f64
            })
            .collect();
        Stats::of(per_call)
    }

    /// Samples `f` and prints one line: median, min and p90 time per call
    /// and, when `bytes` is non-zero, the median throughput.
    pub fn bench<O>(&self, name: &str, bytes: u64, f: impl FnMut() -> O) -> Stats {
        let s = self.run(f);
        let rate = match bytes {
            0 => String::new(),
            b => format!("  {:>10.1} MiB/s", s.rate(b as f64) / (1u64 << 20) as f64),
        };
        println!(
            "bench {name:<48} {:>12.3} µs/iter (min {:.3}, p90 {:.3}){rate}",
            s.median * 1e6,
            s.min * 1e6,
            s.p90 * 1e6
        );
        s
    }
}

/// The percentile rule of every binary: the sample at rank
/// `round(p * (n - 1))` of a sorted series, `p` in `0.0..=1.0`.
///
/// # Panics
/// Panics on an empty series.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty series");
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Median, min and p90 of a series of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// The middle sample (the mean of the middle two for an even count).
    pub median: f64,
    pub min: f64,
    /// The sorted series' [`percentile`] at 0.9.
    pub p90: f64,
}

impl Stats {
    /// Summarizes a non-empty series.
    pub fn of(mut xs: Vec<f64>) -> Stats {
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        Stats {
            median: (xs[(n - 1) / 2] + xs[n / 2]) / 2.0,
            min: xs[0],
            p90: percentile(&xs, 0.9),
        }
    }

    /// `units` per call over the median seconds per call.
    pub fn rate(&self, units: f64) -> f64 {
        units / self.median.max(1e-12)
    }
}

/// A checked-in `BENCH_*` file in the working directory.
#[derive(Clone, Copy, Debug)]
pub struct BenchFile(pub &'static str);

impl BenchFile {
    /// The field at the dotted `path` (`per_tick.modeled_cycles`); panics
    /// when the file or the field is missing.
    pub fn field<T: FromStr>(&self, path: &str) -> T {
        let body = std::fs::read_to_string(self.0).unwrap_or_else(|e| panic!("{}: {e}", self.0));
        field(&body, path).unwrap_or_else(|| panic!("{}: no parseable {path}", self.0))
    }

    /// Writes `body` in record mode; under `--quick` or `--check` leaves
    /// the file as it is and says so.
    pub fn record(&self, body: &str, record: bool) {
        if record {
            std::fs::write(self.0, body).unwrap_or_else(|e| panic!("write {}: {e}", self.0));
        } else {
            println!("not rewriting {}", self.0);
        }
    }
}

/// The scalar at `path` in a hand-formatted BENCH body: each key is
/// looked up after the previous one, which walks nested objects.
fn field<T: FromStr>(body: &str, path: &str) -> Option<T> {
    let mut rest = body;
    for key in path.split('.') {
        rest = rest.split_once(&format!("\"{key}\":"))?.1;
    }
    rest.split([',', '}', '\n']).next()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(spec: &[&str], argv: &[&str]) -> Result<Args, String> {
        Args::parse_from(spec, argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_rejected() {
        assert!(parse(&["--quick"], &["--quik"]).is_err());
        assert!(parse(&["--quick"], &["--quick", "extra"]).is_err());
        assert!(parse(&[], &["--bench"]).is_err());
        assert!(parse(&["--packets <n>"], &["--packets"]).is_err());
        assert!(parse(&["--packets <n>"], &["--packets=50"]).is_err());
    }

    #[test]
    fn flags_and_positionals_parse_as_the_binaries_take_them() {
        let chaos = parse(&["--packets <n>", "--seed <n>"], &["--packets", "50"]).unwrap();
        assert_eq!(chaos.get("--packets"), Some(50usize));
        assert_eq!(chaos.get::<u64>("--seed"), None);
        let soak = &["<packets>", "--engine <cycle|functional>"];
        let args = parse(soak, &["100", "--engine", "functional"]).unwrap();
        assert_eq!(args.get("<packets>"), Some(100usize));
        assert_eq!(args.get("--engine"), Some("functional".to_string()));
        assert!(parse(soak, &["100", "200"]).is_err());
        let listing = parse(&["<firmware>"], &["GcmEnc"]).unwrap();
        assert_eq!(listing.get("<firmware>"), Some("GcmEnc".to_string()));
        assert_eq!(
            parse(&["<firmware>"], &[])
                .unwrap()
                .get::<String>("<firmware>"),
            None
        );
        assert!(parse(&["--quick"], &["--quick"]).unwrap().flag("--quick"));
        assert!(!parse(&["--quick"], &[]).unwrap().flag("--quick"));
    }

    #[test]
    fn bench_fields_are_read_by_dotted_path() {
        let body = include_str!("../../../BENCH_sim_speed.json");
        assert_eq!(field(body, "per_tick.modeled_cycles"), Some(8021761u64));
        assert_eq!(field(body, "fast_forward.modeled_cycles"), Some(8021761u64));
        assert_eq!(field::<u64>(body, "per_tick.no_such_field"), None);
    }

    #[test]
    fn stats_report_median_min_and_p90() {
        let s = Stats::of(vec![7.0, 3.0, 9.0, 1.0, 5.0, 10.0, 2.0, 8.0, 4.0, 6.0]);
        assert_eq!((s.median, s.min, s.p90), (5.5, 1.0, 9.0));
        let s = Stats::of(vec![0.2, 0.4, 0.1]);
        assert_eq!((s.median, s.min, s.p90), (0.2, 0.1, 0.4));
        assert_eq!(s.rate(1.0), 5.0);
    }

    #[test]
    fn percentile_takes_the_nearest_rank() {
        let series: Vec<u64> = (1..=11).map(|i| i * 10).collect();
        assert_eq!(percentile(&series, 0.0), 10);
        assert_eq!(percentile(&series, 0.5), 60);
        assert_eq!(percentile(&series, 0.9), 100);
        assert_eq!(percentile(&series, 0.99), 110);
        assert_eq!(percentile(&series, 1.0), 110);
        // Rank round(0.5 * 3) = 2 of four samples.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 3.0);
        assert_eq!(percentile(&[7u64], 0.99), 7);
    }

    #[test]
    fn sampler_takes_its_samples_after_a_warm_up() {
        let sampler = Sampler {
            samples: 4,
            sample_secs: 0.002,
        };
        let t0 = Instant::now();
        let s = sampler.run(|| (0..black_box(64u64)).sum::<u64>());
        assert!(0.0 < s.min && s.min <= s.median && s.median <= s.p90);
        assert!(t0.elapsed().as_secs_f64() >= 4.0 * sampler.sample_secs);
    }
}
