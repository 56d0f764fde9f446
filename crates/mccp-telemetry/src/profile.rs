//! Cycle-attribution profiling: hierarchical shard → core → stage cycle
//! accounting rendered as a flamegraph-compatible collapsed-stack file and
//! a top-N report, plus the wall-clock profile of cluster runs.
//!
//! The cycle domain profile is assembled from the `mccp_stage_cycles`
//! gauges each engine publishes at snapshot time
//! (`mccp_stage_cycles{core="N",stage="aes_rounds"}` …). Stages:
//!
//! | stage            | source |
//! |------------------|--------|
//! | `key_expand`     | Key Scheduler expansion latency charged per miss |
//! | `aes_rounds`     | cycles the CU's background AES engine was busy |
//! | `ghash`          | cycles the CU's background GHASH engine was busy |
//! | `fifo_wait`      | cycles a staged CU op waited on FIFO/mailbox resources |
//! | `reconfig_stall` | cycles a core spent loading partial bitstreams |
//! | `quarantine_idle`| cycles a quarantined core sat fenced from dispatch |
//!
//! The wall-clock side ([`WallProfile`]) covers what cycle counts cannot:
//! how a cluster run spends *host* time per shard across its fan-out
//! lanes, recorded next to `host_parallelism` so speedup claims stay
//! honest.

use std::fmt::Write as _;

use crate::metrics::Snapshot;

/// The stage labels in canonical (export) order.
pub const STAGES: [&str; 6] = [
    "key_expand",
    "aes_rounds",
    "ghash",
    "fifo_wait",
    "reconfig_stall",
    "quarantine_idle",
];

/// One `shard;core;stage cycles` sample of the hierarchical profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSample {
    pub shard: usize,
    pub core: usize,
    pub stage: String,
    pub cycles: u64,
}

/// Extracts per-core stage samples from one shard's snapshot by matching
/// the `mccp_stage_cycles{core="N",stage="S"}` gauge series.
pub fn stage_samples(shard: usize, snapshot: &Snapshot) -> Vec<StageSample> {
    let mut out = Vec::new();
    for (key, value) in &snapshot.gauges {
        let Some(rest) = key.strip_prefix("mccp_stage_cycles{core=\"") else {
            continue;
        };
        let Some((core, rest)) = rest.split_once("\",stage=\"") else {
            continue;
        };
        let Some(stage) = rest.strip_suffix("\"}") else {
            continue;
        };
        let Ok(core) = core.parse::<usize>() else {
            continue;
        };
        out.push(StageSample {
            shard,
            core,
            stage: stage.to_owned(),
            cycles: *value,
        });
    }
    out
}

/// Renders per-shard snapshots as a collapsed-stack file: one
/// `shardN;coreM;stage count` line per non-zero sample, the format
/// consumed by `flamegraph.pl` / `inferno`. Deterministic: lines follow
/// the snapshots' `BTreeMap` iteration order.
pub fn collapsed_stacks(shard_snapshots: &[(usize, &Snapshot)]) -> String {
    let mut out = String::new();
    for (shard, snap) in shard_snapshots {
        for s in stage_samples(*shard, snap) {
            if s.cycles == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "shard{};core{};{} {}",
                s.shard, s.core, s.stage, s.cycles
            );
        }
    }
    out
}

/// Renders a top-N table of the heaviest stacks in a collapsed-stack
/// string, heaviest first (ties broken by stack name for determinism).
pub fn top_n_report(collapsed: &str, n: usize) -> String {
    let mut rows: Vec<(&str, u64)> = collapsed
        .lines()
        .filter_map(|l| {
            let (stack, count) = l.rsplit_once(' ')?;
            Some((stack, count.parse::<u64>().ok()?))
        })
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let total: u64 = rows.iter().map(|r| r.1).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "top {} stacks by attributed cycles (total {total})",
        n.min(rows.len())
    );
    for (stack, cycles) in rows.iter().take(n) {
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * *cycles as f64 / total as f64
        };
        let _ = writeln!(out, "  {cycles:>12}  {pct:>6.2}%  {stack}");
    }
    out
}

/// Wall-clock profile of one cluster run: how much host time each shard
/// spent inside its engine loop versus the run's makespan.
#[derive(Clone, Debug, Default)]
pub struct WallProfile {
    /// OS-visible parallelism of the host the run executed on.
    pub host_parallelism: usize,
    /// End-to-end wall seconds of the run (barrier to barrier).
    pub wall_seconds: f64,
    /// Per-shard busy wall seconds, indexed by shard.
    pub shard_busy_seconds: Vec<f64>,
}

impl WallProfile {
    /// Idle wall seconds of a shard: makespan minus its busy time.
    pub fn shard_idle_seconds(&self, shard: usize) -> f64 {
        (self.wall_seconds - self.shard_busy_seconds.get(shard).copied().unwrap_or(0.0)).max(0.0)
    }

    /// Sum of busy time over the makespan — the effective host-thread
    /// utilization of the run (1.0 = one core fully busy).
    pub fn effective_parallelism(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.shard_busy_seconds.iter().sum::<f64>() / self.wall_seconds
    }

    /// Human-readable per-shard busy/idle table.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wall profile: {:.6}s makespan on host_parallelism {} \
             (effective parallelism {:.2})",
            self.wall_seconds,
            self.host_parallelism,
            self.effective_parallelism()
        );
        for (shard, busy) in self.shard_busy_seconds.iter().enumerate() {
            let _ = writeln!(
                out,
                "  shard {shard}: busy {busy:.6}s idle {:.6}s",
                self.shard_idle_seconds(shard)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn snap(entries: &[(usize, &str, u64)]) -> Snapshot {
        let mut r = Registry::new(true);
        for (core, stage, cycles) in entries {
            r.gauge_set(
                &format!("mccp_stage_cycles{{core=\"{core}\",stage=\"{stage}\"}}"),
                *cycles,
            );
        }
        r.snapshot()
    }

    #[test]
    fn collapsed_stacks_render_nonzero_stage_gauges() {
        let s0 = snap(&[
            (0, "aes_rounds", 400),
            (0, "ghash", 100),
            (1, "fifo_wait", 0),
        ]);
        let s1 = snap(&[(0, "key_expand", 50)]);
        let text = collapsed_stacks(&[(0, &s0), (1, &s1)]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "shard0;core0;aes_rounds 400",
                "shard0;core0;ghash 100",
                "shard1;core0;key_expand 50",
            ],
            "zero samples dropped, order deterministic"
        );
    }

    #[test]
    fn top_n_sorts_heaviest_first() {
        let collapsed = "shard0;core0;aes_rounds 400\nshard0;core0;ghash 100\n\
                         shard1;core0;key_expand 50\n";
        let report = top_n_report(collapsed, 2);
        let lines: Vec<&str> = report.lines().collect();
        assert!(lines[0].contains("total 550"));
        assert!(lines[1].contains("shard0;core0;aes_rounds"));
        assert!(lines[1].contains("72.73%"));
        assert!(lines[2].contains("shard0;core0;ghash"));
        assert_eq!(lines.len(), 3, "top-2 truncates");
    }

    #[test]
    fn wall_profile_computes_idle_and_effective_parallelism() {
        let p = WallProfile {
            host_parallelism: 4,
            wall_seconds: 2.0,
            shard_busy_seconds: vec![2.0, 1.0, 0.5],
        };
        assert!((p.shard_idle_seconds(1) - 1.0).abs() < 1e-12);
        assert!((p.effective_parallelism() - 1.75).abs() < 1e-12);
        assert!(p
            .report()
            .contains("shard 2: busy 0.500000s idle 1.500000s"));
    }

    #[test]
    fn unrelated_gauges_are_ignored() {
        let mut r = Registry::new(true);
        r.gauge_set("mccp_cycles", 100);
        r.gauge_set("mccp_core_busy_cycles{core=\"0\"}", 90);
        assert!(stage_samples(0, &r.snapshot()).is_empty());
    }
}
