//! `paper <artifact>` prints one artifact of the paper's evaluation:
//! Tables I–IV, the §VII loop budgets, the Figs. 1–3 area report, the
//! derived figures and the design ablations. Every artifact is
//! deterministic, and `./scripts/ci_gates.sh golden` diffs each one
//! against `golden/<artifact>.txt`.
//!
//! ```sh
//! cargo run --release -p mccp-bench --bin paper -- table2_throughput
//! ```

mod ablations;
mod figures;
mod rig;
mod tables;

use mccp_aes::KeySize;

/// The three AES key sizes, in the paper's row order.
const KEYS: [KeySize; 3] = [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256];

/// Every artifact `paper` prints, by name, in the paper's order.
const ARTIFACTS: [(&str, fn()); 16] = [
    ("table1_isa", tables::table1_isa),
    ("loop_cycles", tables::loop_cycles),
    ("table2_throughput", tables::table2_throughput),
    ("table3_comparison", tables::table3_comparison),
    ("table4_reconfig", tables::table4_reconfig),
    ("architecture_report", tables::architecture_report),
    ("fig_packet_sweep", figures::fig_packet_sweep),
    ("fig_latency_tradeoff", figures::fig_latency_tradeoff),
    ("fig_core_scaling", figures::fig_core_scaling),
    ("fig_aad_fraction", figures::fig_aad_fraction),
    ("fig_offered_load", figures::fig_offered_load),
    ("ablation_overlap", ablations::ablation_overlap),
    ("ablation_nop", ablations::ablation_nop),
    ("ablation_fifo", ablations::ablation_fifo),
    ("ablation_key_cache", ablations::ablation_key_cache),
    ("ablation_cipher_swap", ablations::ablation_cipher_swap),
];

/// Runs the artifact named by the one argument. A missing, unknown or
/// extra argument prints the artifact names and exits 2 before any work.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let artifact = match args.as_slice() {
        [name] => ARTIFACTS.iter().find(|(n, _)| n == name),
        _ => None,
    };
    let Some((_, print)) = artifact else {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: paper <artifact>\nartifacts: {}", names.join(" "));
        std::process::exit(2);
    };
    print();
}

#[cfg(test)]
mod tests {
    use super::ARTIFACTS;
    use std::path::Path;

    /// The `golden` CI stage diffs `paper <artifact>` against
    /// `golden/<artifact>.txt` for every name in its `PAPER_ARTIFACTS`
    /// list, so an artifact missing from either goes unchecked.
    #[test]
    fn every_artifact_is_golden_gated() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let gates = std::fs::read_to_string(root.join("scripts/ci_gates.sh"))
            .expect("scripts/ci_gates.sh is readable");
        let gated: Vec<&str> = gates
            .split_once("PAPER_ARTIFACTS=(")
            .and_then(|(_, rest)| rest.split_once(')'))
            .expect("ci_gates.sh declares PAPER_ARTIFACTS=(...)")
            .0
            .split_whitespace()
            .collect();
        let names: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            gated, names,
            "PAPER_ARTIFACTS must list paper's artifacts in order"
        );
        for name in names {
            let golden = root.join("golden").join(format!("{name}.txt"));
            assert!(golden.is_file(), "{name} has no golden file {golden:?}");
        }
    }
}
