//! Table III — performance comparison against the literature.
//!
//! Literature ASIC rows use their published Mbps/MHz figures (we cannot
//! re-synthesize closed ASICs); the pipelined-GCM and dual-CCM FPGA
//! baselines and the MCCP rows are regenerated from executable models.

use mccp_aes::KeySize;
use mccp_baselines::table3::Table3;
use mccp_bench::measure_schedule;
use mccp_core::model::{Schedule, PAPER_OUR_WORK};

fn main() {
    mccp_bench::Args::parse(&[]);
    let gcm = measure_schedule(Schedule::Gcm4x1, KeySize::Aes128, 2048);
    let ccm = measure_schedule(Schedule::Ccm4x1, KeySize::Aes128, 2048);
    let table = Table3::build(gcm.mbps, ccm.mbps);

    println!("Table III — Performance comparison");
    println!(
        "{:<32} {:<16} {:<6} {:<6} {:>10} {:>8} {:>14}",
        "Implementation", "Platform", "Prog.", "Alg.", "Mbps/MHz", "MHz", "Slices (BRAM)"
    );
    for row in &table.rows {
        let area = match (row.slices, row.brams) {
            (Some(s), Some(b)) => format!("{s} ({b})"),
            _ => "—".to_string(),
        };
        println!(
            "{:<32} {:<16} {:<6} {:<6} {:>10.2} {:>8} {:>14}",
            row.name,
            row.platform,
            if row.programmable { "Yes" } else { "No" },
            row.algorithm,
            row.mbps_per_mhz,
            row.frequency_mhz,
            area
        );
    }

    println!(
        "\nPaper's own row: GCM {:.2} / CCM {:.2} Mbps/MHz; reproduced: GCM {:.2} / CCM {:.2}",
        PAPER_OUR_WORK.0,
        PAPER_OUR_WORK.1,
        gcm.mbps / 190.0,
        ccm.mbps / 190.0
    );

    assert!(table.shape_holds(), "Table III ordering must reproduce");
    println!("\nShape check PASSES: pipelined GCM > MCCP > every programmable design,");
    println!("while the MCCP remains the only architecture covering all modes + channels.");
}
