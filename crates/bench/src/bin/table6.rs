//! Regenerates paper **Table VI** — "CMC Mutex Operations" summary:
//! minimum, maximum and average cycle counts for the mutex kernel
//! swept from 2 to 100 threads on the 4Link-4GB and 8Link-8GB
//! configurations.
//!
//! ```text
//! cargo run --release -p hmc-bench --bin table6 [-- --spin honest] [-- --max-threads N]
//! ```
//!
//! Paper reference values: 4Link-4GB → 6 / 392 / 226.48;
//! 8Link-8GB → 6 / 387 / 221.48.

use hmc_bench::{mutex_sweep, summarize, Args, TableWriter};
use hmc_sim::DeviceConfig;

fn main() {
    let args = Args::from_env();
    let spin = args.spin();
    let max_threads: usize = args.num("--max-threads", 100);

    println!(
        "Table VI: CMC mutex kernel summary, threads 2..={max_threads}, spin={spin:?}\n"
    );

    let mut table = TableWriter::new(&[
        "Device",
        "Min Cycle Count",
        "Max Cycle Count",
        "(at threads)",
        "Worst Avg Cycle Count",
        "(at threads)",
        "Worst p99",
        "(at threads)",
    ]);
    let mut worst = Vec::new();
    for config in [DeviceConfig::gen2_4link_4gb(), DeviceConfig::gen2_8link_8gb()] {
        let points = mutex_sweep(&config, spin, 2..=max_threads);
        let summary = summarize(&points);
        worst.push((config.label(), summary));
        table.row(&[
            config.label(),
            summary.min_cycle.to_string(),
            summary.max_cycle.to_string(),
            summary.max_cycle_at.to_string(),
            format!("{:.2}", summary.max_avg_cycle),
            summary.max_avg_at.to_string(),
            summary.max_p99.to_string(),
            summary.max_p99_at.to_string(),
        ]);
    }
    print!("{}", table.render());

    if worst.len() == 2 {
        let (ref l4, s4) = worst[0];
        let (ref l8, s8) = worst[1];
        let max_gain = 100.0 * (s4.max_cycle as f64 - s8.max_cycle as f64) / s4.max_cycle as f64;
        let avg_gain = 100.0 * (s4.max_avg_cycle - s8.max_avg_cycle) / s4.max_avg_cycle;
        println!(
            "\n{l8} worst-case max is {max_gain:.1}% better than {l4} \
             (paper: 1.2%); worst-case avg is {avg_gain:.1}% better (paper: 2.2%)."
        );
    }
    println!("Paper reference: 4Link-4GB 6/392/226.48, 8Link-8GB 6/387/221.48.");
}
