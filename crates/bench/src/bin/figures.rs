//! Regenerates paper **Figures 5, 6 and 7** — minimum, maximum and
//! average lock cycles versus thread count (2..=100) for the
//! 4Link-4GB and 8Link-8GB configurations — as CSV series.
//!
//! ```text
//! cargo run --release -p hmc-bench --bin figures                 # all three series
//! cargo run --release -p hmc-bench --bin figures -- --metric min # Figure 5 only
//! cargo run --release -p hmc-bench --bin figures -- --links 2,4,8 --spin honest
//! ```

use hmc_bench::{mutex_sweep, Args, SweepPoint};
use hmc_sim::DeviceConfig;

fn main() {
    let args = Args::from_env(&["--metric", "--spin", "--links", "--max-threads"]);
    let metric = args.get("--metric").unwrap_or("all");
    if !matches!(metric, "all" | "min" | "max" | "avg" | "p50" | "p99") {
        eprintln!("error: unknown --metric '{metric}' (expected all|min|max|avg|p50|p99)");
        std::process::exit(2);
    }
    let spin = args.spin();
    let links = args.get("--links").unwrap_or("4,8");
    let configs: Vec<DeviceConfig> = links
        .split(',')
        .map(|l| match l {
            "2" => DeviceConfig::gen2_2link_4gb(),
            "4" => DeviceConfig::gen2_4link_4gb(),
            "8" => DeviceConfig::gen2_8link_8gb(),
            _ => {
                eprintln!("error: unknown --links '{links}' (expected a comma list of 2|4|8)");
                std::process::exit(2);
            }
        })
        .collect();
    let max_threads: usize = args.num("--max-threads", 100);

    let sweeps: Vec<(String, Vec<SweepPoint>)> = configs
        .iter()
        .map(|cfg| (cfg.label(), mutex_sweep(cfg, spin, 2..=max_threads)))
        .collect();

    let emit = |name: &str, fig: &str, pick: &dyn Fn(&SweepPoint) -> String| {
        println!("# {fig}: {name} lock cycles vs thread count (spin={spin:?})");
        let mut header = String::from("threads");
        for (label, _) in &sweeps {
            header.push(',');
            header.push_str(label);
        }
        println!("{header}");
        let n = sweeps[0].1.len();
        for i in 0..n {
            let mut line = sweeps[0].1[i].threads.to_string();
            for (_, points) in &sweeps {
                line.push(',');
                line.push_str(&pick(&points[i]));
            }
            println!("{line}");
        }
        println!();
    };

    if metric == "all" || metric == "min" {
        emit("minimum", "Figure 5", &|p| p.min.to_string());
    }
    if metric == "all" || metric == "max" {
        emit("maximum", "Figure 6", &|p| p.max.to_string());
    }
    if metric == "all" || metric == "avg" {
        emit("average", "Figure 7", &|p| format!("{:.2}", p.avg));
    }
    if metric == "all" || metric == "p50" {
        emit("median", "p50 series", &|p| p.p50.to_string());
    }
    if metric == "all" || metric == "p99" {
        emit("p99", "p99 series", &|p| p.p99.to_string());
    }
}
