//! Regenerates `results/ablations.txt`, the simulated-domain ablation
//! tables of DESIGN.md §5:
//! `cargo run --release -p hmc-bench --bin ablations > results/ablations.txt`

fn main() {
    print!("{}", hmc_bench::ablations::render());
}
