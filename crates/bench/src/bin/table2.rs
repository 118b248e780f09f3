//! Regenerates paper **Table II** — "HMC Gen2 Atomic Memory Operation
//! Efficiency": the link traffic of a cache-based atomic increment
//! (read 64 bytes + write 64 bytes) versus the in-cube `INC8`
//! command.
//!
//! Two measurements are reported and must agree:
//! 1. the analytical cache model (`hmc-cachesim`), and
//! 2. live FLIT counters from running the shared-counter kernel on
//!    the simulated device.
//!
//! ```text
//! cargo run -p hmc-bench --bin table2
//! ```

use hmc_bench::TableWriter;
use hmc_cachesim::{model::hmc_atomic_traffic, CacheAtomicModel, CacheConfig};
use hmc_sim::{DeviceConfig, HmcSim};
use hmc_workloads::kernels::counter::{CounterKernel, CounterKernelConfig, CounterMode};

fn measured_flits(mode: CounterMode) -> u64 {
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).expect("valid config");
    let kernel = CounterKernel::new(CounterKernelConfig {
        threads: 1,
        increments_per_thread: 1,
        mode,
        ..Default::default()
    });
    kernel.run(&mut sim).expect("counter kernel runs").link_flits
}

fn main() {
    hmc_bench::Args::from_env(&[]);
    println!("Table II: HMC Gen2 Atomic Memory Operation Efficiency\n");

    let cache = CacheAtomicModel::new(CacheConfig::default())
        .expect("valid cache config")
        .atomic_rmw_traffic();
    let hmc = hmc_atomic_traffic(1, 1); // INC8: 1 rqst FLIT + 1 rsp FLIT

    let mut table = TableWriter::new(&[
        "AMO Type",
        "Request Structure",
        "FLITs Required",
        "Total Bytes (paper conv.)",
        "Wire Bytes",
        "Measured FLITs (live sim)",
    ]);
    table.row(&[
        "Cache-Based".into(),
        "Read 64 Bytes + Write 64 Bytes".into(),
        format!(
            "(1FLIT + {}FLITS) + ({}FLITS + 1FLIT)",
            cache.rsp_flits - 1,
            cache.rqst_flits - 1
        ),
        cache.paper_bytes.to_string(),
        cache.wire_bytes.to_string(),
        measured_flits(CounterMode::CacheRmw).to_string(),
    ]);
    table.row(&[
        "HMC-Based".into(),
        "INC8 Command".into(),
        "1FLIT + 1FLIT".into(),
        hmc.paper_bytes.to_string(),
        hmc.wire_bytes.to_string(),
        measured_flits(CounterMode::HmcInc8).to_string(),
    ]);
    print!("{}", table.render());

    println!(
        "\nHMC INC8 uses {}x less link traffic than the cache-based read-modify-write.",
        cache.total_flits / hmc.total_flits
    );
    println!(
        "(The paper's byte column uses its 128-byte-per-FLIT convention; the wire\n\
         FLIT is 128 bits = 16 bytes. FLIT counts and the 6x ratio are identical.)"
    );
}
