//! Regenerates paper **Table V** — "CMC Mutex Operations": the three
//! mutex operations with their command enums, codes, packet lengths
//! and response commands, read back from a live device's CMC
//! registration table after loading `libhmc_mutex.so`.
//!
//! ```text
//! cargo run -p hmc-bench --bin table5
//! ```

use hmc_bench::TableWriter;
use hmc_sim::{DeviceConfig, HmcSim};

const PSEUDOCODE: &[(&str, &str)] = &[
    (
        "hmc_lock",
        "IF (ADDR[63:0]==0){ ADDR[127:64]=TID; ADDR[63:0]=1; RET 1 } ELSE { RET 0 }",
    ),
    (
        "hmc_trylock",
        "IF (ADDR[63:0]==0){ ADDR[127:64]=TID; ADDR[63:0]=1 } RET ADDR[127:64]",
    ),
    (
        "hmc_unlock",
        "IF (ADDR[127:64]==TID && ADDR[63:0]==1){ ADDR[63:0]=0; RET 1 } ELSE { RET 0 }",
    ),
];

fn main() {
    hmc_bench::Args::from_env(&[]);
    println!("Table V: CMC Mutex Operations\n");

    hmc_cmc::ops::register_builtin_libraries();
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).expect("valid config");
    let codes = sim
        .load_cmc_library(0, hmc_cmc::ops::MUTEX_LIBRARY)
        .expect("mutex library loads");
    assert_eq!(codes, vec![125, 126, 127], "Table V command codes");

    let mut table = TableWriter::new(&[
        "Operation",
        "Command Enum",
        "Request Command",
        "Request Length",
        "Response Command",
        "Response Length",
    ]);
    for reg in sim.cmc_registrations(0).expect("device 0") {
        table.row(&[
            reg.op_name.clone(),
            format!("CMC{}", reg.cmd),
            reg.cmd.to_string(),
            format!("{} FLITS", reg.rqst_len),
            reg.rsp_cmd.mnemonic(),
            reg.rsp_len.to_string(),
        ]);
    }
    print!("{}", table.render());

    println!("\nOperation pseudocode (paper Table V):");
    for (op, code) in PSEUDOCODE {
        println!("  {op:<12} {code}");
    }
    println!(
        "\nLock structure (paper Figure 4): 16-byte block; bits 63:0 lock value,\n\
         bits 127:64 owning thread/task id."
    );
}
