//! Regenerates paper **Table I** — "HMC-Sim 2.0 Gen2 Additional
//! Command Support": the commands added for the 2.0/2.1
//! specification with their request and response FLIT counts,
//! produced from the simulator's own command metadata.
//!
//! ```text
//! cargo run -p hmc-bench --bin table1
//! ```

use hmc_bench::TableWriter;
use hmc_types::{CmdKind, HmcRqst};

/// The commands Table I lists (those added in the 2.0 release beyond
/// the 1.0 read/write set).
const TABLE_ONE: &[HmcRqst] = &[
    HmcRqst::Rd256,
    HmcRqst::Wr256,
    HmcRqst::PWr256,
    HmcRqst::TwoAdd8,
    HmcRqst::Add16,
    HmcRqst::P2Add8,
    HmcRqst::PAdd16,
    HmcRqst::TwoAddS8R,
    HmcRqst::AddS16R,
    HmcRqst::Inc8,
    HmcRqst::PInc8,
    HmcRqst::Xor16,
    HmcRqst::Or16,
    HmcRqst::Nor16,
    HmcRqst::And16,
    HmcRqst::Nand16,
    HmcRqst::CasGt8,
    HmcRqst::CasGt16,
    HmcRqst::CasLt8,
    HmcRqst::CasLt16,
    HmcRqst::CasEq8,
    HmcRqst::CasZero16,
    HmcRqst::Eq8,
    HmcRqst::Eq16,
    HmcRqst::Bwr,
    HmcRqst::PBwr,
    HmcRqst::Bwr8R,
    HmcRqst::Swap16,
];

fn class(kind: CmdKind) -> &'static str {
    match kind {
        CmdKind::Read => "Read",
        CmdKind::Write => "Write",
        CmdKind::PostedWrite => "Posted Write",
        CmdKind::Atomic => "Atomic",
        CmdKind::PostedAtomic => "Posted Atomic",
        CmdKind::Flow => "Flow",
        CmdKind::ModeRead | CmdKind::ModeWrite => "Mode",
        CmdKind::Cmc => "CMC",
    }
}

fn main() {
    hmc_bench::Args::from_env(&[]);
    println!("Table I: HMC-Sim 2.0 Gen2 Additional Command Support");
    println!("(request/response lengths in FLITs, from hmc-types metadata)\n");

    let mut table = TableWriter::new(&[
        "Command",
        "Command Enum",
        "Code",
        "Class",
        "Request Flits",
        "Response Flits",
    ]);
    for &cmd in TABLE_ONE {
        let info = cmd.fixed_info().expect("standard command");
        table.row(&[
            info.name.to_string(),
            cmd.mnemonic(),
            format!("{:#04x}", info.code),
            class(info.kind).to_string(),
            info.rqst_flits.to_string(),
            info.rsp_flits.to_string(),
        ]);
    }
    print!("{}", table.render());

    println!(
        "\n{} standard Gen2 commands total; {} unused command codes available as CMC slots.",
        HmcRqst::STANDARD.len(),
        HmcRqst::cmc_codes().count()
    );
}
