//! The ablation tables behind `results/ablations.txt`.
//!
//! Every number is a simulated quantity — cycles, FLITs, bytes or
//! updates per cycle — so the file regenerates byte for byte on any
//! host, and `tests/results_pin.rs` holds it to that. Host time is
//! `perf/`'s business (see `BENCHMARK.json`), not this module's.

use crate::{mutex_point, TableWriter};
use hmc_cmc::ops::{MUTEX_LIBRARY, TICKET_LIBRARY};
use hmc_sim::{
    Arbitration, BankTiming, DeviceConfig, HmcSim, RefreshConfig, RowPolicy, SimConfig, SkipMode,
    TimingSelect,
};
use hmc_workloads::kernels::bfs::{BfsConfig, BfsKernel, BfsMode, Graph};
use hmc_workloads::kernels::gups::{GupsConfig, GupsKernel, GupsMode};
use hmc_workloads::kernels::pchase::{PointerChaseConfig, PointerChaseKernel};
use hmc_workloads::kernels::triad::{TriadConfig, TriadKernel};
use hmc_workloads::{MutexKernel, MutexKernelConfig, MutexMechanism, SpinPolicy};

type Row = Vec<String>;

macro_rules! row {
    ($($cell:expr),*) => { vec![$($cell.to_string()),*] };
}

fn table(title: &str, headers: &[&str], rows: impl Iterator<Item = Row>) -> String {
    let mut table = TableWriter::new(headers);
    rows.for_each(|row| table.row(&row));
    format!("## {title}\n\n{}\n", table.render())
}

fn stock() -> DeviceConfig {
    DeviceConfig::gen2_4link_4gb()
}

fn sim_with(config: &DeviceConfig, timing: TimingSelect) -> HmcSim {
    let mut sim = HmcSim::new(config.clone()).expect("valid device config");
    sim.set_timing_model(timing);
    sim
}

/// Vault (paper: 64) and crossbar (paper: 128) queue depth against
/// the 64-thread mutex hot spot.
fn queue_depth() -> String {
    let vault = [8, 32, 64, 256].map(|d| ("vault", d, DeviceConfig { vault_queue_depth: d, ..stock() }));
    let xbar = [16, 64, 128, 512].map(|d| ("xbar", d, DeviceConfig { xbar_queue_depth: d, ..stock() }));
    let rows = vault.into_iter().chain(xbar).map(|(queue, depth, config)| {
        let p = mutex_point(&config, SpinPolicy::PaperBounded, 64);
        row![queue, depth, p.min, p.max, format!("{:.2}", p.avg)]
    });
    let headers = ["queue", "depth", "min", "max", "avg"];
    table("queue depth (mutex kernel, 64 threads, lock cycles)", &headers, rows)
}

/// The paper's CMC mutex against one built from stock `CASEQ8`, under
/// both spin policies, plus the fair ticket lock (32 threads).
fn mutex_mechanism() -> String {
    let (bounded, honest) = (SpinPolicy::PaperBounded, SpinPolicy::until_owned());
    let variants = [
        ("cmc_bounded", MutexMechanism::Cmc, bounded, Some(MUTEX_LIBRARY)),
        ("cas_bounded", MutexMechanism::CasEq8, bounded, None),
        ("cmc_honest", MutexMechanism::Cmc, honest, Some(MUTEX_LIBRARY)),
        ("cas_honest", MutexMechanism::CasEq8, honest, None),
        ("ticket_fair", MutexMechanism::Ticket, honest, Some(TICKET_LIBRARY)),
    ];
    let rows = variants.into_iter().map(|(name, mechanism, spin, library)| {
        let mut sim = HmcSim::new(stock()).expect("valid device config");
        if let Some(library) = library {
            sim.load_cmc_library(0, library).expect("builtin library loads");
        }
        let config = MutexKernelConfig { threads: 32, spin, mechanism, ..Default::default() };
        let m = MutexKernel::new(config).run(&mut sim).expect("mutex kernel runs").metrics;
        row![name, m.min_cycle(), m.max_cycle(), format!("{:.2}", m.avg_cycle())]
    });
    table("mutex mechanism (32 threads, lock cycles)", &["variant", "min", "max", "avg"], rows)
}

/// RandomAccess via `XOR16` and BFS check-and-update via `CASEQ8`
/// against their host read-modify-write forms (related work \[10\]).
fn amo_offload() -> String {
    let new_sim = || HmcSim::new(stock()).expect("valid device config");
    let gups = [("xor16_amo", GupsMode::Xor16Amo), ("read_modify_write", GupsMode::ReadModifyWrite)]
        .map(|(name, mode)| {
            let config = GupsConfig { table_entries: 1 << 10, updates: 1024, mode, ..Default::default() };
            let r = GupsKernel::new(config).run(&mut new_sim()).expect("gups runs");
            row!["gups", name, r.cycles, r.link_flits]
        });
    let graph = Graph::random(512, 2048, 0xBF5);
    let bfs = [("caseq8_offload", BfsMode::CasOffload), ("read_check_write", BfsMode::ReadCheckWrite)]
        .map(|(name, mode)| {
            let config = BfsConfig { mode, ..Default::default() };
            let r = BfsKernel::new(config).run(&mut new_sim(), &graph).expect("bfs runs");
            assert_eq!(r.errors, 0, "bfs verification");
            row!["bfs", name, r.cycles, r.link_flits]
        });
    let headers = ["kernel", "variant", "cycles", "FLITs"];
    let title = "AMO offload (GUPS 1024 updates; BFS 512 vertices / 2048 edges)";
    table(title, &headers, gups.into_iter().chain(bfs))
}

/// STREAM Triad (2048 elements) by request size and write posting.
fn triad_bandwidth() -> String {
    let variants = [(16, false), (64, false), (128, false), (256, false), (64, true)];
    let rows = variants.into_iter().map(|(chunk_bytes, posted_writes)| {
        let config = TriadConfig { elements: 2048, chunk_bytes, posted_writes, ..Default::default() };
        let mut sim = HmcSim::new(stock()).expect("valid device config");
        let r = TriadKernel::new(config).run(&mut sim).expect("triad runs");
        assert_eq!(r.errors, 0, "triad verification");
        let writes = if posted_writes { "posted" } else { "acked" };
        row![chunk_bytes, writes, r.cycles, format!("{:.2}", r.bytes_per_cycle)]
    });
    table("Triad bandwidth (2048 elements)", &["chunk B", "writes", "cycles", "array B/cycle"], rows)
}

/// The paper's §VII timing extensions on the streaming, random and
/// dependent-load kernels. Row policy and refresh row-closing belong
/// to the `row_buffer` backend, so those rows pin it; the last two
/// rows swap only the backend under one row-heavy configuration.
fn timing_extensions() -> String {
    use TimingSelect::{FixedLatency, RowBuffer};
    let bank = |policy| BankTiming { row_hit: 1, row_miss: 6, policy };
    let (open, closed) = (bank(RowPolicy::OpenPage), bank(RowPolicy::ClosedPage));
    let refresh = |interval, duration| Some(RefreshConfig { interval, duration });
    let row_heavy = || DeviceConfig { bank_timing: open, refresh: refresh(512, 16), ..stock() };
    let fixed_priority = DeviceConfig { arbitration: Arbitration::FixedPriority, ..stock() };
    let round_robin = DeviceConfig { arbitration: Arbitration::RoundRobin, ..stock() };
    let variants = [
        ("row policy", "open_page", RowBuffer, DeviceConfig { bank_timing: open, ..stock() }),
        ("row policy", "closed_page", RowBuffer, DeviceConfig { bank_timing: closed, ..stock() }),
        ("refresh", "off", RowBuffer, stock()),
        ("refresh", "trefi_512_trfc_16", RowBuffer, DeviceConfig { refresh: refresh(512, 16), ..stock() }),
        ("refresh", "trefi_256_trfc_32", RowBuffer, DeviceConfig { refresh: refresh(256, 32), ..stock() }),
        ("arbitration", "fixed_priority", FixedLatency, fixed_priority),
        ("arbitration", "round_robin", FixedLatency, round_robin),
        ("backend, row-heavy", "fixed", FixedLatency, row_heavy()),
        ("backend, row-heavy", "row_buffer", RowBuffer, row_heavy()),
    ];
    let rows = variants.into_iter().map(|(group, variant, backend, config)| {
        let triad = TriadKernel::new(TriadConfig { elements: 2048, ..Default::default() })
            .run(&mut sim_with(&config, backend))
            .expect("triad runs");
        let gups = GupsKernel::new(GupsConfig { updates: 2_000, ..Default::default() })
            .run(&mut sim_with(&config, backend))
            .expect("gups runs");
        let chase_config = PointerChaseConfig { nodes: 256, steps: 256, ..Default::default() };
        let chase = PointerChaseKernel::new(chase_config)
            .run(&mut sim_with(&config, backend))
            .expect("pointer chase runs");
        assert!(triad.errors == 0 && gups.errors == 0 && chase.verified, "{group}/{variant}");
        let per_hop = format!("{:.2}", chase.cycles_per_step);
        row![group, variant, backend.name(), triad.cycles, gups.cycles, per_hop]
    });
    let headers = ["group", "variant", "backend", "triad cycles", "gups cycles", "chase cycles/hop"];
    let title = "timing extensions (Triad 2048 elements, GUPS 2000 updates, pointer chase 256 hops)";
    table(title, &headers, rows)
}

/// Fabric GUPS — 2048 updates per cube, 5 % remote — from one cube to
/// the 16-cube architectural maximum (sequential engine, skip on).
/// Aggregate updates per simulated cycle is the scaling figure.
fn fabric_scaling() -> String {
    let d = stock;
    let topologies = [
        ("single1", SimConfig::single(d())),
        ("chain2", SimConfig::chain(d(), 2)),
        ("chain4", SimConfig::chain(d(), 4)),
        ("chain8", SimConfig::chain(d(), 8)),
        ("chain16", SimConfig::chain(d(), 16)),
        ("ring4", SimConfig::ring(d(), 4)),
        ("ring8", SimConfig::ring(d(), 8)),
        ("ring16", SimConfig::ring(d(), 16)),
        ("mesh2x2", SimConfig::mesh(d(), 2, 2)),
        ("mesh4x2", SimConfig::mesh(d(), 4, 2)),
        ("mesh4x4", SimConfig::mesh(d(), 4, 4)),
    ];
    let mut single = None;
    let rows = topologies.into_iter().map(|(name, config)| {
        let cubes = config.devices.len();
        let mut sim = HmcSim::with_config(SimConfig { skip_mode: SkipMode::On, ..config })
            .expect("valid fabric config");
        let gups = GupsConfig {
            table_entries: 1 << 10,
            updates: 2048,
            window: 32,
            seed: 0xFAB0_1234_5678_9ABC,
            remote_permille: 50,
            cubes,
            ..Default::default()
        };
        let r = GupsKernel::new(gups).run(&mut sim).expect("fabric gups runs");
        assert_eq!(r.errors, 0, "fabric gups verification ({name})");
        let rate = r.updates as f64 / r.cycles as f64;
        let scaling = format!("{:.2}x", rate / *single.get_or_insert(rate));
        row![name, cubes, r.updates, r.remote_updates, r.cycles, format!("{rate:.3}"), scaling]
    });
    let headers = ["topology", "cubes", "updates", "remote", "cycles", "updates/cycle", "vs single1"];
    table("fabric GUPS scaling (2048 updates per cube, 5% remote)", &headers, rows)
}

/// Renders every ablation table, in the order DESIGN.md §5 lists them.
pub fn render() -> String {
    hmc_cmc::ops::register_builtin_libraries();
    let title = "Ablations: simulated-domain tables (4Link-4GB unless a row says otherwise)\n\n";
    let tables = [
        queue_depth(), mutex_mechanism(), amo_offload(), triad_bandwidth(), timing_extensions(),
        fabric_scaling(),
    ];
    format!("{title}{}", tables.concat())
}
