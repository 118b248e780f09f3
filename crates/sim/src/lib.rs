//! # hmc-sim
//!
//! The HMC-Sim 2.0 device model: a cycle-based simulator for Hybrid
//! Memory Cube Gen2 devices.
//!
//! A [`HmcSim`] context owns one or more [`device::Device`]s. Each
//! device models the Gen2 hardware structure (paper §III):
//!
//! * **links** — 4 or 8 host/chain links, each with a crossbar request
//!   queue and a crossbar response queue (the paper's experiments use
//!   a depth of 128 slots);
//! * **quads / vaults** — 32 vaults in 4 quads, each vault with a
//!   request queue (depth 64 in the paper's experiments) and a
//!   response queue, fronting its DRAM banks;
//! * **banks** — 16 (4 GB parts) or 32 (8 GB parts) banks per vault
//!   with a configurable busy latency;
//! * a **register file** reachable through the simulated JTAG API and
//!   the `MD_RD`/`MD_WR` mode commands;
//! * a **trace subsystem** recording command execution, queue stalls,
//!   latencies and CMC activity;
//! * a **power model** (the paper's §VII future work, implemented
//!   here as an extension).
//!
//! The pipeline gives an uncontended request a three-cycle round
//! trip — host → crossbar → vault (execute) → crossbar → host — so the
//! paper's two-round-trip mutex algorithm completes in six cycles
//! minimum, matching Table VI.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod compat;
pub mod config;
pub mod device;
pub mod dram;
pub(crate) mod events;
pub mod export;
pub mod fault;
pub mod hist;
pub mod jsonv;
pub mod link;
pub mod perfetto;
pub mod power;
pub mod queue;
pub mod regs;
pub mod report;
pub mod sanitizer;
pub mod scenario;
pub mod ckpt;
pub mod sim;
pub mod snapjson;
pub mod snapshot;
pub mod stats;
pub mod telemetry;
pub mod timing;
pub mod topology;
pub mod trace;
pub mod trace_analysis;

pub use addr::AddressMap;
pub use ckpt::{atomic_write, CheckpointRecord, CheckpointStore, OpenReport, QuarantinedFile};
pub use config::{
    Arbitration, DeviceConfig, ExecMode, LinkTopology, SimConfig, SkipMode, SpecRevision,
    SKIP_MODE_ENV,
};
pub use device::{TrackedRequest, TrackedResponse};
pub use dram::{BankTiming, RefreshConfig, RowPolicy};
pub use export::{MetricValue, TelemetryReport};
pub use fault::{FaultPlan, FaultRng, LinkErrorMode, LinkEvent};
pub use hist::Hist;
pub use jsonv::{Json, JsonError, ObjReader};
pub use link::{LinkConfig, LinkStats, SendGrant};
pub use power::PowerReport;
pub use sanitizer::{
    SanitizerConfig, SanitizerPolicy, SanitizerReport, Violation, ViolationKind,
};
pub use hmc_types::Fnv;
pub use sim::HmcSim;
pub use snapjson::SNAPSHOT_SCHEMA_VERSION;
pub use snapshot::{ForensicDump, OracleDigest, SimSnapshot};
pub use stats::{ClassLatency, CmdClass, DeviceStats};
pub use telemetry::{Stage, StageStamps, Telemetry, TelemetryConfig, TimeSeries};
pub use timing::{TimingSelect, TimingSnapshot, TimingStats, TIMING_ENV};
pub use topology::Topology;
pub use perfetto::PerfettoOptions;
pub use trace::{
    CmdRef, FlightLane, FlightLaneSnapshot, FlightRecorder, FlightSnapshot, TraceBuffer,
    TraceKind, TraceLevel, TraceRecord, Tracer,
};
pub use trace_analysis::{TraceEvent, TraceSummary};
