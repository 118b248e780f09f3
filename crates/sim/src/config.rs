//! Device and simulation configuration.
//!
//! The two presets used throughout the paper's evaluation (§V-B) are
//! [`DeviceConfig::gen2_4link_4gb`] and [`DeviceConfig::gen2_8link_8gb`],
//! both with a 64-byte maximum block size, 64-slot vault request
//! queues and 128-slot crossbar queues.

use crate::dram::{BankTiming, RefreshConfig};
use crate::fault::FaultPlan;
use crate::link::LinkConfig;
use crate::timing::TimingSelect;
use hmc_types::{CmdKind, HmcError, HmcRqst};

/// Crossbar link-service arbitration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Arbitration {
    /// Serve links in fixed index order each cycle (HMC-Sim's simple
    /// loop; lower-numbered links win ties).
    #[default]
    FixedPriority,
    /// Rotate the starting link each cycle so tie-breaking is fair.
    RoundRobin,
}

impl Arbitration {
    /// The arbitration names scenario files use.
    pub const NAMES: [(&'static str, Arbitration); 2] = [
        ("fixed_priority", Arbitration::FixedPriority),
        ("round_robin", Arbitration::RoundRobin),
    ];
}

/// Which HMC specification revision the device implements.
///
/// HMC-Sim 1.0 modeled the 1.0 specification (reads/writes up to 128
/// bytes plus mode and flow commands); the 2.0 release adds the Gen2
/// command space — 256-byte transfers, the atomic memory operations
/// and the CMC slots (paper §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpecRevision {
    /// HMC specification 1.0.
    Gen1,
    /// HMC specification 2.0/2.1 (the paper's target).
    #[default]
    Gen2,
}

impl SpecRevision {
    /// The revision names scenario files use.
    pub const NAMES: [(&'static str, SpecRevision); 2] =
        [("gen1", SpecRevision::Gen1), ("gen2", SpecRevision::Gen2)];

    /// True when a device of this revision executes `cmd`.
    pub fn supports(self, cmd: HmcRqst) -> bool {
        match self {
            SpecRevision::Gen2 => true,
            SpecRevision::Gen1 => match cmd.fixed_info() {
                Some(info) => match info.kind {
                    CmdKind::Flow | CmdKind::ModeRead | CmdKind::ModeWrite => true,
                    CmdKind::Read | CmdKind::Write | CmdKind::PostedWrite => {
                        info.data_bytes <= 128
                    }
                    CmdKind::Atomic | CmdKind::PostedAtomic | CmdKind::Cmc => false,
                },
                None => false, // CMC requires Gen2
            },
        }
    }
}

/// Static configuration of one HMC device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Number of host/chain links (2, 4 or 8).
    pub links: usize,
    /// Device capacity in bytes (4 or 8 GiB for Gen2 parts).
    pub capacity: u64,
    /// Number of quads (link-local vault groups). Gen2 devices have 4.
    pub quads: usize,
    /// Vaults per quad (Gen2: 8, for 32 vaults total).
    pub vaults_per_quad: usize,
    /// DRAM banks per vault (16 for 4 GB parts, 32 for 8 GB parts).
    pub banks_per_vault: usize,
    /// Maximum block size in bytes (32/64/128/256); sets the address
    /// interleave granularity.
    pub block_size: usize,
    /// Vault request-queue depth in slots (paper experiments: 64).
    pub vault_queue_depth: usize,
    /// Crossbar queue depth in slots per link (paper experiments: 128).
    pub xbar_queue_depth: usize,
    /// Extra cycles a bank stays busy after servicing a request
    /// (0 = pure queue-structural model, as the paper uses).
    pub bank_latency: u64,
    /// Row-buffer timing (all-zero by default, degenerating to the
    /// paper's untimed bank model).
    pub bank_timing: BankTiming,
    /// Packets each link moves per stage per cycle (link bandwidth in
    /// the packet-rate abstraction).
    pub link_bandwidth: usize,
    /// Requests each vault controller retires per cycle.
    pub vault_bandwidth: usize,
    /// Cycles a packet spends crossing to a chained neighbour device.
    pub hop_latency: u64,
    /// Link-layer protocol configuration (tokens / retry), applied to
    /// every link of the device. Inert by default.
    pub link_config: LinkConfig,
    /// The HMC specification revision the device implements.
    pub revision: SpecRevision,
    /// Crossbar arbitration among links.
    pub arbitration: Arbitration,
    /// Extra cycles a request pays when its target vault lies in a
    /// different quad than its entry link's local quad (link *i* is
    /// local to quad `i % quads`). 0 = uniform crossbar (the paper's
    /// model).
    pub remote_quad_penalty: u64,
    /// Optional DRAM refresh model (None = no refresh, the paper's
    /// timing-agnostic configuration).
    pub refresh: Option<RefreshConfig>,
    /// Seeded fault-injection plan ([`FaultPlan::none`] by default —
    /// guaranteed zero perturbation when empty).
    pub fault: FaultPlan,
}

impl DeviceConfig {
    /// The paper's 4Link-4GB evaluation configuration: 4 links, 4 GiB,
    /// 32 vaults, 16 banks/vault, 64-byte blocks, 64-slot vault
    /// queues, 128-slot crossbar queues.
    pub fn gen2_4link_4gb() -> Self {
        DeviceConfig {
            links: 4,
            capacity: 4 << 30,
            quads: 4,
            vaults_per_quad: 8,
            banks_per_vault: 16,
            block_size: 64,
            vault_queue_depth: 64,
            xbar_queue_depth: 128,
            bank_latency: 0,
            bank_timing: BankTiming::default(),
            link_bandwidth: 1,
            vault_bandwidth: 1,
            hop_latency: 1,
            link_config: LinkConfig::default(),
            revision: SpecRevision::Gen2,
            arbitration: Arbitration::FixedPriority,
            remote_quad_penalty: 0,
            refresh: None,
            fault: FaultPlan::none(),
        }
    }

    /// The paper's 8Link-8GB evaluation configuration: 8 links, 8 GiB,
    /// 32 vaults, 32 banks/vault; queue depths as above.
    pub fn gen2_8link_8gb() -> Self {
        DeviceConfig {
            links: 8,
            capacity: 8 << 30,
            banks_per_vault: 32,
            ..Self::gen2_4link_4gb()
        }
    }

    /// A small 2-link development part, useful for the link-count
    /// ablation sweeps.
    pub fn gen2_2link_4gb() -> Self {
        DeviceConfig { links: 2, ..Self::gen2_4link_4gb() }
    }

    /// An HMC 1.0 part (HMC-Sim 1.0's model): 4 links, 2 GiB, no
    /// Gen2 atomics, 256-byte transfers or CMC slots.
    pub fn gen1_4link_2gb() -> Self {
        DeviceConfig {
            capacity: 2 << 30,
            banks_per_vault: 8,
            revision: SpecRevision::Gen1,
            ..Self::gen2_4link_4gb()
        }
    }

    /// Total vault count.
    #[inline]
    pub fn total_vaults(&self) -> usize {
        self.quads * self.vaults_per_quad
    }

    /// Validates structural invariants (power-of-two geometry, legal
    /// block size, non-zero queues).
    pub fn validate(&self) -> Result<(), HmcError> {
        let bad = |why: String| Err(HmcError::MalformedPacket(why));
        if !matches!(self.links, 2 | 4 | 8) {
            return bad(format!("links must be 2, 4 or 8, got {}", self.links));
        }
        if !matches!(self.block_size, 32 | 64 | 128 | 256) {
            return bad(format!("block size must be 32/64/128/256, got {}", self.block_size));
        }
        for (name, v) in [
            ("quads", self.quads),
            ("vaults_per_quad", self.vaults_per_quad),
            ("banks_per_vault", self.banks_per_vault),
            ("vault_queue_depth", self.vault_queue_depth),
            ("xbar_queue_depth", self.xbar_queue_depth),
            ("link_bandwidth", self.link_bandwidth),
            ("vault_bandwidth", self.vault_bandwidth),
        ] {
            if v == 0 {
                return bad(format!("{name} must be nonzero"));
            }
        }
        if !self.total_vaults().is_power_of_two() {
            return bad(format!("vault count {} must be a power of two", self.total_vaults()));
        }
        if !self.banks_per_vault.is_power_of_two() {
            return bad(format!("banks/vault {} must be a power of two", self.banks_per_vault));
        }
        if self.capacity == 0 || !self.capacity.is_power_of_two() {
            return bad(format!("capacity {} must be a nonzero power of two", self.capacity));
        }
        if self.capacity < (self.total_vaults() * self.banks_per_vault * self.block_size) as u64 {
            return bad("capacity smaller than one block per bank".into());
        }
        if let Some(r) = &self.refresh {
            // A configured refresh model must actually refresh: a zero
            // interval or zero duration silently degenerates to "never
            // blocks" (see `RefreshConfig::blocks`), and a duration at
            // or above the interval leaves no service window at all.
            // `refresh: None` is the way to spell "no refresh".
            if r.interval == 0 || r.duration == 0 {
                return bad(format!(
                    "refresh interval and duration must be nonzero \
                     (got interval={}, duration={}); use refresh: None to disable",
                    r.interval, r.duration
                ));
            }
            if r.duration >= r.interval {
                return bad(format!(
                    "refresh duration {} must be shorter than interval {} \
                     or banks can never serve",
                    r.duration, r.interval
                ));
            }
        }
        self.fault.validate(self.links)?;
        Ok(())
    }

    /// A short human-readable name, e.g. `4Link-4GB`.
    pub fn label(&self) -> String {
        format!("{}Link-{}GB", self.links, self.capacity >> 30)
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::gen2_4link_4gb()
    }
}

/// Where stage 3 (vault execution) of each cycle runs.
///
/// `Sequential` is the reference semantics; `Parallel` hands
/// contiguous ranges of whole devices to worker threads, each running
/// the same `Device::execute_vaults` the sequential loop runs, and
/// takes them back in device order — bit-identical to `Sequential`
/// for every cycle (the differential determinism suite pins this).
/// See DESIGN.md §13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Advance every component in fixed order on the calling thread
    /// (the reference semantics; the default).
    #[default]
    Sequential,
    /// Shard stage 3 by device across `min(threads, devices)` lanes
    /// (the calling thread plus that many minus one workers). With one
    /// lane — `threads == 1` or a single cube — or with a tracer that
    /// captures anything, the cycle runs the sequential loop inline.
    Parallel {
        /// Total execution lanes (1..=64).
        threads: usize,
    },
}

impl ExecMode {
    /// Upper bound on `threads`. A context holds at most 16 devices,
    /// so lanes beyond that are never spawned.
    pub const MAX_THREADS: usize = 64;

    /// Number of execution lanes (1 for sequential mode).
    pub fn threads(self) -> usize {
        match self {
            ExecMode::Sequential => 1,
            ExecMode::Parallel { threads } => threads,
        }
    }

    /// Validates the lane count.
    pub fn validate(self) -> Result<(), HmcError> {
        match self {
            ExecMode::Parallel { threads } if threads == 0 || threads > Self::MAX_THREADS => {
                Err(HmcError::MalformedPacket(format!(
                    "exec_mode threads must be 1..={}, got {threads}",
                    Self::MAX_THREADS
                )))
            }
            _ => Ok(()),
        }
    }
}

/// Whether the clock may compress provably-idle cycle runs.
///
/// With skipping on, [`crate::HmcSim::clock`] consults a conservative
/// event horizon — the earliest cycle at which any queue, in-flight
/// transit, link-layer retry or scheduled fault event could act — and
/// advances cycle count, power accounting, telemetry windows and
/// sanitizer bookkeeping across the whole idle run in O(1) closed-form
/// updates instead of executing the empty pipeline cycle by cycle.
/// The skip path is exact: `state_fingerprint()` is bit-identical with
/// skipping on versus off (see `DESIGN.md` §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SkipMode {
    /// Execute every cycle through the full pipeline (the default).
    #[default]
    Off,
    /// Compress idle regions via the event-horizon fast path.
    On,
}

/// The rule behind every `HMCSIM_*` override: an explicit non-default
/// setting wins; otherwise the variable, when set, is parsed, and a
/// value `parse` does not know is its typed error.
pub(crate) fn env_override<T: Default + PartialEq>(
    setting: T,
    var: &str,
    parse: fn(&str) -> Result<T, HmcError>,
) -> Result<T, HmcError> {
    if setting != T::default() {
        return Ok(setting);
    }
    std::env::var(var).map_or(Ok(setting), |raw| parse(&raw))
}

/// Environment variable consulted by [`SkipMode::resolve_env`]; set to
/// `1`, `true` or `on` to opt unconfigured simulations into idle-cycle
/// skipping.
pub const SKIP_MODE_ENV: &str = "HMCSIM_SKIP";

impl SkipMode {
    /// Parses an explicit `HMCSIM_SKIP` value: `1`/`true`/`on` enable
    /// skipping, `0`/`false`/`off` disable it (case-insensitive,
    /// trimmed). Anything else — including an empty string — is
    /// rejected with a descriptive error rather than silently treated
    /// as "off".
    pub fn parse_env_value(raw: &str) -> Result<Self, HmcError> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "1" | "true" | "on" => Ok(SkipMode::On),
            "0" | "false" | "off" => Ok(SkipMode::Off),
            other => Err(HmcError::MalformedPacket(format!(
                "{SKIP_MODE_ENV}={other:?} is not a recognised value \
                 (expected 1/true/on or 0/false/off)"
            ))),
        }
    }

    /// Resolves the effective mode, letting the `HMCSIM_SKIP`
    /// environment variable upgrade an unconfigured (`Off`) mode —
    /// this lets the CI matrix drive the whole test suite through the
    /// event-horizon engine without touching call sites. An explicit
    /// `On` setting always wins; an unrecognised value is an error —
    /// see [`SkipMode::parse_env_value`].
    pub fn resolve_env(self) -> Result<Self, HmcError> {
        env_override(self, SKIP_MODE_ENV, Self::parse_env_value)
    }

    /// True when idle-cycle skipping is enabled.
    pub fn is_on(self) -> bool {
        self == SkipMode::On
    }
}

/// How multiple devices are wired together.
///
/// Shortest-path routing tables for every variant are computed once at
/// construction by [`crate::topology::Topology`]; the per-hop next
/// device is a table lookup, never a runtime search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkTopology {
    /// A single host-attached device (the paper's evaluation setup).
    #[default]
    HostOnly,
    /// Devices chained in a line; the host attaches to device 0 and
    /// packets for cube *n* traverse *n* hops (paper §II's chaining
    /// support carried forward from HMC-Sim 1.0).
    Chain,
    /// Devices in a cycle: device *i* neighbours `(i±1) mod n`.
    /// Requires at least 3 cubes (a 2-cube ring is just a chain).
    Ring,
    /// A 2-D row-major mesh with `cols` columns and `n / cols` rows;
    /// each device neighbours its N/S/E/W grid neighbours. Requires
    /// the device count to be a multiple of `cols`.
    Mesh {
        /// Mesh width (devices per row).
        cols: usize,
    },
}

/// Configuration of a whole simulation context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Per-device configurations; the device index is its CUB id.
    pub devices: Vec<DeviceConfig>,
    /// Inter-device wiring.
    pub topology: LinkTopology,
    /// Invariant-checking sanitizer (disabled by default — a disabled
    /// sanitizer is guaranteed zero-perturbation).
    pub sanitizer: crate::sanitizer::SanitizerConfig,
    /// Telemetry registry (disabled by default — disabled telemetry is
    /// guaranteed zero-perturbation, and even enabled telemetry only
    /// observes).
    pub telemetry: crate::telemetry::TelemetryConfig,
    /// Tick execution mode ([`ExecMode::Sequential`] by default).
    pub exec_mode: ExecMode,
    /// Idle-cycle compression ([`SkipMode::Off`] by default; the
    /// `HMCSIM_SKIP` environment variable can upgrade the default, see
    /// [`SkipMode::resolve_env`]).
    pub skip_mode: SkipMode,
    /// DRAM bank timing backend ([`TimingSelect::FixedLatency`] by
    /// default; the `HMCSIM_TIMING` environment variable can upgrade
    /// the default, see [`TimingSelect::resolve_env`]).
    pub timing: TimingSelect,
}

impl SimConfig {
    /// A single-device context.
    pub fn single(device: DeviceConfig) -> Self {
        SimConfig {
            devices: vec![device],
            topology: LinkTopology::HostOnly,
            sanitizer: Default::default(),
            telemetry: Default::default(),
            exec_mode: Default::default(),
            skip_mode: Default::default(),
            timing: Default::default(),
        }
    }

    /// A chain of `n` identical devices.
    pub fn chain(device: DeviceConfig, n: usize) -> Self {
        Self::fabric(device, n, LinkTopology::Chain)
    }

    /// A ring of `n` identical devices (`n >= 3`).
    pub fn ring(device: DeviceConfig, n: usize) -> Self {
        Self::fabric(device, n, LinkTopology::Ring)
    }

    /// A `cols × rows` row-major mesh of identical devices.
    pub fn mesh(device: DeviceConfig, cols: usize, rows: usize) -> Self {
        Self::fabric(device, cols * rows, LinkTopology::Mesh { cols })
    }

    /// `n` identical devices under an arbitrary wiring.
    pub fn fabric(device: DeviceConfig, n: usize, topology: LinkTopology) -> Self {
        SimConfig {
            devices: std::iter::repeat_n(device, n).collect(),
            topology,
            sanitizer: Default::default(),
            telemetry: Default::default(),
            exec_mode: Default::default(),
            skip_mode: Default::default(),
            timing: Default::default(),
        }
    }

    /// Validates every device plus topology constraints (at most 16
    /// cubes — the 4-bit extended CUB field; see `hmc_types::Cub`),
    /// including the routing-table preconditions of the chosen
    /// [`LinkTopology`].
    pub fn validate(&self) -> Result<(), HmcError> {
        if self.devices.is_empty() {
            return Err(HmcError::MalformedPacket("no devices configured".into()));
        }
        if self.devices.len() > hmc_types::Cub::MAX_CUBES {
            return Err(HmcError::InvalidCube(self.devices.len().min(255) as u8));
        }
        crate::topology::Topology::new(self.topology, self.devices.len())?;
        for d in &self.devices {
            d.validate()?;
        }
        self.exec_mode.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_are_valid() {
        let four = DeviceConfig::gen2_4link_4gb();
        four.validate().unwrap();
        assert_eq!(four.label(), "4Link-4GB");
        assert_eq!(four.total_vaults(), 32);
        assert_eq!(four.vault_queue_depth, 64);
        assert_eq!(four.xbar_queue_depth, 128);
        assert_eq!(four.block_size, 64);

        let eight = DeviceConfig::gen2_8link_8gb();
        eight.validate().unwrap();
        assert_eq!(eight.label(), "8Link-8GB");
        assert_eq!(eight.links, 8);
        assert_eq!(eight.capacity, 8 << 30);
        assert_eq!(eight.banks_per_vault, 32);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = DeviceConfig::gen2_4link_4gb();
        c.links = 3;
        assert!(c.validate().is_err());

        let mut c = DeviceConfig::gen2_4link_4gb();
        c.block_size = 48;
        assert!(c.validate().is_err());

        let mut c = DeviceConfig::gen2_4link_4gb();
        c.vault_queue_depth = 0;
        assert!(c.validate().is_err());

        let mut c = DeviceConfig::gen2_4link_4gb();
        c.vaults_per_quad = 3;
        assert!(c.validate().is_err());

        let mut c = DeviceConfig::gen2_4link_4gb();
        c.capacity = 3 << 30;
        assert!(c.validate().is_err());

        let mut c = DeviceConfig::gen2_4link_4gb();
        c.fault = FaultPlan::seeded(1).with_link_event(0, 9, false);
        assert!(c.validate().is_err(), "fault plan validated with the device");
    }

    #[test]
    fn sim_config_bounds() {
        assert!(SimConfig::single(DeviceConfig::default()).validate().is_ok());
        assert!(SimConfig::chain(DeviceConfig::default(), 8).validate().is_ok());
        assert!(SimConfig::chain(DeviceConfig::default(), 16).validate().is_ok());
        assert!(SimConfig::chain(DeviceConfig::default(), 17).validate().is_err());
        assert!(SimConfig::ring(DeviceConfig::default(), 3).validate().is_ok());
        assert!(SimConfig::ring(DeviceConfig::default(), 2).validate().is_err());
        assert!(SimConfig::mesh(DeviceConfig::default(), 4, 4).validate().is_ok());
        assert!(SimConfig::mesh(DeviceConfig::default(), 4, 2).validate().is_ok());
        let mut skewed = SimConfig::mesh(DeviceConfig::default(), 3, 2);
        skewed.devices.pop(); // 5 devices under cols=3: not a full grid
        assert!(skewed.validate().is_err());
        let empty = SimConfig {
            devices: vec![],
            topology: LinkTopology::HostOnly,
            sanitizer: Default::default(),
            telemetry: Default::default(),
            exec_mode: Default::default(),
            skip_mode: Default::default(),
            timing: Default::default(),
        };
        assert!(empty.validate().is_err());
    }

    #[test]
    fn degenerate_refresh_configs_rejected() {
        let ok = |interval, duration| {
            let mut c = DeviceConfig::gen2_4link_4gb();
            c.refresh = Some(RefreshConfig { interval, duration });
            c.validate()
        };
        assert!(ok(100, 10).is_ok());
        assert!(ok(2, 1).is_ok(), "duration one below interval is the edge of legal");
        for (interval, duration) in [(0, 10), (100, 0), (0, 0), (100, 100), (100, 101)] {
            let err = ok(interval, duration)
                .expect_err(&format!("interval={interval} duration={duration} must be rejected"));
            let msg = err.to_string();
            assert!(msg.contains("refresh"), "error names the refresh model: {msg}");
        }
        // None stays the way to disable refresh entirely.
        assert!(DeviceConfig::gen2_4link_4gb().validate().is_ok());
    }

    #[test]
    fn timing_select_defaults_fixed_in_sim_config() {
        assert_eq!(SimConfig::single(DeviceConfig::default()).timing, TimingSelect::FixedLatency);
        assert_eq!(SimConfig::chain(DeviceConfig::default(), 2).timing, TimingSelect::FixedLatency);
        // An explicit non-default selection is never overridden by the
        // environment (mirrors SkipMode).
        assert_eq!(
            TimingSelect::RowBuffer.resolve_env().unwrap(),
            TimingSelect::RowBuffer
        );
    }

    #[test]
    fn exec_mode_bounds_and_threads() {
        assert_eq!(ExecMode::Sequential.threads(), 1);
        assert_eq!(ExecMode::Parallel { threads: 4 }.threads(), 4);
        assert!(ExecMode::Parallel { threads: 0 }.validate().is_err());
        assert!(ExecMode::Parallel { threads: 65 }.validate().is_err());
        assert!(ExecMode::Parallel { threads: 1 }.validate().is_ok());
        let mut c = SimConfig::single(DeviceConfig::default());
        c.exec_mode = ExecMode::Parallel { threads: 0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn skip_env_values_parse_or_reject_loudly() {
        for on in ["1", "true", "ON", " on "] {
            assert_eq!(SkipMode::parse_env_value(on).unwrap(), SkipMode::On);
        }
        for off in ["0", "false", "OFF", " off "] {
            assert_eq!(SkipMode::parse_env_value(off).unwrap(), SkipMode::Off);
        }
        for bad in ["", "yes", "2", "enabled", "skip"] {
            let err = SkipMode::parse_env_value(bad)
                .expect_err(&format!("{bad:?} should be rejected"));
            let msg = err.to_string();
            assert!(msg.contains(SKIP_MODE_ENV), "error names the variable: {msg}");
        }
    }

    #[test]
    fn skip_mode_defaults_off_and_explicit_on_wins() {
        assert_eq!(SkipMode::default(), SkipMode::Off);
        assert!(!SkipMode::Off.is_on());
        assert!(SkipMode::On.is_on());
        // An explicit setting is never downgraded by the environment.
        assert_eq!(SkipMode::On.resolve_env().unwrap(), SkipMode::On);
        assert_eq!(SimConfig::single(DeviceConfig::default()).skip_mode, SkipMode::Off);
    }
}
