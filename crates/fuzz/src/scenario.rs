//! The scenario value: one fully-specified differential experiment.

use hmc_sim::jsonv::obj;
use hmc_sim::scenario::{
    device_config_from_json, device_config_to_json, skip_mode_from_json, skip_mode_to_json,
    timing_select_from_json, timing_select_to_json,
};
use hmc_sim::{DeviceConfig, Json, JsonError, ObjReader, SimConfig, SkipMode, TimingSelect};
use hmc_workloads::KernelDescriptor;

/// The multi-cube fabric a scenario instantiates. Kernels inject all
/// traffic at cube 0, so the extra cubes of a non-[`Single`] fabric
/// run idle — which is exactly the machinery the axis fuzzes: per-cube
/// event horizons, idle-skip over populated-but-quiet devices, and
/// fault delivery on cubes the workload never touches.
///
/// [`Single`]: FabricTopology::Single
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricTopology {
    /// One cube, host-only links (the historic configuration).
    Single,
    /// A daisy chain of `cubes` devices.
    Chain {
        /// Device count (2–16).
        cubes: u8,
    },
    /// A ring of `cubes` devices.
    Ring {
        /// Device count (3–16).
        cubes: u8,
    },
    /// A `cols` × `rows` 2D mesh, row-major.
    Mesh {
        /// Grid width.
        cols: u8,
        /// Grid height.
        rows: u8,
    },
}

impl FabricTopology {
    /// Number of cubes this fabric instantiates.
    pub fn cube_count(&self) -> usize {
        match *self {
            FabricTopology::Single => 1,
            FabricTopology::Chain { cubes } | FabricTopology::Ring { cubes } => cubes as usize,
            FabricTopology::Mesh { cols, rows } => cols as usize * rows as usize,
        }
    }

    /// The simulation configuration for this fabric around `device`
    /// (every cube gets an identical copy, fault plan included).
    pub fn sim_config(&self, device: DeviceConfig) -> SimConfig {
        match *self {
            FabricTopology::Single => SimConfig::single(device),
            FabricTopology::Chain { cubes } => SimConfig::chain(device, cubes as usize),
            FabricTopology::Ring { cubes } => SimConfig::ring(device, cubes as usize),
            FabricTopology::Mesh { cols, rows } => {
                SimConfig::mesh(device, cols as usize, rows as usize)
            }
        }
    }

    fn to_json(self) -> Json {
        match self {
            FabricTopology::Single => obj(vec![("kind", Json::Str("single".into()))]),
            FabricTopology::Chain { cubes } => obj(vec![
                ("kind", Json::Str("chain".into())),
                ("cubes", Json::Int(cubes as i128)),
            ]),
            FabricTopology::Ring { cubes } => obj(vec![
                ("kind", Json::Str("ring".into())),
                ("cubes", Json::Int(cubes as i128)),
            ]),
            FabricTopology::Mesh { cols, rows } => obj(vec![
                ("kind", Json::Str("mesh".into())),
                ("cols", Json::Int(cols as i128)),
                ("rows", Json::Int(rows as i128)),
            ]),
        }
    }

    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let mut r = ObjReader::new("fabric", value)?;
        let kind = r.str("kind")?.to_string();
        let out = match kind.as_str() {
            "single" => FabricTopology::Single,
            "chain" => FabricTopology::Chain { cubes: r.u64("cubes")? as u8 },
            "ring" => FabricTopology::Ring { cubes: r.u64("cubes")? as u8 },
            "mesh" => {
                FabricTopology::Mesh { cols: r.u64("cols")? as u8, rows: r.u64("rows")? as u8 }
            }
            other => {
                return Err(JsonError {
                    message: format!("fabric: unknown kind `{other}`"),
                })
            }
        };
        r.finish()?;
        Ok(out)
    }
}

/// Version tag written into every scenario file. Bump when the format
/// changes shape; the loader rejects any other value loudly.
///
/// Version 1 also carried `exec_threads`, the lane count of the
/// device-sharded engine since deleted. Version-1 files still load:
/// the key is required and checked there, then discarded.
pub const SCHEMA_VERSION: u64 = 2;

/// One point in the fuzzed cross-product: a workload kernel, a device
/// configuration (fault plan included), and the variant engine
/// configuration to compare against the reference run.
///
/// A scenario is **self-contained**: serialized to JSON it carries
/// everything needed to replay the experiment on a machine that has
/// only this file and the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Generator provenance: the per-scenario seed this was sampled
    /// from (kept for reporting; replay does not depend on it).
    pub seed: u64,
    /// Device configuration, fault plan included.
    pub device: DeviceConfig,
    /// The workload.
    pub kernel: KernelDescriptor,
    /// Variant idle-cycle skipping (the reference always runs with
    /// skipping off).
    pub skip: SkipMode,
    /// Attach the sanitizer (report policy) to the variant run.
    pub sanitizer: bool,
    /// Attach full telemetry to the variant run.
    pub telemetry: bool,
    /// Attach the flight recorder (structured trace ring) to the
    /// variant run. The recorder is contracted to be zero-perturbation,
    /// so this axis fuzzes that contract differentially.
    pub trace: bool,
    /// Bank-timing backend. Unlike the engine axes, this one affects
    /// behaviour, so it is applied to the reference AND the variant:
    /// the differential contract is that the skip and observer axes stay
    /// bit-identical *under every backend*.
    pub timing: TimingSelect,
    /// Multi-cube fabric. Like `timing` this is behaviour, not an
    /// engine variant: both sides instantiate the same fabric, and the
    /// engine axes must stay bit-identical across its idle cubes.
    pub fabric: FabricTopology,
}

impl Scenario {
    /// Cross-axis invariants that individual field parsers cannot
    /// see. Applied by the generator (as an internal check) and by
    /// the corpus loader (so a hand-edited file fails loudly).
    pub fn validate(&self) -> Result<(), JsonError> {
        self.kernel.validate()?;
        if !self.device.fault.link_schedule.is_empty() && !self.kernel.tolerates_link_outage() {
            return Err(JsonError {
                message: format!(
                    "scenario: kernel `{}` does not tolerate scheduled link outages \
                     (only raw_ops may be paired with a fault-plan link_schedule)",
                    self.kernel.name()
                ),
            });
        }
        // The fabric's own preconditions (ring size, full mesh grid,
        // cube cap) live in the simulator's validator; surface them
        // here so a hand-edited corpus file fails at load, not replay.
        self.fabric
            .sim_config(self.device.clone())
            .validate()
            .map_err(|e| JsonError { message: format!("scenario: invalid fabric: {e}") })?;
        Ok(())
    }

    /// The simulation configuration both differential sides run: the
    /// scenario's fabric instantiated around its device config.
    pub fn sim_config(&self) -> SimConfig {
        self.fabric.sim_config(self.device.clone())
    }

    /// A rough size metric used to judge shrink quality (smaller is
    /// better): the sum of the scenario's magnitude-carrying knobs.
    pub fn weight(&self) -> u64 {
        let kernel = match self.kernel {
            KernelDescriptor::RawOps { ops, gap, drain, .. } => {
                ops as u64 + gap as u64 + drain as u64
            }
            KernelDescriptor::Counter { threads, increments, .. } => {
                threads as u64 * increments as u64
            }
            KernelDescriptor::Gups { updates, window, .. } => updates as u64 + window as u64,
            KernelDescriptor::Triad { elements, window, .. } => elements as u64 + window as u64,
            KernelDescriptor::Mutex { threads, .. } => threads as u64 * 8,
            KernelDescriptor::Barrier { threads, rounds } => threads as u64 * rounds as u64,
        };
        let fault = &self.device.fault;
        let fault_weight = (fault.poison_per_million as u64 / 1_000)
            + (fault.vault_error_per_million as u64 / 1_000)
            + fault.link_schedule.len() as u64 * 8;
        let timing = match self.timing {
            TimingSelect::FixedLatency => 0,
            TimingSelect::RowBuffer => 1,
            TimingSelect::Validated => 2,
        };
        // A single cube weighs nothing (the historic shape); every
        // extra cube counts, so shrinking pulls toward Single.
        let fabric = self.fabric.cube_count() as u64 - 1;
        kernel + fault_weight + self.sanitizer as u64 + self.telemetry as u64
            + self.trace as u64 + timing + fabric
    }

    /// Serializes the scenario as a versioned self-contained JSON
    /// object.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("schema_version", Json::Int(SCHEMA_VERSION as i128)),
            ("seed", Json::Int(self.seed as i128)),
            ("device", device_config_to_json(&self.device)),
            ("kernel", self.kernel.to_json()),
            ("skip", skip_mode_to_json(self.skip)),
            ("sanitizer", Json::Bool(self.sanitizer)),
            ("telemetry", Json::Bool(self.telemetry)),
            ("trace", Json::Bool(self.trace)),
            ("timing", timing_select_to_json(self.timing)),
            ("fabric", self.fabric.to_json()),
        ])
    }

    /// Deserializes a scenario, enforcing the schema version before
    /// touching any other field and rejecting unknown fields.
    pub fn from_json(value: &Json) -> Result<Self, JsonError> {
        let mut r = ObjReader::new("scenario", value)?;
        let version = r.u64("schema_version")?;
        if version != 1 && version != SCHEMA_VERSION {
            return Err(JsonError {
                message: format!(
                    "scenario: unsupported schema_version {version} (this build reads \
                     versions 1 and {SCHEMA_VERSION})"
                ),
            });
        }
        let seed = r.u64("seed")?;
        let device = device_config_from_json(r.required("device")?)?;
        let kernel = KernelDescriptor::from_json(r.required("kernel")?)?;
        if version == 1 {
            // The deleted engine's lane count: checked as it always
            // was, then dropped.
            let threads = r.required("exec_threads")?;
            if threads.int::<usize>("exec_mode: the lane count (integer >= 1)")? == 0 {
                return Err(JsonError::new("exec_mode: lane count must be >= 1"));
            }
        }
        let scenario = Scenario {
            seed,
            device,
            kernel,
            skip: skip_mode_from_json(r.required("skip")?)?,
            sanitizer: r.bool("sanitizer")?,
            telemetry: r.bool("telemetry")?,
            // Older corpus files predate the tracing axis; absent
            // means off.
            trace: match r.optional("trace") {
                None => false,
                Some(v) => v.as_bool().ok_or(JsonError {
                    message: "scenario: field `trace` must be a bool".into(),
                })?,
            },
            // Older corpus files predate the timing axis; absent means
            // the default FixedLatency backend. A present-but-unknown
            // backend name still fails loudly in the parser.
            timing: match r.optional("timing") {
                None => TimingSelect::FixedLatency,
                Some(v) => timing_select_from_json(v)?,
            },
            // Older corpus files predate the fabric axis; absent means
            // the historic single-cube shape.
            fabric: match r.optional("fabric") {
                None => FabricTopology::Single,
                Some(v) => FabricTopology::from_json(v)?,
            },
        };
        // Reproducers may carry an embedded Perfetto timeline
        // alongside the scenario; it is forensic context, not replay
        // input.
        let _ = r.optional("traceEvents");
        r.finish()?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Parses a scenario from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> Scenario {
        Scenario {
            seed: 42,
            device: DeviceConfig::gen2_4link_4gb(),
            kernel: KernelDescriptor::Barrier { threads: 4, rounds: 2 },
            skip: SkipMode::On,
            sanitizer: true,
            telemetry: false,
            trace: true,
            timing: TimingSelect::RowBuffer,
            fabric: FabricTopology::Chain { cubes: 3 },
        }
    }

    #[test]
    fn scenario_round_trips() {
        let s = sample();
        let text = s.to_json().render();
        assert_eq!(Scenario::from_json_str(&text).unwrap(), s);
    }

    #[test]
    fn unknown_version_is_rejected_with_version_in_message() {
        let mut s = sample().to_json();
        if let Json::Obj(fields) = &mut s {
            fields[0].1 = Json::Int(99);
        }
        let e = Scenario::from_json_str(&s.render()).unwrap_err();
        assert!(e.message.contains("schema_version 99"), "{}", e.message);
        assert!(e.message.contains("versions 1 and 2"), "{}", e.message);
    }

    /// `sample()` as a version-1 document, `exec_threads` after `kernel`.
    fn v1(exec_threads: Json) -> Json {
        let mut s = sample().to_json();
        if let Json::Obj(fields) = &mut s {
            fields[0].1 = Json::Int(1);
            let at = fields.iter().position(|(k, _)| k == "kernel").unwrap() + 1;
            fields.insert(at, ("exec_threads".into(), exec_threads));
        }
        s
    }

    #[test]
    fn version_1_loads_and_its_exec_threads_is_checked_then_dropped() {
        assert_eq!(Scenario::from_json_str(&v1(Json::Int(4)).render()).unwrap(), sample());
        let e = Scenario::from_json_str(&v1(Json::Int(0)).render()).unwrap_err();
        assert!(e.message.contains("lane count must be >= 1"), "{}", e.message);
        let e = Scenario::from_json_str(&v1(Json::Str("4".into())).render()).unwrap_err();
        assert!(e.message.contains("the lane count (integer >= 1)"), "{}", e.message);
        let mut missing = v1(Json::Int(1));
        if let Json::Obj(fields) = &mut missing {
            fields.retain(|(k, _)| k != "exec_threads");
        }
        let e = Scenario::from_json_str(&missing.render()).unwrap_err();
        assert!(e.message.contains("exec_threads"), "{}", e.message);
    }

    #[test]
    fn version_2_rejects_exec_threads_as_an_unknown_field() {
        let mut s = v1(Json::Int(2));
        if let Json::Obj(fields) = &mut s {
            fields[0].1 = Json::Int(SCHEMA_VERSION as i128);
        }
        let e = Scenario::from_json_str(&s.render()).unwrap_err();
        assert!(e.message.contains("exec_threads"), "{}", e.message);
    }

    #[test]
    fn missing_trace_field_defaults_off_and_trace_events_are_ignored() {
        let mut s = sample().to_json();
        if let Json::Obj(fields) = &mut s {
            fields.retain(|(k, _)| k != "trace");
            fields.push(("traceEvents".into(), Json::Arr(vec![])));
        }
        let loaded = Scenario::from_json_str(&s.render()).unwrap();
        assert!(!loaded.trace, "absent trace field must default to off");
        assert_eq!(Scenario { trace: true, ..loaded }, sample());
    }

    #[test]
    fn missing_timing_field_defaults_fixed_and_unknown_backends_reject() {
        let mut s = sample().to_json();
        if let Json::Obj(fields) = &mut s {
            fields.retain(|(k, _)| k != "timing");
        }
        let loaded = Scenario::from_json_str(&s.render()).unwrap();
        assert_eq!(
            loaded.timing,
            TimingSelect::FixedLatency,
            "absent timing field must default to the fixed backend"
        );

        let mut s = sample().to_json();
        if let Json::Obj(fields) = &mut s {
            for (k, v) in fields.iter_mut() {
                if k == "timing" {
                    *v = Json::Str("warp_drive".into());
                }
            }
        }
        let e = Scenario::from_json_str(&s.render()).unwrap_err();
        assert!(e.message.contains("unknown timing backend"), "{}", e.message);
    }

    #[test]
    fn unknown_top_level_field_is_rejected() {
        let mut s = sample().to_json();
        if let Json::Obj(fields) = &mut s {
            fields.push(("comment".into(), Json::Str("hi".into())));
        }
        let e = Scenario::from_json_str(&s.render()).unwrap_err();
        assert!(e.message.contains("comment"), "{}", e.message);
    }

    #[test]
    fn link_schedule_requires_tolerant_kernel() {
        let mut s = sample();
        s.device.fault = hmc_sim::FaultPlan::seeded(1).with_link_event(100, 0, false);
        assert!(s.validate().is_err());
        s.kernel = KernelDescriptor::RawOps { ops: 8, seed: 1, gap: 0, drain: 32 };
        assert!(s.validate().is_ok());
    }

    #[test]
    fn missing_fabric_field_defaults_single_and_invalid_fabrics_reject() {
        let mut s = sample().to_json();
        if let Json::Obj(fields) = &mut s {
            fields.retain(|(k, _)| k != "fabric");
        }
        let loaded = Scenario::from_json_str(&s.render()).unwrap();
        assert_eq!(
            loaded.fabric,
            FabricTopology::Single,
            "absent fabric field must default to one cube"
        );

        // A two-cube ring fails the simulator's precondition; the
        // loader must refuse it rather than defer the blowup to replay.
        let mut bad = sample();
        bad.fabric = FabricTopology::Ring { cubes: 2 };
        let text = bad.to_json().render();
        let e = Scenario::from_json_str(&text).unwrap_err();
        assert!(e.message.contains("invalid fabric"), "{}", e.message);
    }

    #[test]
    fn fabric_axis_weighs_by_extra_cubes() {
        let single = Scenario { fabric: FabricTopology::Single, ..sample() };
        let mesh = Scenario { fabric: FabricTopology::Mesh { cols: 2, rows: 2 }, ..sample() };
        assert_eq!(mesh.weight() - single.weight(), 3, "three extra cubes");
    }
}
