//! The scenario value: one fully-specified differential experiment.

use hmc_sim::jsonv::obj;
use hmc_sim::{
    DeviceConfig, Json, JsonError, LinkTopology, ObjReader, SanitizerConfig, SimConfig, SkipMode,
    TelemetryConfig, TimingSelect,
};
use hmc_types::Cub;
use hmc_workloads::KernelDescriptor;

/// Version tag written into every scenario file. Bump when the format
/// changes shape; the loader rejects any other value loudly.
///
/// Version 3 stores the machine as one [`SimConfig`] under `sim`.
/// Versions 1 and 2 spelled it field by field (`device`, `fabric`,
/// `timing`, `skip`, `sanitizer`, `telemetry`) and still load, through
/// `legacy_sim`. Version 1 also carried `exec_threads`, the lane count
/// of the device-sharded engine since deleted: there the key is
/// required and checked, then discarded.
pub const SCHEMA_VERSION: u64 = 3;

/// One point in the fuzzed cross-product: a workload kernel and the
/// variant machine to compare against the reference run.
///
/// A scenario is **self-contained**: serialized to JSON it carries
/// everything needed to replay the experiment on a machine that has
/// only this file and the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Generator provenance: the per-scenario seed this was sampled
    /// from (kept for reporting; replay does not depend on it).
    pub seed: u64,
    /// The workload.
    pub kernel: KernelDescriptor,
    /// The variant's machine. Its devices (fault plans included),
    /// fabric and timing backend are behaviour, so the reference runs
    /// them too ([`Scenario::reference`]); its skip mode, sanitizer and
    /// telemetry are the engine axes that must stay bit-identical
    /// beneath them.
    pub sim: SimConfig,
    /// Attach the flight recorder (structured trace ring) to the
    /// variant run. The recorder is contracted to be zero-perturbation,
    /// so this axis fuzzes that contract differentially.
    pub trace: bool,
}

impl Scenario {
    /// Cross-axis invariants that individual field parsers cannot
    /// see. Applied by the generator (as an internal check) and by
    /// the corpus loader (so a hand-edited file fails loudly).
    pub fn validate(&self) -> Result<(), JsonError> {
        self.kernel.validate()?;
        let outage = self.sim.devices.iter().any(|d| !d.fault.link_schedule.is_empty());
        if outage && !self.kernel.tolerates_link_outage() {
            return Err(JsonError::new(format!(
                "scenario: kernel `{}` does not tolerate scheduled link outages \
                 (only raw_ops may be paired with a fault-plan link_schedule)",
                self.kernel.name()
            )));
        }
        // A generated or shrunk machine has not been through the codec.
        self.sim.validate().map_err(|e| JsonError::new(format!("scenario: invalid sim: {e}")))
    }

    /// The reference side's machine: the variant's, with idle-cycle
    /// skipping off and no sanitizer or telemetry attached.
    pub fn reference(&self) -> SimConfig {
        SimConfig {
            skip_mode: SkipMode::Off,
            sanitizer: SanitizerConfig::disabled(),
            telemetry: TelemetryConfig::disabled(),
            ..self.sim.clone()
        }
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
        // Generated machines repeat one cube: its fault plan counts once.
        let fault = &self.sim.devices[0].fault;
        let fault_weight = (fault.poison_per_million as u64 / 1_000)
            + (fault.vault_error_per_million as u64 / 1_000)
            + fault.link_schedule.len() as u64 * 8;
        let timing = match self.sim.timing {
            TimingSelect::FixedLatency => 0,
            TimingSelect::RowBuffer => 1,
            TimingSelect::Validated => 2,
        };
        let (sim, trace) = (&self.sim, self.trace as u64);
        let observers = sim.sanitizer.enabled as u64 + sim.telemetry.enabled as u64 + trace;
        // A single cube weighs nothing (the historic shape); every
        // extra cube counts, so shrinking pulls toward one.
        let fabric = self.sim.devices.len() as u64 - 1;
        kernel + fault_weight + observers + timing + fabric
    }

    /// Serializes the scenario as a versioned self-contained JSON
    /// object.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("schema_version", SCHEMA_VERSION.into()),
            ("seed", self.seed.into()),
            ("kernel", self.kernel.to_json()),
            ("sim", self.sim.to_json()),
            ("trace", self.trace.into()),
        ])
    }

    /// Deserializes a scenario, enforcing the schema version before
    /// touching any other field and rejecting unknown fields.
    pub fn from_json(value: &Json) -> Result<Self, JsonError> {
        let mut r = ObjReader::new("scenario", value)?;
        let version = r.u64("schema_version")?;
        if !(1..=SCHEMA_VERSION).contains(&version) {
            return Err(JsonError::new(format!(
                "scenario: unsupported schema_version {version} (this build reads versions 1 \
                 to {SCHEMA_VERSION})"
            )));
        }
        let seed = r.u64("seed")?;
        let scenario = if version == SCHEMA_VERSION {
            Scenario {
                seed,
                kernel: KernelDescriptor::from_json(r.required("kernel")?)?,
                sim: SimConfig::from_json(r.required("sim")?)?,
                trace: r.bool("trace")?,
            }
        } else {
            let device = r.required("device")?;
            let kernel = KernelDescriptor::from_json(r.required("kernel")?)?;
            if version == 1 {
                // The deleted engine's lane count: checked as it always
                // was, then dropped.
                let threads = r.required("exec_threads")?;
                if threads.int::<usize>("exec_mode: the lane count (integer >= 1)")? == 0 {
                    return Err(JsonError::new("exec_mode: lane count must be >= 1"));
                }
            }
            let sim = legacy_sim(&mut r, value, device)?;
            // Older files predate the tracing axis; absent means off.
            let trace = match r.optional("trace") {
                None => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| JsonError::new("scenario: field `trace` must be a bool"))?,
            };
            Scenario { seed, kernel, sim, trace }
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

/// The machine of a version-1 or -2 document: `device` on every cube
/// of `fabric`, with its `timing` and `skip`, and for `sanitizer` and
/// `telemetry` what the runner attached when they were `true` —
/// [`SanitizerConfig::report`] and [`TelemetryConfig::full`]. Files
/// older than the timing and fabric axes lack those keys: the fixed
/// backend and one cube. An unknown backend name still fails loudly.
fn legacy_sim(r: &mut ObjReader, value: &Json, device: &Json) -> Result<SimConfig, JsonError> {
    let mut sim = SimConfig::single(DeviceConfig::default());
    sim.skip_mode = match r.required("skip")?.as_bool() {
        Some(true) => SkipMode::On,
        Some(false) => SkipMode::Off,
        None => return Err(JsonError::new("skip_mode: expected a bool")),
    };
    if r.bool("sanitizer")? {
        sim.sanitizer = SanitizerConfig::report();
    }
    if r.bool("telemetry")? {
        sim.telemetry = TelemetryConfig::full();
    }
    if value.get("timing").is_some() {
        sim.timing = r.named("timing", &TimingSelect::NAMES)?;
    }
    let mut cubes = 1;
    if let Some(fabric) = r.optional("fabric") {
        (sim.topology, cubes) = legacy_fabric(fabric)?;
    }
    // The one codec reads the device, on every cube, and validates
    // the whole machine.
    let mut doc = sim.to_json();
    if let Json::Obj(fields) = &mut doc {
        let devices = fields.iter_mut().find(|(k, _)| k == "devices").expect("a devices field");
        devices.1 = Json::Arr(vec![device.clone(); cubes]);
    }
    SimConfig::from_json(&doc)
}

/// A version-1 or -2 `fabric`: its wiring and cube count. Every count
/// is read at full width and refused above [`Cub::MAX_CUBES`], so no
/// value wraps into a smaller fabric.
fn legacy_fabric(v: &Json) -> Result<(LinkTopology, usize), JsonError> {
    fn count(r: &mut ObjReader, key: &str) -> Result<usize, JsonError> {
        let n = r.usize(key)?;
        if n > Cub::MAX_CUBES {
            return Err(JsonError::new(format!(
                "fabric: `{key}` is {n}, above the {} cubes a CUB addresses",
                Cub::MAX_CUBES
            )));
        }
        Ok(n)
    }
    let mut r = ObjReader::new("fabric", v)?;
    let fabric = match r.str("kind")? {
        "single" => (LinkTopology::HostOnly, 1),
        "chain" => (LinkTopology::Chain, count(&mut r, "cubes")?),
        "ring" => (LinkTopology::Ring, count(&mut r, "cubes")?),
        "mesh" => {
            let cols = count(&mut r, "cols")?;
            (LinkTopology::Mesh { cols }, cols * count(&mut r, "rows")?)
        }
        other => return Err(JsonError::new(format!("fabric: unknown kind `{other}`"))),
    };
    r.finish()?;
    Ok(fabric)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> Scenario {
        let mut sim = SimConfig::chain(DeviceConfig::gen2_4link_4gb(), 3);
        sim.skip_mode = SkipMode::On;
        sim.sanitizer = SanitizerConfig::report();
        sim.timing = TimingSelect::RowBuffer;
        Scenario {
            seed: 42,
            kernel: KernelDescriptor::Barrier { threads: 4, rounds: 2 },
            sim,
            trace: true,
        }
    }

    /// `sample()` as the version-2 writer rendered it.
    const V2: &str = r#"{"schema_version":2,"seed":42,"device":{"links":4,"capacity":4294967296,"quads":4,"vaults_per_quad":8,"banks_per_vault":16,"block_size":64,"vault_queue_depth":64,"xbar_queue_depth":128,"bank_latency":0,"row_hit":0,"row_miss":0,"row_policy":"open_page","link_bandwidth":1,"vault_bandwidth":1,"hop_latency":1,"link_tokens":null,"link_error_period":null,"link_retry_latency":8,"revision":"gen2","arbitration":"fixed_priority","remote_quad_penalty":0,"refresh_interval":null,"refresh_duration":null,"fault":{"seed":0,"link_error":{"mode":"none"},"poison_per_million":0,"vault_error_per_million":0,"link_schedule":[]}},"kernel":{"kernel":"barrier","threads":4,"rounds":2},"skip":true,"sanitizer":true,"telemetry":false,"trace":true,"timing":"row_buffer","fabric":{"kind":"chain","cubes":3}}"#;

    /// `V2` with `edit` applied to its fields, rendered.
    fn v2(edit: impl FnOnce(&mut Vec<(String, Json)>)) -> String {
        let mut doc = Json::parse(V2).unwrap();
        let Json::Obj(fields) = &mut doc else { unreachable!("a scenario is an object") };
        edit(fields);
        doc.render()
    }

    fn set(fields: &mut [(String, Json)], key: &str, value: Json) {
        fields.iter_mut().find(|(k, _)| k == key).expect("the field exists").1 = value;
    }

    /// `V2` as a version-1 document, `exec_threads` after `kernel`.
    fn v1(exec_threads: Option<Json>) -> String {
        v2(|fields| {
            set(fields, "schema_version", Json::Int(1));
            let at = fields.iter().position(|(k, _)| k == "kernel").unwrap() + 1;
            if let Some(threads) = exec_threads {
                fields.insert(at, ("exec_threads".into(), threads));
            }
        })
    }

    fn rejection(text: &str) -> String {
        Scenario::from_json_str(text).unwrap_err().message
    }

    #[test]
    fn scenario_round_trips() {
        let s = sample();
        let text = s.to_json().render();
        assert!(text.starts_with(r#"{"schema_version":3,"seed":42,"kernel":"#), "{text}");
        assert_eq!(Scenario::from_json_str(&text).unwrap(), s);
    }

    #[test]
    fn unknown_version_is_rejected_with_version_in_message() {
        let e = rejection(&v2(|f| set(f, "schema_version", Json::Int(99))));
        assert!(e.contains("schema_version 99"), "{e}");
        assert!(e.contains("versions 1 to 3"), "{e}");
    }

    #[test]
    fn versions_1_and_2_load_through_the_legacy_fields() {
        assert_eq!(Scenario::from_json_str(V2).unwrap(), sample());
        assert_eq!(Scenario::from_json_str(&v1(Some(Json::Int(4)))).unwrap(), sample());
        let e = rejection(&v1(Some(Json::Int(0))));
        assert!(e.contains("lane count must be >= 1"), "{e}");
        let e = rejection(&v1(Some(Json::Str("4".into()))));
        assert!(e.contains("the lane count (integer >= 1)"), "{e}");
        assert!(rejection(&v1(None)).contains("exec_threads"));
    }

    #[test]
    fn version_2_rejects_exec_threads_and_version_3_the_legacy_fields() {
        let e = rejection(&v2(|f| f.push(("exec_threads".into(), Json::Int(2)))));
        assert!(e.contains("exec_threads"), "{e}");
        let e = rejection(&v2(|f| set(f, "schema_version", Json::Int(3))));
        assert!(e.contains("missing field `sim`"), "{e}");
    }

    #[test]
    fn legacy_absent_fields_default_and_trace_events_are_ignored() {
        let loaded = Scenario::from_json_str(&v2(|fields| {
            fields.retain(|(k, _)| !["trace", "timing", "fabric"].contains(&k.as_str()));
            fields.push(("traceEvents".into(), Json::Arr(vec![])));
        }))
        .unwrap();
        assert!(!loaded.trace, "absent trace field must default to off");
        assert_eq!(loaded.sim.timing, TimingSelect::FixedLatency, "absent timing is fixed");
        assert_eq!(loaded.sim.devices.len(), 1, "absent fabric is one cube");
        assert_eq!(loaded.sim.topology, LinkTopology::HostOnly);
        let e = rejection(&v2(|f| set(f, "timing", "warp_drive".into())));
        assert!(e.contains("scenario: unknown timing `warp_drive`"), "{e}");
    }

    #[test]
    fn unknown_top_level_field_is_rejected() {
        let mut s = sample().to_json();
        if let Json::Obj(fields) = &mut s {
            fields.push(("comment".into(), Json::Str("hi".into())));
        }
        assert!(rejection(&s.render()).contains("comment"));
    }

    #[test]
    fn link_schedule_requires_tolerant_kernel() {
        let mut s = sample();
        s.sim.devices[1].fault = hmc_sim::FaultPlan::seeded(1).with_link_event(100, 0, false);
        assert!(s.validate().is_err());
        s.kernel = KernelDescriptor::RawOps { ops: 8, seed: 1, gap: 0, drain: 32 };
        assert!(s.validate().is_ok());
    }

    #[test]
    fn invalid_legacy_fabrics_reject() {
        // A two-cube ring fails the simulator's precondition; the
        // loader must refuse it rather than defer the blowup to replay.
        let ring = obj(vec![("kind", "ring".into()), ("cubes", Json::Int(2))]);
        let e = rejection(&v2(|f| set(f, "fabric", ring)));
        assert!(e.contains("ring topology needs at least 3 cubes"), "{e}");
        let torus = obj(vec![("kind", "torus".into())]);
        assert!(rejection(&v2(|f| set(f, "fabric", torus))).contains("unknown kind `torus`"));
    }

    #[test]
    fn extra_cubes_and_observers_weigh_one_each() {
        let mut single = sample();
        single.sim.devices.truncate(1);
        single.sim.topology = LinkTopology::HostOnly;
        let mut mesh = single.clone();
        mesh.sim.devices = vec![DeviceConfig::gen2_4link_4gb(); 4];
        mesh.sim.topology = LinkTopology::Mesh { cols: 2 };
        assert_eq!(mesh.weight() - single.weight(), 3, "three extra cubes");
        let bare = Scenario { sim: single.reference(), trace: false, ..single.clone() };
        assert_eq!(single.weight() - bare.weight(), 2, "sanitizer and recorder");
    }

    #[test]
    fn the_reference_keeps_the_machine_and_drops_the_engine_axes() {
        let mut s = sample();
        s.sim.telemetry = TelemetryConfig::full();
        let reference = s.reference();
        assert_eq!(reference.skip_mode, SkipMode::Off);
        assert!(!reference.sanitizer.enabled && !reference.telemetry.enabled);
        assert_eq!(reference.devices, s.sim.devices);
        assert_eq!((reference.topology, reference.timing), (s.sim.topology, s.sim.timing));
    }
}
