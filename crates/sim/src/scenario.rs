//! The configuration codec: [`SimConfig::to_json`] and
//! [`SimConfig::from_json`] are the only way a configuration becomes
//! JSON. A snapshot (schema 3 and later), a fuzz scenario (schema 3 and
//! later) and the `replay` run manifest all embed this one form.
//! Decoding is strict: unknown fields are rejected and the result must pass
//! [`SimConfig::validate`], so a file can never be silently misread.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::config::{
    Arbitration, DeviceConfig, ExecMode, LinkTopology, SimConfig, SkipMode, SpecRevision,
};
use crate::dram::{BankTiming, RefreshConfig, RowPolicy};
use crate::fault::{FaultPlan, LinkErrorMode, LinkEvent};
use crate::jsonv::{name_of, obj, Json, JsonError, ObjReader};
use crate::link::LinkConfig;
use crate::sanitizer::{SanitizerConfig, SanitizerPolicy, MAX_VIOLATIONS};
use crate::telemetry::{TelemetryConfig, MAX_WINDOWS};
use crate::timing::TimingSelect;
use crate::trace::TRACE_RING;

impl SimConfig {
    /// The configuration as JSON: the devices (fault plans included),
    /// the topology, the skip mode, the timing backend and the
    /// sanitizer and telemetry configurations.
    ///
    /// Two fields are left out and decode as their defaults:
    /// [`SimConfig::exec_mode`], which the engine never reads, and
    /// [`SanitizerConfig::dump_dir`], which names where this process
    /// writes, not a part of the machine. So
    /// `from_json(&c.to_json()) == c` for every valid `c` that holds
    /// the defaults there.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("devices", Json::list(&self.devices, device_json)),
            ("topology", topology_json(self.topology)),
            ("skip_mode", self.skip_mode.is_on().into()),
            ("timing", self.timing.name().into()),
            ("sanitizer", sanitizer_json(&self.sanitizer)),
            ("telemetry", telemetry_json(&self.telemetry)),
        ])
    }

    /// Parses the [`SimConfig::to_json`] form. Strict: unknown or
    /// missing fields are errors, and so is a configuration
    /// [`SimConfig::validate`] refuses.
    pub fn from_json(v: &Json) -> Result<SimConfig, JsonError> {
        let mut r = ObjReader::new("sim_config", v)?;
        let config = SimConfig {
            devices: r.vec("devices", device_from_json)?,
            topology: topology_from_json(r.required("topology")?)?,
            skip_mode: if r.bool("skip_mode")? { SkipMode::On } else { SkipMode::Off },
            timing: r.named("timing", &TimingSelect::READ_NAMES)?,
            sanitizer: sanitizer_from_json(r.required("sanitizer")?)?,
            telemetry: telemetry_from_json(r.required("telemetry")?)?,
            exec_mode: ExecMode::default(),
        };
        r.finish()?;
        config
            .validate()
            .map_err(|e| JsonError::new(format!("sim_config: invalid configuration: {e}")))?;
        Ok(config)
    }

    /// The one upgrade step of this form, for documents written while a
    /// device could set `link_error_period` (snapshot schema 5, scenario
    /// schema 3): each device's `link_error_period` goes — `null` as it
    /// is, `n >= 1` beside a `link_error` of mode `none` as that plan's
    /// `every_nth` mode, the machine it ran. Any other period (`0`, or a
    /// second setting beside another mode) is an error naming the field.
    pub fn fold_link_error_period(v: &mut Json) -> Result<(), JsonError> {
        let Some(Json::Arr(devices)) = v.get_mut("devices") else { return Ok(()) };
        for device in devices {
            let period = ObjReader::new("device_config", device)?.opt_u64("link_error_period")?;
            match (period, device.get_mut("fault").and_then(|f| f.get_mut("link_error"))) {
                (None, _) => {}
                (Some(n @ 1..), Some(plan)) if *plan == link_error_to_json(LinkErrorMode::None) => {
                    *plan = link_error_to_json(LinkErrorMode::EveryNth(n));
                }
                (Some(n), _) => {
                    return Err(JsonError::new(format!(
                        "device_config: `link_error_period` {n} is not a period of 1 or more \
                         beside a `link_error` of mode `none`, the only one its fault plan holds"
                    )))
                }
            }
            if let Json::Obj(fields) = device {
                fields.retain(|(k, _)| k != "link_error_period");
            }
        }
        Ok(())
    }

    /// The upgrade step for documents that wrote the five settings now
    /// constants (snapshot schema 7, scenario schema 4): each device's
    /// `quads`, the sanitizer's `trace_ring` and `max_violations`, the
    /// telemetry's `spans` and `max_windows`. A leaf holding its constant
    /// goes, an absent one is accepted, any other value is an error
    /// naming the leaf.
    pub fn drop_constant_settings(v: &mut Json) -> Result<(), JsonError> {
        if let Some(Json::Arr(devices)) = v.get_mut("devices") {
            for (d, device) in devices.iter_mut().enumerate() {
                let quads = DeviceConfig::QUADS.into();
                drop_constant(Some(device), &format!("devices/{d}"), "quads", quads)?;
            }
        }
        for (section, key, constant) in [
            ("sanitizer", "trace_ring", Json::from(TRACE_RING)),
            ("sanitizer", "max_violations", MAX_VIOLATIONS.into()),
            ("telemetry", "spans", true.into()),
            ("telemetry", "max_windows", MAX_WINDOWS.into()),
        ] {
            drop_constant(v.get_mut(section), section, key, constant)?;
        }
        Ok(())
    }
}

/// Drops `key` from the object `v` at path `at` (anything else is left
/// to the walk), refusing a value other than `fixed`.
fn drop_constant(v: Option<&mut Json>, at: &str, key: &str, fixed: Json) -> Result<(), JsonError> {
    let Some(Json::Obj(fields)) = v else { return Ok(()) };
    match fields.iter().position(|(k, _)| k == key).map(|i| fields.remove(i).1) {
        Some(value) if value != fixed => Err(JsonError::new(format!(
            "sim_config `{at}/{key}` is {}; the simulator fixes it at {}",
            value.render(),
            fixed.render()
        ))),
        _ => Ok(()),
    }
}

/// The wiring's `kind`, plus `cols` for a mesh (written out by hand,
/// like the fault plan's `link_error`, because `Mesh` carries data).
fn topology_json(topology: LinkTopology) -> Json {
    let kind = |name: &str| ("kind", Json::from(name));
    match topology {
        LinkTopology::HostOnly => obj(vec![kind("host_only")]),
        LinkTopology::Chain => obj(vec![kind("chain")]),
        LinkTopology::Ring => obj(vec![kind("ring")]),
        LinkTopology::Mesh { cols } => obj(vec![kind("mesh"), ("cols", cols.into())]),
    }
}

fn topology_from_json(v: &Json) -> Result<LinkTopology, JsonError> {
    let mut r = ObjReader::new("topology", v)?;
    let topology = match r.str("kind")? {
        "host_only" => LinkTopology::HostOnly,
        "chain" => LinkTopology::Chain,
        "ring" => LinkTopology::Ring,
        "mesh" => LinkTopology::Mesh { cols: r.usize("cols")? },
        other => return Err(JsonError::new(format!("topology: unknown kind `{other}`"))),
    };
    r.finish()?;
    Ok(topology)
}

fn sanitizer_json(s: &SanitizerConfig) -> Json {
    obj(vec![
        ("enabled", s.enabled.into()),
        ("policy", name_of(&SanitizerPolicy::NAMES, s.policy).into()),
        ("watchdog_cycles", s.watchdog_cycles.into()),
        ("checkpoint_every", s.checkpoint_every.into()),
    ])
}

fn sanitizer_from_json(v: &Json) -> Result<SanitizerConfig, JsonError> {
    let mut r = ObjReader::new("sanitizer", v)?;
    let config = SanitizerConfig {
        enabled: r.bool("enabled")?,
        policy: r.named("policy", &SanitizerPolicy::NAMES)?,
        watchdog_cycles: r.u64("watchdog_cycles")?,
        checkpoint_every: r.u64("checkpoint_every")?,
        dump_dir: None,
    };
    r.finish()?;
    Ok(config)
}

fn telemetry_json(t: &TelemetryConfig) -> Json {
    obj(vec![("enabled", t.enabled.into()), ("window", t.window.into())])
}

fn telemetry_from_json(v: &Json) -> Result<TelemetryConfig, JsonError> {
    let mut r = ObjReader::new("telemetry", v)?;
    let config = TelemetryConfig { enabled: r.bool("enabled")?, window: r.u64("window")? };
    r.finish()?;
    Ok(config)
}

fn link_error_to_json(mode: LinkErrorMode) -> Json {
    match mode {
        LinkErrorMode::None => obj(vec![("mode", "none".into())]),
        LinkErrorMode::EveryNth(n) => obj(vec![("mode", "every_nth".into()), ("n", n.into())]),
        LinkErrorMode::Random { per_million } => {
            obj(vec![("mode", "random".into()), ("per_million", per_million.into())])
        }
    }
}

fn link_error_from_json(v: &Json) -> Result<LinkErrorMode, JsonError> {
    let mut r = ObjReader::new("link_error", v)?;
    let mode = match r.str("mode")? {
        "none" => LinkErrorMode::None,
        "every_nth" => LinkErrorMode::EveryNth(r.u64("n")?),
        "random" => LinkErrorMode::Random { per_million: r.u32("per_million")? },
        other => return Err(JsonError::new(format!("link_error: unknown mode `{other}`"))),
    };
    r.finish()?;
    Ok(mode)
}

fn fault_plan_to_json(plan: &FaultPlan) -> Json {
    obj(vec![
        ("seed", plan.seed.into()),
        ("link_error", link_error_to_json(plan.link_error)),
        ("poison_per_million", plan.poison_per_million.into()),
        ("vault_error_per_million", plan.vault_error_per_million.into()),
        (
            "link_schedule",
            Json::list(&plan.link_schedule, |ev| {
                obj(vec![
                    ("cycle", ev.cycle.into()),
                    ("link", ev.link.into()),
                    ("up", ev.up.into()),
                ])
            }),
        ),
    ])
}

fn fault_plan_from_json(v: &Json) -> Result<FaultPlan, JsonError> {
    let mut r = ObjReader::new("fault_plan", v)?;
    let plan = FaultPlan {
        seed: r.u64("seed")?,
        link_error: link_error_from_json(r.required("link_error")?)?,
        poison_per_million: r.u32("poison_per_million")?,
        vault_error_per_million: r.u32("vault_error_per_million")?,
        link_schedule: r.vec("link_schedule", |ev| {
            let mut er = ObjReader::new("fault_plan: link_schedule event", ev)?;
            let event =
                LinkEvent { cycle: er.u64("cycle")?, link: er.usize("link")?, up: er.bool("up")? };
            er.finish()?;
            Ok(event)
        })?,
    };
    r.finish()?;
    Ok(plan)
}

fn device_json(c: &DeviceConfig) -> Json {
    obj(vec![
        ("links", c.links.into()),
        ("capacity", c.capacity.into()),
        ("vaults_per_quad", c.vaults_per_quad.into()),
        ("banks_per_vault", c.banks_per_vault.into()),
        ("block_size", c.block_size.into()),
        ("vault_queue_depth", c.vault_queue_depth.into()),
        ("xbar_queue_depth", c.xbar_queue_depth.into()),
        ("bank_latency", c.bank_latency.into()),
        ("row_hit", c.bank_timing.row_hit.into()),
        ("row_miss", c.bank_timing.row_miss.into()),
        ("row_policy", name_of(&RowPolicy::NAMES, c.bank_timing.policy).into()),
        ("link_bandwidth", c.link_bandwidth.into()),
        ("vault_bandwidth", c.vault_bandwidth.into()),
        ("hop_latency", c.hop_latency.into()),
        ("link_tokens", c.link_config.tokens.into()),
        ("link_retry_latency", c.link_config.retry_latency.into()),
        ("revision", name_of(&SpecRevision::NAMES, c.revision).into()),
        ("arbitration", name_of(&Arbitration::NAMES, c.arbitration).into()),
        ("remote_quad_penalty", c.remote_quad_penalty.into()),
        ("refresh_interval", c.refresh.map(|r| r.interval).into()),
        ("refresh_duration", c.refresh.map(|r| r.duration).into()),
        ("fault", fault_plan_to_json(&c.fault)),
    ])
}

/// One device entry; [`SimConfig::from_json`] validates it with the
/// rest of the configuration.
fn device_from_json(v: &Json) -> Result<DeviceConfig, JsonError> {
    let mut r = ObjReader::new("device_config", v)?;
    let refresh = match (r.opt_u64("refresh_interval")?, r.opt_u64("refresh_duration")?) {
        (Some(interval), Some(duration)) => Some(RefreshConfig { interval, duration }),
        (None, None) => None,
        _ => {
            return Err(JsonError::new(
                "device_config: refresh_interval and refresh_duration must both be set or \
                 both be null",
            ))
        }
    };
    let config = DeviceConfig {
        links: r.usize("links")?,
        capacity: r.u64("capacity")?,
        vaults_per_quad: r.usize("vaults_per_quad")?,
        banks_per_vault: r.usize("banks_per_vault")?,
        block_size: r.usize("block_size")?,
        vault_queue_depth: r.usize("vault_queue_depth")?,
        xbar_queue_depth: r.usize("xbar_queue_depth")?,
        bank_latency: r.u64("bank_latency")?,
        bank_timing: BankTiming {
            row_hit: r.u64("row_hit")?,
            row_miss: r.u64("row_miss")?,
            policy: r.named("row_policy", &RowPolicy::NAMES)?,
        },
        link_bandwidth: r.usize("link_bandwidth")?,
        vault_bandwidth: r.usize("vault_bandwidth")?,
        hop_latency: r.u64("hop_latency")?,
        link_config: LinkConfig {
            tokens: r.opt_u32("link_tokens")?,
            retry_latency: r.u64("link_retry_latency")?,
        },
        revision: r.named("revision", &SpecRevision::NAMES)?,
        arbitration: r.named("arbitration", &Arbitration::NAMES)?,
        remote_quad_penalty: r.u64("remote_quad_penalty")?,
        refresh,
        fault: fault_plan_from_json(r.required("fault")?)?,
    };
    r.finish()?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exotic_device() -> DeviceConfig {
        let mut c = DeviceConfig::gen2_8link_8gb();
        c.bank_latency = 3;
        c.bank_timing = BankTiming { row_hit: 1, row_miss: 7, policy: RowPolicy::ClosedPage };
        c.link_config = LinkConfig { tokens: Some(64), retry_latency: 12 };
        c.arbitration = Arbitration::RoundRobin;
        c.remote_quad_penalty = 2;
        c.refresh = Some(RefreshConfig { interval: 3900, duration: 26 });
        c.fault = FaultPlan::seeded(99)
            .with_link_errors(LinkErrorMode::Random { per_million: 1_000 })
            .with_poison(500)
            .with_vault_errors(2_000)
            .with_link_event(100, 1, false)
            .with_link_event(200, 1, true);
        c
    }

    /// Every field away from its default, on a 2x2 mesh.
    fn exotic_config() -> SimConfig {
        let mut c = SimConfig::mesh(exotic_device(), 2, 2);
        c.devices[3] = DeviceConfig::gen1_4link_2gb();
        c.skip_mode = SkipMode::On;
        c.timing = TimingSelect::RowBuffer;
        c.sanitizer = SanitizerConfig {
            watchdog_cycles: 7,
            checkpoint_every: 11,
            ..SanitizerConfig::panicking()
        };
        c.telemetry = TelemetryConfig::with_window(5);
        c
    }

    fn with_field(mut json: Json, key: &str, value: Json) -> Json {
        if let Json::Obj(fields) = &mut json {
            match fields.iter_mut().find(|(k, _)| k == key) {
                Some(field) => field.1 = value,
                None => fields.push((key.into(), value)),
            }
        }
        json
    }

    #[test]
    fn configs_round_trip() {
        let mut recovering = SimConfig::ring(exotic_device(), 3);
        recovering.sanitizer = SanitizerConfig::recovering();
        recovering.timing = TimingSelect::RowBuffer;
        for config in [
            SimConfig::single(DeviceConfig::gen2_4link_4gb()),
            SimConfig::single(DeviceConfig::gen2_2link_4gb()),
            SimConfig::chain(DeviceConfig::gen1_4link_2gb(), 3),
            recovering,
            exotic_config(),
        ] {
            let json = config.to_json();
            assert_eq!(SimConfig::from_json(&json).unwrap(), config);
            // And through actual text.
            let reparsed = Json::parse(&json.render()).unwrap();
            assert_eq!(SimConfig::from_json(&reparsed).unwrap(), config);
        }
    }

    #[test]
    fn exec_mode_and_dump_dir_decode_as_their_defaults() {
        let mut config = exotic_config();
        config.exec_mode = ExecMode::Parallel { threads: 2 };
        config.sanitizer.dump_dir = Some("forensics".into());
        let back = SimConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(back.exec_mode, ExecMode::Sequential);
        assert_eq!(back.sanitizer.dump_dir, None);
        config.exec_mode = ExecMode::Sequential;
        config.sanitizer.dump_dir = None;
        assert_eq!(back, config);
    }

    #[test]
    fn unknown_fields_rejected() {
        let json = with_field(exotic_config().to_json(), "mystery_knob", Json::Int(1));
        let e = SimConfig::from_json(&json).unwrap_err();
        assert!(e.message.contains("sim_config: unknown field(s): mystery_knob"), "{}", e.message);
        let device = with_field(device_json(&exotic_device()), "mystery_knob", Json::Int(1));
        let json = with_field(exotic_config().to_json(), "devices", Json::Arr(vec![device]));
        let e = SimConfig::from_json(&json).unwrap_err();
        assert!(e.message.contains("device_config: unknown field(s)"), "{}", e.message);
    }

    #[test]
    fn invalid_parsed_config_rejected() {
        let device = with_field(device_json(&exotic_device()), "links", Json::Int(3));
        let json = with_field(exotic_config().to_json(), "devices", Json::Arr(vec![device]));
        let e = SimConfig::from_json(&json).unwrap_err();
        assert!(e.message.contains("invalid configuration"), "{}", e.message);
        // Four devices do not fill a mesh three wide.
        let topology = obj(vec![("kind", "mesh".into()), ("cols", 3usize.into())]);
        let json = with_field(exotic_config().to_json(), "topology", topology);
        let e = SimConfig::from_json(&json).unwrap_err();
        assert!(e.message.contains("not a full grid"), "{}", e.message);
    }

    #[test]
    fn closed_vocabularies_reject_unknown_names() {
        for (key, value, want) in [
            ("topology", obj(vec![("kind", "torus".into())]), "topology: unknown kind `torus`"),
            ("timing", "warp_drive".into(), "sim_config: unknown timing `warp_drive`"),
        ] {
            let e = SimConfig::from_json(&with_field(exotic_config().to_json(), key, value))
                .unwrap_err();
            assert_eq!(e.message, want);
        }
        let sanitizer = sanitizer_json(&SanitizerConfig::report());
        let sanitizer = with_field(sanitizer, "policy", "ignore".into());
        let json = with_field(exotic_config().to_json(), "sanitizer", sanitizer);
        let e = SimConfig::from_json(&json).unwrap_err();
        assert_eq!(e.message, "sanitizer: unknown policy `ignore`");
    }
}
