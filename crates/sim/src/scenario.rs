//! Scenario-facing serialization and oracle accessors.
//!
//! The scenario fuzz farm (`hmc-fuzz`) persists failing scenarios as
//! self-contained JSON reproducers. This module owns the two pieces
//! that belong to the device model:
//!
//! * **serialization** — [`DeviceConfig`] and [`FaultPlan`] (plus the
//!   engine-mode enums) convert to and from the strict [`Json`] value
//!   type, rejecting unknown fields so a corpus file can never be
//!   silently misread;
//! * **the oracle digest** — [`HmcSim::oracle_digest`] condenses the
//!   observable end-of-run state (cycle, deep state fingerprint,
//!   stats counters, latency histogram) into a compact comparable
//!   value. Two runs of the same scenario under different engine
//!   configurations must produce equal digests; each digest field is
//!   hashed separately so a mismatch names the axis that diverged.

use crate::config::{Arbitration, DeviceConfig, SkipMode, SpecRevision};
use crate::dram::{BankTiming, RefreshConfig, RowPolicy};
use crate::fault::{FaultPlan, LinkErrorMode, LinkEvent};
use crate::jsonv::{name_of, obj, Json, JsonError, ObjReader};
use crate::link::LinkConfig;
use crate::sim::HmcSim;
use crate::snapshot::hash_hist;
use hmc_types::Fnv;

// ---------------------------------------------------------------------------
// Oracle digest
// ---------------------------------------------------------------------------

/// Compact end-of-run digest used as the differential-fuzzing oracle.
///
/// Fields are kept separate (rather than folded into one hash) so the
/// fuzzer can classify *which* observable diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleDigest {
    /// Simulation cycle at digest time.
    pub cycle: u64,
    /// Deep state fingerprint ([`HmcSim::state_fingerprint`]): queues,
    /// banks, memory digest, RNG state, registers.
    pub fingerprint: u64,
    /// FNV-1a hash over every [`crate::DeviceStats`] counter of every device,
    /// in device order.
    pub stats: u64,
    /// Hash over the overall and per-class latency histograms of every
    /// device.
    pub latency: u64,
}

impl HmcSim {
    /// Computes the differential-fuzzing oracle digest of the current
    /// state. See [`OracleDigest`].
    pub fn oracle_digest(&self) -> OracleDigest {
        let mut stats = Fnv::new();
        let mut latency = Fnv::new();
        for dev in 0..self.device_count() {
            let s = self.stats(dev).expect("device index in range");
            for (_, counter) in s.counters() {
                stats.u64(counter);
            }
            hash_hist(&mut latency, &s.latency);
            for (_, hist) in s.class_latency.iter() {
                hash_hist(&mut latency, hist);
            }
        }
        OracleDigest {
            cycle: self.cycle(),
            fingerprint: self.state_fingerprint(),
            stats: stats.finish(),
            latency: latency.finish(),
        }
    }
}

// ---------------------------------------------------------------------------
// Engine-mode serialization
// ---------------------------------------------------------------------------

/// Renders a [`SkipMode`] as a bool.
pub fn skip_mode_to_json(mode: SkipMode) -> Json {
    mode.is_on().into()
}

/// Parses a [`SkipMode`] from a bool.
pub fn skip_mode_from_json(v: &Json) -> Result<SkipMode, JsonError> {
    match v.as_bool() {
        Some(true) => Ok(SkipMode::On),
        Some(false) => Ok(SkipMode::Off),
        None => Err(JsonError::new("skip_mode: expected a bool")),
    }
}

// ---------------------------------------------------------------------------
// FaultPlan serialization
// ---------------------------------------------------------------------------

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

/// Renders a [`FaultPlan`] as a JSON object.
pub fn fault_plan_to_json(plan: &FaultPlan) -> Json {
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

/// Parses a [`FaultPlan`] from its JSON form (strict: unknown fields
/// are rejected).
pub fn fault_plan_from_json(v: &Json) -> Result<FaultPlan, JsonError> {
    let mut r = ObjReader::new("fault_plan", v)?;
    let seed = r.u64("seed")?;
    let link_error = link_error_from_json(r.required("link_error")?)?;
    let poison_per_million = r.u32("poison_per_million")?;
    let vault_error_per_million = r.u32("vault_error_per_million")?;
    let link_schedule = r.vec("link_schedule", |ev| {
        let mut er = ObjReader::new("fault_plan: link_schedule event", ev)?;
        let event =
            LinkEvent { cycle: er.u64("cycle")?, link: er.usize("link")?, up: er.bool("up")? };
        er.finish()?;
        Ok(event)
    })?;
    r.finish()?;
    Ok(FaultPlan {
        seed,
        link_error,
        poison_per_million,
        vault_error_per_million,
        link_schedule,
    })
}

// ---------------------------------------------------------------------------
// DeviceConfig serialization
// ---------------------------------------------------------------------------

/// Renders a [`DeviceConfig`] (including its fault plan) as JSON.
pub fn device_config_to_json(c: &DeviceConfig) -> Json {
    obj(vec![
        ("links", c.links.into()),
        ("capacity", c.capacity.into()),
        ("quads", c.quads.into()),
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
        ("link_error_period", c.link_config.error_period.into()),
        ("link_retry_latency", c.link_config.retry_latency.into()),
        ("revision", name_of(&SpecRevision::NAMES, c.revision).into()),
        ("arbitration", name_of(&Arbitration::NAMES, c.arbitration).into()),
        ("remote_quad_penalty", c.remote_quad_penalty.into()),
        ("refresh_interval", c.refresh.map(|r| r.interval).into()),
        ("refresh_duration", c.refresh.map(|r| r.duration).into()),
        ("fault", fault_plan_to_json(&c.fault)),
    ])
}

/// Parses a [`DeviceConfig`] from its JSON form (strict: unknown
/// fields are rejected; the result is additionally `validate()`d).
pub fn device_config_from_json(v: &Json) -> Result<DeviceConfig, JsonError> {
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
        quads: r.usize("quads")?,
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
            error_period: r.opt_u64("link_error_period")?,
            retry_latency: r.u64("link_retry_latency")?,
        },
        revision: r.named("revision", &SpecRevision::NAMES)?,
        arbitration: r.named("arbitration", &Arbitration::NAMES)?,
        remote_quad_penalty: r.u64("remote_quad_penalty")?,
        refresh,
        fault: fault_plan_from_json(r.required("fault")?)?,
    };
    r.finish()?;
    config
        .validate()
        .map_err(|e| JsonError::new(format!("device_config: parsed config is invalid: {e}")))?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exotic_config() -> DeviceConfig {
        let mut c = DeviceConfig::gen2_8link_8gb();
        c.bank_latency = 3;
        c.bank_timing = BankTiming { row_hit: 1, row_miss: 7, policy: RowPolicy::ClosedPage };
        c.link_config = LinkConfig { tokens: Some(64), error_period: None, retry_latency: 12 };
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

    #[test]
    fn device_config_round_trips() {
        for config in [
            DeviceConfig::gen2_4link_4gb(),
            DeviceConfig::gen2_2link_4gb(),
            DeviceConfig::gen1_4link_2gb(),
            exotic_config(),
        ] {
            let json = device_config_to_json(&config);
            let back = device_config_from_json(&json).unwrap();
            assert_eq!(config, back);
            // And through actual text.
            let reparsed = Json::parse(&json.render()).unwrap();
            assert_eq!(device_config_from_json(&reparsed).unwrap(), config);
        }
    }

    #[test]
    fn fault_plan_round_trips() {
        let plan = exotic_config().fault;
        let back = fault_plan_from_json(&fault_plan_to_json(&plan)).unwrap();
        assert_eq!(plan, back);
        assert_eq!(
            fault_plan_from_json(&fault_plan_to_json(&FaultPlan::none())).unwrap(),
            FaultPlan::none()
        );
    }

    #[test]
    fn unknown_fields_rejected() {
        let mut json = device_config_to_json(&DeviceConfig::gen2_4link_4gb());
        if let Json::Obj(fields) = &mut json {
            fields.push(("mystery_knob".into(), Json::Int(1)));
        }
        let e = device_config_from_json(&json).unwrap_err();
        assert!(e.message.contains("mystery_knob"), "{}", e.message);
    }

    #[test]
    fn invalid_parsed_config_rejected() {
        let mut json = device_config_to_json(&DeviceConfig::gen2_4link_4gb());
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "links" {
                    *v = Json::Int(3);
                }
            }
        }
        let e = device_config_from_json(&json).unwrap_err();
        assert!(e.message.contains("invalid"), "{}", e.message);
    }

    #[test]
    fn skip_modes_round_trip() {
        for mode in [SkipMode::Off, SkipMode::On] {
            assert_eq!(skip_mode_from_json(&skip_mode_to_json(mode)).unwrap(), mode);
        }
    }

    #[test]
    fn oracle_digest_distinguishes_axes() {
        let mut a = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        let mut b = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        assert_eq!(a.oracle_digest(), b.oracle_digest());
        // Advance only `a`: cycle and fingerprint move, stats do not.
        a.clock();
        let da = a.oracle_digest();
        let db = b.oracle_digest();
        assert_ne!(da.cycle, db.cycle);
        assert_eq!(da.stats, db.stats, "idle cycle leaves counters untouched");
        // Traffic moves stats and latency.
        let tag = a
            .send_simple(0, 0, hmc_types::HmcRqst::Rd16, 0x100, vec![])
            .unwrap()
            .unwrap();
        let _ = a.run_until_response(0, 0, tag, 100).unwrap();
        b.clock_n(a.cycle() - b.cycle());
        let da = a.oracle_digest();
        let db = b.oracle_digest();
        assert_eq!(da.cycle, db.cycle);
        assert_ne!(da.stats, db.stats);
        assert_ne!(da.latency, db.latency);
        assert_ne!(da.fingerprint, db.fingerprint);
    }
}
