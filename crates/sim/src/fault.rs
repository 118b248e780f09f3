//! Seeded fault-injection plans (paper §IV-B: "the simulator provides
//! mechanisms to inject transient link errors and observe the retry
//! behaviour of the device").
//!
//! A [`FaultPlan`] is pure configuration data — `Clone + Eq`, embedded
//! in [`DeviceConfig`](crate::config::DeviceConfig) — that drives four
//! independent fault classes:
//!
//! * **link transmission errors** ([`LinkErrorMode`]): a packet is
//!   corrupted in flight, caught by the receive-path CRC-32K check and
//!   replayed from the transmitter's retry buffer after
//!   `retry_latency` cycles;
//! * **packet poisoning**: a read response is delivered with the
//!   data-invalid (`DINV`) bit set, signalling the host that the
//!   payload cannot be trusted;
//! * **vault internal errors**: a request is answered with an ERROR
//!   response carrying a nonzero `ERRSTAT` *instead of* being
//!   executed (so a host-side retry is always safe);
//! * **scheduled link-down / link-up events** ([`LinkEvent`]): a link
//!   goes dark for a window of cycles and the crossbar re-routes its
//!   response traffic through the surviving links.
//!
//! All randomness comes from a dependency-free xorshift64\* PRNG
//! ([`FaultRng`]) seeded from the plan, so every run is exactly
//! reproducible per seed. Probabilities are integer
//! parts-per-million, which keeps the plan `Eq` (no floats) and makes
//! "disabled" (`0`) draw **nothing** from the PRNG — a device with
//! `FaultPlan::none()` is cycle-for-cycle identical to one built
//! before this module existed.

use hmc_types::HmcError;

/// Deterministic xorshift64\* PRNG for fault draws.
///
/// The raw seed is scrambled through SplitMix64 so that small,
/// human-friendly seeds (0, 1, 2, ...) still produce well-mixed
/// streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        FaultRng { state: (z ^ (z >> 31)) | 1 }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `0..n` (`n` must be nonzero).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// The raw internal PRNG state (checkpoint serialization). The
    /// value is the post-scramble xorshift state, not the user seed —
    /// restore it with [`FaultRng::from_raw_state`], never
    /// [`FaultRng::new`].
    pub(crate) fn raw_state(&self) -> u64 {
        self.state
    }

    /// Rebuilds a generator from [`FaultRng::raw_state`] output,
    /// resuming the stream exactly where the snapshot left it. A zero
    /// state (impossible from `new`, possible from a corrupt
    /// checkpoint) is forced odd to keep xorshift out of its fixed
    /// point.
    pub(crate) fn from_raw_state(state: u64) -> Self {
        FaultRng { state: state | ((state == 0) as u64) }
    }

    /// Bernoulli draw with probability `per_million / 1_000_000`.
    ///
    /// A zero probability returns `false` **without consuming PRNG
    /// state**, so disabled fault classes leave the stream untouched
    /// and enabling one class never perturbs the draws of another
    /// run configuration with that class off.
    pub fn chance(&mut self, per_million: u32) -> bool {
        if per_million == 0 {
            return false;
        }
        self.below(1_000_000) < per_million as u64
    }
}

/// How link transmission errors are injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkErrorMode {
    /// No transmission errors.
    #[default]
    None,
    /// Deterministic: every Nth packet on each link errors. This is
    /// the only way to set a link error period: each link takes `N`
    /// when it is built.
    EveryNth(u64),
    /// Random: each packet errors with probability
    /// `per_million / 1_000_000`, drawn from the plan's seeded PRNG.
    Random {
        /// Per-packet error probability in parts per million.
        per_million: u32,
    },
}

/// One scheduled link state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEvent {
    /// Cycle at which the event takes effect.
    pub cycle: u64,
    /// The affected link.
    pub link: usize,
    /// `true` brings the link up, `false` takes it down.
    pub up: bool,
}

/// A complete, reproducible fault schedule for one device.
///
/// The default plan ([`FaultPlan::none`]) injects nothing and is
/// guaranteed not to perturb simulation behaviour in any way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// PRNG seed; runs with equal plans are bit-identical.
    pub seed: u64,
    /// Link transmission-error injection mode.
    pub link_error: LinkErrorMode,
    /// Probability (ppm) that a read response is poisoned (delivered
    /// with the `DINV` bit set).
    pub poison_per_million: u32,
    /// Probability (ppm) that a vault answers a request with an ERROR
    /// response (`ERRSTAT` = [`ERRSTAT_VAULT_FAULT`]) instead of
    /// executing it.
    pub vault_error_per_million: u32,
    /// Scheduled link-down/link-up events, sorted by cycle.
    pub link_schedule: Vec<LinkEvent>,
}

/// `ERRSTAT` value carried by injected vault internal errors.
pub const ERRSTAT_VAULT_FAULT: u8 = 0x30;

/// `ERRSTAT` value synthesized by the host driver when it gives up on
/// a request after exhausting its retry budget (never produced by the
/// device itself).
pub const ERRSTAT_HOST_GIVEUP: u8 = 0x7F;

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults, zero perturbation.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            link_error: LinkErrorMode::None,
            poison_per_million: 0,
            vault_error_per_million: 0,
            link_schedule: Vec::new(),
        }
    }

    /// True when the plan injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.link_error == LinkErrorMode::None
            && self.poison_per_million == 0
            && self.vault_error_per_million == 0
            && self.link_schedule.is_empty()
    }

    /// An empty plan carrying a seed, ready for builder calls.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::none() }
    }

    /// Sets the link transmission-error mode.
    pub fn with_link_errors(mut self, mode: LinkErrorMode) -> Self {
        self.link_error = mode;
        self
    }

    /// Sets the read-response poison probability (ppm).
    pub fn with_poison(mut self, per_million: u32) -> Self {
        self.poison_per_million = per_million;
        self
    }

    /// Sets the vault internal-error probability (ppm).
    pub fn with_vault_errors(mut self, per_million: u32) -> Self {
        self.vault_error_per_million = per_million;
        self
    }

    /// Appends a scheduled link state change.
    pub fn with_link_event(mut self, cycle: u64, link: usize, up: bool) -> Self {
        self.link_schedule.push(LinkEvent { cycle, link, up });
        self
    }

    /// Validates the plan against a device's link count.
    pub fn validate(&self, links: usize) -> Result<(), HmcError> {
        let bad = |why: String| Err(HmcError::MalformedPacket(why));
        if self.poison_per_million > 1_000_000 {
            return bad(format!(
                "poison probability {} ppm exceeds 1_000_000",
                self.poison_per_million
            ));
        }
        if self.vault_error_per_million > 1_000_000 {
            return bad(format!(
                "vault error probability {} ppm exceeds 1_000_000",
                self.vault_error_per_million
            ));
        }
        match self.link_error {
            LinkErrorMode::EveryNth(0) => {
                return bad("link error period 0 (EveryNth requires N >= 1)".into());
            }
            LinkErrorMode::Random { per_million } if per_million > 1_000_000 => {
                return bad(format!(
                    "link error probability {per_million} ppm exceeds 1_000_000"
                ));
            }
            _ => {}
        }
        let mut last_cycle = 0;
        for (i, ev) in self.link_schedule.iter().enumerate() {
            if ev.link >= links {
                return bad(format!(
                    "link schedule event {i} targets link {} of a {links}-link device",
                    ev.link
                ));
            }
            if ev.cycle < last_cycle {
                return bad(format!(
                    "link schedule not sorted: event {i} at cycle {} after cycle {last_cycle}",
                    ev.cycle
                ));
            }
            last_cycle = ev.cycle;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_none_and_valid() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        assert_eq!(plan, FaultPlan::default());
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::seeded(42)
            .with_link_errors(LinkErrorMode::Random { per_million: 1000 })
            .with_poison(500)
            .with_vault_errors(2000)
            .with_link_event(100, 1, false)
            .with_link_event(200, 1, true);
        assert!(!plan.is_none());
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.link_schedule.len(), 2);
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(FaultPlan::seeded(1).with_poison(2_000_000).validate(4).is_err());
        assert!(FaultPlan::seeded(1).with_vault_errors(2_000_000).validate(4).is_err());
        assert!(FaultPlan::seeded(1)
            .with_link_errors(LinkErrorMode::EveryNth(0))
            .validate(4)
            .is_err());
        assert!(FaultPlan::seeded(1)
            .with_link_errors(LinkErrorMode::Random { per_million: 2_000_000 })
            .validate(4)
            .is_err());
        assert!(
            FaultPlan::seeded(1).with_link_event(0, 9, false).validate(4).is_err(),
            "link out of range"
        );
        assert!(
            FaultPlan::seeded(1)
                .with_link_event(200, 0, false)
                .with_link_event(100, 0, true)
                .validate(4)
                .is_err(),
            "unsorted schedule"
        );
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = FaultRng::new(7);
        let mut b = FaultRng::new(7);
        let mut c = FaultRng::new(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn chance_zero_never_draws() {
        let mut rng = FaultRng::new(3);
        let before = rng.clone();
        for _ in 0..100 {
            assert!(!rng.chance(0));
        }
        assert_eq!(rng, before, "chance(0) must not consume PRNG state");
        assert!(rng.chance(1_000_000), "certainty fires");
    }

    #[test]
    fn chance_rate_roughly_matches() {
        let mut rng = FaultRng::new(99);
        let hits = (0..100_000).filter(|_| rng.chance(10_000)).count(); // 1%
        assert!((500..2_000).contains(&hits), "~1% of 100k, got {hits}");
    }
}
