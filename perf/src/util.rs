//! Small shared pieces: the input generator's RNG, medians, the
//! process's peak resident set, and the simulated-domain counters.

use hmc_sim::HmcSim;

/// xorshift64* — the benchmark's only source of randomness. The seed
/// reaches this generator and nothing else; the simulator receives the
/// generated requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds a stream. `stream` separates independent generators of
    /// one run (arrays, per-cube update streams, ...); the splitmix
    /// step keeps seed 0 and neighbouring seeds well apart.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Rng(if z == 0 { 0x2545_F491_4F6C_DD1D } else { z })
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Median of a sample (mean of the middle pair for even counts).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / median` of a sample, the spread printed beside
/// every median.
pub fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / median(values)
}

/// This process's peak resident set (`VmHWM`) in MiB; 0.0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One timed round: a fixed amount of work whose host wall-clock is
/// one sample of every rate metric.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub reqs: u64,
    pub cycles: u64,
    pub wall_s: f64,
    /// Whether spans were recorded during this round (`--trace 1`
    /// alternates, so one run measures its own tracing overhead).
    pub traced: bool,
}

/// Simulated-domain counters of one fixed unit of work (the first
/// round). A host-time optimisation must leave every one identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimDomain {
    pub sim_cycles: u64,
    pub fingerprint: u64,
    pub rqst_flits: u64,
    pub rsp_flits: u64,
    pub send_stalls: u64,
    pub xbar_stalls: u64,
    pub vault_stalls: u64,
    pub forwarded: u64,
    pub lat_p50_cycles: u64,
    pub lat_p99_cycles: u64,
}

impl SimDomain {
    /// Reads the counters of every device of `sim` (summed; latency
    /// percentiles over the merged histogram). `fingerprint` and
    /// `sim_cycles` are the caller's to fill.
    pub fn read_stats(sim: &HmcSim) -> SimDomain {
        let mut out = SimDomain::default();
        let mut lat = hmc_sim::Hist::new();
        for dev in 0..sim.device_count() {
            let s = sim.stats(dev).expect("device index in range");
            out.rqst_flits += s.rqst_flits;
            out.rsp_flits += s.rsp_flits;
            out.send_stalls += s.send_stalls;
            out.xbar_stalls += s.xbar_stalls;
            out.vault_stalls += s.vault_stalls;
            out.forwarded += s.forwarded;
            lat.merge(&s.latency);
        }
        out.lat_p50_cycles = lat.p50();
        out.lat_p99_cycles = lat.p99();
        out
    }

    /// Adds another unit's counters (mutex sweep: one per point).
    /// Fingerprints fold order-dependently; percentiles keep the max.
    pub fn absorb(&mut self, other: &SimDomain) {
        self.sim_cycles += other.sim_cycles;
        self.fingerprint =
            (self.fingerprint ^ other.fingerprint).wrapping_mul(0x0000_0100_0000_01B3);
        self.rqst_flits += other.rqst_flits;
        self.rsp_flits += other.rsp_flits;
        self.send_stalls += other.send_stalls;
        self.xbar_stalls += other.xbar_stalls;
        self.vault_stalls += other.vault_stalls;
        self.forwarded += other.forwarded;
        self.lat_p50_cycles = self.lat_p50_cycles.max(other.lat_p50_cycles);
        self.lat_p99_cycles = self.lat_p99_cycles.max(other.lat_p99_cycles);
    }
}

/// True when a response reports that its request did not execute
/// cleanly: an ERROR packet, a nonzero `ERRSTAT`, or a poisoned read.
pub fn response_failed(rsp: &hmc_sim::TrackedResponse) -> bool {
    matches!(rsp.rsp.head.cmd, hmc_types::HmcResponse::Error)
        || rsp.rsp.tail.errstat != 0
        || rsp.rsp.tail.dinv
}
