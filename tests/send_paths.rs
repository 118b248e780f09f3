//! Differential test of the host send paths. One seeded script of
//! standard, posted, flow, CMC and remote-cube requests — with
//! malformed lengths, out-of-range addresses, unknown CMC codes, full
//! crossbar queues, an exhausted tag pool and a link outage mixed in —
//! is driven through every way a host can hand the simulator a request:
//!
//! * `send_simple` / `send_to_cube` / `send_cmc` with each payload
//!   source they accept (`Vec<u64>`, `&[u64]`, `[u64; N]`,
//!   `PayloadBuf`), which build the packet inside its envelope;
//! * `send(Request::new(..))` and `compat::hmcsim_send`, which hand a
//!   finished packet over, with the test playing the tag pool.
//!
//! Every path must report the same outcome for every send — the same
//! tag or the same error, worded as it always was — deliver the same
//! responses in the same cycles, and end in the same
//! `state_fingerprint`. The pooled paths must also agree on the
//! fingerprint after every step, failures included, and a refused send
//! must leave its tag pool holding what it held. The panicking
//! sanitizer audits every cycle, so an envelope lost or queued by a
//! refused send (packet conservation) would stop the run.

use hmcsim::cmc::ops;
use hmcsim::prelude::*;
use hmcsim::sim::compat::{hmcsim_send, HMC_OK, HMC_STALL};
use hmcsim::sim::{FaultPlan, SimConfig};
use hmcsim::types::packet::MAX_ADDR;
use hmcsim::types::{CmdKind, PayloadBuf, PayloadSource, ReqTail};

/// How a script step reaches the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    /// The pooled calls, payload handed over as this source type.
    Pooled(Source),
    /// `send(Request::new(..))`, the test keeping the tag pool.
    Raw,
    /// The same, through the C-shaped word buffer.
    Compat,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    Vec,
    Slice,
    Array,
    Buf,
}

const PATHS: [Path; 6] = [
    Path::Pooled(Source::Vec),
    Path::Pooled(Source::Slice),
    Path::Pooled(Source::Array),
    Path::Pooled(Source::Buf),
    Path::Raw,
    Path::Compat,
];

/// One request of the script.
#[derive(Debug, Clone)]
struct Step {
    dev: usize,
    link: usize,
    /// Target cube; `None` for the local calls (`send_simple`,
    /// `send_cmc`).
    cub: Option<u8>,
    /// A standard command, or a CMC code.
    op: Result<HmcRqst, u8>,
    addr: u64,
    payload: Vec<u64>,
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// The seeded script: mostly well-formed traffic on both cubes, one
/// step in six broken in a way a send must refuse.
fn script(seed: u64, steps: usize) -> Vec<Step> {
    const STANDARD: [HmcRqst; 16] = [
        HmcRqst::Rd16,
        HmcRqst::Rd64,
        HmcRqst::Rd256,
        HmcRqst::Wr16,
        HmcRqst::Wr128,
        HmcRqst::Wr256,
        HmcRqst::PWr16,
        HmcRqst::PWr256,
        HmcRqst::Xor16,
        HmcRqst::Inc8,
        HmcRqst::PInc8,
        HmcRqst::CasEq8,
        HmcRqst::TwoAddS8R,
        HmcRqst::Eq16,
        HmcRqst::Null,
        HmcRqst::Pret,
    ];
    let mut rng = Rng(seed | 1);
    (0..steps)
        .map(|_| {
            let dev = (rng.below(8) == 0) as usize;
            let link = rng.below(4) as usize;
            let addr = rng.below(1 << 12) * 256 + rng.pick(&[0, 8, 16, 128]);
            let words = |rng: &mut Rng, n: usize| (0..n).map(|_| rng.next()).collect::<Vec<_>>();
            let mut step = if rng.below(5) == 0 {
                // The mutex library's operations: 2-FLIT requests.
                let code = rng.pick(&[125u8, 126, 127]);
                Step { dev, link, cub: None, op: Err(code), addr, payload: words(&mut rng, 2) }
            } else {
                let cmd = rng.pick(&STANDARD);
                let n = 2 * (cmd.fixed_info().unwrap().rqst_flits as usize - 1);
                let cub = match rng.below(3) {
                    0 => None,
                    1 => Some(dev as u8),
                    _ => Some(1 - dev as u8),
                };
                Step { dev, link, cub, op: Ok(cmd), addr, payload: words(&mut rng, n) }
            };
            match rng.below(36) {
                0 => step.payload.push(7),
                1 => step.payload.truncate(step.payload.len().saturating_sub(2)),
                2 => step.addr = MAX_ADDR + 1 + 16 * rng.below(4),
                3 => step.op = Err(90), // no operation loaded there
                4 => step.cub = Some(2),
                5 => step.link = 4,
                _ => {}
            }
            step
        })
        .collect()
}

/// Device 0 link 2 holds three tags; device 0 link 3 is down from
/// cycle 30 to cycle 60; the crossbar queues are four deep.
fn context() -> HmcSim {
    ops::register_builtin_libraries();
    let mut device = DeviceConfig::gen2_4link_4gb();
    device.xbar_queue_depth = 4;
    let mut config = SimConfig::chain(device, 2);
    config.devices[0].fault =
        FaultPlan::seeded(3).with_link_event(30, 3, false).with_link_event(60, 3, true);
    config.sanitizer = SanitizerConfig::panicking();
    let mut sim = HmcSim::with_config(config).unwrap();
    sim.configure_tag_pool(0, 2, 3).unwrap();
    for dev in 0..2 {
        sim.load_cmc_library(dev, ops::MUTEX_LIBRARY).unwrap();
    }
    sim
}

fn array<const N: usize>(words: &[u64]) -> [u64; N] {
    words.try_into().unwrap()
}

/// A pooled send with the payload handed over as `source`. The array
/// source covers the lengths well-formed packets have and falls back
/// to a slice for the broken ones.
fn pooled(sim: &mut HmcSim, source: Source, step: &Step) -> Result<Option<Tag>, HmcError> {
    fn call(sim: &mut HmcSim, step: &Step, payload: impl PayloadSource) -> Result<Option<Tag>, HmcError> {
        let Step { dev, link, addr, .. } = *step;
        match (step.op, step.cub) {
            (Ok(cmd), None) => sim.send_simple(dev, link, cmd, addr, payload),
            (Ok(cmd), Some(cub)) => {
                let cub = Cub::new(cub).unwrap();
                sim.send_to_cube(dev, link, cub, cmd, addr, payload)
            }
            (Err(code), _) => sim.send_cmc(dev, link, code, addr, payload),
        }
    }
    let words = &step.payload[..];
    match source {
        Source::Vec => call(sim, step, words.to_vec()),
        Source::Slice => call(sim, step, words),
        Source::Buf => call(sim, step, PayloadBuf::from_slice(words)),
        Source::Array => match words.len() {
            0 => call(sim, step, array::<0>(words)),
            2 => call(sim, step, array::<2>(words)),
            16 => call(sim, step, array::<16>(words)),
            32 => call(sim, step, array::<32>(words)),
            _ => call(sim, step, words),
        },
    }
}

/// What the pooled calls do around `send`, done by hand: the cube and
/// postedness of the step, a tag from the entry link's pool, the packet
/// by value, the tag back on any refusal. (The registry of tags to
/// release at `recv` is the simulator's own; `Driver::poll` releases
/// these.)
fn by_value(sim: &mut HmcSim, compat: bool, step: &Step) -> Result<Option<Tag>, HmcError> {
    let Step { dev, link, addr, .. } = *step;
    let cmc = match step.op {
        Err(code) => {
            let registered = sim.cmc_registrations(dev)?;
            let reg = registered.iter().find(|r| r.cmd == code).ok_or(HmcError::CmcNotActive(code))?;
            Some((reg.rqst_len, reg.is_posted()))
        }
        Ok(_) => None,
    };
    let (posted, cub) = match (step.op, cmc) {
        (Ok(cmd), _) => (cmd.is_posted() || cmd.kind() == CmdKind::Flow, step.cub.unwrap_or(dev as u8)),
        (Err(_), cmc) => (cmc.unwrap().1, dev as u8),
    };
    let tag = if posted {
        Tag::new(0).unwrap()
    } else if link >= sim.device_config(dev)?.links {
        return Err(HmcError::InvalidLink(link));
    } else {
        sim.debug_tag_pool(dev, link).acquire()?
    };
    let cub = Cub::new(cub).unwrap();
    let built = match step.op {
        Ok(cmd) => Request::new(cmd, tag, addr, cub, &step.payload[..]),
        Err(code) => Request::new_cmc(code, cmc.unwrap().0, tag, addr, cub, &step.payload[..]),
    };
    let sent = built.and_then(|req| {
        if !compat {
            return sim.send(dev, link, req);
        }
        let mut packet = vec![req.head.encode()];
        packet.extend_from_slice(&req.payload);
        packet.push(ReqTail::default().encode());
        match hmcsim_send(sim, dev, link, &packet) {
            HMC_OK => Ok(()),
            HMC_STALL => Err(HmcError::Stall),
            // The C interface reports every other refusal as one code.
            _ => Err(HmcError::MalformedPacket("HMC_ERROR".into())),
        }
    });
    match sent {
        Ok(()) => Ok((!posted).then_some(tag)),
        Err(e) => {
            if !posted {
                sim.debug_tag_pool(dev, link).release(tag).unwrap();
            }
            Err(e)
        }
    }
}

/// What one path made of the script.
#[derive(Debug, Default, PartialEq)]
struct Transcript {
    /// Per step: the tag, or the error's `Debug` text.
    sends: Vec<Result<Option<u16>, String>>,
    /// Every response, in delivery order, with the poll it arrived in.
    responses: Vec<String>,
    /// `state_fingerprint` after every step.
    fingerprints: Vec<u64>,
    /// After the fabric drained and every response was received.
    final_fingerprint: u64,
}

struct Driver {
    sim: HmcSim,
    path: Path,
    out: Transcript,
}

impl Driver {
    /// Receives everything waiting, on every link of both cubes.
    fn poll(&mut self) {
        for dev in 0..2 {
            for link in 0..4 {
                while let Some(rsp) = self.sim.recv(dev, link) {
                    if !matches!(self.path, Path::Pooled(_)) {
                        let tag = rsp.rsp.head.tag;
                        self.sim.debug_tag_pool(dev, rsp.entry_link).release(tag).unwrap();
                    }
                    self.out.responses.push(format!("poll {}: {rsp:?}", self.out.sends.len()));
                }
            }
        }
    }

    fn run(path: Path, steps: &[Step]) -> Transcript {
        let mut d = Driver { sim: context(), path, out: Transcript::default() };
        for (i, step) in steps.iter().enumerate() {
            let pools = |sim: &mut HmcSim| -> Vec<(usize, usize)> {
                (0..8)
                    .map(|p| {
                        let pool = sim.debug_tag_pool(p / 4, p % 4);
                        (pool.in_flight(), pool.available())
                    })
                    .collect()
            };
            let before = pools(&mut d.sim);
            let sent = match path {
                Path::Pooled(source) => pooled(&mut d.sim, source, step),
                Path::Raw => by_value(&mut d.sim, false, step),
                Path::Compat => by_value(&mut d.sim, true, step),
            };
            if sent.is_err() {
                assert_eq!(pools(&mut d.sim), before, "step {i} ({step:?}) was refused: {sent:?}");
            }
            d.out.sends.push(sent.map(|tag| tag.map(|t| t.value())).map_err(|e| format!("{e:?}")));
            d.out.fingerprints.push(d.sim.state_fingerprint());
            // Bursts of sends between clocks fill the crossbar queues.
            if i % 5 == 4 {
                d.sim.clock();
                d.poll();
            }
        }
        for _ in 0..400 {
            d.sim.clock();
            d.poll();
        }
        assert!(d.sim.is_quiescent(), "{path:?} drained");
        assert_eq!(d.sim.sanitizer_report().unwrap().total_violations, 0);
        d.out.final_fingerprint = d.sim.state_fingerprint();
        d.out
    }
}

#[test]
fn every_send_path_ends_in_the_same_state() {
    let steps = script(0x5eed, 1_500);
    let runs: Vec<Transcript> = PATHS.iter().map(|&path| Driver::run(path, &steps)).collect();
    let reference = &runs[0];

    // The script reached everything it is meant to compare.
    let count = |needle: &str| {
        reference.sends.iter().filter(|s| matches!(s, Err(e) if e.contains(needle))).count()
    };
    for refusal in [
        "payload words, got",
        "AddressOutOfRange",
        "CmcNotActive(90)",
        "InvalidCube(2)",
        "InvalidLink(4)",
        "LinkDown(3)",
        "TagsExhausted",
        "Stall",
    ] {
        assert!(count(refusal) > 0, "no send was refused with {refusal}");
    }
    let accepted = reference.sends.iter().filter(|s| s.is_ok()).count();

    let posted = reference.sends.iter().filter(|s| matches!(s, Ok(None))).count();
    assert!(accepted > 700 && posted > 100, "{accepted} sends accepted, {posted} of them posted");
    assert_eq!(reference.responses.len(), accepted - posted, "every tagged request was answered");
    assert!(reference.responses.iter().any(|r| r.contains("cmd: Error")), "an error response");

    // Refusals are worded as they always were.
    let texts: Vec<&str> =
        reference.sends.iter().filter_map(|s| s.as_ref().err().map(String::as_str)).collect();
    for text in [
        "MalformedPacket(\"WR16 expects 2 payload words, got 3\")",
        "MalformedPacket(\"CMC125 with LNG=2 expects 2 payload words, got 3\")",
        "AddressOutOfRange(17179869184)",
        "CmcNotActive(90)",
        "TagsExhausted",
        "Stall",
    ] {
        assert!(texts.contains(&text), "no refusal reads {text}");
    }

    for (path, run) in PATHS.iter().zip(&runs).skip(1) {
        match path {
            Path::Pooled(_) => assert!(run == reference, "{path:?} diverged from {:?}", PATHS[0]),
            Path::Raw | Path::Compat => {
                for (i, (got, want)) in run.sends.iter().zip(&reference.sends).enumerate() {
                    // `hmcsim_send` tells a stall from an error and
                    // nothing more.
                    let stalled = |sent: &Result<Option<u16>, String>| {
                        matches!(sent, Err(e) if e == "Stall")
                    };
                    let same = if *path == Path::Compat && got.is_err() {
                        want.is_err() && stalled(got) == stalled(want)
                    } else {
                        got == want
                    };
                    assert!(same, "{path:?} step {i} ({:?}): {got:?}, pooled {want:?}", steps[i]);
                }
                assert_eq!(run.responses, reference.responses, "{path:?}");
                assert_eq!(run.final_fingerprint, reference.final_fingerprint, "{path:?}");
            }
        }
    }
}
