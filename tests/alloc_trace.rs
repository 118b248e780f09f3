//! Proof that tracing costs nothing when nobody is listening: a
//! counting global allocator wraps the system allocator, and the
//! structured emission path must not allocate at all with tracing off
//! — no deferred `String`s, no format machinery.
//!
//! The same counter pins the sequential cycle itself: once a closed
//! send → clock → recv loop has warmed up (queue storage, envelope free
//! lists and per-cycle scratch buffers at their working size), it runs
//! without a single heap allocation.
//!
//! The pin holds with the observers attached as well: an attached
//! sanitizer audits every cycle with word-parallel checks and keeps its
//! forensic ring as raw records, so a clean audited cycle allocates
//! nothing either — alone, or beside the flight recorder and full
//! telemetry.
//!
//! And the thread driver on top of it books requests in flat tables:
//! what a mutex-kernel run allocates does not depend on how many
//! requests it retires.
//!
//! So does the trace replayer: its in-flight set is a bit map per link
//! and its payloads are built in place, so a warm replay allocates the
//! same handful of times however many operations it carries. The
//! parser in front of it sizes its op vector once from the text's line
//! count, so parsing 8,000 lines allocates as often as parsing 1,000.
//!
//! A checkpoint carries the flight recorder the same way: a packed lane
//! is one base64 string, so encoding and decoding a snapshot allocates as
//! often at 4,096 records per lane as at 64.
//!
//! A fresh context allocates what it is made of, not what it holds: one
//! bank array per cube, tag pools that count their unused tags and a
//! memory whose page table is empty until the first write, so building
//! one costs the same number of blocks however many vaults the cube
//! has.
//!
//! The same allocator counts the bytes live and their high-water mark,
//! which pins what a checkpoint round trip holds at once: decoding a
//! snapshot never holds the parse tree's page text beside the decoded
//! pages, a checkpointed replay never holds two checkpoints, and a
//! snapshot shares the store's pages rather than copying them.
//!
//! Past the inline payload capacity the pin is exact rather than zero:
//! a window of RD256 / RD256 / WR256 triples allocates one block per
//! read — the response payload the host receives and owns — and nothing
//! per write, whose vector the request envelope adopts.
//!
//! Everything runs inside one `#[test]` so no concurrently-running
//! test can perturb the global counter.

use hmcsim::cmc::ops;
use hmcsim::mem::store::PAGE_BYTES;
use hmcsim::prelude::*;
use hmcsim::sim::{
    FlightRecorder, Json, SanitizerConfig, SimConfig, SimSnapshot, TelemetryConfig, TraceKind,
    TraceRecord, Tracer,
};
use hmcsim::workloads::tracefile::{
    parse_trace, render_trace, replay, replay_with_sink, ReplayConfig, TraceOp,
};
use hmcsim::workloads::{MutexKernel, MutexKernelConfig, SpinPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The most bytes live at once since [`peak_live_bytes_in`] last reset it.
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Counts `bytes` more live (negative: fewer).
fn live(bytes: i64) {
    let now = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            live(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
        live(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            live(new_size as i64 - layout.size() as i64);
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// Runs `f` and returns its value and the most bytes live at once
/// during it beyond those live when it started.
fn peak_live_bytes_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let out = f();
    (out, (PEAK.load(Ordering::SeqCst) - before).max(0) as u64)
}

/// A cube whose first `pages` memory pages hold a nonzero byte in every
/// line, as a long run's working set does.
fn dense_cube(pages: u64) -> HmcSim {
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    let fill: Vec<u8> = (0..PAGE_BYTES).map(|i| (i % 251) as u8 + 1).collect();
    for page in 0..pages {
        sim.mem_write(0, page * PAGE_BYTES as u64, &fill).unwrap();
    }
    sim
}

/// Least allocation count over `n` runs of `f`. The counter is global,
/// so harness threads add occasional noise on top of the code under
/// test; the minimum is the reproducible floor.
fn min_allocations(n: usize, mut f: impl FnMut()) -> u64 {
    (0..n).map(|_| allocations_in(&mut f)).min().expect("n > 0")
}

/// Least allocation count of `HmcSim::with_config(config)` over three
/// builds (the configuration is cloned outside the count).
fn construction_allocations(config: &SimConfig) -> u64 {
    (0..3)
        .map(|_| {
            let config = config.clone();
            allocations_in(|| drop(HmcSim::with_config(config).unwrap()))
        })
        .min()
        .expect("three builds")
}

/// A representative mix of hot-path packet events.
fn sample_records() -> [TraceRecord; 4] {
    [
        TraceRecord { dev: 0, link: 1, tag: 7, a: 9, ..TraceRecord::new(3, TraceKind::HostSend) },
        TraceRecord { dev: 0, vault: 5, bank: 2, ..TraceRecord::new(4, TraceKind::BankBusy) },
        TraceRecord { dev: 0, tag: 7, a: 3, link: 1, ..TraceRecord::new(6, TraceKind::Deliver) },
        TraceRecord { a: 10, b: 90, ..TraceRecord::new(7, TraceKind::IdleSkip) },
    ]
}

/// Reproducible allocation floor of the pinned mutex evaluation (16
/// simulated threads) after setup, optionally with the flight
/// recorder attached.
fn run_allocations(record: bool) -> u64 {
    min_allocations(3, || {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        if record {
            sim.enable_flight_recorder(256);
        }
        sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
        MutexKernel::new(MutexKernelConfig { threads: 16, ..Default::default() })
            .run(&mut sim)
            .unwrap();
    })
}

/// Reproducible allocation floor of one 32-thread mutex-kernel run on a
/// fresh context (construction and library load included), and the
/// requests the run retired.
fn kernel_allocations(spin: SpinPolicy) -> (u64, u64) {
    let mut requests = 0;
    let allocations = min_allocations(3, || {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
        let result = MutexKernel::new(MutexKernelConfig { threads: 32, spin, ..Default::default() })
            .run(&mut sim)
            .unwrap();
        assert_eq!(result.metrics.unfinished, 0);
        requests = sim.stats(0).unwrap().cmc_ops;
    });
    (allocations, requests)
}

/// The snapshot of a cube after 1,500 cycles of reads on every link,
/// recorded by a flight recorder keeping `per_lane` records per lane:
/// the same machine state whatever the capacity.
fn recorded_snapshot(per_lane: usize) -> SimSnapshot {
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    sim.enable_flight_recorder(per_lane);
    for i in 0..1_500u64 {
        for link in 0..4 {
            while sim.recv(0, link).is_some() {}
            let addr = ((i * 4 + link as u64) % 512) * 0x40;
            // Stalls are part of the scenario.
            let _ = sim.send_simple(0, link, HmcRqst::Rd64, addr, vec![]);
        }
        sim.clock();
    }
    sim.snapshot()
}

/// A closed loop over every host link of a context: a fixed window of
/// outstanding RD64 / WR64 / XOR16 requests per link — or, when `wide`,
/// of RD256 / RD256 / WR256 triples — every `remote_every`-th one
/// addressed to the next cube (0 = all local).
struct WindowLoop {
    sim: HmcSim,
    outstanding: Vec<Vec<usize>>,
    issued: u64,
    remote_every: u64,
    wide: bool,
    received: u64,
}

impl WindowLoop {
    const WINDOW: usize = 24;

    fn new(config: SimConfig, remote_every: u64) -> Self {
        let mut sim = HmcSim::with_config(config).unwrap();
        // The pin is for the reference engine, whatever the CI
        // matrix's environment overrides say.
        sim.set_skip_mode(SkipMode::Off);
        sim.set_timing_model(TimingSelect::FixedLatency);
        let outstanding = (0..sim.device_count())
            .map(|d| vec![0; sim.device_config(d).unwrap().links])
            .collect();
        WindowLoop { sim, outstanding, issued: 0, remote_every, wide: false, received: 0 }
    }

    /// Runs `cycles` iterations of recv → send → clock, taking write
    /// and atomic operands from `payloads` (built by the caller, so
    /// the loop itself never allocates on the host side). A stalled
    /// send consumes its operand, like any by-value call.
    fn run(&mut self, cycles: usize, payloads: &mut Vec<Vec<u64>>) {
        let devs = self.sim.device_count();
        for _ in 0..cycles {
            for dev in 0..devs {
                for link in 0..self.outstanding[dev].len() {
                    while let Some(rsp) = self.sim.recv(dev, link) {
                        assert_eq!(rsp.rsp.tail.errstat, 0);
                        self.outstanding[dev][rsp.entry_link] -= 1;
                        self.received += 1;
                    }
                    while self.outstanding[dev][link] < Self::WINDOW {
                        let i = self.issued;
                        let (cmd, words) = match (self.wide, i % 3) {
                            (false, 0) => (HmcRqst::Rd64, 0),
                            (false, 1) => (HmcRqst::Wr64, 8),
                            (false, _) => (HmcRqst::Xor16, 2),
                            (true, 0 | 1) => (HmcRqst::Rd256, 0),
                            (true, _) => (HmcRqst::Wr256, 32),
                        };
                        let payload = if words == 0 {
                            Vec::new()
                        } else {
                            let mut p = payloads.pop().expect("operand stock lasts the window");
                            p.truncate(words);
                            p
                        };
                        // Blocks of the request size spread over vaults
                        // and banks, within 4 MiB (wide: 1 MiB, so the
                        // warm-up's writes reach every page of it).
                        let addr = if self.wide {
                            (i.wrapping_mul(0x9E37_79B9) % (1 << 12)) * 256
                        } else {
                            (i.wrapping_mul(0x9E37_79B9) % (1 << 16)) * 64
                        };
                        let target = if self.remote_every != 0 && i.is_multiple_of(self.remote_every) {
                            (dev + 1) % devs
                        } else {
                            dev
                        };
                        let cub = Cub::new(target as u8).unwrap();
                        match self.sim.send_to_cube(dev, link, cub, cmd, addr, payload) {
                            Ok(_) => {
                                self.outstanding[dev][link] += 1;
                                self.issued += 1;
                            }
                            Err(HmcError::Stall) => break,
                            Err(e) => panic!("send failed: {e}"),
                        }
                    }
                }
            }
            self.sim.clock();
        }
    }

    /// Operands for `cycles` iterations of [`WindowLoop::run`]: every
    /// link sends at most its window plus one stalled attempt per cycle.
    fn stock(&self, cycles: usize) -> Vec<Vec<u64>> {
        let links: usize = self.outstanding.iter().map(Vec::len).sum();
        let words = if self.wide { 32 } else { 8 };
        vec![vec![7u64; words]; cycles * links * (Self::WINDOW + 1)]
    }

    /// Least allocation count of a `cycles`-long window over three
    /// consecutive windows, after a warm-up of `warm_up` cycles.
    fn steady_state_allocations(&mut self, warm_up: usize, cycles: usize) -> u64 {
        self.run(warm_up, &mut self.stock(warm_up));
        let before = self.received;
        let least = (0..3)
            .map(|_| {
                let mut payloads = self.stock(cycles);
                allocations_in(|| self.run(cycles, &mut payloads))
            })
            .min()
            .expect("three windows");
        assert!(
            self.received - before > 3 * cycles as u64,
            "the measured windows carried saturating traffic ({} responses)",
            self.received - before
        );
        least
    }
}

#[test]
fn traced_off_emission_is_allocation_free() {
    // --- The emission path itself. -----------------------------------
    // With nothing attached, emit() must early-out without rendering:
    // zero allocations across any volume of events.
    let mut tracer = Tracer::disabled();
    for rec in sample_records() {
        tracer.emit(rec); // warm-up: touch every code path once
    }
    let count = min_allocations(3, || {
        for _ in 0..10_000 {
            for rec in sample_records() {
                tracer.emit(rec);
            }
        }
    });
    assert_eq!(count, 0, "traced-off emission allocated {count} times");

    // With only the flight recorder attached, records land in the
    // fixed-capacity rings unformatted: once a ring has reached
    // capacity (eviction regime), steady-state emission is
    // allocation-free too — no text is ever rendered.
    let mut tracer = Tracer::disabled();
    tracer.attach_flight(FlightRecorder::new(64));
    for _ in 0..65 {
        for rec in sample_records() {
            tracer.emit(rec); // fill every touched lane past capacity
        }
    }
    let count = min_allocations(3, || {
        for _ in 0..10_000 {
            for rec in sample_records() {
                tracer.emit(rec);
            }
        }
    });
    assert_eq!(count, 0, "flight-recorder steady state allocated {count} times");

    // --- The sequential cycle, steady state. -------------------------
    // Packets live in recycled heap envelopes and every per-cycle
    // buffer is reused, so a warmed-up loop allocates nothing: not per
    // cycle, not per packet. (a) One saturated cube, reads, writes and
    // atomics on all four links.
    let mut single = WindowLoop::new(SimConfig::single(DeviceConfig::gen2_4link_4gb()), 0);
    let count = single.steady_state_allocations(4_000, 1_000);
    assert_eq!(count, 0, "single-cube steady state allocated {count} times in 1000 cycles");
    // (b) A 2x2 mesh with a quarter of the traffic crossing to the
    // neighbouring cube: forwarding, transit heaps and chained returns.
    let mut mesh = WindowLoop::new(SimConfig::mesh(DeviceConfig::gen2_4link_4gb(), 2, 2), 4);
    let count = mesh.steady_state_allocations(4_000, 1_000);
    assert_eq!(count, 0, "2x2-mesh steady state allocated {count} times in 1000 cycles");
    assert!(mesh.sim.stats(0).unwrap().forwarded > 1_000, "the mesh loop really forwards");
    // The saturated cube on 17-FLIT packets. A WR256 hands its vector
    // to the request envelope, which frees it when the next packet
    // overwrites it; an RD256 response is built in one block that the
    // host receives and drops. So the window allocates exactly one
    // block per read executed and none per write — two per triple.
    let mut wide = WindowLoop::new(SimConfig::single(DeviceConfig::gen2_4link_4gb()), 0);
    wide.wide = true;
    let executed = |sim: &HmcSim| (sim.stats(0).unwrap().reads, sim.stats(0).unwrap().writes);
    wide.run(4_000, &mut wide.stock(4_000));
    let (reads, writes) = executed(&wide.sim);
    let mut payloads = wide.stock(1_000);
    let count = allocations_in(|| wide.run(1_000, &mut payloads));
    let (reads, writes) = (executed(&wide.sim).0 - reads, executed(&wide.sim).1 - writes);
    assert!(writes > 1_000 && reads.abs_diff(2 * writes) <= 4 * WindowLoop::WINDOW as u64);
    assert_eq!(count, reads, "{reads} RD256 and {writes} WR256 took {count} allocations");
    // (c) The saturated cube again under the default report-mode
    // sanitizer (256-event forensic ring, stall watchdog on): every
    // cycle is audited and every event lands in the ring.
    let mut config = SimConfig::single(DeviceConfig::gen2_4link_4gb());
    config.sanitizer = SanitizerConfig::report();
    let mut audited = WindowLoop::new(config.clone(), 0);
    let count = audited.steady_state_allocations(4_000, 1_000);
    assert_eq!(count, 0, "sanitizer-attached steady state allocated {count} times in 1000 cycles");
    let report = audited.sim.sanitizer_report().unwrap();
    assert!(report.cycles_checked >= 7_000, "every cycle was audited");
    assert_eq!(report.total_violations, 0);
    // (d) Every observer at once: sanitizer, flight recorder (rings
    // past capacity after the warm-up) and full telemetry.
    config.telemetry = TelemetryConfig::full();
    let mut observed = WindowLoop::new(config, 0);
    observed.sim.enable_flight_recorder(256);
    let count = observed.steady_state_allocations(4_000, 1_000);
    assert_eq!(count, 0, "fully observed steady state allocated {count} times in 1000 cycles");
    assert_eq!(observed.sim.sanitizer_report().unwrap().total_violations, 0);

    // --- The thread driver, per request. -----------------------------
    // A kernel run allocates for what it builds — the context, a
    // mailbox per thread, envelopes for the peak in flight — and not
    // for what it retires: spinning until owned retires twice the
    // requests of the bounded run of the same 32 threads and allocates
    // the same, up to the growth of the driver's tag-indexed ledger
    // rows (one per link, doubling up to the 2048-tag space: at most 11
    // steps each). One allocation per request would be over that.
    ops::register_builtin_libraries();
    let (bounded, bounded_requests) = kernel_allocations(SpinPolicy::PaperBounded);
    let (owned, owned_requests) = kernel_allocations(SpinPolicy::until_owned());
    let ledger_growth = 4 * 11;
    assert!(
        owned_requests >= bounded_requests + 2 * ledger_growth,
        "the runs differ in requests retired ({bounded_requests} vs {owned_requests})"
    );
    assert!(
        owned.abs_diff(bounded) <= ledger_growth,
        "{owned_requests} requests took {owned} allocations, {bounded_requests} took {bounded}: \
         the driver allocates per request"
    );

    // --- The trace replayer, per operation. --------------------------
    // Reads, writes, posted writes and atomics from eight threads over
    // all four links: once a first replay has warmed the context, a
    // replay of eight times the operations allocates what a short one
    // does — the in-flight maps, nothing per operation.
    let mixed = |n: u64| -> Vec<TraceOp> {
        let cmds = [HmcRqst::Rd64, HmcRqst::Wr64, HmcRqst::Rd16, HmcRqst::Inc8, HmcRqst::PWr64];
        (0..n)
            .map(|i| TraceOp {
                cmd: cmds[i as usize % cmds.len()],
                addr: 0x10_0000 + (i.wrapping_mul(0x9E37_79B9) % (1 << 14)) * 64,
                tid: i % 8,
            })
            .collect()
    };
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    sim.set_skip_mode(SkipMode::Off);
    sim.set_timing_model(TimingSelect::FixedLatency);
    let (short, long) = (mixed(1_000), mixed(8_000));
    let config = ReplayConfig::default();
    assert_eq!(replay(&mut sim, &long, &config).unwrap().issued, 8_000, "warm-up");
    let mut replay_allocations = |ops: &[TraceOp]| {
        min_allocations(3, || assert_eq!(replay(&mut sim, ops, &config).unwrap().issued, ops.len() as u64))
    };
    let (few, many) = (replay_allocations(&short), replay_allocations(&long));
    assert!(few <= 2, "a warm 1000-op replay allocated {few} times");
    assert_eq!(many, few, "8000 ops took {many} allocations, 1000 took {few}: per-op allocation");
    // Parsing them: the op vector, sized once, and nothing per line.
    let (short, long) = (render_trace(&short).unwrap(), render_trace(&long).unwrap());
    let parse_allocations = |text: &str| min_allocations(3, || drop(parse_trace(text).unwrap()));
    let (few, many) = (parse_allocations(&short), parse_allocations(&long));
    assert_eq!(few, 1, "parsing 1000 lines allocated {few} times");
    assert_eq!(many, few, "parsing 8000 lines took {many} allocations, 1000 took {few}");

    // --- The snapshot codec, per flight record. -----------------------
    // Each lane is one base64 string of packed records, written and read
    // through buffers sized once: a recorder holding 4,096 records per
    // lane costs a checkpoint round trip no more blocks than one
    // holding 64.
    let (few, many) = (recorded_snapshot(64), recorded_snapshot(4_096));
    assert_eq!(few.fingerprint(), many.fingerprint(), "the recorder is an observer");
    let records = |snap: &SimSnapshot| snap.flight().unwrap().len();
    let (few_records, many_records) = (records(&few), records(&many));
    assert!(many_records > 12_000 && few_records <= 5 * 64, "{many_records} vs {few_records}");
    let round_trip = |snap: &SimSnapshot| {
        min_allocations(3, || {
            let back = SimSnapshot::from_json(&snap.to_json_full()).unwrap();
            assert_eq!(back.flight(), snap.flight());
        })
    };
    let (few_blocks, many_blocks) = (round_trip(&few), round_trip(&many));
    assert_eq!(
        many_blocks, few_blocks,
        "a checkpoint round trip took {many_blocks} allocations at 4096 records per lane, \
         {few_blocks} at 64: per-record allocation"
    );

    // --- A checkpoint round trip, in bytes held. -----------------------
    // The decoder releases each page's base64 string (four characters
    // for three bytes) as soon as its bytes are out, so the parse tree's
    // page text and the decoded pages are never whole at once: decoding
    // holds little more than the whole tree does, where a tree kept
    // whole to the end would hold every decoded page on top (near 2.3x
    // the page bytes in all).
    let pages = 512;
    let page_bytes = pages * PAGE_BYTES as u64;
    let dense = dense_cube(pages);
    let text = dense.snapshot().to_json_full();
    let (tree, tree_bytes) = peak_live_bytes_in(|| Json::parse(&text).unwrap());
    assert!(tree_bytes > page_bytes / 3 * 4, "the tree holds the page text ({tree_bytes} bytes)");
    drop(tree);
    let (back, held) = peak_live_bytes_in(|| SimSnapshot::from_json(&text).unwrap());
    assert_eq!(back.fingerprint(), dense.state_fingerprint());
    drop(back);
    assert!(
        held < tree_bytes + page_bytes / 4,
        "decoding {pages} dense pages ({page_bytes} bytes) held {held} bytes at once, its \
         parse tree {tree_bytes}: the tree's page text beside the decoded pages"
    );
    // A checkpointed replay releases its previous checkpoint before
    // the next snapshot copies memory: it holds one checkpoint's pages
    // at a time, never two.
    let mut replayed = dense;
    let config = ReplayConfig { checkpoint_every: 100, ..Default::default() };
    let mut taken = 0;
    let ((result, last), held) = peak_live_bytes_in(|| {
        replay_with_sink(&mut replayed, &mixed(2_000), &config, None, |_| {
            taken += 1;
            Ok(())
        })
        .unwrap()
    });
    assert_eq!(result.issued, 2_000);
    assert!(taken >= 3 && last.is_some(), "{taken} checkpoints");
    drop(last);
    assert!(
        held < page_bytes + page_bytes / 2,
        "a replay taking {taken} checkpoints of {page_bytes} bytes of pages held {held} bytes \
         at once: two checkpoints"
    );

    // --- A snapshot, in bytes held. ---------------------------------
    // A snapshot shares the store's pages instead of copying them: it
    // holds a handle per page beside the rest of the machine state, a
    // sliver of the pages' bytes. Once it is gone the live store takes
    // its pages back without a copy; while it lives, the first write
    // to a page copies that page, once, and the snapshot keeps its own.
    let mut sim = dense_cube(pages);
    let write_every_page = |sim: &mut HmcSim, byte: u8| {
        let fill = vec![byte; PAGE_BYTES];
        allocations_in(|| {
            for page in 0..pages {
                sim.mem_write(0, page * PAGE_BYTES as u64, &fill).unwrap();
            }
        })
    };
    let (snap, held) = peak_live_bytes_in(|| sim.snapshot());
    assert!(
        held < page_bytes / 16,
        "a snapshot of {pages} dense pages ({page_bytes} bytes) held {held} bytes: a copy of them"
    );
    assert_eq!(snap.fingerprint(), sim.state_fingerprint());
    drop(snap);
    let count = write_every_page(&mut sim, 0x5a);
    assert_eq!(count, 0, "writing {pages} pages no snapshot holds took {count} allocations");
    let snap = sim.snapshot();
    let want = snap.fingerprint();
    let count = write_every_page(&mut sim, 0xa5);
    assert_eq!(count, pages, "writing {pages} pages a snapshot shares took {count} allocations");
    assert_eq!(snap.fingerprint(), want, "the snapshot's pages moved");
    assert_ne!(sim.state_fingerprint(), want);
    drop(snap);

    // --- A fresh context. ---------------------------------------------
    // The pin is for the default engine: a backend or skip override
    // from the environment (the CI matrix's) adds the variable's value.
    let overrides = ["HMCSIM_TIMING", "HMCSIM_SKIP"].map(|key| (key, std::env::var_os(key)));
    for (key, _) in &overrides {
        std::env::remove_var(key);
    }
    let paper = [DeviceConfig::gen2_4link_4gb(), DeviceConfig::gen2_8link_8gb()];
    let built = paper.map(|d| construction_allocations(&SimConfig::single(d)));
    assert_eq!(built, [31, 31], "4Link-4GB and 8Link-8GB contexts took {built:?} allocations");
    // Twice or half the vaults, the same blocks: no allocation per vault.
    let by_vaults = [4, 8, 16].map(|vaults_per_quad| {
        let device = DeviceConfig { vaults_per_quad, ..DeviceConfig::gen2_4link_4gb() };
        construction_allocations(&SimConfig::single(device))
    });
    assert!(
        by_vaults.iter().all(|&n| n == by_vaults[0]),
        "4, 8 and 16 vaults per quad took {by_vaults:?} allocations"
    );
    for (key, value) in overrides {
        if let Some(value) = value {
            std::env::set_var(key, value);
        }
    }

    // --- The whole engine, differentially. ---------------------------
    // How many structured events does the pinned run emit? (Retained
    // plus evicted; the deliberately small ring forces eviction.)
    ops::register_builtin_libraries();
    let events = {
        let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
        sim.enable_flight_recorder(256);
        sim.load_cmc_library(0, ops::MUTEX_LIBRARY).unwrap();
        MutexKernel::new(MutexKernelConfig { threads: 16, ..Default::default() })
            .run(&mut sim)
            .unwrap();
        let snap = sim.flight_snapshot().unwrap();
        snap.len() as u64 + snap.lanes.iter().map(|l| l.dropped).sum::<u64>()
    };
    assert!(events > 50, "the pinned run emits a substantial timeline ({events} events)");

    // The traced-off floor is exactly reproducible (no hidden
    // lazily-growing trace state)...
    let off = run_allocations(false);
    assert_eq!(off, run_allocations(false), "traced-off allocation floor is not reproducible");

    // ...and attaching the recorder strictly adds allocations (ring
    // growth): if the traced-off run were secretly paying for tracing,
    // these could not differ.
    let on = run_allocations(true);
    assert!(off < on, "recorder-on run should allocate more than traced-off ({off} vs {on})");
}
