//! # hmc-fuzz
//!
//! The scenario fuzz farm: standing randomized differential fuzzing
//! for the hmcsim-rs engine matrix.
//!
//! The simulator carries a strong contract — for any workload, any
//! device configuration and any fault plan, every engine
//! configuration (event-horizon skipping, sanitizer, telemetry, flight
//! recorder) must be **bit-identical** to the plain reference run. The
//! proptest harnesses in `tests/` check that contract
//! over narrow, hand-shaped workloads; this crate explores the full
//! cross-product continuously:
//!
//! * [`gen`] — a seeded **scenario generator** samples (kernel ×
//!   device config × fault plan × skip mode × sanitizer × telemetry ×
//!   tracing × timing backend × fabric) tuples; the stream is a pure
//!   function of the seed.
//! * [`runner`] — a **differential runner** executes each scenario
//!   twice (plain reference vs the sampled variant engine) behind
//!   `catch_unwind` with a wall-clock budget, and classifies the
//!   outcome: digest mismatch (per axis), panic, sanitizer violation,
//!   watchdog stall, timeout.
//! * [`shrink`] — a **delta-debugging shrinker** walks every scenario
//!   axis toward smaller values, keeping a change only if the same
//!   failure class still reproduces, and emits a minimal reproducer.
//! * [`corpus`] — reproducers persist as versioned, self-contained
//!   JSON; the checked-in `corpus/` directory is replayed by the
//!   tier-1 test `tests/fuzz_corpus.rs` so every past failure stays
//!   fixed.
//!
//! The `hmcfuzz` binary fronts all of it (`run`, `replay`,
//! `seed-corpus`), including a `--canary` self-test mode that injects
//! a known seeded divergence and asserts the farm finds and shrinks
//! it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod corpus;
pub mod gen;
pub mod journal;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use corpus::{load_scenario_file, save_reproducer};
pub use journal::RunJournal;
pub use gen::ScenarioGenerator;
pub use runner::{run_scenario, Outcome, RunnerConfig};
pub use scenario::{Scenario, SCHEMA_VERSION};
pub use shrink::shrink;
