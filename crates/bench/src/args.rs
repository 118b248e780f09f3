//! Command-line lookup shared by the reproduction binaries. A flag a
//! binary does not read, or a value it cannot use, ends the process
//! with status 2: a mistyped flag must not silently regenerate the
//! default table.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use hmc_workloads::SpinPolicy;
use std::str::FromStr;

/// The process arguments after the program name.
#[derive(Debug)]
pub struct Args(Vec<String>);

fn reject(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

impl Args {
    /// Captures `std::env::args()`; exits 2 on a `--` token that is
    /// not one of `flags`, the flags the binary reads.
    pub fn from_env(flags: &[&str]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if let Some(flag) = args.iter().find(|a| a.starts_with("--") && !flags.contains(&&a[..])) {
            reject(format!("unknown flag {flag} (known flags: {flags:?})"));
        }
        Args(args)
    }

    /// The first argument, e.g. a sub-command or an input path.
    pub fn first(&self) -> Option<&str> {
        self.0.first().map(String::as_str)
    }

    /// True when the bare flag `name` is present.
    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The value following `name`, if the flag was given; exits 2 when
    /// nothing follows it or the next token is itself a flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        match self.0.get(at + 1) {
            Some(value) if !value.starts_with("--") => Some(value),
            _ => reject(format!("{name} needs a value")),
        }
    }

    /// The value following `name` parsed as `T`, or `default` when the
    /// flag is absent; exits 2 when the value does not parse.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> T {
        let Some(raw) = self.get(name) else { return default };
        raw.parse().unwrap_or_else(|_| reject(format!("{name} '{raw}' is not a number")))
    }

    /// `--spin bounded` (the default) or `--spin honest`; exits 2 on
    /// anything else.
    pub fn spin(&self) -> SpinPolicy {
        match self.get("--spin") {
            None | Some("bounded") => SpinPolicy::PaperBounded,
            Some("honest") => SpinPolicy::until_owned(),
            Some(other) => reject(format!("unknown --spin '{other}' (expected bounded|honest)")),
        }
    }
}
