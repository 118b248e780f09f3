//! Command-line lookup shared by the reproduction binaries. A value a
//! binary cannot use ends the process with status 2: a mistyped flag
//! must not silently regenerate the default table.

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
    /// Captures `std::env::args()`.
    pub fn from_env() -> Self {
        Args(std::env::args().skip(1).collect())
    }

    /// The first argument, e.g. a sub-command or an input path.
    pub fn first(&self) -> Option<&str> {
        self.0.first().map(String::as_str)
    }

    /// True when the bare flag `name` is present.
    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The value following `name`, if the flag was given.
    pub fn get(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        Some(self.0.get(at + 1).unwrap_or_else(|| reject(format!("{name} needs a value"))))
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
