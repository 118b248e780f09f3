//! Simulated dynamic loading of CMC shared libraries.
//!
//! HMC-Sim 2.0 loads CMC implementations with `dlopen` and resolves
//! `cmc_register` / `hmcsim_execute_cmc` / `cmc_str` with `dlsym`
//! (paper §IV-C2). A Rust reproduction using real `dlopen` of cdylibs
//! would add unsafe ABI hazards without changing any simulated
//! quantity, so this module substitutes a process-global table of
//! *library specifications* keyed by path-like names (see DESIGN.md
//! §3). The contract is preserved:
//!
//! * opening an unknown path fails like `dlopen` —
//!   [`HmcError::CmcLibraryNotFound`];
//! * a library missing one of the three entry points fails like
//!   `dlsym` — [`HmcError::CmcSymbolMissing`];
//! * a successfully opened library yields operations whose entry
//!   points the core invokes through dynamic dispatch, exactly as the
//!   C core invokes its stored function pointers.
//!
//! ```
//! use hmc_cmc::{register_library, open_library, LibrarySpec};
//!
//! hmc_cmc::ops::register_builtin_libraries();
//! let ops = open_library("libhmc_mutex.so").unwrap();
//! assert_eq!(ops.len(), 3); // lock, trylock, unlock
//! assert!(open_library("libmissing.so").is_err());
//! ```

use crate::op::CmcOp;
use hmc_types::HmcError;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

/// A factory producing the operations a library implements.
pub type OpFactory = Arc<dyn Fn() -> Vec<Box<dyn CmcOp>> + Send + Sync>;

/// A registered CMC "shared library": its factory plus flags
/// describing which of the three required symbols the library
/// exports. Real libraries export all three; the flags exist so tests
/// and examples can reproduce `dlsym` failures.
#[derive(Clone)]
pub struct LibrarySpec {
    factory: OpFactory,
    has_register: bool,
    has_execute: bool,
    has_str: bool,
}

impl LibrarySpec {
    /// A well-formed library exporting all three entry points.
    pub fn new(factory: impl Fn() -> Vec<Box<dyn CmcOp>> + Send + Sync + 'static) -> Self {
        LibrarySpec {
            factory: Arc::new(factory),
            has_register: true,
            has_execute: true,
            has_str: true,
        }
    }

    /// Marks a symbol as missing, to simulate a broken library.
    /// `symbol` is one of `cmc_register`, `hmcsim_execute_cmc`,
    /// `cmc_str`; unknown names are ignored.
    pub fn without_symbol(mut self, symbol: &str) -> Self {
        match symbol {
            "cmc_register" => self.has_register = false,
            "hmcsim_execute_cmc" => self.has_execute = false,
            "cmc_str" => self.has_str = false,
            _ => {}
        }
        self
    }
}

/// The table of registered libraries. Every update is a single
/// `BTreeMap` insert, so the map is valid even if a holder panicked:
/// the accessors below recover a poisoned guard instead of failing.
fn global() -> &'static RwLock<BTreeMap<String, LibrarySpec>> {
    static LIBS: OnceLock<RwLock<BTreeMap<String, LibrarySpec>>> = OnceLock::new();
    LIBS.get_or_init(|| RwLock::new(BTreeMap::new()))
}

/// Installs a library under a path-like name (the analogue of placing
/// a compiled `.so` on disk). Re-registering a name replaces the
/// previous library, as re-linking would.
pub fn register_library(path: impl Into<String>, spec: LibrarySpec) {
    global().write().unwrap_or_else(|e| e.into_inner()).insert(path.into(), spec);
}

/// Opens a library by name — the analogue of
/// `dlopen(path)` + `dlsym` of the three entry points — and returns
/// the operations it implements.
pub fn open_library(path: &str) -> Result<Vec<Box<dyn CmcOp>>, HmcError> {
    let libs = global().read().unwrap_or_else(|e| e.into_inner());
    let spec = libs
        .get(path)
        .ok_or_else(|| HmcError::CmcLibraryNotFound(path.to_string()))?;
    for (present, symbol) in [
        (spec.has_register, "cmc_register"),
        (spec.has_execute, "hmcsim_execute_cmc"),
        (spec.has_str, "cmc_str"),
    ] {
        if !present {
            return Err(HmcError::CmcSymbolMissing {
                library: path.to_string(),
                symbol: symbol.to_string(),
            });
        }
    }
    Ok((spec.factory)())
}

/// Names of all registered libraries, in sorted order.
pub fn registered_libraries() -> Vec<String> {
    global().read().unwrap_or_else(|e| e.into_inner()).keys().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{CmcContext, CmcRegistration, CmcResult};
    use hmc_types::HmcResponse;

    struct Nop;
    impl CmcOp for Nop {
        fn register(&self) -> CmcRegistration {
            CmcRegistration::new("nop", 4, 1, 1, HmcResponse::WrRs)
        }
        fn execute(&self, _ctx: &mut CmcContext<'_>) -> Result<CmcResult, HmcError> {
            Ok(CmcResult::default())
        }
        fn name(&self) -> &str {
            "nop"
        }
    }

    #[test]
    fn open_unknown_library_fails_like_dlopen() {
        assert!(matches!(
            open_library("does/not/exist.so"),
            Err(HmcError::CmcLibraryNotFound(_))
        ));
    }

    #[test]
    fn open_registered_library() {
        register_library("libtest_nop.so", LibrarySpec::new(|| vec![Box::new(Nop)]));
        let ops = open_library("libtest_nop.so").unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].name(), "nop");
        assert!(registered_libraries().contains(&"libtest_nop.so".to_string()));
    }

    #[test]
    fn missing_symbol_fails_like_dlsym() {
        register_library(
            "libtest_broken.so",
            LibrarySpec::new(|| vec![Box::new(Nop)]).without_symbol("hmcsim_execute_cmc"),
        );
        match open_library("libtest_broken.so") {
            Err(HmcError::CmcSymbolMissing { library, symbol }) => {
                assert_eq!(library, "libtest_broken.so");
                assert_eq!(symbol, "hmcsim_execute_cmc");
            }
            Err(other) => panic!("expected CmcSymbolMissing, got {other:?}"),
            Ok(_) => panic!("expected CmcSymbolMissing, got Ok"),
        }
    }

    #[test]
    fn reregistering_replaces() {
        register_library("libtest_swap.so", LibrarySpec::new(Vec::new));
        assert_eq!(open_library("libtest_swap.so").unwrap().len(), 0);
        register_library(
            "libtest_swap.so",
            LibrarySpec::new(|| vec![Box::new(Nop)]),
        );
        assert_eq!(open_library("libtest_swap.so").unwrap().len(), 1);
    }
}
