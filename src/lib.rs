#![warn(missing_docs)]
//! **mee-covert** — a full reproduction of *"A Novel Covert Channel Attack
//! Using Memory Encryption Engine Cache"* (Han & Kim, DAC 2019) as a
//! simulator-backed Rust workspace.
//!
//! The paper builds a cross-core covert channel through the Intel SGX
//! Memory Encryption Engine (MEE) cache. Since the attack needs an SGX1 CPU
//! with precise timing, this workspace instead models the entire machine —
//! cache hierarchy, DRAM, integrity tree, MEE cache, enclave semantics —
//! and runs the paper's attack code against the model. See `DESIGN.md` for
//! the substitution argument and `EXPERIMENTS.md` for paper-vs-measured
//! results of every figure.
//!
//! This crate is the facade: it re-exports the whole stack and hosts the
//! runnable examples and cross-crate integration tests.
//!
//! # Layer map
//!
//! | Crate | Role |
//! |---|---|
//! | [`types`] | addresses, cycles, timing calibration, errors |
//! | [`rng`] | hermetic seeded RNG + property-testing driver |
//! | [`obs`] | deterministic tracing, metrics, host-time profiling, trace export |
//! | [`cache`] | set-associative caches + replacement policies |
//! | [`mem`] | physical layout, frame allocation, page tables, DRAM |
//! | [`tree`] | the SGX-style integrity tree (counters + MACs) |
//! | [`engine`] | the MEE: tree walk over the MEE cache, hit-level timing |
//! | [`machine`] | multi-core machine, enclave processes, actor scheduler |
//! | [`faults`] | deterministic fault plans + the replayable injector |
//! | [`campaign`] | crash-safe sharded campaigns: checkpoint/resume, quarantine |
//! | [`attack`] | the paper: reverse engineering, channels, experiments |
//! | [`spec`] | executable invariant specs: exhaustive + property tiers, differential oracle |
//!
//! # Quickstart
//!
//! ```
//! use mee_covert::attack::channel::{ChannelConfig, Session};
//! use mee_covert::attack::setup::AttackSetup;
//!
//! # fn main() -> Result<(), mee_covert::types::ModelError> {
//! // A quiet machine; seed controls every RNG in the system.
//! let mut setup = AttackSetup::quiet(42)?;
//! // Reverse engineer an eviction set and find the spy's monitor address.
//! let session = Session::establish(&mut setup, &ChannelConfig::default())?;
//! // Leak one byte across cores through the MEE cache.
//! let secret = [true, false, true, true, false, true, false, false];
//! let out = session.transmit(&mut setup, &secret)?;
//! assert_eq!(out.received, secret);
//! # Ok(())
//! # }
//! ```

pub use mee_attack as attack;
pub use mee_cache as cache;
pub use mee_campaign as campaign;
pub use mee_engine as engine;
pub use mee_faults as faults;
pub use mee_machine as machine;
pub use mee_mem as mem;
pub use mee_obs as obs;
pub use mee_rng as rng;
pub use mee_spec as spec;
pub use mee_sweep as sweep;
pub use mee_tree as tree;
pub use mee_types as types;

/// The shared testbed every integration test and example builds on.
///
/// Machine shape, the workspace seed convention, and the sweep-plan
/// defaults live here in exactly one place, so a change to the test
/// machine (say, more cores or a bigger MEE cache) lands in every consumer
/// at once instead of drifting per file.
pub mod testbed {
    use mee_attack::setup::AttackSetup;
    use mee_machine::{Machine, MachineConfig};
    use mee_types::ModelError;

    /// The workspace-wide default root seed (the paper's year). Figure
    /// binaries, sweeps, and golden tests all derive from it.
    pub const SEED: u64 = 2019;

    /// The machine shape integration tests run on: the small
    /// configuration, big enough for every experiment but quick to fill.
    pub fn machine_config() -> MachineConfig {
        MachineConfig::small()
    }

    /// A machine built from [`machine_config`].
    ///
    /// # Errors
    ///
    /// Propagates construction errors from [`Machine::new`].
    pub fn machine() -> Result<Machine, ModelError> {
        Machine::new(machine_config())
    }

    /// The standard noisy attack testbed for a given seed (DRAM jitter and
    /// OS stalls on, as in the paper's measurement environment).
    ///
    /// # Errors
    ///
    /// Propagates machine construction errors.
    pub fn noisy_setup(seed: u64) -> Result<AttackSetup, ModelError> {
        AttackSetup::new(seed)
    }

    /// The quiet attack testbed for a given seed (no noise sources) —
    /// what doc examples and determinism tests use.
    ///
    /// # Errors
    ///
    /// Propagates machine construction errors.
    pub fn quiet_setup(seed: u64) -> Result<AttackSetup, ModelError> {
        AttackSetup::quiet(seed)
    }
}

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use mee_attack::channel::{ChannelConfig, Session, TransmitOutcome};
    pub use mee_attack::setup::AttackSetup;
    pub use mee_attack::threshold::LatencyClassifier;
    pub use mee_machine::{Actor, CoreHandle, CoreId, Machine, MachineConfig, ProcId, StepOutcome};
    pub use mee_types::{Cycles, ModelError, TimingConfig, VirtAddr};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        // Compile-time check that the layer map is wired.
        let _ = crate::types::Cycles::new(1);
        let _ = crate::prelude::ChannelConfig::default();
    }
}
