//! Machine configuration.

use mee_cache::policy::{Fifo, Nru, Policy, RandomEviction, Srrip, TreePlru, TrueLru};
use mee_cache::CacheConfig;
use mee_mem::DramConfig;
use mee_types::{ModelError, TimingConfig};

/// A cloneable description of a replacement policy, resolved to a boxed
/// [`Policy`] at machine construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Tree pseudo-LRU — the MEE cache default (§5.3 "approximate LRU").
    TreePlru,
    /// Exact LRU.
    TrueLru,
    /// First-in first-out.
    Fifo,
    /// Not-recently-used.
    Nru,
    /// Static re-reference interval prediction (2-bit).
    Srrip,
    /// Seeded random eviction.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

impl PolicyKind {
    /// Instantiates the policy, statically dispatched.
    pub fn build(self) -> Policy {
        match self {
            PolicyKind::TreePlru => Policy::TreePlru(TreePlru::new()),
            PolicyKind::TrueLru => Policy::TrueLru(TrueLru::new()),
            PolicyKind::Fifo => Policy::Fifo(Fifo::new()),
            PolicyKind::Nru => Policy::Nru(Nru::new()),
            PolicyKind::Srrip => Policy::Srrip(Srrip::new()),
            PolicyKind::Random { seed } => Policy::Random(RandomEviction::with_seed(seed)),
        }
    }
}

/// Full description of the simulated machine.
///
/// [`MachineConfig::default`] models the paper's testbed (i7-6700K-like:
/// 4 cores, 32 KiB/8-way L1D, 256 KiB/4-way L2, 8 MiB/16-way LLC, 64 KiB/
/// 8-way MEE cache, 32 MiB PRM scaled down from 128 MiB to keep experiment
/// start-up cheap — the attack never needs more than a few MiB of enclave
/// memory). [`MachineConfig::small`] shrinks everything further for unit
/// tests.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of physical cores.
    pub cores: usize,
    /// Latency calibration.
    pub timing: TimingConfig,
    /// DRAM geometry and timing.
    pub dram: DramConfig,
    /// Bytes of ordinary DRAM.
    pub general_bytes: u64,
    /// Bytes of Processor Reserved Memory (protected data + tree).
    pub prm_bytes: u64,
    /// Per-core L1 data cache.
    pub l1: CacheConfig,
    /// Per-core L2 cache.
    pub l2: CacheConfig,
    /// Shared inclusive last-level cache.
    pub llc: CacheConfig,
    /// The MEE cache (what the paper reverse-engineers).
    pub mee_cache: CacheConfig,
    /// MEE cache replacement policy.
    pub mee_policy: PolicyKind,
    /// LLC replacement policy.
    pub llc_policy: PolicyKind,
    /// Seed for frame-allocation shuffling.
    pub alloc_seed: u64,
    /// Seed for per-core background-stall noise.
    pub stall_seed: u64,
    /// MEE MAC key.
    pub mee_key: u64,
    /// Granularity (cycles) of the hyperthread timer mailbox: the publishing
    /// thread refreshes the timestamp every this many cycles.
    pub timer_quantum: u64,
    /// Capacity of the machine's translation memo (direct-mapped, shared
    /// across processes, keyed on a page-table generation stamp). `0`
    /// disables memoisation — every op re-walks the page table, the
    /// pre-memo behaviour differential tests compare against. Purely a
    /// host-speed knob: translation has no timing side effects, so the
    /// capacity can never change a simulation (see `DESIGN.md`,
    /// "Translation memo"). Must be `0` or a power of two.
    pub tlb_entries: usize,
}

/// Default translation-memo capacity: enough slots that the two
/// 192-page tenants of an attack setup rarely alias.
const DEFAULT_TLB_ENTRIES: usize = 512;

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 4,
            timing: TimingConfig::default(),
            dram: DramConfig::default(),
            general_bytes: 64 << 20,
            prm_bytes: 32 << 20,
            l1: CacheConfig {
                sets: 64,
                ways: 8,
                line_size: 64,
            },
            l2: CacheConfig {
                sets: 1024,
                ways: 4,
                line_size: 64,
            },
            llc: CacheConfig {
                sets: 8192,
                ways: 16,
                line_size: 64,
            },
            mee_cache: CacheConfig {
                sets: 128,
                ways: 8,
                line_size: 64,
            },
            mee_policy: PolicyKind::TreePlru,
            llc_policy: PolicyKind::TreePlru,
            alloc_seed: 0xa110c,
            stall_seed: 0x57a11,
            mee_key: 0x006d_6565_5f6b_6579, // "mee_key"
            timer_quantum: 35,
            tlb_entries: DEFAULT_TLB_ENTRIES,
        }
    }
}

impl MachineConfig {
    /// The default testbed-like machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scaled-down machine for fast unit tests: 2 MiB general, 4 MiB PRM,
    /// small LLC, no background stalls, no DRAM jitter.
    pub fn small() -> Self {
        let dram = DramConfig {
            jitter_std: 0.0,
            ..DramConfig::default()
        };
        MachineConfig {
            general_bytes: 2 << 20,
            prm_bytes: 4 << 20,
            llc: CacheConfig {
                sets: 1024,
                ways: 16,
                line_size: 64,
            },
            timing: TimingConfig::noiseless(),
            dram,
            ..Self::default()
        }
    }

    /// Disables all noise sources (jitter + stalls), keeping geometry.
    pub fn without_noise(mut self) -> Self {
        self.timing.dram_jitter_std = 0.0;
        self.timing.stall_mean_interval = 0;
        self.dram.jitter_std = 0.0;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if any component is invalid,
    /// there are no cores, a tree-PLRU cache has a way count that is not a
    /// power of two, or `tlb_entries` is neither 0 nor a power of two.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.cores == 0 {
            return Err(ModelError::InvalidConfig {
                reason: "machine needs at least one core".into(),
            });
        }
        if self.timer_quantum == 0 {
            return Err(ModelError::InvalidConfig {
                reason: "timer quantum must be non-zero".into(),
            });
        }
        self.timing.validate()?;
        self.dram.validate()?;
        for (name, c, policy) in [
            ("l1", &self.l1, self.mee_policy),
            ("l2", &self.l2, self.mee_policy),
            ("llc", &self.llc, self.llc_policy),
            ("mee_cache", &self.mee_cache, self.mee_policy),
        ] {
            CacheConfig::from_capacity(c.capacity_bytes(), c.ways, c.line_size).map_err(|_| {
                ModelError::InvalidConfig {
                    reason: format!("invalid {name} cache geometry: {c:?}"),
                }
            })?;
            if policy == PolicyKind::TreePlru && !c.ways.is_power_of_two() {
                return Err(ModelError::InvalidConfig {
                    reason: format!(
                        "{name} cache uses tree-PLRU, which needs a power-of-two way count, \
                         not {}",
                        c.ways
                    ),
                });
            }
        }
        if self.tlb_entries != 0 && !self.tlb_entries.is_power_of_two() {
            return Err(ModelError::InvalidConfig {
                reason: format!(
                    "tlb_entries must be 0 or a power of two, not {}",
                    self.tlb_entries
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_cache::ReplacementPolicy;

    #[test]
    fn default_validates_and_matches_testbed() {
        let cfg = MachineConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.mee_cache.capacity_bytes(), 64 * 1024);
        assert_eq!(cfg.mee_cache.ways, 8);
        assert_eq!(cfg.mee_cache.sets, 128);
        assert_eq!(cfg.llc.capacity_bytes(), 8 << 20);
    }

    #[test]
    fn small_validates() {
        MachineConfig::small().validate().unwrap();
    }

    #[test]
    fn without_noise_strips_all_noise() {
        let cfg = MachineConfig::default().without_noise();
        assert_eq!(cfg.timing.dram_jitter_std, 0.0);
        assert_eq!(cfg.timing.stall_mean_interval, 0);
        assert_eq!(cfg.dram.jitter_std, 0.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let cfg = MachineConfig {
            cores: 0,
            ..MachineConfig::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = MachineConfig {
            timer_quantum: 0,
            ..MachineConfig::default()
        };
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::default();
        cfg.l1.sets = 3;
        assert!(cfg.validate().is_err());

        // Tree-PLRU needs a power-of-two way count; the error names the
        // cache and machine construction fails cleanly instead of panicking.
        let mut cfg = MachineConfig::default();
        cfg.mee_cache.ways = 6;
        match cfg.validate() {
            Err(ModelError::InvalidConfig { reason }) => {
                assert!(reason.contains("mee_cache"), "{reason}")
            }
            other => panic!("6-way tree-PLRU MEE cache accepted: {other:?}"),
        }
        assert!(crate::Machine::new(cfg).is_err());
        let mut cfg = MachineConfig::default();
        cfg.llc.ways = 12;
        assert!(cfg.validate().is_err());
        cfg.llc_policy = PolicyKind::TrueLru;
        cfg.validate().unwrap();

        // The translation memo indexes by mask.
        let cfg = MachineConfig {
            tlb_entries: 500,
            ..MachineConfig::default()
        };
        assert!(cfg.validate().is_err());
        assert!(crate::Machine::new(cfg).is_err());
        for tlb_entries in [0, 1, 512] {
            MachineConfig {
                tlb_entries,
                ..MachineConfig::default()
            }
            .validate()
            .unwrap();
        }
    }

    #[test]
    fn policy_kinds_build() {
        for kind in [
            PolicyKind::TreePlru,
            PolicyKind::TrueLru,
            PolicyKind::Fifo,
            PolicyKind::Nru,
            PolicyKind::Srrip,
            PolicyKind::Random { seed: 1 },
        ] {
            let p = kind.build();
            assert!(!p.name().is_empty());
        }
    }
}
