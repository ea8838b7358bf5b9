//! Seed sweeps over the experiment drivers, run in parallel through
//! [`mee_sweep`].
//!
//! The paper's quantitative claims are statistical: the Fig. 5 latency
//! histogram, the Fig. 6 BER contrast, and the §5.4 headline numbers all
//! pool many independent sessions. A [`SweepPlan`] names such a pool — a
//! root seed, a session count, and an optional thread override — and the
//! drivers here run one full experiment per session with the per-session
//! seed split from the root via [`mee_sweep::session_seeds`]. Results come
//! back in session order and are **bit-identical to serial execution** for
//! any thread count, so a sweep can be reproduced one session at a time:
//! session `i` of root seed `r` is exactly `run_*` with seed
//! `stream_seed(r, i)`.

use mee_sweep::{SessionSpec, Sweep};
use mee_types::{Cycles, ModelError};

use crate::channel::{random_bits, ChannelConfig, Session};
use crate::setup::AttackSetup;

use super::fig6::{run_fig6_with, Fig6Result};

/// A pooled multi-session run: root seed, session count, thread override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPlan {
    /// The root seed every per-session seed is split from.
    pub root_seed: u64,
    /// Number of independent sessions to pool.
    pub sessions: usize,
    /// Worker-thread override; `None` uses the host's available
    /// parallelism.
    pub threads: Option<usize>,
}

impl SweepPlan {
    /// A plan with the host-default thread count.
    pub fn new(root_seed: u64, sessions: usize) -> Self {
        SweepPlan {
            root_seed,
            sessions,
            threads: None,
        }
    }

    /// Pins the worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The runner this plan executes on.
    pub fn runner(&self) -> Sweep {
        Sweep::new().threads(self.threads)
    }

    /// The per-session specs (index + split seed) of this plan.
    pub fn session_specs(&self) -> Vec<SessionSpec> {
        mee_sweep::session_seeds(self.root_seed, self.sessions)
    }
}

/// One session of a channel seed sweep, reduced to the numbers the
/// statistical tests and the bench trajectory pool.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSweepPoint {
    /// Position in the sweep.
    pub index: usize,
    /// The session's split seed (replay: `AttackSetup::new(seed)`).
    pub seed: u64,
    /// Payload length in bits.
    pub bits: usize,
    /// Positional bit errors.
    pub bit_errors: usize,
    /// Achieved rate in KB/s of simulated time.
    pub kbps: f64,
    /// Simulated duration of the transmission.
    pub elapsed: Cycles,
    /// Median spy probe time.
    pub probe_p50: Cycles,
    /// 95th-percentile spy probe time.
    pub probe_p95: Cycles,
}

impl ChannelSweepPoint {
    /// Bit error rate in `[0, 1]`.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.bit_errors as f64 / self.bits as f64
    }
}

fn percentile_cycles(sorted: &[u64], p: f64) -> Cycles {
    debug_assert!(!sorted.is_empty());
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    Cycles::new(sorted[rank.min(sorted.len() - 1)])
}

/// One end-to-end channel session — the body every channel sweep,
/// campaign and the `bench-sweep` binary run: a fresh noisy machine seeded
/// with `spec.seed`, establishment under `cfg`, then a transmission of
/// `bits` seed-derived random bits, reduced to a [`ChannelSweepPoint`]
/// (probe percentiles are nearest-rank over the sorted probe times).
///
/// # Errors
///
/// Propagates machine-construction, establishment and transmission
/// errors.
pub fn channel_session(
    spec: SessionSpec,
    cfg: &ChannelConfig,
    bits: usize,
) -> Result<ChannelSweepPoint, ModelError> {
    let mut setup = AttackSetup::new(spec.seed)?;
    let session = Session::establish(&mut setup, cfg)?;
    let payload = random_bits(bits, spec.seed);
    let out = session.transmit(&mut setup, &payload)?;
    let mut probes: Vec<u64> = out.probe_times.iter().map(|t| t.raw()).collect();
    probes.sort_unstable();
    Ok(ChannelSweepPoint {
        index: spec.index,
        seed: spec.seed,
        bits,
        bit_errors: out.errors.count(),
        kbps: out.kbps,
        elapsed: out.elapsed,
        probe_p50: percentile_cycles(&probes, 50.0),
        probe_p95: percentile_cycles(&probes, 95.0),
    })
}

/// Runs `plan.sessions` independent [`channel_session`]s and returns one
/// [`ChannelSweepPoint`] per session, in session order.
///
/// # Errors
///
/// Returns the lowest-indexed failing session's error, deterministically.
pub fn run_channel_sweep(
    plan: &SweepPlan,
    cfg: &ChannelConfig,
    bits: usize,
) -> Result<Vec<ChannelSweepPoint>, ModelError> {
    plan.runner()
        .try_seed_sweep(plan.root_seed, plan.sessions, |spec| channel_session(spec, cfg, bits))
}

/// Pooled error counts of a Fig. 6 sweep: both panels over every session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PooledContrast {
    /// Total bits sent per panel across the sweep.
    pub total_bits: usize,
    /// Pooled bit errors of the Prime+Probe baseline (panel a).
    pub prime_probe_errors: usize,
    /// Pooled bit errors of the paper's channel (panel b).
    pub this_work_errors: usize,
}

impl PooledContrast {
    /// Pooled BER of the Prime+Probe baseline.
    pub fn prime_probe_rate(&self) -> f64 {
        self.prime_probe_errors as f64 / self.total_bits as f64
    }

    /// Pooled BER of the paper's channel.
    pub fn this_work_rate(&self) -> f64 {
        self.this_work_errors as f64 / self.total_bits as f64
    }
}

/// A Fig. 6 seed sweep: one full two-panel run per session.
#[derive(Debug, Clone)]
pub struct Fig6Sweep {
    /// Per-session spec and result, in session order.
    pub sessions: Vec<(SessionSpec, Fig6Result)>,
}

impl Fig6Sweep {
    /// Pools both panels' error counts across every session.
    pub fn pooled(&self) -> PooledContrast {
        let mut pooled = PooledContrast {
            total_bits: 0,
            prime_probe_errors: 0,
            this_work_errors: 0,
        };
        for (_, r) in &self.sessions {
            pooled.total_bits += r.this_work.sent.len();
            pooled.prime_probe_errors += r.prime_probe.errors.count();
            pooled.this_work_errors += r.this_work.errors.count();
        }
        pooled
    }
}

/// Runs [`run_fig6_with`] once per session of `plan`, sending `bits`
/// alternating bits per panel.
///
/// # Errors
///
/// Returns the lowest-indexed failing session's error, deterministically.
pub fn run_fig6_sweep(
    plan: &SweepPlan,
    bits: usize,
    cfg: &ChannelConfig,
) -> Result<Fig6Sweep, ModelError> {
    let sessions = plan
        .runner()
        .try_seed_sweep(plan.root_seed, plan.sessions, |spec| {
            run_fig6_with(spec.seed, bits, cfg).map(|r| (spec, r))
        })?;
    Ok(Fig6Sweep { sessions })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_specs_follow_the_stream_seed_convention() {
        let plan = SweepPlan::new(2019, 4).threads(2);
        let specs = plan.session_specs();
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[1].seed, mee_rng::stream_seed(2019, 1));
        assert_eq!(plan.runner().thread_count(), 2);
    }

    #[test]
    fn channel_sweep_is_thread_count_invariant() {
        // The determinism guarantee, end to end on real sessions: the same
        // plan on 1 and 3 threads produces bit-identical points.
        let cfg = ChannelConfig::sweep_setup();
        let serial = run_channel_sweep(&SweepPlan::new(7, 3).threads(1), &cfg, 8).unwrap();
        let parallel = run_channel_sweep(&SweepPlan::new(7, 3).threads(3), &cfg, 8).unwrap();
        assert_eq!(serial, parallel);
        assert!(serial.iter().all(|p| p.bits == 8));
        // Replayability: a session rerun standalone from its JSON-visible
        // seed matches the sweep's own result.
        let spec = SweepPlan::new(7, 3).session_specs()[2];
        let alone = run_channel_sweep(
            &SweepPlan {
                root_seed: 7,
                sessions: 3,
                threads: Some(1),
            },
            &cfg,
            8,
        )
        .unwrap()[2]
            .clone();
        assert_eq!(alone.seed, spec.seed);
    }

    #[test]
    fn pooled_contrast_arithmetic() {
        let pooled = PooledContrast {
            total_bits: 200,
            prime_probe_errors: 50,
            this_work_errors: 4,
        };
        assert!((pooled.prime_probe_rate() - 0.25).abs() < 1e-12);
        assert!((pooled.this_work_rate() - 0.02).abs() < 1e-12);
    }
}
