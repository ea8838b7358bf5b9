//! The Prime+Probe baseline that fails over the MEE cache (paper §5.2,
//! Figure 6a).
//!
//! Classic LLC Prime+Probe, ported directly: the **spy** owns the
//! 8-address eviction set, primes the whole set, and probes all 8 ways every
//! window; the **trojan** touches a single conflicting address to send `1`.
//! The probe must make 8 protected-region reads, each of which reaches main
//! memory *whether or not* the MEE cache hits — so the probe costs over
//! 3500 cycles while the hit/miss signal is only ~300 cycles, and the
//! channel drowns in access-latency variance. That failure is the paper's
//! motivation for reversing the roles.

use mee_machine::NoopHook;
use mee_types::{Cycles, ModelError, VirtAddr};

use crate::channel::config::{ChannelConfig, EvictionStrategy};
use crate::channel::exchange::{Exchange, ProbeShape, TransmitOutcome};
use crate::channel::Session;
use crate::setup::AttackSetup;

/// The established baseline channel.
#[derive(Debug, Clone)]
pub struct PrimeProbeSession {
    /// The spy's eviction set (8 addresses, one per way).
    pub eviction_set: Vec<VirtAddr>,
    /// The trojan's single conflicting address.
    pub target: VirtAddr,
    /// Shared parameters.
    pub config: ChannelConfig,
    /// Decode threshold for total probe time, calibrated at establishment.
    pub probe_threshold: Cycles,
}

impl PrimeProbeSession {
    /// Establishes the baseline with the §5.3 handshake, roles swapped:
    /// [`Session::establish_directed`] with the *spy* sending runs
    /// Algorithm 1 on the spy's side and finds the trojan's one conflicting
    /// address. The probe threshold is then calibrated from quiet sweeps:
    /// mean + half the versions-hit/miss signal.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::establish`].
    pub fn establish(setup: &mut AttackSetup, cfg: &ChannelConfig) -> Result<Self, ModelError> {
        let handshake = Session::establish_directed(setup, setup.spy, setup.trojan, cfg)?;
        let (eviction_set, target) = (handshake.eviction_set, handshake.monitor);

        // Calibrate the probe threshold: quiet all-hit sweeps.
        let mut quiet_total = 0u64;
        let sweeps = 8u64;
        {
            let mut spy = setup.spy_handle();
            let _ = spy.sweep_read_flush(&eviction_set)?;
            for _ in 0..sweeps {
                let t1 = spy.timer_read();
                let _ = spy.sweep_read_flush(&eviction_set)?;
                let t2 = spy.timer_read();
                quiet_total += t2.saturating_sub(t1).raw();
            }
        }
        let quiet_mean = quiet_total / sweeps;
        let t = &setup.machine.config().timing;
        let signal = t.protected_hit_latency(1) - t.protected_hit_latency(0);
        let probe_threshold = Cycles::new(quiet_mean + signal.raw() / 2);

        Ok(PrimeProbeSession {
            eviction_set,
            target,
            config: cfg.clone(),
            probe_threshold,
        })
    }

    /// Transmits `bits` over the baseline channel. The spy times its whole
    /// sweep, flushes included, on each boundary; the trojan touches its
    /// target at mid-window, once that ~4000-cycle sweep has drained, so
    /// the eviction never lands inside it.
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn transmit(
        &self,
        setup: &mut AttackSetup,
        bits: &[bool],
    ) -> Result<TransmitOutcome, ModelError> {
        let window = self.config.window;
        let threshold = self.probe_threshold;
        Exchange {
            sender: (setup.trojan.core, setup.trojan.proc),
            receiver: (setup.spy.core, setup.spy.proc),
            window,
            lanes: vec![vec![self.target]],
            strategy: EvictionStrategy::ForwardOnly,
            rotate: false,
            phase: window / 2,
            probes: vec![self.eviction_set.clone()],
            shape: ProbeShape::TimedFlush,
            guard: Cycles::ZERO,
            bias: Cycles::ZERO,
        }
        .run(setup, bits, &mut [], &mut NoopHook, |t| t > threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::message::alternating_bits;

    #[test]
    fn baseline_probe_times_exceed_3500_cycles() {
        let mut setup = AttackSetup::quiet(81).unwrap();
        let session = PrimeProbeSession::establish(&mut setup, &ChannelConfig::default()).unwrap();
        let out = session
            .transmit(&mut setup, &alternating_bits(16))
            .unwrap();
        // §5.2: "a probing latency that exceeds 3500 cycles".
        for &t in &out.probe_times {
            assert!(t.raw() > 3_500, "probe time {t} below the paper's floor");
        }
    }

    #[test]
    fn baseline_is_much_worse_than_the_papers_channel_under_noise() {
        // Pooled over sixteen seeds: per-seed error rates at small payload
        // sizes fluctuate enough that a single lucky P+P run can close the
        // gap (the noise streams occasionally miss the probed set), but the
        // qualitative claim — the LLC baseline is clearly noisier than the
        // MEE-cache channel — must hold in aggregate. The sessions run
        // through the parallel sweep runner with seeds split from one root,
        // so the pool is identical no matter how many worker threads the
        // host grants.
        // The Prime+Probe panel peels a whole-set eviction set from the
        // candidate pool, which needs more slack than the single-address
        // search: with the 64-candidate sweep profile one of the sixteen
        // split seeds fails peeling outright, so widen the pool for this
        // sweep while keeping the cheap establishment reps.
        let cfg = ChannelConfig {
            trojan_candidates: 96,
            ..ChannelConfig::sweep_setup()
        };
        let plan = crate::experiments::SweepPlan::new(2019, 16);
        let sweep = crate::experiments::run_fig6_sweep(&plan, 24, &cfg).unwrap();
        let pooled = sweep.pooled();
        assert_eq!(pooled.total_bits, 16 * 24);
        assert!(
            pooled.prime_probe_rate() > pooled.this_work_rate() + 0.05,
            "Prime+Probe ({:.1}%) should be clearly worse than the MEE channel ({:.1}%)",
            pooled.prime_probe_rate() * 100.0,
            pooled.this_work_rate() * 100.0
        );
        assert!(
            pooled.this_work_rate() < 0.10,
            "pooled MEE-channel error rate {:.1}% too high",
            pooled.this_work_rate() * 100.0
        );
    }
}
