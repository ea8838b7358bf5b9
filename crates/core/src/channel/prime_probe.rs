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

use mee_machine::{run_actor_refs, Actor, ActorRef, CoreHandle, StepOutcome};
use mee_types::{Cycles, ModelError, VirtAddr};

use crate::channel::config::ChannelConfig;
use crate::channel::message::BitErrors;
use crate::channel::Session;
use crate::setup::AttackSetup;

/// The trojan of the baseline: touches one address per `1` window.
#[derive(Debug)]
pub struct PpTrojanActor {
    target: VirtAddr,
    bits: Vec<bool>,
    window: Cycles,
    start: Cycles,
    state: PpTrojanState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PpTrojanState {
    WaitStart,
    BitStart(usize),
    Touch(usize),
    WaitWindowEnd(usize),
}

impl PpTrojanActor {
    /// Creates the baseline trojan.
    pub fn new(target: VirtAddr, bits: Vec<bool>, window: Cycles, start: Cycles) -> Self {
        PpTrojanActor {
            target,
            bits,
            window,
            start,
            state: PpTrojanState::WaitStart,
        }
    }

    fn window_start(&self, i: usize) -> Cycles {
        self.start + self.window * i as u64
    }
}

impl Actor for PpTrojanActor {
    fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
        match self.state {
            PpTrojanState::WaitStart => {
                cpu.busy_until(self.start);
                self.state = PpTrojanState::BitStart(0);
            }
            PpTrojanState::BitStart(i) => {
                if i >= self.bits.len() {
                    return Ok(StepOutcome::Done);
                }
                if self.bits[i] {
                    // Touch mid-window, after the spy's (long, ~4000-cycle)
                    // probe sweep of this window has drained — otherwise the
                    // eviction lands *inside* the running sweep and the
                    // baseline's window alignment becomes accidental.
                    cpu.busy_until(self.window_start(i) + self.window / 2);
                    self.state = PpTrojanState::Touch(i);
                } else {
                    cpu.busy_until(self.window_start(i + 1));
                    self.state = PpTrojanState::BitStart(i + 1);
                }
            }
            PpTrojanState::Touch(i) => {
                cpu.read(self.target)?;
                cpu.clflush(self.target)?;
                cpu.mfence();
                self.state = PpTrojanState::WaitWindowEnd(i);
            }
            PpTrojanState::WaitWindowEnd(i) => {
                cpu.busy_until(self.window_start(i + 1));
                self.state = PpTrojanState::BitStart(i + 1);
            }
        }
        Ok(StepOutcome::Running)
    }
}

/// The spy of the baseline: probes the *whole* eviction set each window,
/// timing the total sweep.
#[derive(Debug)]
pub struct PpSpyActor {
    eviction_set: Vec<VirtAddr>,
    window: Cycles,
    start: Cycles,
    bits: usize,
    state: PpSpyState,
    t1: Cycles,
    probe_times: Vec<Cycles>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PpSpyState {
    WaitWindow(usize),
    Probe(usize, usize),
    Close(usize),
    Finished,
}

impl PpSpyActor {
    /// Creates the baseline spy.
    ///
    /// # Panics
    ///
    /// Panics if the eviction set is empty.
    pub fn new(eviction_set: Vec<VirtAddr>, window: Cycles, start: Cycles, bits: usize) -> Self {
        assert!(!eviction_set.is_empty(), "eviction set must be non-empty");
        PpSpyActor {
            eviction_set,
            window,
            start,
            bits,
            state: PpSpyState::WaitWindow(0),
            t1: Cycles::ZERO,
            probe_times: Vec::new(),
        }
    }

    fn window_start(&self, i: usize) -> Cycles {
        self.start + self.window * i as u64
    }

    /// Raw full-set probe durations (index 0 is the prime sweep).
    pub fn probe_times(&self) -> &[Cycles] {
        &self.probe_times
    }

    /// Decodes with the given total-probe-time threshold: longer sweep →
    /// some way missed → `1`.
    pub fn decode(&self, threshold: Cycles) -> Vec<bool> {
        self.probe_times
            .iter()
            .skip(1)
            .map(|&t| t > threshold)
            .collect()
    }
}

impl Actor for PpSpyActor {
    fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
        match self.state {
            PpSpyState::WaitWindow(i) => {
                if i > self.bits {
                    self.state = PpSpyState::Finished;
                    return Ok(StepOutcome::Done);
                }
                cpu.busy_until(self.window_start(i));
                self.t1 = cpu.timer_read();
                self.state = PpSpyState::Probe(i, 0);
            }
            PpSpyState::Probe(i, j) => {
                let addr = self.eviction_set[j];
                cpu.read(addr)?;
                cpu.clflush(addr)?;
                if j + 1 < self.eviction_set.len() {
                    self.state = PpSpyState::Probe(i, j + 1);
                } else {
                    self.state = PpSpyState::Close(i);
                }
            }
            PpSpyState::Close(i) => {
                let t2 = cpu.timer_read();
                self.probe_times.push(t2.saturating_sub(self.t1));
                self.state = PpSpyState::WaitWindow(i + 1);
            }
            PpSpyState::Finished => return Ok(StepOutcome::Done),
        }
        Ok(StepOutcome::Running)
    }
}

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

/// Result of a baseline transmission.
#[derive(Debug, Clone)]
pub struct PrimeProbeOutcome {
    /// What the trojan sent.
    pub sent: Vec<bool>,
    /// What the spy decoded.
    pub received: Vec<bool>,
    /// Total 8-way probe durations (the y-axis of Figure 6a).
    pub probe_times: Vec<Cycles>,
    /// Positional errors.
    pub errors: BitErrors,
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

    /// Transmits `bits` over the baseline channel.
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn transmit(
        &self,
        setup: &mut AttackSetup,
        bits: &[bool],
    ) -> Result<PrimeProbeOutcome, ModelError> {
        let window = self.config.window;
        let now = setup
            .machine
            .core_now(setup.spy.core)
            .max(setup.machine.core_now(setup.trojan.core));
        let start = Cycles::new((now.raw() / window.raw() + 3) * window.raw());

        let mut trojan = PpTrojanActor::new(self.target, bits.to_vec(), window, start);
        let mut spy = PpSpyActor::new(self.eviction_set.clone(), window, start, bits.len());
        let horizon = start + window * (bits.len() as u64 + 3) + Cycles::new(100_000);
        {
            let mut actors: Vec<ActorRef<'_>> = vec![
                (setup.spy.core, setup.spy.proc, &mut spy),
                (setup.trojan.core, setup.trojan.proc, &mut trojan),
            ];
            run_actor_refs(&mut setup.machine, &mut actors, horizon)?;
        }
        let received = spy.decode(self.probe_threshold);
        let errors = BitErrors::compare(bits, &received);
        Ok(PrimeProbeOutcome {
            sent: bits.to_vec(),
            received,
            probe_times: spy.probe_times().to_vec(),
            errors,
        })
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
