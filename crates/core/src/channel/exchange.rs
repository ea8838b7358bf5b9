//! One sender, one receiver, one window exchange for every channel.
//!
//! Every channel in this crate is the same per-window pattern (§5.2–5.3):
//! once per `T_sync` window the [`Sender`] acts on each *lane* whose bit is
//! `1`, and the [`Receiver`] times one probe set per lane near the window
//! boundary. The families differ only in data, which each session's
//! constructor fixes, one value per family: the sender's lanes, phase and
//! sweep strategy, and the receiver's probe sets, [`ProbeShape`], guard
//! and timer bias.
//!
//! The sender's step sequence is the Algorithm 2 trojan's, one op per
//! step, and stays so: a [`StepHook`] fires before every step, so moving an
//! op across a step boundary would move faults relative to it.

use mee_machine::{
    run_actor_refs_hooked, Actor, ActorRef, CoreHandle, CoreId, ProcId, StepHook, StepOutcome,
};
use mee_types::{Cycles, ModelError, VirtAddr};

use crate::channel::config::EvictionStrategy;
use crate::channel::message::BitErrors;
use crate::setup::AttackSetup;

/// The result of one transmission, for every channel family.
#[derive(Debug, Clone)]
#[must_use = "a transmission outcome carries the decoded bits and error statistics"]
pub struct TransmitOutcome {
    /// What the sender sent.
    pub sent: Vec<bool>,
    /// What the receiver decoded.
    pub received: Vec<bool>,
    /// The receiver's de-biased probe durations, one per lane per round
    /// (the first round is the prime probe): the y-axis of Figures 6 and 8.
    pub probe_times: Vec<Cycles>,
    /// Positional bit errors.
    pub errors: BitErrors,
    /// Wall-clock (simulated) duration of the transmission.
    pub elapsed: Cycles,
    /// Achieved rate in kilobytes per second at the machine's clock.
    pub kbps: f64,
    /// The sender's active cost per window with a `1` lane (≈ 9000 cycles
    /// for one Algorithm 2 lane, §5.4).
    pub one_costs: Vec<Cycles>,
}

impl TransmitOutcome {
    /// Bit error rate in `[0, 1]`.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.errors.rate()
    }
}

/// How the [`Receiver`] treats the lines of a probe set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeShape {
    /// Time the reads and flush each line after the closing timer read,
    /// outside the measurement (Algorithm 2 and the wide channel).
    FlushAfter,
    /// `read` + `clflush` per address inside the measurement (the MEE
    /// Prime+Probe baseline).
    TimedFlush,
    /// Reads only (LLC Prime+Probe): the set's lines alias in L1/L2, so
    /// conflict misses carry the reads through to the LLC.
    NoFlush,
}

/// The sending actor. In each window with a `1` lane it waits until
/// `W(i) + phase`, then, for every `1` lane in order, sweeps the lane's
/// addresses (`read` + `clflush`, one address per step), fences in a step
/// of its own and, under [`EvictionStrategy::TwoPhase`], sweeps them again
/// backwards (the approximate-LRU countermeasure of §5.3). It then records
/// the window's active cost and busy-waits to the next boundary. A window
/// with no `1` lane is one busy-wait (Algorithm 2: "busy loop for time
/// `T_sync`").
///
/// One refinement over the paper's pseudocode: the sweep's starting
/// element rotates from one active window to the next (the order stays
/// cyclic-forward then cyclic-backward). Under a deterministic tree-PLRU
/// model, a fixed sweep order can fall into an *absorbing
/// replacement-state cycle* in which the monitor line survives every sweep
/// and the channel silently dies; on real hardware, ambient MEE traffic
/// perturbs the replacement state and prevents the lock-in. Rotating the
/// start point restores that behaviour without extra accesses.
#[derive(Debug)]
pub struct Sender {
    lanes: Vec<Vec<VirtAddr>>,
    /// Window-major: window `i` carries `bits[i * lanes .. (i + 1) * lanes]`.
    bits: Vec<bool>,
    window: Cycles,
    start: Cycles,
    phase: Cycles,
    strategy: EvictionStrategy,
    rotate: bool,
    /// Sweep-start rotation, advanced per active window.
    rotation: usize,
    state: SendState,
    one_costs: Vec<Cycles>,
    active_since: Cycles,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendState {
    WaitStart,
    Window(usize),
    /// (window, lane, sweep index)
    Forward(usize, usize, usize),
    /// (window, lane)
    Fence(usize, usize),
    Backward(usize, usize, usize),
    WaitWindowEnd(usize),
}

impl Sender {
    /// Creates the sender. `start` is the agreed first window boundary and
    /// `phase` the offset of the sender's action from each window start;
    /// `rotate` enables sweep-start rotation (the ablation disables it to
    /// study the naive fixed order).
    ///
    /// # Panics
    ///
    /// Panics if there are no lanes, if any lane's address set is empty,
    /// or if `bits.len()` is not a multiple of the lane count.
    pub fn new(
        lanes: Vec<Vec<VirtAddr>>,
        bits: Vec<bool>,
        window: Cycles,
        start: Cycles,
        strategy: EvictionStrategy,
        rotate: bool,
        phase: Cycles,
    ) -> Self {
        assert!(
            !lanes.is_empty() && lanes.iter().all(|set| !set.is_empty()),
            "a sender needs lanes, each with a non-empty address set"
        );
        assert_eq!(bits.len() % lanes.len(), 0, "bits must fill whole windows");
        Sender {
            lanes,
            bits,
            window,
            start,
            phase,
            strategy,
            rotate,
            rotation: 0,
            state: SendState::WaitStart,
            one_costs: Vec::new(),
            active_since: Cycles::ZERO,
        }
    }

    /// Active sending cost of each window that had a `1` lane, so far.
    pub fn one_costs(&self) -> &[Cycles] {
        &self.one_costs
    }

    /// First lane at or after `lane` whose bit is `1` in window `i`.
    fn next_active(&self, i: usize, lane: usize) -> Option<usize> {
        let row = &self.bits[i * self.lanes.len()..(i + 1) * self.lanes.len()];
        (lane..row.len()).find(|&l| row[l])
    }

    /// `read` + `clflush` of the `j`-th address of `lane`'s rotated order.
    fn touch(&self, cpu: &mut CoreHandle<'_>, lane: usize, j: usize) -> Result<(), ModelError> {
        let set = &self.lanes[lane];
        let addr = set[(self.rotation + j) % set.len()];
        cpu.read(addr)?;
        cpu.clflush(addr)?;
        Ok(())
    }

    /// `lane` is swept: move on to the window's next `1` lane, or close the
    /// window (record its cost, rotate) and wait out the rest of it.
    fn lane_done(&mut self, cpu: &CoreHandle<'_>, i: usize, lane: usize) -> SendState {
        if let Some(next) = self.next_active(i, lane + 1) {
            return SendState::Forward(i, next, 0);
        }
        self.one_costs.push(cpu.now() - self.active_since);
        if self.rotate {
            self.rotation += 1;
        }
        SendState::WaitWindowEnd(i)
    }
}

impl Actor for Sender {
    fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
        self.state = match self.state {
            SendState::WaitStart => {
                cpu.busy_until(self.start);
                SendState::Window(0)
            }
            SendState::Window(i) => {
                if i * self.lanes.len() >= self.bits.len() {
                    return Ok(StepOutcome::Done);
                }
                match self.next_active(i, 0) {
                    Some(lane) => {
                        cpu.busy_until(self.start + self.window * i as u64 + self.phase);
                        self.active_since = cpu.now();
                        SendState::Forward(i, lane, 0)
                    }
                    None => {
                        cpu.busy_until(self.start + self.window * (i as u64 + 1));
                        SendState::Window(i + 1)
                    }
                }
            }
            SendState::Forward(i, lane, j) => {
                self.touch(cpu, lane, j)?;
                if j + 1 < self.lanes[lane].len() {
                    SendState::Forward(i, lane, j + 1)
                } else {
                    SendState::Fence(i, lane)
                }
            }
            SendState::Fence(i, lane) => {
                cpu.mfence();
                match self.strategy {
                    EvictionStrategy::TwoPhase => {
                        SendState::Backward(i, lane, self.lanes[lane].len() - 1)
                    }
                    EvictionStrategy::ForwardOnly => self.lane_done(cpu, i, lane),
                }
            }
            SendState::Backward(i, lane, j) => {
                self.touch(cpu, lane, j)?;
                if j > 0 {
                    SendState::Backward(i, lane, j - 1)
                } else {
                    self.lane_done(cpu, i, lane)
                }
            }
            SendState::WaitWindowEnd(i) => {
                // "busy loop for remaining time of T_sync".
                cpu.busy_until(self.start + self.window * (i as u64 + 1));
                SendState::Window(i + 1)
            }
        };
        Ok(StepOutcome::Running)
    }
}

/// The receiving actor. Once per window, a `guard` interval before the
/// boundary `W(i)`, it times each lane's probe set between two reads of the
/// hyperthread timer mailbox (`rdtsc` is unavailable in an enclave, §3,
/// Figure 2(c)), re-reading the opening timestamp before each lane, and
/// records the duration minus the timer's `bias`. Probe `i` observes
/// window `i - 1` and re-primes the lines for window `i` ("the probe …
/// effectively primes the MEE cache", §5.3); probe 0 only primes.
///
/// The guard puts the probe where the sender's action for the window has
/// long finished, so the probe never queues behind the sender's walks in
/// the shared MEE pipeline. (Algorithm 2 fixes only the window length; the
/// phase within the window is the implementer's choice.)
#[derive(Debug)]
pub struct Receiver {
    lanes: Vec<Vec<VirtAddr>>,
    window: Cycles,
    start: Cycles,
    /// Data windows to receive; one prime round precedes them.
    windows: usize,
    shape: ProbeShape,
    guard: Cycles,
    bias: Cycles,
    state: RecvState,
    t1: Cycles,
    probe_times: Vec<Cycles>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecvState {
    Window(usize),
    /// (round, lane, probe index) — the opening timestamp is taken.
    Probe(usize, usize, usize),
    /// (round, lane) — every read is done; close the measurement.
    Close(usize, usize),
}

impl Receiver {
    /// Creates the receiver. `start` is the agreed first window boundary;
    /// it probes `windows + 1` rounds, at `W(0..=windows) - guard`, and
    /// subtracts the timer overhead `bias` from every duration.
    ///
    /// # Panics
    ///
    /// Panics if there are no lanes or any probe set is empty.
    pub fn new(
        lanes: Vec<Vec<VirtAddr>>,
        window: Cycles,
        start: Cycles,
        windows: usize,
        shape: ProbeShape,
        guard: Cycles,
        bias: Cycles,
    ) -> Self {
        assert!(
            !lanes.is_empty() && lanes.iter().all(|set| !set.is_empty()),
            "a receiver needs lanes, each with a non-empty probe set"
        );
        let probes = (windows + 1) * lanes.len();
        Receiver {
            lanes,
            window,
            start,
            windows,
            shape,
            guard,
            bias,
            state: RecvState::Window(0),
            t1: Cycles::ZERO,
            probe_times: Vec::with_capacity(probes),
        }
    }

    /// De-biased probe durations, one per lane per round (the first round
    /// is the prime probe).
    pub fn probe_times(&self) -> &[Cycles] {
        &self.probe_times
    }

    /// Decodes every data probe with `is_one`, lane-major within each
    /// window (the prime round is skipped).
    pub fn decode(&self, is_one: impl Fn(Cycles) -> bool) -> Vec<bool> {
        self.probe_times
            .iter()
            .skip(self.lanes.len())
            .map(|&t| is_one(t))
            .collect()
    }
}

impl Actor for Receiver {
    fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
        self.state = match self.state {
            RecvState::Window(i) => {
                if i > self.windows {
                    return Ok(StepOutcome::Done);
                }
                let boundary = self.start + self.window * i as u64;
                cpu.busy_until(boundary.saturating_sub(self.guard));
                self.t1 = cpu.timer_read();
                RecvState::Probe(i, 0, 0)
            }
            RecvState::Probe(i, lane, j) => {
                let addr = self.lanes[lane][j];
                cpu.read(addr)?;
                if self.shape == ProbeShape::TimedFlush {
                    cpu.clflush(addr)?;
                }
                if j + 1 < self.lanes[lane].len() {
                    RecvState::Probe(i, lane, j + 1)
                } else {
                    RecvState::Close(i, lane)
                }
            }
            RecvState::Close(i, lane) => {
                let t2 = cpu.timer_read();
                if self.shape == ProbeShape::FlushAfter {
                    for &addr in &self.lanes[lane] {
                        cpu.clflush(addr)?;
                    }
                }
                let raw = t2.saturating_sub(self.t1);
                self.probe_times.push(raw.saturating_sub(self.bias));
                if lane + 1 < self.lanes.len() {
                    self.t1 = cpu.timer_read();
                    RecvState::Probe(i, lane + 1, 0)
                } else {
                    RecvState::Window(i + 1)
                }
            }
        };
        Ok(StepOutcome::Running)
    }
}

/// One channel's window exchange, as its session describes it: `sender`
/// and `receiver` are each side's core and process; `lanes`, `strategy`,
/// `rotate` and `phase` configure the [`Sender`]; `probes` (one set per
/// lane, in lane order), `shape`, `guard` and `bias` the [`Receiver`].
#[derive(Debug)]
pub(crate) struct Exchange {
    pub sender: (CoreId, ProcId),
    pub receiver: (CoreId, ProcId),
    pub window: Cycles,
    pub lanes: Vec<Vec<VirtAddr>>,
    pub strategy: EvictionStrategy,
    pub rotate: bool,
    pub phase: Cycles,
    pub probes: Vec<Vec<VirtAddr>>,
    pub shape: ProbeShape,
    pub guard: Cycles,
    pub bias: Cycles,
}

impl Exchange {
    /// Transmits `bits` (window `w` carries bits `w*lanes .. (w+1)*lanes`,
    /// zero-padded at the tail): agrees on a start boundary three windows
    /// past both clocks, runs the receiver, the sender and any `noise`
    /// actors under `hook`, and decodes each data probe with `is_one`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for a zero window; propagates
    /// machine errors, including the hook's.
    pub(crate) fn run(
        self,
        setup: &mut AttackSetup,
        bits: &[bool],
        noise: &mut [ActorRef<'_>],
        hook: &mut dyn StepHook,
        is_one: impl Fn(Cycles) -> bool,
    ) -> Result<TransmitOutcome, ModelError> {
        let window = self.window;
        if window == Cycles::ZERO {
            return Err(ModelError::InvalidConfig {
                reason: "a window exchange needs a non-zero window".into(),
            });
        }
        // Host-time span over the wire transmission: wall-clock only,
        // recorded at the end, so the simulated transcript is untouched.
        let host_start = std::time::Instant::now();
        let lanes = self.lanes.len();
        let windows = bits.len().div_ceil(lanes);
        let mut padded = bits.to_vec();
        padded.resize(windows * lanes, false);

        let now = setup
            .machine
            .core_now(self.receiver.0)
            .max(setup.machine.core_now(self.sender.0));
        let start = Cycles::new((now.raw() / window.raw() + 3) * window.raw());
        let mut sender = Sender::new(
            self.lanes,
            padded,
            window,
            start,
            self.strategy,
            self.rotate,
            self.phase,
        );
        let mut receiver = Receiver::new(
            self.probes,
            window,
            start,
            windows,
            self.shape,
            self.guard,
            self.bias,
        );

        let horizon = start + window * (windows as u64 + 3) + Cycles::new(100_000);
        let n = bits.len() as u64;
        setup.machine.trace_phase("transmit_start", n, start);
        let mut actors: Vec<ActorRef<'_>> = vec![
            (self.receiver.0, self.receiver.1, &mut receiver),
            (self.sender.0, self.sender.1, &mut sender),
        ];
        for (core, proc, actor) in noise.iter_mut() {
            actors.push((*core, *proc, &mut **actor));
        }
        run_actor_refs_hooked(&mut setup.machine, &mut actors, horizon, hook)?;
        let t_end = setup.machine.core_now(self.receiver.0);
        setup.machine.trace_phase("transmit_end", n, t_end);
        setup
            .machine
            .obs_mut()
            .host
            .record("transmit", host_start.elapsed());

        let mut received = receiver.decode(is_one);
        received.truncate(bits.len());
        let errors = BitErrors::compare(bits, &received);
        let elapsed = window * (windows as u64 + 1);
        let clock_hz = setup.machine.config().timing.clock_hz();
        let kbps = (bits.len() as f64 / 8.0) / elapsed.to_seconds(clock_hz) / 1000.0;
        Ok(TransmitOutcome {
            sent: bits.to_vec(),
            received,
            probe_times: receiver.probe_times,
            errors,
            elapsed,
            kbps,
            one_costs: sender.one_costs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::AttackSetup;
    use crate::threshold::LatencyClassifier;
    use mee_machine::{run_actors, ActorBinding};
    use mee_types::TimingConfig;

    /// Algorithm 2's sender on one eviction set: two-phase, rotating,
    /// phase 0.
    fn sweep_sender(
        addrs: Vec<VirtAddr>,
        bits: Vec<bool>,
        window: Cycles,
        start: Cycles,
    ) -> Sender {
        Sender::new(
            vec![addrs],
            bits,
            window,
            start,
            EvictionStrategy::TwoPhase,
            true,
            Cycles::ZERO,
        )
    }

    /// Algorithm 2's receiver on one monitor address, guard as the session
    /// computes it.
    fn monitor_receiver(
        monitor: VirtAddr,
        window: Cycles,
        start: Cycles,
        windows: usize,
        t: &TimingConfig,
    ) -> Receiver {
        let guard = Cycles::new((window.raw() / 10).clamp(400, 1_200));
        let bias = LatencyClassifier::for_timer_probes(t).bias;
        Receiver::new(
            vec![vec![monitor]],
            window,
            start,
            windows,
            ProbeShape::FlushAfter,
            guard,
            bias,
        )
    }

    #[test]
    fn zero_bits_cost_nothing_but_time() {
        let mut setup = AttackSetup::quiet(51).unwrap();
        let addrs = setup.trojan.candidates(8, 0);
        let window = Cycles::new(15_000);
        let trojan = sweep_sender(addrs, vec![false; 3], window, Cycles::new(1_000));
        let reads_before = setup.machine.mee().stats().reads;
        let mut bindings = vec![ActorBinding {
            core: setup.trojan.core,
            proc: setup.trojan.proc,
            actor: Box::new(trojan),
        }];
        run_actors(&mut setup.machine, &mut bindings, Cycles::new(1_000_000)).unwrap();
        assert_eq!(setup.machine.mee().stats().reads, reads_before);
        assert!(setup.machine.core_now(setup.trojan.core) >= Cycles::new(1_000 + 45_000));
    }

    #[test]
    fn one_bit_costs_about_9000_cycles() {
        let mut setup = AttackSetup::quiet(52).unwrap();
        let addrs = setup.trojan.candidates(8, 0);
        // Warm the eviction set once so the measurement reflects steady
        // state (mostly versions hits), as during a real transmission.
        {
            let mut cpu = setup.trojan_handle();
            for &a in &addrs {
                cpu.read(a).unwrap();
                cpu.clflush(a).unwrap();
            }
        }
        let start = setup.machine.core_now(setup.trojan.core) + Cycles::new(1_000);
        let mut trojan = sweep_sender(addrs, vec![true; 4], Cycles::new(15_000), start);
        // Single actor: drive it directly, no scheduler needed.
        let mut cpu = setup.trojan_handle();
        while trojan.step(&mut cpu).unwrap() == StepOutcome::Running {}
        assert_eq!(trojan.one_costs().len(), 4);
        for &c in trojan.one_costs() {
            assert!(
                (7_000..=12_000).contains(&c.raw()),
                "one-bit cost {c} outside the §5.4 ballpark"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_eviction_set_rejected() {
        let _ = sweep_sender(Vec::new(), vec![true], Cycles::new(100), Cycles::ZERO);
    }

    #[test]
    fn spy_alone_decodes_all_zeroes() {
        // With no trojan, every probe after the prime is a versions hit.
        let mut setup = AttackSetup::quiet(61).unwrap();
        let monitor = setup.spy.candidate(0, 0);
        let t = setup.machine.config().timing.clone();
        let threshold = LatencyClassifier::for_timer_probes(&t).threshold;
        let mut spy = monitor_receiver(monitor, Cycles::new(15_000), Cycles::new(2_000), 8, &t);
        let mut cpu = setup.spy_handle();
        while spy.step(&mut cpu).unwrap() == StepOutcome::Running {}
        assert_eq!(spy.probe_times().len(), 9);
        assert_eq!(spy.decode(|t| t >= threshold), vec![false; 8]);
        // Probe durations sit near the versions-hit anchor (~480 cycles),
        // within timer quantization.
        for &t in &spy.probe_times()[1..] {
            assert!(
                (380..=600).contains(&t.raw()),
                "probe time {t} far from the 480-cycle anchor"
            );
        }
    }

    #[test]
    fn spy_probes_land_on_window_boundaries() {
        let mut setup = AttackSetup::quiet(62).unwrap();
        let monitor = setup.spy.candidate(0, 0);
        let t = setup.machine.config().timing.clone();
        let mut spy = monitor_receiver(monitor, Cycles::new(10_000), Cycles::new(5_000), 3, &t);
        let mut cpu = setup.spy_handle();
        // Step until the first probe completes; it fires in the guard slot
        // just before the boundary, so the clock lands near (and never far
        // past) the boundary itself.
        while spy.probe_times().is_empty() {
            spy.step(&mut cpu).unwrap();
        }
        let now = cpu.now().raw();
        assert!(
            (4_000..5_000 + 1_500).contains(&now),
            "first probe at {now}"
        );
    }
}
