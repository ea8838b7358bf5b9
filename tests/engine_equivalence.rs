//! The differential gate for the actor scheduler. Production has one
//! scheduler, the event-queue core behind `run_actor_refs_hooked`; this
//! file holds it *bit-identical* to [`reference_scan`], the original
//! min-clock scan, which lives here and nowhere else.
//!
//! * The full-session tier establishes a real channel, builds the sender
//!   and receiver actors exactly as `Session::transmit_hooked` does, and runs
//!   them once under each scheduler, clean and under a light fault plan.
//!   Decoded bits, probe latencies, one-costs, final clocks, MEE/LLC
//!   statistics and fired fault times must all match. A third leg ties the
//!   test-built actors to `Session::transmit_hooked` itself, so a change to
//!   the session's actor construction fails here instead of leaving the
//!   tier testing something else.
//! * The seeded actor-level property binds 1–4 small actors to distinct
//!   cores, all starting at clock 0 (so the slot tie-break decides the
//!   first steps), under an `EveryStep`, `At(t)` or `Idle` hook, and
//!   demands identical hook times, read latencies, final clocks and
//!   results, the deadlock guard included.
//!
//! The trace tier below the scheduler pins the translation memo and the
//! batched sweep with the [`DifferentialOracle`] on the establishment
//! ladder. `MEE_PROP_CASES` raises the case counts; `MEE_PROP_SEED`
//! replays one case from a failure's one-line recipe.

use mee_covert::attack::channel::{
    random_bits, ChannelConfig, ProbeShape, Receiver, Sender, Session,
};
use mee_covert::attack::setup::AttackSetup;
use mee_covert::attack::threshold::LatencyClassifier;
use mee_covert::cache::CacheStats;
use mee_covert::engine::MeeStats;
use mee_covert::faults::{FaultInjector, FaultIntensity, FaultPlan, FaultTargets};
use mee_covert::machine::{
    run_actor_refs_hooked, Actor, ActorRef, CoreHandle, CoreId, HookSchedule, Machine,
    MachineConfig, NoopHook, PolicyKind, ProcId, StepHook, StepOutcome,
};
use mee_covert::mem::{AddressSpaceKind, DramConfig};
use mee_covert::rng::prop::{check, PropConfig};
use mee_covert::rng::Rng;
use mee_covert::spec::machine_spec::tiny_config;
use mee_covert::spec::oracle::{run_trace, OpKind, OracleOp, Transcript, SPY_BASE, TROJAN_BASE};
use mee_covert::spec::DifferentialOracle;
use mee_covert::testbed;
use mee_covert::types::{Cycles, ModelError, TimingConfig, VirtAddr};

/// An actor that makes this many consecutive steps without advancing its
/// clock is declared deadlocked (the production scheduler's limit).
const STUCK_LIMIT: u32 = 100_000;

/// The reference scheduler: before every step, scan the runnable actors
/// for the smallest core clock (the *first* such binding slot on ties),
/// call the hook at that time, then re-pick so the choice respects
/// whatever the hook did to the clocks. The hook is called before every
/// step whatever its [`StepHook::schedule`] says, so this also checks that
/// the calls production skips are no-ops. Bindings are assumed valid.
fn reference_scan(
    machine: &mut Machine,
    actors: &mut [ActorRef<'_>],
    horizon: Cycles,
    hook: &mut dyn StepHook,
) -> Result<(), ModelError> {
    let mut done = vec![false; actors.len()];
    let mut stuck_count = vec![0u32; actors.len()];
    let pick = |machine: &Machine, actors: &[ActorRef<'_>], done: &[bool]| {
        actors
            .iter()
            .enumerate()
            .filter(|(i, (core, _, _))| !done[*i] && machine.core_now(*core) < horizon)
            .min_by_key(|(_, (core, _, _))| machine.core_now(*core))
            .map(|(i, _)| i)
    };
    loop {
        let Some(i) = pick(machine, actors, &done) else {
            return Ok(());
        };
        hook.before_step(machine, machine.core_now(actors[i].0))?;
        let Some(i) = pick(machine, actors, &done) else {
            return Ok(());
        };
        let (core, proc, actor) = &mut actors[i];
        let before = machine.core_now(*core);
        let outcome = actor.step(&mut CoreHandle::new(machine, *core, *proc))?;
        if outcome == StepOutcome::Done {
            done[i] = true;
        } else if machine.core_now(*core) == before {
            stuck_count[i] += 1;
            if stuck_count[i] > STUCK_LIMIT {
                return Err(ModelError::InvalidConfig {
                    reason: format!(
                        "actor on {core} made {STUCK_LIMIT} steps without advancing its clock"
                    ),
                });
            }
        } else {
            stuck_count[i] = 0;
        }
    }
}

/// A scheduler: production's `run_actor_refs_hooked` or [`reference_scan`].
type Schedule =
    fn(&mut Machine, &mut [ActorRef<'_>], Cycles, &mut dyn StepHook) -> Result<(), ModelError>;

fn final_clocks(machine: &Machine) -> Vec<u64> {
    (0..machine.core_count())
        .map(|c| machine.core_now(CoreId::new(c)).raw())
        .collect()
}

// ---------------------------------------------------------------------------
// Actor-level property.

/// A property actor. With `lines` it reads then flushes them in turn for
/// `remaining` steps, recording each latency: whichever core touches a
/// line first pays for the walk, so the order the scheduler picks shows up
/// in the latencies. Without `lines` it burns `stride` cycles a step until
/// the horizon (equal strides keep actors tied), and with a zero stride it
/// never advances its clock, which trips the deadlock guard.
#[derive(Debug, Clone)]
struct TestActor {
    lines: Vec<VirtAddr>,
    remaining: usize,
    stride: u64,
    latencies: Vec<Cycles>,
}

impl Actor for TestActor {
    fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
        if self.lines.is_empty() {
            if self.stride > 0 {
                cpu.advance(Cycles::new(self.stride));
            }
            return Ok(StepOutcome::Running);
        }
        if self.remaining == 0 {
            return Ok(StepOutcome::Done);
        }
        self.remaining -= 1;
        let line = self.lines[self.remaining % self.lines.len()];
        self.latencies.push(cpu.read(line)?);
        cpu.clflush(line)?;
        Ok(StepOutcome::Running)
    }
}

/// Preempts `core` by `burst` the first time global time reaches `at`,
/// declaring `schedule` (`At(at)` turns `Idle` once fired). It records
/// the global time of every call that can have an effect: every call for
/// `EveryStep`, only the firing call for `At` (before `at` the call must
/// be a no-op, recording included, since production skips it), none for
/// `Idle`.
#[derive(Debug, Clone)]
struct PreemptHook {
    schedule: HookSchedule,
    at: Cycles,
    core: CoreId,
    burst: Cycles,
    times: Vec<Cycles>,
}

impl StepHook for PreemptHook {
    fn before_step(&mut self, machine: &mut Machine, now: Cycles) -> Result<(), ModelError> {
        let fires = now >= self.at && self.schedule != HookSchedule::Idle;
        if fires || self.schedule == HookSchedule::EveryStep {
            self.times.push(now);
        }
        if fires {
            machine.preempt_until(self.core, now + self.burst);
            // Fire once.
            self.at = Cycles::new(u64::MAX);
            if matches!(self.schedule, HookSchedule::At(_)) {
                self.schedule = HookSchedule::Idle;
            }
        }
        Ok(())
    }

    fn schedule(&self) -> HookSchedule {
        self.schedule
    }
}

/// Everything observable about one actor-level run.
#[derive(Debug, PartialEq)]
struct ActorRun {
    result: Result<(), ModelError>,
    hook_times: Vec<Cycles>,
    latencies: Vec<Vec<Cycles>>,
    final_clocks: Vec<u64>,
}

/// Runs fresh copies of `actors`, bound to `cores` of a fresh `cfg`
/// machine, and of `hook` under `schedule`.
fn run_actor_case(
    schedule: Schedule,
    cfg: &MachineConfig,
    actors: &[TestActor],
    cores: &[CoreId],
    hook: &PreemptHook,
    horizon: Cycles,
) -> ActorRun {
    let mut m = Machine::new(cfg.clone()).expect("machine");
    let p = m.create_process(AddressSpaceKind::Enclave);
    m.map_pages(p, VirtAddr::new(0x40_0000), 2).expect("map");
    let mut actors = actors.to_vec();
    let mut hook = hook.clone();
    let mut refs: Vec<ActorRef<'_>> = actors
        .iter_mut()
        .zip(cores)
        .map(|(a, &core)| (core, p, a as &mut dyn Actor))
        .collect();
    let result = schedule(&mut m, &mut refs, horizon, &mut hook);
    ActorRun {
        result,
        hook_times: hook.times,
        latencies: actors.into_iter().map(|a| a.latencies).collect(),
        final_clocks: final_clocks(&m),
    }
}

#[test]
fn reference_scan_agrees_on_seeded_actor_runs() {
    check(
        "reference_scan_agrees_on_seeded_actor_runs",
        &PropConfig::from_env(32),
        |rng: &mut Rng| {
            let small = MachineConfig::small();
            let cfg = if rng.random() {
                small
            } else {
                // DRAM jitter and background stalls on: latencies then also
                // depend on the order the shared noise streams are drawn.
                MachineConfig {
                    timing: TimingConfig::default(),
                    dram: DramConfig::default(),
                    ..small
                }
            };
            let n = rng.random_range(1usize..5);
            let mut cores: Vec<CoreId> = (0..cfg.cores).map(CoreId::new).collect();
            for i in 0..n {
                let j = rng.random_range(i..cores.len());
                cores.swap(i, j);
            }
            cores.truncate(n);
            // A small pool of lines in one page, shared by every reader.
            let pool: Vec<VirtAddr> = (0..4)
                .map(|_| VirtAddr::new(0x40_0000 + 64 * rng.random_range(0u64..64)))
                .collect();
            let actors: Vec<TestActor> = (0..n)
                .map(|_| {
                    let kind = rng.random_range(0u32..16);
                    TestActor {
                        lines: if kind < 9 { pool.clone() } else { Vec::new() },
                        remaining: rng.random_range(1usize..60),
                        stride: if kind < 15 {
                            100 * rng.random_range(1u64..4)
                        } else {
                            0
                        },
                        latencies: Vec::new(),
                    }
                })
                .collect();
            let horizon = Cycles::new(rng.random_range(2_000u64..60_000));
            // A multiple of 100, so spinner clocks can land on it exactly.
            let at = Cycles::new(100 * rng.random_range(0..horizon.raw() / 100));
            let hook = PreemptHook {
                schedule: match rng.random_range(0u32..3) {
                    0 => HookSchedule::EveryStep,
                    1 => HookSchedule::At(at),
                    _ => HookSchedule::Idle,
                },
                at,
                core: cores[rng.random_range(0..n)],
                burst: Cycles::new(rng.random_range(1u64..20_000)),
                times: Vec::new(),
            };
            let production =
                run_actor_case(run_actor_refs_hooked, &cfg, &actors, &cores, &hook, horizon);
            let reference = run_actor_case(reference_scan, &cfg, &actors, &cores, &hook, horizon);
            assert_eq!(
                production, reference,
                "schedulers diverged: actors {actors:?} on {cores:?}, hook {hook:?}, \
                 horizon {horizon}"
            );
        },
    );
}

// ---------------------------------------------------------------------------
// Full-session tier.

/// Everything observable about a full scheduler-driven session.
#[derive(Debug, Clone, PartialEq)]
struct SessionFingerprint {
    eviction_set: Vec<VirtAddr>,
    monitor: VirtAddr,
    received: Vec<bool>,
    probe_times: Vec<Cycles>,
    one_costs: Vec<Cycles>,
    final_clocks: Vec<u64>,
    mee_stats: MeeStats,
    llc_stats: CacheStats,
    fired: Vec<Cycles>,
}

/// Establishes the channel on a fresh seed-`testbed::SEED` setup, then
/// transmits `bits` under `plan` when one is given: through test-built
/// actors under `schedule`, or through `Session::transmit_hooked` itself
/// when `schedule` is `None`.
fn run_session(
    schedule: Option<Schedule>,
    plan: Option<&FaultPlan>,
    bits: &[bool],
) -> SessionFingerprint {
    let mut setup = AttackSetup::new(testbed::SEED).expect("setup");
    let session = Session::establish(&mut setup, &ChannelConfig::sweep_setup()).expect("establish");
    let mut injector = plan.map(|plan| FaultInjector::new(plan.clone()));
    let mut noop = NoopHook;
    let hook: &mut dyn StepHook = match injector.as_mut() {
        Some(injector) => injector,
        None => &mut noop,
    };
    let (received, probe_times, one_costs) = match schedule {
        None => {
            let outcome = session
                .transmit_hooked(&mut setup, bits, &mut [], hook)
                .expect("transmit");
            (outcome.received, outcome.probe_times, outcome.one_costs)
        }
        Some(schedule) => {
            // Exactly the actors `Session::transmit_hooked` builds.
            let window = session.config.window;
            let now = setup
                .machine
                .core_now(session.receiver.core)
                .max(setup.machine.core_now(session.sender.core));
            let start = Cycles::new((now.raw() / window.raw() + 3) * window.raw());
            let mut sender = Sender::new(
                vec![session.eviction_set.clone()],
                bits.to_vec(),
                window,
                start,
                session.config.strategy,
                session.config.rotate_sweep,
                Cycles::ZERO,
            );
            let classifier = LatencyClassifier::for_timer_probes(&setup.machine.config().timing);
            let mut receiver = Receiver::new(
                vec![vec![session.monitor]],
                window,
                start,
                bits.len(),
                ProbeShape::FlushAfter,
                Cycles::new((window.raw() / 10).clamp(400, 1_200)),
                classifier.bias,
            );
            let horizon = start + window * (bits.len() as u64 + 3) + Cycles::new(100_000);
            let mut actors: Vec<ActorRef<'_>> = vec![
                (session.receiver.core, session.receiver.proc, &mut receiver),
                (session.sender.core, session.sender.proc, &mut sender),
            ];
            schedule(&mut setup.machine, &mut actors, horizon, hook).expect("transmit");
            (
                receiver.decode(|t| t >= classifier.threshold),
                receiver.probe_times().to_vec(),
                sender.one_costs().to_vec(),
            )
        }
    };
    SessionFingerprint {
        eviction_set: session.eviction_set.clone(),
        monitor: session.monitor,
        received,
        probe_times,
        one_costs,
        final_clocks: final_clocks(&setup.machine),
        mee_stats: setup.machine.mee().stats(),
        llc_stats: setup.machine.llc().stats(),
        fired: injector.map_or_else(Vec::new, |i| i.applied().iter().map(|e| e.at).collect()),
    }
}

/// The three legs: production and the reference scan on test-built actors
/// must agree, and the test-built actors must be the session's own.
fn assert_sessions_agree(plan: Option<&FaultPlan>, bits: &[bool]) -> SessionFingerprint {
    let production = run_session(Some(run_actor_refs_hooked), plan, bits);
    let reference = run_session(Some(reference_scan), plan, bits);
    assert_eq!(
        production, reference,
        "production scheduler diverged from the reference scan"
    );
    let session = run_session(None, plan, bits);
    assert_eq!(
        production, session,
        "test-built actors no longer match Session::transmit_hooked"
    );
    production
}

#[test]
fn full_session_bit_identical_across_engines() {
    let bits = random_bits(24, testbed::SEED ^ 0x5e55);
    let fp = assert_sessions_agree(None, &bits);
    assert_eq!(fp.received.len(), bits.len());
}

#[test]
fn faulted_session_bit_identical_across_engines() {
    // The resilience shape: a light fault plan (preemption bursts, clock
    // drift, MEE flushes) riding on the transmission. Preemptions move a
    // core's clock while its wake-up is queued — the event queue's
    // lazy-reschedule path — and the injector's `At` schedule must fire
    // each fault before the exact step the every-step reference fires it.
    let bits = random_bits(24, testbed::SEED ^ 0xfa51);
    let targets = FaultTargets::cores(CoreId::new(0), CoreId::new(1));
    let plan = FaultPlan::generate(
        FaultIntensity::Light,
        &targets,
        Cycles::new(200_000),
        Cycles::new(2_000_000),
        testbed::SEED,
    );
    assert!(!plan.is_empty(), "light plan should carry events");
    let fp = assert_sessions_agree(Some(&plan), &bits);
    assert!(
        !fp.fired.is_empty(),
        "plan should actually fire during transmit"
    );
}

// ---------------------------------------------------------------------------
// Trace tier: the translation memo and the batched sweep.

/// The oracle's two-enclave machine (2-set × 2-way MEE cache) with four
/// pages per enclave — room for an establishment-shaped candidate ladder —
/// and its translation memo on (the config's default size) or off.
fn ladder_machine(memo: bool) -> Result<(Machine, Vec<ProcId>), ModelError> {
    let mut cfg = tiny_config(PolicyKind::TreePlru);
    if !memo {
        cfg.tlb_entries = 0;
    }
    let mut m = Machine::new(cfg)?;
    let spy = m.create_process(AddressSpaceKind::Enclave);
    m.map_pages(spy, VirtAddr::new(SPY_BASE), 4)?;
    let trojan = m.create_process(AddressSpaceKind::Enclave);
    m.map_pages(trojan, VirtAddr::new(TROJAN_BASE), 4)?;
    Ok((m, vec![spy, trojan]))
}

/// A random instruction trace over both enclaves' first two pages: mostly
/// reads and flushes (the attack's vocabulary), some writes, fences, and
/// idle spins.
fn random_trace(rng: &mut Rng) -> Vec<OracleOp> {
    let len = rng.random_range(20usize..120);
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let core = rng.random_range(0usize..2);
        let proc = rng.random_range(0usize..2);
        let base = if proc == 0 { SPY_BASE } else { TROJAN_BASE };
        // Two pages per enclave = 128 cache lines to aim at.
        let va = base + 64 * rng.random_range(0u64..128);
        ops.push(match rng.random_range(0u32..8) {
            0..=3 => OracleOp::read(core, proc, va),
            4 => OracleOp::write(core, proc, va, rng.random()),
            5 | 6 => OracleOp::clflush(core, proc, va),
            _ if rng.random() => OracleOp {
                core,
                proc,
                kind: OpKind::Mfence,
            },
            _ => OracleOp::advance(core, rng.random_range(100u64..5_000)),
        });
    }
    ops
}

/// The establishment shape of Algorithm 1's eviction-test ladder: the
/// trojan victim-primes an address, sweeps a growing candidate set through
/// the batched forward and backward passes, then re-times the victim —
/// while the spy intersperses probes of its own monitor line. Exercises
/// exactly the op mix the establishment phase issues (batched sweeps,
/// victim read/flush pairs, fences).
fn establishment_ladder_trace() -> Vec<OracleOp> {
    let mfence = |core: usize, proc: usize| OracleOp {
        core,
        proc,
        kind: OpKind::Mfence,
    };
    let mut trace = Vec::new();
    for set_size in 1..=4u16 {
        let victim = TROJAN_BASE + 4096 * 3 + 512;
        // access victim; flush victim.
        trace.push(OracleOp::read(1, 1, victim));
        trace.push(OracleOp::clflush(1, 1, victim));
        trace.push(mfence(1, 1));
        // Two-phase sweep over the candidate set (§5.3 shape).
        trace.push(OracleOp::sweep(1, 1, TROJAN_BASE, set_size));
        trace.push(mfence(1, 1));
        trace.push(OracleOp::sweep_rev(1, 1, TROJAN_BASE, set_size));
        trace.push(mfence(1, 1));
        // Re-time the victim; flush it for the next round.
        trace.push(OracleOp::read(1, 1, victim));
        trace.push(OracleOp::clflush(1, 1, victim));
        // Spy activity riding along on the other core.
        trace.push(OracleOp::read(0, 0, SPY_BASE + 512 * u64::from(set_size)));
        trace.push(OracleOp::clflush(
            0,
            0,
            SPY_BASE + 512 * u64::from(set_size),
        ));
    }
    trace
}

#[test]
fn translation_memo_diff_empty_on_establishment_ladder() {
    // Memo on vs off: translation is timing-free, so the transcripts must
    // be empty-diff.
    let oracle = DifferentialOracle::new(|| ladder_machine(true), || ladder_machine(false));
    let diff = oracle
        .run(&establishment_ladder_trace())
        .expect("both machines build");
    assert!(diff.is_empty(), "memo on/off diverged:\n{diff}");
    let trace = {
        let mut rng = Rng::seed_from_u64(testbed::SEED ^ 0x7b0);
        random_trace(&mut rng)
    };
    let diff = oracle.run(&trace).expect("both machines build");
    assert!(
        diff.is_empty(),
        "memo on/off diverged on random trace:\n{diff}"
    );
}

#[test]
fn batched_sweep_matches_expanded_loop() {
    // The batched sweep vs its per-op expansion, on identically built
    // machines: end state (stats, MEE residency, core clocks) and total
    // charged latency must agree exactly. Per-record diffing does not
    // apply — one sweep record carries a whole loop's latency — so the
    // comparison is on everything that survives the trace.
    let sweep_trace = establishment_ladder_trace();
    let split_trace: Vec<OracleOp> = sweep_trace
        .iter()
        .flat_map(|op| op.expand_sweep())
        .collect();
    let (mut ma, procs_a) = ladder_machine(true).expect("build");
    let (mut mb, procs_b) = ladder_machine(true).expect("build");
    let ta = run_trace(&mut ma, &procs_a, &sweep_trace);
    let tb = run_trace(&mut mb, &procs_b, &split_trace);
    let total = |t: &Transcript| -> u64 { t.records.iter().map(|r| r.latency).sum() };
    assert_eq!(total(&ta), total(&tb), "total latency diverged");
    assert_eq!(ta.mee_stats, tb.mee_stats, "MEE stats diverged");
    assert_eq!(ta.llc_stats, tb.llc_stats, "LLC stats diverged");
    assert_eq!(ta.mee_resident, tb.mee_resident, "MEE residency diverged");
    assert_eq!(final_clocks(&ma), final_clocks(&mb), "core clocks diverged");
    assert!(
        ta.records.iter().all(|r| r.error.is_none()),
        "sweep trace errored"
    );
}
