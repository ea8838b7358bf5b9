//! Actors and the deterministic scheduler.
//!
//! The trojan, the spy, and the noise programs each run on their own core.
//! Concurrency is modeled as a discrete-event interleaving: at every turn,
//! the runnable actor whose core clock is furthest behind executes one step.
//! Because all shared state (LLC, MEE cache, DRAM banks) is touched in
//! global clock order, the interleaving is deterministic for a given seed —
//! every experiment in the paper can be replayed exactly.
//!
//! Actors should keep steps *small* (a handful of instructions): a step
//! executes atomically, so a step that issued thousands of instructions
//! could observe or mutate shared state out of clock order with respect to
//! other cores.

use mee_types::{Cycles, ModelError, VirtAddr};

use crate::events::EventQueue;
use crate::machine::{CoreId, Machine, ProcId};

/// What an actor's step reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The actor has more work; schedule it again.
    Running,
    /// The actor finished; do not step it again.
    Done,
}

/// A program running on one core of the simulated machine.
pub trait Actor {
    /// Executes a small batch of instructions.
    ///
    /// # Errors
    ///
    /// Propagates any [`ModelError`] raised by the instructions issued.
    fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError>;
}

/// An actor bound to a core and a process.
pub struct ActorBinding {
    /// The core the actor runs on (one actor per core).
    pub core: CoreId,
    /// The process providing the actor's address space.
    pub proc: ProcId,
    /// The actor itself.
    pub actor: Box<dyn Actor>,
}

impl std::fmt::Debug for ActorBinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorBinding")
            .field("core", &self.core)
            .field("proc", &self.proc)
            .finish_non_exhaustive()
    }
}

/// An actor's view of its core: every instruction primitive, bound to the
/// actor's core and process.
pub struct CoreHandle<'m> {
    machine: &'m mut Machine,
    core: CoreId,
    proc: ProcId,
}

impl<'m> CoreHandle<'m> {
    /// Creates a handle (normally done by the scheduler or
    /// [`Machine`]-driving test code).
    pub fn new(machine: &'m mut Machine, core: CoreId, proc: ProcId) -> Self {
        CoreHandle {
            machine,
            core,
            proc,
        }
    }

    /// The bound core.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The bound process.
    pub fn proc(&self) -> ProcId {
        self.proc
    }

    /// The core's local clock (harness bookkeeping; in-character code should
    /// use [`Self::timer_read`] or [`Self::rdtsc`]).
    pub fn now(&self) -> Cycles {
        self.machine.core_now(self.core)
    }

    /// Read-only access to the whole machine (assertions in tests).
    pub fn machine(&self) -> &Machine {
        self.machine
    }

    /// Loads `va`; returns elapsed cycles. See [`Machine::read`].
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn read(&mut self, va: VirtAddr) -> Result<Cycles, ModelError> {
        self.machine.read(self.core, self.proc, va)
    }

    /// Stores to `va`. See [`Machine::write`].
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn write(&mut self, va: VirtAddr, digest: u64) -> Result<Cycles, ModelError> {
        self.machine.write(self.core, self.proc, va, digest)
    }

    /// Flushes `va` from the on-chip hierarchy. See [`Machine::clflush`].
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn clflush(&mut self, va: VirtAddr) -> Result<Cycles, ModelError> {
        self.machine.clflush(self.core, self.proc, va)
    }

    /// Read-then-flush sweep over `addrs`, in order — the establishment
    /// batch primitive. Bit-identical to the per-op loop; see
    /// [`Machine::sweep_read_flush`].
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn sweep_read_flush(&mut self, addrs: &[VirtAddr]) -> Result<Cycles, ModelError> {
        self.machine.sweep_read_flush(self.core, self.proc, addrs, false)
    }

    /// [`Self::sweep_read_flush`] in reverse address order (the backward
    /// pass of the paper's §5.3 two-phase sweep).
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn sweep_read_flush_rev(&mut self, addrs: &[VirtAddr]) -> Result<Cycles, ModelError> {
        self.machine.sweep_read_flush(self.core, self.proc, addrs, true)
    }

    /// Serializing fence.
    pub fn mfence(&mut self) -> Cycles {
        self.machine.mfence(self.core)
    }

    /// `rdtsc` — faults in enclave mode.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IllegalInEnclave`] from enclave processes.
    pub fn rdtsc(&mut self) -> Result<Cycles, ModelError> {
        self.machine.rdtsc(self.core, self.proc)
    }

    /// Reads the hyperthread timer mailbox (legal everywhere, ~50 cycles,
    /// quantized).
    pub fn timer_read(&mut self) -> Cycles {
        self.machine.timer_read(self.core)
    }

    /// Timestamp via OCALL (8000–15000 cycles).
    pub fn ocall_rdtsc(&mut self) -> Cycles {
        self.machine.ocall_rdtsc(self.core)
    }

    /// Spins until the local clock reaches `deadline`.
    pub fn busy_until(&mut self, deadline: Cycles) {
        self.machine.busy_until(self.core, deadline);
    }

    /// Burns `cycles` of computation.
    pub fn advance(&mut self, cycles: Cycles) -> Cycles {
        self.machine.advance(self.core, cycles)
    }
}

/// Runs `bindings` concurrently until every actor is done or every runnable
/// actor's core clock has reached `horizon`.
///
/// # Errors
///
/// * Propagates the first [`ModelError`] raised by any actor.
/// * Returns [`ModelError::NoSuchCore`] / [`ModelError::InvalidConfig`] for
///   invalid bindings (out-of-range core, two actors on one core) or for an
///   actor that stops advancing its clock (deadlock guard).
pub fn run_actors(
    machine: &mut Machine,
    bindings: &mut [ActorBinding],
    horizon: Cycles,
) -> Result<(), ModelError> {
    let mut refs: Vec<ActorRef<'_>> = bindings
        .iter_mut()
        .map(|b| (b.core, b.proc, b.actor.as_mut()))
        .collect();
    run_actor_refs(machine, &mut refs, horizon)
}

/// A borrowed actor with its core/process binding, as consumed by
/// [`run_actor_refs`].
pub type ActorRef<'a> = (CoreId, ProcId, &'a mut (dyn Actor + 'static));

/// A scheduler hook invoked before every actor step, with the global
/// simulation time (the clock of the actor about to run). The fault
/// injector lives behind this trait: it applies every scheduled fault
/// whose time has passed, from *outside* any core's instruction stream,
/// while the scheduler's global clock order keeps the result
/// deterministic.
pub trait StepHook {
    /// Called with the machine and the current global time before each
    /// step. May mutate the machine (clocks, caches); the scheduler
    /// re-selects the next actor afterwards.
    ///
    /// # Errors
    ///
    /// An error aborts the run and propagates to the caller.
    fn before_step(&mut self, machine: &mut Machine, now: Cycles) -> Result<(), ModelError>;

    /// When the hook next needs to observe the machine. The scheduler
    /// skips the `before_step` calls the schedule rules out.
    ///
    /// The default, [`HookSchedule::EveryStep`], is always safe. A hook
    /// may only narrow it if `before_step` is a pure no-op outside the
    /// declared times — i.e. before `At(t)` is reached, or always for
    /// `Idle` — otherwise the run diverges from one that calls the hook
    /// before every step. The scheduler re-queries after every
    /// `before_step` call, so `At` hooks advance their own horizon as they
    /// fire.
    fn schedule(&self) -> HookSchedule {
        HookSchedule::EveryStep
    }
}

/// When a [`StepHook`] next needs `before_step` called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookSchedule {
    /// Call before every actor step (always safe).
    EveryStep,
    /// No effect until global time reaches this cycle: call before the
    /// first step at or after it.
    At(Cycles),
    /// Never needs calling again (drained fault plan, no-op hook).
    Idle,
}

/// The do-nothing hook [`run_actor_refs`] runs with.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopHook;

impl StepHook for NoopHook {
    fn before_step(&mut self, _machine: &mut Machine, _now: Cycles) -> Result<(), ModelError> {
        Ok(())
    }

    fn schedule(&self) -> HookSchedule {
        HookSchedule::Idle
    }
}

/// Like [`run_actors`] but borrowing the actors, so callers keep ownership
/// of concrete actor types and can inspect their results after the run.
///
/// # Errors
///
/// Same conditions as [`run_actors`].
pub fn run_actor_refs(
    machine: &mut Machine,
    actors: &mut [ActorRef<'_>],
    horizon: Cycles,
) -> Result<(), ModelError> {
    run_actor_refs_hooked(machine, actors, horizon, &mut NoopHook)
}

/// Like [`run_actor_refs`] with a [`StepHook`] consulted before every step
/// — the entry point for deterministic fault injection.
///
/// The run is the one a scan picking the runnable actor with the smallest
/// core clock (first binding slot on ties) before every step would
/// produce; `tests/engine_equivalence.rs` holds it bit-identical to such a
/// reference scan.
///
/// # Errors
///
/// Same conditions as [`run_actors`], plus any error raised by the hook.
pub fn run_actor_refs_hooked(
    machine: &mut Machine,
    actors: &mut [ActorRef<'_>],
    horizon: Cycles,
    hook: &mut dyn StepHook,
) -> Result<(), ModelError> {
    // Validate bindings.
    let mut seen = vec![false; machine.core_count()];
    for (core, _, _) in actors.iter() {
        let idx = core.index();
        if idx >= machine.core_count() {
            return Err(ModelError::NoSuchCore { core: idx });
        }
        if seen[idx] {
            return Err(ModelError::InvalidConfig {
                reason: format!("two actors bound to {core}"),
            });
        }
        seen[idx] = true;
    }

    run_event_driven(machine, actors, horizon, hook)
}

/// An actor that stops advancing its clock for this many consecutive steps
/// is declared deadlocked.
const STUCK_LIMIT: u32 = 100_000;

/// The event-driven scheduler core: one wake-up event per runnable actor,
/// popped in `(time, slot, seq)` order from a deterministic [`EventQueue`].
///
/// Bit-identity with a min-clock scan (the reference scheduler in
/// `tests/engine_equivalence.rs`) rests on three facts, argued in
/// `DESIGN.md`:
///
/// * Queue order equals scan order. The scan picks the minimum core
///   clock, first binding slot on ties; the queue key `(time, slot, seq)`
///   pops the same actor, because each actor has exactly one live entry.
/// * Stale entries are lower bounds. Clocks only move forward (preemption
///   parks to `max`, drift and busy-work add), so an entry whose recorded
///   time no longer matches its actor's clock sorts *earlier* than the
///   truth. Re-queueing it at the current clock on pop — lazy
///   invalidation, the classic priority-queue trick — can therefore never
///   pop a wrong minimum. This is how a fault preempting an actor
///   overrides that actor's already-queued wake-up.
/// * Skipped hook calls are no-ops. [`StepHook::schedule`] only rules out
///   calls the hook contract declares side-effect free (`At(t)` before
///   `t`, `Idle` always); `EveryStep` hooks run exactly as before.
fn run_event_driven(
    machine: &mut Machine,
    actors: &mut [ActorRef<'_>],
    horizon: Cycles,
    hook: &mut dyn StepHook,
) -> Result<(), ModelError> {
    // No `done` flags here: a finished actor's wake-up is simply never
    // re-queued, so the queue cannot yield it again.
    let mut stuck_count = vec![0u32; actors.len()];

    // Host-time profiling of the step loop: wall-clock only, recorded on
    // exit — it cannot influence the simulated interleaving.
    let loop_start = std::time::Instant::now();
    let mut steps: u64 = 0;
    let finish = |machine: &mut Machine, steps: u64| {
        machine
            .obs_mut()
            .host
            .record_n("actor_step_loop", steps, loop_start.elapsed());
    };

    let mut queue: EventQueue<()> = EventQueue::new();
    for (slot, (core, _, _)) in actors.iter().enumerate() {
        let now = machine.core_now(*core);
        if now < horizon {
            queue.push(now, slot as u32, ());
        }
    }

    // Pops the next wake-up whose recorded time still matches its core
    // clock. A stale entry (the hook moved the clock since it was queued)
    // is re-queued at the clock's current value; an entry at or past the
    // horizon is parked (dropped — clocks never move back below it).
    let pop_live = |queue: &mut EventQueue<()>, machine: &Machine, actors: &[ActorRef<'_>]| {
        while let Some((key, ())) = queue.pop() {
            let slot = key.lane as usize;
            let now = machine.core_now(actors[slot].0);
            if now >= horizon {
                continue;
            }
            if key.time != now {
                queue.push(now, key.lane, ());
                continue;
            }
            return Some((key.time, slot));
        }
        None
    };

    loop {
        let Some((now, slot)) = pop_live(&mut queue, machine, actors) else {
            finish(machine, steps);
            return Ok(());
        };
        let run_hook = match hook.schedule() {
            HookSchedule::EveryStep => true,
            HookSchedule::At(at) => now >= at,
            HookSchedule::Idle => false,
        };
        let slot = if run_hook {
            hook.before_step(machine, now)?;
            // The hook may have moved clocks: put the popped actor back at
            // its (possibly new) clock and re-select, so the pick respects
            // whatever the hook did.
            let cur = machine.core_now(actors[slot].0);
            if cur < horizon {
                queue.push(cur, slot as u32, ());
            }
            match pop_live(&mut queue, machine, actors) {
                Some((_, slot)) => slot,
                None => {
                    finish(machine, steps);
                    return Ok(());
                }
            }
        } else {
            slot
        };

        let core = actors[slot].0;
        let before = machine.core_now(core);
        let outcome = {
            let (core, proc, actor) = &mut actors[slot];
            let mut cpu = CoreHandle::new(machine, *core, *proc);
            actor.step(&mut cpu)?
        };
        steps += 1;
        if outcome == StepOutcome::Done {
            continue;
        }
        let after = machine.core_now(core);
        if after == before {
            stuck_count[slot] += 1;
            if stuck_count[slot] > STUCK_LIMIT {
                return Err(ModelError::InvalidConfig {
                    reason: format!(
                        "actor on {core} made {STUCK_LIMIT} steps without advancing its clock"
                    ),
                });
            }
        } else {
            stuck_count[slot] = 0;
        }
        if after < horizon {
            queue.push(after, slot as u32, ());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use mee_mem::AddressSpaceKind;
    use mee_types::PAGE_SIZE;

    /// Reads a fixed page `n` times, recording latencies.
    struct Reader {
        base: VirtAddr,
        remaining: usize,
        latencies: Vec<Cycles>,
    }

    impl Actor for Reader {
        fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
            if self.remaining == 0 {
                return Ok(StepOutcome::Done);
            }
            self.remaining -= 1;
            let lat = cpu.read(self.base)?;
            self.latencies.push(lat);
            Ok(StepOutcome::Running)
        }
    }

    /// Burns time forever (horizon-bounded).
    struct Spinner;

    impl Actor for Spinner {
        fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
            cpu.advance(Cycles::new(100));
            Ok(StepOutcome::Running)
        }
    }

    /// Never advances the clock: must trip the deadlock guard.
    struct Stuck;

    impl Actor for Stuck {
        fn step(&mut self, _cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
            Ok(StepOutcome::Running)
        }
    }

    fn setup() -> (Machine, ProcId, VirtAddr) {
        let mut m = Machine::new(MachineConfig::small()).unwrap();
        let p = m.create_process(AddressSpaceKind::Enclave);
        let base = VirtAddr::new(0x40_0000);
        m.map_pages(p, base, 2).unwrap();
        (m, p, base)
    }

    #[test]
    fn single_actor_runs_to_completion() {
        let (mut m, p, base) = setup();
        let mut bindings = vec![ActorBinding {
            core: CoreId::new(0),
            proc: p,
            actor: Box::new(Reader {
                base,
                remaining: 5,
                latencies: Vec::new(),
            }),
        }];
        run_actors(&mut m, &mut bindings, Cycles::new(1_000_000)).unwrap();
        assert!(m.core_now(CoreId::new(0)) > Cycles::ZERO);
    }

    #[test]
    fn horizon_stops_infinite_actors() {
        let (mut m, p, _) = setup();
        let mut bindings = vec![ActorBinding {
            core: CoreId::new(0),
            proc: p,
            actor: Box::new(Spinner),
        }];
        run_actors(&mut m, &mut bindings, Cycles::new(10_000)).unwrap();
        let now = m.core_now(CoreId::new(0));
        assert!(now >= Cycles::new(10_000));
        assert!(now < Cycles::new(10_200));
    }

    #[test]
    fn actors_interleave_in_clock_order() {
        let (mut m, p, base) = setup();
        // Two readers on different cores sharing a page: the second one to
        // reach DRAM must hit the LLC instead, whichever interleaving — but
        // both clocks must end near each other (fair interleaving).
        let mut bindings = vec![
            ActorBinding {
                core: CoreId::new(0),
                proc: p,
                actor: Box::new(Reader {
                    base,
                    remaining: 50,
                    latencies: Vec::new(),
                }),
            },
            ActorBinding {
                core: CoreId::new(1),
                proc: p,
                actor: Box::new(Reader {
                    base: base + PAGE_SIZE as u64,
                    remaining: 50,
                    latencies: Vec::new(),
                }),
            },
        ];
        run_actors(&mut m, &mut bindings, Cycles::new(10_000_000)).unwrap();
        let a = m.core_now(CoreId::new(0)).raw() as i64;
        let b = m.core_now(CoreId::new(1)).raw() as i64;
        assert!((a - b).abs() < 2_000, "clocks diverged: {a} vs {b}");
    }

    #[test]
    fn two_actors_one_core_rejected() {
        let (mut m, p, _) = setup();
        let mut bindings = vec![
            ActorBinding {
                core: CoreId::new(0),
                proc: p,
                actor: Box::new(Spinner),
            },
            ActorBinding {
                core: CoreId::new(0),
                proc: p,
                actor: Box::new(Spinner),
            },
        ];
        assert!(run_actors(&mut m, &mut bindings, Cycles::new(1000)).is_err());
    }

    #[test]
    fn out_of_range_core_rejected() {
        let (mut m, p, _) = setup();
        let mut bindings = vec![ActorBinding {
            core: CoreId::new(99),
            proc: p,
            actor: Box::new(Spinner),
        }];
        assert!(matches!(
            run_actors(&mut m, &mut bindings, Cycles::new(1000)),
            Err(ModelError::NoSuchCore { core: 99 })
        ));
    }

    #[test]
    fn stuck_actor_detected() {
        let (mut m, p, _) = setup();
        let mut bindings = vec![ActorBinding {
            core: CoreId::new(0),
            proc: p,
            actor: Box::new(Stuck),
        }];
        assert!(run_actors(&mut m, &mut bindings, Cycles::new(1000)).is_err());
    }

    #[test]
    fn hook_runs_at_global_time_and_may_move_clocks() {
        /// Preempts core 0 for 15_000 cycles the first time global time
        /// passes 2_000, and records every `now` it saw.
        struct PreemptOnce {
            fired: bool,
            times: Vec<u64>,
        }
        impl StepHook for PreemptOnce {
            fn before_step(
                &mut self,
                machine: &mut Machine,
                now: Cycles,
            ) -> Result<(), ModelError> {
                self.times.push(now.raw());
                if !self.fired && now >= Cycles::new(2_000) {
                    self.fired = true;
                    machine.preempt_until(CoreId::new(0), now + Cycles::new(15_000));
                }
                Ok(())
            }
        }
        let (mut m, p, _) = setup();
        let mut hook = PreemptOnce {
            fired: false,
            times: Vec::new(),
        };
        let mut spinner = Spinner;
        let mut actors: Vec<ActorRef<'_>> = vec![(CoreId::new(0), p, &mut spinner)];
        run_actor_refs_hooked(&mut m, &mut actors, Cycles::new(10_000), &mut hook).unwrap();
        assert!(hook.fired);
        // Global times are monotone (the hook never observes time going
        // backwards), and the preemption pushed the final clock past the
        // horizon plus the burst.
        assert!(hook.times.windows(2).all(|w| w[0] <= w[1]));
        assert!(m.core_now(CoreId::new(0)) >= Cycles::new(10_000));
    }

    #[test]
    fn hook_errors_abort_the_run() {
        struct Abort;
        impl StepHook for Abort {
            fn before_step(
                &mut self,
                _machine: &mut Machine,
                _now: Cycles,
            ) -> Result<(), ModelError> {
                Err(ModelError::InvalidConfig {
                    reason: "hook abort".into(),
                })
            }
        }
        let (mut m, p, _) = setup();
        let mut spinner = Spinner;
        let mut actors: Vec<ActorRef<'_>> = vec![(CoreId::new(0), p, &mut spinner)];
        assert!(matches!(
            run_actor_refs_hooked(&mut m, &mut actors, Cycles::new(1_000), &mut Abort),
            Err(ModelError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn actor_errors_propagate() {
        struct Faulter;
        impl Actor for Faulter {
            fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
                cpu.read(VirtAddr::new(0xdead_0000))?;
                Ok(StepOutcome::Running)
            }
        }
        let (mut m, p, _) = setup();
        let mut bindings = vec![ActorBinding {
            core: CoreId::new(0),
            proc: p,
            actor: Box::new(Faulter),
        }];
        assert!(matches!(
            run_actors(&mut m, &mut bindings, Cycles::new(1000)),
            Err(ModelError::PageFault { .. })
        ));
    }
}
