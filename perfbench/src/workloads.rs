//! The four workloads. Each sample builds a fresh seeded [`AttackSetup`]
//! and drives it only through the simulator's public API; the sample
//! returns its host timings, its simulated outputs, a fingerprint of
//! everything deterministic it produced, and (when traced) its per-layer
//! work counts.

use std::time::Instant;

use mee_attack::channel::{random_bits, ChannelConfig, Session};
use mee_attack::experiments::session_fault_targets;
use mee_attack::noise::MeeNoiseActor;
use mee_attack::setup::AttackSetup;
use mee_faults::{FaultInjector, FaultIntensity, FaultPlan};
use mee_machine::{ActorRef, CoreId, Machine, ProcId};
use mee_rng::{stream_seed, Rng};
use mee_types::{Cycles, ModelError, VirtAddr, LINE_SIZE, PAGE_SIZE};

/// Ring capacity for traced samples. The per-layer counts come from the
/// metrics registry, which sees every op whatever the ring keeps.
const TRACE_RING: usize = 1 << 12;

/// Payload bits per quiet transmission.
const TRANSMIT_BITS: usize = 256;
/// Quiet transmissions per established session.
const TRANSMITS_PER_SESSION: usize = 40;
/// Payload bits per noisy transmission.
const NOISY_BITS: usize = 128;
/// Noisy transmissions per established session.
const NOISY_TRANSMITS_PER_SESSION: usize = 20;
/// Stride and span of the MEE noise tenant (Figure 8(d)).
const NOISE_STRIDE: usize = 4096;
const NOISE_PAGES: usize = 256;
/// The noise tenant's core: the spy and trojan hold cores 0 and 1.
const NOISE_CORE: CoreId = CoreId::new(2);

/// The enclave working set: 2 MiB, far larger than the 64 KiB MEE cache.
const RW_PAGES: usize = 512;
/// Enclave ops per sample, and per timed batch.
const RW_OPS: usize = 20_000;
const RW_BATCH: usize = 500;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Session::establish` with the default configuration, no transmission.
    Establish,
    /// Many quiet transmissions of random payloads per established session.
    Transmit,
    /// Transmissions beside an MEE noise tenant under a light fault plan.
    Noisy,
    /// A seeded 50/50 stream of enclave writes and reads, each flushed.
    EnclaveRw,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Establish,
        Workload::Transmit,
        Workload::Noisy,
        Workload::EnclaveRw,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Establish => "establish",
            Workload::Transmit => "transmit",
            Workload::Noisy => "noisy",
            Workload::EnclaveRw => "enclave_rw",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Samples every run completes whatever its time budget. Their
    /// simulated outputs and fingerprints repeat exactly for a seed, and
    /// the traced run replays exactly these samples.
    pub fn fixed_samples(self) -> usize {
        match self {
            Workload::Establish => 12,
            Workload::Transmit | Workload::Noisy => 4,
            Workload::EnclaveRw => 8,
        }
    }

    /// What one unit of timed work is, for the log.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::Establish => "establishment",
            Workload::Transmit | Workload::Noisy => "transmitted bit",
            Workload::EnclaveRw => "enclave op",
        }
    }

    /// Whether the workload transmits over an established channel.
    pub fn transmits(self) -> bool {
        matches!(self, Workload::Transmit | Workload::Noisy)
    }

    /// The channel configuration the workload establishes with.
    pub fn channel_config(self) -> ChannelConfig {
        if self.transmits() {
            ChannelConfig::sweep_setup()
        } else {
            ChannelConfig::default()
        }
    }
}

/// FNV-1a over 64-bit words: the deterministic fingerprint of a sample.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mix_str(&mut self, s: &str) {
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    /// The fingerprint value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Per-layer work counts of one traced sample, read from the machine's
/// metrics registry, the engine's and caches' own statistics, the host
/// profile's span counts, and the fault injector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Scheduler steps (the `actor_step_loop` span count).
    pub sched_steps: u64,
    /// Loads issued.
    pub ops_read: u64,
    /// Stores issued.
    pub ops_write: u64,
    /// `clflush`es issued.
    pub ops_clflush: u64,
    /// Ops served by a private L1.
    pub l1_hits: u64,
    /// Ops served by a private L2.
    pub l2_hits: u64,
    /// Ops served by the LLC.
    pub llc_hits: u64,
    /// Ops that reached DRAM.
    pub dram_served: u64,
    /// LLC evictions.
    pub llc_evictions: u64,
    /// MEE-cache misses: each one is a tree-line DRAM fetch.
    pub mee_cache_misses: u64,
    /// MEE-cache evictions.
    pub mee_cache_evictions: u64,
    /// MEE read walks.
    pub mee_reads: u64,
    /// MEE write walks (counter bump and re-tag in the tree).
    pub mee_writes: u64,
    /// Walks by stopping level, from `Mee::stats`.
    pub mee_hits: [u64; 5],
    /// Walks by stopping level, from the metrics registry.
    pub metrics_mee_hits: [u64; 5],
    /// Fault events applied.
    pub faults_applied: u64,
}

impl Counts {
    fn of(machine: &Machine, faults_applied: u64) -> Counts {
        let metrics = machine
            .obs()
            .metrics
            .as_ref()
            .expect("traced samples enable tracing");
        let mut c = Counts {
            sched_steps: machine
                .obs()
                .host
                .span("actor_step_loop")
                .map_or(0, |s| s.count),
            llc_evictions: machine.llc().stats().evictions,
            mee_cache_misses: machine.mee().cache().stats().misses,
            mee_cache_evictions: machine.mee().cache().stats().evictions,
            mee_reads: machine.mee().stats().reads,
            mee_writes: machine.mee().stats().writes,
            mee_hits: machine.mee().stats().hits_by_level,
            metrics_mee_hits: metrics.mee_hits_total(),
            faults_applied,
            ..Counts::default()
        };
        for core in metrics.cores() {
            c.ops_read += core.reads;
            c.ops_write += core.writes;
            c.ops_clflush += core.clflushes;
            c.l1_hits += core.l1_hits;
            c.l2_hits += core.l2_hits;
            c.llc_hits += core.llc_hits;
            c.dram_served += core.dram;
        }
        c
    }

    /// Adds another sample's counts.
    pub fn add(&mut self, o: &Counts) {
        self.sched_steps += o.sched_steps;
        self.ops_read += o.ops_read;
        self.ops_write += o.ops_write;
        self.ops_clflush += o.ops_clflush;
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.llc_hits += o.llc_hits;
        self.dram_served += o.dram_served;
        self.llc_evictions += o.llc_evictions;
        self.mee_cache_misses += o.mee_cache_misses;
        self.mee_cache_evictions += o.mee_cache_evictions;
        self.mee_reads += o.mee_reads;
        self.mee_writes += o.mee_writes;
        for i in 0..5 {
            self.mee_hits[i] += o.mee_hits[i];
            self.metrics_mee_hits[i] += o.metrics_mee_hits[i];
        }
        self.faults_applied += o.faults_applied;
    }

    /// MEE walks (reads plus writes).
    pub fn walks(&self) -> u64 {
        self.mee_reads + self.mee_writes
    }

    /// DRAM fetches: one per op served at DRAM plus one per MEE-cache miss
    /// (each missed tree line is fetched).
    pub fn dram_fetches(&self) -> u64 {
        self.dram_served + self.mee_cache_misses
    }
}

/// One timed unit of work: an establishment, a transmission, or a batch
/// of enclave ops.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Host ns it took.
    pub ns: f64,
    /// MEE walks it made.
    pub walks: u64,
    /// Its size: one establishment, the bits sent, or the ops issued.
    pub size: u64,
}

impl Unit {
    /// Host ns per MEE walk: the work-normalised cost.
    pub fn ns_per_walk(&self) -> Option<f64> {
        (self.walks > 0).then(|| self.ns / self.walks as f64)
    }

    /// Host µs per element of the unit (per bit, per op).
    pub fn us_per_element(&self) -> f64 {
        self.ns / 1e3 / self.size as f64
    }
}

/// Everything one sample produced.
#[derive(Debug, Clone)]
pub struct SampleOut {
    /// Host ns building the `AttackSetup` (machine plus tenant mappings).
    pub build_ns: f64,
    /// Host ns of all set-up before timed work: the build, plus the
    /// establishment on the transmitting workloads and the working-set
    /// mapping on `enclave_rw`.
    pub setup_ns: f64,
    /// Host ns of the whole sample.
    pub total_ns: f64,
    /// The timed units of work, in the order they ran.
    pub units: Vec<Unit>,
    /// Units of work attempted: establishments, transmissions or ops.
    pub attempted: u64,
    /// Units that failed: a transmission or op that returned an error, or
    /// an establishment whose every attempt gave no working channel.
    pub failed: u64,
    /// Establishment attempts that gave no working channel and were
    /// retried.
    pub retries: u64,
    /// Simulated cycles the establishment took (when one succeeded).
    pub establish_cycles: Option<u64>,
    /// Bits sent.
    pub bits: u64,
    /// Wrongly decoded bits.
    pub bit_errors: u64,
    /// Simulated KBps of each transmission.
    pub kbps: Vec<f64>,
    /// Fingerprint of the sample's deterministic outputs.
    pub fingerprint: u64,
    /// Output checks that failed (empty when the sample is correct).
    pub violations: Vec<String>,
    /// What went wrong in failed units and retried attempts.
    pub errors: Vec<String>,
    /// Per-layer counts, on traced samples.
    pub counts: Option<Counts>,
}

impl SampleOut {
    /// Records a unit that started at `start` with `walks_before` walks.
    fn push_unit(&mut self, start: Instant, machine: &Machine, walks_before: u64, size: u64) {
        self.units.push(Unit {
            ns: ns(start),
            walks: walks(machine) - walks_before,
            size,
        });
    }

    fn new() -> Self {
        SampleOut {
            build_ns: 0.0,
            setup_ns: 0.0,
            total_ns: 0.0,
            units: Vec::new(),
            attempted: 0,
            failed: 0,
            retries: 0,
            establish_cycles: None,
            bits: 0,
            bit_errors: 0,
            kbps: Vec::new(),
            fingerprint: 0,
            violations: Vec::new(),
            errors: Vec::new(),
            counts: None,
        }
    }
}

fn ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

fn walks(machine: &Machine) -> u64 {
    let s = machine.mee().stats();
    s.reads + s.writes
}

/// Mixes the machine's end state into `fp`: every core clock, the MEE
/// statistics and the LLC statistics.
fn mix_machine(fp: &mut Fingerprint, machine: &Machine) {
    for core in 0..machine.core_count() {
        fp.mix(machine.core_now(CoreId::new(core)).raw());
    }
    let s = machine.mee().stats();
    fp.mix(s.reads);
    fp.mix(s.writes);
    for h in s.hits_by_level {
        fp.mix(h);
    }
    let llc = machine.llc().stats();
    fp.mix(llc.hits);
    fp.mix(llc.misses);
    fp.mix(llc.evictions);
    fp.mix(llc.invalidations);
}

fn latest_clock(machine: &Machine) -> Cycles {
    (0..machine.core_count())
        .map(|c| machine.core_now(CoreId::new(c)))
        .max()
        .unwrap_or(Cycles::ZERO)
}

/// Builds the sample's machine, adding the host time to `out.build_ns`;
/// with `traced`, tracing is enabled before its first memory op.
fn build(seed: u64, traced: bool, out: &mut SampleOut) -> Result<AttackSetup, ModelError> {
    let t = Instant::now();
    let mut setup = AttackSetup::new(seed)?;
    out.build_ns += ns(t);
    if traced {
        setup.machine.enable_tracing(TRACE_RING);
    }
    Ok(setup)
}

/// Runs sample `seed` of `workload`, traced or not. A traced sample's
/// counts cover the machine of its last establishment attempt.
///
/// # Errors
///
/// Returns machine-construction and program errors outside the timed
/// units, which no seed should produce.
pub fn run_sample(workload: Workload, seed: u64, traced: bool) -> Result<SampleOut, ModelError> {
    let start = Instant::now();
    let mut out = SampleOut::new();
    let mut fp = Fingerprint::new();
    let (setup, faults) = match workload {
        Workload::Establish => (establish(seed, traced, &mut out, &mut fp)?, 0),
        Workload::Transmit | Workload::Noisy => {
            channel(workload, seed, traced, &mut out, &mut fp, start)?
        }
        Workload::EnclaveRw => {
            let mut setup = build(seed, traced, &mut out)?;
            enclave_rw(seed, &mut setup, &mut out, &mut fp, start)?;
            (setup, 0)
        }
    };
    mix_machine(&mut fp, &setup.machine);
    out.fingerprint = fp.value();
    out.total_ns = ns(start);
    if traced {
        out.counts = Some(Counts::of(&setup.machine, faults));
    }
    Ok(out)
}

/// Counts the eviction-set members whose versions lines share the monitor
/// address's MEE-cache set (the ground truth, from the page tables and
/// the tree geometry). Sweeping the set evicts the monitor only when at
/// least as many members as the cache has ways do; on a noisy machine
/// Algorithm 1 may also keep members of another set.
fn members_in_monitor_set(
    setup: &AttackSetup,
    session: &Session,
) -> Result<(usize, usize), ModelError> {
    let machine = &setup.machine;
    let geo = *machine.mee().geometry();
    let sets = machine.mee().cache().config().sets;
    let set_of = |proc, va| -> Result<usize, ModelError> {
        let pa = machine.translate(proc, va)?;
        Ok(geo
            .version_line(geo.walk_path(pa.line()).version)
            .set_index(sets))
    };
    let monitor = set_of(session.receiver.proc, session.monitor)?;
    let mut same = 0;
    for &va in &session.eviction_set {
        same += usize::from(set_of(session.sender.proc, va)? == monitor);
    }
    Ok((monitor, same))
}

/// Establishes with `cfg` and checks the session against the ground
/// truth. `Err` describes an establishment that gave no working channel:
/// `Session::establish` failed, or noise during the monitor search left a
/// session whose eviction set cannot evict the monitor. Both are
/// simulated outcomes of the attack, not program errors.
fn establish_session(
    setup: &mut AttackSetup,
    cfg: &ChannelConfig,
    out: &mut SampleOut,
    fp: &mut Fingerprint,
) -> Result<Session, String> {
    let session = Session::establish(setup, cfg).map_err(|e| {
        fp.mix_str(&e.to_string());
        format!("establishment: {e}")
    })?;
    out.establish_cycles = Some(latest_clock(&setup.machine).raw());
    fp.mix(session.monitor.raw());
    for a in &session.eviction_set {
        fp.mix(a.raw());
    }
    let ways = setup.machine.mee().cache().config().ways;
    match members_in_monitor_set(setup, &session) {
        Ok((_, same)) if same >= ways => Ok(session),
        Ok((monitor, same)) => Err(format!(
            "established on the wrong set: {same} of {} eviction-set members map to the \
             monitor's MEE-cache set {monitor}, which has {ways} ways",
            session.eviction_set.len()
        )),
        Err(e) => {
            out.violations
                .push(format!("session addresses do not translate: {e}"));
            Ok(session)
        }
    }
}

/// Establishment attempts a sample makes before it counts as failed.
pub const ESTABLISH_TRIES: u64 = 4;
/// Stream tag of the seeds a failed establishment retries with.
const RETRY_STREAM: u64 = 0x5E70_0000;

/// A sample's establishment: its last machine, the session (when an
/// attempt gave a working one), and the host ns and MEE walks the
/// establishment attempts took.
struct Established {
    setup: AttackSetup,
    session: Option<Session>,
    ns: f64,
    walks: u64,
}

/// Establishes a working channel for sample `seed`, retrying on a fresh
/// machine from a derived seed after an attempt that gave none, up to
/// [`ESTABLISH_TRIES`] attempts. Machine builds add to `out.build_ns`;
/// each failed attempt adds to `out.retries` and is noted.
fn establish_with_retries(
    workload: Workload,
    seed: u64,
    traced: bool,
    out: &mut SampleOut,
    fp: &mut Fingerprint,
) -> Result<Established, ModelError> {
    let cfg = workload.channel_config();
    let (mut ns_total, mut walks_total) = (0.0, 0);
    let mut k = 0;
    loop {
        let s = if k == 0 {
            seed
        } else {
            stream_seed(seed, RETRY_STREAM + k)
        };
        let mut setup = build(s, traced, out)?;
        let t = Instant::now();
        let res = establish_session(&mut setup, &cfg, out, fp);
        ns_total += ns(t);
        walks_total += walks(&setup.machine);
        let session = match res {
            Ok(session) => Some(session),
            Err(e) => {
                out.errors.push(format!("establishment attempt {k}: {e}"));
                k += 1;
                if k < ESTABLISH_TRIES {
                    out.retries += 1;
                    continue;
                }
                None
            }
        };
        return Ok(Established {
            setup,
            session,
            ns: ns_total,
            walks: walks_total,
        });
    }
}

/// The `establish` workload: the timed unit is establishing a working
/// channel, retries included; it fails only when every attempt does.
fn establish(
    seed: u64,
    traced: bool,
    out: &mut SampleOut,
    fp: &mut Fingerprint,
) -> Result<AttackSetup, ModelError> {
    let e = establish_with_retries(Workload::Establish, seed, traced, out, fp)?;
    out.setup_ns = out.build_ns;
    out.attempted = 1;
    out.failed = u64::from(e.session.is_none());
    out.units.push(Unit {
        ns: e.ns,
        walks: e.walks,
        size: 1,
    });
    Ok(e.setup)
}

/// The transmitting workloads; returns the machine and the fault events
/// applied. Establishment is set-up here.
fn channel(
    workload: Workload,
    seed: u64,
    traced: bool,
    out: &mut SampleOut,
    fp: &mut Fingerprint,
    start: Instant,
) -> Result<(AttackSetup, u64), ModelError> {
    let Established {
        mut setup, session, ..
    } = establish_with_retries(workload, seed, traced, out, fp)?;
    let Some(session) = session else {
        out.setup_ns = ns(start);
        out.attempted = 1;
        out.failed = 1;
        return Ok((setup, 0));
    };
    let applied = transmit_all(workload, seed, &mut setup, &session, out, fp, start)?;
    Ok((setup, applied))
}

/// Runs the sample's transmissions over `session`; returns the fault
/// events applied.
fn transmit_all(
    workload: Workload,
    seed: u64,
    setup: &mut AttackSetup,
    session: &Session,
    out: &mut SampleOut,
    fp: &mut Fingerprint,
    start: Instant,
) -> Result<u64, ModelError> {
    let noisy = workload == Workload::Noisy;
    let (transmits, bits) = if noisy {
        (NOISY_TRANSMITS_PER_SESSION, NOISY_BITS)
    } else {
        (TRANSMITS_PER_SESSION, TRANSMIT_BITS)
    };
    let cfg = &session.config;
    let targets = session_fault_targets(setup, session)?;
    let mut noise = if noisy {
        Some(MeeNoiseActor::install_on(setup, NOISE_STRIDE, NOISE_PAGES)?)
    } else {
        None
    };
    out.setup_ns = ns(start);
    let mut applied = 0u64;
    for j in 0..transmits {
        let payload = random_bits(bits, stream_seed(seed, 1 + j as u64));
        let mut injector = noisy.then(|| {
            let now = latest_clock(&setup.machine);
            let span = cfg.window * (bits as u64 + 8);
            let plan = FaultPlan::generate(
                FaultIntensity::Light,
                &targets,
                now,
                span,
                stream_seed(seed, 0xFA00 + j as u64),
            );
            FaultInjector::new(plan)
        });
        out.attempted += 1;
        let walks_before = walks(&setup.machine);
        let t = Instant::now();
        let res = match (&mut noise, &mut injector) {
            (Some((proc, actor)), Some(injector)) => {
                let mut actors: Vec<ActorRef<'_>> = vec![(NOISE_CORE, *proc, actor)];
                session.transmit_hooked(setup, &payload, &mut actors, injector)
            }
            _ => session.transmit(setup, &payload),
        };
        out.push_unit(t, &setup.machine, walks_before, bits as u64);
        if let Some(injector) = &injector {
            applied += injector.applied().len() as u64;
            fp.mix(injector.applied().len() as u64);
        }
        match res {
            Ok(o) => {
                if o.received.len() != bits {
                    out.violations.push(format!(
                        "transmission {j} decoded {} bits of {bits}",
                        o.received.len()
                    ));
                }
                out.bits += bits as u64;
                out.bit_errors += o.errors.count() as u64;
                out.kbps.push(o.kbps);
                for chunk in o.received.chunks(64) {
                    fp.mix(chunk.iter().fold(0u64, |w, &b| (w << 1) | u64::from(b)));
                }
                for t in &o.probe_times {
                    fp.mix(t.raw());
                }
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("transmission {j}: {e}"));
                fp.mix_str(&e.to_string());
                break;
            }
        }
    }
    Ok(applied)
}

/// One enclave op: a store of `store`, or a load when `None`, then a
/// `clflush` of the line. Returns the total latency and the loaded value.
fn rw_op(
    machine: &mut Machine,
    core: CoreId,
    proc: ProcId,
    va: VirtAddr,
    store: Option<u64>,
) -> Result<(Cycles, Option<u64>), ModelError> {
    let (lat, read) = match store {
        Some(digest) => (machine.write(core, proc, va, digest)?, None),
        None => {
            let (lat, value) = machine.read_value(core, proc, va)?;
            (lat, Some(value))
        }
    };
    Ok((lat + machine.clflush(core, proc, va)?, read))
}

/// The enclave read/write stream. Every read must return the digest last
/// written to its line (zero for a line never written).
fn enclave_rw(
    seed: u64,
    setup: &mut AttackSetup,
    out: &mut SampleOut,
    fp: &mut Fingerprint,
    start: Instant,
) -> Result<(), ModelError> {
    let (core, proc) = (setup.trojan.core, setup.trojan.proc);
    let base = setup.scratch_pages(proc, RW_PAGES)?;
    out.setup_ns = ns(start);
    let lines = RW_PAGES * PAGE_SIZE / LINE_SIZE;
    let mut shadow = vec![0u64; lines];
    let mut rng = Rng::seed_from_u64(stream_seed(seed, 0x5257));
    let mut batch: Vec<(usize, Option<u64>)> = Vec::with_capacity(RW_BATCH);
    let mut done = 0;
    while done < RW_OPS {
        batch.clear();
        for _ in 0..RW_BATCH.min(RW_OPS - done) {
            let line = rng.random_range(0..lines);
            let store = rng.random::<bool>().then(|| rng.random::<u64>());
            batch.push((line, store));
        }
        let walks_before = walks(&setup.machine);
        let t = Instant::now();
        for &(line, store) in &batch {
            let va = base + (line * LINE_SIZE) as u64;
            out.attempted += 1;
            match rw_op(&mut setup.machine, core, proc, va, store) {
                Ok((lat, read)) => {
                    fp.mix(lat.raw());
                    if let Some(digest) = store {
                        shadow[line] = digest;
                    }
                    if let Some(value) = read {
                        fp.mix(value);
                        if value != shadow[line] {
                            out.violations.push(format!(
                                "read of line {line} returned {value:#x}, last written {:#x}",
                                shadow[line]
                            ));
                        }
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(format!("op on line {line}: {e}"));
                    fp.mix_str(&e.to_string());
                }
            }
        }
        out.push_unit(t, &setup.machine, walks_before, batch.len() as u64);
        done += batch.len();
    }
    Ok(())
}
