//! Per-layer metrics and the ledger of the traced run.
//!
//! Work counts come from the traced replay of the fixed samples. Host ns
//! per call is timed from outside: the benchmark calls each layer's
//! public function on a workload-shaped input at the machine's geometry
//! and takes the median of several repetitions. Count × ns per call is
//! the time the ledger attributes to a layer; the rest of the measured
//! (untraced) wall time is reported as unattributed.

use std::hint::black_box;
use std::time::Instant;

use mee_attack::channel::Session;
use mee_attack::recon::eviction::find_eviction_set;
use mee_attack::setup::AttackSetup;
use mee_attack::threshold::LatencyClassifier;
use mee_cache::SetAssocCache;
use mee_engine::{HitLevel, Mee};
use mee_machine::{
    run_actor_refs, Actor, ActorRef, CoreHandle, CoreId, Machine, MachineConfig, StepOutcome,
};
use mee_mem::{AddressSpaceKind, DramModel};
use mee_rng::{stream_seed, Rng};
use mee_types::{Cycles, LineAddr, ModelError, VirtAddr, LINE_SIZE, PAGE_SIZE};

use crate::stats::{Metric, Summary};
use crate::workloads::{Counts, SampleOut, Workload};

/// Repetitions of each timed calibration; the median is reported.
const REPS: usize = 7;
/// Calls per repetition.
const CALLS: usize = 20_000;
/// Seeds timed for Algorithm 1 against the whole establishment, and runs
/// of each.
const ALGO1_SEEDS: u64 = 3;
const ALGO1_REPS: usize = 2;
/// Stream tag separating calibration seeds from sample seeds.
const CALIBRATION_STREAM: u64 = 0xCA11_B000;

/// Median over [`REPS`] repetitions of the host ns per call of `f`, which
/// makes [`CALLS`] calls per repetition on state built fresh by `prepare`.
/// Also returns the last repetition's state, for checking the input had
/// the intended shape.
fn ns_per_call<S>(mut prepare: impl FnMut() -> S, mut f: impl FnMut(&mut S, usize)) -> (f64, S) {
    let mut per_call = Vec::with_capacity(REPS);
    let mut state = prepare();
    for rep in 0..REPS {
        if rep > 0 {
            state = prepare();
        }
        let t = Instant::now();
        for i in 0..CALLS {
            f(&mut state, i);
        }
        per_call.push(t.elapsed().as_nanos() as f64 / CALLS as f64);
        black_box(&mut state);
    }
    (Summary::of(&per_call).p50, state)
}

/// Share of an MEE's walks that stopped at the versions level.
fn versions_share(mee: &Mee) -> f64 {
    let s = mee.stats();
    s.hits_at(HitLevel::Versions) as f64 / (s.reads + s.writes).max(1) as f64
}

/// The attributed part of the measured time, one entry per layer.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// `(layer, attributed ms)`.
    pub parts: Vec<(&'static str, f64)>,
    /// Untraced wall time of the fixed samples.
    pub measured_ms: f64,
}

impl Ledger {
    /// Sum of the attributed parts.
    pub fn attributed_ms(&self) -> f64 {
        self.parts.iter().map(|(_, ms)| ms).sum()
    }

    /// What no layer accounts for (negative when the parts over-attribute).
    pub fn unattributed_ms(&self) -> f64 {
        self.measured_ms - self.attributed_ms()
    }

    /// Checks that every part is a finite, non-negative time and that
    /// attributed plus unattributed adds back to the measured time.
    ///
    /// # Errors
    ///
    /// Describes the first part or sum that fails.
    pub fn reconcile(&self) -> Result<(), String> {
        for (name, ms) in &self.parts {
            if !ms.is_finite() || *ms < 0.0 {
                return Err(format!("ledger part {name} is {ms} ms"));
            }
        }
        let sum = self.attributed_ms() + self.unattributed_ms();
        if !self.measured_ms.is_finite()
            || self.measured_ms <= 0.0
            || (sum - self.measured_ms).abs() > 1e-9 * self.measured_ms
        {
            return Err(format!(
                "ledger does not add up: attributed {} + unattributed {} != measured {}",
                self.attributed_ms(),
                self.unattributed_ms(),
                self.measured_ms
            ));
        }
        Ok(())
    }
}

/// Host cost per call of every layer, plus the ledger.
#[derive(Debug, Clone)]
pub struct Layers {
    setup_ns: f64,
    algo1_ns: f64,
    algo1_share: f64,
    sched_ns_per_step: f64,
    translate_ns: f64,
    cache_access_ns: f64,
    dram_access_ns: f64,
    walk_ns_versions: f64,
    walk_ns_deep: f64,
    write_ns: f64,
    tracing_overhead: f64,
    /// The ledger of the fixed samples.
    pub ledger: Ledger,
}

/// A scheduler calibration actor: each step only advances its clock, so
/// the step loop's time is the scheduler's own.
struct Spin;

impl Actor for Spin {
    fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
        cpu.advance(Cycles::new(500));
        Ok(StepOutcome::Running)
    }
}

/// Host ns per scheduler step: the `actor_step_loop` span over two
/// spinning actors.
fn sched_ns_per_step() -> f64 {
    let per_step: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut machine = Machine::new(MachineConfig::default()).expect("default machine");
            let proc = machine.create_process(AddressSpaceKind::Enclave);
            let (mut a, mut b) = (Spin, Spin);
            let mut actors: Vec<ActorRef<'_>> = vec![
                (CoreId::new(0), proc, &mut a),
                (CoreId::new(1), proc, &mut b),
            ];
            run_actor_refs(
                &mut machine,
                &mut actors,
                Cycles::new(500 * CALLS as u64 / 2),
            )
            .expect("spinning actors never fail");
            let span = machine
                .obs()
                .host
                .span("actor_step_loop")
                .expect("the scheduler records its step loop");
            span.total.as_nanos() as f64 / span.count as f64
        })
        .collect();
    Summary::of(&per_step).p50
}

/// The virtual addresses the workload touches most: the trojan's
/// candidates for the channel workloads, random lines of a 2 MiB working
/// set for `enclave_rw`.
fn workload_addresses(workload: Workload, setup: &mut AttackSetup, rng: &mut Rng) -> Vec<VirtAddr> {
    if workload == Workload::EnclaveRw {
        let pages = 512;
        let proc = setup.trojan.proc;
        let base = setup.scratch_pages(proc, pages).expect("working set maps");
        let lines = pages * PAGE_SIZE / LINE_SIZE;
        (0..4096)
            .map(|_| base + (rng.random_range(0..lines) * LINE_SIZE) as u64)
            .collect()
    } else {
        let cfg = workload.channel_config();
        setup
            .trojan
            .candidates(cfg.trojan_candidates, cfg.agreed_offset)
    }
}

/// Host ns of Algorithm 1 alone and of the whole establishment, each on
/// fresh setups of the same seeds, alternating and keeping each side's
/// fastest of [`ALGO1_REPS`] runs; returns `(median algo1 ns, share)`.
/// Algorithm 1 is most of an establishment, so host noise can push the
/// time share slightly above 1; the walk share printed beside it is exact.
fn algo1(workload: Workload, seed: u64) -> (f64, f64) {
    let cfg = workload.channel_config();
    let (mut algo1_ns, mut establish_ns) = (Vec::new(), 0.0);
    let (mut algo1_walks, mut establish_walks) = (0u64, 0u64);
    let walks = |setup: &AttackSetup| {
        let s = setup.machine.mee().stats();
        s.reads + s.writes
    };
    for j in 0..ALGO1_SEEDS {
        let s = stream_seed(seed, CALIBRATION_STREAM + 1 + j);
        let (mut a, mut e) = (f64::INFINITY, f64::INFINITY);
        let mut ok = true;
        for _ in 0..ALGO1_REPS {
            let mut setup = AttackSetup::new(s).expect("machine construction");
            let classifier = LatencyClassifier::from_timing(&setup.machine.config().timing);
            let candidates = setup
                .trojan
                .candidates(cfg.trojan_candidates, cfg.agreed_offset);
            let t = Instant::now();
            ok &= find_eviction_set(
                &mut setup.trojan_handle(),
                &candidates,
                &classifier,
                cfg.setup_reps,
            )
            .is_ok();
            a = a.min(t.elapsed().as_nanos() as f64);
            let found_walks = walks(&setup);
            let mut setup = AttackSetup::new(s).expect("machine construction");
            let t = Instant::now();
            ok &= Session::establish(&mut setup, &cfg).is_ok();
            e = e.min(t.elapsed().as_nanos() as f64);
            if ok {
                algo1_walks += found_walks;
                establish_walks += walks(&setup);
            }
        }
        if ok {
            algo1_ns.push(a);
            establish_ns += e;
        }
    }
    println!(
        "note attack.algo1 walk share {:.4} of establishment walks",
        algo1_walks as f64 / establish_walks.max(1) as f64
    );
    if algo1_ns.is_empty() {
        return (0.0, 0.0);
    }
    let share = algo1_ns.iter().sum::<f64>() / establish_ns;
    (Summary::of(&algo1_ns).p50, share)
}

/// Standalone MEE at the machine's geometry.
fn fresh_mee(cfg: &MachineConfig, machine: &Machine) -> (Mee, DramModel) {
    let mee = Mee::new(
        *machine.mee().geometry(),
        cfg.mee_key,
        cfg.mee_cache,
        cfg.mee_policy.build(),
        cfg.timing.clone(),
    );
    (
        mee,
        DramModel::new(cfg.dram.clone()).expect("default DRAM config"),
    )
}

/// Host time of the fixed samples, untraced and traced, each averaged
/// over the passes the traced run made.
#[derive(Debug, Clone, Copy)]
pub struct Walls {
    /// Mean untraced ns of one pass over the fixed samples.
    pub plain_ns: f64,
    /// Mean traced ns of one pass.
    pub traced_ns: f64,
}

/// Times every layer and builds the ledger for `workload`.
///
/// `plain` is one untraced pass over the fixed samples, `counts` sums one
/// traced pass, and `walls` times them.
pub fn measure(
    workload: Workload,
    seed: u64,
    plain: &[SampleOut],
    counts: &Counts,
    walls: Walls,
) -> Layers {
    let cal_seed = stream_seed(seed, CALIBRATION_STREAM);
    let mut rng = Rng::seed_from_u64(cal_seed);
    let mut setup = AttackSetup::new(cal_seed).expect("machine construction");
    let cfg = setup.machine.config().clone();
    let vas = workload_addresses(workload, &mut setup, &mut rng);
    let proc = setup.trojan.proc;
    let lines: Vec<LineAddr> = vas
        .iter()
        .map(|&va| setup.machine.translate(proc, va).expect("mapped").line())
        .collect();

    let (translate_ns, ()) = ns_per_call(
        || (),
        |_, i| {
            black_box(
                setup
                    .machine
                    .translate(proc, vas[i % vas.len()])
                    .expect("mapped"),
            );
        },
    );
    // One lookup at each level's geometry per line, as an op that misses
    // down to the LLC makes.
    let (cache_access_ns, _) = ns_per_call(
        || {
            [
                SetAssocCache::new(cfg.l1, cfg.mee_policy.build()),
                SetAssocCache::new(cfg.l2, cfg.mee_policy.build()),
                SetAssocCache::new(cfg.llc, cfg.llc_policy.build()),
            ]
        },
        |caches, i| {
            let line = lines[i % lines.len()];
            black_box(caches[i % 3].access(line));
        },
    );
    let (dram_access_ns, _) = ns_per_call(
        || DramModel::new(cfg.dram.clone()).expect("default DRAM config"),
        |dram, i| {
            black_box(dram.access(lines[i % lines.len()]));
        },
    );

    // MEE walks. Versions hits: a few lines of distinct pages, warmed
    // first. Deep walks: one line per page across the protected region at
    // a 4 KiB stride, which misses the versions level on every read.
    let data = machine_data_lines(&setup.machine);
    let warm: Vec<LineAddr> = (0..16).map(|p| data.0 + p * 64 * 97).collect();
    let warmed = || {
        let (mut mee, mut dram) = fresh_mee(&cfg, &setup.machine);
        for &l in &warm {
            mee.read(l, Cycles::ZERO, &mut dram)
                .expect("protected line");
        }
        (mee, dram)
    };
    let (walk_ns_versions, (versions_mee, _)) = ns_per_call(warmed, |(mee, dram), i| {
        let now = Cycles::new(1_000_000 + i as u64 * 10_000);
        black_box(
            mee.read(warm[i % warm.len()], now, dram)
                .expect("protected line"),
        );
    });
    let pages = data.1 / 64;
    let (walk_ns_deep, (deep_mee, _)) = ns_per_call(
        || fresh_mee(&cfg, &setup.machine),
        |(mee, dram), i| {
            let line = data.0 + (i as u64 % pages) * 64;
            let now = Cycles::new(i as u64 * 10_000);
            black_box(mee.read(line, now, dram).expect("protected line"));
        },
    );
    let rw_lines = (512 * PAGE_SIZE / LINE_SIZE) as u64;
    let (write_ns, _) = ns_per_call(
        || {
            (
                fresh_mee(&cfg, &setup.machine),
                Rng::seed_from_u64(cal_seed),
            )
        },
        |((mee, dram), rng), i| {
            let line = data.0 + rng.random_range(0..rw_lines);
            let now = Cycles::new(i as u64 * 10_000);
            black_box(
                mee.write(line, rng.random::<u64>(), now, dram)
                    .expect("protected line"),
            );
        },
    );

    println!(
        "note calibration inputs: versions-level share {:.4} of the versions walks, {:.4} of the deep walks",
        versions_share(&versions_mee),
        versions_share(&deep_mee)
    );

    let (algo1_ns, algo1_share) = algo1(workload, seed);
    let builds: Vec<f64> = plain.iter().map(|o| o.build_ns).collect();
    let setup_ns = Summary::of(&builds).p50;
    let sched = sched_ns_per_step();

    let c = counts;
    let accesses = c.ops_read + c.ops_write;
    let lookups = accesses + (accesses - c.l1_hits) + (accesses - c.l1_hits - c.l2_hits);
    let walks = c.walks().max(1) as f64;
    let read_share = c.mee_reads as f64 / walks;
    let read_versions = c.mee_hits[0] as f64 * read_share;
    let read_deep = c.mee_reads as f64 - read_versions;
    let ms = |ns: f64| ns / 1e6;
    let ledger = Ledger {
        parts: vec![
            ("attack.setup", ms(plain.len() as f64 * setup_ns)),
            (
                "machine.translate",
                ms((accesses + c.ops_clflush) as f64 * translate_ns),
            ),
            ("machine.sched", ms(c.sched_steps as f64 * sched)),
            ("cache.access", ms(lookups as f64 * cache_access_ns)),
            ("dram.access", ms(c.dram_served as f64 * dram_access_ns)),
            (
                "mee.walk",
                ms(read_versions * walk_ns_versions + read_deep * walk_ns_deep),
            ),
            ("tree.write", ms(c.mee_writes as f64 * write_ns)),
        ],
        measured_ms: ms(walls.plain_ns),
    };
    Layers {
        setup_ns,
        algo1_ns,
        algo1_share,
        sched_ns_per_step: sched,
        translate_ns,
        cache_access_ns,
        dram_access_ns,
        walk_ns_versions,
        walk_ns_deep,
        write_ns,
        tracing_overhead: walls.traced_ns / walls.plain_ns - 1.0,
        ledger,
    }
}

/// First line and line count of the machine's protected data region.
fn machine_data_lines(machine: &Machine) -> (LineAddr, u64) {
    let region = machine.mee().geometry().data_region();
    (region.base().line(), region.size() / LINE_SIZE as u64)
}

/// The deterministic per-layer counts, by metric name.
pub fn count_entries(c: &Counts) -> Vec<(&'static str, u64)> {
    vec![
        ("machine.sched_steps", c.sched_steps),
        ("machine.ops_read", c.ops_read),
        ("machine.ops_write", c.ops_write),
        ("machine.ops_clflush", c.ops_clflush),
        ("cache.l1_hits", c.l1_hits),
        ("cache.l2_hits", c.l2_hits),
        ("cache.llc_hits", c.llc_hits),
        ("cache.dram_served", c.dram_served),
        ("cache.llc_evictions", c.llc_evictions),
        ("dram.fetches", c.dram_fetches()),
        ("mee.walks", c.walks()),
        ("mee.hits_versions", c.mee_hits[0]),
        ("mee.hits_l0", c.mee_hits[1]),
        ("mee.hits_l1", c.mee_hits[2]),
        ("mee.hits_l2", c.mee_hits[3]),
        ("mee.hits_root", c.mee_hits[4]),
        ("mee.cache_evictions", c.mee_cache_evictions),
        ("tree.writes", c.mee_writes),
        ("faults.applied", c.faults_applied),
    ]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Layers {
    /// Prints each ledger part.
    pub fn print_parts(&self) {
        for (name, ms) in &self.ledger.parts {
            println!("metric ledger.part.{name} {ms} ms");
        }
        println!(
            "metric ledger.unattributed_ms {} ms",
            self.ledger.unattributed_ms()
        );
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn metrics(&self, c: &Counts) -> Vec<Metric> {
        let count = |name, v: u64| Metric {
            name,
            value: v as f64,
            unit: "count",
        };
        let m = |name, value, unit| Metric { name, value, unit };
        let counts = count_entries(c);
        let lookup = |name| {
            let (_, v) = *counts
                .iter()
                .find(|(n, _)| *n == name)
                .expect("named count exists");
            count(name, v)
        };
        vec![
            m("attack.setup_ns", self.setup_ns, "ns"),
            m("attack.algo1_ns", self.algo1_ns, "ns"),
            m("attack.algo1_share", self.algo1_share, "ratio"),
            lookup("machine.sched_steps"),
            m("machine.sched_ns_per_step", self.sched_ns_per_step, "ns"),
            lookup("machine.ops_read"),
            lookup("machine.ops_write"),
            lookup("machine.ops_clflush"),
            m("machine.translate_ns", self.translate_ns, "ns"),
            lookup("cache.l1_hits"),
            lookup("cache.l2_hits"),
            lookup("cache.llc_hits"),
            lookup("cache.dram_served"),
            lookup("cache.llc_evictions"),
            m("cache.access_ns", self.cache_access_ns, "ns"),
            m(
                "cache.l1_hit_ratio",
                ratio(c.l1_hits, c.ops_read + c.ops_write),
                "ratio",
            ),
            lookup("dram.fetches"),
            m("dram.access_ns", self.dram_access_ns, "ns"),
            lookup("mee.walks"),
            lookup("mee.hits_versions"),
            lookup("mee.hits_l0"),
            lookup("mee.hits_l1"),
            lookup("mee.hits_l2"),
            lookup("mee.hits_root"),
            m(
                "mee.versions_hit_ratio",
                ratio(c.mee_hits[0], c.walks()),
                "ratio",
            ),
            lookup("mee.cache_evictions"),
            m("mee.walk_ns_versions", self.walk_ns_versions, "ns"),
            m("mee.walk_ns_deep", self.walk_ns_deep, "ns"),
            lookup("tree.writes"),
            m("tree.write_ns", self.write_ns, "ns"),
            lookup("faults.applied"),
            m("obs.tracing_overhead", self.tracing_overhead, "ratio"),
            m("ledger.attributed_ms", self.ledger.attributed_ms(), "ms"),
            m("ledger.measured_ms", self.ledger.measured_ms, "ms"),
            m(
                "ledger.unattributed_share",
                self.ledger.unattributed_ms() / self.ledger.measured_ms,
                "ratio",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::json_entries;

    fn ledger(parts: Vec<(&'static str, f64)>, measured_ms: f64) -> Ledger {
        Ledger { parts, measured_ms }
    }

    #[test]
    fn ledger_adds_back_to_the_measured_time() {
        let l = ledger(vec![("a", 2.0), ("b", 3.5)], 10.0);
        assert_eq!(l.attributed_ms(), 5.5);
        assert_eq!(l.unattributed_ms(), 4.5);
        assert!(l.reconcile().is_ok());
        // Over-attribution is reported as a negative residual, not an error.
        assert!(ledger(vec![("a", 12.0)], 10.0).reconcile().is_ok());
    }

    #[test]
    fn ledger_rejects_bad_parts() {
        assert!(ledger(vec![("a", -1.0)], 10.0).reconcile().is_err());
        assert!(ledger(vec![("a", f64::NAN)], 10.0).reconcile().is_err());
        assert!(ledger(vec![("a", 1.0)], 0.0).reconcile().is_err());
    }

    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let layers = Layers {
            setup_ns: 1.0,
            algo1_ns: 1.0,
            algo1_share: 1.0,
            sched_ns_per_step: 1.0,
            translate_ns: 1.0,
            cache_access_ns: 1.0,
            dram_access_ns: 1.0,
            walk_ns_versions: 1.0,
            walk_ns_deep: 1.0,
            write_ns: 1.0,
            tracing_overhead: 0.1,
            ledger: ledger(vec![("a", 1.0)], 2.0),
        };
        let ours: Vec<(String, String)> = layers
            .metrics(&Counts::default())
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        let listed = json_entries(include_str!("../../BENCHMARK.json"), "per_layer");
        assert_eq!(ours, listed);
    }
}
