//! Establishment-phase microbench: isolates Algorithm 1 (the paper's
//! eviction-set construction, §4.2) and reports host-time percentiles for
//! it, the way `bench-sweep` does for whole sessions.
//!
//! Establishment drives the machine directly through `CoreHandle` — no
//! scheduler involved — so its host cost is a separate series from the
//! transmit-phase numbers, and the one the translation memo and batched
//! sweep paths target. Each sample builds a fresh noisy `AttackSetup`
//! from a derived seed and times `find_eviction_set` over the default
//! 160-candidate pool with 3-vote majorities (the `algo1` workload).
//!
//! Every sample is run twice: once on the default machine (translation
//! memo on) and once with `tlb_entries = 0` (memo off, the pre-memo
//! translate-per-op behaviour). The two runs must agree on the discovered
//! eviction set, the final core clock, and the end-of-run MEE statistics;
//! any divergence prints the offending sample and exits 1, mirroring
//! `bench-trace`'s metrics/engine reconciliation. Host time is measured
//! on the memo-on runs only.
//!
//! Output: one JSON line per sample plus an aggregate line, mirrored to
//! `BENCH_establish.json` (or `--out`).

use std::time::Instant;

use mee_attack::recon::eviction::{find_eviction_set, EvictionSetResult};
use mee_attack::setup::AttackSetup;
use mee_attack::threshold::LatencyClassifier;
use mee_bench::output::JsonlWriter;
use mee_bench::HarnessArgs;
use mee_engine::MeeStats;
use mee_machine::MachineConfig;
use mee_rng::stream_seed;
use mee_types::{Cycles, ModelError};

const CANDIDATES: usize = 160;
const REPS: usize = 3;

/// Everything the memo must not change: the discovered set, the simulated
/// clock it cost, and the MEE cache's end-of-run statistics.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    eviction_set: Vec<u64>,
    test_address: u64,
    index_set_size: usize,
    final_clock: Cycles,
    mee_stats: MeeStats,
}

/// Runs one establishment sample and returns its fingerprint plus the
/// host nanoseconds spent inside `find_eviction_set`.
fn run_sample(seed: u64, cfg: MachineConfig) -> Result<(Fingerprint, u128), ModelError> {
    let mut setup = AttackSetup::with_config(cfg, seed)?;
    let classifier = LatencyClassifier::from_timing(&setup.machine.config().timing);
    let candidates = setup.trojan.candidates(CANDIDATES, 0);
    let trojan_core = setup.trojan.core;
    let mut cpu = setup.trojan_handle();
    let start = Instant::now();
    let result: EvictionSetResult = find_eviction_set(&mut cpu, &candidates, &classifier, REPS)?;
    let host_ns = start.elapsed().as_nanos();
    let fp = Fingerprint {
        eviction_set: result.eviction_set.iter().map(|a| a.raw()).collect(),
        test_address: result.test_address.raw(),
        index_set_size: result.index_set_size,
        final_clock: setup.machine.core_now(trojan_core),
        mee_stats: setup.machine.mee().stats(),
    };
    Ok((fp, host_ns))
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn main() {
    let args = HarnessArgs::from_env();
    let samples = 4 * args.scale;
    let mut writer = JsonlWriter::create_or_exit(Some(&args.out_or("BENCH_establish.json")));
    let mut host_ns: Vec<u128> = Vec::with_capacity(samples);
    let mut divergences = 0usize;
    for i in 0..samples {
        let seed = stream_seed(args.seed, i as u64);
        let timed = match run_sample(seed, MachineConfig::default()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench-establish: sample {i} (seed {seed}) failed: {e}");
                std::process::exit(1);
            }
        };
        let memo_off = MachineConfig { tlb_entries: 0, ..MachineConfig::default() };
        let reference = match run_sample(seed, memo_off) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench-establish: memo-off replay {i} (seed {seed}) failed: {e}");
                std::process::exit(1);
            }
        };
        if timed.0 != reference.0 {
            eprintln!(
                "bench-establish: memo divergence at sample {i} (seed {seed}):\n  \
                 memo-on : {:?}\n  memo-off: {:?}",
                timed.0, reference.0
            );
            divergences += 1;
        }
        writer.line_or_exit(&format!(
            "{{\"sample\":{i},\"seed\":{seed},\"eviction_set_len\":{},\
             \"index_set_size\":{},\"final_clock\":{},\"host_ns\":{}}}",
            timed.0.eviction_set.len(),
            timed.0.index_set_size,
            timed.0.final_clock.raw(),
            timed.1
        ));
        host_ns.push(timed.1);
    }
    host_ns.sort_unstable();
    writer.line_or_exit(&format!(
        "{{\"name\":\"establish/algo1\",\"root_seed\":{},\"samples\":{samples},\
         \"candidates\":{CANDIDATES},\"reps\":{REPS},\
         \"host_ns_p50\":{},\"host_ns_p90\":{},\"host_ns_p99\":{},\
         \"memo_divergences\":{divergences}}}",
        args.seed,
        percentile(&host_ns, 50.0),
        percentile(&host_ns, 90.0),
        percentile(&host_ns, 99.0),
    ));
    if divergences > 0 {
        eprintln!("bench-establish: {divergences} memo divergence(s) — translation memo changed behaviour");
        std::process::exit(1);
    }
}
