//! Recorded deterministic outputs for the default and the held-out seed.
//!
//! `expected.txt` holds one `expect <workload> <seed> <key> <value>` line
//! per output of the fixed samples: each sample's fingerprint
//! (`fp.<i>`), the simulated metrics (`sim.<name>`) and the traced run's
//! per-layer counts (`count.<name>`). A run on a recorded seed compares
//! against them, so simulated-behaviour drift fails on either seed.
//! `--record` prints the lines for the current code.

use crate::workloads::{SampleOut, Workload};
use crate::Checks;

const EXPECTED: &str = include_str!("../expected.txt");

fn entries(workload: Workload, seed: u64) -> Vec<(&'static str, &'static str)> {
    let seed = seed.to_string();
    EXPECTED
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            (f.next() == Some("expect")
                && f.next() == Some(workload.name())
                && f.next() == Some(seed.as_str()))
            .then(|| (f.next(), f.next()))
        })
        .filter_map(|(k, v)| Some((k?, v?)))
        .collect()
}

/// Every output of a run, as `(key, value)` text.
fn actual(
    outs: &[SampleOut],
    sim: &[(&'static str, f64, &'static str)],
    counts: Option<&[(&'static str, u64)]>,
) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = outs
        .iter()
        .enumerate()
        .map(|(i, o)| (format!("fp.{i}"), format!("{:016x}", o.fingerprint)))
        .collect();
    v.extend(
        sim.iter()
            .map(|(n, x, _)| (format!("sim.{n}"), format!("{x:?}"))),
    );
    for (n, c) in counts.unwrap_or_default() {
        v.push((format!("count.{n}"), c.to_string()));
    }
    v
}

/// Compares a run's outputs with the recorded ones for its seed. Counts
/// are compared only when given (the traced run).
pub fn check_run(
    workload: Workload,
    seed: u64,
    outs: &[SampleOut],
    sim: &[(&'static str, f64, &'static str)],
    counts: Option<&[(&'static str, u64)]>,
    checks: &mut Checks,
) {
    let recorded = entries(workload, seed);
    if recorded.is_empty() {
        println!(
            "note no recorded outputs for {} seed {seed}; checked determinism and invariants only",
            workload.name()
        );
        return;
    }
    let actual = actual(outs, sim, counts);
    let mut compared = 0;
    for (key, want) in recorded {
        if key.starts_with("count.") && counts.is_none() {
            continue;
        }
        compared += 1;
        match actual.iter().find(|(k, _)| k == key) {
            Some((_, got)) if got == want => {}
            Some((_, got)) => {
                let sample = key
                    .strip_prefix("fp.")
                    .map_or(String::new(), |i| format!(" sample {i}"));
                checks.fail(format!(
                    "{} seed {seed}{sample}: {key} is {got}, recorded {want}",
                    workload.name()
                ));
            }
            None => checks.fail(format!(
                "{} seed {seed}: recorded output {key} was not produced",
                workload.name()
            )),
        }
    }
    println!(
        "note compared {compared} recorded outputs for {} seed {seed}",
        workload.name()
    );
}

/// Prints the `expect` lines for this run.
pub fn record(
    workload: Workload,
    seed: u64,
    outs: &[SampleOut],
    sim: &[(&'static str, f64, &'static str)],
    counts: Option<&[(&'static str, u64)]>,
) {
    for (key, value) in actual(outs, sim, counts) {
        println!("expect {} {seed} {key} {value}", workload.name());
    }
}
