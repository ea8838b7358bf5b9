//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <establish|transmit|noisy|enclave_rw> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One process, one thread. `--trace 0` runs the workload for `--seconds`
//! with tracing off and reports the end-to-end metrics; `--trace 1`
//! replays the workload's fixed samples untraced and traced and reports
//! the per-layer metrics and the ledger. Every line before the last is a
//! named metric or a note; the last line is the JSON result. A wrong
//! simulated output exits 1 after printing the result with
//! `"correct": false`; bad arguments exit 2.
//!
//! `--record` additionally prints the `expect` lines that
//! `expected.txt` holds for the workload and seed.

mod alloc;
mod expected;
mod layers;
mod rss;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use mee_rng::stream_seed;

use crate::stats::{Metric, Summary};
use crate::workloads::{Counts, SampleOut, Unit, Workload};

/// The gated end-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("mee_walks_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 2019;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

const USAGE: &str = "usage: perfbench --workload <establish|transmit|noisy|enclave_rw> \
                     [--seed N] [--seconds N] [--trace 0|1] [--record]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        record,
    })
}

/// Collects metrics, prints each as a named line, and remembers which go
/// into the result line.
struct Report {
    result: Vec<Metric>,
}

impl Report {
    fn new() -> Self {
        Report { result: Vec::new() }
    }

    /// Prints a metric line without putting it in the result.
    fn note(&self, name: &str, value: f64, unit: &str, extra: &str) {
        println!("metric {name} {value} {unit}{extra}");
    }

    /// Prints a metric line and puts the metric in the result.
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.note(name, value, unit, "");
        self.result.push(Metric { name, value, unit });
    }
}

/// Prints a timing summary: the median, the fixed percentile `fixed` when
/// at least ten samples lie beyond it, and the highest supported tail.
fn print_summary(report: &Report, base: &str, unit: &str, samples: &[f64], fixed: Option<u32>) {
    let s = Summary::of(samples);
    let n = format!(" n={}", s.n);
    report.note(&format!("{base}_p50"), s.p50, unit, &n);
    if let Some(p) = fixed {
        match s.percentile(f64::from(p)) {
            Some(v) => report.note(&format!("{base}_p{p}"), v, unit, &n),
            None => println!(
                "note {base}_p{p} not reported: fewer than {} of {} samples beyond it",
                stats::TAIL_SUPPORT,
                s.n
            ),
        }
    }
    match s.tail {
        Some((p, v)) => report.note(&format!("{base}_tail"), v, unit, &format!(" p={p}{n}")),
        None => println!("note {base}_tail not reported: {} samples", s.n),
    }
}

/// `(attempted, failed)` for `fail_share`: timed units plus the
/// establishment attempts that gave no working channel and were retried.
fn fail_counts(outs: &[SampleOut]) -> (u64, u64) {
    let retries: u64 = outs.iter().map(|o| o.retries).sum();
    let attempted: u64 = outs.iter().map(|o| o.attempted).sum();
    let failed: u64 = outs.iter().map(|o| o.failed).sum();
    (attempted + retries, failed + retries)
}

/// The simulated outputs of the fixed samples; they repeat exactly.
struct SimOutputs {
    ber: Option<f64>,
    kbps_p50: Option<f64>,
    establish_mcycles_p50: Option<f64>,
    fail_share: f64,
}

impl SimOutputs {
    fn of(outs: &[SampleOut]) -> SimOutputs {
        let bits: u64 = outs.iter().map(|o| o.bits).sum();
        let errors: u64 = outs.iter().map(|o| o.bit_errors).sum();
        let kbps: Vec<f64> = outs.iter().flat_map(|o| o.kbps.iter().copied()).collect();
        let cycles: Vec<f64> = outs
            .iter()
            .filter_map(|o| o.establish_cycles.map(|c| c as f64 / 1e6))
            .collect();
        let (attempted, failed) = fail_counts(outs);
        SimOutputs {
            ber: (bits > 0).then(|| errors as f64 / bits as f64),
            kbps_p50: (!kbps.is_empty()).then(|| Summary::of(&kbps).p50),
            establish_mcycles_p50: (!cycles.is_empty()).then(|| Summary::of(&cycles).p50),
            fail_share: failed as f64 / attempted.max(1) as f64,
        }
    }

    /// `(name, value, unit)` of every applicable output.
    fn entries(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut v = Vec::new();
        if let Some(x) = self.ber {
            v.push(("ber", x, "ratio"));
        }
        if let Some(x) = self.kbps_p50 {
            v.push(("kbps_p50", x, "KBps"));
        }
        if let Some(x) = self.establish_mcycles_p50 {
            v.push(("establish_sim_mcycles_p50", x, "Mcycles"));
        }
        v.push(("fail_share", self.fail_share, "ratio"));
        v
    }
}

/// The output checks every run makes; returns the failures.
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn new() -> Self {
        Checks {
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        eprintln!("perfbench: {msg}");
        self.failures.push(msg);
    }

    fn samples(&mut self, workload: Workload, seed: u64, outs: &[SampleOut]) {
        for (i, o) in outs.iter().enumerate() {
            for e in &o.errors {
                println!(
                    "note {} seed {seed} sample {i} failed: {e}",
                    workload.name()
                );
            }
            for v in &o.violations {
                self.fail(format!(
                    "{} seed {seed} sample {i} (sample seed {}): {v}",
                    workload.name(),
                    stream_seed(seed, i as u64)
                ));
            }
        }
    }
}

/// Runs sample `i` of the workload under the workload seed.
fn run_sample(workload: Workload, seed: u64, i: usize, traced: bool) -> Result<SampleOut, String> {
    workloads::run_sample(workload, stream_seed(seed, i as u64), traced).map_err(|e| {
        format!(
            "{} seed {seed} sample {i} could not run: {e}",
            workload.name()
        )
    })
}

/// `--trace 0`: the timed run.
fn timed(args: &Args, report: &mut Report, checks: &mut Checks) -> Result<(u64, u64), String> {
    let w = args.workload;
    let fixed = w.fixed_samples();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut outs = Vec::new();
    while outs.len() < fixed || start.elapsed() < budget {
        outs.push(run_sample(w, args.seed, outs.len(), false)?);
    }
    let wall = start.elapsed().as_secs_f64();
    checks.samples(w, args.seed, &outs);

    // Replay the first sample: the same seed must give the same outputs.
    let replay = run_sample(w, args.seed, 0, false)?;
    if replay.fingerprint != outs[0].fingerprint {
        checks.fail(format!(
            "{} seed {} sample 0 is not deterministic: fingerprint {:016x} then {:016x}",
            w.name(),
            args.seed,
            outs[0].fingerprint,
            replay.fingerprint
        ));
    }
    let sim = SimOutputs::of(&outs[..fixed]);
    expected::check_run(w, args.seed, &outs[..fixed], &sim.entries(), None, checks);
    if args.record {
        expected::record(w, args.seed, &outs[..fixed], &sim.entries(), None);
    }

    println!(
        "note workload {} seed {} samples {} wall {wall:.3} s (fixed samples {fixed}; unit: {})",
        w.name(),
        args.seed,
        outs.len(),
        w.unit()
    );
    let units: Vec<Unit> = outs.iter().flat_map(|o| o.units.iter().copied()).collect();
    let attempted: u64 = outs.iter().map(|o| o.attempted).sum();
    let failed: u64 = outs.iter().map(|o| o.failed).sum();

    let setups: Vec<f64> = outs.iter().map(|o| o.setup_ns / 1e9).collect();
    let per_walk: Vec<f64> = units.iter().filter_map(Unit::ns_per_walk).collect();
    let work_s: f64 = units.iter().map(|u| u.ns).sum::<f64>() / 1e9;
    let walks: u64 = units.iter().map(|u| u.walks).sum();
    let values = [
        Summary::of(&setups).p50,
        walks as f64 / work_s,
        rss::peak_rss_mib()?,
    ];
    for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
        report.put(name, value, unit);
    }
    print_summary(report, "ns_per_walk", "ns", &per_walk, None);

    // The workload's own host metrics.
    match w {
        Workload::Establish => {
            let ms: Vec<f64> = units.iter().map(|u| u.ns / 1e6).collect();
            print_summary(report, "establish_ms", "ms", &ms, Some(95));
        }
        Workload::Transmit | Workload::Noisy => {
            let us: Vec<f64> = units.iter().map(Unit::us_per_element).collect();
            print_summary(report, "transmit_us_per_bit", "us", &us, Some(90));
        }
        Workload::EnclaveRw => {
            let ops: u64 = units.iter().map(|u| u.size).sum();
            report.note("rw_ops_per_s", ops as f64 / work_s, "1/s", "");
            let us: Vec<f64> = units.iter().map(Unit::us_per_element).collect();
            print_summary(report, "rw_op_us", "us", &us, None);
        }
    }
    let (all_attempted, all_failed) = fail_counts(&outs);
    report.note(
        "fail_share_run",
        all_failed as f64 / all_attempted.max(1) as f64,
        "ratio",
        &format!(" attempted={all_attempted}"),
    );
    for (name, value, unit) in sim.entries() {
        report.note(name, value, unit, &format!(" fixed samples={fixed}"));
    }
    Ok((attempted, failed))
}

/// `--trace 1`: the traced run. The first pass over the fixed samples
/// gives the counts; further passes until `--seconds` is up time the
/// untraced and traced walls, and must repeat the first pass's outputs.
fn traced(args: &Args, report: &mut Report, checks: &mut Checks) -> Result<(u64, u64), String> {
    let w = args.workload;
    let fixed = w.fixed_samples();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut plain = Vec::with_capacity(fixed);
    let mut traced = Vec::with_capacity(fixed);
    let (mut plain_ns, mut traced_ns, mut passes) = (0.0, 0.0, 0u32);
    // Alternate untraced and traced replays of each fixed sample, so host
    // drift during the run lands on both sides of the overhead ratio.
    while passes == 0 || start.elapsed() < budget {
        for i in 0..fixed {
            let (p, t) = (
                run_sample(w, args.seed, i, false)?,
                run_sample(w, args.seed, i, true)?,
            );
            plain_ns += p.total_ns;
            traced_ns += t.total_ns;
            if passes == 0 {
                plain.push(p);
                traced.push(t);
            } else if p.fingerprint != plain[i].fingerprint || t.fingerprint != plain[i].fingerprint
            {
                checks.fail(format!(
                    "{} seed {} sample {i} is not deterministic: pass {passes} fingerprints \
                     {:016x} untraced, {:016x} traced, first {:016x}",
                    w.name(),
                    args.seed,
                    p.fingerprint,
                    t.fingerprint,
                    plain[i].fingerprint
                ));
            }
        }
        passes += 1;
    }
    println!("note {passes} passes over {fixed} fixed samples");
    let walls = layers::Walls {
        plain_ns: plain_ns / f64::from(passes),
        traced_ns: traced_ns / f64::from(passes),
    };
    checks.samples(w, args.seed, &plain);
    let mut counts = Counts::default();
    for (i, (p, t)) in plain.iter().zip(&traced).enumerate() {
        if p.fingerprint != t.fingerprint {
            checks.fail(format!(
                "{} seed {} sample {i}: tracing changed the outputs (fingerprint {:016x} untraced, {:016x} traced)",
                w.name(),
                args.seed,
                p.fingerprint,
                t.fingerprint
            ));
        }
        let c = t.counts.expect("traced samples carry counts");
        if c.metrics_mee_hits != c.mee_hits {
            checks.fail(format!(
                "{} seed {} sample {i}: metrics registry walks {:?} differ from Mee::stats {:?}",
                w.name(),
                args.seed,
                c.metrics_mee_hits,
                c.mee_hits
            ));
        }
        counts.add(&c);
    }
    let sim = SimOutputs::of(&plain);
    let layer = layers::measure(w, args.seed, &plain, &counts, walls);
    let count_entries = layers::count_entries(&counts);
    expected::check_run(
        w,
        args.seed,
        &plain,
        &sim.entries(),
        Some(&count_entries),
        checks,
    );
    if args.record {
        expected::record(w, args.seed, &plain, &sim.entries(), Some(&count_entries));
    }
    if let Err(e) = layer.ledger.reconcile() {
        checks.fail(format!("{} seed {}: {e}", w.name(), args.seed));
    }
    layer.print_parts();
    for (name, value, unit) in sim.entries() {
        report.note(name, value, unit, &format!(" fixed samples={fixed}"));
    }
    for m in layer.metrics(&counts) {
        report.put(m.name, m.value, m.unit);
    }
    let attempted = traced.iter().map(|o| o.attempted).sum();
    let failed = traced.iter().map(|o| o.failed).sum();
    Ok((attempted, failed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !alloc::pin_mmap_threshold() {
        println!(
            "note the allocator's mmap threshold could not be pinned; set-up times may be bimodal"
        );
    }
    let mut report = Report::new();
    let mut checks = Checks::new();
    let run = if args.trace {
        traced(&args, &mut report, &mut checks)
    } else {
        timed(&args, &mut report, &mut checks)
    };
    let (attempted, failed) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = checks.failures.is_empty();
    match stats::result_line(correct, attempted, failed, &report.result) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: cannot report: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} output check(s) failed on {} seed {}",
            checks.failures.len(),
            args.workload.name(),
            args.seed
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::json_entries;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
    const SPEC: &str = include_str!("../spec.json");

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let listed = json_entries(BENCHMARK, "end_to_end");
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let listed: Vec<String> = json_entries(BENCHMARK, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn every_metric_is_documented_with_a_valid_name_and_unit() {
        let spec = json_entries(SPEC, "metrics");
        for section in ["end_to_end", "per_layer"] {
            for (name, unit) in json_entries(BENCHMARK, section) {
                assert!(stats::valid_name(&name), "{name}");
                assert!(stats::valid_unit(&unit), "{name}: {unit}");
                assert!(
                    spec.contains(&(name.clone(), unit.clone())),
                    "{name} ({unit}) missing from spec.json"
                );
            }
        }
        for (name, unit) in &spec {
            assert!(
                stats::valid_name(name) && stats::valid_unit(unit),
                "{name}: {unit}"
            );
        }
    }
}
