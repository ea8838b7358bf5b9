//! The parallel seed-sweep benchmark: N independent channel sessions
//! (establish + transmit on a fresh noisy machine each) run through the
//! `mee-sweep` work queue, with per-session host timing.
//!
//! ```text
//! cargo run --release -p mee-bench --bin bench-sweep -- [seed] [scale] [--threads N]
//! ```
//!
//! * one JSON line per session on stdout (carrying the session's split
//!   seed, so a suspicious session replays standalone — see
//!   EXPERIMENTS.md "Running sweeps");
//! * one aggregate JSON line, also written to `BENCH_sweep.json` in the
//!   working directory (`--out <path>` overrides the artifact path);
//! * `scale` multiplies both the session count (4×) and the payload
//!   (64 bits ×); `--threads` / `MEE_SWEEP_THREADS` pin the worker count,
//!   which changes wall time but never the results (a malformed
//!   `MEE_SWEEP_THREADS` exits 2).

use std::time::Instant;

use mee_attack::channel::ChannelConfig;
use mee_attack::experiments::channel_session;
use mee_bench::sweep::{SessionRecord, SweepReport};
use mee_bench::HarnessArgs;
use mee_sweep::Sweep;

fn main() {
    let args = HarnessArgs::from_env();
    let runner = Sweep::new().threads(args.threads);
    let sessions = 4 * args.scale;
    let bits = 64 * args.scale;
    let cfg = ChannelConfig::sweep_setup();

    let records = runner.seed_sweep(args.seed, sessions, |spec| {
        let start = Instant::now();
        let point = channel_session(spec, &cfg, bits).expect("channel session");
        let host_ns = start.elapsed().as_nanos() as f64;
        SessionRecord {
            index: point.index,
            seed: point.seed,
            bits,
            bit_errors: point.bit_errors,
            kbps: point.kbps,
            probe_p50_cycles: point.probe_p50.raw(),
            probe_p95_cycles: point.probe_p95.raw(),
            host_ns,
        }
    });

    let report = SweepReport {
        name: "channel/seed_sweep".into(),
        root_seed: args.seed,
        threads: runner.thread_count(),
        bits_per_session: bits,
        records,
    };
    report.emit();
    let path = args.out_or("BENCH_sweep.json");
    let path = path.as_path();
    if let Err(e) = report.write(path) {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
}
