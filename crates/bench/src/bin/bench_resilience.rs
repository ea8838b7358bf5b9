//! The resilience benchmark: N independent sessions, each measuring the
//! channel under the off/light/heavy fault plans (raw, self-healing, and
//! full ARQ phases — see `experiments::resilience`), run through the
//! `mee-sweep` work queue.
//!
//! ```text
//! cargo run --release -p mee-bench --bin bench-resilience -- [seed] [scale] [--threads N]
//! ```
//!
//! * one JSON line per (session, intensity) cell on stdout, carrying the
//!   session's split seed so any cell replays standalone via
//!   `run_resilience(seed, bits)`;
//! * one aggregate JSON line, also written to `BENCH_resilience.json` in
//!   the working directory (`--out <path>` overrides the artifact path);
//! * `scale` multiplies the session count (2×); `--threads` /
//!   `MEE_SWEEP_THREADS` pin the worker count, which changes wall time but
//!   never the results.

use mee_attack::experiments::{run_resilience_sweep, SweepPlan};
use mee_bench::resilience::{IntensityRecord, ResilienceReport};
use mee_bench::HarnessArgs;

fn main() {
    let args = HarnessArgs::from_env();
    let sessions = 2 * args.scale;
    let bits = 48;

    let mut plan = SweepPlan::new(args.seed, sessions);
    if let Some(t) = args.threads {
        plan = plan.threads(t);
    }
    let results = match run_resilience_sweep(&plan, bits) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("resilience sweep failed: {e}");
            std::process::exit(1);
        }
    };

    let records = results
        .iter()
        .flat_map(|(spec, result)| {
            result.points.iter().map(|p| IntensityRecord {
                index: spec.index,
                seed: spec.seed,
                intensity: p.intensity.label(),
                faults_applied: p.faults_applied,
                raw_ber: p.raw_ber(),
                robust_ber: p.robust_ber(),
                residual_rate: p.residual_rate(),
                retransmissions: p.retransmissions,
                window_escalations: p.window_escalations,
                final_window_cycles: p.final_window.raw(),
                goodput_kbps: p.goodput_kbps,
            })
        })
        .collect();

    let report = ResilienceReport {
        name: "resilience/fault_sweep".into(),
        root_seed: args.seed,
        threads: plan.runner().thread_count(),
        bits_per_session: bits,
        records,
    };
    report.emit();
    let path = args.out_or("BENCH_resilience.json");
    let path = path.as_path();
    if let Err(e) = report.write(path) {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
}
