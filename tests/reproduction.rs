//! Paper-anchor reproduction tests: every figure's qualitative claim, at
//! reduced scale so the whole file runs in seconds. The full-scale numbers
//! live in EXPERIMENTS.md and are produced by `cargo run -p mee-bench
//! --bin experiments -- all`.

use mee_covert::attack::channel::ChannelConfig;
use mee_covert::attack::experiments::{
    run_channel_sweep, run_fig4, run_fig6_with, run_fig7, run_fig8, run_headline, run_timers,
    NoiseEnvironment, SweepPlan,
};
use mee_covert::engine::HitLevel;
use mee_covert::testbed;

#[test]
fn figure4_probability_curve_and_capacity() {
    let r = run_fig4(42, 20).unwrap();
    // Monotone-ish rise from ~0 to ~1 (allow small sampling wiggle).
    let ps: Vec<f64> = r.capacity.points.iter().map(|(_, p)| *p).collect();
    assert!(ps[0] < 0.2, "p(2) = {}", ps[0]);
    assert!(*ps.last().unwrap() > 0.85, "p(64) = {}", ps.last().unwrap());
    for w in ps.windows(2) {
        assert!(w[1] >= w[0] - 0.15, "curve not (roughly) monotone: {ps:?}");
    }
}

#[test]
fn figure5_ladder_via_fig5_driver() {
    let r = mee_covert::attack::experiments::run_fig5(42, 32, 2).unwrap();
    let pooled = r.pooled();
    let versions = pooled.mean_at(HitLevel::Versions).unwrap();
    // §5.4 anchors.
    assert!((420..=560).contains(&versions.raw()), "versions = {versions}");
    let mut prev = versions;
    for level in [HitLevel::L0, HitLevel::L1, HitLevel::L2, HitLevel::Root] {
        if let Some(m) = pooled.mean_at(level) {
            assert!(m > prev, "{level}: {m} ≤ {prev}");
            prev = m;
        }
    }
}

#[test]
fn figure6_contrast() {
    // One representative two-panel run; the sixteen-seed pooled statistics
    // live in `figure6_channel_statistics_pool_sixteen_seeds` below and in
    // the P+P contrast sweep in the attack crate. 64 bits, not the
    // paper-figure's 16: at ~5% channel error a 16-bit payload fails its
    // own <15% bound with non-trivial probability (3 unlucky bits suffice).
    let r = run_fig6_with(42, 64, &ChannelConfig::sweep_setup()).unwrap();
    assert!(r.this_work.errors.rate() < 0.15);
    assert!(r.prime_probe.errors.rate() >= r.this_work.errors.rate());
    // The probe-cost claim: >3500 cycles vs well under 1000.
    assert!(r.prime_probe.probe_times.iter().all(|t| t.raw() > 3_500));
    assert!(r
        .this_work
        .probe_times
        .iter()
        .all(|t| t.raw() < 1_500));
}

#[test]
fn figure6_channel_statistics_pool_sixteen_seeds() {
    // Successor of the 3-seed brittleness guard: sixteen independent noisy
    // sessions, seeds split from the workspace root, run through the
    // parallel sweep runner (bit-identical to serial for any thread
    // count). The channel's §5.4 claims must hold pooled and per session.
    let plan = SweepPlan::new(testbed::SEED, 16);
    let points = run_channel_sweep(&plan, &ChannelConfig::sweep_setup(), 24).unwrap();
    assert_eq!(points.len(), 16);
    let total_bits: usize = points.iter().map(|p| p.bits).sum();
    let total_errors: usize = points.iter().map(|p| p.bit_errors).sum();
    let pooled_rate = total_errors as f64 / total_bits as f64;
    assert!(
        pooled_rate < 0.08,
        "pooled error rate {pooled_rate} over {total_bits} bits"
    );
    for p in &points {
        // No catastrophic session hides inside a good pool…
        assert!(p.error_rate() < 0.25, "session {} (seed {}): {}", p.index, p.seed, p.error_rate());
        // …every session hits the paper's ~35 KBps operating point…
        assert!((30.0..=40.0).contains(&p.kbps), "session {}: {} KBps", p.index, p.kbps);
        // …and single-way probes stay far below P+P's 3500-cycle sweeps.
        assert!(p.probe_p95.raw() < 1_500, "session {}: p95 {}", p.index, p.probe_p95);
    }
}

#[test]
fn figure7_cliff_and_sweet_spot() {
    let r = run_fig7(42, 384, &[7_500, 15_000]).unwrap();
    let err = |w: u64| {
        r.points
            .iter()
            .find(|p| p.window == w)
            .unwrap()
            .error_rate
    };
    assert!(err(7_500) > err(15_000) + 0.1, "no cliff below 9000 cycles");
    assert!(err(15_000) < 0.08);
}

#[test]
fn figure8_environment_ordering() {
    let r = run_fig8(42, 128).unwrap();
    let rate = |env| {
        r.runs
            .iter()
            .find(|(e, _)| *e == env)
            .map(|(_, o)| o.error_rate())
            .unwrap()
    };
    let quiet = rate(NoiseEnvironment::None);
    let mem = rate(NoiseEnvironment::MemStress);
    let mee = rate(NoiseEnvironment::MeeStride512).max(rate(NoiseEnvironment::MeeStride4k));
    assert!(quiet < 0.06);
    // "minimal impact since the MEE cache is not accessed".
    assert!(mem < mee + 0.05);
    assert!(mee < 0.35);
}

#[test]
fn headline_numbers() {
    let r = run_headline(42, 768).unwrap();
    assert!((30.0..=40.0).contains(&r.kbps), "kbps = {}", r.kbps);
    assert!(r.raw_error_rate < 0.08, "raw error = {}", r.raw_error_rate);
}

#[test]
fn timing_primitive_costs() {
    let r = run_timers(42, 16).unwrap();
    assert!(r.rdtsc_faults_in_enclave);
    let (min, max) = r.ocall_range();
    assert!(min.raw() >= 8_000 && max.raw() <= 15_000);
    assert_eq!(r.timer_read_cost.raw(), 50);
}
