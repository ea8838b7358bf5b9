#!/usr/bin/env bash
# Tier-1 verification, exactly as the driver runs it. The workspace is
# hermetic (path-only dependencies), so every step runs --offline: a
# reappearing registry dependency fails here instead of at first use on an
# air-gapped machine.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --workspace
cargo test -q --offline --workspace
# --workspace: the root manifest has a [package], so a bare `cargo clippy`
# would lint only the facade crate.
cargo clippy --workspace --all-targets --offline -- -D warnings

# Every example must run end to end (quick payloads, release build).
for example in quickstart covert_channel noisy_channel prime_probe_failure \
               reverse_engineer wide_channel faulty_channel; do
  echo "== example: ${example}"
  cargo run --release --offline --example "${example}" >/dev/null
done

# The invariant registry: exhaustive model-checking-lite tier at the full
# budget, then the fixed-seed property tier. Any counterexample prints a
# one-line replay recipe and exits 1, failing CI here. Both tiers run on
# the one production scheduler, the event-queue core; the differential
# tier (tests/engine_equivalence.rs, part of the workspace tests above)
# holds it bit-identical to a min-clock reference scan kept in that file.
echo "== spec: exhaustive tier"
cargo run --release --offline -p mee-spec -- --tier exhaustive --budget full
echo "== spec: property tier"
cargo run --release --offline -p mee-spec -- --tier property

# Smoke-run the figure dispatcher on its cheapest entry (the §3
# timing-primitive census) so the name table and its argument handling
# run end to end on every CI run.
echo "== experiments smoke"
cargo run --release --offline -p mee-bench --bin experiments -- timers 2019 1 >/dev/null

# Smoke-run the parallel seed-sweep bench (scale 1 = 4 sessions, 64 bits
# each) and hold the BENCH_sweep.json aggregate to its schema: a missing
# key means a consumer diffing the trajectory across commits silently
# loses that series.
echo "== bench-sweep smoke"
cargo run --release --offline -p mee-bench --bin bench-sweep -- 2019 1 --threads 2 >/dev/null
for key in name root_seed sessions threads bits_per_session ber_mean ber_p95 \
           kbps_p50 kbps_p95 probe_p50_cycles probe_p95_cycles host_ns_p50 \
           host_ns_p90 host_ns_p95 host_ns_p99; do
  grep -q "\"${key}\":" BENCH_sweep.json ||
    { echo "BENCH_sweep.json schema drift: missing key '${key}'" >&2; exit 1; }
done

# Smoke-run the resilience bench (2 sessions, off/light/heavy fault plans
# with the full raw/robust/ARQ phase stack) and hold BENCH_resilience.json
# to its schema the same way.
echo "== bench-resilience smoke"
cargo run --release --offline -p mee-bench --bin bench-resilience -- 2019 1 --threads 2 >/dev/null
for key in name root_seed sessions threads bits_per_session raw_ber_off \
           raw_ber_light raw_ber_heavy degradation_x residual_worst \
           retransmissions_heavy window_escalations_heavy goodput_heavy_kbps; do
  grep -q "\"${key}\":" BENCH_resilience.json ||
    { echo "BENCH_resilience.json schema drift: missing key '${key}'" >&2; exit 1; }
done

# The crash-safe campaign smoke: run a reference campaign, kill a second
# one mid-flight with deterministic crash injection (exit 3), resume it at
# a different thread count, and require the resumed artifact to be
# byte-identical to the uninterrupted reference — the kill/resume
# determinism contract, enforced with cmp on every CI run. Then hold
# BENCH_campaign.json to its schema like the other artifacts.
echo "== bench-campaign kill/resume smoke"
CAMPAIGN_TMP=$(mktemp -d)
trap 'rm -rf "${CAMPAIGN_TMP}"' EXIT
cargo run --release --offline -p mee-bench --bin bench-campaign -- 2019 1 --threads 2 \
  --dir "${CAMPAIGN_TMP}/ref" --out BENCH_campaign.json >/dev/null
if cargo run --release --offline -p mee-bench --bin bench-campaign -- 2019 1 --threads 2 \
  --dir "${CAMPAIGN_TMP}/kill" --abort-after 2 \
  --out "${CAMPAIGN_TMP}/aborted.json" >/dev/null 2>&1; then
  echo "bench-campaign: injected abort did not fail the process" >&2; exit 1
else
  status=$?
  [ "${status}" -eq 3 ] ||
    { echo "bench-campaign: expected exit 3 on injected abort, got ${status}" >&2; exit 1; }
fi
cargo run --release --offline -p mee-bench --bin bench-campaign -- 2019 1 --threads 4 \
  --dir "${CAMPAIGN_TMP}/kill" --resume --out "${CAMPAIGN_TMP}/resumed.json" >/dev/null
cmp BENCH_campaign.json "${CAMPAIGN_TMP}/resumed.json" ||
  { echo "bench-campaign: resumed artifact differs from uninterrupted reference" >&2; exit 1; }
for key in name root_seed sessions_planned shards sessions_aggregated \
           quarantined_shards missing_sessions series count mean var min max \
           p10 p50 p90 p95; do
  grep -q "\"${key}\":" BENCH_campaign.json ||
    { echo "BENCH_campaign.json schema drift: missing key '${key}'" >&2; exit 1; }
done

# Smoke-run the traced-session exporter (seed 2019, light fault plan) and
# hold BENCH_trace.json to its schema. The binary itself exits non-zero if
# the four event categories are not all present or if the traced metrics
# do not reconcile exactly with the engine's end-of-run statistics, so
# this also gates the observability invariants.
echo "== bench-trace smoke"
cargo run --release --offline -p mee-bench --bin bench-trace -- 2019 1 >/dev/null
for key in traceEvents displayTimeUnit meta meeMetrics hostProfile; do
  grep -q "\"${key}\":" BENCH_trace.json ||
    { echo "BENCH_trace.json schema drift: missing key '${key}'" >&2; exit 1; }
done
# Smoke-run the establishment microbench (4 samples at scale 1) and hold
# BENCH_establish.json to its schema. The binary replays every sample with
# the translation memo disabled and exits non-zero if any discovered
# eviction set, final clock, or MEE statistic diverges, so this also gates
# the memo's bit-identity contract on every CI run.
echo "== bench-establish smoke"
cargo run --release --offline -p mee-bench --bin bench-establish -- 2019 1 >/dev/null
for key in name root_seed samples candidates reps host_ns_p50 host_ns_p90 \
           host_ns_p99 memo_divergences; do
  grep -q "\"${key}\":" BENCH_establish.json ||
    { echo "BENCH_establish.json schema drift: missing key '${key}'" >&2; exit 1; }
done

# The repository benchmark's correctness gates: its unit tests, then short
# runs of every workload on the default and held-out seeds. Each run checks
# its simulated outputs against perfbench/expected.txt and exits 1 on drift.
# enclave_rw is also run traced, the only path that reaches tree writes
# with per-layer counts.
echo "== perfbench correctness"
cargo test -q --offline --manifest-path perfbench/Cargo.toml
for seed in 2019 2718; do
  for workload in establish transmit noisy enclave_rw; do
    echo "-- perfbench ${workload} seed ${seed}"
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
      --workload "${workload}" --seed "${seed}" --seconds 1 --trace 0 >/dev/null
  done
done
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload enclave_rw --seconds 1 --trace 1 >/dev/null
echo "ci.sh: all checks passed"
