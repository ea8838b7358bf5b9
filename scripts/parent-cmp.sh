#!/usr/bin/env bash
# Byte-compares the figure transcripts of the working tree against a git
# revision (default HEAD), the gate for a change that must not move any
# simulated output.
#
#   scripts/parent-cmp.sh [rev]
#
# Builds `rev` from `git archive` in a temporary directory and the working
# tree in place, then runs `experiments all 2019 1` and every experiment
# name at seed 7 (scale 1) on both builds and `cmp`s each pair of
# transcripts (stdout plus exit status). Prints the first differing name
# and exits 1 on a difference; exits 0 when every transcript matches.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-HEAD}"
git rev-parse --verify --quiet "${rev}^{commit}" >/dev/null ||
  { echo "parent-cmp: unknown revision '${rev}'" >&2; exit 2; }

work=$(mktemp -d)
trap 'rm -rf "${work}"' EXIT
mkdir -p "${work}/tree" "${work}/out"
git archive --format=tar "${rev}" | tar -x -C "${work}/tree"

echo "== building ${rev} (git archive)"
(cd "${work}/tree" && CARGO_TARGET_DIR="${work}/target" \
  cargo build --release --offline --quiet -p mee-bench --bin experiments)
echo "== building the working tree"
CARGO_TARGET_DIR="${work}/target-here" \
  cargo build --release --offline --quiet -p mee-bench --bin experiments
base_bin="${work}/target/release/experiments"
here_bin="${work}/target-here/release/experiments"

# The name list comes from the revision's own usage line, so a name the
# working tree dropped shows up as a difference (exit 2 vs a transcript).
names=$({ "${base_bin}" 2>&1 >/dev/null || true; } |
  sed -n 's/^usage: experiments <\([^>]*\)>.*/\1/p' | tr '|' '\n' | grep -vx all)
[ -n "${names}" ] || { echo "parent-cmp: no experiment names in the usage line" >&2; exit 2; }

# Runs one build on one argument list; the transcript is stdout plus the
# exit status.
transcript() {
  local bin=$1 out=$2 status=0
  shift 2
  "${bin}" "$@" >"${out}" 2>/dev/null || status=$?
  echo "exit ${status}" >>"${out}"
}

compare() {
  local label="$*"
  local key=${label// /_}
  transcript "${base_bin}" "${work}/out/${key}.base" "$@" &
  transcript "${here_bin}" "${work}/out/${key}.here" "$@" &
  wait
  if ! cmp -s "${work}/out/${key}.base" "${work}/out/${key}.here"; then
    echo "parent-cmp: 'experiments ${label}' differs from ${rev}"
    cmp "${work}/out/${key}.base" "${work}/out/${key}.here" || true
    exit 1
  fi
  echo "ok  experiments ${label}"
}

compare all 2019 1
for name in ${names}; do
  compare "${name}" 7 1
done
echo "parent-cmp: all $(( $(echo "${names}" | wc -l) + 1 )) transcripts byte-identical to ${rev}"
