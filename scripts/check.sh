#!/usr/bin/env bash
# Full verification cycle: configure, build, test, guard the repo
# hygiene invariants, smoke the observability outputs, regenerate every
# experiment.  Mirrors what CI would run.
#
#   scripts/check.sh                   the full cycle
#   scripts/check.sh --sanitize=asan   ASan+UBSan build, fault+stress+net suites
#   scripts/check.sh --sanitize=tsan   TSan build, fault+stress+net suites
#   scripts/check.sh --sanitize=ubsan  standalone UBSan build, same suites
#
# Sanitizer mode builds into build-<name>/ (the plain build/ stays usable),
# runs the whole test suite under the sanitizer, then re-runs the fault and
# stress labels explicitly — those suites exist to execute failure paths,
# exactly where use-after-free and data races hide.
set -euo pipefail
cd "$(dirname "$0")/.."

sanitize=""
for arg in "$@"; do
  case "$arg" in
    --sanitize=asan|--sanitize=tsan|--sanitize=ubsan)
      sanitize="${arg#--sanitize=}" ;;
    *) echo "usage: scripts/check.sh [--sanitize=asan|tsan|ubsan]" >&2; exit 2 ;;
  esac
done

# Build artifacts must never be tracked (they were once; never again).
if git ls-files | grep -q '^build[^/]*/'; then
  echo "FAIL: build artifacts are tracked in git:" >&2
  git ls-files | grep '^build[^/]*/' | head >&2
  exit 1
fi

if [ -n "$sanitize" ]; then
  build="build-$sanitize"
  cmake -B "$build" -G Ninja -DVAPRO_SANITIZE="$sanitize" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DVAPRO_FAULT_INJECTION=ON
  cmake --build "$build"
  ctest --test-dir "$build" --output-on-failure
  echo "--- $sanitize: fault + stress + net + soa + journal + trace labels ---"
  ctest --test-dir "$build" -L 'fault|stress|net|soa|journal|trace' \
    --output-on-failure
  echo "check.sh --sanitize=$sanitize OK"
  exit 0
fi

# -Werror as CI's tier-1 job configures it, so a new warning fails here too.
cmake -B build -G Ninja -DVAPRO_WERROR=ON
cmake --build build
ctest --test-dir build --output-on-failure

echo "--- observability smoke ---"
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
./build/tools/vapro_run --app=CG --ranks=32 --noise=cpu:1:0.4:1.4:1.0 \
  --metrics-out="$obs_tmp/metrics.json" --trace-out="$obs_tmp/trace.json" \
  --alert-rule='variance_ratio > 1' --alert-file="$obs_tmp/alerts.jsonl" \
  > "$obs_tmp/run.out"
./build/tools/vapro_run --app=CG --ranks=16 --noise=cpu:0:0.1:0.5:1.0 --json \
  | tail -n 1 > "$obs_tmp/report.json"
for f in metrics.json trace.json; do
  [ -s "$obs_tmp/$f" ] || { echo "FAIL: $f not written" >&2; exit 1; }
  if command -v python3 > /dev/null; then
    python3 -m json.tool "$obs_tmp/$f" > /dev/null \
      || { echo "FAIL: $f is not valid JSON" >&2; exit 1; }
  fi
done
grep -q '"traceEvents"' "$obs_tmp/trace.json" \
  || { echo "FAIL: trace.json missing traceEvents" >&2; exit 1; }
[ -s "$obs_tmp/alerts.jsonl" ] \
  || { echo "FAIL: alerts.jsonl not written" >&2; exit 1; }
if command -v python3 > /dev/null; then
  # The --json report (last stdout line) and every alert-file line are
  # strict JSON: Python's NaN/Infinity extensions are refused too.
  if ! python3 - "$obs_tmp/report.json" "$obs_tmp/alerts.jsonl" <<'PYEOF'
import json, sys
def refuse(c):
    raise ValueError("non-JSON constant " + c)
for path in sys.argv[1:]:
    for line in open(path):
        json.loads(line, parse_constant=refuse)
PYEOF
  then echo "FAIL: --json report or alert file is not valid JSON" >&2; exit 1; fi
fi
echo "observability smoke OK"

echo "--- exposition + journal smoke ---"
# Serve the live endpoints on an ephemeral port, scrape them while the
# tool lingers, and validate journal + Prometheus output shape.
./build/tools/vapro_run --app=CG --ranks=32 --noise=io:1:0.3:1.5:2.0 \
  --listen=0 --listen-linger=6 --journal-out="$obs_tmp/run.jsonl" \
  --journal-dir="$obs_tmp/segments" --journal-rotate-bytes=1024 \
  --alert-rule='worst_cell < 0.95' > "$obs_tmp/listen.out" 2>&1 &
run_pid=$!
port=""
for _ in $(seq 1 50); do
  port="$(sed -n 's|^listening on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' \
    "$obs_tmp/listen.out" | head -1)"
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || { echo "FAIL: no listening port announced" >&2; exit 1; }
fetch() {  # fetch PATH OUT — curl when present, python3 otherwise
  if command -v curl > /dev/null; then
    curl -sf "http://127.0.0.1:$port$1" -o "$2"
  else
    python3 -c "import sys,urllib.request;
open(sys.argv[2],'wb').write(urllib.request.urlopen(
    'http://127.0.0.1:$port'+sys.argv[1], timeout=5).read())" "$1" "$2"
  fi
}
fetch /healthz "$obs_tmp/healthz.json" \
  || { echo "FAIL: /healthz unreachable" >&2; exit 1; }
grep -q '"status":"ok"' "$obs_tmp/healthz.json" \
  || { echo "FAIL: /healthz not ok" >&2; exit 1; }
# The column footprint (capacity bytes of each window's fragment columns,
# summed) is on /metrics and positive once a window has been analyzed.
column_bytes=""
for _ in $(seq 1 50); do
  fetch /metrics "$obs_tmp/metrics.prom" \
    || { echo "FAIL: /metrics unreachable" >&2; exit 1; }
  column_bytes="$(sed -n 's/^vapro_server_column_bytes_total \([0-9]*\)$/\1/p' \
    "$obs_tmp/metrics.prom")"
  [ -n "$column_bytes" ] && [ "$column_bytes" -gt 0 ] && break
  sleep 0.1
done
[ -n "$column_bytes" ] && [ "$column_bytes" -gt 0 ] \
  || { echo "FAIL: vapro_server_column_bytes_total missing or zero" >&2; exit 1; }
fetch /v1/variance "$obs_tmp/variance.json" \
  || { echo "FAIL: /v1/variance unreachable" >&2; exit 1; }
if command -v python3 > /dev/null; then
  # Prometheus text format: every non-comment line is "name value".
  if ! python3 - "$obs_tmp/metrics.prom" <<'PYEOF'
import sys
samples = 0
for line in open(sys.argv[1]):
    line = line.rstrip("\n")
    if not line or line.startswith("#"):
        continue
    name, _, value = line.rpartition(" ")
    float(value)
    # "+"/"-" appear in histogram bucket labels (le="+Inf", le="1e-08").
    assert name and all(c.isalnum() or c in "_:{}=\",.+-" for c in name), line
    samples += 1
assert samples > 0, "empty /metrics exposition"
PYEOF
  then echo "FAIL: /metrics not valid Prometheus text" >&2; exit 1; fi
  python3 -m json.tool "$obs_tmp/variance.json" > /dev/null \
    || { echo "FAIL: /v1/variance is not valid JSON" >&2; exit 1; }
fi
wait "$run_pid" || { echo "FAIL: vapro_run --listen exited non-zero" >&2; exit 1; }
[ -s "$obs_tmp/run.jsonl" ] || { echo "FAIL: journal not written" >&2; exit 1; }
if command -v python3 > /dev/null; then
  # Journal: schema header first, then one JSON object per line.
  if ! python3 - "$obs_tmp/run.jsonl" <<'PYEOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
assert lines, "empty journal"
assert lines[0]["schema"] == "vapro.journal", lines[0]
seqs = [e["seq"] for e in lines[1:]]
assert seqs == sorted(seqs), "non-monotonic journal seq"
PYEOF
  then echo "FAIL: journal JSONL invalid" >&2; exit 1; fi
fi
# A journal replay must reconstruct summaries without the raw trace.
./build/tools/vapro_replay --from-journal "$obs_tmp/run.jsonl" \
  > "$obs_tmp/replay_file.txt" \
  || { echo "FAIL: vapro_replay --from-journal" >&2; exit 1; }
# The same run also journaled into rotated JSONL segments: replaying the
# directory must reproduce the single-file replay byte for byte.
[ -d "$obs_tmp/segments" ] \
  || { echo "FAIL: --journal-dir wrote no segments" >&2; exit 1; }
seg_count="$(ls "$obs_tmp/segments" | wc -l)"
[ "$seg_count" -ge 2 ] \
  || { echo "FAIL: expected rotation, got $seg_count segment(s)" >&2; exit 1; }
./build/tools/vapro_replay --from-journal "$obs_tmp/segments" \
  > "$obs_tmp/replay_dir.txt" \
  || { echo "FAIL: vapro_replay --from-journal DIR" >&2; exit 1; }
cmp "$obs_tmp/replay_file.txt" "$obs_tmp/replay_dir.txt" \
  || { echo "FAIL: segment-dir replay differs from file replay" >&2; exit 1; }
# Offline compaction must preserve replay byte-identity while dropping
# superseded quality/region revisions.
./build/tools/vapro_replay --compact-journal "$obs_tmp/run.jsonl" \
  --compact-out="$obs_tmp/compacted.jsonl" \
  || { echo "FAIL: vapro_replay --compact-journal" >&2; exit 1; }
./build/tools/vapro_replay --from-journal "$obs_tmp/compacted.jsonl" \
  > "$obs_tmp/replay_compacted.txt" \
  || { echo "FAIL: vapro_replay on compacted journal" >&2; exit 1; }
cmp "$obs_tmp/replay_file.txt" "$obs_tmp/replay_compacted.txt" \
  || { echo "FAIL: compaction broke replay byte-identity" >&2; exit 1; }
ctest --test-dir build -L obs --output-on-failure > /dev/null \
  || { echo "FAIL: ctest -L obs" >&2; exit 1; }
echo "exposition + journal + compaction smoke OK"

echo "--- experiment reproduction ---"
for b in build/bench/*; do
  if [ -x "$b" ] && [ -f "$b" ]; then
    echo "### $b"
    "$b"
  fi
done
