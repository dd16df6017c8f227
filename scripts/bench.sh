#!/usr/bin/env bash
# Benchmark regression harness: builds, runs the machine-readable bench
# binaries, and drops their JSON next to the sources so successive commits
# can be diffed numerically:
#
#   scripts/bench.sh          ->  BENCH_pipeline.json  (pipeline_scaling)
#                                 BENCH_obs.json       (obs_overhead)
#                                 BENCH_quality.json   (vapro_stress --score)
#                                 BENCH_latency.json   (latency_profile)
#                                 BENCH_journal.json   (journal_throughput)
#
# Each file holds {"bench": ..., "results": [{name, reps, median, p95}]};
# see bench::JsonReport in bench/bench_common.hpp.  The bars the benches
# enforce themselves (2x pipeline scaling on >= 4-thread hosts, < 3%
# telemetry overhead) still apply: a failed bar fails this script.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja > /dev/null
cmake --build build --target pipeline_scaling obs_overhead latency_profile journal_throughput vapro_stress > /dev/null

./build/bench/pipeline_scaling --json BENCH_pipeline.json
./build/bench/obs_overhead --json BENCH_obs.json
# Detection-quality scoreboard: the full app x noise matrix, scored against
# injection ground truth.  Byte-deterministic for the fixed seed, so the
# committed file diffs cleanly; scripts/quality_gate.py enforces
# no-regression in CI.
./build/tools/vapro_stress --score --json BENCH_quality.json
# Per-stage latency profile on the deterministic TickClock: also
# byte-identical per commit; scripts/latency_schema.py validates it in CI.
./build/bench/latency_profile --json BENCH_latency.json
# Segmented journal store throughput (JSONL segment writes, read-back,
# compaction); scripts/journal_schema.py validates the shape in CI.
./build/bench/journal_throughput --json BENCH_journal.json

echo "bench.sh OK: BENCH_pipeline.json BENCH_obs.json BENCH_quality.json BENCH_latency.json BENCH_journal.json"
