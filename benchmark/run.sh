#!/usr/bin/env bash
# Build the benchmark, run the four workloads untraced (the end-to-end
# numbers), then traced (the per-layer ledger and the span files).
# Results land in benchmark/out/: <workload>.txt, <workload>.traced.txt,
# trace-<workload>.jsonl.
#
#   benchmark/run.sh [--seed N] [--seconds S]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"

bench=(cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin csaw-benchmark --)
status=0
for workload in ingest_inproc wire_mixed replicate pilot_browse; do
    "${bench[@]}" --workload "$workload" --trace 0 "$@" | tee "$out/$workload.txt" || status=1
done
for workload in ingest_inproc wire_mixed replicate pilot_browse; do
    "${bench[@]}" --workload "$workload" --trace 1 "$@" | tee "$out/$workload.traced.txt" || status=1
done
exit "$status"
