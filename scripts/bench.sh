#!/usr/bin/env bash
# bench.sh — run the tier benchmarks and emit a machine-readable bench
# record. The checked-in copy (BENCH_PR10.json) pins the numbers
# measured when the campaign fabric landed; CI regenerates the file on
# every push and uploads it as an artifact, so the bench trajectory is
# recorded per-commit without gating merges on timing.
#
# Besides the micro-benches, the record embeds the full campaign report
# (phase histograms, cache counters, utilization) of one quickstart
# campaign — the defended attack-4 cell the cache-smoke job runs — and
# a "fabric" section timing one full-scale campaign cold through a
# shared cached store as one process vs two snn-worker shards (each
# -workers 2), plus the warm-merge GET latency p50/p95 from the
# cache.http.rt histogram. The speedup is only meaningful with >=4
# CPUs (the fabric-smoke CI job gates it at 1.7x on such a runner);
# the record keeps whatever this machine measured, alongside "cpus".
#
# Usage: scripts/bench.sh OUT.json
#   BENCHTIME=1s      override -benchtime (default 2x: cheap but real)
#   BENCH_PATTERN=…   override the bench selection regexp
#   SKIP_CAMPAIGN=1   skip the quickstart campaign report
#   SKIP_FABRIC=1     skip the one-vs-two-process fabric timing
set -euo pipefail
cd "$(dirname "$0")/.."

# The output name comes from the argument alone — each PR's record is
# named explicitly at the call site, so a stale default can't silently
# overwrite an older pinned record.
if [ $# -lt 1 ]; then
  echo "usage: scripts/bench.sh OUT.json" >&2
  exit 2
fi
out="$1"
benchtime="${BENCHTIME:-2x}"
pattern="${BENCH_PATTERN:-BenchmarkEvaluate|BenchmarkCountsParallel|BenchmarkStep_|BenchmarkTrainImage|BenchmarkEncode_|BenchmarkEncodeCorpus|BenchmarkSpiceTransientStep|BenchmarkCharacterize_AHThresholdVsVDD|BenchmarkMonteCarloThreshold|BenchmarkFig3_|BenchmarkFig4_|BenchmarkFig5c_|BenchmarkFig6b_|BenchmarkFig6c_|BenchmarkFig10a_|BenchmarkSumRows|BenchmarkLIFStep|BenchmarkDepressRows|BenchmarkPotentiateRows|BenchmarkNormalizeColsSubset|BenchmarkDiskCache|BenchmarkHTTPCache|BenchmarkDCSolverSolve}"

raw="$(mktemp)"
work="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -f "$raw"; rm -rf "$work"' EXIT
# The root package holds the tier benches; internal/tensor holds the
# kernel benches (SumRows, SumRowsScaled, LIFStep, DepressRows,
# PotentiateRows, NormalizeColsSubset), each with a dispatched and a
# generic (Go loop) sub-benchmark; the last three also time the
# indexed walk that runs below a quarter of the layer ("walk").
go test -run='^$' -bench="$pattern" -benchtime="$benchtime" . ./internal/tensor | tee "$raw" >&2

if [ "${SKIP_CAMPAIGN:-0}" != "1" ] || [ "${SKIP_FABRIC:-0}" != "1" ]; then
  go build -o "$work/snn-attack" ./cmd/snn-attack
fi
if [ "${SKIP_CAMPAIGN:-0}" != "1" ]; then
  "$work/snn-attack" -attack 4 -change -20 -n 60 -defense sizing \
    -quiet -report "$work/report.json" >/dev/null
fi

if [ "${SKIP_FABRIC:-0}" != "1" ]; then
  go build -o "$work/snn-worker" ./cmd/snn-worker
  go build -o "$work/cached" ./cmd/cached
  fabric_args=(-attack 3
    -change -20,-17.5,-15,-12.5,-10,-7.5,-5,-2.5,2.5,5,7.5,10,12.5,15
    -n 1000 -defense sizing)

  # One process through its own cold store.
  "$work/cached" -dir "$work/ref-store" -addr-file "$work/ref.addr" -quiet &
  ref_pid=$!
  until [ -s "$work/ref.addr" ]; do sleep 0.1; done
  t0=$(date +%s%N)
  "$work/snn-attack" "${fabric_args[@]}" -store "http://$(cat "$work/ref.addr")" \
    -workers 2 -quiet >/dev/null
  t1=$(date +%s%N)
  one_ns=$((t1 - t0))
  kill "$ref_pid" 2>/dev/null || true

  # Two shard workers over a second cold store, then the coordinator
  # merge — whose report carries the warm GET latency histogram.
  "$work/cached" -dir "$work/fab-store" -addr-file "$work/fab.addr" -quiet &
  fab_pid=$!
  until [ -s "$work/fab.addr" ]; do sleep 0.1; done
  store="http://$(cat "$work/fab.addr")"
  t0=$(date +%s%N)
  "$work/snn-worker" "${fabric_args[@]}" -store "$store" -shards 2 -shard 0 \
    -workers 2 -quiet >/dev/null &
  w0=$!
  "$work/snn-worker" "${fabric_args[@]}" -store "$store" -shards 2 -shard 1 \
    -workers 2 -quiet >/dev/null 2>&1 &
  w1=$!
  wait "$w0" "$w1"
  "$work/snn-attack" "${fabric_args[@]}" -store "$store" -workers 2 \
    -quiet -report "$work/fabric-warm.json" >/dev/null
  t1=$(date +%s%N)
  two_ns=$((t1 - t0))
  kill "$fab_pid" 2>/dev/null || true

  fabric_json=$(python3 - "$one_ns" "$two_ns" "$work/fabric-warm.json" <<'EOF'
import json, sys
one, two = int(sys.argv[1]) / 1e9, int(sys.argv[2]) / 1e9
rt = json.load(open(sys.argv[3]))["telemetry"]["histograms"]["cache.http.rt"]
print(json.dumps({
    "scenario": "attack-3 sizing, 28 cells + baseline, n=1000",
    "cold_one_process_s": round(one, 3),
    "cold_two_process_s": round(two, 3),
    "speedup": round(one / two, 2),
    "warm_get_p50_ms": rt["p50_ms"],
    "warm_get_p95_ms": rt["p95_ms"],
    "warm_get_count": rt["count"],
}))
EOF
  )
  echo "fabric: $fabric_json" >&2
fi

{
  printf '{\n'
  printf '  "suite": "snnfi tier benches",\n'
  printf '  "go": "%s",\n' "$(go env GOVERSION)"
  printf '  "cpus": %s,\n' "$(nproc)"
  printf '  "benchtime": "%s",\n' "$benchtime"
  printf '  "benches": [\n'
  awk '
    /^Benchmark/ {
      entry = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", $1, $2, $3)
      for (i = 5; i + 1 <= NF; i += 2)
        entry = entry sprintf(", \"%s\": %s", $(i + 1), $i)
      entry = entry "}"
      if (n++) printf(",\n")
      printf("%s", entry)
    }
    END { printf("\n") }
  ' "$raw"
  printf '  ]'
  if [ -n "${fabric_json:-}" ]; then
    printf ',\n  "fabric": %s' "$fabric_json"
  fi
  if [ -f "$work/report.json" ]; then
    printf ',\n  "campaign_report": '
    cat "$work/report.json"
  else
    printf '\n'
  fi
  printf '}\n'
} > "$out"
echo "wrote $out" >&2
