#!/usr/bin/env bash
# Performance snapshot of the measure+infer hot path: runs the
# predictor-overhead microbenchmarks (scalar vs batched inference,
# flat vs pointer decision tree), the graph-measurement substrate
# bench (per-proxy measurement stages, stats-cache amortization,
# blocked stats sweep), the serving load bench, and the network serving
# soak (on-wire latency percentiles over loopback, p99.9 included),
# then assembles one machine-readable BENCH_10.json of medians with
# python3 stdlib only.
#
# Every bench uses fixed seeds, so two snapshots on the same machine
# differ only by scheduler noise — which the medians are there to
# absorb.
#
#   tools/bench_snapshot.sh [build-dir] [out.json]
#
# Defaults: build-dir=build, out=<build-dir>/BENCH_10.json

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT="${2:-$BUILD_DIR/BENCH_10.json}"
SERVING_RUNS=3
NET_RUNS=3

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j \
    --target bench_predictor_overhead bench_graph_measurement \
             bench_serving_load bench_net_serving >/dev/null

echo "bench_snapshot: predictor overhead (5 repetitions)..."
"$BUILD_DIR/bench/bench_predictor_overhead" \
    --benchmark_filter='predictorBench|predictorBatchBench|tree' \
    --benchmark_min_time=0.1 \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    > "$BUILD_DIR/bench_snapshot_predictor.json"

echo "bench_snapshot: graph measurement substrate..."
"$BUILD_DIR/bench/bench_graph_measurement" \
    > "$BUILD_DIR/bench_snapshot_graph.txt"

echo "bench_snapshot: serving load ($SERVING_RUNS runs)..."
for i in $(seq 1 "$SERVING_RUNS"); do
    "$BUILD_DIR/bench/bench_serving_load" \
        --requests 150 --workers 2 --clients 4 \
        > "$BUILD_DIR/bench_snapshot_serving_$i.txt"
done

echo "bench_snapshot: net serving soak ($NET_RUNS runs)..."
for i in $(seq 1 "$NET_RUNS"); do
    "$BUILD_DIR/bench/bench_net_serving" \
        --requests 600 --clients 300 --conns 4 --seed 7 \
        > "$BUILD_DIR/bench_snapshot_net_$i.txt"
done

python3 - "$BUILD_DIR" "$OUT" "$SERVING_RUNS" "$NET_RUNS" <<'PY'
import json
import re
import statistics
import sys

build_dir, out_path = sys.argv[1], sys.argv[2]
serving_runs, net_runs = int(sys.argv[3]), int(sys.argv[4])


def split_columns(line):
    return [c.strip() for c in re.split(r"\s{2,}", line.strip()) if c.strip()]


def parse_number(text):
    text = text.rstrip("x").replace(",", "")
    try:
        return float(text)
    except ValueError:
        return None


# --- google-benchmark aggregates -----------------------------------
with open(f"{build_dir}/bench_snapshot_predictor.json") as fh:
    gbench = json.load(fh)

predictor = {}
for row in gbench.get("benchmarks", []):
    if row.get("aggregate_name") != "median":
        continue
    name = row["name"].removesuffix("_median")
    predictor[name] = {
        "cpu_ns_median": row.get("cpu_time"),
        "items_per_second_median": row.get("items_per_second"),
    }


def ips(name):
    entry = predictor.get(name)
    return entry["items_per_second_median"] if entry else None


def ratio(a, b):
    return round(a / b, 3) if a and b else None


derived = {
    # Batched MLP throughput vs the per-sample scalar path
    # (acceptance floor: >= 3.0 at batch >= 8).
    "deep_16_batch8_speedup": ratio(
        ips("predictorBatchBench/deep_16_b8"),
        ips("predictorBench/deep_16")),
    "deep_32_batch8_speedup": ratio(
        ips("predictorBatchBench/deep_32_b8"),
        ips("predictorBench/deep_32")),
    "deep_128_batch8_speedup": ratio(
        ips("predictorBatchBench/deep_128_b8"),
        ips("predictorBench/deep_128")),
    # Flattened vs pointer decision tree on the same random stream.
    "flat_vs_pointer_tree_speedup": ratio(
        ips("treeFlatBench"), ips("treePointerBench")),
    "tree_batch8_vs_pointer_speedup": ratio(
        ips("predictorBatchBench/decision_tree_b8"),
        ips("treePointerBench")),
}

# --- graph measurement tables --------------------------------------
with open(f"{build_dir}/bench_snapshot_graph.txt") as fh:
    graph_lines = fh.read().splitlines()

graph = {"measure": [], "cache": [], "stats_sweep": []}
section = None
headers = None
for line in graph_lines:
    if line.startswith("serial measurement per"):
        section, headers = "measure", None
        continue
    if line.startswith("cold vs cached"):
        section, headers = "cache", None
        continue
    if line.startswith("degree/stats sweep"):
        section, headers = "stats_sweep", None
        continue
    if line.startswith("online predict overhead"):
        section = None
        continue
    if section is None or not line.strip() or set(line.strip()) == {"-"}:
        continue
    cols = split_columns(line)
    if headers is None and any(p is None for p in map(parse_number, cols[1:])):
        headers = cols
        continue
    if headers and len(cols) == len(headers):
        row = {headers[0]: cols[0]}
        for key, value in zip(headers[1:], cols[1:]):
            number = parse_number(value)
            row[key] = number if number is not None else value
        graph[section].append(row)
    elif line.startswith("worst cold/cached ratio"):
        graph["worst_cold_cached_ratio"] = parse_number(
            line.split(":")[1].split("x")[0])

for line in graph_lines:
    if line.startswith("worst cold/cached ratio"):
        graph["worst_cold_cached_ratio"] = parse_number(
            line.split(":")[1].strip().split("x")[0])

# --- serving load: median of each numeric metric across runs --------
serving_samples = {}
for i in range(1, serving_runs + 1):
    with open(f"{build_dir}/bench_snapshot_serving_{i}.txt") as fh:
        for line in fh.read().splitlines():
            cols = split_columns(line)
            if len(cols) != 2:
                continue
            number = parse_number(cols[1])
            if number is not None:
                serving_samples.setdefault(cols[0], []).append(number)

serving = {
    key: round(statistics.median(values), 5)
    for key, values in serving_samples.items()
}
serving["runs"] = serving_runs

# --- net serving soak: on-wire percentiles across runs --------------
# Same metric/value table shape as the serving bench; the per-shard
# table and PASS/FAIL lines don't match the 2-column split and fall
# through the filter.
net_samples = {}
for i in range(1, net_runs + 1):
    with open(f"{build_dir}/bench_snapshot_net_{i}.txt") as fh:
        for line in fh.read().splitlines():
            cols = split_columns(line)
            if len(cols) != 2:
                continue
            number = parse_number(cols[1])
            if number is not None:
                net_samples.setdefault(cols[0], []).append(number)

net_serving = {
    key: round(statistics.median(values), 5)
    for key, values in net_samples.items()
}
net_serving["runs"] = net_runs

snapshot = {
    "schema": "heteromap-bench-snapshot-v1",
    "pr": 10,
    "predictor_overhead": predictor,
    "derived": derived,
    "graph_measurement": graph,
    "serving_load": serving,
    "net_serving": net_serving,
}

with open(out_path, "w") as fh:
    json.dump(snapshot, fh, indent=2, sort_keys=True)
    fh.write("\n")

floor_keys = ["deep_16_batch8_speedup", "deep_32_batch8_speedup",
              "deep_128_batch8_speedup"]
for key in floor_keys:
    value = derived.get(key)
    status = "ok" if value and value >= 3.0 else "BELOW 3x FLOOR"
    print(f"  {key}: {value} ({status})")
print(f"  flat_vs_pointer_tree_speedup: "
      f"{derived.get('flat_vs_pointer_tree_speedup')}")
for key in ["throughput_rps", "normal_p50_ms", "normal_p99_ms",
            "normal_p999_ms"]:
    print(f"  net_serving.{key}: {net_serving.get(key)}")
PY

echo "wrote $OUT"
