#!/usr/bin/env bash
# Same-machine A/B gate for the candidate engine and the learning stack.
#
# Builds bench/bench_candidates and bench/bench_micro at a base commit and at
# HEAD, runs five interleaved (base, head) pairs of each, and fails when
#   - the median head/base ratio of env_steps_per_second.bert.engine, or
#   - the median base/head ratio of BM_gnn_forward_backward_bert's time
#     (a taped GNN forward and backward)
# is below 0.9. BM_agent_forward_backward_inception (the shape PPO training
# runs) is reported but not gated. Both sides run on the same machine in the
# same minute, so the gate measures the code, not the host, and no committed
# number can act as its own baseline.
#
# Usage: tools/bench_ab.sh [base-ref]
#   base-ref defaults to the merge-base of HEAD and origin/main (HEAD~1 when
#   HEAD is on origin/main). Needs full history (actions/checkout with
#   fetch-depth: 0), cmake, ninja and python3.
set -euo pipefail

readonly pairs=5
readonly floor=0.9

repo="$(git rev-parse --show-toplevel)"
head_sha="$(git -C "$repo" rev-parse HEAD)"
if [[ $# -ge 1 ]]; then
    base_sha="$(git -C "$repo" rev-parse "$1^{commit}")"
else
    base_sha="$(git -C "$repo" merge-base HEAD origin/main)"
    if [[ "$base_sha" == "$head_sha" ]]; then
        base_sha="$(git -C "$repo" rev-parse HEAD~1)"
    fi
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

build_side() {
    local side="$1" sha="$2"
    mkdir -p "$work/$side"
    git -C "$repo" archive "$sha" | tar -x -C "$work/$side"
    cmake -S "$work/$side" -B "$work/$side/build" -G Ninja -DCMAKE_BUILD_TYPE=Release \
        -DXRLFLOW_BUILD_TESTS=OFF -DXRLFLOW_BUILD_EXAMPLES=OFF -DXRLFLOW_BUILD_TOOLS=OFF \
        > "$work/$side.configure.log"
    cmake --build "$work/$side/build" --target bench_candidates bench_micro -j > "$work/$side.build.log"
}

echo "bench_ab: base ${base_sha:0:12}, head ${head_sha:0:12}"
build_side base "$base_sha"
build_side head "$head_sha"

# Interleave the runs so slow drifts of the machine hit both sides alike.
for i in $(seq 1 "$pairs"); do
    for side in base head; do
        (cd "$work/$side" && ./build/bench/bench_candidates "$work/$side-$i.json" > /dev/null)
        (cd "$work/$side" && ./build/bench/bench_micro --benchmark_format=json \
            --benchmark_filter='^BM_(gnn|agent)_forward_backward_' > "$work/$side-micro-$i.json")
    done
done

python3 - "$work" "$pairs" "$floor" <<'EOF'
import json
import statistics
import sys

work, pairs, floor = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])

def steps(side):
    values = []
    for i in range(1, pairs + 1):
        with open(f"{work}/{side}-{i}.json") as f:
            values.append(json.load(f)["env_steps_per_second"]["bert"]["engine"])
    return values

def micro_ms(side, name):
    """Per-iteration real time of one bench_micro benchmark, in ms; None
    when the side does not have it."""
    values = []
    for i in range(1, pairs + 1):
        with open(f"{work}/{side}-micro-{i}.json") as f:
            runs = [b for b in json.load(f)["benchmarks"] if b["name"] == name]
        if not runs:
            return None
        scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[runs[0]["time_unit"]]
        values.append(runs[0]["real_time"] * scale)
    return values

failures = []

base, head = steps("base"), steps("head")
ratio = statistics.median(head) / statistics.median(base)
print("engine env_steps_per_second")
print("  base: " + " ".join(f"{v:.1f}" for v in base))
print("  head: " + " ".join(f"{v:.1f}" for v in head))
print(f"  median head/base = {ratio:.3f} (floor {floor})")
if ratio < floor:
    failures.append(f"throughput regression: head runs at {ratio:.1%} of base")

for name, gated in (("BM_gnn_forward_backward_bert", True),
                    ("BM_agent_forward_backward_inception", False)):
    base_ms, head_ms = micro_ms("base", name), micro_ms("head", name)
    if base_ms is None or head_ms is None:
        print(f"{name}: not on both sides")
        if gated:
            failures.append(f"{name} must exist at base and head")
        continue
    ratio = statistics.median(base_ms) / statistics.median(head_ms)
    print(f"{name} ms per iteration")
    print("  base: " + " ".join(f"{v:.3f}" for v in base_ms))
    print("  head: " + " ".join(f"{v:.3f}" for v in head_ms))
    print(f"  median base/head = {ratio:.3f}" + (f" (floor {floor})" if gated else " (report only)"))
    if gated and ratio < floor:
        failures.append(f"{name} regression: head runs at {ratio:.1%} of base speed")

if failures:
    sys.exit("\n".join(failures))
EOF
