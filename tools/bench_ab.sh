#!/usr/bin/env bash
# Same-machine A/B gate for the candidate engine's environment throughput.
#
# Builds bench/bench_candidates at a base commit and at HEAD, runs five
# interleaved (base, head) pairs, and fails when the median head/base ratio
# of env_steps_per_second.bert.engine is below 0.9. Both sides run on the
# same machine in the same minute, so the gate measures the code, not the
# host, and no committed number can act as its own baseline.
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
    cmake --build "$work/$side/build" --target bench_candidates -j > "$work/$side.build.log"
}

echo "bench_ab: base ${base_sha:0:12}, head ${head_sha:0:12}"
build_side base "$base_sha"
build_side head "$head_sha"

# Interleave the runs so slow drifts of the machine hit both sides alike.
for i in $(seq 1 "$pairs"); do
    for side in base head; do
        (cd "$work/$side" && ./build/bench/bench_candidates "$work/$side-$i.json" > /dev/null)
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

base, head = steps("base"), steps("head")
ratio = statistics.median(head) / statistics.median(base)
print("engine env_steps_per_second")
print("  base: " + " ".join(f"{v:.1f}" for v in base))
print("  head: " + " ".join(f"{v:.1f}" for v in head))
print(f"  median head/base = {ratio:.3f} (floor {floor})")
if ratio < floor:
    sys.exit(f"throughput regression: head runs at {ratio:.1%} of base")
EOF
