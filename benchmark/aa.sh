#!/usr/bin/env bash
# A/A harness: two full sets (timed, then traced) of the same build.
#
# Prints, per metric × workload, the two values and their relative gap, and
# fails by the driver's rule — the second set is worse than the first by
# more than the metric's bound in BENCHMARK.json — or if a number that must
# repeat exactly (virtual time, counts, F1) does not. A gap beyond the bound
# in the *better* direction is flagged as noise and does not fail. Use the
# output to set the bounds. Extra arguments (e.g. `--seed 7`, `--quick`) go
# to both sets; `--compare` alone compares the sets already on disk.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
command -v python3 >/dev/null || { echo "benchmark/aa.sh needs python3 to compare the sets" >&2; exit 3; }

if [ "${1:-}" != "--compare" ]; then
    for set in 1 2; do
        for trace in 0 1; do
            echo "[aa] set $set, trace $trace" >&2
            "$here/run.sh" --trace "$trace" --out-dir "$here/results/aa/set$set-trace$trace" "$@" >/dev/null
        done
    done
fi

python3 - "$here/results/aa" "$here/../BENCHMARK.json" <<'EOF'
import json, sys

out_dir, spec_path = sys.argv[1:3]
spec = json.load(open(spec_path))
bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def load(set_no, trace):
    runs = json.load(open(f"{out_dir}/set{set_no}-trace{trace}/latest.json"))["runs"]
    return {(r["workload"], name): m["value"] for r in runs for name, m in r["metrics"].items()}


# Numbers that do not involve the wall clock and so must repeat exactly:
# virtual time on the in-process servers, counts off the reports, F1.
EXACT = {
    "db.exec.events_per_query", "core.predictor.heldout_f1", "core.predictor.model_bytes",
    "core.prefetch.pages_per_query", "core.server.mean_infer_batch", "core.server.mean_occupancy",
    "core.server.max_queue_depth", "core.server.virt_admission_wait_p99_ms",
    "core.server.virt_makespan_speedup", "buffer.hit_rate", "buffer.prefetch_precision",
    "buffer.prefetch_wasted_share", "buffer.evictions_per_query", "sim.disk_reads_per_query",
}


def must_repeat(workload, name):
    return name in EXACT or (name.startswith("virt_") and workload.startswith("serve_"))


bad = []
for trace in (0, 1):
    a, b = load(1, trace), load(2, trace)
    print(f"{'workload':<16} {'metric':<44} {'set 1':>16} {'set 2':>16} {'gap':>9}  verdict")
    for key in a:
        workload, name = key
        x, y = a[key], b[key]
        gap = abs(y - x) / abs(x) if x else (0.0 if y == 0 else float("inf"))
        if must_repeat(workload, name):
            verdict = "exact" if x == y else "DIFFERS (must repeat exactly)"
        elif name in bounds:
            bound, better = bounds[name]
            worse = (y > x) == (better == "lower")
            if gap <= bound:
                verdict = f"within {bound:.0%}"
            elif worse:
                verdict = f"EXCEEDS {bound:.0%} (worse)"
            else:
                verdict = f"noise: better by more than {bound:.0%}"
        else:
            verdict = ""
        if verdict.startswith(("DIFFERS", "EXCEEDS")):
            bad.append(f"{workload} {name}: {x} vs {y}")
        print(f"{workload:<16} {name:<44} {x:>16.6f} {y:>16.6f} {gap:>8.2%}  {verdict}")
    print()

if bad:
    print("A/A FAILED:")
    for line in bad:
        print("  " + line)
    sys.exit(1)
print("A/A passed: no gated metric got worse by more than its bound and every exact number repeated.")
EOF
