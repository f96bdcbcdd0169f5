#!/usr/bin/env bash
# Build the benchmark offline and run it.
#
#   benchmark/run.sh                                   all four workloads, timed
#   benchmark/run.sh --workload serve_c1_short --seed 7
#   benchmark/run.sh --trace [--workload W]            the traced run (layer table + Chrome trace)
#   benchmark/run.sh --quick                           ~20 s smoke, every check on
#   benchmark/run.sh --describe                        print BENCHMARK.json
#
# The driver's form is `--workload W --seed N --seconds S --trace 0|1`; the
# last line of standard output is then that run's result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
overlay="$here/target/overlay"

for part in Cargo.toml crates src examples; do
    if [ ! -e "$root/$part" ]; then
        echo "benchmark/run.sh: $root/$part is missing; the benchmark builds the repository's sources" >&2
        exit 3
    fi
done

# The overlay: a copy of the sources (mtimes kept, so cargo rebuilds only
# what changed) with every compat patch that still applies. This PR may not
# touch crates/, and the tree at HEAD does not compile without the patch.
mkdir -p "$overlay"
for part in crates src examples; do
    rm -rf "${overlay:?}/$part"
    cp -a "$root/$part" "$overlay/$part"
done
cp -a "$root/Cargo.toml" "$overlay/Cargo.toml"
applied=()
for patch in "$here"/compat/*.patch; do
    [ -e "$patch" ] || continue
    # The ceiling keeps git from treating the overlay as part of an enclosing
    # repository, where it would skip paths outside the current directory.
    if (cd "$overlay" && GIT_CEILING_DIRECTORIES="$here/target" git apply --check "$patch" 2>/dev/null); then
        (cd "$overlay" && GIT_CEILING_DIRECTORIES="$here/target" git apply "$patch")
        # Applying stamps the file with the current time, which would make
        # cargo rebuild on every run. Give it the time of whichever is newer,
        # its source or the patch, so it changes exactly when they do.
        sed -n 's|^+++ b/||p' "$patch" | while read -r file; do
            newer="$root/$file"
            [ "$patch" -nt "$newer" ] && newer="$patch"
            touch -r "$newer" "$overlay/$file"
        done
        applied+=("$(basename "$patch")")
    else
        echo "benchmark/run.sh: warning: $(basename "$patch") no longer applies; skipped" >&2
    fi
done

# A relative target directory (the driver's `.bench_build`) is relative to
# where run.sh was started, not to benchmark/.
case "${CARGO_TARGET_DIR:=$here/target/build}" in
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR
# Say nothing when the build works: cargo replays the repository's own
# warnings on every run otherwise.
if ! build_log="$(cd "$here" && cargo build --release --offline --locked 2>&1)"; then
    printf '%s\n' "$build_log" >&2
    exit 1
fi

# One pool thread, here and in the serve_demo child, unless the caller asks
# otherwise: this container's two vCPUs do not run in parallel at a steady
# rate, and a benchmark has to hold still. The width is in every output.
export PYTHIA_THREADS="${PYTHIA_THREADS:-1}"

PYTHIA_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
PYTHIA_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
PYTHIA_BENCH_COMPAT="${applied[*]:-none}"
PYTHIA_BENCH_SHIMS="$(cd "$here/shims" && for s in */; do
    printf '%s=%s ' "${s%/}" "$(sed -n 's/^version = "\(.*\)"/\1/p' "$s/Cargo.toml" | head -n 1)"
done)"
export PYTHIA_BENCH_RUSTC PYTHIA_BENCH_COMMIT PYTHIA_BENCH_COMPAT PYTHIA_BENCH_SHIMS="${PYTHIA_BENCH_SHIMS% }"

out_dir=(--out-dir "$here/results")
for arg in "$@"; do
    [ "$arg" = "--out-dir" ] && out_dir=()
done
exec "$CARGO_TARGET_DIR/release/pythia-benchmark" "${out_dir[@]}" "$@"
