#!/usr/bin/env bash
# Tier-1 gate for the workspace: formatting, lints, release build, tests.
#
#   ./ci.sh            # run everything
#   ./ci.sh --fast     # skip the release build (fmt + clippy + tests)
#
# Every step must pass; clippy warnings are errors.
#
# Where the crate registry cannot be reached and nothing is cached (the
# authoring container), the root workspace does not resolve and none of the
# above can run. That is detected, not flagged: under $CI the gate goes on and
# fails hard; elsewhere ci.sh runs the subset that needs no registry and says
# loudly that tier-1 did NOT run.
set -euo pipefail
cd "$(dirname "$0")"

fast=0
if [[ "${1:-}" == "--fast" ]]; then
  fast=1
fi

# One GET over bash's /dev/tcp, the head written the way a client without an
# HTTP library writes it: a line per write. The wire layer reads a head to its
# blank line before it answers, so no line meets a closed socket. Runs in a
# subshell: descriptor 3 closes with it, and a reset costs only the subshell.
http_get() ( # host, port, path
  exec 3<>"/dev/tcp/$1/$2" || exit 1
  printf 'GET %s HTTP/1.1\r\n' "$3" >&3
  printf 'Host: ci\r\n' >&3
  printf 'Connection: close\r\n' >&3
  printf '\r\n' >&3
  cat <&3
)

# One admission loop, one pump: the barrier-wave loop stays out of pythia-core
# (the baseline lives in pythia-experiments::serving), the live path stays on
# its long-lived sessions instead of closed `serve` batches, and the loop that
# drives them is library code (`pythia_core::frontend::pump`) — an example is
# an example, and nothing under crates/ grows a second copy.
one_admission_loop() {
  if grep -rnE 'serve_wave|AdmissionMode::Wave' crates/core; then
    echo "!!> pythia-core names the wave loop again" >&2
    return 1
  fi
  if grep -nF '.serve(' examples/serve_demo.rs; then
    echo "!!> examples/serve_demo.rs calls PrefetchServer::serve; the pump submits to its session" >&2
    return 1
  fi
  if grep -rnE 'drain_batch|poll_completion|\.submit\(' examples; then
    echo "!!> an example drives a session by hand; the live path is pythia_core::frontend::pump" >&2
    return 1
  fi
  # (`fn pump` elsewhere is somebody else's word: the AIO engine has one.)
  local pumps
  pumps=$(grep -rnE '\bfn pump\b' crates/core || true)
  if [[ $(grep -c . <<<"$pumps") -ne 1 || "$pumps" != crates/core/src/frontend.rs:* ]]; then
    echo "$pumps" >&2
    echo "!!> crates/core must hold exactly one fn pump, in src/frontend.rs" >&2
    return 1
  fi
}

# One training loop, one classifier: a workload's objects share an encoder by
# being heads of one PlanClassifier, not by a second model type or a second
# copy of the step beside it.
one_training_loop() {
  local loops classifiers
  loops=$(grep -rnE '\bfn train_phase\b' crates/core || true)
  if [[ $(grep -c . <<<"$loops") -ne 1 || "$loops" != crates/core/src/classifier.rs:* ]]; then
    echo "$loops" >&2
    echo "!!> crates/core must hold exactly one fn train_phase, in src/classifier.rs" >&2
    return 1
  fi
  classifiers=$(grep -rnE '\b(struct|enum|trait) \w*Classifier\b' crates/core || true)
  if [[ $(grep -c . <<<"$classifiers") -ne 1 || "$classifiers" != *'struct PlanClassifier'* ]]; then
    echo "$classifiers" >&2
    echo "!!> crates/core must hold exactly one classifier type, PlanClassifier" >&2
    return 1
  fi
}

# The serve_demo socket smoke (two tenants + postmortem surface) against any
# build of the example: the binary, then the command that validates the flight
# dump it leaves (the dump's path is appended). Every check returns rather than
# exits, so it runs the same under `set -e` and inside the offline subset's
# `step`.
serve_demo_smoke() {
  local demo=$1 log=results/serve_demo.log status=0 demo_pid
  shift
  mkdir -p results
  rm -f "$log" results/flight_dump.json
  # --slow-ms 1 marks virtually every replay slow (virtual latencies are
  # tens-to-hundreds of ms), --force-drift 1 injects one drill drift alert
  # after tenant 1's first admission — both trigger flight-recorder dumps,
  # which /debug/flight serves live and --flight-out persists on shutdown.
  "$demo" --addr 127.0.0.1:0 --tenants 2 \
    --metrics-addr 127.0.0.1:0 --slow-ms 1 --force-drift 1 \
    --flight-out results/flight_dump.json \
    > "$log" 2>&1 &
  demo_pid=$!
  serve_demo_checks "$demo_pid" "$log" "$@" || status=1
  if [[ "$status" -ne 0 ]]; then
    kill "$demo_pid" 2>/dev/null || true
    cat "$log" >&2
  fi
  wait "$demo_pid" 2>/dev/null || true
  return "$status"
}

serve_demo_checks() { # child pid, its log, then the flight-dump validator
  local demo_pid=$1 log=$2
  shift 2
  local demo_addr="" metrics_addr=""
  for _ in $(seq 1 100); do
    demo_addr=$(sed -n 's|^serve_demo listening on http://||p' "$log" | head -n1)
    metrics_addr=$(sed -n 's|^serve_demo metrics on http://||p' "$log" \
      | head -n1 | sed 's|/metrics$||')
    [[ -n "$demo_addr" && -n "$metrics_addr" ]] && break
    sleep 0.1
  done
  if [[ -z "$demo_addr" || -z "$metrics_addr" ]]; then
    echo "!!> serve_demo never printed its listen + metrics addresses" >&2
    return 1
  fi
  demo_get() { http_get "${demo_addr%:*}" "${demo_addr##*:}" "$1"; }
  metrics_get() { http_get "${metrics_addr%:*}" "${metrics_addr##*:}" "$1"; }
  expect() { # what a miss means, the response, then the patterns it must hold
    local what=$1 resp=$2 pattern
    shift 2
    for pattern in "$@"; do
      grep -q -- "$pattern" <<<"$resp" && continue
      echo "!!> $what:" >&2
      echo "$resp" >&2
      return 1
    done
  }
  local demo_resp demo_t1 demo_t1_stats demo_health demo_slow demo_flight
  demo_resp=$(demo_get /query/0)
  expect "malformed serve_demo response" "$demo_resp" \
    'HTTP/1.1 200 OK' '"latency_us"' || return 1
  # Tenant 1 is served from its own database via the /t/<tenant>/ routes,
  # and its scoped stats count exactly its own traffic.
  demo_t1=$(demo_get /t/1/query/0)
  expect "malformed serve_demo tenant-1 response" "$demo_t1" \
    'HTTP/1.1 200 OK' '"latency_us"' || return 1
  demo_t1_stats=$(demo_get /t/1/stats)
  expect "tenant-1 scoped stats did not count its one query" "$demo_t1_stats" \
    '"accepted":1' || return 1
  # The tenant-scoped health route serves the live quality/drift snapshot.
  # (An admission interval reaches the tracker when it closes, at the
  # tenant's next admission: after one query the slice may still be empty.)
  demo_health=$(demo_get /t/1/health)
  expect "malformed serve_demo tenant-1 health snapshot" "$demo_health" \
    'HTTP/1.1 200 OK' '"observations"' '"drift"' || return 1
  # Request tracing surfaces: the per-query JSON line carries the minted
  # request id and the queue/admission/infer/replay latency breakdown...
  expect "serve_demo response is missing the request-tracing fields" "$demo_t1" \
    '"request":' '"queue_us"' '"replay_us"' || return 1
  # ...the id is the one the front minted for that connection, not the
  # request's ordinal in its tenant's session: two responses never share it...
  local id_a id_b
  id_a=$(sed -n 's/.*"request":\([0-9]*\).*/\1/p' <<<"$demo_resp")
  id_b=$(sed -n 's/.*"request":\([0-9]*\).*/\1/p' <<<"$demo_t1")
  if [[ -z "$id_a" || "$id_a" == "$id_b" ]]; then
    echo "!!> two consecutive responses carry request ids '$id_a' and '$id_b':" \
      "the minted id does not reach the response" >&2
    return 1
  fi
  # ...and /debug/slow holds the top-K breakdowns offered at every completion.
  demo_slow=$(metrics_get /debug/slow)
  expect "/debug/slow did not report the served requests" "$demo_slow" \
    'HTTP/1.1 200 OK' '"requests":\[{"request":' || return 1
  # The anomaly triggers above (slow requests + the forced drift drill)
  # must leave a postmortem flight dump behind /debug/flight: a Chrome
  # trace with flow-linked request.* spans from the event log's tail.
  demo_flight=$(metrics_get /debug/flight)
  expect "/debug/flight has no dump with flow-linked request spans" "$demo_flight" \
    'HTTP/1.1 200 OK' '"request\.' '"ph":"s"' || return 1
  # Concurrency: sixteen clients at once across both tenants, which the pump
  # finds queued together and submits to sessions that already hold work.
  # Every one is answered 200 under its own request id, and the front's
  # accepted count moves by exactly sixteen.
  local burst_dir accepted_before accepted_after burst_ids i
  local -a burst_pids=()
  burst_dir=$(mktemp -d)
  demo_accepted() { demo_get /stats | sed -n 's/.*"accepted":\([0-9]*\).*/\1/p'; }
  accepted_before=$(demo_accepted)
  for i in $(seq 0 15); do
    demo_get "/t/$((i % 2))/query/$((i % 12))" > "$burst_dir/$i" &
    burst_pids+=($!)
  done
  wait "${burst_pids[@]}" || true
  accepted_after=$(demo_accepted)
  burst_ids=$(sed -n 's/.*"request":\([0-9]*\).*/\1/p' "$burst_dir"/* | sort -u | wc -l)
  if [[ $(grep -l 'HTTP/1.1 200 OK' "$burst_dir"/* | wc -l) -ne 16 \
    || "$burst_ids" -ne 16 || $((accepted_after - accepted_before)) -ne 16 ]]; then
    echo "!!> 16-way burst: $(grep -l 'HTTP/1.1 200 OK' "$burst_dir"/* | wc -l) answered 200," \
      "$burst_ids distinct request ids, accepted $accepted_before -> $accepted_after" >&2
    head -n 20 "$burst_dir"/* >&2
    rm -rf "$burst_dir"
    return 1
  fi
  rm -rf "$burst_dir"
  # Bounded memory: the demo's recorders keep counters, histograms and a
  # fixed event ring, so its high-water mark must not follow the number of
  # requests served. 100 requests warm every buffer; 400 more must add
  # (almost) nothing. Linux only: the reading comes from /proc.
  if [[ -r "/proc/$demo_pid/status" ]]; then
    demo_hwm_kb() { awk '/^VmHWM:/ { print $2 }' "/proc/$demo_pid/status"; }
    demo_burst() { # first request ordinal, count
      local i
      for ((i = $1; i < $1 + $2; i++)); do
        demo_get "/t/$((i % 2))/query/$((i % 12))" > /dev/null
      done
    }
    local hwm_100 hwm_500
    demo_burst 0 100
    hwm_100=$(demo_hwm_kb)
    demo_burst 100 400
    hwm_500=$(demo_hwm_kb)
    if ((hwm_500 - hwm_100 > 2048 || hwm_500 > 40960)); then
      echo "!!> serve_demo memory follows requests served: VmHWM ${hwm_100} kB" \
        "after 100 requests, ${hwm_500} kB after 500 (limits: +2048 kB, 40960 kB)" >&2
      return 1
    fi
    echo "    serve_demo VmHWM: ${hwm_100} kB after 100 requests, ${hwm_500} kB after 500"
  else
    echo "!!> no /proc/$demo_pid/status: serve_demo memory-bound check SKIPPED" >&2
  fi
  demo_get /shutdown > /dev/null
  if ! wait "$demo_pid"; then
    echo "!!> serve_demo did not exit cleanly after /shutdown" >&2
    return 1
  fi
  # --flight-out persists the final dump; it must be a loadable trace.
  if [[ ! -s results/flight_dump.json ]]; then
    echo "!!> serve_demo did not write results/flight_dump.json" >&2
    return 1
  fi
  "$@" results/flight_dump.json || return 1
  echo "    serve_demo answered both tenants and a 16-way burst, served /debug/slow + /debug/flight, and wrote a loadable flight dump"
}

# Offline subset: formatting, the unit tests of the three dependency-free
# crates, of pythia-db and of pythia-nn's GEMM kernels built with bare rustc
# (outside the repo), the benchmark's smoke runs (its own workspace over
# std-only shims), whose output also gates what no test here can: scalar ==
# SIMD virtual time, and a replay session whose step cost does not grow with
# the queries it has completed — and the serve_demo socket smoke against the
# binary those runs build. Every step runs; any failure makes the exit status
# non-zero.
offline_subset() {
  local failed=0 tmp
  tmp=$(mktemp -d)
  step() {
    echo "==> [offline] $*" >&2
    "$@" || { echo "!!> FAILED: $*" >&2; failed=1; }
  }
  unit_tests() { # crate, its source directory, then --extern flags for the rlibs it links
    local crate=$1 src=$2
    shift 2
    rustc --edition 2021 --crate-type lib --crate-name "pythia_$crate" -O \
      -L "$tmp" "$@" -o "$tmp/libpythia_$crate.rlib" "$src/lib.rs" \
      && rustc --edition 2021 --test -O -L "$tmp" "$@" \
        -o "$tmp/${crate}_tests" "$src/lib.rs" \
      && "$tmp/${crate}_tests" -q
  }
  db_unit_tests() {
    # pythia-db meets its external dependencies in one place, the serde
    # derive on `ObjectId`: a copy without it builds on the three rlibs above.
    cp -r crates/db/src "$tmp/db_src" \
      && sed -i 's/, serde::Serialize, serde::Deserialize//' "$tmp/db_src/catalog.rs" \
      && unit_tests db "$tmp/db_src" --extern "pythia_sim=$tmp/libpythia_sim.rlib" \
        --extern "pythia_obs=$tmp/libpythia_obs.rlib" \
        --extern "pythia_buffer=$tmp/libpythia_buffer.rlib"
  }
  kernels_unit_tests() {
    # crates/nn/src/kernels.rs depends on nothing, not even its crate: its
    # unit tests — stride, masked-tail and overwrite pins, each forcing both
    # dispatch modes itself — build and run as a program of their own.
    rustc --edition 2021 --test -O -o "$tmp/kernels_tests" crates/nn/src/kernels.rs \
      && "$tmp/kernels_tests" -q
  }
  # `attempted virt_mean_ms virt_latency_speedup` of each result line.
  virt_metrics() {
    sed -nE 's/^\{"correct".*"attempted": ([0-9]+),.*"virt_mean_ms": \{"value": ([^,]+),.*"virt_latency_speedup": \{"value": ([^,]+),.*/\1 \2 \3/p' "$1"
  }
  same_virtual_time() { # two --quick outputs
    # Compared as text, digit for digit. The two socket workloads (lines 1
    # and 2) average virt_mean_ms over however many passes the wall clock
    # allowed: theirs compares only between runs that attempted as much.
    [[ $(virt_metrics "$1" | wc -l) -eq 4 ]] \
      && paste -d' ' <(virt_metrics "$1") <(virt_metrics "$2") | awk '
        $3 "" != $6 "" || (!(NR <= 2 && $1 != $4) && $2 "" != $5 "") {
          print "!!> workload " NR ": " $0; bad = 1
        }
        END { exit bad }' >&2
  }
  session_flat() { # a --quick --trace output
    # A replay session must cost its live queries, not every query it ever
    # ran: a step with 1600 queries injected (four live) may take at most
    # twice a step with 100. Both are timed seconds apart in one run, so the
    # host's mood cancels; every one of the four result lines must hold.
    sed -nE 's/^\{"correct".*"db\.runtime\.session_step_ns_100": \{"value": ([^,]+),.*"db\.runtime\.session_step_ns_1600": \{"value": ([^,]+),.*/\1 \2/p' "$1" \
      | awk '
        $2 > 2 * $1 {
          print "!!> result line " NR ": session_step_ns_1600 " $2 " > 2 x session_step_ns_100 " $1
          bad = 1
        }
        END {
          if (NR != 4) print "!!> " NR " result lines carry both metrics, not 4"
          exit bad || NR != 4
        }' >&2
  }
  one_encoder() { # a --quick --trace output
    # `core.predictor.model_bytes` is an exact count. On the quick fixture
    # one encoder under eight decoder heads is 396 628 B and a model per
    # object 1 457 492 B, so a ceiling a few percent over the first notices
    # a silent fall-back to N encoders on any of the four result lines.
    sed -nE 's/^\{"correct".*"core\.predictor\.model_bytes": \{"value": ([^,]+),.*/\1/p' "$1" \
      | awk '
        $1 > 420000 {
          print "!!> result line " NR ": core.predictor.model_bytes " $1 " > 420000"
          bad = 1
        }
        END {
          if (NR != 4) print "!!> " NR " result lines carry model_bytes, not 4"
          exit bad || NR != 4
        }' >&2
  }
  step cargo fmt --all -- --check
  step one_admission_loop
  step one_training_loop
  step unit_tests sim crates/sim/src
  step unit_tests obs crates/obs/src
  step unit_tests buffer crates/buffer/src --extern "pythia_sim=$tmp/libpythia_sim.rlib" \
    --extern "pythia_obs=$tmp/libpythia_obs.rlib"
  step db_unit_tests
  step kernels_unit_tests
  step bash benchmark/run.sh --quick > "$tmp/quick.out"
  # The real composition root behind real sockets: that run has just built
  # serve_demo, and trace_diff needs nothing but the obs rlib from above.
  step rustc --edition 2021 -O -L "$tmp" --extern "pythia_obs=$tmp/libpythia_obs.rlib" \
    -o "$tmp/trace_diff" crates/experiments/src/bin/trace_diff.rs
  step serve_demo_smoke "${CARGO_TARGET_DIR:-benchmark/target/build}/release/serve_demo" \
    "$tmp/trace_diff" --validate
  step bash benchmark/run.sh --quick --trace > "$tmp/quick_trace.out"
  step session_flat "$tmp/quick_trace.out"
  step one_encoder "$tmp/quick_trace.out"
  # Tier-1's `PYTHIA_SIMD=off cargo test` cannot run here, so this is where
  # the scalar kernels meet the whole stack: trained and served on them, no
  # workload's virtual time may move by a digit.
  step env PYTHIA_SIMD=off bash benchmark/run.sh --quick > "$tmp/quick_scalar.out"
  step same_virtual_time "$tmp/quick.out" "$tmp/quick_scalar.out"
  rm -rf "$tmp"
  echo "!!> ================================================================" >&2
  echo "!!> OFFLINE SUBSET — tier-1 NOT run (crate registry unreachable):" >&2
  echo "!!> no clippy, no workspace build, no cargo test. Run ./ci.sh where" >&2
  echo "!!> the registry resolves before trusting this tree." >&2
  echo "!!> ================================================================" >&2
  return "$failed"
}

if [[ -z "${CI:-}" ]] \
  && ! cargo metadata --offline --format-version 1 > /dev/null 2>&1 \
  && ! cargo metadata --format-version 1 > /dev/null 2>&1; then
  offline_subset
  exit $?
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check
one_admission_loop
one_training_loop

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "$fast" -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

echo "==> cargo test -q"
cargo test -q

# Run the suite again with SIMD dispatch forced off so the scalar fallback
# arm of every GEMM kernel is exercised end to end (the proptests also pin
# dispatched == scalar bit-identity, but this covers whole-stack behaviour
# under the fallback).
echo "==> PYTHIA_SIMD=off cargo test -q"
PYTHIA_SIMD=off cargo test -q

if [[ "$fast" -eq 0 ]]; then
  echo "==> traced mini serving runs (trace-diff regression gate)"
  mkdir -p results
  cargo run --release -q -p pythia-experiments --bin serving -- \
    --mini --trace-out results/serving_trace.json \
    --metrics-out results/metrics_snapshot.json \
    --admission-out results/admission_snapshot.json \
    --drift-out results/drift_snapshot.json
  cargo run --release -q -p pythia-experiments --bin serving -- \
    --mini --trace-out results/serving_trace_rerun.json

  # Drift gate: the stationary-mix control must report zero drift alerts
  # (no false positives), and the template-mix rotation must have fired at
  # least one (`first_alert_observation` stays 0 only when none ever fired).
  if ! grep -q '"stationary": {"queries": 32, "observations": 32, "alerts": 0' \
      results/drift_snapshot.json; then
    echo "!!> stationary drift control raised alerts (false positive):" >&2
    cat results/drift_snapshot.json >&2
    exit 1
  fi
  if grep -q '"first_alert_observation": 0,' results/drift_snapshot.json; then
    echo "!!> template-mix rotation never raised a drift alert:" >&2
    cat results/drift_snapshot.json >&2
    exit 1
  fi

  # An empty or non-JSON trace (a silently broken recorder) fails outright.
  cargo run --release -q -p pythia-experiments --bin trace_diff -- \
    --validate results/serving_trace.json
  cargo run --release -q -p pythia-experiments --bin trace_diff -- \
    --validate results/serving_trace_rerun.json

  # Same seed + fixed inference charge => the two runs' virtual-clock traces
  # must be structurally AND byte-for-byte identical. Any drift is a
  # determinism regression in the serving stack.
  cargo run --release -q -p pythia-experiments --bin trace_diff -- \
    results/serving_trace.json results/serving_trace_rerun.json

  # Structural compare against the checked-in golden summary, with the
  # allowlist marking intentional drift (regenerate the golden with
  # `trace_diff --summary` after reviewing a deliberate change, or delete it
  # and rerun ci.sh to re-bless).
  cargo run --release -q -p pythia-experiments --bin trace_diff -- \
    --summary results/serving_trace.json > results/serving_trace_summary.txt
  if [[ -f tests/golden/serving_trace_summary.txt ]]; then
    cargo run --release -q -p pythia-experiments --bin trace_diff -- \
      tests/golden/serving_trace_summary.txt results/serving_trace.json \
      --allow-file tests/golden/trace_allowlist.txt
  else
    # A missing golden is never silent: bless the fresh summary into the
    # golden directory and shout until it gets committed. (The summary is a
    # run artifact, so it cannot be hand-authored — this is the only way to
    # create it.) Under CI ($CI set) the blessed file would never reach the
    # repo, silently turning the trace-diff gate into a no-op on every
    # subsequent run — so auto-blessing there is a hard failure instead.
    cp results/serving_trace_summary.txt tests/golden/serving_trace_summary.txt
    echo "!!> no golden serving-trace summary was checked in." >&2
    echo "!!> auto-blessed results/serving_trace_summary.txt into tests/golden/." >&2
    echo "!!> COMMIT tests/golden/serving_trace_summary.txt to pin the serving trace." >&2
    if [[ -n "${CI:-}" ]]; then
      echo "!!> refusing to continue under CI with an unpinned serving trace." >&2
      echo "!!> bless the golden locally (run ci.sh, commit the file) first." >&2
      exit 1
    fi
  fi

  echo "==> serve_demo socket smoke test (two tenants + postmortem surface)"
  cargo build --release -q --example serve_demo
  serve_demo_smoke ./target/release/examples/serve_demo \
    cargo run --release -q -p pythia-experiments --bin trace_diff -- --validate
fi

# The offline-buildable benchmark's smoke runs (its own workspace and
# std-only shims, so they also work where no registry is reachable): all four
# workloads with every self-check on, then the traced run, which ends with a
# retrain + serve on the other pool width that must be bit-identical.
echo "==> benchmark/run.sh --quick [--trace]"
bash benchmark/run.sh --quick > /dev/null
bash benchmark/run.sh --quick --trace > /dev/null

echo "==> ci.sh: all gates passed"
