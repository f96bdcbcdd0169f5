#!/usr/bin/env bash
# Tier-1 gate for the workspace: formatting, lints, docs, release build, tests
# (tests/structure.rs holds the structural rules), the traced serving run
# against its golden, the socket smoke and the benchmark's contracts.
#
#   ./ci.sh            # run everything
#   ./ci.sh --fast     # skip the release build (fmt + clippy + doc + tests)
#
# Every step must pass; clippy warnings are errors. The root's registry
# declarations are patched to benchmark/shims/* and Cargo.lock is committed,
# so no step needs a crate registry.
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

# The serve_demo socket smoke (two tenants + postmortem surface) against any
# build of the example: the binary, then the command that validates the flight
# dump it leaves (the dump's path is appended). Every check returns rather than
# exits, so a failure still stops the child and prints its log.
serve_demo_smoke() {
  local demo=$1 log=results/serve_demo.log status=0 demo_pid
  shift
  mkdir -p results
  rm -f "$log" results/flight_dump.json
  # --slow-ms 1 marks virtually every replay slow (virtual latencies are
  # tens-to-hundreds of ms), so each completion triggers a flight-recorder
  # dump, which /debug/flight serves live and --flight-out persists on
  # shutdown.
  "$demo" --addr 127.0.0.1:0 --tenants 2 --slow-ms 1 \
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
  local demo_addr=""
  for _ in $(seq 1 100); do
    demo_addr=$(sed -n 's|^serve_demo listening on http://||p' "$log" | head -n1)
    [[ -n "$demo_addr" ]] && break
    sleep 0.1
  done
  if [[ -z "$demo_addr" ]]; then
    echo "!!> serve_demo never printed its listen address" >&2
    return 1
  fi
  # Every route below, the metrics and debug ones included, is on that one
  # address.
  demo_get() { http_get "${demo_addr%:*}" "${demo_addr##*:}" "$1"; }
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
  local demo_resp demo_t1 demo_t1_stats demo_health demo_slow demo_flight demo_metrics
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
  # The tenant-scoped health route serves the quality snapshot the pump
  # published, and nothing else: no alert state rides along. (An admission
  # interval reaches the tracker when it closes, at the tenant's next
  # admission: after one query the slice may still be empty.)
  demo_health=$(demo_get /t/1/health)
  expect "malformed serve_demo tenant-1 health snapshot" "$demo_health" \
    'HTTP/1.1 200 OK' '"observations"' '"templates"' || return 1
  if grep -qF '"drift"' <<<"$demo_health"; then
    echo "!!> the tenant-1 health snapshot carries a drift object again:" >&2
    echo "$demo_health" >&2
    return 1
  fi
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
  demo_slow=$(demo_get /debug/slow)
  expect "/debug/slow did not report the served requests" "$demo_slow" \
    'HTTP/1.1 200 OK' '"requests":\[{"request":' || return 1
  # The slow-request trigger above must leave a postmortem flight dump
  # behind /debug/flight: a Chrome trace with flow-linked request.* spans
  # from the event log's tail.
  demo_flight=$(demo_get /debug/flight)
  expect "/debug/flight has no dump with flow-linked request spans" "$demo_flight" \
    'HTTP/1.1 200 OK' '"request\.' '"ph":"s"' || return 1
  # /metrics is tenant 0's recorder snapshot, which the pump publishes before
  # each of that tenant's answers.
  demo_metrics=$(demo_get /metrics)
  expect "/metrics does not count tenant 0's completions" "$demo_metrics" \
    'HTTP/1.1 200 OK' 'pythia_server_completions' || return 1
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
  # The pump republishes tenant 1's health before each of its answers: after
  # nine tenant-1 queries its closed admission intervals have reached the
  # body. (A pump that published only at the start would still read 0.)
  demo_health=$(demo_get /t/1/health)
  expect "tenant-1 health did not move with the burst" "$demo_health" \
    'HTTP/1.1 200 OK' '"observations":[1-9]' || return 1
  # Bounded memory: the demo's recorders keep counters, histograms and a
  # fixed event ring, so its high-water mark must not follow the number of
  # requests served. 100 requests warm every buffer; 400 more must add
  # (almost) nothing, though serving faults its working set in after the
  # trimmed set-up. The peak here is serving's: --slow-ms 1 renders a flight
  # dump at every completion. The ceiling is the highest of eleven readings
  # (6648 to 7268 kB, docs/measurements.md) plus 1024 kB of run-to-run
  # spread (the readings spread 620 kB). Linux only: the reading comes from
  # /proc.
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
    if ((hwm_500 - hwm_100 > 1024 || hwm_500 > 8292)); then
      echo "!!> serve_demo memory follows requests served or holds pages: VmHWM ${hwm_100} kB" \
        "after 100 requests, ${hwm_500} kB after 500 (limits: +1024 kB, 8292 kB)" >&2
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
  echo "    serve_demo answered both tenants and a 16-way burst, served /debug/slow, /debug/flight and /metrics from its one address, and wrote a loadable flight dump"
}

# The traced mini serving run's gate, against any build of the `serving` and
# `trace_diff` bins: both traces load; same seed and a fixed inference charge,
# so two runs are byte-identical; and the trace matches the golden summary
# exactly (tests/golden/README.md has the bless recipe).
trace_gate() { # the serving binary, the trace_diff binary
  local serving=$1 diff=$2
  mkdir -p results
  "$serving" --mini --trace-out results/serving_trace.json \
    --metrics-out results/metrics_snapshot.json \
    && "$serving" --mini --trace-out results/serving_trace_rerun.json \
    && "$diff" --validate results/serving_trace.json \
    && "$diff" --validate results/serving_trace_rerun.json \
    && "$diff" results/serving_trace.json results/serving_trace_rerun.json \
    && "$diff" --summary results/serving_trace.json > results/serving_trace_summary.txt \
    && "$diff" tests/golden/serving_trace_summary.txt results/serving_trace.json
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

ceiling() { # a --quick output, a metric, the first result line it binds, its bound
  sed -nE "s/^\{\"correct\".*\"${2//./\\.}\": \{\"value\": ([^,]+),.*/\1/p" "$1" \
    | awk -v metric="$2" -v from="$3" -v bound="$4" '
      NR >= from && $1 > bound {
        print "!!> result line " NR ": " metric " " $1 " > " bound
        bad = 1
      }
      END {
        if (NR != 4) print "!!> " NR " result lines carry " metric ", not 4"
        exit bad || NR != 4
      }' >&2
}

# The benchmark's smoke runs (its own workspace over std-only shims): all four
# workloads with every self-check on; the traced run, which ends with a
# retrain + serve on the other pool width that must be bit-identical; and the
# plain run with SIMD dispatch off, whose virtual time may not move by a digit.
# Their output gates what no test here can. Every check runs.
benchmark_contracts() { # a directory for the runs' output
  local out=$1 status=0 run metric from bound
  bash benchmark/run.sh --quick > "$out/quick.out" || status=1
  bash benchmark/run.sh --quick --trace > "$out/quick_trace.out" || status=1
  PYTHIA_SIMD=off bash benchmark/run.sh --quick > "$out/quick_scalar.out" || status=1
  # run, metric, the first result line it binds, its bound:
  #  - peak_rss_mb on the serve_* workloads (lines 3 and 4): the highest of
  #    three readings (8.54, 8.68, 8.68) plus 0.6, to one decimal
  #    (docs/measurements.md has the earlier readings);
  #  - core.predictor.model_bytes, an exact count, on all four lines: one
  #    encoder under eight decoder heads is 396 628 B and a model per object
  #    1 457 492 B, so this notices a silent fall-back to N encoders.
  while read -r run metric from bound; do
    ceiling "$out/$run" "$metric" "$from" "$bound" || status=1
  done <<'TABLE'
quick.out peak_rss_mb 3 9.3
quick_trace.out core.predictor.model_bytes 1 420000
TABLE
  session_flat "$out/quick_trace.out" || status=1
  same_virtual_time "$out/quick.out" "$out/quick_scalar.out" || status=1
  return "$status"
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --locked --workspace --all-targets -- -D warnings

# Docs build without a warning, so a public doc that links a private item
# (or a link that no longer resolves) fails here, not in a reader's browser.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps

if [[ "$fast" -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Again with SIMD dispatch off, so the scalar arm of every GEMM kernel runs
# whole-stack behaviour too, not only the property tests' bit-identity pins.
echo "==> PYTHIA_SIMD=off cargo test --workspace -q"
PYTHIA_SIMD=off cargo test --workspace -q

if [[ "$fast" -eq 0 ]]; then
  release=${CARGO_TARGET_DIR:-target}/release
  echo "==> traced mini serving runs (trace-diff regression gate)"
  cargo build --release -q -p pythia-experiments --bin serving --bin trace_diff
  trace_gate "$release/serving" "$release/trace_diff"

  echo "==> serve_demo socket smoke test (two tenants + postmortem surface)"
  cargo build --release -q --example serve_demo
  serve_demo_smoke "$release/examples/serve_demo" "$release/trace_diff" --validate

  echo "==> quickstart (train, publish, serve a batch against DFLT)"
  cargo run --release -q --example quickstart
fi

echo "==> benchmark/run.sh --quick [--trace], and PYTHIA_SIMD=off --quick"
contracts_out=$(mktemp -d)
benchmark_contracts "$contracts_out"
rm -rf "$contracts_out"

echo "==> ci.sh: all gates passed"
