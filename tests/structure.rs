//! The workspace's structural rules: one table of (row, rule, what a failure
//! means), checked from the working directory, which `cargo test` sets to the
//! repository root. Std only, so it builds alone and runs against any tree:
//! `rustc --edition 2021 --test tests/structure.rs`, then the binary from the
//! tree's root. The rules never read this file, which holds every forbidden
//! name.

use std::{collections::HashSet, fs, path::Path};

type S = &'static str;

/// Names are `holds` patterns.
enum Rule {
    /// Exactly one line under the paths holds one of the names, in this file.
    One(&'static [S], S, S),
    /// No line, and no file path, under the paths holds any of the names.
    Never(&'static [S], S),
    /// As `Never`, outside `#[cfg(test)]` items.
    NeverInCode(&'static [S], S),
    /// A check whose error is what it found.
    Code(fn() -> Result<(), String>),
}
use Rule::{Code, Never, NeverInCode, One};

const CODE: S = "crates src examples tests";
const CODE_AND_CI: S = "crates src examples tests .github ci.sh";
const SIZED: S = "RunConfig::sized_for (crates/db/src/runtime.rs) must be the one sizing rule, \
                  and ExpConfig::sized_run must build on it";

#[rustfmt::skip]
const ROWS: &[(S, Rule, S)] = &[
    // One admission loop, one pump: every path admits through PrefetchServer's sessions, driven by library code.
    // (`fn pump` elsewhere is somebody else's word: the AIO engine has one.)
    ("one_admission_loop/wave", Never(&[r"serve_wave\w*", "AdmissionMode::Wave", "Admission::", "admission_snapshot", "admission-out"], CODE_AND_CI), "a second admission loop is back; DFLT and Pythia serve through PrefetchServer alike"),
    ("one_admission_loop/serve", Never(&[".serve("], "examples/serve_demo.rs"), "examples/serve_demo.rs calls PrefetchServer::serve; the pump submits to its session"),
    ("one_admission_loop/by_hand", Never(&["drain_batch", "poll_completion", ".submit("], "examples"), "an example drives a session by hand; the live path is pythia_core::frontend::pump"),
    ("one_admission_loop/pump", One(&["fn pump"], "crates/core", "crates/core/src/frontend.rs"), "crates/core must hold exactly one fn pump, in src/frontend.rs"),
    // One training loop: a workload's objects share an encoder as heads of one PlanClassifier, stepped once.
    ("one_training_loop/train_phase", One(&["fn train_phase"], "crates/core", "crates/core/src/classifier.rs"), "crates/core must hold exactly one fn train_phase, in src/classifier.rs"),
    ("one_training_loop/classifier", One(&[r"struct \w*Classifier", r"enum \w*Classifier", r"trait \w*Classifier"], "crates/core", "crates/core/src/classifier.rs"), "crates/core must hold exactly one classifier type, PlanClassifier"),
    // One rate formula, read off the pool's counters (`BufferStats`); the quality tracker lives beside its server.
    ("one_rate_formula/hit_rate", One(&["fn hit_rate(&self"], "crates", "crates/buffer/src/stats.rs"), "crates/ must define hit_rate exactly once, on BufferStats in crates/buffer/src/stats.rs"),
    ("one_rate_formula/prefetch_precision", One(&["fn prefetch_precision(&self"], "crates", "crates/buffer/src/stats.rs"), "crates/ must define prefetch_precision exactly once, on BufferStats in crates/buffer/src/stats.rs"),
    ("one_rate_formula/prefetch_recall", One(&["fn prefetch_recall(&self"], "crates", "crates/buffer/src/stats.rs"), "crates/ must define prefetch_recall exactly once, on BufferStats in crates/buffer/src/stats.rs"),
    ("one_rate_formula/quality", Never(&["mod quality", "obs/src/quality.rs"], "crates/obs"), "pythia-obs holds a quality module again; the tracker lives in crates/core/src/quality.rs"),
    // One hand-off each way in pythia-obs: one capture channel to a recorder, one cell type (`Shared<T>`) to routes.
    ("one_hand_off/train", Never(&["mod train", "obs/src/train.rs"], "crates/obs"), "pythia-obs holds a second capture module; training records go through src/wall.rs"),
    ("one_hand_off/set_enabled", One(&["fn set_enabled"], "crates/obs", "crates/obs/src/wall.rs"), "crates/obs must hold exactly one 'fn set_enabled' (the capture channel), in src/wall.rs"),
    ("one_hand_off/buffer", One(&[r"static \w+: Mutex<Vec<"], "crates/obs", "crates/obs/src/wall.rs"), "crates/obs must hold exactly one 'static …: Mutex<Vec<…>>' (the capture channel), in src/wall.rs"),
    ("one_hand_off/shared", Never(&[r"struct Shared\w+"], "crates/obs"), "a hand-written shared cell in pythia-obs; use pythia_obs::Shared<T>"),
    // One trace codec: a trace is the byte stream of crates/db/src/trace.rs, read through its one decoder.
    ("one_trace_codec/packed", Never(&["PackedEvent", "MAX_ID"], "crates"), "crates/ names the packed trace word again; a trace is the byte stream in crates/db/src/trace.rs"),
    ("one_trace_codec/decoder", One(&["type Item = TraceEvent", "impl Iterator<Item = TraceEvent"], "crates", "crates/db/src/trace.rs"), "crates/ must hold exactly one iterator of TraceEvent, the decoder in crates/db/src/trace.rs"),
    // One softmax block: forward and backward compute each head's block through one function, so backward
    // recomputes what forward used, bit for bit, and the attention node saves no probabilities. Tests may call it.
    ("one_softmax_block/probs", Never(&["probs: Tensor"], "crates/nn/src/tape.rs"), "the attention node saves its probabilities again; backward recomputes each block through softmax_block"),
    ("one_softmax_block/fn", One(&["fn softmax_block"], "crates/nn", "crates/nn/src/tape.rs"), "crates/nn must hold exactly one fn softmax_block, in src/tape.rs"),
    ("one_softmax_block/callers", Code(softmax_block_callers), "softmax_block must be called from exactly Tape::attention and attention_backward"),
    // One batch shape: a forward holds one sequence, in training and in inference; a minibatch trains one per pass,
    // each backward continuing the gradients of the pass before. No packed batch, no key mask, no pass size.
    ("one_batch_shape/packed", Never(&["encode_batch", "forward_packed", "lens: &[usize]", "PASS"], "crates/nn crates/core crates/baselines"), "a multi-sequence forward is back; pythia-nn encodes one sequence per forward, and a minibatch trains one per pass"),
    // One inference charge: a Pythia query is charged a fixed virtual latency (`prefetch::INFER_CHARGE` by default), never
    // the host's clock, so a replay's virtual timings, each figure's Pythia column included, are a function of its seed.
    ("one_inference_charge/measured", Never(&["InferenceCharge::Measured"], CODE), "a query is charged its measured inference time again; InferenceCharge is Fixed, and a figure must not move with host load"),
    ("one_inference_charge/clock", NeverInCode(&["Instant"], "crates/core/src/prefetch.rs crates/core/src/server.rs crates/experiments/src/harness.rs crates/experiments/src/serving.rs"), "a wall clock is read on the engage or serving path; virtual time charges prefetch::INFER_CHARGE, never the host's clock"),
    ("one_inference_charge/cost_model", Never(&["inference_latency"], "crates/sim"), "the cost model carries an inference latency again; a query's charge is InferenceCharge, set on the server"),
    // One column reader: columns are read through `Layout::int_at`, a hash build keeps `(key, RecordId)` pairs, and
    // outside tests, index builds and the value binner decode no row.
    ("one_column_reader/tag_walk", Never(&["tuple::int_at("], "crates src examples tests -crates/db/src/tuple.rs"), "an encoded column is read past Layout::int_at; only crates/db/src/tuple.rs walks the tags"),
    ("one_column_reader/hash_build", Never(&["HashMap<i64, Vec<Tuple>>"], "crates/db/src/exec.rs"), "the hash join decodes its build side again; it keeps (key, RecordId) pairs"),
    ("one_column_reader/set_up", NeverInCode(&[".scan(&", "read_page(", "read_tuple("], "crates/db/src/catalog.rs crates/core/src/serialize.rs"), "set-up decodes rows to read a column; index keys come through Layout::int_at, binner bounds from HeapFile::bounds"),
    ("one_column_reader/binner", NeverInCode(&[".disk"], "crates/core/src/serialize.rs"), "the value binner reads the disk again; it reads HeapFile::bounds, so it bins a released database"),
    // No alert without a consumer: an alert nothing acts on, its drill and its sweep do not come back.
    ("no_unread_alert", Never(&["DriftAlert", "force_alert", "\"drift.alert\"", "force-drift", "drift-out"], CODE_AND_CI), "a drift alert, its drill or its sweep is back; nothing reads an alert, so none is raised"),
    // One front door: train with `train_workload`, publish to a `TenantFleet`, serve by a `PrefetchServer`. The root
    // crate only re-exports, the examples are the quickstart and the socket demo, and the facade does not return.
    ("one_front_door/lib_rs", Code(lib_rs_reexports_only), "src/lib.rs declares something besides its crate doc and pub use lines"),
    ("one_front_door/examples", Code(two_examples), "examples/ holds quickstart.rs and serve_demo.rs only"),
    ("one_front_door/facade", Never(&["PythiaSystem", "TrainRequest", "spawn_trainer", "Engagement"], CODE_AND_CI), "the PythiaSystem facade is back; train, publish and serve through TenantFleet and PrefetchServer"),
    // One event store: an `EventSlot` per event, ≤ 96 bytes, private to flight.rs (232-byte `Event`s made a 950 kB ring).
    ("one_event_slot/log", Code(event_log_keeps_slots), "EventLog stores whole Events (or left crates/obs/src/flight.rs); it keeps an EventSlot per event"),
    ("one_event_slot/size", One(&["assert!(std::mem::size_of::<EventSlot>() <= 96)"], "crates/obs/src/flight.rs", "crates/obs/src/flight.rs"), "crates/obs/src/flight.rs no longer asserts that an EventSlot is at most 96 bytes"),
    ("one_event_slot/private", Never(&["EventSlot"], "crates src examples tests -crates/obs/src/flight.rs"), "the event slot is named outside crates/obs/src/flight.rs; readers get decoded Events"),
    // One listener per process: the query front serves health, /metrics and /debug/* from cells the pump fills.
    ("one_listener/start", One(&["Listener::start("], "crates src examples tests -crates/obs/src/http.rs", "crates/core/src/frontend.rs"), "Listener::start( must appear exactly once outside crates/obs/src/http.rs, in crates/core/src/frontend.rs"),
    ("one_listener/module", Never(&["mod serve", "obs/src/serve.rs"], CODE), "a second listener module is back; the query front serves /metrics and /debug/*"),
    ("one_listener/names", Never(&["MetricsServer", "DebugEndpoints", "set_publisher", "metrics-addr", "HealthProvider", "set_health_provider", "set_labeled", "LabeledSeries"], CODE_AND_CI), "a second listener, its cells, the snapshot publisher, its address flag, a health callback or a labeled metric series is back"),
    // Nothing the live process never reads is kept: tracks are named by rule, the OS cache reserves nothing,
    // serve_demo releases each tenant's page bytes once its catalog has run, and hands what each tenant's set-up
    // freed back to the OS through pythia_sim::return_freed_memory, the one place that calls glibc's heap trim.
    // Before that, it builds each tenant with rows in only the tables its Template 18 catalog reads.
    ("no_unread_memory/declare_track", NeverInCode(&["declare_track"], "crates src examples"), "a track is declared again; tracks are named by rule when a trace renders"),
    ("no_unread_memory/pages", One(&[".release_pages()"], "examples", "examples/serve_demo.rs"), "examples/serve_demo.rs must release each tenant's pages once, after its catalog has run; the live process keeps the catalog, not the pages"),
    ("no_unread_memory/heap", One(&["return_freed_memory("], "examples", "examples/serve_demo.rs"), "examples/serve_demo.rs must hand each tenant's freed set-up heap back to the OS once, at the end of its set-up; glibc keeps freed pages resident otherwise"),
    ("no_unread_memory/tables", Code(serve_demo_builds_only_what_its_catalog_reads), "examples/serve_demo.rs must build each tenant through build_for( and name no build_benchmark(; a tenant fills only the tables its catalog reads"),
    ("no_unread_memory/lru_new", Code(lru_new_reserves_nothing), "LruSet::new reserves room for its capacity (or left crates/sim/src/oscache.rs); its map grows with what it holds"),
    // One budget rule, `prefetch::default_budget` (rustfmt spaces a copy as `* 3 / 4`), and one sizing rule.
    ("one_budget_rule/default_budget", One(&["fn default_budget("], "crates", "crates/core/src/prefetch.rs"), "crates/ must define default_budget exactly once, in crates/core/src/prefetch.rs"),
    ("one_budget_rule/copies", Never(&["* 3 / 4"], "crates src examples tests -crates/core/src/prefetch.rs"), "a copy of the ¾-pool budget; call pythia_core::prefetch::default_budget"),
    ("one_budget_rule/sized_for", One(&["fn sized_for("], "crates", "crates/db/src/runtime.rs"), SIZED),
    ("one_budget_rule/sized_run", Code(sized_run_builds_on_sized_for), SIZED),
    // A model lives in its fleet: `train_workload` hands it to `TenantFleet::publish` in memory, and no binary reads or
    // writes a model file, so no format, writer or reader is kept for one.
    ("no_model_file", Never(&["mod model_file", "fn save_model", "fn load_model", r"const FORMAT\w*"], "crates src examples"), "a model format is back without a binary that reads it"),
    // One operating point per model: the decision threshold is `TrainedWorkload::threshold`, one value the trainer
    // calibrates; neither a classifier nor a model group keeps a copy, so re-thresholding a clone copies no weight.
    ("one_operating_point", Never(&["threshold: f32,", "self.threshold", "fn threshold(", "fn set_threshold", "fn predict("], "crates/core/src/classifier.rs crates/core/src/model.rs"), "a classifier or a model group keeps a threshold again; the operating point is TrainedWorkload::threshold"),
    // One way in for a model: a server serves from one fleet (empty is DFLT; `with_predictor` publishes a clone that
    // shares the weights).
    ("one_predictor_source", Never(&["PredictorSource"], "crates"), "a second predictor source is back; a PrefetchServer serves from one Arc<TenantFleet>"),
    ("one_model_check", Never(&["CatalogCompat", "vocab_hash", "fn fingerprint"], CODE), "a model file's catalog header, the vocabulary hash it carried, or a fingerprint of a model is back; a model is checked by its own tests, not by a file"),
    // Every crate in tree: no source names a registry crate, so the root's patch table to benchmark/shims/* is all a
    // build needs; draws come from one stream, `pythia_sim::rng`, which pythia-nn includes by `#[path]` as it
    // depends on no workspace crate.
    ("in_tree_crates/registry", Never(&["rand::", "proptest", r"serde\w*", "crossbeam", "parking_lot"], CODE), "a source file names a registry crate; draws come from pythia_sim::rng, draws come from pythia_sim::rng"),
    ("in_tree_crates/next_u64", One(&["fn next_u64("], "crates", "crates/sim/src/rng.rs"), "crates/ must define one random stream (fn next_u64), in crates/sim/src/rng.rs"),
    ("in_tree_crates/path", One(&["#[path"], "crates", "crates/nn/src/lib.rs"), "the one #[path] include under crates/ is pythia-nn's copy of crates/sim/src/rng.rs"),
    // One CI path: ci.sh gates with cargo over the whole workspace, from the committed lock; no bare-rustc branch
    // rebuilds it, and no registry probe picks between two gates.
    ("one_ci_path/offline_branch", Never(&["offline_subset", "rustc --edition", "cargo metadata"], "ci.sh .github"), "ci.sh has a second path again; tier-1 is cargo, and it needs no registry"),
    ("one_ci_path/workspace", Code(every_cargo_test_names_workspace), "a cargo test in CI tests only the root package; every one names --workspace"),
    // Production code is what production calls: a `pub fn` of a library crate is called outside test items, by the
    // workspace, its examples or the benchmark, or it is on ONE_CALLER_OK with the reason it stays; and `pub` means
    // another crate calls it (a binary, an example, a test, a doctest or the benchmark), so that rustc's dead-code
    // lint, which skips what a crate exports, judges every other function by its type. A field, a local or a
    // parameter of the same name is no call, nor is a function's call of itself.
    ("one_caller", Code(every_pub_fn_has_a_caller), "a pub fn has no call outside test items (or an ONE_CALLER_OK entry went stale), or no call from another crate; delete it, let its test read production surface, or make it pub(crate)"),
    // Dead code is deleted or test-only, not allowed: the one allow is pythia-nn's private copy of the rng, whose
    // integer draws nn never makes, until nn depends on pythia-sim.
    ("no_dead_code_allow", Code(no_dead_code_allow), "production code allows dead_code or an unused lint; delete what the lint flags, or put it under #[cfg(test)]"),
    // One tape vocabulary: the ops the model records, and the composed ops the fused attention is pinned against,
    // which only test builds compile.
    ("one_tape_vocabulary", Code(tape_ops_are_the_models), "pythia-nn's Op lists other variants than the model's ops and the attention oracle's; an op nothing records does not come back"),
];

/// The `pub fn`s that stay with no caller outside test items, and why.
const ONE_CALLER_OK: &[(S, S)] = &[
    ("search", "BTree::search: the reference lookup tests/exec_reference.rs replays the executor's index probes against"),
    ("read_page", "HeapFile::read_page: the reference page decode of the executor in tests/exec_reference.rs"),
    ("advance_to", "Runtime::advance_to: the serial comparator of tests/proptest_server.rs, a bit pin kept byte-identical"),
    ("tenant_report", "ServeReport::tenant_report: read by tests/proptest_server.rs, a bit pin kept byte-identical"),
    ("mean_latency", "TenantReport::mean_latency: read by tests/proptest_server.rs, a bit pin kept byte-identical"),
    ("event_count", "Recorder::event_count: tests/proptest_server.rs (kept byte-identical) and tests/trace_obs.rs count spans by it"),
    ("retained_bytes", "Tape::retained_bytes: pythia-core's arena tests assert the bytes a thread's private arena holds"),
    ("allocations", "Tape::allocations: the arena tests of pythia-nn and pythia-core assert that a warm step allocates nothing"),
    ("leaf", "Tape::leaf: the tape's gradient tests and the attention oracle in pythia-nn's layer tests feed their inputs through it"),
    ("transpose", "Tensor::transpose: tests/proptest_model.rs's tensor_algebra reads (AB)ᵀ = BᵀAᵀ through it"),
    ("set_simd_override", "kernels::set_simd_override: tests/proptest_kernels.rs and pythia-nn's layer tests pin SIMD against scalar in one process"),
    ("set_flight_capacity", "Recorder::set_flight_capacity: the flight-ring tests (tests/proptest_server.rs, a bit pin kept byte-identical) size a small ring to see it wrap"),
    ("virtual_trace_json", "Recorder::virtual_trace_json: tests/trace_obs.rs and the serving tests compare the virtual process alone, byte for byte"),
    ("cases", "rng::cases: the seeded case loop every property test (tests/proptest_*.rs) runs its cases in"),
    ("window", "QualityTracker::window: a tenant's windowed precision and recall, the input ROADMAP item 4's budget controller reads"),
    ("flight", "Recorder::flight: tests/proptest_server.rs (kept byte-identical) reads the flight ring through it"),
    ("tail", "EventLog::tail: tests/proptest_server.rs (kept byte-identical) compares the ring with the tail of the event stream"),
    ("counter", "Recorder::counter: tests/trace_obs.rs reconciles every counter against ReplayStats"),
    ("bytes", "EventStream::bytes: pythia-workloads' bytes-per-event ceilings read the trace encoding through it"),
];

const TAPE_OPS: [&str; 16] = [
    "Leaf",
    "MatMul",
    "Linear",
    "Add",
    "AddRow",
    "Scale",
    "AddConst",
    "Relu",
    "SoftmaxRows",
    "LayerNorm",
    "Transpose",
    "SliceCols",
    "ConcatCols",
    "GatherRows",
    "Attention",
    "BceWithLogits",
];

fn every_pub_fn_has_a_caller() -> Result<(), String> {
    let (mut called, mut defs) = (HashSet::new(), Vec::new());
    let production = files("crates src examples benchmark/src");
    for (path, text) in &production {
        let code = || code_lines(text, true).filter(|(_, l)| !l.trim_start().starts_with("//"));
        called.extend(calls_in(code().map(|(_, l)| l)));
        for (n, line) in code().filter(|_| library(path).is_some()) {
            let def = line.trim_start().strip_prefix("pub ");
            let def = def.map(|l| l.strip_prefix("const ").unwrap_or(l));
            if let Some(name) = def.and_then(|l| l.strip_prefix("fn ")).and_then(ident_at) {
                defs.push((name, library(path), format!("{path}:{n}: {}", line.trim())));
            }
        }
    }
    // Who calls each name from where, test code and doctests included: a call
    // from another crate is one whose file is no source of the defining library.
    let mut callers: HashSet<(&str, Option<&str>)> = HashSet::new();
    let texts = files("crates src examples tests benchmark/src");
    for (path, text) in &texts {
        let code = code_lines(text, false).filter(|(_, l)| !l.trim_start().starts_with("//"));
        callers.extend(
            calls_in(code.map(|(_, l)| l))
                .into_iter()
                .map(|name| (name, library(path))),
        );
        callers.extend(
            calls_in(doctest_lines(text))
                .into_iter()
                .map(|name| (name, None)),
        );
    }
    let crate_private = defs.iter().filter(|(name, krate, _)| {
        !callers
            .iter()
            .any(|&(called, from)| called == *name && from != *krate)
    });
    let mut found: Vec<String> = crate_private
        .map(|(_, _, at)| format!("{at}  <- called only inside its own crate"))
        .collect();
    // The count keys on names, not types: one type's call of `counter` vouches for another type's `counter`.
    // rustc's dead-code lint keys on types, and it judges every function that is not `pub`.
    let lonely: Vec<&(&str, Option<&str>, String)> = defs
        .iter()
        .filter(|(name, ..)| !called.contains(name))
        .collect();
    let allowed = |name: &str| ONE_CALLER_OK.iter().any(|&(ok, _)| ok == name);
    found.extend(
        lonely
            .iter()
            .filter(|(name, ..)| !allowed(name))
            .map(|(.., at)| at.clone()),
    );
    for (ok, _) in ONE_CALLER_OK {
        if !lonely.iter().any(|(name, ..)| name == ok) {
            found.push(format!(
                "ONE_CALLER_OK holds {ok}, which has a caller or no definition"
            ));
        }
    }
    check(found.is_empty(), found)
}

/// The library crate whose source `path` is, as its `crates/<name>/src/`
/// prefix; `None` for any other crate: a `src/bin` binary, an example, an
/// integration test, the root or the benchmark.
fn library(path: &str) -> Option<&str> {
    let (name, file) = path.strip_prefix("crates/")?.split_once("/src/")?;
    let lib = !name.contains('/') && !file.starts_with("bin/");
    lib.then(|| &path[..path.len() - file.len()])
}

/// The code of the doctests in `text`: the lines inside the fences of its
/// `///` and `//!` comments, less the comment marker.
fn doctest_lines(text: &str) -> impl Iterator<Item = &str> {
    let mut fenced = false;
    text.lines().filter_map(move |line| {
        let doc = line.trim_start();
        let doc = doc
            .strip_prefix("///")
            .or_else(|| doc.strip_prefix("//!"))?;
        if doc.trim_start().starts_with("```") {
            fenced = !fenced;
            return None;
        }
        fenced.then_some(doc)
    })
}

/// The names `lines` call, less each function's calls of itself: a call of
/// `f` in the body of a `fn f` (through the `}` at its indentation, or on its
/// own line for a one-line body) is no call of `f`.
fn calls_in<'t>(lines: impl Iterator<Item = &'t str>) -> Vec<&'t str> {
    let (mut within, mut names): (Option<(&str, String)>, Vec<&str>) = (None, Vec::new());
    for line in lines {
        let own = within
            .as_ref()
            .map(|(name, _)| *name)
            .or_else(|| fn_name(line));
        names.extend(calls(line).into_iter().filter(|&name| Some(name) != own));
        match &within {
            Some((_, end)) if end == line => within = None,
            None if own.is_some() && !line.ends_with(['}', ';']) => {
                let indent = &line[..line.len() - line.trim_start().len()];
                within = own.map(|name| (name, format!("{indent}}}")));
            }
            _ => {}
        }
    }
    names
}

/// The names `line` calls: each followed by `(` or `::<`, or the last segment
/// of a `::` path, so a method, a function, a path's function and a function
/// passed by its path. The name at a `fn name` site is none, nor is a path's
/// module segment, a field, a local or a parameter.
fn calls(line: &str) -> Vec<&str> {
    let (s, mut at, mut names) = (line.as_bytes(), 0, Vec::new());
    while at < s.len() {
        let len = s[at..].iter().take_while(|&&c| is_ident(c)).count();
        if len == 0 {
            at += 1;
            continue;
        }
        let (before, after) = (&line[..at], &line[at + len..]);
        let call = after.starts_with('(') || after.starts_with("::<");
        let path_end = before.ends_with("::") && !after.starts_with("::");
        if !before.ends_with("fn ") && (call || path_end) {
            names.push(&line[at..at + len]);
        }
        at += len;
    }
    names
}

/// The identifier `rest` starts with, if any.
fn ident_at(rest: &str) -> Option<&str> {
    let len = rest.bytes().take_while(|&c| is_ident(c)).count();
    (len > 0).then(|| &rest[..len])
}

fn tape_ops_are_the_models() -> Result<(), String> {
    let text = read("crates/nn/src/tape.rs");
    let op = block(&text, &[("enum Op {", "}")]);
    let variants: Vec<&str> = op
        .iter()
        .filter_map(|l| {
            l.strip_prefix("    ")
                .filter(|v| v.starts_with(|c: char| c.is_ascii_uppercase()))
        })
        .filter_map(ident_at)
        .collect();
    check(variants == TAPE_OPS, variants)
}

fn softmax_block_callers() -> Result<(), String> {
    let (nn, mut callers) = (files("crates/nn"), Vec::new());
    for (_, text) in &nn {
        let mut within = "";
        for (_, line) in code_lines(text, true).filter(|(_, l)| !l.trim_start().starts_with("//")) {
            within = fn_name(line).unwrap_or(within);
            if holds(line, "softmax_block(") && within != "softmax_block" {
                callers.push(within);
            }
        }
    }
    callers.sort_unstable();
    check(callers == ["attention", "attention_backward"], callers)
}

fn lib_rs_reexports_only() -> Result<(), String> {
    let text = read("src/lib.rs");
    let others: Vec<&str> = text.lines().filter(|l| !doc_or_reexport(l)).collect();
    check(!text.is_empty() && others.is_empty(), others)
}

/// A blank or comment line, or `pub use <crate> as <name>;`.
fn doc_or_reexport(l: &str) -> bool {
    let krate_as = l.strip_prefix("pub use ").and_then(|l| l.strip_suffix(';'));
    let reexport = krate_as.and_then(|l| l.split_once(" as "));
    let comment = l.trim().is_empty() || l.trim_start().starts_with("//");
    comment || reexport.is_some_and(|(krate, name)| snake(krate) && snake(name))
}

fn snake(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_lowercase() || b == b'_')
}

fn two_examples() -> Result<(), String> {
    let entries = fs::read_dir("examples").into_iter().flatten().flatten();
    let mut found: Vec<_> = entries
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    found.sort();
    check(found == ["quickstart.rs", "serve_demo.rs"], found)
}

fn event_log_keeps_slots() -> Result<(), String> {
    let text = read("crates/obs/src/flight.rs");
    let log = block(&text, &[("pub struct EventLog {", "}")]);
    let field = |l: &&str| {
        let named = l.trim_start().split_once(": ");
        named.is_some_and(|(name, ty)| snake(name) && holds(ty, "Event"))
    };
    let whole: Vec<&str> = log.iter().copied().filter(field).collect();
    check(!log.is_empty() && whole.is_empty(), whole)
}

fn lru_new_reserves_nothing() -> Result<(), String> {
    let text = read("crates/sim/src/oscache.rs");
    let new = block(&text, &[("impl LruSet {", "}"), ("    fn new(", "    }")]);
    let reserves = |l: &&str| holds(l, r"with_capacity\w*") || holds(l, r"reserve\w*");
    let found: Vec<&str> = new.iter().copied().filter(reserves).collect();
    check(!new.is_empty() && found.is_empty(), found)
}

fn serve_demo_builds_only_what_its_catalog_reads() -> Result<(), String> {
    let text = read("examples/serve_demo.rs");
    let build = |l: &&str| holds(l, "build_for(") || holds(l, "build_benchmark(");
    let builds: Vec<&str> = text.lines().filter(build).collect();
    check(builds.len() == 1 && holds(builds[0], "build_for("), builds)
}

fn sized_run_builds_on_sized_for() -> Result<(), String> {
    let text = read("crates/experiments/src/config.rs");
    let body = block(&text, &[("    pub(crate) fn sized_run(", "    }")]);
    check(body.iter().any(|l| holds(l, "RunConfig::sized_for(")), body)
}

fn no_dead_code_allow() -> Result<(), String> {
    const RNG_INCLUDE: (S, S) = (
        "crates/nn/src/lib.rs",
        "#[allow(dead_code)] // nn draws only floats",
    );
    let mut found = Vec::new();
    for (path, text) in production_files() {
        for (n, line) in code_lines(&text, true) {
            let attr = line.trim_start().split("//").next().unwrap_or_default();
            let allows =
                attr.starts_with('#') && (attr.contains("allow(") || attr.contains("expect("));
            let lints = holds(attr, "dead_code") || holds(attr, r"unused\w*");
            if allows && lints && (path.as_str(), line) != RNG_INCLUDE {
                found.push(format!("{path}:{n}: {line}"));
            }
        }
    }
    check(found.is_empty(), found)
}

fn every_cargo_test_names_workspace() -> Result<(), String> {
    let (mut tests, mut bare) = (0, Vec::new());
    for (path, text) in files("ci.sh .github") {
        for (n, l) in code_lines(&text, false).filter(|(_, l)| holds(l, "cargo test")) {
            tests += 1;
            if !holds(l, "--workspace") {
                bare.push(format!("{path}:{n}: {l}"));
            }
        }
    }
    check(tests > 0 && bare.is_empty(), bare)
}

fn check<T: std::fmt::Debug>(pass: bool, found: T) -> Result<(), String> {
    if pass {
        return Ok(());
    }
    Err(format!("found: {found:#?}"))
}

impl Rule {
    fn check(&self) -> Result<(), String> {
        let (names, under, skip_test_items) = match *self {
            One(names, under, _) | Never(names, under) => (names, under, false),
            NeverInCode(names, under) => (names, under, true),
            Code(run) => return run(),
        };
        let mut hits = Vec::new();
        for (path, text) in &files(under) {
            let lines = code_lines(text, skip_test_items).chain([(0, path.as_str())]);
            let named = lines.filter(|&(_, l)| names.iter().any(|name| holds(l, name)));
            hits.extend(named.map(|(n, l)| format!("{path}:{n}: {l}")));
        }
        let pass = match self {
            One(.., file) => hits.len() == 1 && hits[0].starts_with(&format!("{file}:")),
            _ => hits.is_empty(),
        };
        check(pass, hits)
    }
}

/// The files under the space-separated paths of `under`, less those named
/// with a `-` prefix, with their text, in path order: each `.rs`, `.yml`
/// and `.sh` file, so not the manifests, which still declare registry
/// crates, nor the golden files.
fn files(under: &str) -> Vec<(String, String)> {
    fn walk(path: &Path, out: &mut Vec<String>) {
        for entry in fs::read_dir(path).into_iter().flatten().flatten() {
            walk(&entry.path(), out);
        }
        let ext = path.extension().and_then(|e| e.to_str());
        if matches!(ext, Some("rs" | "yml" | "sh")) && path != Path::new("tests/structure.rs") {
            out.push(path.to_string_lossy().into());
        }
    }
    let (out, roots): (Vec<&str>, Vec<&str>) = under.split(' ').partition(|r| r.starts_with('-'));
    let mut paths = Vec::new();
    for root in roots {
        walk(Path::new(root), &mut paths);
    }
    paths.retain(|p| !out.contains(&format!("-{p}").as_str()));
    paths.sort();
    let texts: Vec<String> = paths.iter().map(|p| read(p)).collect();
    paths.into_iter().zip(texts).collect()
}

/// The files a build compiles: those of `src`, `examples` and each crate's
/// `src` (its binaries included), not the crates' tests or benches.
fn production_files() -> Vec<(String, String)> {
    let mut found = files("crates src examples");
    found.retain(|(path, _)| !path.starts_with("crates/") || path.split('/').nth(2) == Some("src"));
    found
}

fn read(path: &str) -> String {
    String::from_utf8_lossy(&fs::read(path).unwrap_or_default()).into()
}

/// The lines of `text` with their 1-based numbers, with `skip_test_items`
/// less each `#[cfg(test)]` item: its attribute's line through the first
/// line that is a `}` at the attribute's own indentation, or through its one
/// line (a variant, a field, a `use`) when the item's first line at that
/// indentation ends with `,` or `;`.
fn code_lines(text: &str, skip_test_items: bool) -> impl Iterator<Item = (usize, &str)> {
    let mut end: Option<String> = None;
    text.lines().enumerate().filter_map(move |(i, line)| {
        let indent = &line[..line.len() - line.trim_start_matches(' ').len()];
        let item = &line[indent.len()..];
        match &end {
            Some(close) if line == close => end = None,
            Some(close) if close.len() == indent.len() + 1 && !item.starts_with(['#', '/']) => {
                if item.ends_with([',', ';']) {
                    end = None;
                }
            }
            Some(_) => {}
            None if skip_test_items && item == "#[cfg(test)]" => end = Some(format!("{indent}}}")),
            None => return Some((i + 1, line)),
        }
        None
    })
}

/// The lines from the first that starts with `nest[0].0` through the next
/// that is exactly `nest[0].1`, within those the same for `nest[1]`, and so
/// on; empty if one is missing.
fn block<'t>(text: &'t str, nest: &[(&str, &str)]) -> Vec<&'t str> {
    let mut lines: Vec<&str> = text.lines().collect();
    for (open, close) in nest {
        let body = lines.iter().skip_while(|l| !l.starts_with(open));
        let end = body.clone().position(|l| l == close);
        lines = end.map_or(Vec::new(), |n| body.take(n + 1).copied().collect());
    }
    lines
}

/// The name after the first `fn ` on `line` that starts a word.
fn fn_name(line: &str) -> Option<&str> {
    line.match_indices("fn ").find_map(|(at, _)| {
        let starts_word = at == 0 || !is_ident(line.as_bytes()[at - 1]);
        starts_word.then(|| ident_at(&line[at + 3..])).flatten()
    })
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `line` holds `pattern` as a word: literal text in which `\w*` and
/// `\w+` stand for a run of identifier characters, and where a pattern that
/// begins (ends) with an identifier character or run, the match does not
/// continue a longer identifier. So `fn pump` is in `pub fn pump(` but not in
/// `fn pumped(` or `fn pump_x(`, and `rand::` is not in `operand::`.
fn holds(line: &str, pattern: &str) -> bool {
    let (s, p) = (line.as_bytes(), pattern.as_bytes());
    let word = |end: Option<&u8>, run: bool| end.is_some_and(|&c| is_ident(c)) || run;
    let starts_word = word(p.first(), p.starts_with(br"\w"));
    let ends_word = word(p.last(), p.ends_with(br"\w*") || p.ends_with(br"\w+"));
    let word_start = |at: usize| !starts_word || at == 0 || !is_ident(s[at - 1]);
    (0..=s.len()).any(|at| word_start(at) && matches_at(s, at, p, ends_word))
}

fn matches_at(s: &[u8], at: usize, p: &[u8], ends_word: bool) -> bool {
    let run = |min: usize, rest: &[u8]| {
        let len = s[at..].iter().take_while(|&&c| is_ident(c)).count();
        (min..=len)
            .rev()
            .any(|k| matches_at(s, at + k, rest, ends_word))
    };
    match p {
        [] => !ends_word || s.get(at).is_none_or(|&c| !is_ident(c)),
        [b'\\', b'w', b'*', rest @ ..] => run(0, rest),
        [b'\\', b'w', b'+', rest @ ..] => run(1, rest),
        [c, rest @ ..] => s.get(at) == Some(c) && matches_at(s, at + 1, rest, ends_word),
    }
}

#[test]
fn every_row_holds() {
    let mut failed = Vec::new();
    for (row, rule, fail) in ROWS {
        if let Err(found) = rule.check() {
            eprintln!("{found}\n!!> [{row}] {fail}\n");
            failed.push(*row);
        }
    }
    assert!(failed.is_empty(), "rows fail: {}", failed.join(", "));
}

/// The production lines a build compiles: every line of `crates/*/src`,
/// `examples` and `src` outside `#[cfg(test)]` items, wherever in a file
/// they stand. Run with `cargo test --test structure production_lines --
/// --ignored --nocapture`.
#[test]
#[ignore = "prints a count; nothing to assert"]
fn production_lines() {
    let files = production_files();
    let lines: usize = files.iter().map(|(_, t)| code_lines(t, true).count()).sum();
    println!("production lines: {lines}");
}

#[test]
fn skipper_drops_test_items_whole() {
    let kept = |text| code_lines(text, true).map(|(n, _)| n).collect::<Vec<_>>();
    // An item at deeper indentation ends at the `}` at its own...
    let deeper = "impl X {\n    #[cfg(test)]\n    fn b() {\n        f();\n    }\n    fn c() {}\n}";
    assert_eq!(kept(deeper), [1, 6, 7]);
    // ...not at a nested block's, nor at one at a lower indentation.
    let nested = "#[cfg(test)]\nmod t {\n    fn t() {\n        if x {\n        }\n    }\n}\nfn d()";
    assert_eq!(kept(nested), [8]);
    let lower = "    #[cfg(test)]\n    fn b() {\n        let s = \"\n}\";\n    }\n    fn c() {}";
    assert_eq!(kept(lower), [6]);
    // A one-line item ends with its own line.
    let variant = "enum Op {\n    #[cfg(test)]\n    /// Doc.\n    MatMul(Var, Var),\n    Add,\n}\nfn f() {\n    }";
    assert_eq!(kept(variant), [1, 5, 6, 7, 8]);
}

#[test]
fn a_function_is_no_caller_of_itself() {
    let text = "fn f(n: u8) -> u8 {\n    if n > 0 {\n        f(n - 1)\n    } else {\n        g()\n    }\n}\nfn g() -> u8 {\n    f(1)\n}\nfn h() { h() }";
    let names = calls_in(text.lines());
    assert_eq!(
        names.iter().filter(|&&n| n == "f").count(),
        1,
        "g's call of f counts, f's own does not"
    );
    assert!(names.contains(&"g") && !names.contains(&"h"), "{names:?}");
}

#[test]
fn library_is_the_defining_crate() {
    assert_eq!(
        library("crates/core/src/server.rs"),
        Some("crates/core/src/")
    );
    assert_eq!(library("crates/core/src/a/b.rs"), Some("crates/core/src/"));
    for other in [
        "crates/experiments/src/bin/all.rs",
        "crates/core/tests/t.rs",
        "tests/end_to_end.rs",
        "examples/quickstart.rs",
        "benchmark/src/main.rs",
        "src/lib.rs",
    ] {
        assert_eq!(library(other), None, "{other}");
    }
    let doc = "/// Text `f(x)`.\n/// ```\n/// let y = g(1);\n/// ```\nfn h() {}";
    assert_eq!(doctest_lines(doc).collect::<Vec<_>>(), [" let y = g(1);"]);
}

#[test]
fn calls_are_call_shaped_uses_only() {
    for line in ["x.f(", "T::f", "f::<u8>(", ".map(Self::f)"] {
        assert!(calls(line).contains(&"f"), "{line} calls f");
    }
    for line in [
        "pub fn f<T>(",
        "crate::f::G",
        "self.f",
        "let f =",
        "f: bool",
    ] {
        assert!(!calls(line).contains(&"f"), "{line} does not call f");
    }
}

#[test]
fn matcher_holds_whole_words_only() {
    assert!(holds("pub fn pump(fe: &Frontend) {", "fn pump") && holds("fn pump", "fn pump"));
    assert!(!holds("fn pumped() {", "fn pump") && !holds("fn pump_x() {", "fn pump"));
    assert!(holds("use rand::Rng;", "rand::") && !holds("let operand::X = y;", "rand::"));
    let (classifier, shared) = (r"struct \w*Classifier", r"struct Shared\w+");
    assert!(holds("struct PlanClassifier {", classifier) && !holds("struct Ok", classifier));
    assert!(holds("struct SharedCell<T> {", shared) && !holds("struct Shared<T> {", shared));
    assert!(holds("use serde_json::Value;", r"serde\w*") && !holds("x.served(&r)", ".serve("));
}
