//! Drift-injection sweep: serve scenario streams from
//! [`pythia_workloads::drift`] through a quality-tracked continuous-admission
//! server and report what the streaming detectors saw — the before/after
//! artifact CI gates on (`--drift-out`).
//!
//! Two runs share one mini detector configuration (smaller mix windows than
//! the serving default, so the sweep stays CI-sized without changing the
//! detector logic):
//!
//! * **stationary** — a fixed cyclic rotation over all four templates. The
//!   cycle length divides both mix windows, so divergence is identically
//!   zero once they fill; the artifact's `"alerts": 0` here is the
//!   no-false-positive gate.
//! * **rotation** — the same tenant's mix flips to a disjoint template set
//!   at a known shift point. The artifact records how many post-shift
//!   observations the first `drift.alert` took (bounded by the recent mix
//!   window's rollover).

use std::sync::{Arc, Mutex};

use pythia_core::server::{
    AdmissionMode, InferenceCharge, PrefetchServer, QueuePolicy, ServerConfig, ServerRequest,
};
use pythia_obs::quality::{QualityConfig, QualityTracker};
use pythia_obs::Recorder;
use pythia_sim::SimDuration;
use pythia_workloads::drift::{mix_rotation, stationary_mix};
use pythia_workloads::stats::collect_traces;
use pythia_workloads::templates::QueryInstance;

use crate::harness::Env;

/// Recent-mix window for the mini runs (serving default: 8).
const MIX_RECENT: usize = 4;
/// Baseline-mix window for the mini runs (serving default: 32).
const MIX_BASELINE: usize = 16;
/// Stationary control length: windows full (20) plus a stationary tail.
const STATIONARY_QUERIES: usize = 32;
/// Rotation stream length and shift point: enough pre-shift traffic to fill
/// recent + baseline (20), then a post-shift tail longer than the detection
/// bound (2 × `MIX_RECENT`).
const ROTATION_QUERIES: usize = 36;
const ROTATION_SHIFT_AT: usize = 24;

fn mini_quality_config() -> QualityConfig {
    QualityConfig {
        mix_recent: MIX_RECENT,
        mix_baseline: MIX_BASELINE,
        ..QualityConfig::default()
    }
}

/// What one scenario stream produced: detector state plus the trace-side
/// observation count at the first alert (1-based; `None` if none fired).
struct ScenarioRun {
    observations: u64,
    alerts: u64,
    first_alert_observation: Option<u64>,
    mix_divergence: f64,
}

/// Serve `stream` serially (concurrency 1, continuous admission, DFLT — no
/// predictor) with a quality tracker attached, so observation order equals
/// stream order and each admission interval covers exactly one query.
fn run_scenario(env: &Env, stream: &[QueryInstance]) -> ScenarioRun {
    let traces = collect_traces(&env.bench, stream);
    let requests: Vec<ServerRequest<'_>> = stream
        .iter()
        .zip(&traces)
        .enumerate()
        .map(|(i, (q, trace))| ServerRequest {
            plan: &q.plan,
            trace,
            arrival: SimDuration::from_micros(i as u64 * 1_000),
            span_name: q.template.replay_span(),
            tenant: 0,
            request: 0,
        })
        .collect();
    let cfg = ServerConfig {
        concurrency: 1,
        admission: AdmissionMode::Continuous,
        policy: QueuePolicy::Fifo,
        charge: InferenceCharge::Fixed(SimDuration::ZERO),
        prefetch_budget: None,
        tenant_quota: None,
    };
    let tracker = Arc::new(Mutex::new(QualityTracker::new(mini_quality_config())));
    let mut server =
        PrefetchServer::new(&env.bench.db, &env.run_cfg, cfg).with_quality(Arc::clone(&tracker));
    server.set_recorder(Recorder::enabled());
    let rep = server.serve(&requests);
    assert_eq!(rep.queries.len(), stream.len());

    // Observation index of the first alert, from the trace: quality.observe
    // instants land in observation order, each alert right after its own.
    let rec = server.recorder();
    let mut seen = 0u64;
    let mut first_alert = None;
    for e in rec.events() {
        match e.name {
            "quality.observe" => seen += 1,
            "drift.alert" if first_alert.is_none() => first_alert = Some(seen),
            _ => {}
        }
    }
    let q = tracker.lock().expect("tracker poisoned");
    ScenarioRun {
        observations: q.tenant_lifetime(0).outcomes,
        alerts: q.total_alerts(),
        first_alert_observation: first_alert,
        mix_divergence: q.mix_divergence(0),
    }
}

/// Run both scenarios and render the JSON artifact (`--drift-out`).
pub fn drift_snapshot(env: &Env) -> String {
    let seed = env.cfg.seed ^ 0xD21F;
    let stationary = run_scenario(env, &stationary_mix(&env.bench, STATIONARY_QUERIES, seed));
    let rotation = run_scenario(
        env,
        &mix_rotation(&env.bench, ROTATION_QUERIES, ROTATION_SHIFT_AT, seed ^ 1),
    );
    let first = rotation.first_alert_observation.unwrap_or(0);
    let after_shift = first.saturating_sub(ROTATION_SHIFT_AT as u64);
    format!(
        "{{\n  \"config\": {{\"mix_recent\": {MIX_RECENT}, \"mix_baseline\": {MIX_BASELINE}, \
         \"mix_threshold_e6\": {}}},\n  \
         \"stationary\": {{\"queries\": {STATIONARY_QUERIES}, \"observations\": {}, \
         \"alerts\": {}, \"mix_divergence_e6\": {}}},\n  \
         \"rotation\": {{\"queries\": {ROTATION_QUERIES}, \"shift_at\": {ROTATION_SHIFT_AT}, \
         \"observations\": {}, \"alerts\": {}, \"first_alert_observation\": {}, \
         \"observations_after_shift_at_first_alert\": {}, \"mix_divergence_e6\": {}}}\n}}\n",
        pythia_obs::train::to_e6(mini_quality_config().mix_threshold),
        stationary.observations,
        stationary.alerts,
        pythia_obs::train::to_e6(stationary.mix_divergence),
        rotation.observations,
        rotation.alerts,
        first,
        after_shift,
        pythia_obs::train::to_e6(rotation.mix_divergence),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExpConfig;

    fn mini_env() -> Env {
        Env::new(ExpConfig {
            scale: 0.05,
            n_queries: 12,
            test_frac: 0.25,
            ..ExpConfig::quick()
        })
    }

    #[test]
    fn stationary_stream_raises_no_alerts() {
        let env = mini_env();
        let run = run_scenario(
            &env,
            &stationary_mix(&env.bench, STATIONARY_QUERIES, env.cfg.seed ^ 0xD21F),
        );
        assert_eq!(run.observations, STATIONARY_QUERIES as u64);
        assert_eq!(run.alerts, 0, "stationary cyclic mix must stay silent");
        assert_eq!(run.mix_divergence, 0.0, "aligned windows diverge by zero");
    }

    #[test]
    fn rotation_alerts_within_the_recent_window_rollover() {
        let env = mini_env();
        let run = run_scenario(
            &env,
            &mix_rotation(
                &env.bench,
                ROTATION_QUERIES,
                ROTATION_SHIFT_AT,
                env.cfg.seed ^ 0xD21E,
            ),
        );
        assert!(run.alerts >= 1, "mix rotation must raise a drift alert");
        let first = run.first_alert_observation.expect("an alert fired");
        assert!(
            first > ROTATION_SHIFT_AT as u64,
            "no alert before the shift (first at observation {first})"
        );
        assert!(
            first <= (ROTATION_SHIFT_AT + 2 * MIX_RECENT) as u64,
            "detection bound: within 2x the recent mix window, got {first}"
        );
    }

    #[test]
    fn drift_snapshot_is_deterministic_and_gateable() {
        let env = mini_env();
        let json = drift_snapshot(&env);
        assert!(
            json.contains("\"stationary\": {\"queries\": 32, \"observations\": 32, \"alerts\": 0"),
            "{json}"
        );
        assert!(json.contains("\"first_alert_observation\""), "{json}");
        assert_eq!(json, drift_snapshot(&env), "same env, same artifact");
    }
}
