//! The two in-process workloads: `PrefetchServer::serve` over held-out
//! queries, a DFLT arm (no predictor) and a Pythia arm on identical
//! arrivals, timed on the wall clock and read on the virtual one.

use std::ops::Range;
use std::time::Instant;

use pythia::buffer::BufferStats;
use pythia::core::{
    AdmissionMode, InferenceCharge, PrefetchServer, QueryOutcome, QueuePolicy, ServeReport,
    ServerConfig, ServerRequest,
};
use pythia::obs::Recorder;
use pythia::sim::SimDuration;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fixture::{Fixture, Query};
use crate::stats;

/// Offered load on the Poisson stream, as a share of the DFLT server's
/// closed-batch (saturated) virtual throughput measured in the same run.
pub const RHO: f64 = 0.7;

/// Virtual inference cost charged per query, so that virtual time does not
/// depend on the host.
pub const INFER_CHARGE_US: u64 = 150;

/// What distinguishes the two `serve_*` workloads.
#[derive(Debug, Clone)]
pub struct Shape {
    pub concurrency: usize,
    /// The held-out queries of each pass; passes cycle through the sets.
    pub sets: Vec<Range<usize>>,
    /// Size of the closed batch (a prefix of set 0) that calibrates load.
    pub closed_batch: usize,
}

impl Shape {
    /// `serve_c4_long`: one long session over the first `stream` held-out
    /// queries.
    pub fn c4_long(stream: usize, closed_batch: usize) -> Shape {
        Shape {
            concurrency: 4,
            sets: std::iter::once(0..stream).collect(),
            closed_batch,
        }
    }

    /// `serve_c1_short`: a fresh server per `set`-query stream.
    pub fn c1_short(heldout: usize, set: usize, closed_batch: usize) -> Shape {
        Shape {
            concurrency: 1,
            sets: (0..heldout / set).map(|k| k * set..(k + 1) * set).collect(),
            closed_batch,
        }
    }
}

/// One `serve` call over one arm.
pub struct Arm {
    pub report: ServeReport,
    pub wall_s: f64,
    /// Wall time from each admission to the next (the last one to the end
    /// of the call): what the serving loop spent per admitted query.
    pub admit_gaps_ms: Vec<f64>,
    pub recorder: Recorder,
}

/// Serve `queries` arriving at `arrivals_us` on a fresh (cold) server.
pub fn serve_arm(
    fx: &Fixture,
    queries: &[Query],
    arrivals_us: &[u64],
    concurrency: usize,
    with_model: bool,
    recorder: Recorder,
) -> Arm {
    let requests: Vec<ServerRequest<'_>> = queries
        .iter()
        .zip(arrivals_us)
        .map(|(q, &at)| ServerRequest::new(&q.plan, &q.trace, SimDuration::from_micros(at)))
        .collect();
    let cfg = ServerConfig {
        concurrency,
        admission: AdmissionMode::Continuous,
        policy: QueuePolicy::Fifo,
        charge: InferenceCharge::Fixed(SimDuration::from_micros(INFER_CHARGE_US)),
        prefetch_budget: None,
        tenant_quota: None,
    };
    let mut stamps: Vec<Instant> = Vec::with_capacity(requests.len());
    let mut server = PrefetchServer::new(&fx.bench.db, &fx.run_cfg, cfg);
    if with_model {
        server = server.with_predictor(&fx.tw);
    }
    server.set_recorder(recorder);
    server.set_admission_hook(|_| stamps.push(Instant::now()));
    let t0 = Instant::now();
    let report = server.serve(&requests);
    let end = Instant::now();
    let recorder = server.take_recorder();
    drop(server);
    let admit_gaps_ms = stamps
        .iter()
        .zip(stamps.iter().skip(1).chain(std::iter::once(&end)))
        .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
        .collect();
    Arm {
        report,
        wall_s: end.duration_since(t0).as_secs_f64(),
        admit_gaps_ms,
        recorder,
    }
}

fn outcome_key(q: &QueryOutcome) -> [u64; 8] {
    [
        q.arrival.as_micros(),
        q.admitted.as_micros(),
        q.start.as_micros(),
        q.end.as_micros(),
        q.wave as u64,
        q.inference.as_micros(),
        u64::from(q.tenant),
        q.request,
    ]
}

/// The virtual-time content of a report: what must repeat bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualOutcome {
    pub outcomes: Vec<[u64; 8]>,
    pub stats: BufferStats,
}

impl VirtualOutcome {
    pub fn of(report: &ServeReport) -> VirtualOutcome {
        VirtualOutcome {
            outcomes: report.queries.iter().map(outcome_key).collect(),
            stats: report.stats,
        }
    }
}

/// Outcomes that are missing or ill-ordered: every request must come back,
/// in input order, having arrived when asked and then been admitted,
/// started and finished in that order.
pub fn failed_outcomes(report: &ServeReport, arrivals_us: &[u64]) -> usize {
    let missing = arrivals_us.len().saturating_sub(report.queries.len());
    let base = report
        .queries
        .iter()
        .zip(arrivals_us)
        .map(|(q, &a)| q.arrival.as_micros().wrapping_sub(a))
        .next()
        .unwrap_or(0);
    let ill = report
        .queries
        .iter()
        .zip(arrivals_us)
        .enumerate()
        .filter(|(i, (q, &a))| {
            q.arrival.as_micros() != base + a
                || q.admitted < q.arrival
                || q.start < q.admitted
                || q.end < q.start
                || q.request != *i as u64 + 1
        })
        .count();
    missing + ill
}

fn latencies_ms(report: &ServeReport) -> Vec<f64> {
    report
        .queries
        .iter()
        .map(|q| q.latency().as_micros() as f64 / 1e3)
        .collect()
}

/// Everything one `serve_*` run measured.
pub struct ServeResult {
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Self-check failures (empty when the run is correct).
    pub problems: Vec<String>,
    // Wall clock, one sample per pass unless noted.
    pub pythia_qps: Vec<f64>,
    pub dflt_qps: Vec<f64>,
    /// The Pythia arm's admission gaps, all passes pooled.
    pub admit_gaps_ms: Vec<f64>,
    // Virtual clock, from the first pass over every set.
    pub virt_latency_speedup: f64,
    pub virt_makespan_speedup: f64,
    /// Mean and p95 of the Pythia arm's virtual latencies (arrival →
    /// completion).
    pub virt_mean_ms: f64,
    pub virt_p95_ms: f64,
    /// Queries behind the virtual statistics (every set once).
    pub virt_queries: usize,
    /// Set 0 in full, for the layer table: its arrivals, the Pythia-arm
    /// report, and the wall time of the DFLT arm.
    pub set0_arrivals_us: Vec<u64>,
    pub pythia_report: ServeReport,
    pub dflt_wall_s: f64,
}

/// Run one `serve_*` workload: calibrate on a closed batch, then cycle
/// passes over the sets for at least `seconds` (and at least once over every
/// set, and `min_passes` times).
pub fn run(fx: &Fixture, shape: &Shape, seed: u64, seconds: f64, min_passes: usize) -> ServeResult {
    let c = shape.concurrency;
    let mut problems = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Closed batch: everything arrives at zero. Its DFLT throughput is the
    // saturation rate the Poisson stream is calibrated against.
    let batch = &fx.heldout[shape.sets[0].start..shape.sets[0].start + shape.closed_batch];
    let zeros = vec![0u64; batch.len()];
    let closed_dflt = serve_arm(fx, batch, &zeros, c, false, Recorder::disabled());
    let closed_pythia = serve_arm(fx, batch, &zeros, c, true, Recorder::disabled());
    for arm in [&closed_dflt, &closed_pythia] {
        attempted += batch.len() as u64;
        failed += failed_outcomes(&arm.report, &zeros) as u64;
    }
    let closed_batch_dflt_qps = closed_dflt.report.throughput_qps();
    let virt_makespan_speedup = closed_dflt.report.makespan().as_micros() as f64
        / closed_pythia.report.makespan().as_micros() as f64;
    let gap_us = stats::mean_gap_us(RHO, closed_batch_dflt_qps);

    let mut arrivals: Vec<Vec<u64>> = shape
        .sets
        .iter()
        .enumerate()
        .map(|(k, set)| {
            let mut rng = StdRng::seed_from_u64(seed ^ ((k as u64 + 1) << 32));
            stats::poisson_arrivals_us(set.len(), gap_us, &mut rng)
        })
        .collect();

    let mut first: Vec<Option<(VirtualOutcome, VirtualOutcome)>> = vec![None; shape.sets.len()];
    let mut lat_dflt: Vec<f64> = Vec::new();
    let mut lat_pythia: Vec<f64> = Vec::new();
    // Set 0's first pass: the DFLT arm's wall time and the Pythia arm's report.
    let mut kept: Option<(f64, ServeReport)> = None;
    let (mut pythia_qps, mut dflt_qps) = (Vec::new(), Vec::new());
    let mut admit_gaps_ms = Vec::new();

    let started = Instant::now();
    let mut pass = 0usize;
    while pass < min_passes.max(shape.sets.len()) || started.elapsed().as_secs_f64() < seconds {
        let k = pass % shape.sets.len();
        let queries = &fx.heldout[shape.sets[k].clone()];
        // Alternate which arm goes first so neither always runs on the
        // caches the other left warm.
        let run_arm = |with_model| {
            serve_arm(
                fx,
                queries,
                &arrivals[k],
                c,
                with_model,
                Recorder::disabled(),
            )
        };
        let (dflt, pythia) = if pass.is_multiple_of(2) {
            let d = run_arm(false);
            (d, run_arm(true))
        } else {
            let p = run_arm(true);
            (run_arm(false), p)
        };
        for arm in [&dflt, &pythia] {
            attempted += queries.len() as u64;
            failed += failed_outcomes(&arm.report, &arrivals[k]) as u64;
        }
        let virt = (
            VirtualOutcome::of(&dflt.report),
            VirtualOutcome::of(&pythia.report),
        );
        match &first[k] {
            None => {
                lat_dflt.extend(latencies_ms(&dflt.report));
                lat_pythia.extend(latencies_ms(&pythia.report));
                first[k] = Some(virt);
            }
            Some(seen) => {
                if seen.0 != virt.0 {
                    problems.push(format!("pass {pass}: DFLT-arm outcomes or counts differ from the first pass over set {k}"));
                }
                if seen.1 != virt.1 {
                    problems.push(format!("pass {pass}: Pythia-arm outcomes or counts differ from the first pass over set {k}"));
                }
            }
        }
        pythia_qps.push(queries.len() as f64 / pythia.wall_s);
        dflt_qps.push(queries.len() as f64 / dflt.wall_s);
        if pythia.admit_gaps_ms.len() != queries.len() {
            problems.push(format!(
                "pass {pass}: {} admissions for {} queries",
                pythia.admit_gaps_ms.len(),
                queries.len()
            ));
        }
        admit_gaps_ms.extend_from_slice(&pythia.admit_gaps_ms);
        if k == 0 && kept.is_none() {
            kept = Some((dflt.wall_s, pythia.report));
        }
        pass += 1;
    }

    let (dflt_wall_s, pythia_report) = kept.expect("set 0 was served");
    ServeResult {
        passes: pass,
        attempted,
        failed,
        problems,
        pythia_qps,
        dflt_qps,
        admit_gaps_ms,
        virt_latency_speedup: stats::mean(&lat_dflt) / stats::mean(&lat_pythia),
        virt_makespan_speedup,
        virt_queries: lat_pythia.len(),
        virt_mean_ms: stats::mean(&lat_pythia),
        virt_p95_ms: stats::quantile_sorted(&stats::sorted(&lat_pythia), 0.95),
        set0_arrivals_us: arrivals.swap_remove(0),
        pythia_report,
        dflt_wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_cut_the_held_out_queries_as_documented() {
        let c4 = Shape::c4_long(400, 100);
        assert_eq!(
            (c4.concurrency, c4.sets.clone(), c4.closed_batch),
            (4, std::iter::once(0..400).collect::<Vec<_>>(), 100)
        );
        let c1 = Shape::c1_short(850, 100, 100);
        assert_eq!(c1.concurrency, 1);
        assert_eq!(c1.sets.len(), 8, "a ragged tail is left out");
        assert_eq!(c1.sets[7], 700..800);
    }
}
