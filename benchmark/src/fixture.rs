//! The in-process fixture both `serve_*` workloads and the layer table run
//! on: a DSB-like database, a Pythia model trained on Template-18 queries,
//! and held-out queries drawn from the run's seed.

use std::time::Instant;

use pythia::core::predictor::{ground_truth, TrainedWorkload};
use pythia::core::{f1_score, train_workload, PythiaConfig};
use pythia::db::plan::PlanNode;
use pythia::db::runtime::RunConfig;
use pythia::db::trace::Trace;
use pythia::workloads::templates::{sample_workload, Template};
use pythia::workloads::{build_benchmark, BenchmarkDb, GeneratorConfig};

use crate::procfs::{self, CpuTicks};

/// Everything that sizes a run. Two instances exist: [`Sizes::standard`]
/// (what `BENCHMARK.json` measures) and [`Sizes::quick`] (the smoke).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub quick: bool,
    /// `GeneratorConfig::scale` of the fixture database.
    pub scale: f64,
    pub train_queries: usize,
    pub epochs: usize,
    /// Held-out queries, cut into [`Self::c1_set`]-sized sets for
    /// `serve_c1_short`.
    pub heldout: usize,
    /// Leading held-out queries that make up the `serve_c4_long` stream.
    pub c4_stream: usize,
    /// Queries in the all-arrive-at-zero closed batch that calibrates load.
    pub closed_batch: usize,
    /// Queries per `serve_c1_short` pass.
    pub c1_set: usize,
    /// `GET /query` requests per pass of each socket workload's child.
    pub socket_trained_requests: usize,
    pub socket_dflt_requests: usize,
    /// Requests of the reference pass against the opposite kind of child.
    pub socket_reference_requests: usize,
    /// Fewest passes a workload measures, whatever `--seconds` says.
    pub min_passes: usize,
    /// Held-out queries the traced staged pipeline replays.
    pub traced_queries: usize,
    /// Seconds of passes the traced run serves in the workload's shape, and
    /// at C = 1 for the reconciliation when that is another shape.
    pub traced_serve_seconds: f64,
    pub traced_c1_seconds: f64,
    /// Round trips per route through the in-process front-end.
    pub frontend_round_trips: usize,
}

impl Sizes {
    /// Sized so that one run — set-up, then `run_seconds` of passes — ends
    /// within about 25 s on two cores: the contract allows 3420 s for 92 of
    /// them. The fixture is the issue's (scale 0.3, 120 queries × 20
    /// epochs, 52 s of training) shrunk to fit; the workload list is not.
    pub fn standard() -> Sizes {
        Sizes {
            quick: false,
            scale: 0.1,
            train_queries: 48,
            epochs: 8,
            heldout: 1600,
            c4_stream: 800,
            closed_batch: 100,
            c1_set: 100,
            socket_trained_requests: 400,
            socket_dflt_requests: 2000,
            socket_reference_requests: 200,
            min_passes: 3,
            traced_queries: 200,
            traced_serve_seconds: 3.0,
            traced_c1_seconds: 1.5,
            frontend_round_trips: 300,
        }
    }

    /// The ≈ 20 s smoke over all four workloads with every check on.
    pub fn quick() -> Sizes {
        Sizes {
            quick: true,
            scale: 0.05,
            train_queries: 32,
            epochs: 8,
            heldout: 120,
            c4_stream: 120,
            closed_batch: 40,
            c1_set: 40,
            socket_trained_requests: 200,
            socket_dflt_requests: 400,
            socket_reference_requests: 100,
            min_passes: 2,
            traced_queries: 40,
            traced_serve_seconds: 0.5,
            traced_c1_seconds: 0.5,
            frontend_round_trips: 100,
        }
    }
}

impl Sizes {
    /// Requests per pass of the child a socket workload runs.
    pub fn socket_requests(&self, flavor: crate::socket::Flavor) -> usize {
        if flavor.train {
            self.socket_trained_requests
        } else {
            self.socket_dflt_requests
        }
    }
}

/// Seeds of the parts of the fixture that do **not** depend on `--seed`:
/// the database and the training set, so every seed serves the same model.
const DB_SEED: u64 = 0xDB;
const TRAIN_SEED: u64 = 42;

/// The `ExpConfig::quick()` model of `pythia-experiments` (that crate is
/// not a dependency of the benchmark): the fast architecture with its
/// training schedule, epochs set by the fixture.
pub fn model_config(epochs: usize) -> PythiaConfig {
    PythiaConfig {
        epochs,
        batch_size: 32,
        lr: 3e-3,
        pos_weight: 2.0,
        ..PythiaConfig::fast()
    }
}

/// `ExpConfig::sized_run` without its small-database floors: pool 12 % and
/// OS cache 35 % of the pages, so the working set exceeds both caches at
/// every fixture scale.
pub fn sized_run(total_pages: u64) -> RunConfig {
    let base = RunConfig::default();
    let pool = ((total_pages as f64 * 0.12) as usize).max(32);
    RunConfig {
        pool_frames: pool,
        os_cache_pages: ((total_pages as f64 * 0.35) as usize).max(64),
        readahead_window: base.readahead_window.min(pool / 2).max(16),
        ..base
    }
}

/// One query with its recorded trace.
pub struct Query {
    pub plan: PlanNode,
    pub trace: Trace,
}

/// Wall time of each set-up step (the `serve_*` workloads' `setup_s` is
/// their sum) and the CPU time training took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_s: f64,
    /// Sampling and executing the training and the held-out queries.
    pub queries_s: f64,
    /// `exec::execute` alone, per query, within `queries_s`.
    pub execute_ms_per_query: f64,
    pub train_s: f64,
    pub train_cpu: CpuTicks,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.queries_s + self.train_s
    }
}

pub struct Fixture {
    pub bench: BenchmarkDb,
    pub run_cfg: RunConfig,
    pub train: Vec<Query>,
    pub heldout: Vec<Query>,
    pub tw: TrainedWorkload,
    pub times: SetupTimes,
}

fn sample_and_execute(bench: &BenchmarkDb, n: usize, seed: u64, execute_s: &mut f64) -> Vec<Query> {
    sample_workload(bench, Template::T18, n, seed)
        .into_iter()
        .map(|q| {
            let t0 = Instant::now();
            let trace = pythia::db::exec::execute(&q.plan, &bench.db).1;
            *execute_s += t0.elapsed().as_secs_f64();
            Query {
                plan: q.plan,
                trace,
            }
        })
        .collect()
}

/// Train the fixture's model on `train`.
pub fn train(bench: &BenchmarkDb, train: &[Query], sizes: &Sizes) -> TrainedWorkload {
    let plans: Vec<PlanNode> = train.iter().map(|q| q.plan.clone()).collect();
    let traces: Vec<Trace> = train.iter().map(|q| q.trace.clone()).collect();
    train_workload(
        &bench.db,
        "bench-t18",
        &plans,
        &traces,
        None,
        &model_config(sizes.epochs),
    )
}

impl Fixture {
    /// Build the database, sample and execute the queries, train the model.
    /// Only the held-out queries depend on `seed`.
    pub fn build(sizes: &Sizes, seed: u64) -> Fixture {
        let t0 = Instant::now();
        let bench = build_benchmark(&GeneratorConfig {
            scale: sizes.scale,
            seed: DB_SEED,
        });
        let build_s = t0.elapsed().as_secs_f64();
        let total_pages: u64 = bench.db.file_lengths().iter().map(|&l| u64::from(l)).sum();

        let t0 = Instant::now();
        let mut execute_s = 0.0;
        let train_set = sample_and_execute(&bench, sizes.train_queries, TRAIN_SEED, &mut execute_s);
        // Offset so that no `--seed` reproduces the training sample.
        let heldout = sample_and_execute(
            &bench,
            sizes.heldout,
            seed.wrapping_add(0x5EED_0000_0000),
            &mut execute_s,
        );
        let queries_s = t0.elapsed().as_secs_f64();

        let cpu0 = procfs::self_cpu();
        let t0 = Instant::now();
        let tw = train(&bench, &train_set, sizes);
        let train_s = t0.elapsed().as_secs_f64();
        let train_cpu = procfs::self_cpu().since(cpu0);

        Fixture {
            run_cfg: sized_run(total_pages),
            times: SetupTimes {
                build_s,
                queries_s,
                execute_ms_per_query: execute_s * 1e3
                    / (sizes.train_queries + sizes.heldout) as f64,
                train_s,
                train_cpu,
            },
            bench,
            train: train_set,
            heldout,
            tw,
        }
    }

    /// Mean F1 of the model's predictions against the ground truth of the
    /// first `n` held-out queries (the paper's §5.1 quality metric).
    pub fn heldout_f1(&self, n: usize) -> f64 {
        let modeled = self.tw.modeled_objects();
        let queries = &self.heldout[..n.min(self.heldout.len())];
        let total: f64 = queries
            .iter()
            .map(|q| {
                let predicted = self.tw.infer(&self.bench.db, &q.plan).as_set();
                f1_score(&predicted, &ground_truth(&q.trace, &modeled)).f1
            })
            .sum();
        total / queries.len() as f64
    }
}
