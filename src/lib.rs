//! # Pythia — a neural model for data prefetching
//!
//! A from-scratch Rust reproduction of *"Pythia: A Neural Model for Data
//! Prefetching"* (EDBT 2025): a learned predictor that, given a query's
//! execution plan, predicts the set of **non-sequential** pages the query
//! will read and asynchronously prefetches them into the buffer pool.
//!
//! The workspace layers (each re-exported here):
//!
//! * [`sim`] — deterministic virtual-time I/O simulation (disk, OS page
//!   cache with readahead, async I/O workers).
//! * [`buffer`] — the buffer manager: Clock/LRU/MRU replacement, pinning,
//!   and the AIO-style prefetch engine with a bounded readahead window.
//! * [`db`] — a mini-RDBMS: heap files, B+Tree indexes, a Volcano executor
//!   that records page-access traces, and the timed replay runtime (the
//!   Postgres-integration analogue).
//! * [`nn`] — a tape-autograd neural network library (transformer encoder,
//!   Adam, BCE-with-logits).
//! * [`core`] — Pythia itself: plan serialization, multi-label
//!   classifiers, workload matching, prefetch scheduling.
//! * [`baselines`] — DFLT / ORCL / nearest-neighbour / sequence-transformer
//!   baselines.
//! * [`workloads`] — DSB-like and IMDB/CEB-like benchmark generators.
//! * [`obs`] — zero-dependency structured tracing and metrics: counters,
//!   log₂ histograms and virtual-clock span/instant events, exported as
//!   Perfetto-loadable Chrome trace JSON (see `DESIGN.md` §Observability).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the shape is:
//!
//! ```text
//! build database  ->  run training queries (collect traces)
//!                 ->  PythiaSystem::learn_workload(...)
//!                 ->  for each new query: engage(plan)
//!                       Some(prefetch) -> replay with AIO prefetching
//!                       None           -> default execution (fallback)
//! ```
//!
//! [`PythiaSystem`] is thread-safe (`&self` everywhere): share it in an
//! `Arc`, keep calling `engage` from many threads while a background trainer
//! ([`PythiaSystem::spawn_trainer`]) hot-swaps refreshed models into its
//! fleet, and persist models with [`core::registry::save_model`] /
//! [`core::registry::load_model`] (see `examples/deployment.rs`).

pub use pythia_baselines as baselines;
pub use pythia_buffer as buffer;
pub use pythia_core as core;
pub use pythia_db as db;
pub use pythia_nn as nn;
pub use pythia_obs as obs;
pub use pythia_sim as sim;
pub use pythia_workloads as workloads;

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use pythia_core::predictor::TrainedWorkload;
use pythia_core::prefetch::cap_to_budget;
use pythia_core::registry::TenantFleet;
use pythia_core::{train_workload, PythiaConfig};
use pythia_db::catalog::{Database, ObjectId};
use pythia_db::plan::PlanNode;
use pythia_db::trace::Trace;
use pythia_sim::{PageId, SimDuration};

/// A prefetch decision for one query (Algorithm 3).
#[derive(Debug, Clone)]
pub struct Engagement {
    /// Which trained workload claimed the query.
    pub workload: String,
    /// Pages to prefetch, in file storage order, budget-capped.
    pub prefetch: Vec<PageId>,
    /// Measured model-inference latency to charge against the query.
    pub inference: SimDuration,
}

/// A request for the background trainer ([`PythiaSystem::spawn_trainer`]).
pub struct TrainRequest {
    pub name: String,
    pub plans: Vec<PlanNode>,
    pub traces: Vec<Trace>,
    pub restrict_objects: Option<Vec<ObjectId>>,
}

/// The deployed system: a versioned, hot-swappable model fleet plus the
/// engage-or-fallback decision logic of the paper's Postgres integration
/// (§4). Every method takes `&self`: readers clone an `Arc` model snapshot
/// under a brief read lock, so `engage` never blocks on training, and a
/// re-learned workload replaces its predecessor atomically (§5.1: "we can
/// periodically re-train the models with updated training data").
pub struct PythiaSystem {
    fleet: Arc<TenantFleet>,
    cfg: PythiaConfig,
    /// Prefetch budget in pages (limited prefetching; typically ~3/4 of the
    /// buffer pool).
    pub prefetch_budget: usize,
}

impl PythiaSystem {
    /// A system with no trained workloads yet.
    pub fn new(cfg: PythiaConfig, prefetch_budget: usize) -> Self {
        PythiaSystem {
            fleet: Arc::new(TenantFleet::new("default")),
            cfg,
            prefetch_budget,
        }
    }

    /// The model fleet backing this system — inspect installed models
    /// through it, or share it with a [`pythia_core::PrefetchServer`] via
    /// `with_registry` so hot-swapped models reach the serving loop too.
    pub fn fleet(&self) -> Arc<TenantFleet> {
        Arc::clone(&self.fleet)
    }

    /// Train models for a workload (Algorithm 1) and install them, replacing
    /// any earlier model of the same name. `restrict_objects` limits which
    /// objects get models (e.g. only `cast_info` for the IMDB workload), as
    /// in the paper. Returns the published fleet version.
    pub fn learn_workload(
        &self,
        db: &Database,
        name: &str,
        plans: &[PlanNode],
        traces: &[Trace],
        restrict_objects: Option<&[ObjectId]>,
    ) -> u64 {
        let tw = train_workload(db, name, plans, traces, restrict_objects, &self.cfg);
        self.fleet.publish(tw)
    }

    /// Install an already-trained workload, after checking it against the
    /// serving catalog — a model trained against a different schema is
    /// refused rather than silently mispredicting. Returns the fleet version.
    pub fn install_trained(&self, db: &Database, tw: TrainedWorkload) -> Result<u64, String> {
        tw.check_compat(db)?;
        Ok(self.fleet.publish(tw))
    }

    /// Number of installed workloads.
    pub fn workload_count(&self) -> usize {
        self.fleet.len()
    }

    /// The engage-or-fallback decision (Algorithm 3): `Some` with a prefetch
    /// plan when the query matches a trained workload, `None` when Pythia
    /// should stay out of the way and let default execution proceed. Safe to
    /// call from any thread; the model snapshot is pinned for the whole
    /// inference even if a publish lands mid-flight.
    pub fn engage(&self, db: &Database, plan: &PlanNode) -> Option<Engagement> {
        let vw = self.fleet.match_plan(db, plan)?;
        let (mut lists, inference) = pythia_core::prefetch::engage(db, &vw.workload, &[plan]);
        let list = lists.pop().expect("one prefetch list per plan");
        Some(Engagement {
            workload: vw.workload.name.clone(),
            prefetch: cap_to_budget(list, self.prefetch_budget),
            inference,
        })
    }

    /// Spawn the background trainer over a (static, read-only) database.
    /// Send [`TrainRequest`]s through the returned channel; each finished
    /// workload is installed atomically. Dropping the sender shuts the
    /// trainer down; `join` the handle (it returns the number of workloads
    /// installed) to wait for in-flight training.
    pub fn spawn_trainer(
        self: &Arc<Self>,
        db: Arc<Database>,
    ) -> (Sender<TrainRequest>, JoinHandle<usize>) {
        let (tx, rx) = channel::<TrainRequest>();
        let system = Arc::clone(self);
        let handle = std::thread::spawn(move || {
            let mut installed = 0;
            while let Ok(req) = rx.recv() {
                system.learn_workload(
                    &db,
                    &req.name,
                    &req.plans,
                    &req.traces,
                    req.restrict_objects.as_deref(),
                );
                installed += 1;
            }
            installed
        });
        (tx, handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_core::prefetch::prefetch_list;
    use pythia_core::registry::{load_model, save_model};
    use pythia_db::catalog::TableId;
    use pythia_db::exec::execute;
    use pythia_db::expr::Pred;
    use pythia_db::types::Schema;

    fn tiny_db() -> (Arc<Database>, TableId, TableId, ObjectId) {
        let mut db = Database::new();
        let fact = db.create_table("fact", Schema::ints(&["id", "day", "k"]));
        let dim = db.create_table("dim", Schema::ints(&["d_id", "v"]));
        for i in 0..800i64 {
            db.insert(fact, Database::row(&[i, i % 100, i % 40]));
            db.insert(dim, Database::row(&[i % 40, i % 7]));
        }
        let idx = db.create_index("dim_pk", dim, 0);
        (Arc::new(db), fact, dim, idx)
    }

    fn plan(fact: TableId, dim: TableId, idx: ObjectId, lo: i64) -> PlanNode {
        PlanNode::IndexNLJoin {
            outer: Box::new(PlanNode::SeqScan {
                table: fact,
                pred: Some(Pred::Between {
                    col: 1,
                    lo,
                    hi: lo + 10,
                }),
            }),
            outer_key: 2,
            inner: dim,
            inner_index: idx,
            inner_pred: None,
        }
    }

    fn request(db: &Database, fact: TableId, dim: TableId, idx: ObjectId) -> TrainRequest {
        let plans: Vec<PlanNode> = (0..8).map(|i| plan(fact, dim, idx, i * 9)).collect();
        let traces = plans.iter().map(|p| execute(p, db).1).collect();
        TrainRequest {
            name: "w".into(),
            plans,
            traces,
            restrict_objects: None,
        }
    }

    fn cfg() -> PythiaConfig {
        PythiaConfig {
            epochs: 3,
            ..PythiaConfig::fast()
        }
    }

    #[test]
    fn background_trainer_installs_and_serves() {
        let (db, fact, dim, idx) = tiny_db();
        let system = Arc::new(PythiaSystem::new(cfg(), 256));
        assert_eq!(system.workload_count(), 0);
        assert!(
            system.engage(&db, &plan(fact, dim, idx, 3)).is_none(),
            "nothing installed yet"
        );

        let (tx, handle) = system.spawn_trainer(Arc::clone(&db));
        tx.send(request(&db, fact, dim, idx)).unwrap();
        drop(tx);
        assert_eq!(handle.join().unwrap(), 1);

        assert_eq!(system.workload_count(), 1);
        assert_eq!(
            system.fleet().current("w").expect("published").version,
            1,
            "first publish is version 1"
        );
        let eng = system
            .engage(&db, &plan(fact, dim, idx, 3))
            .expect("now engages");
        assert_eq!(eng.workload, "w");
    }

    #[test]
    fn concurrent_readers_during_training() {
        let (db, fact, dim, idx) = tiny_db();
        let system = Arc::new(PythiaSystem::new(cfg(), 256));
        let first = request(&db, fact, dim, idx);
        system.learn_workload(&db, &first.name, &first.plans, &first.traces, None);

        // Readers hammer engage() while the trainer installs a second
        // workload; nothing deadlocks and reads always succeed.
        let (tx, handle) = system.spawn_trainer(Arc::clone(&db));
        let mut req = request(&db, fact, dim, idx);
        req.name = "w2".into();
        tx.send(req).unwrap();
        drop(tx);

        let readers: Vec<_> = (0..3)
            .map(|r| {
                let (s, db) = (Arc::clone(&system), Arc::clone(&db));
                std::thread::spawn(move || {
                    (0..20)
                        .filter(|i| {
                            let p = plan(fact, dim, idx, (r * 20 + i) % 80);
                            s.engage(&db, &p).is_some()
                        })
                        .count()
                })
            })
            .collect();
        for r in readers {
            assert_eq!(r.join().unwrap(), 20, "every engage succeeds");
        }
        handle.join().unwrap();
        assert_eq!(system.workload_count(), 2);
    }

    #[test]
    fn install_trained_from_disk() {
        let (db, fact, dim, idx) = tiny_db();
        let req = request(&db, fact, dim, idx);
        let tw = train_workload(&db, "disk", &req.plans, &req.traces, None, &cfg());
        let path = std::env::temp_dir().join("pythia_system_model.json");
        save_model(&path, 1, &tw).unwrap();

        let system = PythiaSystem::new(cfg(), 256);
        let (_, loaded) = load_model(&path, &db).expect("same catalog");
        let v = system.install_trained(&db, loaded).expect("same catalog");
        assert_eq!(v, 1);
        assert!(system.engage(&db, &plan(fact, dim, idx, 5)).is_some());

        // A model trained against a different catalog is refused loudly,
        // from disk and from memory alike.
        let mut other = Database::new();
        other.create_table("fact", Schema::ints(&["id", "day", "k"]));
        assert!(load_model(&path, &other).is_err());
        let _ = std::fs::remove_file(&path);
        assert!(
            PythiaSystem::new(cfg(), 256)
                .install_trained(&other, tw)
                .is_err(),
            "mismatched catalog must be refused"
        );
    }

    /// Regression: a second `learn_workload` under one name used to append a
    /// second entry the matcher never picked, so the stale model kept
    /// serving.
    #[test]
    fn relearning_a_workload_replaces_the_stale_model() {
        let (db, fact, dim, idx) = tiny_db();
        let req = request(&db, fact, dim, idx);
        // Threshold below every sigmoid score: a model predicts all pages of
        // the object it covers, so which weights served is unmistakable.
        let all_pages = PythiaConfig {
            threshold: -1.0,
            ..cfg()
        };
        let system = PythiaSystem::new(all_pages, 4096);
        let heap = db.table_info(dim).object;
        system.learn_workload(&db, "w", &req.plans, &req.traces, Some(&[heap]));
        system.learn_workload(&db, "w", &req.plans, &req.traces, Some(&[idx]));

        assert_eq!(system.workload_count(), 1);
        let current = system.fleet().current("w").expect("installed");
        assert_eq!(current.version, 2);

        let probe = plan(fact, dim, idx, 5);
        let eng = system.engage(&db, &probe).expect("engages");
        let idx_file = db.object_file(idx);
        assert_eq!(eng.prefetch.len(), db.object_pages(idx) as usize);
        assert!(eng.prefetch.iter().all(|p| p.file == idx_file));
        assert_eq!(
            eng.prefetch,
            prefetch_list(&db, &current.workload.infer(&db, &probe))
        );
    }
}
