//! The model store: versioned and multi-tenant. N independent databases are
//! served from one process group, each with its own hot-swappable
//! [`TrainedWorkload`] fleet.
//!
//! "We first ensure Q belongs to a workload that Pythia has trained a model
//! for. If not, Pythia does not engage and the query is executed as it would
//! in the absence of Pythia." (Algorithm 3 lines 3–4.)
//! [`TenantFleet::match_plan`] implements that check structurally: the set of
//! database objects a plan scans is compared (Jaccard) against each installed
//! workload's object signature, and below [`MATCH_THRESHOLD`] it returns
//! `None`. The serving loop does not call it: a server built
//! [`with_registry`](crate::server::PrefetchServer::with_registry) infers
//! every query with the model [`TenantFleet::any`] returns, whatever its
//! template. Whether and where to apply the match is ROADMAP item 5(c).
//!
//! * **Tenancy** — each tenant owns one [`TenantFleet`], an isolated set of
//!   trained workloads over that tenant's catalog. Tenants never see each
//!   other's models.
//! * **Hot swap** — [`TenantFleet::publish`] installs retrained weights by
//!   an atomic `Arc` swap under a briefly-held write lock. Serving code
//!   clones the `Arc` once per admission batch ([`crate::server`]), so a
//!   prediction batch always runs against one coherent model version and a
//!   swap lands *between* admissions, never inside one. Versions are
//!   monotonically increasing per fleet.
//! * **Checked persistence** — models go to disk as [`crate::model_file`]s.
//!   [`load_model`] refuses a file whose body does not match its checksum,
//!   and then a model that [`TrainedWorkload::check_compat`] refuses for the
//!   serving catalog (a modeled object missing, resized or renamed), so a
//!   model trained against a different database fails loudly instead of
//!   silently mispredicting.
//! * **One way in** — every [`crate::server::PrefetchServer`] serves from a
//!   fleet: an empty one is the DFLT server, and
//!   [`with_predictor`](crate::server::PrefetchServer::with_predictor)
//!   publishes a clone of its model, which shares the weights.
//!
//! Every serving batch reads the fleet's lock, so a poisoned lock is taken
//! back, not passed on as a panic: a publish holds the write lock for one
//! map insert, and the map is whole whether or not that insert finished.
//!
//! Cross-*process* sharding (splitting one tenant's objects across machines)
//! is future work; see ROADMAP.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use pythia_db::catalog::Database;
use pythia_db::plan::PlanNode;

use crate::model_file;
use crate::predictor::TrainedWorkload;

/// Minimum object-set Jaccard similarity to claim a query for a workload.
pub const MATCH_THRESHOLD: f64 = 0.5;

/// Write `tw` at `version` to `path` as a [`model_file`].
pub fn save_model(path: impl AsRef<Path>, version: u64, tw: &TrainedWorkload) -> io::Result<()> {
    std::fs::write(path, model_file::write(version, tw))
}

/// Load a model written by [`save_model`], refusing anything incompatible
/// with the serving catalog `db` ([`model_file::read`]). Returns
/// `(version, workload)`.
pub fn load_model(path: impl AsRef<Path>, db: &Database) -> io::Result<(u64, TrainedWorkload)> {
    model_file::read(&std::fs::read_to_string(path)?, db)
}

/// One installed model: immutable weights plus the fleet version they were
/// published at. Serving code holds an `Arc<VersionedWorkload>` for the span
/// of one admission batch.
pub struct VersionedWorkload {
    /// Monotonically increasing per fleet; bumped by every publish.
    pub version: u64,
    pub workload: TrainedWorkload,
}

/// One tenant's hot-swappable workload fleet, keyed by workload name.
pub struct TenantFleet {
    name: String,
    next_version: AtomicU64,
    slots: RwLock<BTreeMap<String, Arc<VersionedWorkload>>>,
}

impl TenantFleet {
    /// An empty fleet for `name`. Versions start at 1.
    pub fn new(name: &str) -> TenantFleet {
        TenantFleet {
            name: name.to_owned(),
            next_version: AtomicU64::new(1),
            slots: RwLock::new(BTreeMap::new()),
        }
    }

    /// Tenant name this fleet serves.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Install (or replace) the model for `tw.name`, returning the version
    /// it was published at. The write lock is held only for the map insert —
    /// an atomic `Arc` swap — so in-flight readers are never blocked on
    /// anything slower than a pointer store.
    pub fn publish(&self, tw: TrainedWorkload) -> u64 {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(VersionedWorkload {
            version,
            workload: tw,
        });
        self.slots
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(slot.workload.name.clone(), slot);
        version
    }

    /// Load a persisted model (catalog-checked against `db`) and publish it.
    /// The on-disk version is informational; the fleet assigns its own.
    pub fn publish_from_file(&self, path: impl AsRef<Path>, db: &Database) -> io::Result<u64> {
        let (_, tw) = load_model(path, db)?;
        Ok(self.publish(tw))
    }

    /// The installed models, read (a poisoned lock is taken back).
    fn slots(&self) -> RwLockReadGuard<'_, BTreeMap<String, Arc<VersionedWorkload>>> {
        self.slots.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The currently installed model for a workload name, if any.
    pub fn current(&self, workload: &str) -> Option<Arc<VersionedWorkload>> {
        self.slots().get(workload).cloned()
    }

    /// The single installed model of a one-workload fleet (first by name
    /// otherwise) — the common serving shape.
    pub fn any(&self) -> Option<Arc<VersionedWorkload>> {
        self.slots().values().next().cloned()
    }

    /// Number of installed workloads.
    pub fn len(&self) -> usize {
        self.slots().len()
    }

    /// Whether no workloads are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Find the installed workload a query belongs to, if any: highest
    /// object-set Jaccard above [`MATCH_THRESHOLD`] (Algorithm 3 lines 3–4).
    pub fn match_plan(&self, db: &Database, plan: &PlanNode) -> Option<Arc<VersionedWorkload>> {
        let objs: std::collections::BTreeSet<_> = plan.objects(db).into_iter().collect();
        if objs.is_empty() {
            return None;
        }
        let slots = self.slots();
        let mut best: Option<(f64, &Arc<VersionedWorkload>)> = None;
        for slot in slots.values() {
            let tw = &slot.workload;
            let inter = objs.intersection(&tw.object_union).count();
            let union = objs.union(&tw.object_union).count();
            let j = if union == 0 {
                0.0
            } else {
                inter as f64 / union as f64
            };
            if j >= MATCH_THRESHOLD && best.map(|(bj, _)| j > bj).unwrap_or(true) {
                best = Some((j, slot));
            }
        }
        best.map(|(_, slot)| Arc::clone(slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PythiaConfig;
    use crate::predictor::train_workload;
    use crate::prefetch::prefetch_list;
    use pythia_db::exec::execute;
    use pythia_db::expr::Pred;
    use pythia_db::types::Schema;

    /// fact ⋈ dim through `dim_pk`, plus a table no plan below touches.
    fn star_db() -> (Database, Vec<PlanNode>) {
        let mut db = Database::new();
        let fact = db.create_table("fact", Schema::ints(&["id", "date", "dkey"]));
        let dim = db.create_table("dim", Schema::ints(&["d_id", "attr"]));
        for i in 0..600i64 {
            db.insert(fact, &Database::row([i, i % 100, i % 50]));
            db.insert(dim, &Database::row([i % 50, i % 7]));
        }
        db.create_index("dim_pk", dim, 0);
        let other = db.create_table("other", Schema::ints(&["o_id"]));
        for i in 0..600i64 {
            db.insert(other, &Database::row([i]));
        }
        let plans: Vec<PlanNode> = (0..8).map(|i| star_plan(&db, i * 7)).collect();
        (db, plans)
    }

    fn star_plan(db: &Database, lo: i64) -> PlanNode {
        let dim = db.table("dim").unwrap();
        PlanNode::IndexNLJoin {
            outer: Box::new(fact_scan(db, lo, lo + 10)),
            outer_key: 2,
            inner: dim,
            inner_index: db.index_on(dim, 0).unwrap().object,
            inner_pred: None,
        }
    }

    fn fact_scan(db: &Database, lo: i64, hi: i64) -> PlanNode {
        PlanNode::SeqScan {
            table: db.table("fact").unwrap(),
            pred: Some(Pred::Between { col: 1, lo, hi }),
        }
    }

    fn train(db: &Database, plans: &[PlanNode], name: &str) -> TrainedWorkload {
        let traces: Vec<_> = plans.iter().map(|p| execute(p, db).1).collect();
        let cfg = PythiaConfig {
            epochs: 2,
            ..PythiaConfig::fast()
        };
        train_workload(db, name, plans, &traces, None, &cfg)
    }

    #[test]
    fn publish_bumps_versions_and_swaps_atomically() {
        let (db, plans) = star_db();
        let fleet = TenantFleet::new("acme");
        assert!(fleet.is_empty());
        assert!(fleet.any().is_none());
        assert!(fleet.current("star").is_none());

        let tw = train(&db, &plans, "star");
        let held = {
            let v1 = fleet.publish(tw.clone());
            assert_eq!(v1, 1);
            fleet.current("star").expect("installed")
        };
        assert_eq!(held.version, 1);

        // Re-publish while a reader still holds the old Arc: the reader's
        // model stays alive and untouched; new lookups see the new version.
        let v2 = fleet.publish(tw.clone());
        assert_eq!(v2, 2);
        assert_eq!(held.version, 1, "in-flight reader keeps its snapshot");
        assert_eq!(fleet.current("star").unwrap().version, 2);
        assert_eq!(fleet.len(), 1, "same name replaces, not accumulates");

        // Bit-identical weights either side of the swap.
        let p = &plans[0];
        assert_eq!(
            held.workload.infer(&db, p).pages,
            fleet.current("star").unwrap().workload.infer(&db, p).pages
        );
    }

    /// Regression: a second publish under one name used to append an entry
    /// the matcher never picked, so the stale model kept serving.
    #[test]
    fn relearning_a_workload_replaces_the_stale_model() {
        let (db, plans) = star_db();
        let traces: Vec<_> = plans.iter().map(|p| execute(p, &db).1).collect();
        // Threshold below every sigmoid score: a model predicts all pages of
        // the object it covers, so which weights served is unmistakable.
        let all_pages = PythiaConfig {
            epochs: 2,
            threshold: Some(-1.0),
            ..PythiaConfig::fast()
        };
        let dim = db.table("dim").unwrap();
        let heap = db.table_info(dim).object;
        let idx = db.index_on(dim, 0).unwrap().object;
        let fleet = TenantFleet::new("acme");
        for only in [heap, idx] {
            fleet.publish(train_workload(
                &db,
                "w",
                &plans,
                &traces,
                Some(&[only]),
                &all_pages,
            ));
        }
        assert_eq!(fleet.len(), 1);

        let probe = star_plan(&db, 5);
        let matched = fleet.match_plan(&db, &probe).expect("matches");
        assert_eq!(matched.version, 2);
        let list = prefetch_list(&db, &matched.workload.infer(&db, &probe));
        let idx_file = db.object_file(idx);
        assert_eq!(list.len(), db.object_pages(idx) as usize);
        assert!(list.iter().all(|p| p.file == idx_file));
    }

    /// Readers keep matching while a second workload trains and publishes
    /// beside them: nothing deadlocks and no read misses.
    #[test]
    fn readers_match_while_a_publish_lands() {
        let (db, plans) = star_db();
        let fleet = TenantFleet::new("acme");
        fleet.publish(train(&db, &plans, "w"));
        let (db, plans, fleet) = (&db, &plans, &fleet);
        std::thread::scope(|s| {
            s.spawn(|| fleet.publish(train(db, plans, "w2")));
            let readers: Vec<_> = (0..3)
                .map(|r| {
                    s.spawn(move || {
                        (0..20)
                            .filter(|i| {
                                let p = star_plan(db, (r * 20 + i) % 80);
                                fleet.match_plan(db, &p).is_some()
                            })
                            .count()
                    })
                })
                .collect();
            for r in readers {
                assert_eq!(r.join().unwrap(), 20, "every match succeeds");
            }
        });
        assert_eq!(fleet.len(), 2);
    }

    #[test]
    fn matches_same_shape_rejects_foreign() {
        let (db, plans) = star_db();
        let fleet = TenantFleet::new("acme");
        fleet.publish(train(&db, &plans, "star"));
        assert_eq!(fleet.len(), 1);

        // Same-shape unseen query matches.
        let hit = fleet.match_plan(&db, &star_plan(&db, 55));
        assert_eq!(hit.expect("star matches").workload.name, "star");

        // A query over an unrelated table does not.
        let foreign = PlanNode::SeqScan {
            table: db.table("other").unwrap(),
            pred: None,
        };
        assert!(fleet.match_plan(&db, &foreign).is_none());
    }

    #[test]
    fn empty_fleet_never_matches() {
        let (db, plans) = star_db();
        let fleet = TenantFleet::new("acme");
        assert!(fleet.is_empty());
        assert!(fleet.match_plan(&db, &plans[0]).is_none());
    }

    #[test]
    fn best_of_multiple_workloads_wins() {
        let (db, plans) = star_db();
        // Workload A: the star join. Workload B: fact-only scans.
        let scans: Vec<PlanNode> = (0..6).map(|i| fact_scan(&db, i, i + 5)).collect();
        let fleet = TenantFleet::new("acme");
        fleet.publish(train(&db, &plans[..6], "star"));
        fleet.publish(train(&db, &scans, "scan"));

        let m = fleet.match_plan(&db, &star_plan(&db, 42));
        assert_eq!(m.expect("matches").workload.name, "star");

        let unfiltered = PlanNode::SeqScan {
            table: db.table("fact").unwrap(),
            pred: None,
        };
        let m2 = fleet.match_plan(&db, &unfiltered);
        assert_eq!(m2.expect("matches").workload.name, "scan");
    }

    #[test]
    fn tenants_are_isolated() {
        let (db, plans) = star_db();
        let (a, b) = (TenantFleet::new("alpha"), TenantFleet::new("beta"));
        a.publish(train(&db, &plans, "star"));
        assert_eq!(a.len(), 1);
        assert!(b.is_empty(), "publishing to alpha is invisible to beta");
        assert!(b.current("star").is_none());
        assert!(a.match_plan(&db, &plans[0]).is_some());
        assert!(b.match_plan(&db, &plans[0]).is_none());
    }

    /// A panic while the fleet's lock is held poisons it; every later
    /// lookup, publish and match still answers.
    #[test]
    fn a_poisoned_fleet_lock_still_serves() {
        let (db, plans) = star_db();
        let tw = train(&db, &plans, "star");
        let fleet = TenantFleet::new("acme");
        fleet.publish(tw.clone());
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = fleet.slots.write().unwrap();
                panic!("a publish panics while holding the fleet lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(fleet.slots.is_poisoned());
        assert_eq!(fleet.any().expect("still installed").version, 1);
        assert_eq!(fleet.publish(tw), 2);
        assert_eq!(fleet.current("star").unwrap().version, 2);
        let matched = fleet.match_plan(&db, &plans[0]).expect("still matches");
        assert_eq!(matched.version, 2);
    }

    #[test]
    fn persisted_models_are_catalog_checked() {
        let (db, plans) = star_db();
        let tw = train(&db, &plans, "star");
        let path = std::env::temp_dir().join("pythia_registry_model.json");
        save_model(&path, 7, &tw).unwrap();

        // Same catalog: loads, preserving the stored version and weights.
        let (version, loaded) = load_model(&path, &db).unwrap();
        assert_eq!(version, 7);
        assert_eq!(
            loaded.infer(&db, &plans[0]).pages,
            tw.infer(&db, &plans[0]).pages
        );

        // publish_from_file installs it under the fleet's own version.
        let fleet = TenantFleet::new("acme");
        let v = fleet.publish_from_file(&path, &db).unwrap();
        assert_eq!(v, 1);
        assert_eq!(fleet.current("star").unwrap().version, 1);

        // A catalog whose dim grew: refused by the catalog check.
        let mut grown = Database::new();
        let fact = grown.create_table("fact", Schema::ints(&["id", "date", "dkey"]));
        let dim = grown.create_table("dim", Schema::ints(&["d_id", "attr"]));
        for i in 0..600i64 {
            grown.insert(fact, &Database::row([i, i % 100, i % 50]));
        }
        for d in 0..2000i64 {
            grown.insert(dim, &Database::row([d, d % 7]));
        }
        grown.create_index("dim_pk", dim, 0);
        let err = load_model(&path, &grown)
            .err()
            .expect("grown catalog must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("pages"), "{err}");

        let _ = std::fs::remove_file(&path);
    }
}
