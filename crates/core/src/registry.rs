//! The model store: versioned, multi-tenant, and the one place a query is
//! matched to a trained workload (Algorithm 3 lines 3–4 and 13–14). N
//! independent databases are served from one process group, each with its
//! own hot-swappable [`TrainedWorkload`] fleet.
//!
//! "We first ensure Q belongs to a workload that Pythia has trained a model
//! for. If not, Pythia does not engage and the query is executed as it would
//! in the absence of Pythia." Matching ([`TenantFleet::match_plan`]) is
//! structural: the set of database objects a plan scans is compared
//! (Jaccard) against each installed workload's object signature; below
//! [`MATCH_THRESHOLD`] the query is out-of-distribution and falls back to
//! default execution.
//!
//! * **Tenancy** — a [`ModelRegistry`] maps tenant name → [`TenantFleet`];
//!   each fleet is an isolated set of trained workloads over that tenant's
//!   catalog. Tenants never see each other's models.
//! * **Hot swap** — [`TenantFleet::publish`] installs retrained weights by
//!   an atomic `Arc` swap under a briefly-held write lock. Serving code
//!   clones the `Arc` once per admission batch ([`crate::server`]), so a
//!   prediction batch always runs against one coherent model version and a
//!   swap lands *between* admissions, never inside one. Versions are
//!   monotonically increasing per fleet.
//! * **Checked persistence** — models go to disk through the
//!   [`crate::serde_utils::versioned`] envelope with a
//!   [`CatalogCompat`] header (modeled objects + page counts, vocabulary
//!   fingerprint, architecture shape). [`load_model`] refuses a file whose
//!   header disagrees with the serving catalog or with its own body, so a
//!   model trained against a different database fails loudly instead of
//!   silently mispredicting.
//!
//! Cross-*process* sharding (splitting one tenant's objects across machines)
//! is future work; see ROADMAP.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use pythia_db::catalog::{Database, ObjectId};
use pythia_db::plan::PlanNode;

use crate::predictor::TrainedWorkload;
use crate::serde_utils::versioned;

/// Envelope `kind` for persisted models.
pub const MODEL_KIND: &str = "pythia.model";

/// Minimum object-set Jaccard similarity to claim a query for a workload.
pub const MATCH_THRESHOLD: f64 = 0.5;

/// Catalog-compatibility header persisted alongside every model: everything
/// needed to decide "was this trained against the catalog I'm serving?"
/// without trusting the body.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CatalogCompat {
    /// `(object, page count at training time)` per modeled object, in id
    /// order.
    pub objects: Vec<(ObjectId, u32)>,
    /// [`crate::vocab::Vocab::fingerprint`] — token ids are only meaningful
    /// against the exact vocabulary the weights were trained with.
    pub vocab_hash: u64,
    pub vocab_len: usize,
    /// Architecture shape; weights of one shape cannot serve another.
    pub embed_dim: usize,
    pub layers: usize,
    pub heads: usize,
}

impl CatalogCompat {
    /// The header describing `tw` as trained.
    pub fn of(tw: &TrainedWorkload) -> CatalogCompat {
        CatalogCompat {
            objects: tw
                .spans()
                .map(|s| (s.object, s.n_pages))
                .collect::<BTreeMap<_, _>>()
                .into_iter()
                .collect(),
            vocab_hash: tw.vocab.fingerprint(),
            vocab_len: tw.vocab.len(),
            embed_dim: tw.cfg.embed_dim,
            layers: tw.cfg.layers,
            heads: tw.cfg.heads,
        }
    }

    /// Check the header against a serving catalog: every recorded object
    /// must still exist with the same page count.
    pub fn check_db(&self, db: &Database) -> Result<(), String> {
        for &(obj, pages) in &self.objects {
            if (obj.0 as usize) >= db.object_count() {
                return Err(format!(
                    "compat header lists object {obj:?}, but this catalog has only {} objects",
                    db.object_count()
                ));
            }
            let have = db.object_pages(obj);
            if have != pages {
                return Err(format!(
                    "compat header sized object {obj:?} ('{}') at {pages} pages, but this \
                     catalog has {have}",
                    db.object_name(obj)
                ));
            }
        }
        Ok(())
    }

    /// Check the header against a deserialized body (tamper / mix-up guard).
    pub fn check_body(&self, tw: &TrainedWorkload) -> Result<(), String> {
        let actual = CatalogCompat::of(tw);
        if *self != actual {
            return Err(format!(
                "compat header does not describe the model body (header {self:?}, body {actual:?})"
            ));
        }
        Ok(())
    }
}

/// The persisted payload: version + compat header + weights.
#[derive(serde::Serialize, serde::Deserialize)]
struct ModelFile {
    version: u64,
    compat: CatalogCompat,
    workload: TrainedWorkload,
}

/// Write `tw` at `version` to `path` as an enveloped, compat-headered file.
pub fn save_model(path: impl AsRef<Path>, version: u64, tw: &TrainedWorkload) -> io::Result<()> {
    let file = ModelFile {
        version,
        compat: CatalogCompat::of(tw),
        workload: tw.duplicate(),
    };
    versioned::save(path, MODEL_KIND, &file)
}

/// Load a model written by [`save_model`], refusing anything incompatible
/// with the serving catalog `db`. Returns `(version, workload)`.
pub fn load_model(path: impl AsRef<Path>, db: &Database) -> io::Result<(u64, TrainedWorkload)> {
    let file: ModelFile = versioned::load(path, MODEL_KIND)?;
    let fail = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    file.compat.check_db(db).map_err(fail)?;
    file.compat.check_body(&file.workload).map_err(fail)?;
    file.workload.check_compat(db).map_err(fail)?;
    Ok((file.version, file.workload))
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
            .expect("fleet lock poisoned")
            .insert(slot.workload.name.clone(), slot);
        version
    }

    /// Load a persisted model (catalog-checked against `db`) and publish it.
    /// The on-disk version is informational; the fleet assigns its own.
    pub fn publish_from_file(&self, path: impl AsRef<Path>, db: &Database) -> io::Result<u64> {
        let (_, tw) = load_model(path, db)?;
        Ok(self.publish(tw))
    }

    /// The currently installed model for a workload name, if any.
    pub fn current(&self, workload: &str) -> Option<Arc<VersionedWorkload>> {
        self.slots
            .read()
            .expect("fleet lock poisoned")
            .get(workload)
            .cloned()
    }

    /// The single installed model of a one-workload fleet (first by name
    /// otherwise) — the common serving shape.
    pub fn any(&self) -> Option<Arc<VersionedWorkload>> {
        self.slots
            .read()
            .expect("fleet lock poisoned")
            .values()
            .next()
            .cloned()
    }

    /// Names of installed workloads, in order.
    pub fn workload_names(&self) -> Vec<String> {
        self.slots
            .read()
            .expect("fleet lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Number of installed workloads.
    pub fn len(&self) -> usize {
        self.slots.read().expect("fleet lock poisoned").len()
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
        let slots = self.slots.read().expect("fleet lock poisoned");
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

/// The process-wide registry: tenant name → fleet. Cheap to share
/// (`Arc<ModelRegistry>`); all methods take `&self`.
#[derive(Default)]
pub struct ModelRegistry {
    tenants: RwLock<BTreeMap<String, Arc<TenantFleet>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// The fleet for `name`, created empty on first use.
    pub fn tenant(&self, name: &str) -> Arc<TenantFleet> {
        if let Some(fleet) = self.get(name) {
            return fleet;
        }
        let mut tenants = self.tenants.write().expect("registry lock poisoned");
        Arc::clone(
            tenants
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(TenantFleet::new(name))),
        )
    }

    /// The fleet for `name`, if it exists.
    pub fn get(&self, name: &str) -> Option<Arc<TenantFleet>> {
        self.tenants
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
    }

    /// Known tenant names, in order.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants
            .read()
            .expect("registry lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().expect("registry lock poisoned").len()
    }

    /// Whether no tenants exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PythiaConfig;
    use crate::predictor::train_workload;
    use pythia_db::exec::execute;
    use pythia_db::expr::Pred;
    use pythia_db::types::Schema;

    /// fact ⋈ dim through `dim_pk`, plus a table no plan below touches.
    fn star_db() -> (Database, Vec<PlanNode>) {
        let mut db = Database::new();
        let fact = db.create_table("fact", Schema::ints(&["id", "date", "dkey"]));
        let dim = db.create_table("dim", Schema::ints(&["d_id", "attr"]));
        for i in 0..600i64 {
            db.insert(fact, Database::row(&[i, i % 100, i % 50]));
            db.insert(dim, Database::row(&[i % 50, i % 7]));
        }
        db.create_index("dim_pk", dim, 0);
        let other = db.create_table("other", Schema::ints(&["o_id"]));
        for i in 0..600i64 {
            db.insert(other, Database::row(&[i]));
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
            let v1 = fleet.publish(tw.duplicate());
            assert_eq!(v1, 1);
            fleet.current("star").expect("installed")
        };
        assert_eq!(held.version, 1);

        // Re-publish while a reader still holds the old Arc: the reader's
        // model stays alive and untouched; new lookups see the new version.
        let v2 = fleet.publish(tw.duplicate());
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
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let a = reg.tenant("alpha");
        let b = reg.tenant("beta");
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.tenant_names(), vec!["alpha", "beta"]);
        a.publish(train(&db, &plans, "star"));
        assert_eq!(a.len(), 1);
        assert!(b.is_empty(), "publishing to alpha is invisible to beta");
        assert!(b.current("star").is_none());
        // tenant() is get-or-create: the same Arc comes back.
        assert!(Arc::ptr_eq(&a, &reg.tenant("alpha")));
        assert!(reg.get("gamma").is_none());
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

        // A catalog whose dim grew: refused by the header check alone.
        let mut grown = Database::new();
        let fact = grown.create_table("fact", Schema::ints(&["id", "date", "dkey"]));
        let dim = grown.create_table("dim", Schema::ints(&["d_id", "attr"]));
        for i in 0..600i64 {
            grown.insert(fact, Database::row(&[i, i % 100, i % 50]));
        }
        for d in 0..2000i64 {
            grown.insert(dim, Database::row(&[d, d % 7]));
        }
        grown.create_index("dim_pk", dim, 0);
        let err = load_model(&path, &grown)
            .err()
            .expect("grown catalog must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("pages"), "{err}");

        // A tampered header (vocab hash flipped) is caught even when the
        // catalog happens to agree.
        let json = std::fs::read_to_string(&path).unwrap();
        let tampered = json.replacen("\"vocab_hash\":", "\"vocab_hash\":1,\"_x\":", 1);
        assert_ne!(json, tampered, "test must actually tamper");
        std::fs::write(&path, tampered).unwrap();
        let err = load_model(&path, &db)
            .err()
            .expect("tampered header must be rejected");
        assert!(err.to_string().contains("header"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
