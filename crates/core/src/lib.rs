//! # pythia-core
//!
//! Pythia itself — the paper's contribution (§3): a neural model that, given
//! a serialized query plan, predicts in one shot the *set* of non-sequential
//! pages the query will read, plus the prefetch scheduling that turns those
//! predictions into I/O.
//!
//! Pipeline (matching the paper's algorithms):
//!
//! * **Algorithm 1 (training)** — [`predictor::train_workload`]: collect each
//!   training query's trace, strip sequential accesses, deduplicate, split by
//!   database object, sort by offset, and train the multi-label classifiers
//!   ([`model::ModelGroup`]s, built on [`classifier::PlanClassifier`]) — one
//!   per object in the paper, one for the workload with a decoder head per
//!   object by default ([`Grouping`]).
//! * **Algorithm 2 (serialization)** — [`serialize`]: preorder walk of the
//!   plan emitting operator tokens (`[NLJ]`, `[HJ]`, `[SEQ]`, `[IDX]`),
//!   object names and `[PRED] col op value` tokens; numeric literals are
//!   binned into digit tokens so unseen parameter values generalize.
//! * **Algorithm 3 (inference)** — each step exists once:
//!   [`registry::TenantFleet::match_plan`] matches the query to a trained
//!   workload (fall back to default execution otherwise),
//!   [`predictor::TrainedWorkload::infer_batch`] runs every model group,
//!   and [`prefetch::engage`] hands the predicted pages to the
//!   prefetcher in file storage order. The serving loop and the experiment
//!   harness both call `prefetch::engage`. Neither applies the match: every
//!   [`server::PrefetchServer`] serves from one [`registry::TenantFleet`]
//!   (empty for the DFLT server; `with_predictor` publishes a clone, which
//!   shares the weights) and engages every query once the fleet holds a
//!   model, so only tests call `match_plan`. A saved model is a
//!   [`model_file`], checked against the serving catalog once, on load.
//!
//! Beyond the paper's evaluated system, two §7 extensions are implemented —
//! prefetch-aware query scheduling ([`scheduler`]) and incremental model
//! refinement ([`predictor::TrainedWorkload::refine`]) — plus an
//! admission-controlled serving loop ([`server`]) that batches inference per
//! admission wave and makes scheduling policies one-flag variants, and the
//! streaming quality telemetry it feeds ([`quality`]).
//!
//! Model architecture (§5.1): tokens → 100-d embeddings (+ sinusoidal
//! positions) → 2 transformer encoder layers with 10 heads → last-token query
//! embedding → feed-forward decoder (one 800-unit hidden layer) → per-page
//! sigmoid logits, trained end-to-end with `BCEWithLogitsLoss` and Adam.
//! Large objects are split into partitions; whether partitions, index and
//! base table each get an encoder of their own (the paper's choice) or share
//! one is [`Grouping`], ablated in Figure 12d.

pub mod classifier;
pub mod config;
pub mod frontend;
pub mod metrics;
pub mod model;
pub mod model_file;
pub mod predictor;
pub mod prefetch;
pub mod quality;
pub mod registry;
pub mod scheduler;
pub mod serialize;
pub mod server;
pub mod vocab;

pub use config::{Grouping, PythiaConfig};
pub use frontend::{Arrival, Frontend, FrontendConfig, FrontendStats, Responder};
pub use metrics::{f1_score, SetMetrics};
pub use predictor::{train_workload, Prediction, TrainedWorkload};
pub use registry::{TenantFleet, VersionedWorkload};
pub use serialize::{serialize_plan, ValueBinner};
pub use server::{
    AdmissionMode, InferenceCharge, PrefetchServer, QueryOutcome, QueuePolicy, ServeReport,
    ServeSession, ServerConfig, ServerRequest, TenantReport, WaveStats,
};
pub use vocab::Vocab;
