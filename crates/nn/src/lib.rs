//! # pythia-nn
//!
//! A from-scratch neural-network library sufficient to reproduce the paper's
//! model on CPU: the paper trains, in PyTorch, an embedding layer, a 2-layer
//! multi-head-self-attention transformer encoder and a feed-forward
//! multi-label decoder with `BCEWithLogitsLoss` and Adam (§5.1 "Pythia
//! Model"). This crate provides exactly those pieces:
//!
//! * [`Tensor`] — dense row-major `f32` matrices with a threaded matmul.
//! * [`kernels`] — cache-blocked, register-tiled GEMM microkernels with
//!   runtime ISA dispatch (AVX-512 / AVX2 / NEON / portable scalar,
//!   `PYTHIA_SIMD` override); every path accumulates in the same fixed order
//!   so outputs are bit-identical across ISA and thread count.
//! * [`Tape`] / [`Var`] — eager tape-based reverse-mode autograd over the
//!   ops the model records. The composed ops the fused attention is pinned
//!   against (`matmul`, `add_row`, `scale`, `softmax_rows`, `transpose`,
//!   `slice_cols`, `concat_cols`) exist in test builds only.
//! * [`layers`] — `Linear`, `Embedding`, `LayerNorm`, multi-head
//!   self-attention, transformer encoder layers, positional encodings.
//! * [`Adam`] — the Adam optimizer; [`tape::bce_with_logits_over`] — the
//!   multi-label objective (with optional positive-class weighting for the
//!   extremely sparse page labels).
//!
//! Design: parameters live in a [`ParamSet`] of plain tensors. Every training
//! pass *lends* them to a fresh [`Tape`] as leaves, builds the forward graph
//! eagerly, calls [`Tape::backward_into`], and hands gradients to the
//! optimizer once the tape is gone. No graph caching, no parameter copies — simple and
//! easy to verify against finite differences (see the property tests).
//! Inference lends the parameters to a [`tape::forward_only`] tape the same
//! way.

//!
//! Parallelism: [`pool`] owns the workspace-wide thread-count policy
//! (`PYTHIA_THREADS`, runtime-overridable) and a deterministic scoped
//! map used by both the matmul row bands here and the model-group
//! fan-out in `pythia-core`.

pub mod init;
pub mod kernels;
pub mod layers;
pub mod optim;
pub mod pool;
// The workspace's one random stream, `pythia_sim::rng`, compiled here as a
// private copy of the same file: nn depends on no other workspace crate, and
// a new edge would change the benchmark's lockfile. ROADMAP item 1(a) lets
// the lockfile change; then this include becomes a `pythia-sim` dependency.
#[allow(dead_code)] // nn draws only floats
#[path = "../../sim/src/rng.rs"]
mod rng;
pub mod tape;
pub mod tensor;

pub use optim::{grad_l2_norm, Adam};
pub use tape::{ParamSet, Tape, Var};
pub use tensor::Tensor;
