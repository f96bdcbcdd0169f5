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
//!   runtime ISA dispatch (AVX2 / NEON / portable scalar, `PYTHIA_SIMD`
//!   override); every path accumulates in the same fixed order so outputs
//!   are bit-identical across ISA and thread count.
//! * [`Tape`] / [`Var`] — eager tape-based reverse-mode autograd.
//! * [`layers`] — `Linear`, `Embedding`, `LayerNorm`, multi-head
//!   self-attention, transformer encoder layers, positional encodings.
//! * [`Adam`] — the Adam optimizer; [`bce_with_logits`] — the multi-label
//!   objective (with optional positive-class weighting for the extremely
//!   sparse page labels).
//!
//! Design: parameters live in a [`ParamSet`] of plain tensors. Every training
//! step *injects* them into a (reset) [`Tape`] as leaves, builds the forward
//! graph eagerly, calls [`Tape::backward`], and hands gradients to the
//! optimizer. No graph caching, no aliasing — simple and easy to verify
//! against finite differences (see the property tests). Inference *lends*
//! the parameters to a [`tape::forward_only`] tape instead of copying them.

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
pub mod tape;
pub mod tensor;

pub use optim::{grad_l2_norm, Adam, Sgd};
pub use tape::{bce_with_logits, ParamSet, Tape, Var};
pub use tensor::Tensor;
