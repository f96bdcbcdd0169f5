//! Eager tape-based reverse-mode autograd.
//!
//! Usage pattern per training step:
//!
//! ```
//! use pythia_nn::tape::{bce_with_logits_over, recording, Gradients};
//! use pythia_nn::{Adam, ParamSet, Tensor};
//!
//! let mut params = ParamSet::new();
//! let w = params.add("w", Tensor::full(2, 1, 0.5));
//! let b = params.add("b", Tensor::zeros(1, 1));
//! let mut adam = Adam::new(&params, 0.1);
//!
//! // One pass of a one-row minibatch, on a tape the parameters are lent to.
//! let (grads, vars) = recording(|tape| {
//!     let vars = params.lend(tape);
//!     let x = tape.leaf(Tensor::from_vec(1, 2, vec![1.0, -1.0]));
//!     let logits = tape.linear(x, vars[w.0], vars[b.0]);
//!     let target = Tensor::full(1, 1, 1.0);
//!     let loss = bce_with_logits_over(tape, logits, target, 1.0, 1, &mut 0.0);
//!     (tape.backward_into(loss, Gradients::default()), vars)
//! });
//! assert_eq!(grads.get(vars[w.0]).shape(), (2, 1));
//! // The tape is gone, so the parameters it borrowed can be stepped.
//! adam.step(&mut params, &vars, &grads);
//! recording(|tape| tape.absorb(grads));
//! ```
//!
//! Values are computed eagerly when an op is recorded; `backward_into` walks
//! the tape in reverse accumulating gradients. Every op's gradient is
//! verified against central finite differences in this module's tests.
//!
//! Every op output, saved activation, gradient and backward temporary comes
//! from the tape's best-fit `Arena` and goes back to it on
//! `Tape::reset` / [`Tape::absorb`]: a step whose shapes repeat allocates
//! nothing. A minibatch is recorded in passes of one sequence, each
//! [`Tape::backward_into`] continuing the parameter gradients of the pass
//! before, so the arena holds one sequence's activations and the gradients
//! come out as one chain over the whole minibatch's rows.
//! Tapes borrow the parameters ([`ParamSet::lend`]) instead of copying
//! them: inference on a [`forward_only`] tape, training on [`recording`]
//! tapes, one per pass, which hand one arena from pass to pass and from
//! model to model.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::thread::LocalKey;

use crate::kernels::{a_bt_band, active_isa, at_b_band, matmul_band, Chain, Isa};
use crate::tensor::Tensor;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub usize);

/// Handle to a parameter in a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(pub usize);

/// A set of trainable parameters (plain tensors between steps).
#[derive(Debug, Clone, Default)]
pub struct ParamSet {
    tensors: Vec<Tensor>,
    names: Vec<String>,
}

impl ParamSet {
    /// An empty set.
    pub fn new() -> Self {
        ParamSet::default()
    }

    /// Register a parameter.
    pub fn add(&mut self, name: &str, init: Tensor) -> ParamId {
        self.tensors.push(init);
        self.names.push(name.to_owned());
        ParamId(self.tensors.len() - 1)
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total scalar parameter count (for the paper's model-size reporting).
    pub(crate) fn scalar_count(&self) -> usize {
        self.tensors.iter().map(Tensor::len).sum()
    }

    /// Approximate model size in bytes (f32 storage).
    pub fn size_bytes(&self) -> usize {
        self.scalar_count() * 4
    }

    /// Read a parameter.
    #[cfg(test)]
    pub(crate) fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutate a parameter (optimizer updates).
    pub(crate) fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Lend all parameters to `tape` as borrowed leaves; `result[i]` is the
    /// var for `ParamId(i)`. Training and inference both: a training step
    /// records each pass on a tape that borrows the set, and the optimizer
    /// updates the set once the pass's tape is gone. The tape keeps the
    /// names, for [`Tape::backward_into`] to report a parameter it cannot
    /// continue.
    pub fn lend<'p>(&'p self, tape: &mut Tape<'p>) -> Vec<Var> {
        let first = tape.nodes.len();
        tape.params = Some(first);
        tape.param_names = Cow::Borrowed(&self.names);
        tape.nodes.extend(self.tensors.iter().map(|t| Node {
            value: Cow::Borrowed(t),
            op: Op::Leaf,
        }));
        (first..tape.nodes.len()).map(Var).collect()
    }

    /// Iterate `(id, tensor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.tensors
            .iter()
            .enumerate()
            .map(|(i, t)| (ParamId(i), t))
    }
}

/// Best-fit `f32` buffer arena: free lists keyed by capacity, and a request
/// for `len` elements takes the smallest free buffer of capacity
/// `len..=FIT·len`, so a buffer never grows and is never lent to a tensor
/// under half its size. A buffer that sits unused through two consecutive
/// steps (see [`Arena::trim`]) is freed, so the arena retains at most the
/// buffers of the last two steps — one set when every step has the same
/// shapes, and still one when a short last minibatch (at least half a full
/// one) alternates with full ones, whose buffers it borrows.
#[derive(Default)]
struct Arena {
    /// Free buffers by capacity.
    free: BTreeMap<usize, SizeClass>,
    /// Fresh heap allocations made so far (a warm arena stops counting).
    allocs: usize,
    /// Whether a buffer was taken since the last [`Arena::trim`].
    in_step: bool,
}

#[derive(Default)]
struct SizeClass {
    bufs: Vec<Vec<f32>>,
    /// Fewest buffers that were free at any time in this step / the previous.
    idle: usize,
    idle_prev: usize,
}

/// Largest capacity an [`Arena`] buffer may have, as a multiple of the
/// length it is lent at.
const FIT: usize = 2;

impl Arena {
    /// A buffer of exactly `len` elements with unspecified contents.
    fn take(&mut self, len: usize) -> Vec<f32> {
        self.in_step = true;
        let reused = self.free.range_mut(len..=FIT * len).find_map(|(_, class)| {
            let buf = class.bufs.pop()?;
            class.idle = class.idle.min(class.bufs.len());
            Some(buf)
        });
        match reused {
            Some(mut buf) => {
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.allocs += 1;
                vec![0.0; len]
            }
        }
    }

    fn zeros(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut t = self.unfilled(rows, cols);
        t.zero_();
        t
    }

    /// A `[rows, cols]` tensor of unspecified contents, for a caller that
    /// writes every element — the output of a `C = A·B` kernel.
    fn unfilled(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(rows, cols, self.take(rows * cols))
    }

    fn copy_of(&mut self, t: &Tensor) -> Tensor {
        let mut data = self.take(t.len());
        data.copy_from_slice(t.as_slice());
        Tensor::from_vec(t.rows(), t.cols(), data)
    }

    fn recycle(&mut self, t: Tensor) {
        let buf = t.into_data();
        self.free.entry(buf.capacity()).or_default().bufs.push(buf);
    }

    /// Step boundary (everything is back in the free lists): free the
    /// buffers that were needed by neither of the last two steps. A boundary
    /// nothing was taken before is not a step and frees nothing: one
    /// training ends on a reset and the next begins with one, and the second
    /// model's first minibatch wants the buffers of the first model's last
    /// two.
    fn trim(&mut self) {
        if !std::mem::take(&mut self.in_step) {
            return;
        }
        self.free.retain(|_, class| {
            let stale = class.idle.min(class.idle_prev);
            class.bufs.truncate(class.bufs.len() - stale);
            class.idle_prev = class.idle - stale;
            class.idle = class.bufs.len();
            !class.bufs.is_empty()
        });
    }
}

#[derive(Debug)]
enum Op {
    Leaf,
    #[cfg(test)]
    MatMul(Var, Var),
    /// Fused `x·w + bias` (`[m,k]×[k,n] + [1,n]`): one kernel forward,
    /// transpose-free backward.
    Linear(Var, Var, Var),
    Add(Var, Var),
    /// `[m,n] + [1,n]` row broadcast.
    #[cfg(test)]
    AddRow(Var, Var),
    #[cfg(test)]
    Scale(Var, f32),
    /// Add a constant (no gradient flows to it) — positional encodings.
    AddConst(Var),
    Relu(Var),
    #[cfg(test)]
    SoftmaxRows(Var),
    LayerNorm {
        x: Var,
        gain: Var,
        bias: Var,
    },
    #[cfg(test)]
    Transpose(Var),
    /// The columns of `x` from this one on, as many as the node's value has.
    #[cfg(test)]
    SliceCols(Var, usize),
    /// Blocks side by side.
    #[cfg(test)]
    ConcatCols(Vec<Var>),
    /// Gather arbitrary rows (backward scatter-adds) — also the embedding
    /// lookup.
    GatherRows {
        x: Var,
        idxs: Vec<usize>,
    },
    /// Fused multi-head attention over one sequence (see
    /// [`Tape::attention`]). Nothing is saved beyond its inputs: backward
    /// recomputes each head's softmax block from `q` and `k`.
    Attention {
        qkv: [Var; 3],
        heads: usize,
    },
    /// The mean is over `rows` rows of the logits' width: the logits' own,
    /// or a whole minibatch's that these are one pass of.
    BceWithLogits {
        logits: Var,
        targets: Tensor,
        pos_weight: f32,
        rows: usize,
    },
}

struct Node<'p> {
    /// Computed on the tape (owned, an arena buffer) or a parameter lent by
    /// a [`ParamSet`] for the tape's lifetime.
    value: Cow<'p, Tensor>,
    op: Op,
}

fn val<'a>(nodes: &'a [Node<'_>], var: Var) -> &'a Tensor {
    &nodes[var.0].value
}

/// Gradients produced by [`Tape::backward_into`], and carried by it from one
/// pass to the next (the default: none yet).
#[derive(Default)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. `var`.
    ///
    /// # Panics
    /// Panics if no gradient reached `var` (it did not influence the loss).
    pub fn get(&self, var: Var) -> &Tensor {
        self.grads[var.0]
            .as_ref()
            .unwrap_or_else(|| panic!("no gradient for {var:?}"))
    }

    /// Gradient if any reached `var`.
    pub(crate) fn try_get(&self, var: Var) -> Option<&Tensor> {
        self.grads[var.0].as_ref()
    }
}

/// The autograd tape. `'p` is the lifetime of parameters lent to it
/// ([`ParamSet::lend`]).
#[derive(Default)]
pub struct Tape<'p> {
    nodes: Vec<Node<'p>>,
    /// Backing store of every node value, saved activation, gradient and
    /// backward temporary. [`Tape::reset`] and [`Tape::absorb`] return
    /// buffers here; see [`Arena`] for what it retains.
    arena: Arena,
    /// Set by [`forward_only`]: [`Tape::collapse`] frees finished
    /// sub-graphs and [`Tape::backward_into`] is refused.
    forward_only: bool,
    /// The var of the first parameter [`ParamSet::lend`] recorded since
    /// the last [`Tape::reset`], and the names of all of them.
    params: Option<usize>,
    param_names: Cow<'p, [String]>,
}

thread_local! {
    /// The calling thread's inference arena, kept warm across
    /// [`forward_only`] calls.
    static INFER_ARENA: RefCell<Arena> = RefCell::default();
    /// The calling thread's training arena, kept warm across [`recording`]
    /// calls until [`free_recording_arena`].
    static TRAIN_ARENA: RefCell<Arena> = RefCell::default();
}

/// Run `f` on a tape that borrows the thread's arena in `slot`; every buffer
/// is back in it when `f` returns.
fn on_thread_arena<'p, R>(
    slot: &'static LocalKey<RefCell<Arena>>,
    forward_only: bool,
    f: impl FnOnce(&mut Tape<'p>) -> R,
) -> R {
    let mut tape = Tape {
        arena: slot.with(RefCell::take),
        forward_only,
        ..Tape::default()
    };
    let out = f(&mut tape);
    tape.reset();
    slot.with(|arena| arena.replace(tape.arena));
    out
}

/// Run `f` on a forward-only tape backed by this thread's reusable arena:
/// parameters can be lent rather than copied, `Tape::collapse` frees each
/// finished layer, and every buffer goes back to the thread's arena when `f`
/// returns — a repeat call with the same shapes allocates nothing.
pub fn forward_only<'p, R>(f: impl FnOnce(&mut Tape<'p>) -> R) -> R {
    on_thread_arena(&INFER_ARENA, true, f)
}

/// Run `f` on a recording tape backed by this thread's training arena, so
/// that the passes of a training, and the models a thread trains one after
/// another, share one set of buffers instead of each faulting its own in.
/// A training records each pass in a call of its own, on a tape the
/// parameters are lent to. Unlike the inference arena this one is a step's
/// whole working set (activations and gradients) and nothing needs it
/// between trainings: whoever starts a round of them calls
/// [`free_recording_arena`] when the round is over. A pool worker's arena
/// goes with its thread.
pub fn recording<'p, R>(f: impl FnOnce(&mut Tape<'p>) -> R) -> R {
    on_thread_arena(&TRAIN_ARENA, false, f)
}

/// Free what [`recording`] left in the calling thread's training arena.
pub fn free_recording_arena() {
    TRAIN_ARENA.with(RefCell::take);
}

/// Free what [`forward_only`] left in the calling thread's inference arena:
/// for a thread that infers once and then does other work.
pub fn free_inference_arena() {
    INFER_ARENA.with(RefCell::take);
}

const LN_EPS: f32 = 1e-5;

impl<'p> Tape<'p> {
    /// Number of recorded nodes.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Fresh heap allocations the tape's arena has made so far. Stops
    /// growing once the arena is warm for the shapes in use.
    pub fn allocations(&self) -> usize {
        self.arena.allocs
    }

    /// Bytes of free buffers the arena holds (everything, right after
    /// `Tape::reset`).
    pub fn retained_bytes(&self) -> usize {
        let held = |(len, class): (&usize, &SizeClass)| len * class.bufs.len() * 4;
        self.arena.free.iter().map(held).sum()
    }

    /// Every softmax the tape computes, as bit patterns in recording order:
    /// an attention node's `[heads·q_len, len]` blocks, recomputed through
    /// [`softmax_block`] from its `q` and `k` as backward recomputes them,
    /// and a [`Tape::softmax_rows`] node's value.
    #[cfg(test)]
    pub(crate) fn softmax_bits(&self) -> Vec<Vec<u32>> {
        let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect();
        let softmax = |node: &Node| match &node.op {
            Op::Attention {
                qkv: [q, k, _],
                heads,
            } => {
                let [q, k] = [q, k].map(|&var| self.value(var));
                let ((s, dim), ql) = (k.shape(), q.rows());
                let dh = dim / heads;
                let mut probs = vec![0.0; heads * ql * s];
                for (h, p) in probs.chunks_exact_mut(ql * s).enumerate() {
                    let (qd, kd) = (&q.as_slice()[h * dh..], &k.as_slice()[h * dh..]);
                    softmax_block(p, qd, kd, dim, s, dh, ql);
                }
                Some(bits(&probs))
            }
            Op::SoftmaxRows(_) => Some(bits(node.value.as_slice())),
            _ => None,
        };
        self.nodes.iter().filter_map(softmax).collect()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        let value = Cow::Owned(value);
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// The forward value of `var`.
    pub fn value(&self, var: Var) -> &Tensor {
        val(&self.nodes, var)
    }

    /// A zeroed `[rows, cols]` tensor from the tape's arena, for inputs the
    /// caller fills and hands back (e.g. the targets of
    /// [`bce_with_logits_over`]).
    pub fn zeros(&mut self, rows: usize, cols: usize) -> Tensor {
        self.arena.zeros(rows, cols)
    }

    /// Record a leaf (an input).
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf)
    }

    /// Clear all recorded nodes, returning their buffers to the arena. The
    /// tape is then ready for the next minibatch's graph; this is the step
    /// boundary at which the arena frees what recent steps did not use.
    pub(crate) fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            release(&mut self.arena, node);
        }
        self.params = None;
        self.arena.trim();
    }

    /// Return gradient buffers to the arena once the optimizer is done with
    /// them.
    pub fn absorb(&mut self, grads: Gradients) {
        for g in grads.grads.into_iter().flatten() {
            self.arena.recycle(g);
        }
    }

    /// On a [`forward_only`] tape: free every node recorded since `mark`
    /// (an earlier [`Tape::len`]) except `keep`, which becomes node `mark` —
    /// all other vars at or past `mark` are invalidated. A finished layer
    /// calls this so inference holds one layer's activations, not the whole
    /// network's. A recording tape needs them for backward and returns
    /// `keep` unchanged.
    pub(crate) fn collapse(&mut self, mark: usize, keep: Var) -> Var {
        if !self.forward_only {
            return keep;
        }
        assert!(mark <= keep.0, "collapse keeps a node recorded before mark");
        let kept = self.nodes.swap_remove(keep.0);
        for node in self.nodes.drain(mark..) {
            release(&mut self.arena, node);
        }
        self.nodes.push(kept);
        Var(mark)
    }

    /// `a × b`.
    #[cfg(test)]
    pub(crate) fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (val(&self.nodes, a), val(&self.nodes, b));
        let mut v = self.arena.unfilled(av.rows(), bv.cols());
        av.matmul_into(bv, &mut v);
        self.push(v, Op::MatMul(a, b))
    }

    /// Fused `x·w + bias` where `bias` is `[1,n]`, broadcast over rows: the
    /// whole affine layer as one tape node. Forward runs the dispatched
    /// [`Tensor::matmul_bias_into`] kernel (bias added after the matmul is
    /// fully accumulated, so rounding order matches `matmul` + `add_row`);
    /// backward uses the transpose-free kernels
    /// [`Tensor::matmul_a_bt_into`] / [`Tensor::matmul_at_b_into`].
    pub fn linear(&mut self, x: Var, w: Var, bias: Var) -> Var {
        let (xv, wv) = (val(&self.nodes, x), val(&self.nodes, w));
        let mut v = self.arena.unfilled(xv.rows(), wv.cols());
        xv.matmul_bias_into(wv, val(&self.nodes, bias), &mut v);
        self.push(v, Op::Linear(x, w, bias))
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (val(&self.nodes, a), val(&self.nodes, b));
        assert_eq!(av.shape(), bv.shape(), "add shape mismatch");
        let mut v = self.arena.copy_of(av);
        for (x, y) in v.as_mut_slice().iter_mut().zip(bv.as_slice()) {
            *x += y;
        }
        self.push(v, Op::Add(a, b))
    }

    /// `[m,n] + [1,n]`: add `row` to every row of `a` (bias add).
    #[cfg(test)]
    pub(crate) fn add_row(&mut self, a: Var, row: Var) -> Var {
        let (av, rt) = (val(&self.nodes, a), val(&self.nodes, row));
        assert_eq!(rt.shape(), (1, av.cols()), "add_row shape mismatch");
        let v = add_tiled(&mut self.arena, av, rt);
        self.push(v, Op::AddRow(a, row))
    }

    /// `a * s`.
    #[cfg(test)]
    pub(crate) fn scale(&mut self, a: Var, s: f32) -> Var {
        let mut v = self.arena.copy_of(val(&self.nodes, a));
        for x in v.as_mut_slice() {
            *x *= s;
        }
        self.push(v, Op::Scale(a, s))
    }

    /// `a + c` for a constant `c` at least as tall as `a`: row `r` of `a`
    /// gets row `r` of `c`, and `c` takes no gradient. Positional encodings
    /// add this way without a copy of their top rows.
    pub(crate) fn add_const(&mut self, a: Var, c: &Tensor) -> Var {
        let av = val(&self.nodes, a);
        assert!(
            av.cols() == c.cols() && av.rows() <= c.rows(),
            "add_const shape mismatch"
        );
        let v = add_tiled(&mut self.arena, av, c);
        self.push(v, Op::AddConst(a))
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let mut v = self.arena.copy_of(val(&self.nodes, a));
        for x in v.as_mut_slice() {
            *x = x.max(0.0);
        }
        self.push(v, Op::Relu(a))
    }

    /// Row-wise softmax (attention weights).
    #[cfg(test)]
    pub(crate) fn softmax_rows(&mut self, a: Var) -> Var {
        let mut v = self.arena.copy_of(val(&self.nodes, a));
        for r in 0..v.rows() {
            softmax_in_place(v.row_mut(r));
        }
        self.push(v, Op::SoftmaxRows(a))
    }

    /// Row-wise layer normalization with learned gain/bias (`[1,n]` each).
    pub(crate) fn layer_norm(&mut self, x: Var, gain: Var, bias: Var) -> Var {
        let xv = val(&self.nodes, x);
        let (g, b) = (val(&self.nodes, gain), val(&self.nodes, bias));
        let (m, n) = xv.shape();
        assert_eq!(g.shape(), (1, n));
        assert_eq!(b.shape(), (1, n));
        let mut v = self.arena.zeros(m, n);
        ln_rows(active_isa(), xv, None, |r, [mean, inv, ..]| {
            for (((o, &xv), &gv), &bv) in v
                .row_mut(r)
                .iter_mut()
                .zip(xv.row(r))
                .zip(g.row(0))
                .zip(b.row(0))
            {
                *o = gv * (xv - mean) * inv + bv;
            }
        });
        self.push(v, Op::LayerNorm { x, gain, bias })
    }

    /// Gather rows `ids` from embedding `table` (`[vocab, dim]` → `[len, dim]`):
    /// [`Tape::gather_rows`] under its usual name.
    pub(crate) fn embed(&mut self, table: Var, ids: &[usize]) -> Var {
        self.gather_rows(table, ids)
    }

    /// Transpose.
    #[cfg(test)]
    pub(crate) fn transpose(&mut self, a: Var) -> Var {
        let v = transposed(&mut self.arena, val(&self.nodes, a));
        self.push(v, Op::Transpose(a))
    }

    /// Columns `[start, start+len)` of `x`.
    #[cfg(test)]
    pub(crate) fn slice_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        let xv = val(&self.nodes, x);
        assert!(start + len <= xv.cols(), "slice out of range");
        let mut v = self.arena.zeros(xv.rows(), len);
        blit_cols(&mut v, 0, xv, start, len);
        self.push(v, Op::SliceCols(x, start))
    }

    /// Concatenate along columns.
    #[cfg(test)]
    pub(crate) fn concat_cols(&mut self, xs: &[Var]) -> Var {
        assert!(!xs.is_empty());
        let rows = val(&self.nodes, xs[0]).rows();
        let total: usize = xs.iter().map(|&x| val(&self.nodes, x).cols()).sum();
        let mut v = self.arena.zeros(rows, total);
        let mut off = 0;
        for &x in xs {
            let xv = val(&self.nodes, x);
            assert_eq!(xv.rows(), rows, "concat shape mismatch");
            blit_cols(&mut v, off, xv, 0, xv.cols());
            off += xv.cols();
        }
        self.push(v, Op::ConcatCols(xs.to_vec()))
    }

    /// Gather rows `idxs` from `x` (extracting a sequence's last-token
    /// representation, or looking up embeddings).
    /// Duplicate indices are allowed.
    pub(crate) fn gather_rows(&mut self, x: Var, idxs: &[usize]) -> Var {
        let xv = val(&self.nodes, x);
        let mut v = self.arena.zeros(idxs.len(), xv.cols());
        for (r, &i) in idxs.iter().enumerate() {
            assert!(i < xv.rows(), "gather_rows index {i} out of range");
            v.row_mut(r).copy_from_slice(xv.row(i));
        }
        self.push(
            v,
            Op::GatherRows {
                x,
                idxs: idxs.to_vec(),
            },
        )
    }

    /// Multi-head attention over one sequence as **one** node. `k`, `v` are
    /// `[len, dim]`, head `h` owning columns `[h·dh, (h+1)·dh)` with
    /// `dh = dim / heads`; `q` is `[q_len, dim]`: a query for every position
    /// (`q_len == len`), or only for the positions whose output is read.
    /// Returns the merged `[q_len, dim]` head outputs.
    ///
    /// Per head this runs what the composed ops `softmax_rows(Q·Kᵀ·scale)·V`
    /// run — the same products summed in the same order — on the head's
    /// columns where they lie (row stride `dim`): `softmax_block` computes
    /// the head's `[q_len, len]` probabilities into one scratch block, reused
    /// by every head, and the output goes straight into its column block. No
    /// probabilities are saved: backward recomputes each block through the
    /// same function, bit for bit.
    pub(crate) fn attention(&mut self, q: Var, k: Var, v: Var, heads: usize) -> Var {
        let [qv, kv, vv] = [q, k, v].map(|var| val(&self.nodes, var));
        let ((s, dim), ql) = (kv.shape(), qv.rows());
        assert!(
            vv.shape() == (s, dim) && qv.cols() == dim,
            "attention q/k/v shape mismatch"
        );
        assert!(
            s > 0 && ql > 0 && heads > 0 && dim > 0 && dim % heads == 0,
            "attention of {ql} queries over {s} positions, {dim} dims, {heads} heads"
        );
        let dh = dim / heads;
        // Each block of both is written whole, by kernels that overwrite.
        let mut out = self.arena.unfilled(ql, dim);
        let mut block = self.arena.unfilled(ql, s);
        let [qd, kd, vd] = [qv, kv, vv].map(Tensor::as_slice);
        for at in (0..heads).map(|h| h * dh) {
            let p = block.as_mut_slice();
            softmax_block(p, &qd[at..], &kd[at..], dim, s, dh, ql);
            let out_h = &mut out.as_mut_slice()[at..];
            matmul_band(p, &vd[at..], out_h, [s, dim, dim], s, dh, 0, ql);
        }
        self.arena.recycle(block);
        let op = Op::Attention {
            qkv: [q, k, v],
            heads,
        };
        self.push(out, op)
    }

    /// Run reverse-mode accumulation from `loss` (seeded with ones) for one
    /// pass of a minibatch recorded in one or several, continuing the
    /// parameter gradients in `running` (`Gradients::default()` for the
    /// first pass), which the pass before returned and whose parameters this
    /// pass lent at the same vars (what it holds for other leaves goes back
    /// to the arena). A parameter gradient is one reduction over the
    /// minibatch's rows in ascending order, and this pass's arm resumes it
    /// where the last pass left off instead of starting at `+0.0` and adding:
    /// `at_b` continues into a weight ([`Chain::Continue`]), column sums into
    /// a bias, the layer norm's row loop into its gain and bias, the scatter
    /// into an embedding table. So after the last pass each is what one pass
    /// over every row computes, bit for bit (DESIGN.md, "NN step memory").
    ///
    /// # Panics
    /// Panics on a [`forward_only`] tape, whose layers freed what this walks;
    /// if `running` holds a parameter gradient this pass has no such
    /// parameter for; and, naming the parameter, if a carried gradient takes
    /// a second contribution in one pass or one from an op that does not sum
    /// over rows — no single chain continues those.
    pub fn backward_into(&mut self, loss: Var, running: Gradients) -> Gradients {
        assert!(!self.forward_only, "backward on a forward-only tape");
        let Tape {
            nodes,
            arena,
            params,
            param_names,
            ..
        } = self;
        let param_names: &[String] = param_names;
        let param_vars = params.map_or(0..0, |first| first..first + param_names.len());
        let mut slots = Slots {
            grads: (0..nodes.len()).map(|_| None).collect(),
            carried: vec![None; nodes.len()],
            params: (param_vars.start, param_names),
        };
        for (i, g) in running.grads.into_iter().enumerate() {
            let Some(g) = g else { continue };
            if !param_vars.contains(&i) {
                arena.recycle(g);
                continue;
            }
            assert!(
                val(nodes, Var(i)).shape() == g.shape(),
                "a carried gradient for parameter {} of another shape",
                slots.name(Var(i))
            );
            slots.grads[i] = Some(g);
            slots.carried[i] = Some(false);
        }
        let (lr, lc) = val(nodes, loss).shape();
        let mut seed = arena.zeros(lr, lc);
        seed.as_mut_slice().fill(1.0);
        slots.grads[loss.0] = Some(seed);

        for i in (0..=loss.0).rev() {
            let Some(g) = slots.grads[i].take() else {
                continue;
            };
            // Every arm hands `g` on or returns it to the arena.
            match &nodes[i].op {
                Op::Leaf => slots.grads[i] = Some(g),
                #[cfg(test)]
                &Op::MatMul(a, b) => {
                    let ga = a_bt(arena, &g, val(nodes, b));
                    slots.accum(arena, a, ga);
                    let mut gb = slots.open(arena, b, val(nodes, b).shape());
                    val(nodes, a).matmul_at_b_into(&g, &mut gb, Chain::Continue);
                    slots.close(arena, b, gb);
                    arena.recycle(g);
                }
                &Op::Linear(x, w, b) => {
                    let gx = a_bt(arena, &g, val(nodes, w));
                    slots.accum(arena, x, gx);
                    let mut gw = slots.open(arena, w, val(nodes, w).shape());
                    val(nodes, x).matmul_at_b_into(&g, &mut gw, Chain::Continue);
                    slots.close(arena, w, gw);
                    let mut gb = slots.open(arena, b, (1, g.cols()));
                    g.col_sums_into(&mut gb);
                    slots.close(arena, b, gb);
                    arena.recycle(g);
                }
                &Op::Add(a, b) => {
                    let copy = arena.copy_of(&g);
                    slots.accum(arena, a, copy);
                    slots.accum(arena, b, g);
                }
                #[cfg(test)]
                &Op::AddRow(a, row) => {
                    let mut gr = slots.open(arena, row, (1, g.cols()));
                    g.col_sums_into(&mut gr);
                    slots.close(arena, row, gr);
                    slots.accum(arena, a, g);
                }
                #[cfg(test)]
                &Op::Scale(a, s) => {
                    let mut ga = g;
                    for x in ga.as_mut_slice() {
                        *x *= s;
                    }
                    slots.accum(arena, a, ga);
                }
                &Op::AddConst(a) => slots.accum(arena, a, g),
                &Op::Relu(a) => {
                    let mut gx = g;
                    let x = val(nodes, a);
                    // A select, not a conditional store: the same bits, and
                    // the loop vectorises without a mispredicted branch.
                    for (gv, &xv) in gx.as_mut_slice().iter_mut().zip(x.as_slice()) {
                        *gv = if xv <= 0.0 { 0.0 } else { *gv };
                    }
                    slots.accum(arena, a, gx);
                }
                #[cfg(test)]
                &Op::SoftmaxRows(a) => {
                    let mut gx = g;
                    let y = val(nodes, Var(i));
                    for r in 0..y.rows() {
                        softmax_backward_row(gx.row_mut(r), y.row(r));
                    }
                    slots.accum(arena, a, gx);
                }
                &Op::LayerNorm { x, gain, bias } => {
                    let xv = val(nodes, x);
                    let gv = val(nodes, gain);
                    let (m, n) = xv.shape();
                    let nf = n as f32;
                    let mut gx = arena.zeros(m, n);
                    let mut ggain = slots.open(arena, gain, (1, n));
                    let mut gbias = slots.open(arena, bias, (1, n));
                    let [mut xhat_buf, mut dxhat_buf] = [(); 2].map(|_| arena.zeros(1, n));
                    let (xhat, dxhat) = (xhat_buf.as_mut_slice(), dxhat_buf.as_mut_slice());
                    let grad = Some((&g, gv.row(0)));
                    ln_rows(
                        active_isa(),
                        xv,
                        grad,
                        |r, [mean, inv, sum_dxhat, sum_dxhat_xhat]| {
                            let (row, grow) = (xv.row(r), g.row(r));
                            // xhat and dxhat for this row: the operations its
                            // sums were taken over.
                            for (((xh, dxh), &x), (&gy, &gn)) in xhat
                                .iter_mut()
                                .zip(dxhat.iter_mut())
                                .zip(row)
                                .zip(grow.iter().zip(gv.row(0)))
                            {
                                *xh = (x - mean) * inv;
                                *dxh = gy * gn;
                            }
                            for ((gg, gb), (&gy, &xh)) in ggain
                                .as_mut_slice()
                                .iter_mut()
                                .zip(gbias.as_mut_slice())
                                .zip(grow.iter().zip(xhat.iter()))
                            {
                                *gg += gy * xh;
                                *gb += gy;
                            }
                            for ((o, &dxh), &xh) in
                                gx.row_mut(r).iter_mut().zip(dxhat.iter()).zip(xhat.iter())
                            {
                                *o = inv * (dxh - sum_dxhat / nf - xh * sum_dxhat_xhat / nf);
                            }
                        },
                    );
                    arena.recycle(xhat_buf);
                    arena.recycle(dxhat_buf);
                    slots.accum(arena, x, gx);
                    slots.close(arena, gain, ggain);
                    slots.close(arena, bias, gbias);
                    arena.recycle(g);
                }
                #[cfg(test)]
                &Op::Transpose(a) => {
                    let ga = transposed(arena, &g);
                    slots.accum(arena, a, ga);
                    arena.recycle(g);
                }
                #[cfg(test)]
                &Op::SliceCols(x, start) => {
                    let (m, n) = val(nodes, x).shape();
                    let mut gx = arena.zeros(m, n);
                    blit_cols(&mut gx, start, &g, 0, g.cols());
                    slots.accum(arena, x, gx);
                    arena.recycle(g);
                }
                #[cfg(test)]
                Op::ConcatCols(xs) => {
                    let mut off = 0;
                    for &xvar in xs {
                        let (m, n) = val(nodes, xvar).shape();
                        let mut gx = arena.zeros(m, n);
                        blit_cols(&mut gx, 0, &g, off, n);
                        off += n;
                        slots.accum(arena, xvar, gx);
                    }
                    arena.recycle(g);
                }
                Op::GatherRows { x, idxs } => {
                    let mut gx = slots.open(arena, *x, val(nodes, *x).shape());
                    for (r, &i) in idxs.iter().enumerate() {
                        for (t, gv) in gx.row_mut(i).iter_mut().zip(g.row(r)) {
                            *t += gv;
                        }
                    }
                    slots.close(arena, *x, gx);
                    arena.recycle(g);
                }
                Op::Attention { qkv, heads } => {
                    let vals = qkv.map(|var| val(nodes, var));
                    let dqkv = attention_backward(arena, &g, vals, *heads);
                    for (&var, d) in qkv.iter().zip(dqkv) {
                        slots.accum(arena, var, d);
                    }
                    arena.recycle(g);
                }
                Op::BceWithLogits {
                    logits,
                    targets,
                    pos_weight,
                    rows,
                } => {
                    let p = *pos_weight;
                    let z = val(nodes, *logits);
                    let (m, n) = z.shape();
                    let scale = g.get(0, 0) / (rows * n) as f32;
                    let mut gz = arena.zeros(m, n);
                    for ((o, &zv), &t) in gz
                        .as_mut_slice()
                        .iter_mut()
                        .zip(z.as_slice())
                        .zip(targets.as_slice())
                    {
                        let s = sigmoid(zv);
                        // d/dz of  t*p*softplus(-z) + (1-t)*(z + softplus(-z))
                        *o = (t * p * (s - 1.0) + (1.0 - t) * s) * scale;
                    }
                    slots.accum(arena, *logits, gz);
                    arena.recycle(g);
                }
            }
        }
        // Only leaf gradients survive: every other arm consumed its own.
        Gradients { grads: slots.grads }
    }
}

/// Return everything a finished node owns to the arena.
fn release(arena: &mut Arena, node: Node<'_>) {
    if let Cow::Owned(t) = node.value {
        arena.recycle(t);
    }
    if let Op::BceWithLogits { targets, .. } = node.op {
        arena.recycle(targets);
    }
}

/// The gradient slots of one backward walk, and which of them continue a
/// gradient carried from an earlier pass ([`Tape::backward_into`]).
struct Slots<'t> {
    grads: Vec<Option<Tensor>>,
    /// Per var: `Some(false)` while a carried gradient waits for this pass's
    /// contribution, `Some(true)` once it has had it.
    carried: Vec<Option<bool>>,
    /// The var of the tape's first parameter and the names of all, to name
    /// a carried one in a panic.
    params: (usize, &'t [String]),
}

impl Slots<'_> {
    /// Hand `delta` to `var`: the first gradient to reach it, or added to
    /// the one already there.
    fn accum(&mut self, arena: &mut Arena, var: Var, delta: Tensor) {
        if self.carried[var.0].is_some() {
            panic!(
                "parameter {} takes a gradient that is not a sum over rows, \
                 which no later pass can continue",
                self.name(var)
            );
        }
        match &mut self.grads[var.0] {
            Some(g) => {
                g.add_scaled(&delta, 1.0);
                arena.recycle(delta);
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// The tensor this pass sums `var`'s gradient over its rows onto: the
    /// gradient carried from the passes before, or zeros. Hand it back with
    /// [`Slots::close`].
    fn open(&mut self, arena: &mut Arena, var: Var, (rows, cols): (usize, usize)) -> Tensor {
        match self.carried[var.0] {
            None => arena.zeros(rows, cols),
            Some(false) => {
                self.carried[var.0] = Some(true);
                self.grads[var.0].take().expect("a carried gradient")
            }
            Some(true) => panic!(
                "parameter {} takes a second gradient contribution in one pass, \
                 so its gradient is no longer one chain across passes",
                self.name(var)
            ),
        }
    }

    /// Take back what [`Slots::open`] handed out, summed onto.
    fn close(&mut self, arena: &mut Arena, var: Var, sum: Tensor) {
        if self.carried[var.0].is_some() {
            self.grads[var.0] = Some(sum);
        } else {
            self.accum(arena, var, sum);
        }
    }

    /// A carried `var`'s parameter name, quoted.
    fn name(&self, var: Var) -> String {
        let (first, names) = self.params;
        format!("`{}`", names[var.0 - first])
    }
}

/// `a·bᵀ` into an arena tensor.
fn a_bt(arena: &mut Arena, a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = arena.unfilled(a.rows(), b.rows());
    a.matmul_a_bt_into(b, &mut out);
    out
}

/// `a` plus `c` tiled down the rows: row `r` gets row `r mod c.rows()` of
/// `c` — one row broadcast, or a row each from a constant as tall.
fn add_tiled(arena: &mut Arena, a: &Tensor, c: &Tensor) -> Tensor {
    let mut out = arena.copy_of(a);
    for r in 0..out.rows() {
        for (x, cv) in out.row_mut(r).iter_mut().zip(c.row(r % c.rows())) {
            *x += cv;
        }
    }
    out
}

/// Lanes of [`fold_lanes`].
const SOFTMAX_LANES: usize = 8;

/// `f` folded over `row` in [`SOFTMAX_LANES`] independent lanes — element `i`
/// into lane `i % SOFTMAX_LANES`, however long the row is — and the lanes
/// then combined in [`fold_tree`].
fn fold_lanes(row: &[f32], init: f32, f: impl Fn(f32, f32) -> f32) -> f32 {
    let mut lanes = [init; SOFTMAX_LANES];
    let mut chunks = row.chunks_exact(SOFTMAX_LANES);
    for chunk in &mut chunks {
        for (lane, &x) in lanes.iter_mut().zip(chunk) {
            *lane = f(*lane, x);
        }
    }
    for (lane, &x) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = f(*lane, x);
    }
    fold_tree(lanes, f)
}

/// The one tree every lane fold is combined in, the vector row kernels'
/// included.
fn fold_tree(
    [l0, l1, l2, l3, l4, l5, l6, l7]: [f32; SOFTMAX_LANES],
    f: impl Fn(f32, f32) -> f32,
) -> f32 {
    f(f(f(l0, l1), f(l2, l3)), f(f(l4, l5), f(l6, l7)))
}

/// The max fold's step. `>` passes over a NaN as `f32::max` does, and is
/// one instruction: x86's `maxps(x, m)` is this select, lane for lane.
fn max_step(m: f32, x: f32) -> f32 {
    if x > m {
        x
    } else {
        m
    }
}

/// [`exp_nonpositive`]'s constants, the Cephes `expf`'s digit for digit.
/// Adding `EXP_ROUND` (1.5·2²³) leaves no fraction bits.
const EXP_ROUND: f32 = 12_582_912.0;
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693359375;
#[allow(clippy::excessive_precision)]
const LN2_LO: f32 = -2.12194440e-4;
#[allow(clippy::excessive_precision)]
const EXP_POLY: [f32; 6] = [
    1.9875691500e-4,
    1.3981999507e-3,
    8.3334519073e-3,
    4.1665795894e-2,
    1.6666665459e-1,
    5.0000001201e-1,
];

/// `exp(x)` for `x <= 0`, within 8.1e-8 relative of the exact value down to
/// −87 (libm's `expf`: 6.0e-8) and exactly `0.0` below, `exp(0) == 1.0`
/// exactly, NaN for NaN. The Cephes `expf` — `x = n·ln 2 + r`, a degree-5
/// polynomial in `r`, `2ⁿ` through the exponent bits — written as f32
/// multiplies and adds and one select (no fused multiply-add, no call, no
/// data-dependent jump), each a correctly rounded IEEE operation: the result
/// is a function of `x` alone, whatever instructions the loop around it
/// compiles to.
#[inline]
fn exp_nonpositive(x: f32) -> f32 {
    // `t` holds `x·log₂e` rounded to an integer `n` in its low mantissa
    // bits; a `round()` or a cast here would keep the loop from vectorising
    // on baseline SSE2 / NEON.
    let t = x * std::f32::consts::LOG2_E + EXP_ROUND;
    let n = t - EXP_ROUND;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut p = EXP_POLY[0];
    for c in &EXP_POLY[1..] {
        p = p * r + c;
    }
    let exp_r = p * (r * r) + r + 1.0;
    // EXP_ROUND's own bits shift out: what is left is `n + 127`, the
    // exponent field of 2ⁿ. Below −87 (2ⁿ leaves the normal range near
    // −87.3) `n` is out of that field's range and the product is discarded
    // unread.
    let two_n = f32::from_bits(t.to_bits().wrapping_add(127) << 23);
    if x < -87.0 {
        0.0
    } else {
        exp_r * two_n
    }
}

/// Softmax of one row, in place: the one row function, behind the fused
/// attention node and the composed [`Tape::softmax_rows`] alike.
///
/// The maximum is subtracted, [`exp_nonpositive`] applied, and the sum kept
/// in lanes by position ([`fold_lanes`]). Contract: the bits of an
/// output depend on the row's values only, not on the instruction set the
/// loops compile to. The largest element maps through `exp(0) == 1`. A NaN
/// anywhere makes the whole row NaN, payload and sign unspecified.
fn softmax_in_place(row: &mut [f32]) {
    let mx = fold_lanes(row, f32::NEG_INFINITY, max_step);
    for x in row.iter_mut() {
        *x = exp_nonpositive(*x - mx);
    }
    let inv = 1.0 / fold_lanes(row, 0.0, |sum, x| sum + x);
    for x in row.iter_mut() {
        *x *= inv;
    }
}

/// Turn one row of `d loss / d softmax` into `d loss / d input`, in place:
/// `g ← y · (g − Σ g·y)`.
#[cfg(test)]
fn softmax_backward_row(g: &mut [f32], y: &[f32]) {
    let dot = softmax_dot(g, y);
    for (g, y) in g.iter_mut().zip(y) {
        *g = y * (*g - dot);
    }
}

/// `Σ g·y` of one row: `Sum`'s chain, ascending from `-0.0`.
fn softmax_dot(g: &[f32], y: &[f32]) -> f32 {
    g.iter().zip(y).map(|(g, y)| g * y).sum()
}

/// Rows a vector of the lane = row sums holds.
const ROW_LANES: usize = 8;

/// Whether `isa` runs the AVX2 row kernels: both x86 rungs do (the
/// AVX-512 one's row work is AVX2's).
fn row_kernels(isa: Isa) -> bool {
    cfg!(target_arch = "x86_64") && matches!(isa, Isa::Avx2 | Isa::Avx512)
}

/// Each `s`-long row of `p` scaled by `scale`, then [`softmax_in_place`]'s
/// operations on it, on `isa`'s arm: four rows at a time on the x86 arms,
/// every row's own operations in its own order, so only their dependency
/// chains overlap.
fn softmax_scaled_rows(isa: Isa, p: &mut [f32], s: usize, scale: f32) {
    if row_kernels(isa) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the x86 arms are detected only where AVX2 runs, and
        // the row kernels need nothing else.
        return unsafe { rows_avx2::softmax_scaled_rows(p, s, scale) };
    }
    for row in p.chunks_exact_mut(s) {
        row.iter_mut().for_each(|x| *x *= scale);
        softmax_in_place(row);
    }
}

/// Softmax backward over the `s`-long rows of `ds` and `p`, in place:
/// `dS = P·(dP − Σ dP·P)·scale` row for row, `ds` holding `dP` in and `dS`
/// out. The [`softmax_dot`] chains run eight rows at a time, one per lane,
/// on the x86 arms while eight remain, then one at a time.
fn softmax_backward_rows(isa: Isa, ds: &mut [f32], p: &[f32], s: usize, scale: f32) {
    let apply = |g: &mut [f32], y: &[f32], dot: f32| {
        for (g, y) in g.iter_mut().zip(y) {
            *g = y * (*g - dot);
            *g *= scale;
        }
    };
    let (rows, mut r0) = (p.len() / s, 0);
    if row_kernels(isa) {
        #[cfg(target_arch = "x86_64")]
        while rows - r0 >= ROW_LANES {
            // SAFETY: as in `softmax_scaled_rows`.
            let dots = unsafe { rows_avx2::softmax_dots(&ds[r0 * s..], &p[r0 * s..], s) };
            for (r, dot) in (r0..).zip(dots) {
                apply(&mut ds[r * s..][..s], &p[r * s..][..s], dot);
            }
            r0 += ROW_LANES;
        }
    }
    for r in r0..rows {
        let (g, y) = (&mut ds[r * s..][..s], &p[r * s..][..s]);
        apply(g, y, softmax_dot(g, y));
    }
}

/// One row's layer-norm statistics, `[mean, 1/√(var + ε), Σ dx̂, Σ dx̂·x̂]`
/// with `x̂ = (x − mean)·inv` and, given `grad = (g, gain)`, `dx̂ = g·gain`
/// (else the two sums stay `0.0`): the mean and variance are `Sum`'s
/// chains from `-0.0`, the two gradient sums chains from `+0.0`.
fn ln_row(row: &[f32], grad: Option<(&[f32], &[f32])>) -> [f32; 4] {
    let nf = row.len() as f32;
    let mean = row.iter().sum::<f32>() / nf;
    let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / nf;
    let inv = 1.0 / (var + LN_EPS).sqrt();
    let (mut sum_dxhat, mut sum_dxhat_xhat) = (0.0, 0.0);
    if let Some((grow, gain)) = grad {
        for ((&x, &gy), &gn) in row.iter().zip(grow).zip(gain) {
            let (xh, dxh) = ((x - mean) * inv, gy * gn);
            sum_dxhat += dxh;
            sum_dxhat_xhat += dxh * xh;
        }
    }
    [mean, inv, sum_dxhat, sum_dxhat_xhat]
}

/// [`ln_row`] of each row of `x` (and of `grad`'s `g`), handed to `f` with
/// the row's index, rows ascending: eight rows at a time, one per lane, on
/// the x86 arms while eight remain, then one at a time.
fn ln_rows(
    isa: Isa,
    x: &Tensor,
    grad: Option<(&Tensor, &[f32])>,
    mut f: impl FnMut(usize, [f32; 4]),
) {
    let (m, mut r0) = (x.rows(), 0);
    if row_kernels(isa) {
        #[cfg(target_arch = "x86_64")]
        while m - r0 >= ROW_LANES {
            let span = r0 * x.cols()..(r0 + ROW_LANES) * x.cols();
            let grad = grad.map(|(g, gain)| (&g.as_slice()[span.clone()], gain));
            // SAFETY: as in `softmax_scaled_rows`.
            let stats = unsafe { rows_avx2::ln_row_stats(&x.as_slice()[span], x.cols(), grad) };
            (r0..).zip(stats).for_each(|(r, stats)| f(r, stats));
            r0 += ROW_LANES;
        }
    }
    for r in r0..m {
        f(r, ln_row(x.row(r), grad.map(|(g, gain)| (g.row(r), gain))));
    }
}

/// One head's block of [`Tape::attention`]'s probabilities into `p`
/// (`[q_len, s]`): `softmax(Q_h·K_hᵀ·scale)` with `scale = 1/√dh`. `q` and
/// `k` start at the head's first element, row stride `dim`. Forward and
/// [`attention_backward`] both call it on the same inputs, so the block
/// backward recomputes is the block forward used, bit for bit, on every
/// dispatch arm.
fn softmax_block(
    p: &mut [f32],
    q: &[f32],
    k: &[f32],
    dim: usize,
    s: usize,
    dh: usize,
    q_len: usize,
) {
    let scale = 1.0 / (dh as f32).sqrt();
    a_bt_band(q, k, p, [dim, dim, s], dh, s, 0, q_len);
    softmax_scaled_rows(active_isa(), p, s, scale);
}

/// Backward of [`Tape::attention`]: `[dq, dk, dv]` given `g = d loss / d out`
/// (`g` and `dq` have `q`'s rows, `dk` and `dv` have `k`'s). Mirrors, per
/// head, the backward of the composed ops — the same products in the same
/// order — reading each head's columns where they lie and writing each
/// block gradient straight into its columns of the result (blocks are
/// disjoint and cover it, so nothing is cleared or accumulated across
/// them). Two `[q_len, s]` blocks are the only scratch: `block`, the head's
/// probabilities recomputed by [`softmax_block`], and `gp`, its `dP` then
/// `dS`.
fn attention_backward(
    arena: &mut Arena,
    g: &Tensor,
    [q, k, v]: [&Tensor; 3],
    heads: usize,
) -> [Tensor; 3] {
    let ((s, dim), ql) = (k.shape(), q.rows());
    let dh = dim / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut dq = arena.unfilled(ql, dim);
    let [mut dk, mut dv] = [(); 2].map(|_| arena.unfilled(s, dim));
    let [mut block, mut gp] = [(); 2].map(|_| arena.unfilled(ql, s));
    let [gd, qd, kd, vd] = [g, q, k, v].map(Tensor::as_slice);
    let isa = active_isa();
    for at in (0..heads).map(|h| h * dh) {
        let p = block.as_mut_slice();
        softmax_block(p, &qd[at..], &kd[at..], dim, s, dh, ql);
        let ds = gp.as_mut_slice();
        // out = P·V: dP = dOut·Vᵀ, dV = Pᵀ·dOut.
        a_bt_band(&gd[at..], &vd[at..], ds, [dim, dim, s], dh, s, 0, ql);
        let dv_h = &mut dv.as_mut_slice()[at..];
        at_b_band(
            p,
            &gd[at..],
            dv_h,
            [s, dim, dim],
            ql,
            dh,
            0,
            s,
            Chain::Start,
        );
        // P = softmax(S·scale).
        softmax_backward_rows(isa, ds, p, s, scale);
        // S = Q·Kᵀ: dQ = dS·K, dK = dSᵀ·Q.
        let dq_h = &mut dq.as_mut_slice()[at..];
        matmul_band(ds, &kd[at..], dq_h, [s, dim, dim], s, dh, 0, ql);
        let dk_h = &mut dk.as_mut_slice()[at..];
        at_b_band(
            ds,
            &qd[at..],
            dk_h,
            [s, dim, dim],
            ql,
            dh,
            0,
            s,
            Chain::Start,
        );
    }
    arena.recycle(block);
    arena.recycle(gp);
    [dq, dk, dv]
}

#[inline]
fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

#[inline]
fn softplus(z: f32) -> f32 {
    z.max(0.0) + (-z.abs()).exp().ln_1p()
}

/// Numerically stable multi-label binary cross-entropy with logits, averaged
/// over all elements — PyTorch's `BCEWithLogitsLoss` with an optional
/// `pos_weight` (useful here because almost all page labels are 0) — as a
/// `[1,1]` scalar var, for one pass of a minibatch of `rows` rows. `total`
/// holds the `f64` sum of the element losses of the passes before (`0.0`
/// for the first); this pass's are added on, element after element, and the
/// node's value is `total / (rows·cols)` — after the last pass, exactly the
/// mean one pass over every row reports. Backward scales by `1 / (rows·cols)`
/// too, so each pass contributes its rows' share of that mean's gradient.
pub fn bce_with_logits_over(
    tape: &mut Tape<'_>,
    logits: Var,
    targets: Tensor,
    pos_weight: f32,
    rows: usize,
    total: &mut f64,
) -> Var {
    let z = tape.value(logits);
    assert_eq!(z.shape(), targets.shape(), "bce shape mismatch");
    assert!(z.rows() <= rows, "a pass of more rows than its minibatch");
    for (&zv, &t) in z.as_slice().iter().zip(targets.as_slice()) {
        let l = t * pos_weight * softplus(-zv) + (1.0 - t) * (zv + softplus(-zv));
        *total += l as f64;
    }
    let mean = (*total / (rows * z.cols()) as f64) as f32;
    let mut v = tape.zeros(1, 1);
    v.set(0, 0, mean);
    tape.push(
        v,
        Op::BceWithLogits {
            logits,
            targets,
            pos_weight,
            rows,
        },
    )
}

/// The AVX2 row kernels of both x86 arms. Each lane replays one row's
/// scalar operations in their order: a softmax row's eight position lanes
/// stay eight vector lanes, combined in [`fold_tree`]; a row sum of
/// [`softmax_dot`] or [`ln_row`] is one lane of a vector of eight rows, read
/// a column at a time by a gather. No `fmadd`: every step is the scalar
/// path's correctly rounded mul, add, sub, div or sqrt.
#[cfg(target_arch = "x86_64")]
mod rows_avx2 {
    use super::{fold_tree, max_step, EXP_POLY, EXP_ROUND, LN2_HI, LN2_LO, LN_EPS, ROW_LANES};
    use std::arch::x86_64::*;

    /// The eight lanes of `v`, lane 0 first.
    fn lanes(v: __m256) -> [f32; 8] {
        // SAFETY: both are 32 bytes of plain f32s.
        unsafe { std::mem::transmute(v) }
    }

    /// [`exp_nonpositive`](super::exp_nonpositive) in each lane: its
    /// operations, one vector instruction each.
    #[target_feature(enable = "avx2")]
    fn exp_nonpositive(x: __m256) -> __m256 {
        let round = _mm256_set1_ps(EXP_ROUND);
        let t = _mm256_add_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E)),
            round,
        );
        let n = _mm256_sub_ps(t, round);
        let r = _mm256_sub_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI))),
            _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)),
        );
        let mut p = _mm256_set1_ps(EXP_POLY[0]);
        for &c in &EXP_POLY[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
        }
        let exp_r = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
            _mm256_set1_ps(1.0),
        );
        let field = _mm256_add_epi32(_mm256_castps_si256(t), _mm256_set1_epi32(127));
        let two_n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(field));
        let below = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(-87.0));
        _mm256_andnot_ps(below, _mm256_mul_ps(exp_r, two_n))
    }

    /// [`softmax_scaled_rows`](super::softmax_scaled_rows) on AVX2: four
    /// rows at a time, then one.
    #[target_feature(enable = "avx2")]
    pub(super) fn softmax_scaled_rows(p: &mut [f32], s: usize, scale: f32) {
        let mut fours = p.chunks_exact_mut(4 * s);
        for rows in &mut fours {
            softmax_rows::<4>(rows, s, scale);
        }
        for row in fours.into_remainder().chunks_exact_mut(s) {
            softmax_rows::<1>(row, s, scale);
        }
    }

    /// `R` rows of `s` (the whole of `p`), each scaled and then put through
    /// [`softmax_in_place`](super::softmax_in_place)'s steps: the maximum
    /// in eight lanes by position, the exp, the sum in the same lanes, both
    /// folds combined in [`fold_tree`], `1/sum`, the normalize. A row's last
    /// partial vector is read and written under a mask, and its dead lanes
    /// keep their fold.
    #[target_feature(enable = "avx2")]
    fn softmax_rows<const R: usize>(p: &mut [f32], s: usize, scale: f32) {
        assert_eq!(p.len(), R * s, "softmax rows of {s}");
        let whole = s - s % 8;
        let live = _mm256_cmpgt_epi32(
            _mm256_set1_epi32((s % 8) as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let keep = _mm256_castsi256_ps(live);
        let base = p.as_mut_ptr();
        let at = |r: usize, j: usize| base.wrapping_add(r * s + j);
        // SAFETY (every load and store below): `at(r, j)` with `r < R` and
        // `j < whole` starts eight floats inside row `r`, and the masked
        // access at `j = whole` touches only the row's `s % 8` last floats.
        let scale = _mm256_set1_ps(scale);
        let mut acc = [_mm256_set1_ps(f32::NEG_INFINITY); R];
        for j in (0..whole).step_by(8) {
            for (r, acc) in acc.iter_mut().enumerate() {
                let x = _mm256_mul_ps(unsafe { _mm256_loadu_ps(at(r, j)) }, scale);
                unsafe { _mm256_storeu_ps(at(r, j), x) };
                *acc = _mm256_max_ps(x, *acc);
            }
        }
        if whole < s {
            for (r, acc) in acc.iter_mut().enumerate() {
                let x = _mm256_mul_ps(unsafe { _mm256_maskload_ps(at(r, whole), live) }, scale);
                unsafe { _mm256_maskstore_ps(at(r, whole), live, x) };
                *acc = _mm256_blendv_ps(*acc, _mm256_max_ps(x, *acc), keep);
            }
        }
        let mut mx = [_mm256_setzero_ps(); R];
        for (m, acc) in mx.iter_mut().zip(acc) {
            *m = _mm256_set1_ps(fold_tree(lanes(acc), max_step));
        }
        let mut sum = [_mm256_setzero_ps(); R];
        for j in (0..whole).step_by(8) {
            for (r, sum) in sum.iter_mut().enumerate() {
                let e = exp_nonpositive(_mm256_sub_ps(unsafe { _mm256_loadu_ps(at(r, j)) }, mx[r]));
                unsafe { _mm256_storeu_ps(at(r, j), e) };
                *sum = _mm256_add_ps(*sum, e);
            }
        }
        if whole < s {
            for (r, sum) in sum.iter_mut().enumerate() {
                let x = unsafe { _mm256_maskload_ps(at(r, whole), live) };
                let e = exp_nonpositive(_mm256_sub_ps(x, mx[r]));
                unsafe { _mm256_maskstore_ps(at(r, whole), live, e) };
                *sum = _mm256_blendv_ps(*sum, _mm256_add_ps(*sum, e), keep);
            }
        }
        let mut inv = [_mm256_setzero_ps(); R];
        for (inv, sum) in inv.iter_mut().zip(sum) {
            *inv = _mm256_set1_ps(1.0 / fold_tree(lanes(sum), |sum, x| sum + x));
        }
        for j in (0..whole).step_by(8) {
            for (r, inv) in inv.iter().enumerate() {
                let y = _mm256_mul_ps(unsafe { _mm256_loadu_ps(at(r, j)) }, *inv);
                unsafe { _mm256_storeu_ps(at(r, j), y) };
            }
        }
        if whole < s {
            for (r, inv) in inv.iter().enumerate() {
                let y = _mm256_mul_ps(unsafe { _mm256_maskload_ps(at(r, whole), live) }, *inv);
                unsafe { _mm256_maskstore_ps(at(r, whole), live, y) };
            }
        }
    }

    /// Offsets, in floats, of the first elements of eight rows `stride`
    /// apart: a gather through them reads one column of the eight.
    #[target_feature(enable = "avx2")]
    fn row_starts(stride: usize) -> __m256i {
        let last = i32::try_from(stride * (ROW_LANES - 1));
        assert!(
            last.is_ok(),
            "rows {stride} floats apart are too far to gather"
        );
        _mm256_mullo_epi32(
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            _mm256_set1_epi32(stride as i32),
        )
    }

    /// Column `c` of the eight rows at `starts` in `m`.
    ///
    /// # Safety
    /// Each row must reach column `c` inside `m`.
    #[target_feature(enable = "avx2")]
    unsafe fn column(m: &[f32], starts: __m256i, c: usize) -> __m256 {
        _mm256_i32gather_ps::<4>(m.as_ptr().add(c), starts)
    }

    /// [`softmax_dot`](super::softmax_dot) of the eight `s`-long rows at
    /// the start of `g` and `y`, row `r` in lane `r`: each lane the chain
    /// `acc + g·y`, ascending from `-0.0`.
    #[target_feature(enable = "avx2")]
    pub(super) fn softmax_dots(g: &[f32], y: &[f32], s: usize) -> [f32; ROW_LANES] {
        assert!(g.len().min(y.len()) >= ROW_LANES * s, "eight rows of {s}");
        let starts = row_starts(s);
        let mut dot = _mm256_set1_ps(-0.0);
        for c in 0..s {
            // SAFETY: the assert above.
            let (g, y) = unsafe { (column(g, starts, c), column(y, starts, c)) };
            dot = _mm256_add_ps(dot, _mm256_mul_ps(g, y));
        }
        lanes(dot)
    }

    /// [`ln_row`](super::ln_row) of the eight `n`-long rows of `x` (and of
    /// `grad`'s `g`), row `r` in lane `r`.
    #[target_feature(enable = "avx2")]
    pub(super) fn ln_row_stats(
        x: &[f32],
        n: usize,
        grad: Option<(&[f32], &[f32])>,
    ) -> [[f32; 4]; ROW_LANES] {
        assert_eq!(x.len(), ROW_LANES * n, "eight rows of {n}");
        let (starts, nf) = (row_starts(n), _mm256_set1_ps(n as f32));
        // SAFETY (every gather): the assert above, and the one on `g`.
        let mut sum = _mm256_set1_ps(-0.0);
        for c in 0..n {
            sum = _mm256_add_ps(sum, unsafe { column(x, starts, c) });
        }
        let mean = _mm256_div_ps(sum, nf);
        let mut sq = _mm256_set1_ps(-0.0);
        for c in 0..n {
            let d = _mm256_sub_ps(unsafe { column(x, starts, c) }, mean);
            sq = _mm256_add_ps(sq, _mm256_mul_ps(d, d));
        }
        let var = _mm256_div_ps(sq, nf);
        let root = _mm256_sqrt_ps(_mm256_add_ps(var, _mm256_set1_ps(LN_EPS)));
        let inv = _mm256_div_ps(_mm256_set1_ps(1.0), root);
        let (mut sum_dxhat, mut sum_dxhat_xhat) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        if let Some((g, gain)) = grad {
            assert!(
                g.len() == x.len() && gain.len() == n,
                "eight gradient rows of {n}"
            );
            for (c, &gn) in gain.iter().enumerate() {
                let xh = _mm256_mul_ps(_mm256_sub_ps(unsafe { column(x, starts, c) }, mean), inv);
                let dxh = _mm256_mul_ps(unsafe { column(g, starts, c) }, _mm256_set1_ps(gn));
                sum_dxhat = _mm256_add_ps(sum_dxhat, dxh);
                sum_dxhat_xhat = _mm256_add_ps(sum_dxhat_xhat, _mm256_mul_ps(dxh, xh));
            }
        }
        let [mean, inv, sum_dxhat, sum_dxhat_xhat] =
            [mean, inv, sum_dxhat, sum_dxhat_xhat].map(lanes);
        std::array::from_fn(|r| [mean[r], inv[r], sum_dxhat[r], sum_dxhat_xhat[r]])
    }
}

#[cfg(test)]
fn transposed(arena: &mut Arena, a: &Tensor) -> Tensor {
    let mut out = arena.zeros(a.cols(), a.rows());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            out.set(c, r, a.get(r, c));
        }
    }
    out
}

/// Copy columns `[from, from + width)` of each row of `src` over columns
/// `[at, at + width)` of the same row of `dst`.
#[cfg(test)]
fn blit_cols(dst: &mut Tensor, at: usize, src: &Tensor, from: usize, width: usize) {
    for r in 0..src.rows() {
        dst.row_mut(r)[at..at + width].copy_from_slice(&src.row(r)[from..from + width]);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernels::host_isas;

    /// The mean BCE of `logits` against `targets`, as one pass over all of
    /// their rows.
    pub(crate) fn bce(tape: &mut Tape, logits: Var, targets: Tensor, pos_weight: f32) -> Var {
        let rows = tape.value(logits).rows();
        bce_with_logits_over(tape, logits, targets, pos_weight, rows, &mut 0.0)
    }

    /// Backward from `loss`, carrying no gradient in.
    pub(crate) fn backward(tape: &mut Tape, loss: Var) -> Gradients {
        tape.backward_into(loss, Gradients::default())
    }

    /// Central finite-difference check: `build` must construct the full graph
    /// from a leaf injected with tensor `x` and return the scalar loss var.
    fn gradcheck(x0: Tensor, build: impl Fn(&mut Tape, Var) -> Var) {
        // Analytic gradient.
        let mut tape = Tape::default();
        let x = tape.leaf(x0.clone());
        let loss = build(&mut tape, x);
        assert_eq!(tape.value(loss).shape(), (1, 1), "loss must be scalar");
        let grads = backward(&mut tape, loss);
        let analytic = grads.get(x).clone();

        // Numeric gradient.
        let eps = 1e-3f32;
        let (m, n) = x0.shape();
        for r in 0..m {
            for c in 0..n {
                let mut plus = x0.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let mut minus = x0.clone();
                minus.set(r, c, minus.get(r, c) - eps);
                let f = |t: Tensor| {
                    let mut tape = Tape::default();
                    let x = tape.leaf(t);
                    let loss = build(&mut tape, x);
                    tape.value(loss).get(0, 0)
                };
                let num = (f(plus) - f(minus)) / (2.0 * eps);
                let ana = analytic.get(r, c);
                assert!(
                    (num - ana).abs() < 2e-2 * (1.0 + num.abs().max(ana.abs())),
                    "grad mismatch at ({r},{c}): numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    /// Reduce any matrix to a scalar by BCE against fixed targets — gives a
    /// smooth scalarization for gradcheck.
    fn to_scalar(tape: &mut Tape, v: Var) -> Var {
        let (m, n) = tape.value(v).shape();
        let targets = Tensor::from_fn(m, n, |r, c| if (r + c) % 2 == 0 { 1.0 } else { 0.0 });
        bce(tape, v, targets, 1.0)
    }

    fn test_input(m: usize, n: usize) -> Tensor {
        Tensor::from_fn(m, n, |r, c| ((r * n + c) as f32) * 0.31 - 0.8)
    }

    #[test]
    fn grad_bce_direct() {
        gradcheck(test_input(2, 3), to_scalar);
    }

    #[test]
    fn grad_bce_pos_weight() {
        gradcheck(test_input(2, 3), |tape, x| {
            let t = Tensor::from_fn(2, 3, |r, _| if r == 0 { 1.0 } else { 0.0 });
            bce(tape, x, t, 3.5)
        });
    }

    #[test]
    fn grad_matmul() {
        gradcheck(test_input(2, 3), |tape, x| {
            let w = tape.leaf(Tensor::from_fn(3, 2, |r, c| {
                0.2 * (r as f32) - 0.1 * c as f32
            }));
            let y = tape.matmul(x, w);
            to_scalar(tape, y)
        });
    }

    #[test]
    fn grad_matmul_right_operand() {
        // Check gradient flowing to the right operand of matmul.
        gradcheck(test_input(3, 2), |tape, x| {
            let a = tape.leaf(Tensor::from_fn(2, 3, |r, c| 0.3 * (r + c) as f32 - 0.2));
            let y = tape.matmul(a, x);
            to_scalar(tape, y)
        });
    }

    #[test]
    fn grad_linear_input() {
        gradcheck(test_input(2, 3), |tape, x| {
            let w = tape.leaf(Tensor::from_fn(3, 2, |r, c| {
                0.2 * (r as f32) - 0.1 * c as f32
            }));
            let b = tape.leaf(Tensor::from_fn(1, 2, |_, c| 0.3 - 0.2 * c as f32));
            let y = tape.linear(x, w, b);
            to_scalar(tape, y)
        });
    }

    #[test]
    fn grad_linear_weight() {
        gradcheck(test_input(3, 2), |tape, w| {
            let x = tape.leaf(Tensor::from_fn(2, 3, |r, c| 0.3 * (r + c) as f32 - 0.2));
            let b = tape.leaf(Tensor::from_fn(1, 2, |_, c| 0.1 * c as f32));
            let y = tape.linear(x, w, b);
            to_scalar(tape, y)
        });
    }

    #[test]
    fn grad_linear_bias() {
        gradcheck(test_input(1, 2), |tape, b| {
            let x = tape.leaf(test_input(3, 4));
            let w = tape.leaf(Tensor::from_fn(4, 2, |r, c| {
                0.15 * (r as f32) - 0.1 * c as f32
            }));
            let y = tape.linear(x, w, b);
            to_scalar(tape, y)
        });
    }

    #[test]
    fn grad_two_heads_sum_into_a_shared_input() {
        // A multi-head classifier's step: one representation, a decoder and a
        // BCE per head, the losses added. The gradient into the shared input
        // is the sum of what each head sends back.
        gradcheck(test_input(2, 3), |tape, x| {
            let mut head = |width: usize, pos_weight: f32| {
                let w = tape.leaf(Tensor::from_fn(3, width, |r, c| {
                    0.2 * (r as f32) - 0.1 * (c + width) as f32
                }));
                let b = tape.leaf(Tensor::from_fn(1, width, |_, c| 0.3 - 0.2 * c as f32));
                let y = tape.linear(x, w, b);
                let t = Tensor::from_fn(2, width, |r, c| ((r + c + width) % 2) as f32);
                bce(tape, y, t, pos_weight)
            };
            let (narrow, wide) = (head(2, 1.0), head(5, 3.5));
            tape.add(narrow, wide)
        });
    }

    /// `a·w_a + b·w_b` under BCE, for rows `rows` of a 4-row minibatch.
    fn two_weight_graph(
        tape: &mut Tape,
        [wa, wb]: [Var; 2],
        rows: std::ops::Range<usize>,
        total: &mut f64,
    ) -> Var {
        let at = rows.start;
        let input = |shift: f32| {
            Tensor::from_fn(rows.len(), 3, |r, c| {
                0.1 * ((at + r) * 3 + c) as f32 - shift
            })
        };
        let (a, b) = (tape.leaf(input(0.4)), tape.leaf(input(0.9)));
        let (ya, yb) = (tape.matmul(a, wa), tape.matmul(b, wb));
        let y = tape.add(ya, yb);
        let targets = Tensor::from_fn(rows.len(), 2, |r, c| ((at + r + c) % 2) as f32);
        bce_with_logits_over(tape, y, targets, 1.0, 4, total)
    }

    /// One parameter, `tied.w`.
    fn tied() -> ParamSet {
        let mut params = ParamSet::new();
        params.add(
            "tied.w",
            Tensor::from_fn(3, 2, |r, c| 0.2 * r as f32 - 0.3 * c as f32),
        );
        params
    }

    #[test]
    fn a_tied_weight_in_one_pass_takes_the_sum_of_both_contributions() {
        let params = tied();
        let mut tape = Tape::default();
        let w = params.lend(&mut tape)[0];
        let loss = two_weight_graph(&mut tape, [w, w], 0..4, &mut 0.0);
        let tied = backward(&mut tape, loss);
        // The same weight as two parameters.
        let mut tape = Tape::default();
        let ws = [(); 2].map(|_| tape.leaf(params.get(ParamId(0)).clone()));
        let loss = two_weight_graph(&mut tape, ws, 0..4, &mut 0.0);
        let untied = backward(&mut tape, loss);
        let sum = untied.get(ws[0]).add(untied.get(ws[1]));
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(tied.get(w)), bits(&sum));
    }

    #[test]
    #[should_panic(
        expected = "parameter `tied.w` takes a second gradient contribution in one pass"
    )]
    fn a_tied_weight_in_two_passes_is_refused_by_name() {
        let params = tied();
        let mut tape = Tape::default();
        let (mut grads, mut total) = (Gradients::default(), 0.0);
        for rows in [0..2, 2..4] {
            tape.reset();
            let w = params.lend(&mut tape)[0];
            let loss = two_weight_graph(&mut tape, [w, w], rows, &mut total);
            grads = tape.backward_into(loss, grads);
        }
    }

    #[test]
    #[should_panic(expected = "parameter `w` takes a gradient that is not a sum over rows")]
    fn a_parameter_the_loss_reads_directly_cannot_continue() {
        let mut params = ParamSet::new();
        params.add("w", Tensor::zeros(1, 2));
        let mut tape = Tape::default();
        let mut grads = Gradients::default();
        for _ in 0..2 {
            tape.reset();
            let w = params.lend(&mut tape)[0];
            let loss = bce(&mut tape, w, Tensor::full(1, 2, 1.0), 1.0);
            grads = tape.backward_into(loss, grads);
        }
    }

    #[test]
    fn linear_matches_matmul_add_row() {
        let xv = test_input(3, 4);
        let wv = Tensor::from_fn(4, 2, |r, c| 0.07 * (r as f32) - 0.11 * c as f32);
        let bv = Tensor::from_fn(1, 2, |_, c| 0.4 - 0.3 * c as f32);

        let mut t1 = Tape::default();
        let (x1, w1, b1) = (
            t1.leaf(xv.clone()),
            t1.leaf(wv.clone()),
            t1.leaf(bv.clone()),
        );
        let y1 = t1.linear(x1, w1, b1);
        let l1 = to_scalar(&mut t1, y1);
        let g1 = backward(&mut t1, l1);

        let mut t2 = Tape::default();
        let (x2, w2, b2) = (t2.leaf(xv), t2.leaf(wv), t2.leaf(bv));
        let xw = t2.matmul(x2, w2);
        let y2 = t2.add_row(xw, b2);
        let l2 = to_scalar(&mut t2, y2);
        let g2 = backward(&mut t2, l2);

        assert_eq!(t1.value(y1), t2.value(y2));
        assert_eq!(g1.get(x1), g2.get(x2));
        assert_eq!(g1.get(w1), g2.get(w2));
        assert_eq!(g1.get(b1), g2.get(b2));
    }

    #[test]
    fn tape_reuse_after_reset_matches_fresh() {
        // Two minibatches through one reused tape must equal two fresh tapes.
        let run = |tape: &mut Tape, shift: f32| {
            let x = tape.leaf(Tensor::from_fn(3, 4, |r, c| {
                0.2 * (r * 4 + c) as f32 - shift
            }));
            let w = tape.leaf(Tensor::from_fn(4, 2, |r, c| {
                0.1 * (r as f32) - 0.05 * c as f32
            }));
            let b = tape.leaf(Tensor::from_fn(1, 2, |_, c| 0.2 * c as f32));
            let h = tape.linear(x, w, b);
            let a = tape.relu(h);
            let loss = to_scalar(tape, a);
            let grads = backward(tape, loss);
            let (gw, gb) = (grads.get(w).clone(), grads.get(b).clone());
            tape.absorb(grads);
            (tape.value(loss).get(0, 0), gw, gb)
        };
        let mut reused = Tape::default();
        let first_reused = run(&mut reused, 0.8);
        reused.reset();
        let second_reused = run(&mut reused, 0.3);

        let mut f1 = Tape::default();
        let mut f2 = Tape::default();
        assert_eq!(first_reused, run(&mut f1, 0.8));
        assert_eq!(second_reused, run(&mut f2, 0.3));
    }

    /// One training-shaped step on a reused tape: inputs drawn from the
    /// arena, forward, backward, gradients absorbed. The input is as wide as
    /// the model (6), and its `rows` are sequences of (at most) 4
    /// positions, gathered and attended each, so a shorter minibatch has
    /// fewer sequences of the same length.
    fn arena_step(tape: &mut Tape, rows: usize) {
        tape.reset();
        let mut x = tape.zeros(rows, 6);
        x.as_mut_slice().fill(0.3);
        let mut wv = tape.zeros(6, 6);
        wv.as_mut_slice().fill(0.1);
        let bv = tape.zeros(1, 6);
        let [x, w, b] = [x, wv, bv].map(|t| tape.leaf(t));
        let q = tape.linear(x, w, b);
        let len = rows.min(4);
        let mut sum = None;
        for s in 0..rows / len {
            let seq: Vec<usize> = (len * s..len * (s + 1)).collect();
            let q = tape.gather_rows(q, &seq);
            let a = tape.attention(q, q, q, 2);
            sum = Some(sum.map_or(a, |sum| tape.add(sum, a)));
        }
        let h = tape.relu(sum.expect("at least one sequence"));
        let targets = tape.zeros(len, 6);
        let loss = bce(tape, h, targets, 2.0);
        let grads = backward(tape, loss);
        tape.absorb(grads);
    }

    #[test]
    fn arena_does_not_ratchet_and_a_warm_step_allocates_nothing() {
        // The old LIFO pool grew every buffer to the largest tensor's size
        // and kept every backward temporary: retained bytes rose with each
        // step. The arena holds exactly one step's buffers, forever.
        let mut tape = Tape::default();
        for _ in 0..2 {
            arena_step(&mut tape, 8);
        }
        tape.reset();
        let (bytes, allocs) = (tape.retained_bytes(), tape.allocations());
        assert!(bytes > 0);
        for _ in 0..18 {
            arena_step(&mut tape, 8);
        }
        tape.reset();
        assert_eq!(tape.retained_bytes(), bytes, "retained bytes ratcheted");
        assert_eq!(tape.allocations(), allocs, "a warm step allocated");
    }

    #[test]
    fn a_short_minibatch_reuses_the_full_ones_buffers() {
        let warm = |rows: usize| {
            let mut tape = Tape::default();
            for _ in 0..2 {
                arena_step(&mut tape, rows);
            }
            tape
        };
        let mut full = warm(8);
        full.reset();
        let full_only = full.retained_bytes();
        // A short last minibatch after a warm full one allocates nothing...
        let mut tape = warm(8);
        let allocs = tape.allocations();
        arena_step(&mut tape, 4);
        assert_eq!(tape.allocations(), allocs, "a short step allocated");
        // ...and alternating with full ones, it leaves the arena holding
        // exactly what full steps alone hold: one set, not two.
        for _ in 0..3 {
            arena_step(&mut tape, 8);
            arena_step(&mut tape, 4);
        }
        assert_eq!(tape.allocations(), allocs);
        tape.reset();
        assert_eq!(tape.retained_bytes(), full_only);
        // Once only a shape under half the full one recurs, the full set is
        // freed.
        for _ in 0..3 {
            arena_step(&mut tape, 2);
        }
        tape.reset();
        let small_only = tape.retained_bytes();
        assert!(small_only < full_only);
        arena_step(&mut tape, 2);
        tape.reset();
        assert_eq!(tape.retained_bytes(), small_only);
    }

    #[test]
    fn a_buffer_is_never_lent_to_a_tensor_under_half_its_size() {
        let mut arena = Arena::default();
        let ten = arena.take(10);
        arena.recycle(Tensor::from_vec(1, 10, ten));
        // 4 < 10 / 2: a fresh buffer, and the 10 stays free.
        let four = arena.take(4);
        assert_eq!((four.len(), arena.allocs), (4, 2));
        arena.recycle(Tensor::from_vec(1, 4, four));
        // 5 takes the 10 (the 4 is too small), lent at exactly 5 elements...
        let five = arena.take(5);
        assert_eq!((five.len(), five.capacity(), arena.allocs), (5, 10, 2));
        // ...and filed back under its capacity, where a 10 finds it.
        arena.recycle(Tensor::from_vec(1, 5, five));
        let again = arena.take(10);
        assert_eq!((again.len(), arena.allocs), (10, 2));
        // Best fit: a 4 takes the 4, not the 10 beside it.
        arena.recycle(Tensor::from_vec(1, 10, again));
        assert_eq!(arena.take(4).capacity(), 4);
    }

    #[test]
    fn grad_attention_wrt_q_k_v() {
        // One sequence of 6 positions, two heads, with a query for every
        // position or (for `q`) only the last two.
        let other =
            |shift: f32| Tensor::from_fn(6, 4, |r, c| 0.17 * ((r * 4 + c) % 5) as f32 - shift);
        gradcheck(test_input(2, 4), |tape, q| {
            let (k, v) = (tape.leaf(other(0.3)), tape.leaf(other(0.1)));
            let y = tape.attention(q, k, v, 2);
            to_scalar(tape, y)
        });
        gradcheck(test_input(6, 4), |tape, k| {
            let (q, v) = (tape.leaf(other(0.3)), tape.leaf(other(0.1)));
            let y = tape.attention(q, k, v, 2);
            to_scalar(tape, y)
        });
        gradcheck(test_input(6, 4), |tape, v| {
            let (q, k) = (tape.leaf(other(0.3)), tape.leaf(other(0.1)));
            let y = tape.attention(q, k, v, 2);
            to_scalar(tape, y)
        });
    }

    #[test]
    #[should_panic(expected = "forward-only")]
    fn forward_only_tape_refuses_backward() {
        forward_only(|tape| {
            let x = tape.leaf(Tensor::full(1, 1, 0.5));
            let loss = bce(tape, x, Tensor::full(1, 1, 1.0), 1.0);
            backward(tape, loss);
        });
    }

    #[test]
    fn grad_add_and_scale() {
        gradcheck(test_input(2, 2), |tape, x| {
            let y = tape.scale(x, 1.7);
            let z = tape.add(y, x);
            to_scalar(tape, z)
        });
    }

    #[test]
    fn grad_add_row() {
        gradcheck(test_input(1, 4), |tape, b| {
            let a = tape.leaf(test_input(3, 4));
            let y = tape.add_row(a, b);
            to_scalar(tape, y)
        });
    }

    #[test]
    fn grad_relu() {
        gradcheck(test_input(2, 4), |tape, x| {
            let y = tape.relu(x);
            to_scalar(tape, y)
        });
    }

    #[test]
    fn grad_softmax() {
        gradcheck(test_input(2, 4), |tape, x| {
            let y = tape.softmax_rows(x);
            to_scalar(tape, y)
        });
    }

    /// A deterministic row of attention-sized scores, in [−6, 6].
    fn scores(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|c| ((c * 37 + salt * 101) % 97) as f32 * 0.125 - 6.0)
            .collect()
    }

    #[test]
    fn exp_nonpositive_tracks_f64_exp_down_to_minus_87_and_is_zero_below() {
        assert_eq!(exp_nonpositive(0.0), 1.0);
        assert_eq!(exp_nonpositive(-0.0), 1.0);
        let steps = 400_000;
        for i in 0..=steps {
            let x = -87.0 * (i as f32 / steps as f32);
            let (got, want) = (exp_nonpositive(x) as f64, (x as f64).exp());
            assert!(
                ((got - want) / want).abs() <= 1e-7,
                "exp({x}) = {got:e}, exactly {want:e}"
            );
        }
        let just_below = f32::from_bits((-87.0f32).to_bits() + 1);
        for x in [just_below, -88.0, -104.0, -1e9, f32::MIN, f32::NEG_INFINITY] {
            assert_eq!(exp_nonpositive(x).to_bits(), 0, "exp({x})");
        }
        assert!(exp_nonpositive(f32::NAN).is_nan());
    }

    #[test]
    fn softmax_row_is_the_f64_softmax_at_every_length() {
        for len in (1..=33).chain(74..=77) {
            let x = scores(len, len);
            let mut row = x.clone();
            softmax_in_place(&mut row);
            let sum: f64 = row.iter().map(|&p| p as f64).sum();
            assert!((sum - 1.0).abs() <= 1e-6, "length {len} sums to {sum}");
            let mx = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f64> = x.iter().map(|&v| ((v - mx) as f64).exp()).collect();
            let total: f64 = exps.iter().sum();
            for (c, (&p, e)) in row.iter().zip(&exps).enumerate() {
                let want = e / total;
                assert!(
                    (p as f64 - want).abs() <= 1e-6 * want,
                    "length {len}, column {c}: {p:e}, exactly {want:e}"
                );
            }
        }
    }

    #[test]
    fn the_largest_element_goes_through_exp_of_zero() {
        // Alone, it is all of the sum.
        let mut row = vec![-1e9, 0.37, -1e9];
        softmax_in_place(&mut row);
        assert_eq!(row, [0.0, 1.0, 0.0]);
    }

    #[test]
    fn softmax_row_with_a_nan_is_all_nan() {
        for len in [1, 5, 8, 9, 76] {
            for at in [0, len / 2, len - 1] {
                let mut row = scores(len, 1);
                row[at] = f32::NAN;
                softmax_in_place(&mut row);
                assert!(row.iter().all(|p| p.is_nan()), "length {len}, NaN at {at}");
            }
        }
    }

    /// `rows` rows of `len` for the row-kernel pins: scores in [−6, 6], and
    /// in every eighth row one of what a scalar row meets at its edges — a
    /// row of `-0.0` (where a sum's start shows), the exp's −87 boundary
    /// under a maximum of `0.0`, `-inf`, `+inf`, a NaN.
    fn edge_rows(rows: usize, len: usize, salt: usize) -> Vec<f32> {
        let below = f32::from_bits((-87.0f32).to_bits() + 1);
        let above = f32::from_bits((-87.0f32).to_bits() - 1);
        (0..rows)
            .flat_map(|r| {
                let mut row = scores(len, r * 7 + salt);
                let at = (r * 5 + salt) % len;
                match (r + salt) % 8 {
                    0 => row.fill(-0.0),
                    1 => {
                        row.iter_mut().for_each(|x| *x -= 6.0);
                        for (x, edge) in row.iter_mut().zip([0.0, -87.0, below, above]) {
                            *x = edge;
                        }
                    }
                    2 => row[at] = f32::NEG_INFINITY,
                    3 => row[at] = f32::INFINITY,
                    4 => row[at] = f32::NAN,
                    _ => {}
                }
                row
            })
            .collect()
    }

    /// Bit patterns, every NaN read as one.
    fn pattern(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// Row lengths 1..=200 by row counts 1..=9: every count of rows left
    /// over from a group of four or eight, every count of columns left over
    /// from a vector.
    fn pin_shapes() -> impl Iterator<Item = (usize, usize)> {
        (1..=200).flat_map(|len| (1..=9).map(move |rows| (rows, len)))
    }

    /// `softmax_block`'s row pass on every arm the host has equals its
    /// scalar rows — each scaled, then `softmax_in_place` — bit for bit,
    /// NaN where and only where they are NaN.
    #[test]
    fn softmax_rows_on_every_arm_are_the_scalar_rows() {
        for (rows, len) in pin_shapes() {
            let x = edge_rows(rows, len, len);
            for scale in [1.0, 1.0 / 8f32.sqrt()] {
                let mut want = x.clone();
                for row in want.chunks_exact_mut(len) {
                    row.iter_mut().for_each(|x| *x *= scale);
                    softmax_in_place(row);
                }
                for isa in host_isas() {
                    let mut got = x.clone();
                    softmax_scaled_rows(isa, &mut got, len, scale);
                    let what = format!("{isa:?}: {rows} rows of {len}, scale {scale}");
                    assert_eq!(pattern(&got), pattern(&want), "{what}");
                }
            }
        }
    }

    /// Attention backward's softmax rows on every arm equal the scalar
    /// row — `softmax_backward_row`, then the scale — bit for bit: against
    /// probabilities (no negative number), a row of `-0.0` gradients shows
    /// the dot's `-0.0` start in the sign of every output.
    #[test]
    fn softmax_backward_rows_on_every_arm_are_the_scalar_rows() {
        for (rows, len) in pin_shapes() {
            let g = edge_rows(rows, len, len);
            // Beside the row of `-0.0` gradients, a finite row.
            let y: Vec<f32> = edge_rows(rows, len, len + 1)
                .iter()
                .map(|y| y.abs())
                .collect();
            let scale = 1.0 / 8f32.sqrt();
            let mut want = g.clone();
            for (grow, yrow) in want.chunks_exact_mut(len).zip(y.chunks_exact(len)) {
                softmax_backward_row(grow, yrow);
                grow.iter_mut().for_each(|g| *g *= scale);
            }
            for isa in host_isas() {
                let mut got = g.clone();
                softmax_backward_rows(isa, &mut got, &y, len, scale);
                assert_eq!(
                    pattern(&got),
                    pattern(&want),
                    "{isa:?}: {rows} rows of {len}"
                );
            }
        }
    }

    /// Layer norm's row statistics, forward's and backward's, on every arm
    /// equal `ln_row` row for row, every row handed on once, in order.
    #[test]
    fn layer_norm_rows_on_every_arm_are_the_scalar_rows() {
        for (rows, len) in pin_shapes() {
            let x = Tensor::from_vec(rows, len, edge_rows(rows, len, len));
            let g = Tensor::from_vec(rows, len, edge_rows(rows, len, len + 5));
            let gain: Vec<f32> = (0..len).map(|c| 0.5 + (c % 11) as f32 / 10.0).collect();
            for grad in [None, Some((&g, &gain[..]))] {
                let want: Vec<[f32; 4]> = (0..rows)
                    .map(|r| ln_row(x.row(r), grad.map(|(g, gain)| (g.row(r), gain))))
                    .collect();
                for isa in host_isas() {
                    let mut got = Vec::new();
                    ln_rows(isa, &x, grad, |r, stats| {
                        assert_eq!(r, got.len(), "{isa:?}: row {r} out of turn");
                        got.push(stats);
                    });
                    let what = format!("{isa:?}: {rows} rows of {len}, grad {}", grad.is_some());
                    assert_eq!(
                        pattern(got.as_flattened()),
                        pattern(want.as_flattened()),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn grad_layer_norm_input() {
        gradcheck(test_input(2, 4), |tape, x| {
            let g = tape.leaf(Tensor::from_fn(1, 4, |_, c| 1.0 + 0.1 * c as f32));
            let b = tape.leaf(Tensor::from_fn(1, 4, |_, c| 0.05 * c as f32));
            let y = tape.layer_norm(x, g, b);
            to_scalar(tape, y)
        });
    }

    #[test]
    fn grad_layer_norm_gain_bias() {
        gradcheck(test_input(1, 4), |tape, g| {
            let x = tape.leaf(test_input(3, 4));
            let b = tape.leaf(Tensor::zeros(1, 4));
            let y = tape.layer_norm(x, g, b);
            to_scalar(tape, y)
        });
        gradcheck(Tensor::zeros(1, 4), |tape, b| {
            let x = tape.leaf(test_input(3, 4));
            let g = tape.leaf(Tensor::full(1, 4, 1.0));
            let y = tape.layer_norm(x, g, b);
            to_scalar(tape, y)
        });
    }

    #[test]
    fn grad_embedding() {
        gradcheck(test_input(5, 3), |tape, table| {
            let y = tape.embed(table, &[0, 2, 2, 4]);
            to_scalar(tape, y)
        });
    }

    #[test]
    fn grad_transpose_slice_concat() {
        gradcheck(test_input(3, 4), |tape, x| {
            let t = tape.transpose(x); // [4,3]
            let s1 = tape.slice_cols(t, 0, 2); // [4,2]
            let s2 = tape.slice_cols(t, 1, 2); // overlapping slice
            let y = tape.concat_cols(&[s1, s2]); // [4,4]
            to_scalar(tape, y)
        });
    }

    #[test]
    fn grad_gather_rows_with_duplicates() {
        gradcheck(test_input(4, 3), |tape, x| {
            let y = tape.gather_rows(x, &[3, 0, 3, 2]);
            to_scalar(tape, y)
        });
    }

    #[test]
    fn grad_attention_like_composite() {
        // A miniature attention head end-to-end.
        gradcheck(test_input(3, 4), |tape, x| {
            let wq = tape.leaf(Tensor::from_fn(4, 2, |r, c| {
                0.1 * (r as f32) - 0.15 * c as f32
            }));
            let wk = tape.leaf(Tensor::from_fn(4, 2, |r, c| {
                0.12 * (c as f32) - 0.05 * r as f32
            }));
            let wv = tape.leaf(Tensor::from_fn(4, 2, |r, c| 0.2 - 0.03 * (r + c) as f32));
            let q = tape.matmul(x, wq);
            let k = tape.matmul(x, wk);
            let v = tape.matmul(x, wv);
            let kt = tape.transpose(k);
            let scores = tape.matmul(q, kt);
            let scaled = tape.scale(scores, 1.0 / (2.0f32).sqrt());
            let attn = tape.softmax_rows(scaled);
            let out = tape.matmul(attn, v);
            to_scalar(tape, out)
        });
    }

    #[test]
    fn grad_add_const_passthrough() {
        gradcheck(test_input(2, 3), |tape, x| {
            let c = Tensor::from_fn(2, 3, |r, c| (r + c) as f32);
            let y = tape.add_const(x, &c);
            to_scalar(tape, y)
        });
    }

    #[test]
    fn paramset_bookkeeping() {
        let mut p = ParamSet::new();
        let a = p.add("a", Tensor::zeros(2, 3));
        let b = p.add("b", Tensor::zeros(1, 4));
        assert_eq!(p.len(), 2);
        assert_eq!(p.scalar_count(), 10);
        assert_eq!(p.size_bytes(), 40);
        assert_eq!(p.name(a), "a");
        assert_eq!(p.get(b).shape(), (1, 4));
        let mut tape = Tape::default();
        let vars = p.lend(&mut tape);
        assert_eq!(vars.len(), 2);
        assert_eq!(tape.value(vars[0]).shape(), (2, 3));
    }

    #[test]
    fn no_grad_for_unused_leaf() {
        let mut tape = Tape::default();
        let x = tape.leaf(Tensor::full(1, 1, 1.0));
        let unused = tape.leaf(Tensor::full(1, 1, 1.0));
        let loss = bce(&mut tape, x, Tensor::full(1, 1, 1.0), 1.0);
        let grads = backward(&mut tape, loss);
        assert!(grads.try_get(unused).is_none());
        assert!(grads.try_get(x).is_some());
    }

    #[test]
    fn shared_subexpression_accumulates() {
        // y = x + x  ->  dy/dx = 2.
        let mut tape = Tape::default();
        let x = tape.leaf(Tensor::full(1, 1, 0.3));
        let y = tape.add(x, x);
        let loss = bce(&mut tape, y, Tensor::full(1, 1, 1.0), 1.0);
        let grads = backward(&mut tape, loss);
        let gx = grads.get(x).get(0, 0);
        // dL/dy = sigmoid(0.6) - 1; dL/dx = 2 * that.
        let expected = 2.0 * (1.0 / (1.0 + (-0.6f32).exp()) - 1.0);
        assert!((gx - expected).abs() < 1e-5, "{gx} vs {expected}");
    }
}
