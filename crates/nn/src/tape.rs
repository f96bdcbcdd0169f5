//! Eager tape-based reverse-mode autograd.
//!
//! Usage pattern per training step:
//!
//! ```
//! use pythia_nn::{ParamSet, Tape, Tensor, bce_with_logits};
//!
//! let mut params = ParamSet::new();
//! let w = params.add("w", Tensor::full(2, 1, 0.5));
//!
//! let mut tape = Tape::new();
//! let vars = params.inject(&mut tape);
//! let x = tape.leaf(Tensor::from_vec(1, 2, vec![1.0, -1.0]));
//! let logits = tape.matmul(x, vars[w.0]);
//! let loss = bce_with_logits(&mut tape, logits, Tensor::full(1, 1, 1.0), 1.0);
//! let grads = tape.backward(loss);
//! assert_eq!(grads.get(vars[w.0]).shape(), (2, 1));
//! ```
//!
//! Values are computed eagerly when an op is recorded; `backward` walks the
//! tape in reverse accumulating gradients. Every op's gradient is verified
//! against central finite differences in this module's tests.
//!
//! Every op output, saved activation, gradient and backward temporary comes
//! from the tape's exact-size [`Arena`] and goes back to it on
//! [`Tape::reset`] / [`Tape::absorb`]: a step whose shapes repeat allocates
//! nothing. Inference runs on a [`forward_only`] tape that borrows the
//! parameters instead of copying them; a fleet of models trains on
//! [`recording`] tapes, which hand one arena from model to model.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::thread::LocalKey;

use crate::kernels::{a_bt_band, at_b_band, matmul_band};
use crate::tensor::Tensor;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub usize);

/// Handle to a parameter in a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ParamId(pub usize);

/// A set of trainable parameters (plain tensors between steps).
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
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
    pub fn scalar_count(&self) -> usize {
        self.tensors.iter().map(Tensor::len).sum()
    }

    /// Approximate model size in bytes (f32 storage).
    pub fn size_bytes(&self) -> usize {
        self.scalar_count() * 4
    }

    /// Read a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutate a parameter (optimizer updates).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Copy all parameters onto `tape` as leaves; `result[i]` is the var for
    /// `ParamId(i)`. Training uses this: the optimizer mutates the set while
    /// the tape is alive.
    pub fn inject(&self, tape: &mut Tape<'_>) -> Vec<Var> {
        self.tensors.iter().map(|t| tape.leaf_copy(t)).collect()
    }

    /// Lend all parameters to `tape` as borrowed leaves — same vars as
    /// [`ParamSet::inject`], no copy. The inference path.
    pub fn lend<'p>(&'p self, tape: &mut Tape<'p>) -> Vec<Var> {
        let first = tape.nodes.len();
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

/// Exact-size `f32` buffer arena: free lists keyed by element count, so a
/// buffer is only ever reused for a tensor of exactly its size and never
/// grows. A buffer that sits unused through two consecutive steps (see
/// [`Arena::trim`]) is freed, so the arena retains at most the working sets
/// of the last two steps — one set when every step has the same shapes, two
/// when a short last minibatch alternates with full ones.
#[derive(Default)]
struct Arena {
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

impl Arena {
    /// A buffer of exactly `len` elements with unspecified contents.
    fn take(&mut self, len: usize) -> Vec<f32> {
        self.in_step = true;
        if let Some(class) = self.free.get_mut(&len) {
            if let Some(buf) = class.bufs.pop() {
                class.idle = class.idle.min(class.bufs.len());
                return buf;
            }
        }
        self.allocs += 1;
        vec![0.0; len]
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
        self.free.entry(buf.len()).or_default().bufs.push(buf);
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
    MatMul(Var, Var),
    /// Fused `x·w + bias` (`[m,k]×[k,n] + [1,n]`): one kernel forward,
    /// transpose-free backward.
    Linear(Var, Var, Var),
    Add(Var, Var),
    /// `[m,n] + [1,n]` row broadcast.
    AddRow(Var, Var),
    Scale(Var, f32),
    /// Add a constant (no gradient flows to it) — positional encodings.
    AddConst(Var),
    Relu(Var),
    SoftmaxRows(Var),
    LayerNorm {
        x: Var,
        gain: Var,
        bias: Var,
    },
    Transpose(Var),
    /// The block of `x` at `(row, col)`, shaped like the node's value.
    Slice(Var, (usize, usize)),
    /// Blocks side by side (`cols`) or stacked (arbitrary heights).
    Concat {
        xs: Vec<Var>,
        cols: bool,
    },
    /// Gather arbitrary rows (backward scatter-adds) — also the embedding
    /// lookup.
    GatherRows {
        x: Var,
        idxs: Vec<usize>,
    },
    /// Fused masked multi-head attention over a packed batch (see
    /// [`Tape::attention`]). `probs` holds one `[q_len, seq_len]` softmax
    /// block per (sample, head) — the only activation saved for backward.
    Attention {
        qkv: [Var; 3],
        seq_len: usize,
        heads: usize,
        probs: Tensor,
    },
    BceWithLogits {
        logits: Var,
        targets: Tensor,
        pos_weight: f32,
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

/// Gradients produced by [`Tape::backward`].
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
    pub fn try_get(&self, var: Var) -> Option<&Tensor> {
        self.grads[var.0].as_ref()
    }
}

/// The autograd tape. `'p` is the lifetime of parameters lent to it
/// ([`ParamSet::lend`]); a tape that only holds copies is `Tape<'static>`.
#[derive(Default)]
pub struct Tape<'p> {
    nodes: Vec<Node<'p>>,
    /// Backing store of every node value, saved activation, gradient and
    /// backward temporary. [`Tape::reset`] and [`Tape::absorb`] return
    /// buffers here; see [`Arena`] for what it retains.
    arena: Arena,
    /// Set by [`forward_only`]: [`Tape::collapse`] frees finished
    /// sub-graphs and [`Tape::backward`] is refused.
    forward_only: bool,
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
        nodes: Vec::new(),
        arena: slot.with(RefCell::take),
        forward_only,
    };
    let out = f(&mut tape);
    tape.reset();
    slot.with(|arena| arena.replace(tape.arena));
    out
}

/// Run `f` on a forward-only tape backed by this thread's reusable arena:
/// parameters can be lent rather than copied, [`Tape::collapse`] frees each
/// finished layer, and every buffer goes back to the thread's arena when `f`
/// returns — a repeat call with the same shapes allocates nothing.
pub fn forward_only<'p, R>(f: impl FnOnce(&mut Tape<'p>) -> R) -> R {
    on_thread_arena(&INFER_ARENA, true, f)
}

/// Run `f` on a recording tape backed by this thread's training arena, so
/// that the models a thread trains one after another share one set of
/// buffers instead of each faulting its own in. Unlike the inference arena
/// this one is a step's whole working set (activations, gradients,
/// parameter copies) and nothing needs it between trainings: whoever starts
/// a round of them calls [`free_recording_arena`] when the round is over. A
/// pool worker's arena goes with its thread.
pub fn recording<R>(f: impl FnOnce(&mut Tape<'static>) -> R) -> R {
    on_thread_arena(&TRAIN_ARENA, false, f)
}

/// Free what [`recording`] left in the calling thread's training arena.
pub fn free_recording_arena() {
    TRAIN_ARENA.with(RefCell::take);
}

const LN_EPS: f32 = 1e-5;

impl<'p> Tape<'p> {
    /// An empty recording tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Fresh heap allocations the tape's arena has made so far. Stops
    /// growing once the arena is warm for the shapes in use.
    pub fn allocations(&self) -> usize {
        self.arena.allocs
    }

    /// Bytes of free buffers the arena holds (everything, right after
    /// [`Tape::reset`]).
    pub fn retained_bytes(&self) -> usize {
        let held = |(len, class): (&usize, &SizeClass)| len * class.bufs.len() * 4;
        self.arena.free.iter().map(held).sum()
    }

    /// Row count of the softmax block each attention node saved, in
    /// recording order.
    #[cfg(test)]
    pub(crate) fn attention_probs_rows(&self) -> Vec<usize> {
        let rows = |node: &Node| match &node.op {
            Op::Attention { probs, .. } => Some(probs.rows()),
            _ => None,
        };
        self.nodes.iter().filter_map(rows).collect()
    }

    /// Every softmax the tape holds, as bit patterns in recording order: an
    /// attention node's saved `probs`, a [`Tape::softmax_rows`] node's value.
    #[cfg(test)]
    pub(crate) fn softmax_bits(&self) -> Vec<Vec<u32>> {
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect();
        let softmax = |node: &Node| match &node.op {
            Op::Attention { probs, .. } => Some(bits(probs)),
            Op::SoftmaxRows(_) => Some(bits(&node.value)),
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
    /// [`bce_with_logits`]).
    pub fn zeros(&mut self, rows: usize, cols: usize) -> Tensor {
        self.arena.zeros(rows, cols)
    }

    /// Record a leaf (input or parameter copy).
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf)
    }

    /// Record a leaf holding a copy of `t` in an arena buffer.
    pub fn leaf_copy(&mut self, t: &Tensor) -> Var {
        let v = self.arena.copy_of(t);
        self.push(v, Op::Leaf)
    }

    /// Clear all recorded nodes, returning their buffers to the arena. The
    /// tape is then ready for the next minibatch's graph; this is the step
    /// boundary at which the arena frees what recent steps did not use.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            release(&mut self.arena, node);
        }
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
    pub fn collapse(&mut self, mark: usize, keep: Var) -> Var {
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
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (val(&self.nodes, a), val(&self.nodes, b));
        let mut v = self.arena.unfilled(av.rows(), bv.cols());
        av.matmul_into(bv, &mut v);
        self.push(v, Op::MatMul(a, b))
    }

    /// Fused `x·w + bias` where `bias` is `[1,n]`, broadcast over rows: the
    /// whole affine layer as one tape node. Forward runs the dispatched
    /// [`Tensor::matmul_bias`] kernel (bias added after the matmul is fully
    /// accumulated, so rounding order matches `matmul` + `add_row`); backward
    /// uses the transpose-free kernels [`Tensor::matmul_a_bt`] /
    /// [`Tensor::matmul_at_b`].
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
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let (av, rt) = (val(&self.nodes, a), val(&self.nodes, row));
        assert_eq!(rt.shape(), (1, av.cols()), "add_row shape mismatch");
        let v = add_tiled(&mut self.arena, av, rt, 1);
        self.push(v, Op::AddRow(a, row))
    }

    /// `a * s`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let mut v = self.arena.copy_of(val(&self.nodes, a));
        for x in v.as_mut_slice() {
            *x *= s;
        }
        self.push(v, Op::Scale(a, s))
    }

    /// `a + c` for a constant `c` tiled down the rows with period `period`
    /// (row `r` of `a` gets row `r % period` of `c`; no gradient to `c`).
    /// Positional encodings restart per packed sequence this way without a
    /// tiled copy.
    pub fn add_const(&mut self, a: Var, c: &Tensor, period: usize) -> Var {
        let av = val(&self.nodes, a);
        assert_eq!(av.cols(), c.cols(), "add_const column mismatch");
        assert!(0 < period && period <= c.rows(), "bad add_const period");
        let v = add_tiled(&mut self.arena, av, c, period);
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
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let mut v = self.arena.copy_of(val(&self.nodes, a));
        for r in 0..v.rows() {
            softmax_in_place(v.row_mut(r));
        }
        self.push(v, Op::SoftmaxRows(a))
    }

    /// Row-wise layer normalization with learned gain/bias (`[1,n]` each).
    pub fn layer_norm(&mut self, x: Var, gain: Var, bias: Var) -> Var {
        let xv = val(&self.nodes, x);
        let (g, b) = (val(&self.nodes, gain), val(&self.nodes, bias));
        let (m, n) = xv.shape();
        assert_eq!(g.shape(), (1, n));
        assert_eq!(b.shape(), (1, n));
        let mut v = self.arena.zeros(m, n);
        for r in 0..m {
            let row = xv.row(r);
            let mean = row.iter().sum::<f32>() / n as f32;
            let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
            let inv = 1.0 / (var + LN_EPS).sqrt();
            for (((o, &xv), &gv), &bv) in
                v.row_mut(r).iter_mut().zip(row).zip(g.row(0)).zip(b.row(0))
            {
                *o = gv * (xv - mean) * inv + bv;
            }
        }
        self.push(v, Op::LayerNorm { x, gain, bias })
    }

    /// Gather rows `ids` from embedding `table` (`[vocab, dim]` → `[len, dim]`):
    /// [`Tape::gather_rows`] under its usual name.
    pub fn embed(&mut self, table: Var, ids: &[usize]) -> Var {
        self.gather_rows(table, ids)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = transposed(&mut self.arena, val(&self.nodes, a));
        self.push(v, Op::Transpose(a))
    }

    /// The `size` block of `x` at `at`, both `(rows, cols)`.
    fn slice(&mut self, x: Var, at: (usize, usize), size: (usize, usize)) -> Var {
        let xv = val(&self.nodes, x);
        assert!(
            at.0 + size.0 <= xv.rows() && at.1 + size.1 <= xv.cols(),
            "slice out of range"
        );
        let mut v = self.arena.zeros(size.0, size.1);
        blit(&mut v, (0, 0), xv, at, size);
        self.push(v, Op::Slice(x, at))
    }

    /// Columns `[start, start+len)` of `x`.
    pub fn slice_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        let m = self.value(x).rows();
        self.slice(x, (0, start), (m, len))
    }

    /// Rows `[start, start+len)` of `x` (per-sample views into a packed
    /// batch).
    pub fn slice_rows(&mut self, x: Var, start: usize, len: usize) -> Var {
        let n = self.value(x).cols();
        self.slice(x, (start, 0), (len, n))
    }

    /// `xs` side by side (`cols`) or stacked on top of each other.
    fn concat(&mut self, xs: &[Var], cols: bool) -> Var {
        assert!(!xs.is_empty());
        // (extent along the joined axis, extent across it) of one block.
        let dims = |t: &Tensor| {
            if cols {
                (t.cols(), t.rows())
            } else {
                t.shape()
            }
        };
        let across = dims(val(&self.nodes, xs[0])).1;
        let total: usize = xs.iter().map(|&x| dims(val(&self.nodes, x)).0).sum();
        let mut v = if cols {
            self.arena.zeros(across, total)
        } else {
            self.arena.zeros(total, across)
        };
        let mut off = 0;
        for &x in xs {
            let xv = val(&self.nodes, x);
            assert_eq!(dims(xv).1, across, "concat shape mismatch");
            let at = if cols { (0, off) } else { (off, 0) };
            blit(&mut v, at, xv, (0, 0), xv.shape());
            off += dims(xv).0;
        }
        self.push(
            v,
            Op::Concat {
                xs: xs.to_vec(),
                cols,
            },
        )
    }

    /// Concatenate along columns.
    pub fn concat_cols(&mut self, xs: &[Var]) -> Var {
        self.concat(xs, true)
    }

    /// Concatenate blocks along rows.
    pub fn concat_rows(&mut self, xs: &[Var]) -> Var {
        self.concat(xs, false)
    }

    /// Stack `[1,n]` vars into `[k,n]` (batching per-sample query embeddings
    /// for the decoder).
    pub fn stack_rows(&mut self, xs: &[Var]) -> Var {
        for &x in xs {
            assert_eq!(self.value(x).rows(), 1, "stack_rows expects [1,n] inputs");
        }
        self.concat(xs, false)
    }

    /// Gather rows `idxs` from `x` (extracting each sequence's last-token
    /// representation from a packed batch, or looking up embeddings).
    /// Duplicate indices are allowed.
    pub fn gather_rows(&mut self, x: Var, idxs: &[usize]) -> Var {
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

    /// Masked multi-head attention over a packed batch as **one** node.
    /// `k`, `v` are `[batch·seq_len, dim]` (sample `b` owns rows
    /// `[b·seq_len, (b+1)·seq_len)`, head `h` columns `[h·dh, (h+1)·dh)` with
    /// `dh = dim / heads`); key positions at or past `lens[b]` are masked
    /// out of sample `b`'s softmax. `q` is `[batch·q_len, dim]`, sample `b`
    /// owning rows `[b·q_len, (b+1)·q_len)`: a query for every position
    /// (`q_len == seq_len`), or only for the positions whose output is read
    /// — the mask does not depend on where a query sat in its sequence.
    /// Returns the merged `[batch·q_len, dim]` head outputs.
    ///
    /// Per (sample, head) this runs what the composed ops
    /// `softmax_rows(Q·Kᵀ·scale + mask)·V` run — the same products summed in
    /// the same order — on the head's blocks where they lie in the packed
    /// tensors (row stride `dim`): the scores go straight into the head's
    /// `probs` block and its output into its column block, and nothing is
    /// copied. Only the softmax probabilities are saved for backward.
    pub fn attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        seq_len: usize,
        lens: &[usize],
        heads: usize,
    ) -> Var {
        let [qv, kv, vv] = [q, k, v].map(|var| val(&self.nodes, var));
        let (rows, dim) = kv.shape();
        let batch = lens.len();
        assert_eq!(rows, batch * seq_len, "packed shape mismatch");
        assert!(
            vv.shape() == (rows, dim) && qv.cols() == dim,
            "attention q/k/v shape mismatch"
        );
        assert!(
            seq_len > 0 && heads > 0 && dim > 0 && dim % heads == 0,
            "attention over {seq_len} positions, {dim} dims, {heads} heads"
        );
        let ql = qv.rows() / batch;
        assert!(
            ql > 0 && qv.rows() == batch * ql,
            "attention queries not a whole number per sample"
        );
        let (s, dh) = (seq_len, dim / heads);
        let scale = 1.0 / (dh as f32).sqrt();
        // Each block of both is written once, by a kernel that overwrites.
        let mut out = self.arena.unfilled(batch * ql, dim);
        let mut probs = self.arena.unfilled(batch * heads * ql, s);
        let [qd, kd, vd] = [qv, kv, vv].map(Tensor::as_slice);
        for (b, &len) in lens.iter().enumerate() {
            let real = len.min(s).max(1);
            for h in 0..heads {
                let (q_at, kv_at) = (b * ql * dim + h * dh, b * s * dim + h * dh);
                let p = &mut probs.as_mut_slice()[(b * heads + h) * ql * s..][..ql * s];
                a_bt_band(&qd[q_at..], &kd[kv_at..], p, [dim, dim, s], dh, s, 0, ql);
                for row in p.chunks_exact_mut(s) {
                    // `+ 0.0` is not a no-op: it makes a `-0.0` score `+0.0`.
                    let (live, masked) = row.split_at_mut(real);
                    live.iter_mut().for_each(|x| *x = *x * scale + 0.0);
                    masked.iter_mut().for_each(|x| *x = *x * scale + -1e9);
                    softmax_in_place(row);
                }
                let out_h = &mut out.as_mut_slice()[q_at..];
                matmul_band(p, &vd[kv_at..], out_h, [s, dim, dim], s, dh, 0, ql);
            }
        }
        self.push(
            out,
            Op::Attention {
                qkv: [q, k, v],
                seq_len,
                heads,
                probs,
            },
        )
    }

    /// Run reverse-mode accumulation from `loss` (seeded with ones).
    ///
    /// # Panics
    /// Panics on a [`forward_only`] tape, whose layers freed what this walks.
    pub fn backward(&mut self, loss: Var) -> Gradients {
        assert!(!self.forward_only, "backward on a forward-only tape");
        let Tape { nodes, arena, .. } = self;
        let mut grads: Vec<Option<Tensor>> = (0..nodes.len()).map(|_| None).collect();
        let (lr, lc) = val(nodes, loss).shape();
        let mut seed = arena.zeros(lr, lc);
        seed.as_mut_slice().fill(1.0);
        grads[loss.0] = Some(seed);

        for i in (0..=loss.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            // Every arm hands `g` on or returns it to the arena.
            match &nodes[i].op {
                Op::Leaf => grads[i] = Some(g),
                &Op::MatMul(a, b) => {
                    let ga = a_bt(arena, &g, val(nodes, b));
                    let gb = at_b(arena, val(nodes, a), &g);
                    accum(&mut grads, arena, a, ga);
                    accum(&mut grads, arena, b, gb);
                    arena.recycle(g);
                }
                &Op::Linear(x, w, b) => {
                    let gx = a_bt(arena, &g, val(nodes, w));
                    let gw = at_b(arena, val(nodes, x), &g);
                    let gb = col_sums(arena, &g);
                    accum(&mut grads, arena, x, gx);
                    accum(&mut grads, arena, w, gw);
                    accum(&mut grads, arena, b, gb);
                    arena.recycle(g);
                }
                &Op::Add(a, b) => {
                    let copy = arena.copy_of(&g);
                    accum(&mut grads, arena, a, copy);
                    accum(&mut grads, arena, b, g);
                }
                &Op::AddRow(a, row) => {
                    let gr = col_sums(arena, &g);
                    accum(&mut grads, arena, row, gr);
                    accum(&mut grads, arena, a, g);
                }
                &Op::Scale(a, s) => {
                    let mut ga = g;
                    for x in ga.as_mut_slice() {
                        *x *= s;
                    }
                    accum(&mut grads, arena, a, ga);
                }
                &Op::AddConst(a) => accum(&mut grads, arena, a, g),
                &Op::Relu(a) => {
                    let mut gx = g;
                    let x = val(nodes, a);
                    for (gv, &xv) in gx.as_mut_slice().iter_mut().zip(x.as_slice()) {
                        if xv <= 0.0 {
                            *gv = 0.0;
                        }
                    }
                    accum(&mut grads, arena, a, gx);
                }
                &Op::SoftmaxRows(a) => {
                    let mut gx = g;
                    let y = val(nodes, Var(i));
                    for r in 0..y.rows() {
                        softmax_backward_row(gx.row_mut(r), y.row(r));
                    }
                    accum(&mut grads, arena, a, gx);
                }
                &Op::LayerNorm { x, gain, bias } => {
                    let xv = val(nodes, x);
                    let gv = val(nodes, gain);
                    let (m, n) = xv.shape();
                    let nf = n as f32;
                    let mut gx = arena.zeros(m, n);
                    let mut ggain = arena.zeros(1, n);
                    let mut gbias = arena.zeros(1, n);
                    let [mut xhat_buf, mut dxhat_buf] = [(); 2].map(|_| arena.zeros(1, n));
                    let (xhat, dxhat) = (xhat_buf.as_mut_slice(), dxhat_buf.as_mut_slice());
                    for r in 0..m {
                        let (row, grow) = (xv.row(r), g.row(r));
                        let mean = row.iter().sum::<f32>() / nf;
                        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / nf;
                        let inv = 1.0 / (var + LN_EPS).sqrt();
                        // xhat and dxhat for this row.
                        let mut sum_dxhat = 0.0;
                        let mut sum_dxhat_xhat = 0.0;
                        for (((xh, dxh), &x), (&gy, &gn)) in xhat
                            .iter_mut()
                            .zip(dxhat.iter_mut())
                            .zip(row)
                            .zip(grow.iter().zip(gv.row(0)))
                        {
                            *xh = (x - mean) * inv;
                            *dxh = gy * gn;
                            sum_dxhat += *dxh;
                            sum_dxhat_xhat += *dxh * *xh;
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
                    }
                    arena.recycle(xhat_buf);
                    arena.recycle(dxhat_buf);
                    accum(&mut grads, arena, x, gx);
                    accum(&mut grads, arena, gain, ggain);
                    accum(&mut grads, arena, bias, gbias);
                    arena.recycle(g);
                }
                &Op::Transpose(a) => {
                    let ga = transposed(arena, &g);
                    accum(&mut grads, arena, a, ga);
                    arena.recycle(g);
                }
                &Op::Slice(x, at) => {
                    let (m, n) = val(nodes, x).shape();
                    let mut gx = arena.zeros(m, n);
                    blit(&mut gx, at, &g, (0, 0), g.shape());
                    accum(&mut grads, arena, x, gx);
                    arena.recycle(g);
                }
                Op::Concat { xs, cols } => {
                    let mut off = 0;
                    for &xvar in xs {
                        let (m, n) = val(nodes, xvar).shape();
                        let mut gx = arena.zeros(m, n);
                        let from = if *cols { (0, off) } else { (off, 0) };
                        blit(&mut gx, (0, 0), &g, from, (m, n));
                        off += if *cols { n } else { m };
                        accum(&mut grads, arena, xvar, gx);
                    }
                    arena.recycle(g);
                }
                Op::GatherRows { x, idxs } => {
                    let (m, n) = val(nodes, *x).shape();
                    let mut gx = arena.zeros(m, n);
                    for (r, &i) in idxs.iter().enumerate() {
                        for (t, gv) in gx.row_mut(i).iter_mut().zip(g.row(r)) {
                            *t += gv;
                        }
                    }
                    accum(&mut grads, arena, *x, gx);
                    arena.recycle(g);
                }
                Op::Attention {
                    qkv,
                    seq_len,
                    heads,
                    probs,
                } => {
                    let vals = qkv.map(|var| val(nodes, var));
                    let dqkv = attention_backward(arena, &g, vals, probs, *seq_len, *heads);
                    for (&var, d) in qkv.iter().zip(dqkv) {
                        accum(&mut grads, arena, var, d);
                    }
                    arena.recycle(g);
                }
                Op::BceWithLogits {
                    logits,
                    targets,
                    pos_weight,
                } => {
                    let p = *pos_weight;
                    let z = val(nodes, *logits);
                    let (m, n) = z.shape();
                    let scale = g.get(0, 0) / (m * n) as f32;
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
                    accum(&mut grads, arena, *logits, gz);
                    arena.recycle(g);
                }
            }
        }
        // Only leaf gradients survive: every other arm consumed its own.
        Gradients { grads }
    }
}

/// Return everything a finished node owns to the arena.
fn release(arena: &mut Arena, node: Node<'_>) {
    if let Cow::Owned(t) = node.value {
        arena.recycle(t);
    }
    match node.op {
        Op::BceWithLogits { targets, .. } => arena.recycle(targets),
        Op::Attention { probs, .. } => arena.recycle(probs),
        _ => {}
    }
}

fn accum(grads: &mut [Option<Tensor>], arena: &mut Arena, var: Var, delta: Tensor) {
    match &mut grads[var.0] {
        Some(g) => {
            g.add_scaled(&delta, 1.0);
            arena.recycle(delta);
        }
        slot @ None => *slot = Some(delta),
    }
}

/// `a·bᵀ` into an arena tensor.
fn a_bt(arena: &mut Arena, a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = arena.unfilled(a.rows(), b.rows());
    a.matmul_a_bt_into(b, &mut out);
    out
}

/// `aᵀ·b` into an arena tensor.
fn at_b(arena: &mut Arena, a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = arena.unfilled(a.cols(), b.cols());
    a.matmul_at_b_into(b, &mut out);
    out
}

fn col_sums(arena: &mut Arena, g: &Tensor) -> Tensor {
    let mut out = arena.zeros(1, g.cols());
    g.col_sums_into(&mut out);
    out
}

/// `a` plus `c` tiled down the rows: row `r` gets row `r % period` of `c`.
fn add_tiled(arena: &mut Arena, a: &Tensor, c: &Tensor, period: usize) -> Tensor {
    let mut out = arena.copy_of(a);
    for r in 0..out.rows() {
        for (x, cv) in out.row_mut(r).iter_mut().zip(c.row(r % period)) {
            *x += cv;
        }
    }
    out
}

fn transposed(arena: &mut Arena, a: &Tensor) -> Tensor {
    let mut out = arena.zeros(a.cols(), a.rows());
    blit_t(&mut out, (0, 0), a, (0, 0), a.shape());
    out
}

/// Copy the `size` block of `src` at `from` over the block of `dst` at `at`
/// (all `(rows, cols)`).
fn blit(
    dst: &mut Tensor,
    at: (usize, usize),
    src: &Tensor,
    from: (usize, usize),
    size: (usize, usize),
) {
    for r in 0..size.0 {
        dst.row_mut(at.0 + r)[at.1..at.1 + size.1]
            .copy_from_slice(&src.row(from.0 + r)[from.1..from.1 + size.1]);
    }
}

/// [`blit`] transposing on the way: the block lands as `[size.1, size.0]`.
fn blit_t(
    dst: &mut Tensor,
    at: (usize, usize),
    src: &Tensor,
    from: (usize, usize),
    size: (usize, usize),
) {
    for r in 0..size.0 {
        for c in 0..size.1 {
            dst.set(at.0 + c, at.1 + r, src.get(from.0 + r, from.1 + c));
        }
    }
}

/// Lanes of [`fold_lanes`].
const SOFTMAX_LANES: usize = 8;

/// `f` folded over `row` in [`SOFTMAX_LANES`] independent lanes — element `i`
/// into lane `i % SOFTMAX_LANES`, however long the row is — and the lanes
/// then combined, always in this one tree.
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
    let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
    f(f(f(l0, l1), f(l2, l3)), f(f(l4, l5), f(l6, l7)))
}

/// `exp(x)` for `x <= 0`, within 8.1e-8 relative of the exact value down to
/// −87 (libm's `expf`: 6.0e-8) and exactly `0.0` below, `exp(0) == 1.0`
/// exactly, NaN for NaN. The Cephes `expf` — `x = n·ln 2 + r`, a degree-5
/// polynomial in `r`, `2ⁿ` through the exponent bits — written as f32
/// multiplies and adds and one select (no fused multiply-add, no call, no
/// data-dependent jump), each a correctly rounded IEEE operation: the result
/// is a function of `x` alone, whatever instructions the loop around it
/// compiles to.
#[inline]
#[allow(clippy::excessive_precision)] // Cephes' constants, digit for digit
fn exp_nonpositive(x: f32) -> f32 {
    // Adding 1.5·2²³ leaves no fraction bits, so `t` holds `x·log₂e` rounded
    // to an integer `n` in its low mantissa bits; a `round()` or a cast here
    // would keep the loop from vectorising on baseline SSE2 / NEON.
    const ROUND: f32 = 12_582_912.0;
    const LN2_HI: f32 = 0.693359375;
    const LN2_LO: f32 = -2.12194440e-4;
    let t = x * std::f32::consts::LOG2_E + ROUND;
    let n = t - ROUND;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut p = 1.9875691500e-4;
    for c in [
        1.3981999507e-3,
        8.3334519073e-3,
        4.1665795894e-2,
        1.6666665459e-1,
        5.0000001201e-1,
    ] {
        p = p * r + c;
    }
    let exp_r = p * (r * r) + r + 1.0;
    // ROUND's own bits shift out: what is left is `n + 127`, the exponent
    // field of 2ⁿ. Below −87 (2ⁿ leaves the normal range near −87.3) `n` is
    // out of that field's range and the product is discarded unread.
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
/// output depend on the row's values only — not on the instruction set the
/// loops compile to, and not on how many masked columns (−1e9 after scaling:
/// exactly `0.0` out, exactly `+0.0` into its lane) follow the real ones,
/// which is what lets a batch pad its rows. The largest element maps through
/// `exp(0) == 1`. A NaN anywhere makes the whole row NaN, payload and sign
/// unspecified.
fn softmax_in_place(row: &mut [f32]) {
    // `>` passes over a NaN as `f32::max` does, and is one instruction.
    let mx = fold_lanes(row, f32::NEG_INFINITY, |m, x| if x > m { x } else { m });
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
fn softmax_backward_row(g: &mut [f32], y: &[f32]) {
    let dot: f32 = g.iter().zip(y).map(|(g, y)| g * y).sum();
    for (g, y) in g.iter_mut().zip(y) {
        *g = y * (*g - dot);
    }
}

/// Backward of [`Tape::attention`]: `[dq, dk, dv]` given `g = d loss / d out`
/// (`g` and `dq` have `q`'s rows, `dk` and `dv` have `k`'s). Mirrors, per
/// (sample, head), the backward of the composed ops — the same products in
/// the same order — reading each head's blocks where they lie and writing
/// each block gradient straight into its rows and columns of the result
/// (blocks are disjoint and cover it, so nothing is cleared or accumulated
/// across them). `gp`, one head's `dP` then `dS`, is the only scratch.
fn attention_backward(
    arena: &mut Arena,
    g: &Tensor,
    [q, k, v]: [&Tensor; 3],
    probs: &Tensor,
    s: usize,
    heads: usize,
) -> [Tensor; 3] {
    let (rows, dim) = k.shape();
    let batch = rows / s;
    let ql = q.rows() / batch;
    let dh = dim / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut dq = arena.unfilled(batch * ql, dim);
    let [mut dk, mut dv] = [(); 2].map(|_| arena.unfilled(rows, dim));
    let mut gp = arena.unfilled(ql, s);
    let [gd, qd, kd, vd] = [g, q, k, v].map(Tensor::as_slice);
    for b in 0..batch {
        for h in 0..heads {
            let (q_at, kv_at) = (b * ql * dim + h * dh, b * s * dim + h * dh);
            let p = &probs.as_slice()[(b * heads + h) * ql * s..][..ql * s];
            let ds = gp.as_mut_slice();
            // out = P·V: dP = dOut·Vᵀ, dV = Pᵀ·dOut.
            a_bt_band(&gd[q_at..], &vd[kv_at..], ds, [dim, dim, s], dh, s, 0, ql);
            let dv_h = &mut dv.as_mut_slice()[kv_at..];
            at_b_band(p, &gd[q_at..], dv_h, [s, dim, dim], ql, dh, 0, s);
            // P = softmax(S·scale + mask): the mask is a constant.
            for (grow, prow) in ds.chunks_exact_mut(s).zip(p.chunks_exact(s)) {
                softmax_backward_row(grow, prow);
                for x in grow.iter_mut() {
                    *x *= scale;
                }
            }
            // S = Q·Kᵀ: dQ = dS·K, dK = dSᵀ·Q.
            let dq_h = &mut dq.as_mut_slice()[q_at..];
            matmul_band(ds, &kd[kv_at..], dq_h, [s, dim, dim], s, dh, 0, ql);
            let dk_h = &mut dk.as_mut_slice()[kv_at..];
            at_b_band(ds, &qd[q_at..], dk_h, [s, dim, dim], ql, dh, 0, s);
        }
    }
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
/// `pos_weight` (useful here because almost all page labels are 0).
/// Returns a `[1,1]` scalar var.
pub fn bce_with_logits(tape: &mut Tape<'_>, logits: Var, targets: Tensor, pos_weight: f32) -> Var {
    let z = tape.value(logits);
    assert_eq!(z.shape(), targets.shape(), "bce shape mismatch");
    let (m, n) = z.shape();
    let mut total = 0.0f64;
    for (&zv, &t) in z.as_slice().iter().zip(targets.as_slice()) {
        let l = t * pos_weight * softplus(-zv) + (1.0 - t) * (zv + softplus(-zv));
        total += l as f64;
    }
    let mut v = tape.zeros(1, 1);
    v.set(0, 0, (total / (m * n) as f64) as f32);
    tape.push(
        v,
        Op::BceWithLogits {
            logits,
            targets,
            pos_weight,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference check: `build` must construct the full graph
    /// from a leaf injected with tensor `x` and return the scalar loss var.
    fn gradcheck(x0: Tensor, build: impl Fn(&mut Tape, Var) -> Var) {
        // Analytic gradient.
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let loss = build(&mut tape, x);
        assert_eq!(tape.value(loss).shape(), (1, 1), "loss must be scalar");
        let grads = tape.backward(loss);
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
                    let mut tape = Tape::new();
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
        bce_with_logits(tape, v, targets, 1.0)
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
            bce_with_logits(tape, x, t, 3.5)
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
                bce_with_logits(tape, y, t, pos_weight)
            };
            let (narrow, wide) = (head(2, 1.0), head(5, 3.5));
            tape.add(narrow, wide)
        });
    }

    #[test]
    fn linear_matches_matmul_add_row() {
        let xv = test_input(3, 4);
        let wv = Tensor::from_fn(4, 2, |r, c| 0.07 * (r as f32) - 0.11 * c as f32);
        let bv = Tensor::from_fn(1, 2, |_, c| 0.4 - 0.3 * c as f32);

        let mut t1 = Tape::new();
        let (x1, w1, b1) = (
            t1.leaf(xv.clone()),
            t1.leaf(wv.clone()),
            t1.leaf(bv.clone()),
        );
        let y1 = t1.linear(x1, w1, b1);
        let l1 = to_scalar(&mut t1, y1);
        let g1 = t1.backward(l1);

        let mut t2 = Tape::new();
        let (x2, w2, b2) = (t2.leaf(xv), t2.leaf(wv), t2.leaf(bv));
        let xw = t2.matmul(x2, w2);
        let y2 = t2.add_row(xw, b2);
        let l2 = to_scalar(&mut t2, y2);
        let g2 = t2.backward(l2);

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
            let grads = tape.backward(loss);
            let (gw, gb) = (grads.get(w).clone(), grads.get(b).clone());
            tape.absorb(grads);
            (tape.value(loss).get(0, 0), gw, gb)
        };
        let mut reused = Tape::new();
        let first_reused = run(&mut reused, 0.8);
        reused.reset();
        let second_reused = run(&mut reused, 0.3);

        let mut f1 = Tape::new();
        let mut f2 = Tape::new();
        assert_eq!(first_reused, run(&mut f1, 0.8));
        assert_eq!(second_reused, run(&mut f2, 0.3));
    }

    /// One training-shaped step on a reused tape: inputs drawn from the
    /// arena, forward, backward, gradients absorbed.
    fn arena_step(tape: &mut Tape, rows: usize) {
        tape.reset();
        let mut x = tape.zeros(rows, 4);
        x.as_mut_slice().fill(0.3);
        let mut wv = tape.zeros(4, 6);
        wv.as_mut_slice().fill(0.1);
        let (x, w) = (tape.leaf(x), tape.leaf(wv));
        let b = tape.leaf_copy(&Tensor::zeros(1, 6));
        let q = tape.linear(x, w, b);
        let a = tape.attention(q, q, q, rows / 2, &[rows / 2, 1], 2);
        let h = tape.relu(a);
        let targets = tape.zeros(rows, 6);
        let loss = bce_with_logits(tape, h, targets, 2.0);
        let grads = tape.backward(loss);
        tape.absorb(grads);
    }

    #[test]
    fn arena_does_not_ratchet_and_a_warm_step_allocates_nothing() {
        // The old LIFO pool grew every buffer to the largest tensor's size
        // and kept every backward temporary: retained bytes rose with each
        // step. The arena holds exactly one step's buffers, forever.
        let mut tape = Tape::new();
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
    fn arena_keeps_two_alternating_shapes_and_frees_a_stale_one() {
        let mut tape = Tape::new();
        // A short last minibatch alternating with full ones: both stay warm.
        for _ in 0..3 {
            arena_step(&mut tape, 8);
            arena_step(&mut tape, 4);
        }
        let allocs = tape.allocations();
        arena_step(&mut tape, 8);
        arena_step(&mut tape, 4);
        assert_eq!(tape.allocations(), allocs);
        // Once only one shape recurs, the other's buffers are freed.
        tape.reset();
        let both = tape.retained_bytes();
        for _ in 0..3 {
            arena_step(&mut tape, 4);
        }
        tape.reset();
        assert!(tape.retained_bytes() < both);
        let small_only = tape.retained_bytes();
        arena_step(&mut tape, 4);
        tape.reset();
        assert_eq!(tape.retained_bytes(), small_only);
    }

    #[test]
    fn grad_attention_wrt_q_k_v() {
        // Two packed samples of 3 positions (the second one token long, so
        // its padded keys are masked), two heads.
        let other =
            |shift: f32| Tensor::from_fn(6, 4, |r, c| 0.17 * ((r * 4 + c) % 5) as f32 - shift);
        gradcheck(test_input(6, 4), |tape, q| {
            let (k, v) = (tape.leaf(other(0.3)), tape.leaf(other(0.1)));
            let y = tape.attention(q, k, v, 3, &[3, 1], 2);
            to_scalar(tape, y)
        });
        gradcheck(test_input(6, 4), |tape, k| {
            let (q, v) = (tape.leaf(other(0.3)), tape.leaf(other(0.1)));
            let y = tape.attention(q, k, v, 3, &[3, 1], 2);
            to_scalar(tape, y)
        });
        gradcheck(test_input(6, 4), |tape, v| {
            let (q, k) = (tape.leaf(other(0.3)), tape.leaf(other(0.1)));
            let y = tape.attention(q, k, v, 3, &[3, 1], 2);
            to_scalar(tape, y)
        });
    }

    #[test]
    #[should_panic(expected = "forward-only")]
    fn forward_only_tape_refuses_backward() {
        forward_only(|tape| {
            let x = tape.leaf(Tensor::full(1, 1, 0.5));
            let loss = bce_with_logits(tape, x, Tensor::full(1, 1, 1.0), 1.0);
            tape.backward(loss);
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
    fn masked_columns_are_exactly_zero_and_never_move_the_real_ones() {
        let bits = |row: &[f32]| row.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        for real in (1..=33).chain(74..=77) {
            let mut alone = scores(real, 7);
            softmax_in_place(&mut alone);
            // Enough padding to move the real columns across every lane
            // boundary and in and out of a vectorised loop's tail.
            for pad in 1..=9 {
                let mut padded = scores(real, 7);
                padded.extend(scores(pad, 3).iter().map(|v| v - 1e9));
                softmax_in_place(&mut padded);
                assert_eq!(
                    bits(&padded[..real]),
                    bits(&alone),
                    "{real} real columns, {pad} masked"
                );
                assert_eq!(bits(&padded[real..]), vec![0; pad]);
            }
        }
        // The largest element goes through exp(0) == 1: alone, it is all of
        // the sum.
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
    fn grad_slice_and_concat_rows() {
        gradcheck(test_input(4, 3), |tape, x| {
            let top = tape.slice_rows(x, 0, 2);
            let bottom = tape.slice_rows(x, 1, 3); // overlapping
            let y = tape.concat_rows(&[bottom, top]);
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
    fn grad_stack_rows() {
        gradcheck(test_input(1, 3), |tape, x| {
            let x2 = tape.scale(x, 2.0);
            let y = tape.stack_rows(&[x, x2, x]);
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
            let y = tape.add_const(x, &c, 2);
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
        let mut tape = Tape::new();
        let vars = p.inject(&mut tape);
        assert_eq!(vars.len(), 2);
        assert_eq!(tape.value(vars[0]).shape(), (2, 3));
    }

    #[test]
    fn no_grad_for_unused_leaf() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::full(1, 1, 1.0));
        let unused = tape.leaf(Tensor::full(1, 1, 1.0));
        let loss = bce_with_logits(&mut tape, x, Tensor::full(1, 1, 1.0), 1.0);
        let grads = tape.backward(loss);
        assert!(grads.try_get(unused).is_none());
        assert!(grads.try_get(x).is_some());
    }

    #[test]
    fn shared_subexpression_accumulates() {
        // y = x + x  ->  dy/dx = 2.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::full(1, 1, 0.3));
        let y = tape.add(x, x);
        let loss = bce_with_logits(&mut tape, y, Tensor::full(1, 1, 1.0), 1.0);
        let grads = tape.backward(loss);
        let gx = grads.get(x).get(0, 0);
        // dL/dy = sigmoid(0.6) - 1; dL/dx = 2 * that.
        let expected = 2.0 * (1.0 / (1.0 + (-0.6f32).exp()) - 1.0);
        assert!((gx - expected).abs() < 1e-5, "{gx} vs {expected}");
    }
}
