//! Neural layers: each registers its parameters in a [`ParamSet`] at
//! construction and, given the injected parameter vars, builds its forward
//! graph on a [`Tape`].
//!
//! The shapes mirror the paper's model (§5.1): token embedding to 100 dims,
//! sinusoidal position information, two transformer encoder layers with 10
//! attention heads, and a feed-forward decoder with one 800-unit hidden
//! layer.

use crate::init::{positional_encoding, Initializer};
use crate::tape::{ParamId, ParamSet, Tape, Var};
use crate::tensor::Tensor;

/// Fully connected layer `y = xW + b`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    /// Register a `[in_dim, out_dim]` linear layer.
    pub fn new(
        params: &mut ParamSet,
        init: &mut Initializer,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = params.add(&format!("{name}.w"), init.xavier(in_dim, out_dim));
        let b = params.add(&format!("{name}.b"), Tensor::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Forward `[m, in_dim] -> [m, out_dim]` via the fused matmul+bias op
    /// (one tape node, transpose-free backward).
    pub fn forward(&self, tape: &mut Tape, vars: &[Var], x: Var) -> Var {
        tape.linear(x, vars[self.w.0], vars[self.b.0])
    }
}

/// Learned token embedding plus fixed sinusoidal positional encoding.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Embedding {
    table: ParamId,
    pe: Tensor,
    pub vocab: usize,
    pub dim: usize,
}

impl Embedding {
    /// Register an embedding for `vocab` tokens of `dim` dims; positions up
    /// to `max_len` get sinusoidal encodings added.
    pub fn new(
        params: &mut ParamSet,
        init: &mut Initializer,
        name: &str,
        vocab: usize,
        dim: usize,
        max_len: usize,
    ) -> Self {
        let table = params.add(&format!("{name}.table"), init.normal(vocab, dim, 0.02));
        Embedding {
            table,
            pe: positional_encoding(max_len, dim),
            vocab,
            dim,
        }
    }

    /// Embed a packed batch of `batch` sequences of equal `seq_len`
    /// (`ids.len() == batch * seq_len`): `[batch*seq_len, dim]` with
    /// positions added, restarting per sequence.
    ///
    /// # Panics
    /// Panics if `seq_len` exceeds `max_len` or an id exceeds the vocabulary.
    pub fn forward_packed(
        &self,
        tape: &mut Tape,
        vars: &[Var],
        ids: &[usize],
        seq_len: usize,
    ) -> Var {
        assert!(seq_len <= self.pe.rows(), "sequence longer than max_len");
        assert_eq!(
            ids.len() % seq_len,
            0,
            "packed batch not a multiple of seq_len"
        );
        let emb = tape.embed(vars[self.table.0], ids);
        tape.add_const(emb, &self.pe, seq_len)
    }
}

/// Learned layer-norm gain/bias.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LayerNorm {
    gain: ParamId,
    bias: ParamId,
}

impl LayerNorm {
    pub fn new(params: &mut ParamSet, name: &str, dim: usize) -> Self {
        let gain = params.add(&format!("{name}.gain"), Tensor::full(1, dim, 1.0));
        let bias = params.add(&format!("{name}.bias"), Tensor::zeros(1, dim));
        LayerNorm { gain, bias }
    }

    pub fn forward(&self, tape: &mut Tape, vars: &[Var], x: Var) -> Var {
        tape.layer_norm(x, vars[self.gain.0], vars[self.bias.0])
    }
}

/// Multi-head self-attention (no masking: the serialized plan is fully
/// visible, as in an encoder).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    pub heads: usize,
    pub dim: usize,
}

impl MultiHeadSelfAttention {
    /// `dim` must be divisible by `heads`.
    pub fn new(
        params: &mut ParamSet,
        init: &mut Initializer,
        name: &str,
        dim: usize,
        heads: usize,
    ) -> Self {
        assert_eq!(dim % heads, 0, "dim {dim} not divisible by heads {heads}");
        MultiHeadSelfAttention {
            wq: Linear::new(params, init, &format!("{name}.wq"), dim, dim),
            wk: Linear::new(params, init, &format!("{name}.wk"), dim, dim),
            wv: Linear::new(params, init, &format!("{name}.wv"), dim, dim),
            wo: Linear::new(params, init, &format!("{name}.wo"), dim, dim),
            heads,
            dim,
        }
    }

    /// Batched attention over a packed `[batch*seq_len, dim]` input. The QKV
    /// and output projections run as single large matmuls (the CPU-speed
    /// trick); the per-(sample, head) attention is one fused
    /// [`Tape::attention`] node. `lens[b]` is the real (un-padded) length of
    /// sequence `b`; padded key positions are masked out of the softmax.
    ///
    /// `rows` names the packed rows whose outputs the caller reads, the same
    /// number from every sample in sample order; `None` is all of them. K and
    /// V are projected for every token either way, while Q, the scores and
    /// the output projection cover only `rows`, and the result has one row
    /// per entry.
    pub fn forward_packed(
        &self,
        tape: &mut Tape,
        vars: &[Var],
        x: Var,
        seq_len: usize,
        lens: &[usize],
        rows: Option<&[usize]>,
    ) -> Var {
        #[cfg(test)]
        if tests::use_oracle() {
            return self.forward_packed_composed(tape, vars, x, seq_len, lens, rows);
        }
        // Recorded before K and V so that backward adds wq's share of
        // `d loss / d x` last, where the all-rows graph adds it (DESIGN.md).
        let xq = rows.map_or(x, |rows| tape.gather_rows(x, rows));
        let q = self.wq.forward(tape, vars, xq);
        let k = self.wk.forward(tape, vars, x);
        let v = self.wv.forward(tape, vars, x);
        let merged = tape.attention(q, k, v, seq_len, lens, self.heads);
        self.wo.forward(tape, vars, merged)
    }
}

/// One post-norm transformer encoder layer:
/// `x = LN(x + MHA(x)); x = LN(x + FF(x))` — PyTorch's default
/// `nn.TransformerEncoderLayer` structure with ReLU activation.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TransformerEncoderLayer {
    attn: MultiHeadSelfAttention,
    ln1: LayerNorm,
    ff1: Linear,
    ff2: Linear,
    ln2: LayerNorm,
}

impl TransformerEncoderLayer {
    pub fn new(
        params: &mut ParamSet,
        init: &mut Initializer,
        name: &str,
        dim: usize,
        heads: usize,
        ff_dim: usize,
    ) -> Self {
        TransformerEncoderLayer {
            attn: MultiHeadSelfAttention::new(params, init, &format!("{name}.attn"), dim, heads),
            ln1: LayerNorm::new(params, &format!("{name}.ln1"), dim),
            ff1: Linear::new(params, init, &format!("{name}.ff1"), dim, ff_dim),
            ff2: Linear::new(params, init, &format!("{name}.ff2"), ff_dim, dim),
            ln2: LayerNorm::new(params, &format!("{name}.ln2"), dim),
        }
    }

    /// One layer over a packed `[batch*seq_len, dim]` input, producing the
    /// packed `rows` (see [`MultiHeadSelfAttention::forward_packed`]) or,
    /// for `None`, every row. On a forward-only tape the layer's
    /// intermediates are freed on the way out.
    pub fn forward_packed(
        &self,
        tape: &mut Tape,
        vars: &[Var],
        x: Var,
        seq_len: usize,
        lens: &[usize],
        rows: Option<&[usize]>,
    ) -> Var {
        let mark = tape.len();
        let a = self.attn.forward_packed(tape, vars, x, seq_len, lens, rows);
        // A second gather, recorded after the projections: backward then
        // starts `d loss / d x` from the residual's share, as for all rows.
        let x = rows.map_or(x, |rows| tape.gather_rows(x, rows));
        let res1 = tape.add(x, a);
        let x = self.ln1.forward(tape, vars, res1);
        let h = self.ff1.forward(tape, vars, x);
        let h = tape.relu(h);
        let h = self.ff2.forward(tape, vars, h);
        let res2 = tape.add(x, h);
        let out = self.ln2.forward(tape, vars, res2);
        tape.collapse(mark, out)
    }
}

/// A stack of encoder layers over an embedded sequence; the final query
/// representation is the *last token's* embedding, as in the paper ("we use
/// ... the last token's embedding as the final query representation").
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TransformerEncoder {
    pub embedding: Embedding,
    layers: Vec<TransformerEncoderLayer>,
    pub dim: usize,
}

impl TransformerEncoder {
    #[allow(clippy::too_many_arguments)] // mirrors the paper's hyperparameter list
    pub fn new(
        params: &mut ParamSet,
        init: &mut Initializer,
        name: &str,
        vocab: usize,
        dim: usize,
        heads: usize,
        ff_dim: usize,
        n_layers: usize,
        max_len: usize,
    ) -> Self {
        let embedding = Embedding::new(params, init, &format!("{name}.emb"), vocab, dim, max_len);
        let layers = (0..n_layers)
            .map(|l| {
                TransformerEncoderLayer::new(
                    params,
                    init,
                    &format!("{name}.layer{l}"),
                    dim,
                    heads,
                    ff_dim,
                )
            })
            .collect();
        TransformerEncoder {
            embedding,
            layers,
            dim,
        }
    }

    /// Encode one sequence to its last token's `[1, dim]` representation —
    /// [`TransformerEncoder::encode_batch`] on a batch of one (an empty
    /// sequence is one `pad_id` token there too).
    pub fn encode(&self, tape: &mut Tape, vars: &[Var], ids: &[usize], pad_id: usize) -> Var {
        self.encode_batch(tape, vars, &[ids], pad_id)
    }

    /// Encode a whole batch of sequences at once, padding to the longest with
    /// `pad_id`; returns the `[batch, dim]` matrix of last-real-token
    /// representations. All projection matmuls run batched, which is what
    /// makes CPU training practical, and the final layer computes only the
    /// rows returned: nothing reads its other outputs.
    pub fn encode_batch(
        &self,
        tape: &mut Tape,
        vars: &[Var],
        seqs: &[&[usize]],
        pad_id: usize,
    ) -> Var {
        assert!(!seqs.is_empty());
        let seq_len = seqs
            .iter()
            .map(|s| s.len())
            .max()
            .expect("non-empty")
            .max(1);
        let lens: Vec<usize> = seqs.iter().map(|s| s.len().max(1)).collect();
        let mut packed = Vec::with_capacity(seqs.len() * seq_len);
        for s in seqs {
            packed.extend_from_slice(s);
            packed.extend(std::iter::repeat_n(pad_id, seq_len - s.len()));
        }
        let last_idxs = last_rows(&lens, seq_len);
        let mut x = self.embedding.forward_packed(tape, vars, &packed, seq_len);
        #[cfg(test)]
        if tests::use_oracle() {
            return self.encode_unpruned(tape, vars, x, seq_len, &lens, &last_idxs);
        }
        let Some((last, inner)) = self.layers.split_last() else {
            return tape.gather_rows(x, &last_idxs);
        };
        for layer in inner {
            x = layer.forward_packed(tape, vars, x, seq_len, &lens, None);
        }
        last.forward_packed(tape, vars, x, seq_len, &lens, Some(&last_idxs))
    }
}

/// Each packed sample's last real row — the one the encoder returns.
fn last_rows(lens: &[usize], seq_len: usize) -> Vec<usize> {
    let last = |(b, &len): (usize, &usize)| b * seq_len + len - 1;
    lens.iter().enumerate().map(last).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{set_simd_override, SimdOverride};
    use crate::optim::Adam;
    use crate::pool::set_thread_override;
    use crate::tape::{bce_with_logits, forward_only, Gradients};
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        static ORACLE: Cell<bool> = const { Cell::new(false) };
    }

    /// Whether this test thread routed the encoder to its oracle.
    pub(super) fn use_oracle() -> bool {
        ORACLE.get()
    }

    /// Run `f` on the oracle: attention composed from generic tape ops, and
    /// a final encoder layer that computes every row before the last-token
    /// gather.
    fn with_oracle<R>(f: impl FnOnce() -> R) -> R {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                ORACLE.set(false);
            }
        }
        let _restore = Restore;
        ORACLE.set(true);
        f()
    }

    /// The oracle the fused node is pinned against: the same attention as a
    /// chain of nine generic tape ops per (sample, head), with a query for
    /// every row.
    fn composed_attention(
        tape: &mut Tape,
        [q, k, v]: [Var; 3],
        seq_len: usize,
        lens: &[usize],
        heads: usize,
    ) -> Var {
        let dh = tape.value(q).cols() / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut sample_outs = Vec::with_capacity(lens.len());
        for (b, &blen) in lens.iter().enumerate() {
            let qb = tape.slice_rows(q, b * seq_len, seq_len);
            let kb = tape.slice_rows(k, b * seq_len, seq_len);
            let vb = tape.slice_rows(v, b * seq_len, seq_len);
            // Mask: -1e9 on key columns past the sample's real length.
            let real = blen.min(seq_len).max(1);
            let mask = Tensor::from_fn(seq_len, seq_len, |_, c| if c < real { 0.0 } else { -1e9 });
            let mut head_outs = Vec::with_capacity(heads);
            for h in 0..heads {
                let qh = tape.slice_cols(qb, h * dh, dh);
                let kh = tape.slice_cols(kb, h * dh, dh);
                let vh = tape.slice_cols(vb, h * dh, dh);
                let kt = tape.transpose(kh);
                let scores = tape.matmul(qh, kt);
                let scaled = tape.scale(scores, scale);
                let masked = tape.add_const(scaled, &mask, seq_len);
                let attn = tape.softmax_rows(masked);
                head_outs.push(tape.matmul(attn, vh));
            }
            sample_outs.push(tape.concat_cols(&head_outs));
        }
        tape.concat_rows(&sample_outs)
    }

    impl MultiHeadSelfAttention {
        /// [`composed_attention`] between the projections, over every row;
        /// `rows` are gathered from the result.
        pub(super) fn forward_packed_composed(
            &self,
            tape: &mut Tape,
            vars: &[Var],
            x: Var,
            seq_len: usize,
            lens: &[usize],
            rows: Option<&[usize]>,
        ) -> Var {
            assert_eq!(
                tape.value(x).rows(),
                lens.len() * seq_len,
                "packed shape mismatch"
            );
            let qkv = [&self.wq, &self.wk, &self.wv].map(|w| w.forward(tape, vars, x));
            let merged = composed_attention(tape, qkv, seq_len, lens, self.heads);
            let out = self.wo.forward(tape, vars, merged);
            rows.map_or(out, |rows| tape.gather_rows(out, rows))
        }
    }

    impl TransformerEncoder {
        /// The oracle the pruned final layer is pinned against: every layer
        /// over every row, then the last-token gather.
        pub(super) fn encode_unpruned(
            &self,
            tape: &mut Tape,
            vars: &[Var],
            mut x: Var,
            seq_len: usize,
            lens: &[usize],
            last_idxs: &[usize],
        ) -> Var {
            for layer in &self.layers {
                x = layer.forward_packed(tape, vars, x, seq_len, lens, None);
            }
            tape.gather_rows(x, last_idxs)
        }
    }

    fn setup() -> (ParamSet, Initializer) {
        (ParamSet::new(), Initializer::new(42))
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn linear_shapes_and_bias() {
        let (mut p, mut init) = setup();
        let lin = Linear::new(&mut p, &mut init, "l", 4, 3);
        // Force a recognizable bias.
        *p.get_mut(lin.b) = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        *p.get_mut(lin.w) = Tensor::zeros(4, 3);
        let mut tape = Tape::new();
        let vars = p.inject(&mut tape);
        let x = tape.leaf(Tensor::full(2, 4, 1.0));
        let y = lin.forward(&mut tape, &vars, x);
        assert_eq!(tape.value(y).shape(), (2, 3));
        assert_eq!(tape.value(y).row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(tape.value(y).row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn embedding_adds_positions() {
        let (mut p, mut init) = setup();
        let emb = Embedding::new(&mut p, &mut init, "e", 10, 6, 16);
        let mut tape = Tape::new();
        let vars = p.inject(&mut tape);
        // Same token at two positions must differ (positional encoding)...
        let y = emb.forward_packed(&mut tape, &vars, &[3, 3, 3, 3], 2);
        let v = tape.value(y);
        assert_eq!(v.shape(), (4, 6));
        assert_ne!(v.row(0), v.row(1));
        // ...and positions restart with each packed sequence.
        assert_eq!(v.row(0), v.row(2));
        assert_eq!(v.row(1), v.row(3));
    }

    #[test]
    #[should_panic]
    fn embedding_rejects_long_sequences() {
        let (mut p, mut init) = setup();
        let emb = Embedding::new(&mut p, &mut init, "e", 10, 6, 2);
        let mut tape = Tape::new();
        let vars = p.inject(&mut tape);
        emb.forward_packed(&mut tape, &vars, &[1, 2, 3], 3);
    }

    #[test]
    fn attention_output_shape_and_grads() {
        let (mut p, mut init) = setup();
        let mha = MultiHeadSelfAttention::new(&mut p, &mut init, "a", 8, 2);
        let mut tape = Tape::new();
        let vars = p.inject(&mut tape);
        let x = tape.leaf(Initializer::new(1).uniform(5, 8, 1.0));
        let y = mha.forward_packed(&mut tape, &vars, x, 5, &[5], None);
        assert_eq!(tape.value(y).shape(), (5, 8));
        // All attention params receive gradients.
        let targets = Tensor::zeros(5, 8);
        let loss = bce_with_logits(&mut tape, y, targets, 1.0);
        let grads = tape.backward(loss);
        for v in &vars {
            assert!(grads.try_get(*v).is_some(), "param without grad");
        }
    }

    #[test]
    fn encoder_layer_preserves_shape() {
        let (mut p, mut init) = setup();
        let layer = TransformerEncoderLayer::new(&mut p, &mut init, "t", 8, 2, 16);
        let mut tape = Tape::new();
        let vars = p.inject(&mut tape);
        let x = tape.leaf(Initializer::new(2).uniform(7, 8, 1.0));
        let y = layer.forward_packed(&mut tape, &vars, x, 7, &[7], None);
        assert_eq!(tape.value(y).shape(), (7, 8));
    }

    #[test]
    fn encoder_last_token_representation() {
        let (mut p, mut init) = setup();
        let enc = TransformerEncoder::new(&mut p, &mut init, "enc", 20, 8, 2, 16, 2, 32);
        let mut tape = Tape::new();
        let vars = p.inject(&mut tape);
        let q = enc.encode(&mut tape, &vars, &[1, 5, 7, 2], 0);
        assert_eq!(tape.value(q).shape(), (1, 8));
        // Different sequences produce different representations.
        let q2 = enc.encode(&mut tape, &vars, &[1, 5, 7, 3], 0);
        assert!(tape.value(q).max_abs_diff(tape.value(q2)) > 1e-6);
    }

    #[test]
    fn encoder_is_order_sensitive() {
        // Positional encodings + attention: token order must matter.
        let (mut p, mut init) = setup();
        let enc = TransformerEncoder::new(&mut p, &mut init, "enc", 20, 8, 2, 16, 1, 32);
        let mut tape = Tape::new();
        let vars = p.inject(&mut tape);
        let a = enc.encode(&mut tape, &vars, &[4, 9, 9, 4], 0);
        let b = enc.encode(&mut tape, &vars, &[9, 4, 4, 9], 0);
        assert!(tape.value(a).max_abs_diff(tape.value(b)) > 1e-6);
    }

    #[test]
    fn encode_batch_rows_equal_single_encode() {
        // Batched (packed, masked) encoding must give every sequence exactly
        // the floats it gets alone — padding and masking are invisible to
        // the real rows. An empty sequence is one pad token on both paths.
        let (mut p, mut init) = setup();
        let enc = TransformerEncoder::new(&mut p, &mut init, "enc", 20, 8, 2, 16, 2, 32);
        let mut tape = Tape::new();
        let vars = p.inject(&mut tape);
        let seqs: Vec<Vec<usize>> = vec![vec![1, 5, 7, 2, 9], vec![4, 4], vec![], vec![3, 1, 2]];
        let refs: Vec<&[usize]> = seqs.iter().map(|s| s.as_slice()).collect();
        let batch = enc.encode_batch(&mut tape, &vars, &refs, 0);
        for (b, s) in seqs.iter().enumerate() {
            let single = enc.encode(&mut tape, &vars, s, 0);
            assert_eq!(
                tape.value(batch).row(b),
                tape.value(single).row(0),
                "sample {b}"
            );
        }
        let pad = enc.encode(&mut tape, &vars, &[0], 0);
        assert_eq!(tape.value(batch).row(2), tape.value(pad).row(0));
    }

    #[test]
    fn whole_encoder_trains_end_to_end() {
        // Overfit two sequences to opposite single-logit labels.
        let (mut p, mut init) = setup();
        let enc = TransformerEncoder::new(&mut p, &mut init, "enc", 10, 8, 2, 16, 1, 16);
        let head = Linear::new(&mut p, &mut init, "head", 8, 1);
        let mut adam = Adam::new(&p, 0.01);
        let data = [(vec![1usize, 2, 3], 1.0f32), (vec![3usize, 2, 1], 0.0)];
        let mut last_loss = f32::INFINITY;
        for epoch in 0..120 {
            let mut tape = Tape::new();
            let vars = p.inject(&mut tape);
            let reps: Vec<Var> = data
                .iter()
                .map(|(ids, _)| enc.encode(&mut tape, &vars, ids, 0))
                .collect();
            let batch = tape.stack_rows(&reps);
            let logits = head.forward(&mut tape, &vars, batch);
            let targets = Tensor::from_vec(2, 1, data.iter().map(|(_, t)| *t).collect());
            let loss = bce_with_logits(&mut tape, logits, targets, 1.0);
            last_loss = tape.value(loss).get(0, 0);
            let grads = tape.backward(loss);
            adam.step(&mut p, &vars, &grads);
            if epoch == 0 {
                assert!(last_loss > 0.1);
            }
        }
        assert!(last_loss < 0.05, "did not overfit: loss {last_loss}");
    }

    /// A classifier-shaped model (encoder → hidden → logits), as
    /// `pythia-core`'s `PlanClassifier` wires it.
    struct Model {
        params: ParamSet,
        enc: TransformerEncoder,
        fc1: Linear,
        fc2: Linear,
    }

    impl Model {
        fn new(
            layers: usize,
            dim: usize,
            heads: usize,
            ff: usize,
            hidden: usize,
            labels: usize,
        ) -> Self {
            let (mut params, mut init) = setup();
            let enc = TransformerEncoder::new(
                &mut params,
                &mut init,
                "enc",
                40,
                dim,
                heads,
                ff,
                layers,
                96,
            );
            let fc1 = Linear::new(&mut params, &mut init, "fc1", dim, hidden);
            let fc2 = Linear::new(&mut params, &mut init, "fc2", hidden, labels);
            Model {
                params,
                enc,
                fc1,
                fc2,
            }
        }

        fn logits(&self, tape: &mut Tape, vars: &[Var], seqs: &[&[usize]]) -> Var {
            let reps = self.enc.encode_batch(tape, vars, seqs, 0);
            let h = self.fc1.forward(tape, vars, reps);
            let h = tape.relu(h);
            self.fc2.forward(tape, vars, h)
        }

        /// `epochs` passes of Adam over `seqs` in minibatches of `batch` on
        /// one reused tape, the way `PlanClassifier::train` drives it.
        fn train(&mut self, seqs: &[Vec<usize>], batch: usize, epochs: usize) {
            let labels = self.fc2.out_dim;
            let mut adam = Adam::new(&self.params, 5e-3);
            let mut tape = Tape::new();
            for _ in 0..epochs {
                for (c, chunk) in seqs.chunks(batch).enumerate() {
                    let refs: Vec<&[usize]> = chunk.iter().map(|s| s.as_slice()).collect();
                    tape.reset();
                    let mut targets = tape.zeros(chunk.len(), labels);
                    for r in 0..chunk.len() {
                        targets.set(r, (r + c) % labels, 1.0);
                    }
                    let vars = self.params.inject(&mut tape);
                    let logits = self.logits(&mut tape, &vars, &refs);
                    let loss = bce_with_logits(&mut tape, logits, targets, 2.0);
                    let grads = tape.backward(loss);
                    adam.step(&mut self.params, &vars, &grads);
                    tape.absorb(grads);
                }
            }
        }
    }

    fn ragged_seqs(n: usize, max_len: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|s| {
                let len = 1 + (s * 7 + 3) % max_len;
                (0..len).map(|i| 1 + (s * 31 + i * 7) % 39).collect()
            })
            .collect()
    }

    /// Train one model through the fused, pruned encoder and one through the
    /// oracle on the same minibatches: every weight must come out the same
    /// bit for bit.
    fn assert_trains_to_the_oracle_weights(layers: usize, dim: usize, seqs: &[Vec<usize>]) {
        let new = || Model::new(layers, dim, 2, 2 * dim, 16, 6);
        let mut fused = new();
        fused.train(seqs, 4, 5);
        let mut oracle = new();
        with_oracle(|| oracle.train(seqs, 4, 5));
        for ((id, f), (_, o)) in fused.params.iter().zip(oracle.params.iter()) {
            let name = fused.params.name(id);
            assert_eq!(bits(f), bits(o), "{name} at {layers} layers, dim {dim}");
        }
    }

    /// Sequences of exactly these lengths.
    fn seqs_of(lens: &[usize]) -> Vec<Vec<usize>> {
        let seq =
            |(s, &len): (usize, &usize)| (0..len).map(|i| 1 + (s * 31 + i * 7) % 39).collect();
        lens.iter().enumerate().map(seq).collect()
    }

    /// Minibatches of four whose longest plan is 77, 9, 7 and 1 tokens, each
    /// with shorter ones beside it: at two heads of 10 (the paper's 100 / 10)
    /// a head is one full vector and a masked pair, and a row of 77 scores
    /// ends in a masked five.
    const TAIL_LENS: [usize; 16] = [77, 1, 40, 9, 9, 3, 8, 1, 7, 7, 2, 5, 1, 1, 1, 1];

    #[test]
    fn training_through_fused_attention_yields_the_oracle_weights() {
        assert_trains_to_the_oracle_weights(2, 8, &ragged_seqs(10, 9));
        assert_trains_to_the_oracle_weights(2, 20, &seqs_of(&TAIL_LENS));
    }

    #[test]
    fn training_through_the_pruned_final_layer_yields_the_oracle_weights() {
        // One layer (the pruned one reads the embedding directly) and none
        // (embedding-only: the last-token gather stays).
        for layers in [1, 0] {
            assert_trains_to_the_oracle_weights(layers, 8, &ragged_seqs(10, 9));
        }
        // A length-1 sample, an empty one (one pad token), and padded samples
        // whose last real token is not their last packed row.
        let padded = vec![
            vec![7],
            vec![1, 2, 3, 4, 5, 6],
            vec![9, 8],
            vec![],
            vec![3, 3],
        ];
        for layers in [2, 1] {
            assert_trains_to_the_oracle_weights(layers, 8, &padded);
        }
        // Wide and long enough for the SIMD kernels and the pool's row bands.
        let _restore = RestoreDispatch;
        for (threads, simd) in [
            (1, SimdOverride::ForceScalar),
            (1, SimdOverride::ForceDetect),
            (4, SimdOverride::ForceScalar),
            (4, SimdOverride::ForceDetect),
        ] {
            set_thread_override(threads);
            set_simd_override(simd);
            assert_trains_to_the_oracle_weights(2, 32, &ragged_seqs(10, 40));
            // One query row against 77 keys, heads of 10.
            assert_trains_to_the_oracle_weights(1, 20, &seqs_of(&TAIL_LENS));
        }
    }

    #[test]
    fn a_32_sequence_minibatch_records_69_nodes_not_2628() {
        // The benchmark's model shape: 32 sequences × 77 tokens, 4 heads.
        let model = Model::new(2, 32, 4, 64, 128, 50);
        let seqs = vec![vec![3usize; 77]; 32];
        let refs: Vec<&[usize]> = seqs.iter().map(|s| s.as_slice()).collect();
        let record = |model: &Model| {
            let mut tape = Tape::new();
            let vars = model.params.inject(&mut tape);
            let logits = model.logits(&mut tape, &vars, &refs);
            bce_with_logits(&mut tape, logits, Tensor::zeros(32, 50), 1.0);
            tape
        };
        // One attention node per layer either way; the final layer's two
        // gathers replace the trailing one.
        let tape = record(&model);
        assert_eq!(tape.len(), 69);
        assert_eq!(with_oracle(|| record(&model).len()), 2628);
        // The final layer saves one softmax row per (sample, head), not one
        // per token.
        assert_eq!(tape.attention_probs_rows(), [32 * 4 * 77, 32 * 4]);
    }

    #[test]
    fn forward_only_tape_lends_params_and_keeps_one_layer() {
        let model = Model::new(2, 8, 2, 16, 16, 6);
        let seqs = ragged_seqs(5, 9);
        let refs: Vec<&[usize]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut tape = Tape::new();
        let vars = model.params.inject(&mut tape);
        let logits = model.logits(&mut tape, &vars, &refs);
        let recorded = tape.value(logits).clone();

        let run = || {
            forward_only(|tape| {
                let vars = model.params.lend(tape);
                let logits = model.logits(tape, &vars, &refs);
                // Params + embedding (2) + one node per finished layer (2) +
                // decoder (3): no layer's intermediates survive it.
                assert_eq!(tape.len(), model.params.len() + 7);
                (tape.value(logits).clone(), tape.allocations())
            })
        };
        let (first, warm) = run();
        assert_eq!(bits(&first), bits(&recorded));
        // A repeat call draws everything from the thread's arena.
        let (_, after) = run();
        assert_eq!(after, warm, "warm forward-only call allocated");
    }

    /// Restores the dispatch ladder and pool width even when a
    /// `prop_assert!` failure unwinds mid-test.
    struct RestoreDispatch;
    impl Drop for RestoreDispatch {
        fn drop(&mut self) {
            set_simd_override(SimdOverride::Env);
            set_thread_override(0);
        }
    }

    /// Gradients of a fixed BCE loss over `y`.
    fn backward_from(tape: &mut Tape, y: Var) -> Gradients {
        let (rows, cols) = tape.value(y).shape();
        let targets = Tensor::from_fn(rows, cols, |r, c| ((r + c) % 3) as f32 / 2.0);
        let loss = bce_with_logits(tape, y, targets, 1.5);
        tape.backward(loss)
    }

    /// Attention forward + backward on a packed ragged batch — every row, or
    /// with `last_only` each sample's last real one: the output and the
    /// gradient of every parameter and of the input, as bit patterns.
    fn attention_bits(
        lens: &[usize],
        heads: usize,
        dh: usize,
        seed: u64,
        last_only: bool,
    ) -> Vec<Vec<u32>> {
        let dim = heads * dh;
        let seq_len = *lens.iter().max().expect("non-empty batch");
        let rows = last_only.then(|| last_rows(lens, seq_len));
        let mut params = ParamSet::new();
        let mut init = Initializer::new(seed);
        let mha = MultiHeadSelfAttention::new(&mut params, &mut init, "a", dim, heads);
        let mut tape = Tape::new();
        let vars = params.inject(&mut tape);
        let x = tape.leaf(init.uniform(lens.len() * seq_len, dim, 1.5));
        let y = mha.forward_packed(&mut tape, &vars, x, seq_len, lens, rows.as_deref());
        let grads = backward_from(&mut tape, y);
        let mut out = vec![bits(tape.value(y)), bits(grads.get(x))];
        out.extend(vars.iter().map(|&v| bits(grads.get(v))));
        out
    }

    /// The attention node alone on leaf `q`, `k`, `v` (fused, or under
    /// [`with_oracle`] composed over every row and then gathered): the output
    /// and `dq`, `dk`, `dv`, as bit patterns.
    fn qkv_bits(
        lens: &[usize],
        heads: usize,
        dh: usize,
        seed: u64,
        last_only: bool,
    ) -> Vec<Vec<u32>> {
        let dim = heads * dh;
        let seq_len = *lens.iter().max().expect("non-empty batch");
        let rows = last_only.then(|| last_rows(lens, seq_len));
        let mut init = Initializer::new(seed);
        let mut tape = Tape::new();
        let qkv = [(); 3].map(|_| tape.leaf(init.uniform(lens.len() * seq_len, dim, 1.5)));
        let [q, k, v] = qkv;
        let y = if use_oracle() {
            let all = composed_attention(&mut tape, qkv, seq_len, lens, heads);
            rows.map_or(all, |rows| tape.gather_rows(all, &rows))
        } else {
            let q = rows.map_or(q, |rows| tape.gather_rows(q, &rows));
            tape.attention(q, k, v, seq_len, lens, heads)
        };
        let grads = backward_from(&mut tape, y);
        // The softmax rows behind `y`, laid out as the fused node saves them.
        // The oracle holds a `[seq_len, seq_len]` block per (sample, head).
        let probs = if use_oracle() {
            let mut rows = Vec::new();
            for (block, p) in tape.softmax_bits().iter().enumerate() {
                let last = lens[block / heads] - 1;
                let kept = if last_only {
                    last..last + 1
                } else {
                    0..seq_len
                };
                rows.extend_from_slice(&p[kept.start * seq_len..kept.end * seq_len]);
            }
            rows
        } else {
            tape.softmax_bits().concat()
        };
        let mut out = vec![bits(tape.value(y)), probs];
        out.extend(qkv.iter().map(|&var| bits(grads.get(var))));
        out
    }

    /// Fused against oracle on one batch: the attention layer and the bare
    /// node, at the given pool width and dispatch arm.
    fn fused_and_oracle(
        lens: &[usize],
        heads: usize,
        dh: usize,
        seed: u64,
        last_only: bool,
        threads: usize,
        scalar: bool,
    ) -> [Vec<Vec<u32>>; 2] {
        let _restore = RestoreDispatch;
        set_thread_override(threads);
        set_simd_override(if scalar {
            SimdOverride::ForceScalar
        } else {
            SimdOverride::ForceDetect
        });
        let both = || {
            let mut all = attention_bits(lens, heads, dh, seed, last_only);
            all.extend(qkv_bits(lens, heads, dh, seed, last_only));
            all
        };
        [both(), with_oracle(both)]
    }

    /// The shapes the strided kernels meet in production and at their edges:
    /// heads of 8 (the fixture) and of 10 (the paper: one full vector and a
    /// masked pair), a longest sample of 1, 7, 9 and 77 keys (no vector, a
    /// partial one, one and a bit, four tiles + one + a masked five) with
    /// shorter samples beside it, a query per key or one per sample.
    #[test]
    fn fused_attention_equals_composed_oracle_at_every_row_tail() {
        for s in [1usize, 7, 9, 77] {
            let lens = [s, 1, s.div_ceil(2), s, (s - 1).max(1)];
            for (heads, dh) in [(4, 8), (2, 10)] {
                for last_only in [false, true] {
                    for scalar in [false, true] {
                        let [fused, oracle] =
                            fused_and_oracle(&lens, heads, dh, s as u64, last_only, 1, scalar);
                        let what = format!("s={s} dh={dh} last_only={last_only} scalar={scalar}");
                        assert_eq!(fused, oracle, "{what}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fused attention node equals the composed-op oracle bit for bit
        /// — forward values, `dq`/`dk`/`dv` and every parameter / input
        /// gradient — on ragged batches (incl. all-equal lengths and length-1
        /// sequences), with a query per token or only each sample's last, at
        /// any head count, pool width and ISA arm.
        #[test]
        fn fused_attention_equals_composed_oracle(
            raw_lens in prop::collection::vec(1usize..=24, 1..=6),
            shape in 0usize..3,
            last_only in prop::bool::ANY,
            heads in prop::sample::select(vec![1usize, 2, 4]),
            // dh 24 at 4 heads makes the projections wide enough to fan out
            // across the pool on the larger batches.
            dh in prop::sample::select(vec![2usize, 5, 10, 24]),
            threads in prop::sample::select(vec![1usize, 4]),
            scalar in prop::bool::ANY,
            seed in 0u64..1000,
        ) {
            let mut lens = raw_lens;
            match shape {
                0 => {}
                1 => lens = vec![lens[0]; lens.len()],
                _ => lens[0] = 1,
            }
            let [fused, oracle] = fused_and_oracle(&lens, heads, dh, seed, last_only, threads, scalar);
            prop_assert_eq!(fused, oracle);
        }
    }
}
