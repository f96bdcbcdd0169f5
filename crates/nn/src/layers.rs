//! Neural layers: each registers its parameters in a [`ParamSet`] at
//! construction and, given the parameter vars lent to a tape, builds its forward
//! graph on that [`Tape`].
//!
//! The shapes mirror the paper's model (§5.1): token embedding to 100 dims,
//! sinusoidal position information, two transformer encoder layers with 10
//! attention heads, and a feed-forward decoder with one 800-unit hidden
//! layer.

use crate::init::{positional_encoding, Initializer};
use crate::tape::{ParamId, ParamSet, Tape, Var};
use crate::tensor::Tensor;

/// Fully connected layer `y = xW + b`.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    pe: Tensor,
    pub vocab: usize,
    pub dim: usize,
}

impl Embedding {
    /// Register an embedding for `vocab` tokens of `dim` dims; positions up
    /// to `max_len` get sinusoidal encodings added.
    pub(crate) fn new(
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

    /// Embed one sequence: `[ids.len(), dim]` with positions added.
    ///
    /// # Panics
    /// Panics if the sequence is longer than `max_len` or an id exceeds the
    /// vocabulary.
    pub(crate) fn forward(&self, tape: &mut Tape, vars: &[Var], ids: &[usize]) -> Var {
        assert!(ids.len() <= self.pe.rows(), "sequence longer than max_len");
        let emb = tape.embed(vars[self.table.0], ids);
        tape.add_const(emb, &self.pe)
    }
}

/// Learned layer-norm gain/bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gain: ParamId,
    bias: ParamId,
}

impl LayerNorm {
    pub(crate) fn new(params: &mut ParamSet, name: &str, dim: usize) -> Self {
        let gain = params.add(&format!("{name}.gain"), Tensor::full(1, dim, 1.0));
        let bias = params.add(&format!("{name}.bias"), Tensor::zeros(1, dim));
        LayerNorm { gain, bias }
    }

    pub(crate) fn forward(&self, tape: &mut Tape, vars: &[Var], x: Var) -> Var {
        tape.layer_norm(x, vars[self.gain.0], vars[self.bias.0])
    }
}

/// Multi-head self-attention (no masking: the serialized plan is fully
/// visible, as in an encoder).
#[derive(Debug, Clone)]
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
    pub(crate) fn new(
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

    /// Attention over one sequence's `[len, dim]` rows. The QKV and output
    /// projections run as whole-sequence matmuls; the per-head attention is
    /// one fused [`Tape::attention`] node.
    ///
    /// `rows` names the rows whose outputs the caller reads, in order;
    /// `None` is all of them. K and V are projected for every token either
    /// way, while Q, the scores and the output projection cover only `rows`,
    /// and the result has one row per entry.
    pub(crate) fn forward(
        &self,
        tape: &mut Tape,
        vars: &[Var],
        x: Var,
        rows: Option<&[usize]>,
    ) -> Var {
        #[cfg(test)]
        if tests::use_oracle() {
            return self.forward_composed(tape, vars, x, rows);
        }
        // Recorded before K and V so that backward adds wq's share of
        // `d loss / d x` last, where the all-rows graph adds it (DESIGN.md).
        let xq = rows.map_or(x, |rows| tape.gather_rows(x, rows));
        let q = self.wq.forward(tape, vars, xq);
        let k = self.wk.forward(tape, vars, x);
        let v = self.wv.forward(tape, vars, x);
        let merged = tape.attention(q, k, v, self.heads);
        self.wo.forward(tape, vars, merged)
    }
}

/// One post-norm transformer encoder layer:
/// `x = LN(x + MHA(x)); x = LN(x + FF(x))` — PyTorch's default
/// `nn.TransformerEncoderLayer` structure with ReLU activation.
#[derive(Debug, Clone)]
pub struct TransformerEncoderLayer {
    attn: MultiHeadSelfAttention,
    ln1: LayerNorm,
    ff1: Linear,
    ff2: Linear,
    ln2: LayerNorm,
}

impl TransformerEncoderLayer {
    pub(crate) fn new(
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

    /// One layer over one sequence's `[len, dim]` rows, producing `rows`
    /// (see [`MultiHeadSelfAttention::forward`]) or, for `None`, every row.
    /// On a forward-only tape the layer's intermediates are freed on the way
    /// out.
    pub(crate) fn forward(
        &self,
        tape: &mut Tape,
        vars: &[Var],
        x: Var,
        rows: Option<&[usize]>,
    ) -> Var {
        let mark = tape.len();
        let a = self.attn.forward(tape, vars, x, rows);
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
#[derive(Debug, Clone)]
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

    /// Encode one sequence to its last token's `[1, dim]` representation;
    /// an empty sequence is one `pad_id` token. The final layer computes
    /// only that row: nothing reads its other outputs.
    pub fn encode(&self, tape: &mut Tape, vars: &[Var], ids: &[usize], pad_id: usize) -> Var {
        let pad = [pad_id];
        let ids = if ids.is_empty() { &pad[..] } else { ids };
        let last = [ids.len() - 1];
        let mut x = self.embedding.forward(tape, vars, ids);
        #[cfg(test)]
        if tests::use_oracle() {
            return self.encode_unpruned(tape, vars, x, &last);
        }
        let Some((final_layer, inner)) = self.layers.split_last() else {
            return tape.gather_rows(x, &last);
        };
        for layer in inner {
            x = layer.forward(tape, vars, x, None);
        }
        final_layer.forward(tape, vars, x, Some(&last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{set_simd_override, SimdOverride};
    use crate::optim::Adam;
    use crate::pool::set_thread_override;
    use crate::rng::cases;
    use crate::tape::tests::{backward, bce};
    use crate::tape::{
        bce_with_logits_over, forward_only, free_recording_arena, recording, Gradients,
    };
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
    /// chain of eight generic tape ops per head, with a query for every row.
    fn composed_attention(tape: &mut Tape, [q, k, v]: [Var; 3], heads: usize) -> Var {
        let dh = tape.value(q).cols() / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut head_outs = Vec::with_capacity(heads);
        for h in 0..heads {
            let [qh, kh, vh] = [q, k, v].map(|x| tape.slice_cols(x, h * dh, dh));
            let kt = tape.transpose(kh);
            let scores = tape.matmul(qh, kt);
            let scaled = tape.scale(scores, scale);
            let attn = tape.softmax_rows(scaled);
            head_outs.push(tape.matmul(attn, vh));
        }
        tape.concat_cols(&head_outs)
    }

    impl MultiHeadSelfAttention {
        /// [`composed_attention`] between the projections, over every row;
        /// `rows` are gathered from the result.
        pub(super) fn forward_composed(
            &self,
            tape: &mut Tape,
            vars: &[Var],
            x: Var,
            rows: Option<&[usize]>,
        ) -> Var {
            let qkv = [&self.wq, &self.wk, &self.wv].map(|w| w.forward(tape, vars, x));
            let merged = composed_attention(tape, qkv, self.heads);
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
            last: &[usize],
        ) -> Var {
            for layer in &self.layers {
                x = layer.forward(tape, vars, x, None);
            }
            tape.gather_rows(x, last)
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
        let mut tape = Tape::default();
        let vars = p.lend(&mut tape);
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
        let mut tape = Tape::default();
        let vars = p.lend(&mut tape);
        // The same token at three positions embeds three ways.
        let y = emb.forward(&mut tape, &vars, &[3, 3, 3]);
        let v = tape.value(y);
        assert_eq!(v.shape(), (3, 6));
        assert_ne!(v.row(0), v.row(1));
        assert_ne!(v.row(1), v.row(2));
    }

    #[test]
    #[should_panic]
    fn embedding_rejects_long_sequences() {
        let (mut p, mut init) = setup();
        let emb = Embedding::new(&mut p, &mut init, "e", 10, 6, 2);
        let mut tape = Tape::default();
        let vars = p.lend(&mut tape);
        emb.forward(&mut tape, &vars, &[1, 2, 3]);
    }

    #[test]
    fn attention_output_shape_and_grads() {
        let (mut p, mut init) = setup();
        let mha = MultiHeadSelfAttention::new(&mut p, &mut init, "a", 8, 2);
        let mut tape = Tape::default();
        let vars = p.lend(&mut tape);
        let x = tape.leaf(Initializer::new(1).uniform(5, 8, 1.0));
        let y = mha.forward(&mut tape, &vars, x, None);
        assert_eq!(tape.value(y).shape(), (5, 8));
        // All attention params receive gradients.
        let targets = Tensor::zeros(5, 8);
        let loss = bce(&mut tape, y, targets, 1.0);
        let grads = backward(&mut tape, loss);
        for v in &vars {
            assert!(grads.try_get(*v).is_some(), "param without grad");
        }
    }

    #[test]
    fn encoder_layer_preserves_shape() {
        let (mut p, mut init) = setup();
        let layer = TransformerEncoderLayer::new(&mut p, &mut init, "t", 8, 2, 16);
        let mut tape = Tape::default();
        let vars = p.lend(&mut tape);
        let x = tape.leaf(Initializer::new(2).uniform(7, 8, 1.0));
        let y = layer.forward(&mut tape, &vars, x, None);
        assert_eq!(tape.value(y).shape(), (7, 8));
    }

    #[test]
    fn encoder_last_token_representation() {
        let (mut p, mut init) = setup();
        let enc = TransformerEncoder::new(&mut p, &mut init, "enc", 20, 8, 2, 16, 2, 32);
        let mut tape = Tape::default();
        let vars = p.lend(&mut tape);
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
        let mut tape = Tape::default();
        let vars = p.lend(&mut tape);
        let a = enc.encode(&mut tape, &vars, &[4, 9, 9, 4], 0);
        let b = enc.encode(&mut tape, &vars, &[9, 4, 4, 9], 0);
        assert!(tape.value(a).max_abs_diff(tape.value(b)) > 1e-6);
    }

    #[test]
    fn an_empty_sequence_encodes_as_one_pad_token() {
        let (mut p, mut init) = setup();
        let enc = TransformerEncoder::new(&mut p, &mut init, "enc", 20, 8, 2, 16, 2, 32);
        let mut tape = Tape::default();
        let vars = p.lend(&mut tape);
        let empty = enc.encode(&mut tape, &vars, &[], 7);
        let pad = enc.encode(&mut tape, &vars, &[7], 7);
        assert_eq!(bits(tape.value(empty)), bits(tape.value(pad)));
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
            // Both sequences in one minibatch, one pass each.
            let (mut grads, mut vars, mut total) = (Gradients::default(), Vec::new(), 0.0);
            for (ids, target) in &data {
                let mut tape = Tape::default();
                vars = p.lend(&mut tape);
                let rep = enc.encode(&mut tape, &vars, ids, 0);
                let logits = head.forward(&mut tape, &vars, rep);
                let target = Tensor::full(1, 1, *target);
                let rows = data.len();
                let loss = bce_with_logits_over(&mut tape, logits, target, 1.0, rows, &mut total);
                last_loss = tape.value(loss).get(0, 0);
                grads = tape.backward_into(loss, grads);
            }
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

        fn logits(&self, tape: &mut Tape, vars: &[Var], seq: &[usize]) -> Var {
            let rep = self.enc.encode(tape, vars, seq, 0);
            let h = self.fc1.forward(tape, vars, rep);
            let h = tape.relu(h);
            self.fc2.forward(tape, vars, h)
        }

        /// `epochs` passes of Adam over `seqs` in minibatches of `batch` on
        /// this thread's training arena, the way `PlanClassifier::train`
        /// drives it: one sequence per pass, each on a tape the parameters
        /// are lent to, its backward continuing the parameter gradients of
        /// the pass before.
        fn train(&mut self, seqs: &[Vec<usize>], batch: usize, epochs: usize) {
            let labels = self.fc2.out_dim;
            let mut adam = Adam::new(&self.params, 5e-3);
            for _ in 0..epochs {
                for (c, chunk) in seqs.chunks(batch).enumerate() {
                    let (mut grads, mut vars, mut total) = (Gradients::default(), Vec::new(), 0.0);
                    for (r, seq) in chunk.iter().enumerate() {
                        (grads, vars) = recording(|tape| {
                            let mut target = tape.zeros(1, labels);
                            target.set(0, (r + c) % labels, 1.0);
                            let vars = self.params.lend(tape);
                            let logits = self.logits(tape, &vars, seq);
                            let rows = chunk.len();
                            let loss =
                                bce_with_logits_over(tape, logits, target, 2.0, rows, &mut total);
                            (tape.backward_into(loss, grads), vars)
                        });
                    }
                    adam.step(&mut self.params, &vars, &grads);
                    recording(|tape| tape.absorb(grads));
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
    fn seqs_of(lengths: &[usize]) -> Vec<Vec<usize>> {
        let seq =
            |(s, &len): (usize, &usize)| (0..len).map(|i| 1 + (s * 31 + i * 7) % 39).collect();
        lengths.iter().enumerate().map(seq).collect()
    }

    /// Plans of 77, 9, 7 and 1 tokens among shorter ones: at two heads of 10
    /// (the paper's 100 / 10) a head is one full vector and a pair, and a
    /// row of 77 scores ends in a tail of five.
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
        // A length-1 sequence and an empty one (one pad token).
        let short = vec![
            vec![7],
            vec![1, 2, 3, 4, 5, 6],
            vec![9, 8],
            vec![],
            vec![3, 3],
        ];
        for layers in [2, 1] {
            assert_trains_to_the_oracle_weights(layers, 8, &short);
        }
        // Wide and long enough for the SIMD kernels and the pool's row bands.
        let _restore = RestoreDispatch;
        for (threads, simd) in [
            (1, SimdOverride::ForceScalar),
            (1, SimdOverride::CapAvx2),
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
    fn a_77_token_sequence_records_69_nodes_not_132() {
        // The benchmark's model shape: a 77-token plan, 4 heads.
        let model = Model::new(2, 32, 4, 64, 128, 50);
        let seq = [3usize; 77];
        let record = |model: &Model| {
            let mut tape = Tape::default();
            let vars = model.params.lend(&mut tape);
            let logits = model.logits(&mut tape, &vars, &seq);
            bce(&mut tape, logits, Tensor::zeros(1, 50), 1.0);
            tape.len()
        };
        // One attention node per layer; the final layer's two gathers
        // replace the trailing one.
        assert_eq!(record(&model), 69);
        assert_eq!(with_oracle(|| record(&model)), 132);
    }

    #[test]
    fn a_32_sequence_minibatch_retains_403_156_bytes() {
        // Two epochs of the benchmark's model on one minibatch of 32
        // 77-token plans, one plan per pass as `pythia-core`'s classifier
        // trains: the arena keeps one sequence's activations beside the
        // gradients the passes continue. The parameters are lent, not
        // copied into every pass.
        const RETAINED: usize = 403_156;
        let mut model = Model::new(2, 32, 4, 64, 128, 50);
        let seqs = vec![vec![3usize; 77]; 32];
        free_recording_arena();
        model.train(&seqs, 32, 2);
        let retained = recording(|tape| tape.retained_bytes());
        free_recording_arena();
        assert!(retained <= RETAINED, "training retains {retained} B");
    }

    #[test]
    fn forward_only_tape_lends_params_and_keeps_one_layer() {
        let model = Model::new(2, 8, 2, 16, 16, 6);
        let seq = [4usize, 9, 1, 7, 7, 2];
        let mut tape = Tape::default();
        let vars = model.params.lend(&mut tape);
        let logits = model.logits(&mut tape, &vars, &seq);
        let recorded = tape.value(logits).clone();

        let run = || {
            forward_only(|tape| {
                let vars = model.params.lend(tape);
                let logits = model.logits(tape, &vars, &seq);
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

    /// Every dispatch arm the host has: the scalar reference, AVX2 (on an
    /// AVX-512 host only through the cap) and the detected rung.
    const ARMS: [SimdOverride; 3] = [
        SimdOverride::ForceScalar,
        SimdOverride::CapAvx2,
        SimdOverride::ForceDetect,
    ];

    /// Restores the dispatch ladder and pool width even when a
    /// failed assertion unwinds mid-test.
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
        let loss = bce(tape, y, targets, 1.5);
        backward(tape, loss)
    }

    /// Attention forward + backward on one sequence of `len` rows — every
    /// row, or with `last_only` the last: the output and the gradient of
    /// every parameter and of the input, as bit patterns.
    fn attention_bits(
        len: usize,
        heads: usize,
        dh: usize,
        seed: u64,
        last_only: bool,
    ) -> Vec<Vec<u32>> {
        let dim = heads * dh;
        let last = [len - 1];
        let rows = last_only.then_some(&last[..]);
        let mut params = ParamSet::new();
        let mut init = Initializer::new(seed);
        let mha = MultiHeadSelfAttention::new(&mut params, &mut init, "a", dim, heads);
        let mut tape = Tape::default();
        let vars = params.lend(&mut tape);
        let x = tape.leaf(init.uniform(len, dim, 1.5));
        let y = mha.forward(&mut tape, &vars, x, rows);
        let grads = backward_from(&mut tape, y);
        let mut out = vec![bits(tape.value(y)), bits(grads.get(x))];
        out.extend(vars.iter().map(|&v| bits(grads.get(v))));
        out
    }

    /// The attention node alone on leaf `q`, `k`, `v` (fused, or under
    /// [`with_oracle`] composed over every row and then gathered): the output
    /// and `dq`, `dk`, `dv`, as bit patterns.
    fn qkv_bits(len: usize, heads: usize, dh: usize, seed: u64, last_only: bool) -> Vec<Vec<u32>> {
        let dim = heads * dh;
        let last = [len - 1];
        let rows = last_only.then_some(&last[..]);
        let mut init = Initializer::new(seed);
        let mut tape = Tape::default();
        let qkv = [(); 3].map(|_| tape.leaf(init.uniform(len, dim, 1.5)));
        let [q, k, v] = qkv;
        let y = if use_oracle() {
            let all = composed_attention(&mut tape, qkv, heads);
            rows.map_or(all, |rows| tape.gather_rows(all, rows))
        } else {
            let q = rows.map_or(q, |rows| tape.gather_rows(q, rows));
            tape.attention(q, k, v, heads)
        };
        let grads = backward_from(&mut tape, y);
        // The softmax rows behind `y`, laid out as the fused node's blocks
        // (recomputed the way its backward recomputes them). The oracle
        // holds a `[len, len]` block per head.
        let probs = if use_oracle() {
            let kept = if last_only { len - 1..len } else { 0..len };
            let blocks = tape.softmax_bits();
            blocks
                .iter()
                .flat_map(|p| p[kept.start * len..kept.end * len].to_vec())
                .collect()
        } else {
            tape.softmax_bits().concat()
        };
        let mut out = vec![bits(tape.value(y)), probs];
        out.extend(qkv.iter().map(|&var| bits(grads.get(var))));
        out
    }

    /// Fused against oracle on one sequence: the attention layer and the
    /// bare node, at the given pool width and dispatch arm.
    fn fused_and_oracle(
        len: usize,
        heads: usize,
        dh: usize,
        seed: u64,
        last_only: bool,
        threads: usize,
        arm: SimdOverride,
    ) -> [Vec<Vec<u32>>; 2] {
        let _restore = RestoreDispatch;
        set_thread_override(threads);
        set_simd_override(arm);
        let both = || {
            let mut all = attention_bits(len, heads, dh, seed, last_only);
            all.extend(qkv_bits(len, heads, dh, seed, last_only));
            all
        };
        [both(), with_oracle(both)]
    }

    /// The shapes the strided kernels meet in production and at their edges:
    /// heads of 8 (the fixture) and of 10 (the paper: one full vector and a
    /// pair), 1 to 77 keys (no vector, a partial one, one and a bit, four
    /// tiles + one + a tail of five), a query per key or only the last.
    #[test]
    fn fused_attention_equals_composed_oracle_at_every_row_tail() {
        for s in [1usize, 4, 5, 7, 8, 9, 39, 76, 77] {
            for (heads, dh) in [(4, 8), (2, 10)] {
                for last_only in [false, true] {
                    for arm in ARMS {
                        let [fused, oracle] =
                            fused_and_oracle(s, heads, dh, s as u64, last_only, 1, arm);
                        let what = format!("s={s} dh={dh} last_only={last_only} {arm:?}");
                        assert_eq!(fused, oracle, "{what}");
                    }
                }
            }
        }
    }

    /// The fused attention node equals the composed-op oracle bit for bit
    /// — forward values, `dq`/`dk`/`dv` and every parameter / input
    /// gradient — on sequences of 1 to 24 tokens, with a query per token or
    /// only the last, at any head count, pool width and ISA arm.
    #[test]
    fn fused_attention_equals_composed_oracle() {
        cases(48, |rng| {
            let len = rng.gen_range(1..=24);
            let last_only = rng.gen_range(0..=1) == 1;
            let heads = [1, 2, 4][rng.gen_range(0..3usize)];
            // dh 24 at 4 heads makes the projections wide enough to fan out
            // across the pool on the longer sequences.
            let dh = [2, 5, 10, 24][rng.gen_range(0..4usize)];
            let threads = [1, 4][rng.gen_range(0..2usize)];
            let arm = ARMS[rng.gen_range(0..3usize)];
            let seed = rng.gen_range(0..1000);
            let [fused, oracle] = fused_and_oracle(len, heads, dh, seed, last_only, threads, arm);
            assert_eq!(fused, oracle);
        });
    }
}
