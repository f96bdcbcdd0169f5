//! The sequence-prediction baseline (§5.2, Figure 9).
//!
//! The paper trains Longformer variants that predict the next block given the
//! past K blocks, concluding that "even if transformers are good at
//! predicting page accesses with sequence information intact, they are still
//! impractical to be used for prefetching" — one inference per block.
//!
//! This module reproduces that design point from scratch: block accesses are
//! tokenized (one token per distinct page seen in training, plus `[EOS]`),
//! and a transformer encoder over the last K tokens predicts the next token,
//! so a query's blocks take one inference each. Both the paper's variants
//! exist: raw traces (with repetitions) and deduplicated traces, each with
//! context windows 32 or 64.

use std::collections::HashMap;

use pythia_db::trace::{Trace, TraceEvent};
use pythia_nn::init::Initializer;
use pythia_nn::layers::{Linear, TransformerEncoder};
use pythia_nn::tape::{
    bce_with_logits_over, forward_only, free_recording_arena, recording, Gradients, ParamSet,
};
use pythia_nn::Adam;
use pythia_sim::rng::Rng;
use pythia_sim::PageId;

/// Configuration of the sequence baseline.
#[derive(Debug, Clone)]
pub struct SeqModelConfig {
    /// Context window K (paper: 32 and 64).
    pub context: usize,
    /// Train on raw traces (with repeats) or deduplicated traces.
    pub dedup: bool,
    pub embed_dim: usize,
    pub heads: usize,
    pub layers: usize,
    pub ff_dim: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    /// Cap on training windows sampled per workload (training cost control;
    /// the paper had 4×V100 GPUs and still took 3.8 hours).
    pub max_windows: usize,
    pub seed: u64,
}

impl Default for SeqModelConfig {
    fn default() -> Self {
        SeqModelConfig {
            context: 32,
            dedup: true,
            embed_dim: 32,
            heads: 4,
            layers: 2,
            ff_dim: 64,
            epochs: 3,
            batch_size: 32,
            lr: 2e-3,
            max_windows: 2_000,
            seed: 5,
        }
    }
}

const BOS: usize = 0; // sequence start
const EOS: usize = 1; // end of trace

/// An autoregressive next-block model.
pub struct SeqModel {
    cfg: SeqModelConfig,
    params: ParamSet,
    encoder: TransformerEncoder,
    head: Linear,
    /// page -> token id (ids 0/1 reserved).
    page_to_token: HashMap<PageId, usize>,
    pub train_seconds: f64,
}

fn trace_tokens(trace: &Trace, dedup: bool, page_to_token: &HashMap<PageId, usize>) -> Vec<usize> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for e in trace.iter() {
        if let TraceEvent::Read { page, kind, .. } = e {
            if kind.is_sequential() {
                continue;
            }
            if dedup && !seen.insert(page) {
                continue;
            }
            if let Some(&t) = page_to_token.get(&page) {
                out.push(t);
            }
        }
    }
    out
}

impl SeqModel {
    /// Train on a workload's traces, on this thread's training arena, which
    /// is freed when the model is trained.
    pub fn train(cfg: &SeqModelConfig, traces: &[Trace]) -> SeqModel {
        let start = std::time::Instant::now();
        // Build the block vocabulary from training traces.
        let mut page_to_token = HashMap::new();
        for t in traces {
            for e in t.iter() {
                if let TraceEvent::Read { page, kind, .. } = e {
                    if !kind.is_sequential() && !page_to_token.contains_key(&page) {
                        page_to_token.insert(page, page_to_token.len() + 2);
                    }
                }
            }
        }
        let vocab = page_to_token.len() + 2;

        let mut params = ParamSet::new();
        let mut init = Initializer::new(cfg.seed);
        let encoder = TransformerEncoder::new(
            &mut params,
            &mut init,
            "seq",
            vocab,
            cfg.embed_dim,
            cfg.heads,
            cfg.ff_dim,
            cfg.layers,
            cfg.context + 1,
        );
        let head = Linear::new(&mut params, &mut init, "head", cfg.embed_dim, vocab);

        // Sliding windows: (context tokens, next token).
        let mut windows: Vec<(Vec<usize>, usize)> = Vec::new();
        for t in traces {
            let mut toks = trace_tokens(t, cfg.dedup, &page_to_token);
            toks.push(EOS);
            for i in 0..toks.len() {
                let lo = i.saturating_sub(cfg.context);
                let mut ctx: Vec<usize> = toks[lo..i].to_vec();
                if ctx.is_empty() {
                    ctx.push(BOS);
                }
                windows.push((ctx, toks[i]));
            }
        }
        let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xF00D);
        rng.shuffle(&mut windows);
        windows.truncate(cfg.max_windows);
        assert!(!windows.is_empty(), "no training windows");

        let mut model = SeqModel {
            cfg: cfg.clone(),
            params,
            encoder,
            head,
            page_to_token,
            train_seconds: 0.0,
        };

        // Each minibatch trains one window per pass, as the plan classifier
        // does: each pass's backward continues the gradients of the pass
        // before, and one Adam step follows the last. The loss is one-hot
        // BCE: a softmax-free stand-in for cross-entropy that our loss
        // library supports; argmax decoding is unaffected.
        let pos_weight = (vocab as f32).sqrt();
        let mut adam = Adam::new(&model.params, cfg.lr);
        let mut order: Vec<usize> = (0..windows.len()).collect();
        for _epoch in 0..cfg.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(cfg.batch_size) {
                let (mut grads, mut vars, mut total) = (Gradients::default(), Vec::new(), 0.0);
                for &i in chunk {
                    let (ctx, next) = (&windows[i].0, windows[i].1);
                    (grads, vars) = recording(|tape| {
                        let mut target = tape.zeros(1, vocab);
                        target.set(0, next, 1.0);
                        let vars = model.params.lend(tape);
                        let rep = model.encoder.encode(tape, &vars, ctx, BOS);
                        let logits = model.head.forward(tape, &vars, rep);
                        let rows = chunk.len();
                        let loss = bce_with_logits_over(
                            tape, logits, target, pos_weight, rows, &mut total,
                        );
                        (tape.backward_into(loss, grads), vars)
                    });
                }
                adam.step(&mut model.params, &vars, &grads);
                recording(|tape| tape.absorb(grads));
            }
        }
        free_recording_arena();
        model.train_seconds = start.elapsed().as_secs_f64();
        model
    }

    /// One inference step: most likely next token given a context.
    fn next_token(&self, ctx: &[usize]) -> usize {
        let lo = ctx.len().saturating_sub(self.cfg.context);
        let window: Vec<usize> = if ctx[lo..].is_empty() {
            vec![BOS]
        } else {
            ctx[lo..].to_vec()
        };
        forward_only(|tape| {
            let vars = self.params.lend(tape);
            let rep = self.encoder.encode(tape, &vars, &window, BOS);
            let logits = self.head.forward(tape, &vars, rep);
            let v = tape.value(logits);
            let mut best = 0;
            let mut best_v = f32::NEG_INFINITY;
            for i in 0..v.cols() {
                if v.get(0, i) > best_v {
                    best_v = v.get(0, i);
                    best = i;
                }
            }
            best
        })
    }

    /// Tokens of a trace under this model's vocabulary (for evaluation).
    pub(crate) fn tokens_of(&self, trace: &Trace) -> Vec<usize> {
        trace_tokens(trace, self.cfg.dedup, &self.page_to_token)
    }

    /// Teacher-forced next-block accuracy over a trace: for each position,
    /// does the model predict the actual next block from the true prefix?
    /// (The fair accuracy measure for sequence models, independent of
    /// compounding rollout errors.)
    pub fn teacher_forced_accuracy(&self, trace: &Trace, sample_every: usize) -> f64 {
        let toks = self.tokens_of(trace);
        if toks.len() < 2 {
            return 0.0;
        }
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut i = 1;
        while i < toks.len() {
            let pred = self.next_token(&toks[..i]);
            if pred == toks[i] {
                correct += 1;
            }
            total += 1;
            i += sample_every.max(1);
        }
        correct as f64 / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_db::catalog::ObjectId;
    use pythia_db::trace::AccessKind;
    use pythia_sim::FileId;

    /// A deterministic cyclic trace: 0 -> 3 -> 6 -> ... (stride walk).
    fn stride_trace(n: u32) -> Trace {
        (0..n)
            .map(|i| TraceEvent::Read {
                obj: ObjectId(0),
                page: PageId::new(FileId(0), (i * 3) % 30),
                kind: AccessKind::HeapFetch,
            })
            .collect()
    }

    fn quick_cfg() -> SeqModelConfig {
        SeqModelConfig {
            epochs: 30,
            context: 8,
            max_windows: 400,
            ..Default::default()
        }
    }

    #[test]
    fn learns_a_deterministic_sequence() {
        let traces: Vec<Trace> = (0..6).map(|_| stride_trace(30)).collect();
        let m = SeqModel::train(&quick_cfg(), &traces);
        assert_eq!(m.page_to_token.len(), 10, "10 distinct pages");
        let acc = m.teacher_forced_accuracy(&stride_trace(30), 1);
        assert!(acc > 0.8, "teacher-forced accuracy {acc}");
    }

    #[test]
    fn dedup_variant_shrinks_token_stream() {
        let t = stride_trace(30); // each page repeated 3 times
        let cfg_raw = SeqModelConfig {
            dedup: false,
            epochs: 1,
            max_windows: 10,
            ..quick_cfg()
        };
        let cfg_dedup = SeqModelConfig {
            dedup: true,
            epochs: 1,
            max_windows: 10,
            ..quick_cfg()
        };
        let m_raw = SeqModel::train(&cfg_raw, std::slice::from_ref(&t));
        let m_dedup = SeqModel::train(&cfg_dedup, std::slice::from_ref(&t));
        assert_eq!(m_raw.tokens_of(&t).len(), 30);
        assert_eq!(m_dedup.tokens_of(&t).len(), 10);
    }

    /// FNV-1a (64-bit) over every weight's bit pattern, in registration
    /// order.
    fn weight_hash(m: &SeqModel) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (_, t) in m.params.iter() {
            for x in t.as_slice() {
                for byte in x.to_bits().to_le_bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn trained_weights_are_pinned_bit_for_bit() {
        // Two walks of different strides, so the vocabulary is wider than
        // one cycle; every trace's first windows are shorter than the
        // context, and minibatches of 7 mix them with full ones.
        let walk = |stride: u32, n: u32| -> Trace {
            (0..n)
                .map(|i| TraceEvent::Read {
                    obj: ObjectId(0),
                    page: PageId::new(FileId(0), (i * stride) % 20),
                    kind: AccessKind::HeapFetch,
                })
                .collect()
        };
        let traces = [walk(3, 24), walk(7, 18), walk(3, 9)];
        for (context, dedup, expect) in [
            (5, false, 0xb7d3_b75e_58d7_45d9u64),
            (8, true, 0xd3b8_e0b6_5572_ff76),
        ] {
            let cfg = SeqModelConfig {
                context,
                dedup,
                epochs: 2,
                batch_size: 7,
                max_windows: 45,
                ..Default::default()
            };
            let m = SeqModel::train(&cfg, &traces);
            assert_eq!(
                weight_hash(&m),
                expect,
                "context {context}, dedup {dedup}: {:#x}",
                weight_hash(&m)
            );
        }
    }

    #[test]
    fn records_training_time() {
        let traces = vec![stride_trace(20)];
        let cfg = SeqModelConfig {
            epochs: 1,
            max_windows: 20,
            ..quick_cfg()
        };
        let m = SeqModel::train(&cfg, &traces);
        assert!(m.train_seconds > 0.0);
    }
}
