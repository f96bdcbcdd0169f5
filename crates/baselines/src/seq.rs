//! The sequence-prediction baseline (§5.2, Figure 9).
//!
//! The paper trains Longformer variants that predict the next block given the
//! past K blocks, concluding that "even if transformers are good at
//! predicting page accesses with sequence information intact, they are still
//! impractical to be used for prefetching" — one inference per block.
//!
//! This module reproduces that design point from scratch: block accesses are
//! tokenized (one token per distinct page seen in training, plus `[EOS]`),
//! a transformer encoder over the last K tokens predicts the next token, and
//! generation rolls the model forward one block per step. Both the paper's
//! variants exist: raw traces (with repetitions) and deduplicated traces,
//! each with context windows 32 or 64.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use pythia_db::trace::{Trace, TraceEvent};
use pythia_nn::init::Initializer;
use pythia_nn::layers::{Linear, TransformerEncoder};
use pythia_nn::tape::{bce_with_logits, ParamSet, Tape};
use pythia_nn::{Adam, Tensor};
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

const BOS: usize = 0; // sequence start / padding
const EOS: usize = 1; // end of trace

/// An autoregressive next-block model.
pub struct SeqModel {
    cfg: SeqModelConfig,
    params: ParamSet,
    encoder: TransformerEncoder,
    head: Linear,
    /// token id -> page (ids 0/1 reserved).
    pages: Vec<PageId>,
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
    /// Train on a workload's traces.
    pub fn train(cfg: &SeqModelConfig, traces: &[Trace]) -> SeqModel {
        let start = std::time::Instant::now();
        // Build the block vocabulary from training traces.
        let mut pages = vec![PageId::new(pythia_sim::FileId(u32::MAX), 0); 2];
        let mut page_to_token = HashMap::new();
        for t in traces {
            for e in t.iter() {
                if let TraceEvent::Read { page, kind, .. } = e {
                    if !kind.is_sequential() && !page_to_token.contains_key(&page) {
                        page_to_token.insert(page, pages.len());
                        pages.push(page);
                    }
                }
            }
        }
        let vocab = pages.len();

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
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF00D);
        windows.shuffle(&mut rng);
        windows.truncate(cfg.max_windows);
        assert!(!windows.is_empty(), "no training windows");

        let mut model = SeqModel {
            cfg: cfg.clone(),
            params,
            encoder,
            head,
            pages,
            page_to_token,
            train_seconds: 0.0,
        };

        let mut adam = Adam::new(&model.params, cfg.lr);
        let mut order: Vec<usize> = (0..windows.len()).collect();
        for _epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size) {
                let seqs: Vec<&[usize]> = chunk.iter().map(|&i| windows[i].0.as_slice()).collect();
                let mut targets = Tensor::zeros(chunk.len(), vocab);
                for (r, &i) in chunk.iter().enumerate() {
                    targets.set(r, windows[i].1, 1.0);
                }
                let mut tape = Tape::new();
                let vars = model.params.inject(&mut tape);
                let reps = model.encoder.encode_batch(&mut tape, &vars, &seqs, BOS);
                let logits = model.head.forward(&mut tape, &vars, reps);
                // One-hot BCE: a softmax-free stand-in for cross-entropy that
                // our loss library supports; argmax decoding is unaffected.
                let loss = bce_with_logits(&mut tape, logits, targets, (vocab as f32).sqrt());
                let grads = tape.backward(loss);
                adam.step(&mut model.params, &vars, &grads);
            }
        }
        model.train_seconds = start.elapsed().as_secs_f64();
        model
    }

    /// Vocabulary size (distinct blocks + 2 specials).
    pub fn vocab(&self) -> usize {
        self.pages.len()
    }

    /// One inference step: most likely next token given a context.
    fn next_token(&self, ctx: &[usize]) -> usize {
        let lo = ctx.len().saturating_sub(self.cfg.context);
        let window: Vec<usize> = if ctx[lo..].is_empty() {
            vec![BOS]
        } else {
            ctx[lo..].to_vec()
        };
        let mut tape = Tape::new();
        let vars = self.params.inject(&mut tape);
        let rep = self.encoder.encode(&mut tape, &vars, &window, BOS);
        let logits = self.head.forward(&mut tape, &vars, rep);
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
    }

    /// Autoregressive generation of up to `max_blocks` block predictions
    /// (stops at `[EOS]`). Returns the pages and the number of inference
    /// steps performed — each generated block costs one model inference,
    /// which is the impracticality the paper measures.
    pub fn generate(&self, max_blocks: usize) -> (Vec<PageId>, usize) {
        let mut ctx = vec![BOS];
        let mut out = Vec::new();
        let mut steps = 0;
        while out.len() < max_blocks {
            let t = self.next_token(&ctx);
            steps += 1;
            if t == EOS || t == BOS {
                break;
            }
            out.push(self.pages[t]);
            ctx.push(t);
            // Dedup-trained models can loop on their most confident block;
            // cut obvious 2-cycles to keep generation productive.
            let n = ctx.len();
            if n >= 4 && ctx[n - 1] == ctx[n - 3] && ctx[n - 2] == ctx[n - 4] {
                break;
            }
        }
        (out, steps)
    }

    /// Tokens of a trace under this model's vocabulary (for evaluation).
    pub fn tokens_of(&self, trace: &Trace) -> Vec<usize> {
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
        assert_eq!(m.vocab(), 12, "10 distinct pages + 2 specials");
        let acc = m.teacher_forced_accuracy(&stride_trace(30), 1);
        assert!(acc > 0.8, "teacher-forced accuracy {acc}");
    }

    #[test]
    fn generation_counts_steps() {
        let traces: Vec<Trace> = (0..6).map(|_| stride_trace(30)).collect();
        let m = SeqModel::train(&quick_cfg(), &traces);
        let (pages, steps) = m.generate(10);
        assert!(steps >= pages.len(), "one inference per block minimum");
        assert!(steps <= 11);
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
