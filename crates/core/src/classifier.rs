//! The multi-label plan classifier — the hybrid model of Figure 3.
//!
//! Input: a serialized plan (token ids). The transformer encoder produces a
//! query embedding (last token's representation); a feed-forward decoder with
//! one hidden layer emits one logit per label (page). Training is end-to-end
//! with `BCEWithLogitsLoss` + Adam. "Intuitively, we can think of training n
//! binary classifiers where n is the number of blocks for a given database
//! object" (§3.3).
//!
//! One encoder can carry several decoder *heads*, each over its own run of
//! the label space: the plan is encoded once and every head reads the same
//! representation. With one head this is exactly the paper's model; with one
//! head per database object it is a whole workload behind one encoder pass
//! ([`crate::config::Grouping`]).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use pythia_nn::init::Initializer;
use pythia_nn::layers::{Linear, TransformerEncoder};
use pythia_nn::tape::{bce_with_logits, forward_only, recording, ParamSet, Tape};
use pythia_nn::{grad_l2_norm, Adam, Tensor, Var};

use crate::config::PythiaConfig;
use crate::vocab::Vocab;

/// One training example: serialized plan token ids (borrowed from the
/// workload's encoded plans — never cloned per object) and the positive
/// label indices (pages accessed non-sequentially), anywhere in the
/// classifier's label space — head `h` owns the labels from the summed widths
/// of the heads before it.
pub type Example<'a> = (&'a [usize], Vec<usize>);

/// Training summary.
#[derive(Debug, Clone, Copy)]
pub struct TrainReport {
    pub epochs: usize,
    pub steps: usize,
    pub first_loss: f32,
    pub final_loss: f32,
}

/// Most sequences one inference forward packs. Rows of a packed batch are
/// independent, so chunking changes no output; it bounds the working memory
/// of [`PlanClassifier::scores_batch`] whatever the queue depth.
const INFER_CHUNK: usize = 32;

/// One decoder: hidden layer → one logit per label of its run.
#[derive(serde::Serialize, serde::Deserialize)]
struct Head {
    fc1: Linear,
    fc2: Linear,
    /// Where this head's run starts in the classifier's label space.
    first_label: usize,
}

/// A trained (or trainable) multi-label classifier: one encoder, one or more
/// decoder heads, `n_labels` classes in all.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct PlanClassifier {
    params: ParamSet,
    encoder: TransformerEncoder,
    heads: Vec<Head>,
    n_labels: usize,
    threshold: f32,
    max_seq_len: usize,
}

impl PlanClassifier {
    /// Construct an untrained classifier with one decoder head per entry of
    /// `head_labels`, that many labels wide.
    pub fn new(cfg: &PythiaConfig, vocab_size: usize, head_labels: &[usize]) -> Self {
        cfg.validate().expect("invalid config");
        assert!(
            !head_labels.is_empty() && head_labels.iter().all(|&n| n > 0),
            "classifier needs at least one head, each with at least one label"
        );
        let mut params = ParamSet::new();
        let mut init = Initializer::new(cfg.seed);
        let encoder = TransformerEncoder::new(
            &mut params,
            &mut init,
            "enc",
            vocab_size.max(2),
            cfg.embed_dim,
            cfg.heads,
            cfg.ff_dim,
            cfg.layers,
            cfg.max_seq_len,
        );
        let mut n_labels = 0;
        let heads = head_labels
            .iter()
            .enumerate()
            .map(|(h, &width)| {
                let (fc1, fc2) = (format!("head{h}.fc1"), format!("head{h}.fc2"));
                let head = Head {
                    fc1: Linear::new(
                        &mut params,
                        &mut init,
                        &fc1,
                        cfg.embed_dim,
                        cfg.decoder_hidden,
                    ),
                    fc2: Linear::new(&mut params, &mut init, &fc2, cfg.decoder_hidden, width),
                    first_label: n_labels,
                };
                n_labels += width;
                head
            })
            .collect();
        PlanClassifier {
            params,
            encoder,
            heads,
            n_labels,
            threshold: cfg.threshold,
            max_seq_len: cfg.max_seq_len,
        }
    }

    /// Number of output labels, all heads together.
    pub fn n_labels(&self) -> usize {
        self.n_labels
    }

    /// Model size in bytes (paper reports per-template model sizes).
    pub fn size_bytes(&self) -> usize {
        self.params.size_bytes()
    }

    fn clip<'a>(&self, toks: &'a [usize]) -> &'a [usize] {
        &toks[..toks.len().min(self.max_seq_len)]
    }

    /// Train with Adam on BCE-with-logits (paper's objective).
    ///
    /// One [`Tape`] is reused across all minibatches: `reset` and `absorb`
    /// return every node, target and gradient buffer to its exact-size
    /// arena, so a minibatch whose shape (batch × longest plan) was seen in
    /// either of the two steps before it allocates no tensor storage. The
    /// arena frees what two consecutive steps did not use, so the tape never
    /// holds more than two steps' working sets. The arena is the calling
    /// thread's ([`recording`]): the next model trained on this thread
    /// starts on warm buffers, and it is the caller of a round of trainings
    /// that frees it (`train_workload` and `TrainedWorkload::refine` do).
    pub fn train(&mut self, data: &[Example<'_>], cfg: &PythiaConfig) -> TrainReport {
        recording(|tape| self.train_phase(tape, data, cfg, false))
    }

    /// Continue training from the current parameters on additional examples
    /// (fresh Adam state). This is the paper's incremental-training path:
    /// "Every new query run can be used as a new training data point to
    /// improve Pythia models" (§5.3).
    pub fn refine(&mut self, data: &[Example<'_>], cfg: &PythiaConfig) -> TrainReport {
        recording(|tape| self.train_phase(tape, data, cfg, true))
    }

    /// The shared train/refine loop: each step encodes the minibatch once,
    /// runs every head on the `[batch, dim]` representations and
    /// back-propagates the sum of the heads' losses (one head records no
    /// sum). `refine` only matters for telemetry:
    /// with capture on ([`pythia_obs::train::set_enabled`]) every epoch emits
    /// one record carrying its mean minibatch loss, mean gradient L2 norm,
    /// step count, and wall timing, tagged with the `(worker, model)` context
    /// the pool set for this thread. With capture off (the default) the only
    /// cost is one atomic load per call — the optimizer math is untouched
    /// either way, so trained weights are bit-identical.
    fn train_phase(
        &mut self,
        tape: &mut Tape<'static>,
        data: &[Example<'_>],
        cfg: &PythiaConfig,
        refine: bool,
    ) -> TrainReport {
        assert!(!data.is_empty(), "no training data");
        let mut adam = Adam::new(&self.params, cfg.lr);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7e57);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut first_loss = f32::NAN;
        let mut final_loss = f32::NAN;
        let mut steps = 0;
        let telemetry = pythia_obs::train::enabled();
        for epoch in 0..cfg.epochs {
            let epoch_start = if telemetry {
                pythia_obs::wall::now_us()
            } else {
                0
            };
            let mut epoch_loss = 0.0f64;
            let mut epoch_grad_norm = 0.0f64;
            let mut epoch_steps = 0u32;
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size) {
                let seqs: Vec<&[usize]> = chunk.iter().map(|&i| self.clip(data[i].0)).collect();
                tape.reset();
                let mut targets: Vec<Tensor> = self
                    .heads
                    .iter()
                    .map(|h| tape.zeros(chunk.len(), h.fc2.out_dim))
                    .collect();
                for (r, &i) in chunk.iter().enumerate() {
                    for &lbl in &data[i].1 {
                        debug_assert!(lbl < self.n_labels);
                        let h = self.heads.partition_point(|h| h.first_label <= lbl) - 1;
                        targets[h].set(r, lbl - self.heads[h].first_label, 1.0);
                    }
                }
                let vars = self.params.inject(tape);
                let mut loss = None;
                for (logits, t) in self.logits(tape, &vars, &seqs).into_iter().zip(targets) {
                    let l = bce_with_logits(tape, logits, t, cfg.pos_weight);
                    loss = Some(loss.map_or(l, |sum| tape.add(sum, l)));
                }
                let loss = loss.expect("at least one head");
                let loss_val = tape.value(loss).get(0, 0);
                if first_loss.is_nan() {
                    first_loss = loss_val;
                }
                final_loss = loss_val;
                let grads = tape.backward(loss);
                if telemetry {
                    epoch_loss += loss_val as f64;
                    epoch_grad_norm += grad_l2_norm(&grads, &vars) as f64;
                    epoch_steps += 1;
                }
                adam.step(&mut self.params, &vars, &grads);
                tape.absorb(grads);
                steps += 1;
            }
            if telemetry && epoch_steps > 0 {
                let (worker, model) = pythia_obs::train::context();
                pythia_obs::train::record_epoch(pythia_obs::train::EpochRec {
                    refine,
                    worker,
                    model,
                    epoch: epoch as u32,
                    steps: epoch_steps,
                    loss_e6: pythia_obs::train::to_e6(epoch_loss / epoch_steps as f64),
                    grad_norm_e6: pythia_obs::train::to_e6(epoch_grad_norm / epoch_steps as f64),
                    start_us: epoch_start,
                    dur_us: pythia_obs::wall::now_us().saturating_sub(epoch_start),
                });
            }
        }
        TrainReport {
            epochs: cfg.epochs,
            steps,
            first_loss,
            final_loss,
        }
    }

    /// The forward graph: one packed encoder pass, then per head hidden →
    /// one logit per label, `[seqs.len(), head width]` each.
    fn logits(&self, tape: &mut Tape<'_>, vars: &[Var], seqs: &[&[usize]]) -> Vec<Var> {
        let reps = self.encoder.encode_batch(tape, vars, seqs, Vocab::PAD);
        self.heads
            .iter()
            .map(|head| {
                let h = head.fc1.forward(tape, vars, reps);
                let h = tape.relu(h);
                head.fc2.forward(tape, vars, h)
            })
            .collect()
    }

    /// Per-label sigmoid scores for one serialized plan, head after head
    /// (an empty plan scores as a single `PAD` token).
    pub fn scores(&self, toks: &[usize]) -> Vec<f32> {
        self.scores_chunk(&[toks]).pop().expect("one row per plan")
    }

    /// Per-label sigmoid scores for a whole batch of serialized plans, at
    /// most [`INFER_CHUNK`] per packed forward. Row `q` of the result is
    /// bit-identical to `scores(toks_list[q])` — every op in the packed
    /// forward (linear, layer-norm, per-sample masked attention, relu)
    /// computes each row independently, in the same accumulation order
    /// whatever else shares its batch.
    pub fn scores_batch(&self, toks_list: &[&[usize]]) -> Vec<Vec<f32>> {
        toks_list
            .chunks(INFER_CHUNK)
            .flat_map(|chunk| self.scores_chunk(chunk))
            .collect()
    }

    /// One packed forward on this thread's forward-only tape: the parameters
    /// are lent, not copied, no activation outlives its layer, and a repeat
    /// call at the same shapes allocates nothing.
    fn scores_chunk(&self, toks_list: &[&[usize]]) -> Vec<Vec<f32>> {
        let clipped: Vec<&[usize]> = toks_list.iter().map(|t| self.clip(t)).collect();
        forward_only(|tape| {
            let vars = self.params.lend(tape);
            let logits = self.logits(tape, &vars, &clipped);
            (0..clipped.len())
                .map(|r| {
                    logits
                        .iter()
                        .flat_map(|&head| tape.value(head).row(r))
                        .map(|&z| 1.0 / (1.0 + (-z).exp()))
                        .collect()
                })
                .collect()
        })
    }

    /// Labels whose score exceeds the threshold.
    pub fn predict(&self, toks: &[usize]) -> Vec<usize> {
        Self::threshold_labels(self.scores(toks), self.threshold)
    }

    /// [`Self::predict`] for a batch of plans through one forward pass.
    pub fn predict_batch(&self, toks_list: &[&[usize]]) -> Vec<Vec<usize>> {
        self.scores_batch(toks_list)
            .into_iter()
            .map(|s| Self::threshold_labels(s, self.threshold))
            .collect()
    }

    fn threshold_labels(scores: Vec<f32>, threshold: f32) -> Vec<usize> {
        scores
            .into_iter()
            .enumerate()
            .filter(|(_, s)| *s > threshold)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny synthetic task: token t in {2,3,4} deterministically selects a
    /// block of labels; classifier must learn the mapping. Returns owned
    /// sequences; borrow them with [`as_examples`] before training.
    fn block_task() -> Vec<(Vec<usize>, Vec<usize>)> {
        let mut data = Vec::new();
        for t in 2..5usize {
            for rep in 0..6 {
                let labels: Vec<usize> = ((t - 2) * 4..(t - 2) * 4 + 4).collect();
                data.push((vec![t, 5 + rep % 3], labels));
            }
        }
        data
    }

    fn as_examples(owned: &[(Vec<usize>, Vec<usize>)]) -> Vec<Example<'_>> {
        owned
            .iter()
            .map(|(t, l)| (t.as_slice(), l.clone()))
            .collect()
    }

    fn tiny_cfg() -> PythiaConfig {
        PythiaConfig {
            epochs: 40,
            batch_size: 8,
            lr: 5e-3,
            ..PythiaConfig::fast()
        }
    }

    #[test]
    fn learns_token_to_block_mapping() {
        let cfg = tiny_cfg();
        let owned = block_task();
        let data = as_examples(&owned);
        let mut clf = PlanClassifier::new(&cfg, 10, &[12]);
        let report = clf.train(&data, &cfg);
        assert!(report.final_loss < report.first_loss, "loss must decrease");
        for t in 2..5usize {
            let pred = clf.predict(&[t, 5]);
            let expect: Vec<usize> = ((t - 2) * 4..(t - 2) * 4 + 4).collect();
            assert_eq!(pred, expect, "token {t}");
        }
    }

    #[test]
    fn scores_are_probabilities() {
        let cfg = PythiaConfig::fast();
        let clf = PlanClassifier::new(&cfg, 10, &[5]);
        let s = clf.scores(&[2, 3]);
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn long_inputs_are_clipped() {
        let cfg = PythiaConfig {
            max_seq_len: 8,
            ..PythiaConfig::fast()
        };
        let clf = PlanClassifier::new(&cfg, 10, &[3]);
        let long: Vec<usize> = (0..100).map(|i| 2 + i % 8).collect();
        let s = clf.scores(&long);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn size_reporting() {
        let cfg = PythiaConfig::fast();
        let small = PlanClassifier::new(&cfg, 50, &[10]);
        let big = PlanClassifier::new(&cfg, 50, &[1000]);
        assert!(big.size_bytes() > small.size_bytes());
        assert_eq!(big.n_labels(), 1000);
    }

    #[test]
    fn heads_partition_the_label_space() {
        // The block task again, its twelve labels dealt to three heads of
        // different widths (one block straddles two heads): same examples,
        // same flat labels, same predictions.
        let cfg = tiny_cfg();
        let owned = block_task();
        let data = as_examples(&owned);
        let mut clf = PlanClassifier::new(&cfg, 10, &[5, 1, 6]);
        assert_eq!(clf.n_labels(), 12);
        let report = clf.train(&data, &cfg);
        assert!(report.final_loss < report.first_loss, "loss must decrease");
        for t in 2..5usize {
            let expect: Vec<usize> = ((t - 2) * 4..(t - 2) * 4 + 4).collect();
            assert_eq!(clf.predict(&[t, 5]), expect, "token {t}");
            assert_eq!(clf.scores(&[t, 5]).len(), 12);
        }
        // Three decoders cost two more hidden layers than one.
        let one = PlanClassifier::new(&cfg, 10, &[12]);
        let hidden = (cfg.embed_dim + 1) * cfg.decoder_hidden * 4;
        assert_eq!(clf.size_bytes(), one.size_bytes() + 2 * hidden);
    }

    #[test]
    fn batched_scores_bit_identical_to_serial() {
        // The tentpole contract: one packed forward over N plans must produce
        // exactly the floats the serial per-plan forward produces — including
        // for batches of mixed sequence lengths (padding + attention masking
        // must be invisible to the real rows) — under one head and under
        // several.
        for heads in [&[12usize][..], &[5, 1, 6]] {
            batched_scores_match_serial(heads);
        }
    }

    fn batched_scores_match_serial(heads: &[usize]) {
        let cfg = tiny_cfg();
        let owned = block_task();
        let data = as_examples(&owned);
        let mut clf = PlanClassifier::new(&cfg, 10, heads);
        clf.train(&data, &cfg);
        let seqs: Vec<Vec<usize>> = vec![vec![2, 5], vec![3, 5, 6, 7, 8], vec![4], vec![2, 6, 7]];
        let refs: Vec<&[usize]> = seqs.iter().map(|s| s.as_slice()).collect();
        let batched = clf.scores_batch(&refs);
        assert_eq!(batched.len(), seqs.len());
        for (q, s) in seqs.iter().enumerate() {
            let serial = clf.scores(s);
            assert_eq!(
                batched[q], serial,
                "batch row {q} diverged from the serial forward"
            );
        }
        // Thresholding commutes with batching.
        let pb = clf.predict_batch(&refs);
        for (q, s) in seqs.iter().enumerate() {
            assert_eq!(pb[q], clf.predict(s));
        }
    }

    #[test]
    fn batches_past_the_chunk_size_and_empty_plans_match_serial() {
        for heads in [&[7usize][..], &[2, 4, 1]] {
            past_the_chunk_size(heads);
        }
    }

    fn past_the_chunk_size(heads: &[usize]) {
        let cfg = PythiaConfig::fast();
        let clf = PlanClassifier::new(&cfg, 10, heads);
        // 70 plans: three packed forwards (32 + 32 + 6), an empty plan in
        // the middle of one.
        let mut seqs: Vec<Vec<usize>> = (0..70)
            .map(|q| (0..1 + q % 9).map(|i| 2 + (q + i) % 8).collect())
            .collect();
        seqs[40].clear();
        let refs: Vec<&[usize]> = seqs.iter().map(|s| s.as_slice()).collect();
        let batched = clf.scores_batch(&refs);
        assert_eq!(batched.len(), seqs.len());
        for (q, s) in seqs.iter().enumerate() {
            assert_eq!(batched[q], clf.scores(s), "batch row {q}");
        }
        // Serial and batched agree on the edge: an empty plan is one PAD.
        assert_eq!(clf.scores(&[]), clf.scores_batch(&[&[]])[0]);
        assert_eq!(clf.scores(&[]), clf.scores(&[Vocab::PAD]));
        assert!(clf.scores_batch(&[]).is_empty());
    }

    #[test]
    fn warm_scores_allocate_nothing_and_never_copy_the_model() {
        let cfg = PythiaConfig::fast();
        let clf = PlanClassifier::new(&cfg, 10, &[12]);
        let arena = || forward_only(|tape| (tape.allocations(), tape.retained_bytes()));
        let first = clf.scores(&[2, 3, 4]);
        let (warm, retained) = arena();
        for _ in 0..5 {
            assert_eq!(clf.scores(&[2, 3, 4]), first);
        }
        assert_eq!(arena(), (warm, retained), "a warm call allocated");
        // Everything this thread's arena holds is one call's activations —
        // far less than the parameters a copying forward would have pooled.
        assert!(retained > 0 && retained < clf.size_bytes() / 4);
    }

    #[test]
    fn the_next_model_on_a_thread_trains_on_the_buffers_of_the_last() {
        use pythia_nn::tape::free_recording_arena;
        // 18 examples in three minibatches of six: one shape per step.
        let cfg = PythiaConfig {
            epochs: 3,
            batch_size: 6,
            ..PythiaConfig::fast()
        };
        let owned = block_task();
        let data = as_examples(&owned);
        let allocations = || recording(|tape| tape.allocations());
        PlanClassifier::new(&cfg, 10, &[12]).train(&data, &cfg);
        let first = allocations();
        assert!(first > 0);
        PlanClassifier::new(&cfg, 10, &[12]).train(&data, &cfg);
        assert_eq!(allocations(), first, "a same-shaped model allocated");
        // Another label count: the encoder's buffers still serve, and the
        // arena has let go of the first model's label-shaped ones.
        PlanClassifier::new(&cfg, 10, &[20]).refine(&data, &cfg);
        let fresh = allocations() - first;
        assert!(0 < fresh && fresh < first / 4, "{fresh} of {first} fresh");
        assert!(recording(|tape| tape.retained_bytes()) > 0);
        free_recording_arena();
        let arena = recording(|tape| (tape.allocations(), tape.retained_bytes()));
        assert_eq!(arena, (0, 0));
    }

    // One test covers all telemetry behavior: the capture flag is
    // process-global, so two #[test]s toggling it would race each other.
    #[test]
    fn training_telemetry_records_epochs_and_never_changes_weights() {
        use pythia_obs::train as tt;
        let cfg = PythiaConfig {
            epochs: 5,
            batch_size: 8,
            lr: 5e-3,
            ..PythiaConfig::fast()
        };
        let owned = block_task();
        let data = as_examples(&owned);
        // Baseline run through the same train + refine sequence, capture off.
        let mut plain = PlanClassifier::new(&cfg, 10, &[12]);
        plain.train(&data, &cfg);
        plain.refine(&data, &cfg);

        let mut clf = PlanClassifier::new(&cfg, 10, &[12]);
        // Other tests may train concurrently while the flag is on; a unique
        // context tag isolates our records in the shared buffer.
        tt::set_context(0, 424_242);
        tt::set_enabled(true);
        clf.train(&data, &cfg);
        clf.refine(&data, &cfg);
        tt::set_enabled(false);
        tt::set_context(0, 0);

        let mine: Vec<tt::EpochRec> = tt::drain()
            .into_iter()
            .filter_map(|r| match r {
                tt::TrainRec::Epoch(e) if e.model == 424_242 => Some(e),
                _ => None,
            })
            .collect();
        let trained: Vec<&tt::EpochRec> = mine.iter().filter(|e| !e.refine).collect();
        let refined: Vec<&tt::EpochRec> = mine.iter().filter(|e| e.refine).collect();
        assert_eq!(trained.len(), cfg.epochs, "one record per train epoch");
        assert_eq!(refined.len(), cfg.epochs, "one record per refine epoch");
        assert_eq!(
            trained.iter().map(|e| e.epoch).collect::<Vec<_>>(),
            (0..cfg.epochs as u32).collect::<Vec<_>>()
        );
        // 18 examples at batch size 8 → 3 minibatches per epoch.
        assert!(trained.iter().all(|e| e.steps == 3));
        assert!(trained.iter().all(|e| e.grad_norm_e6 > 0));
        assert!(
            trained.last().unwrap().loss_e6 < trained.first().unwrap().loss_e6,
            "mean epoch loss must fall on this learnable task"
        );
        // Capture is observation-only: same weights as the baseline run.
        for t in 2..5usize {
            assert_eq!(plain.scores(&[t, 5]), clf.scores(&[t, 5]));
        }
    }

    #[test]
    fn empty_positive_sets_are_valid() {
        let cfg = tiny_cfg();
        let mut clf = PlanClassifier::new(&cfg, 10, &[4]);
        let (t1, t2) = (vec![2usize, 3], vec![3usize, 4]);
        let data: Vec<Example<'_>> = vec![(&t1, vec![]), (&t2, vec![0])];
        let report = clf.train(&data, &cfg);
        assert!(report.final_loss.is_finite());
    }
}
