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

use pythia_nn::init::Initializer;
use pythia_nn::layers::{Linear, TransformerEncoder};
use pythia_nn::tape::{bce_with_logits_over, forward_only, recording, Gradients, ParamSet, Tape};
use pythia_nn::{grad_l2_norm, Adam, Tensor, Var};
use pythia_obs::{to_e6, wall};
use pythia_sim::rng::Rng;

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

/// One decoder: hidden layer → one logit per label of its run.
#[derive(Clone)]
struct Head {
    fc1: Linear,
    fc2: Linear,
    /// Where this head's run starts in the classifier's label space.
    first_label: usize,
}

/// A trained (or trainable) multi-label classifier: one encoder, one or more
/// decoder heads, `n_labels` classes in all.
#[derive(Clone)]
pub struct PlanClassifier {
    params: ParamSet,
    encoder: TransformerEncoder,
    heads: Vec<Head>,
    n_labels: usize,
    max_seq_len: usize,
}

impl PlanClassifier {
    /// Construct an untrained classifier with one decoder head per entry of
    /// `head_labels`, that many labels wide.
    pub(crate) fn new(cfg: &PythiaConfig, vocab_size: usize, head_labels: &[usize]) -> Self {
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
            max_seq_len: cfg.max_seq_len,
        }
    }

    /// The parameter tensors, in the order [`Self::new`] registers them.
    #[cfg(test)]
    pub(crate) fn tensors(&self) -> impl Iterator<Item = &Tensor> {
        self.params.iter().map(|(_, t)| t)
    }

    /// Number of output labels, all heads together.
    #[cfg(test)]
    pub(crate) fn n_labels(&self) -> usize {
        self.n_labels
    }

    /// Model size in bytes (paper reports per-template model sizes).
    pub(crate) fn size_bytes(&self) -> usize {
        self.params.size_bytes()
    }

    fn clip<'a>(&self, toks: &'a [usize]) -> &'a [usize] {
        &toks[..toks.len().min(self.max_seq_len)]
    }

    /// Train with Adam on BCE-with-logits (paper's objective), or, with
    /// `refine`, continue training from the current parameters on additional
    /// examples (fresh Adam state) — the paper's incremental-training path:
    /// "Every new query run can be used as a new training data point to
    /// improve Pythia models" (§5.3).
    ///
    /// Each step records its minibatch one plan per pass — each pass encodes
    /// its plan once, runs every head on the `[1, dim]` representation and
    /// back-propagates the sum of the heads' losses (one head records no
    /// sum), continuing the gradients of the pass before — then takes one
    /// Adam step. Each head's loss is the mean over the whole minibatch: its
    /// `f64` sum is carried from pass to pass, so the loss after the last
    /// pass is the minibatch's. A parameter gradient is one chain of
    /// additions over the minibatch's rows in ascending order, which each
    /// pass resumes ([`Tape::backward_into`]); what passes of one bound is
    /// working memory, one sequence's activations whatever `batch_size`
    /// (DESIGN.md, "NN step memory").
    ///
    /// Each pass records on a tape the parameters are lent to, not copied
    /// into; every node, target and gradient buffer goes back to one best-fit
    /// arena, where a request takes a free buffer of at most twice its size,
    /// so a pass no longer than one of the two passes before it and at least
    /// half as long allocates no tensor storage. The arena frees what two
    /// consecutive passes did not use, so it holds one sequence's working set
    /// — beside the gradients the passes continue — when the lengths repeat,
    /// and never more than two. The arena is the calling thread's
    /// ([`recording`]): the next model trained on this thread starts on warm
    /// buffers, and it is the caller of a round of trainings that frees it
    /// (`train_workload` and `TrainedWorkload::refine` do).
    ///
    /// `refine` only matters for telemetry: with capture on
    /// ([`pythia_obs::wall::set_enabled`]) every epoch emits one record
    /// carrying its mean minibatch loss, mean gradient L2 norm, step count,
    /// and wall timing, tagged with the `(worker, model)` context the pool
    /// set for this thread. With capture off (the default) the only cost is
    /// one atomic load per call — the optimizer math is untouched either way,
    /// so trained weights are bit-identical.
    pub(crate) fn train_phase(
        &mut self,
        data: &[Example<'_>],
        cfg: &PythiaConfig,
        refine: bool,
    ) -> TrainReport {
        assert!(!data.is_empty(), "no training data");
        let mut adam = Adam::new(&self.params, cfg.lr);
        let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x7e57);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut first_loss = f32::NAN;
        let mut final_loss = f32::NAN;
        let mut steps = 0;
        let telemetry = wall::enabled();
        for epoch in 0..cfg.epochs {
            let epoch_start = if telemetry { wall::now_us() } else { 0 };
            let mut epoch_loss = 0.0f64;
            let mut epoch_grad_norm = 0.0f64;
            let mut epoch_steps = 0u32;
            rng.shuffle(&mut order);
            for chunk in order.chunks(cfg.batch_size) {
                let (mut grads, mut vars) = (Gradients::default(), Vec::new());
                let mut totals = vec![0.0; self.heads.len()];
                let (rows, mut loss_val) = (chunk.len(), f32::NAN);
                for &i in chunk {
                    (grads, vars, loss_val) = recording(|tape| {
                        self.record_pass(tape, &data[i], rows, cfg, &mut totals, grads)
                    });
                }
                if first_loss.is_nan() {
                    first_loss = loss_val;
                }
                final_loss = loss_val;
                if telemetry {
                    epoch_loss += loss_val as f64;
                    epoch_grad_norm += grad_l2_norm(&grads, &vars) as f64;
                    epoch_steps += 1;
                }
                adam.step(&mut self.params, &vars, &grads);
                recording(|tape| tape.absorb(grads));
                steps += 1;
            }
            if telemetry && epoch_steps > 0 {
                let (worker, model) = wall::context();
                wall::record(wall::Record::Epoch(wall::EpochRec {
                    refine,
                    worker,
                    model,
                    epoch: epoch as u32,
                    steps: epoch_steps,
                    loss_e6: to_e6(epoch_loss / epoch_steps as f64),
                    grad_norm_e6: to_e6(epoch_grad_norm / epoch_steps as f64),
                    start_us: epoch_start,
                    dur_us: wall::now_us().saturating_sub(epoch_start),
                }));
            }
        }
        TrainReport {
            epochs: cfg.epochs,
            steps,
            first_loss,
            final_loss,
        }
    }

    /// One pass of a minibatch of `rows` sequences: one example, recorded on
    /// `tape` with the parameters lent to it. Each head's loss adds to its
    /// running sum in `totals`, and backward continues `grads`. Returns the
    /// gradients, the parameters' vars and the loss so far.
    fn record_pass<'p>(
        &'p self,
        tape: &mut Tape<'p>,
        (toks, labels): &Example<'_>,
        rows: usize,
        cfg: &PythiaConfig,
        totals: &mut [f64],
        grads: Gradients,
    ) -> (Gradients, Vec<Var>, f32) {
        let mut targets: Vec<Tensor> = self
            .heads
            .iter()
            .map(|h| tape.zeros(1, h.fc2.out_dim))
            .collect();
        for &lbl in labels {
            debug_assert!(lbl < self.n_labels);
            let h = self.heads.partition_point(|h| h.first_label <= lbl) - 1;
            targets[h].set(0, lbl - self.heads[h].first_label, 1.0);
        }
        let vars = self.params.lend(tape);
        let mut loss = None;
        let heads = self.logits(tape, &vars, toks).into_iter().zip(targets);
        for ((logits, t), total) in heads.zip(totals) {
            let l = bce_with_logits_over(tape, logits, t, cfg.pos_weight, rows, total);
            loss = Some(loss.map_or(l, |sum| tape.add(sum, l)));
        }
        let loss = loss.expect("at least one head");
        let loss_val = tape.value(loss).get(0, 0);
        (tape.backward_into(loss, grads), vars, loss_val)
    }

    /// The forward graph of one plan (clipped to `max_seq_len`): one
    /// encoder pass, then per head hidden → one logit per label,
    /// `[1, head width]` each.
    fn logits(&self, tape: &mut Tape<'_>, vars: &[Var], toks: &[usize]) -> Vec<Var> {
        let rep = self.encoder.encode(tape, vars, self.clip(toks), Vocab::PAD);
        self.heads
            .iter()
            .map(|head| {
                let h = head.fc1.forward(tape, vars, rep);
                let h = tape.relu(h);
                head.fc2.forward(tape, vars, h)
            })
            .collect()
    }

    /// Per-label sigmoid scores for one serialized plan, head after head
    /// (an empty plan scores as a single `PAD` token), on this thread's
    /// forward-only tape: the parameters are lent, not copied, no activation
    /// outlives its layer, and a repeat call at the same shapes allocates
    /// nothing.
    pub(crate) fn scores(&self, toks: &[usize]) -> Vec<f32> {
        forward_only(|tape| {
            let vars = self.params.lend(tape);
            let logits = self.logits(tape, &vars, toks);
            logits
                .iter()
                .flat_map(|&head| tape.value(head).as_slice())
                .map(|&z| 1.0 / (1.0 + (-z).exp()))
                .collect()
        })
    }
}

/// The labels whose score in `scores` exceeds `threshold`, ascending.
pub(crate) fn labels_above(scores: &[f32], threshold: f32) -> impl Iterator<Item = usize> + '_ {
    scores
        .iter()
        .enumerate()
        .filter(move |(_, &s)| s > threshold)
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Held by a test that turns training capture on: the flag is
    /// process-global, so two such tests at once would miss records.
    static CAPTURE: Mutex<()> = Mutex::new(());

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

    /// The labels of one plan at the paper's threshold.
    fn labels(clf: &PlanClassifier, toks: &[usize]) -> Vec<usize> {
        labels_above(&clf.scores(toks), 0.5).collect()
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
        let report = clf.train_phase(&data, &cfg, false);
        assert!(report.final_loss < report.first_loss, "loss must decrease");
        for t in 2..5usize {
            let pred = labels(&clf, &[t, 5]);
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
        let report = clf.train_phase(&data, &cfg, false);
        assert!(report.final_loss < report.first_loss, "loss must decrease");
        for t in 2..5usize {
            let expect: Vec<usize> = ((t - 2) * 4..(t - 2) * 4 + 4).collect();
            assert_eq!(labels(&clf, &[t, 5]), expect, "token {t}");
            assert_eq!(clf.scores(&[t, 5]).len(), 12);
        }
        // Three decoders cost two more hidden layers than one.
        let one = PlanClassifier::new(&cfg, 10, &[12]);
        let hidden = (cfg.embed_dim + 1) * cfg.decoder_hidden * 4;
        assert_eq!(clf.size_bytes(), one.size_bytes() + 2 * hidden);
    }

    #[test]
    fn an_empty_plan_scores_as_one_pad() {
        let cfg = PythiaConfig::fast();
        for heads in [&[7usize][..], &[2, 4, 1]] {
            let clf = PlanClassifier::new(&cfg, 10, heads);
            assert_eq!(clf.scores(&[]), clf.scores(&[Vocab::PAD]), "{heads:?}");
        }
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
        PlanClassifier::new(&cfg, 10, &[12]).train_phase(&data, &cfg, false);
        let first = allocations();
        assert!(first > 0);
        PlanClassifier::new(&cfg, 10, &[12]).train_phase(&data, &cfg, false);
        assert_eq!(allocations(), first, "a same-shaped model allocated");
        // Another label count: the encoder's buffers still serve, and the
        // arena has let go of the first model's label-shaped ones.
        PlanClassifier::new(&cfg, 10, &[20]).train_phase(&data, &cfg, true);
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
        plain.train_phase(&data, &cfg, false);
        plain.train_phase(&data, &cfg, true);

        let mut clf = PlanClassifier::new(&cfg, 10, &[12]);
        // Other tests may train concurrently while the flag is on; a unique
        // context tag isolates our records in the shared buffer.
        let _capture = CAPTURE
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        wall::set_context(0, 424_242);
        wall::set_enabled(true);
        clf.train_phase(&data, &cfg, false);
        clf.train_phase(&data, &cfg, true);
        wall::set_enabled(false);
        wall::set_context(0, 0);

        let mine: Vec<wall::EpochRec> = wall::drain()
            .into_iter()
            .filter_map(|r| match r {
                wall::Record::Epoch(e) if e.model == 424_242 => Some(e),
                _ => None,
            })
            .collect();
        let trained: Vec<&wall::EpochRec> = mine.iter().filter(|e| !e.refine).collect();
        let refined: Vec<&wall::EpochRec> = mine.iter().filter(|e| e.refine).collect();
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
    fn a_training_pass_reads_the_parameters_in_place() {
        let cfg = tiny_cfg();
        let owned = block_task();
        let data = as_examples(&owned);
        let clf = PlanClassifier::new(&cfg, 10, &[5, 7]);
        let mut totals = [0.0; 2];
        recording(|tape| {
            let fresh = Gradients::default();
            let (grads, vars, _) = clf.record_pass(tape, &data[7], 3, &cfg, &mut totals, fresh);
            assert_eq!(vars.len(), clf.params.len());
            for ((id, param), &var) in clf.params.iter().zip(&vars) {
                let leaf = tape.value(var).as_slice().as_ptr();
                assert_eq!(
                    leaf,
                    param.as_slice().as_ptr(),
                    "{} was copied",
                    clf.params.name(id)
                );
            }
            tape.absorb(grads);
        });
    }

    #[test]
    fn empty_positive_sets_are_valid() {
        let cfg = tiny_cfg();
        let mut clf = PlanClassifier::new(&cfg, 10, &[4]);
        let (t1, t2) = (vec![2usize, 3], vec![3usize, 4]);
        let data: Vec<Example<'_>> = vec![(&t1, vec![]), (&t2, vec![0])];
        let report = clf.train_phase(&data, &cfg, false);
        assert!(report.final_loss.is_finite());
    }
}
