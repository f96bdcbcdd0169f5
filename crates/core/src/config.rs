//! Pythia configuration.

/// Longest `max_seq_len` a configuration may ask for: far past any plan the
/// serializer emits, and it bounds the positional table a model builds
/// (`max_seq_len × embed_dim`).
pub const MAX_SEQ_LEN: usize = 1 << 12;

/// Which of a workload's page labels share one encoder (one
/// [`crate::model::ModelGroup`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// A separate model per database object, and per partition of a large
    /// one — the paper's design (§3.3 design choice 2), and what every
    /// committed `results/*.csv` was measured with.
    PerObject,
    /// One model, one decoder, per (base table + index) pair — Figure 12d's
    /// combined design. Objects without a modeled partner get their own.
    TableIndexPair,
    /// One encoder for the whole workload with a decoder head per object
    /// (per partition): a plan is encoded once however many objects it
    /// predicts for. The serving default.
    Workload,
}

/// Hyperparameters and structural choices for Pythia's models.
///
/// Defaults follow the paper (§5.1): 100-d embeddings, 2 encoder layers with
/// 10 heads, an 800-unit decoder hidden layer, trained with Adam on
/// `BCEWithLogitsLoss`. The feed-forward width inside the encoder, the
/// positive-class weight and sharing the encoder across a workload's objects
/// ([`Grouping::Workload`]) are our choices.
#[derive(Debug, Clone)]
pub struct PythiaConfig {
    /// Token embedding / query representation width (paper: 100).
    pub embed_dim: usize,
    /// Attention heads (paper: 10).
    pub heads: usize,
    /// Encoder layers (paper: 2).
    pub layers: usize,
    /// Encoder feed-forward width.
    pub ff_dim: usize,
    /// Decoder hidden width (paper: 800).
    pub decoder_hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// `BCEWithLogitsLoss` positive-class weight — page labels are extremely
    /// sparse, so positives are up-weighted.
    pub pos_weight: f32,
    /// Sigmoid threshold for emitting a page. `None` lets
    /// [`crate::predictor::train_workload`] choose it from
    /// [`crate::predictor::THRESHOLD_GRID`] by replaying training queries
    /// through the simulator; `Some(t)` fixes it (`Some(0.5)` is the
    /// paper's 0/1 output reading).
    pub threshold: Option<f32>,
    /// Maximum serialized-plan length (longer plans are truncated).
    pub max_seq_len: usize,
    /// Objects with more pages than this are split into partitioned models
    /// (paper §3.3 "we split large tables into several smaller partitions").
    pub partition_pages: usize,
    /// Train a model for an object only if it is accessed non-sequentially
    /// by at least this fraction of training queries.
    pub min_object_support: f64,
    /// If set, each object model only predicts its `k` most frequently
    /// accessed pages (Figure 12h).
    pub top_k: Option<usize>,
    /// Which labels share an encoder (Figure 12d compares the designs).
    pub grouping: Grouping,
    /// RNG seed for init and batch shuffling.
    pub seed: u64,
}

impl Default for PythiaConfig {
    fn default() -> Self {
        PythiaConfig {
            embed_dim: 100,
            heads: 10,
            layers: 2,
            ff_dim: 256,
            decoder_hidden: 800,
            epochs: 10,
            batch_size: 64,
            lr: 1e-3,
            pos_weight: 4.0,
            threshold: None,
            max_seq_len: 128,
            partition_pages: 8192,
            min_object_support: 0.1,
            top_k: None,
            grouping: Grouping::Workload,
            seed: 0x9717,
        }
    }
}

impl PythiaConfig {
    /// A scaled-down configuration for unit tests and quick experiment runs:
    /// same architecture, smaller widths and fewer epochs.
    pub fn fast() -> Self {
        PythiaConfig {
            embed_dim: 32,
            heads: 4,
            layers: 2,
            ff_dim: 64,
            decoder_hidden: 128,
            epochs: 6,
            batch_size: 32,
            lr: 2e-3,
            ..Default::default()
        }
    }

    /// Validate invariants. `layers: 0` is valid: the query representation
    /// is then the last token's positioned embedding.
    pub fn validate(&self) -> Result<(), String> {
        if self.embed_dim == 0 || self.decoder_hidden == 0 {
            return Err("embed_dim and decoder_hidden must be positive".into());
        }
        if self.max_seq_len == 0 {
            return Err(
                "max_seq_len must be positive: every plan encodes at least one token".into(),
            );
        }
        if self.max_seq_len > MAX_SEQ_LEN {
            return Err(format!("max_seq_len must be at most {MAX_SEQ_LEN}"));
        }
        if !self.embed_dim.is_multiple_of(self.heads) {
            return Err(format!(
                "embed_dim {} not divisible by heads {}",
                self.embed_dim, self.heads
            ));
        }
        if self.epochs == 0 || self.batch_size == 0 {
            return Err("epochs and batch_size must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.min_object_support) {
            return Err("min_object_support must be in [0,1]".into());
        }
        if self.partition_pages == 0 {
            return Err("partition_pages must be positive".into());
        }
        // No score exceeds NaN: such a model would predict nothing.
        if self.threshold.is_some_and(f32::is_nan) {
            return Err("threshold must not be NaN".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PythiaConfig::default();
        assert_eq!(c.embed_dim, 100);
        assert_eq!(c.heads, 10);
        assert_eq!(c.layers, 2);
        assert_eq!(c.decoder_hidden, 800);
        c.validate().unwrap();
    }

    #[test]
    fn fast_is_valid() {
        PythiaConfig::fast().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_heads() {
        let c = PythiaConfig {
            embed_dim: 100,
            heads: 7,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_widths_and_an_empty_sequence_budget() {
        let base = PythiaConfig::fast;
        for bad in [
            PythiaConfig {
                max_seq_len: 0,
                ..base()
            },
            PythiaConfig {
                embed_dim: 0,
                ..base()
            },
            PythiaConfig {
                decoder_hidden: 0,
                ..base()
            },
            PythiaConfig {
                max_seq_len: MAX_SEQ_LEN + 1,
                ..base()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        // No encoder layers is a model, not a mistake.
        let embedding_only = PythiaConfig {
            layers: 0,
            ..base()
        };
        embedding_only.validate().unwrap();
    }

    #[test]
    fn validation_rejects_a_nan_threshold() {
        let nan = PythiaConfig {
            threshold: Some(f32::NAN),
            ..PythiaConfig::fast()
        };
        assert!(nan.validate().is_err());
        for threshold in [None, Some(0.5), Some(-1.0)] {
            PythiaConfig {
                threshold,
                ..PythiaConfig::fast()
            }
            .validate()
            .unwrap();
        }
    }
}
