//! Training-telemetry capture for the model fleet.
//!
//! The classifiers train on pool workers (or the caller) deep inside
//! `pythia-core`, with no `Recorder` in reach (same constraint as
//! [`crate::wall`]). When capture is on, the training loop appends one
//! [`EpochRec`] per epoch — mean minibatch loss, mean gradient L2 norm,
//! step count, wall timing — to a global mutex-guarded buffer, and held-out
//! evaluation appends [`F1Rec`]s. The recorder's owner drains the buffer
//! into `WALL_PID` spans/instants plus counters and histograms afterwards
//! ([`crate::Recorder::absorb_train_telemetry`]).
//!
//! Float statistics are carried as fixed-point micros (`value × 1e6`,
//! saturating at 0) because trace args and histograms are `u64`.
//!
//! Which model a record belongs to is a thread-local *context* `(worker,
//! model)` set by the worker pool before it runs a training closure — the
//! classifier itself never learns its fleet position.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One completed training epoch of one classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochRec {
    /// `true` when this epoch ran under `refine` (incremental retraining)
    /// rather than from-scratch training.
    pub refine: bool,
    /// Pool worker the epoch ran on (trace `tid` in the wall process).
    pub worker: u32,
    /// Fleet work-item index of the model being trained (from the context).
    pub model: u64,
    /// Epoch index within this `train` call.
    pub epoch: u32,
    /// Optimizer steps (minibatches) in the epoch.
    pub steps: u32,
    /// Mean minibatch loss × 1e6.
    pub loss_e6: u64,
    /// Mean global gradient L2 norm × 1e6.
    pub grad_norm_e6: u64,
    /// Wall start, microseconds since the [`crate::wall`] epoch.
    pub start_us: u64,
    pub dur_us: u64,
}

/// One held-out F1 evaluation of a trained model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F1Rec {
    /// Which held-out query was scored.
    pub query: u64,
    /// F1 × 1e6.
    pub f1_e6: u64,
    /// Wall timestamp, microseconds since the [`crate::wall`] epoch.
    pub at_us: u64,
}

/// A buffered telemetry record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainRec {
    Epoch(EpochRec),
    HeldoutF1(F1Rec),
}

/// Wall-process tid the recorder places held-out F1 instants on — far
/// above any plausible worker index, so it never collides with the
/// `nn-worker-N` tracks.
pub const EVAL_TID: u32 = 9_999;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDS: Mutex<Vec<TrainRec>> = Mutex::new(Vec::new());

thread_local! {
    /// `(worker, model)` the current thread is training for.
    static CONTEXT: Cell<(u32, u64)> = const { Cell::new((0, 0)) };
}

/// Turn training-telemetry capture on or off process-wide. Off by default;
/// the training loop pays one relaxed atomic load per `train` call when off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether capture is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag the current thread's upcoming training work as `(worker, model)`.
/// The pool calls this before dispatching each work item.
pub fn set_context(worker: u32, model: u64) {
    CONTEXT.with(|c| c.set((worker, model)));
}

/// The current thread's `(worker, model)` tag (`(0, 0)` if never set).
pub fn context() -> (u32, u64) {
    CONTEXT.with(|c| c.get())
}

/// A non-negative float statistic as integer millionths (0 for NaN or a
/// negative): the `*_e6` fixed-point export of the train and quality
/// telemetry.
pub fn to_e6(value: f64) -> u64 {
    if value.is_finite() && value > 0.0 {
        (value * 1e6).round() as u64
    } else {
        0
    }
}

/// Buffer one epoch record (no-op unless [`enabled`]).
pub fn record_epoch(rec: EpochRec) {
    if !enabled() {
        return;
    }
    RECORDS
        .lock()
        .expect("train telemetry buffer poisoned")
        .push(TrainRec::Epoch(rec));
}

/// Buffer one held-out F1 record (no-op unless [`enabled`]).
pub fn record_f1(query: u64, f1_e6: u64) {
    if !enabled() {
        return;
    }
    RECORDS
        .lock()
        .expect("train telemetry buffer poisoned")
        .push(TrainRec::HeldoutF1(F1Rec {
            query,
            f1_e6,
            at_us: crate::wall::now_us(),
        }));
}

/// Take every buffered record, leaving the buffer empty.
pub fn drain() -> Vec<TrainRec> {
    std::mem::take(&mut *RECORDS.lock().expect("train telemetry buffer poisoned"))
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test only: the buffer and flag are process-global (same shape as
    // the wall-task capture test).
    #[test]
    fn capture_is_gated_context_is_thread_local_and_drain_empties() {
        let rec = EpochRec {
            refine: false,
            worker: 1,
            model: 7,
            epoch: 0,
            steps: 4,
            loss_e6: 693_147,
            grad_norm_e6: 2_500_000,
            start_us: 10,
            dur_us: 3,
        };
        drain();
        record_epoch(rec); // disabled → dropped
        record_f1(0, 900_000);
        assert!(drain().is_empty());

        set_enabled(true);
        set_context(3, 42);
        assert_eq!(context(), (3, 42));
        let other = std::thread::spawn(context).join().unwrap();
        assert_eq!(other, (0, 0), "context must not leak across threads");
        record_epoch(rec);
        record_f1(5, 812_500);
        set_enabled(false);
        record_epoch(rec); // disabled again → dropped

        let got = drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], TrainRec::Epoch(rec));
        match got[1] {
            TrainRec::HeldoutF1(f) => {
                assert_eq!((f.query, f.f1_e6), (5, 812_500));
            }
            other => panic!("expected F1 record, got {other:?}"),
        }
        assert!(drain().is_empty());

        assert_eq!(to_e6(0.6931), 693_100);
        assert_eq!(to_e6(0.0), 0);
        assert_eq!(to_e6(-1.0), 0);
        assert_eq!(to_e6(f64::NAN), 0);
    }
}
