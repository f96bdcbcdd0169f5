//! Std-only stand-in for the one `crossbeam` item this repository uses:
//! an unbounded multi-producer channel.

pub mod channel {
    pub use std::sync::mpsc::{Receiver, RecvError, SendError, Sender};

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}
