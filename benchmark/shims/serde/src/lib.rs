//! Stub stand-in for `serde`, enough for this repository to *compile*
//! without a crate registry.
//!
//! Every type implements [`Serialize`] and [`Deserialize`] through a blanket
//! impl whose methods fail with "unsupported"; the derives (re-exported from
//! the stub `serde_derive`) emit nothing. Model persistence
//! (`save_json` / `load_json` / `duplicate`) therefore errors at run time
//! under this shim — the benchmark never calls it.

pub use serde_derive::{Deserialize, Serialize};

const UNSUPPORTED: &str = "serde stand-in: (de)serialization is not supported in the benchmark build";

pub mod ser {
    /// Error constructor every serializer error offers.
    pub trait Error: Sized + std::error::Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    pub trait Serializer: Sized {
        type Ok;
        type Error: Error;

        fn collect_seq<I: IntoIterator>(self, _iter: I) -> Result<Self::Ok, Self::Error> {
            Err(Self::Error::custom(super::UNSUPPORTED))
        }
    }

    pub trait Serialize {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
    }

    impl<T: ?Sized> Serialize for T {
        fn serialize<S: Serializer>(&self, _serializer: S) -> Result<S::Ok, S::Error> {
            Err(S::Error::custom(super::UNSUPPORTED))
        }
    }
}

pub mod de {
    /// Error constructor every deserializer error offers.
    pub trait Error: Sized + std::error::Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    pub trait Deserializer<'de>: Sized {
        type Error: Error;
    }

    pub trait Deserialize<'de>: Sized {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
    }

    impl<'de, T> Deserialize<'de> for T {
        fn deserialize<D: Deserializer<'de>>(_deserializer: D) -> Result<Self, D::Error> {
            Err(D::Error::custom(super::UNSUPPORTED))
        }
    }

    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
}

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};
