//! Stub stand-in for `serde_json`: the two entry points this repository
//! calls exist and always fail (see the stub `serde`).

use std::fmt;

#[derive(Debug)]
pub struct Error(&'static str);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

const UNSUPPORTED: &str = "serde_json stand-in: JSON (de)serialization is not supported in the benchmark build";

pub fn to_string<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    Err(Error(UNSUPPORTED))
}

pub fn from_str<'a, T: serde::Deserialize<'a>>(_s: &'a str) -> Result<T> {
    Err(Error(UNSUPPORTED))
}
