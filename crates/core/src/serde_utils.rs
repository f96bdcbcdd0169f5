//! Serde adapters for maps with non-string keys, plus the versioned
//! on-disk envelope shared by everything the registry persists.
//!
//! Trained models are persisted as JSON ([`crate::registry::save_model`]), but
//! JSON object keys must be strings; these adapters serialize
//! `HashMap`/`BTreeMap` with structured keys as sequences of `(key, value)`
//! pairs instead.
//!
//! [`versioned`] wraps any serializable payload in a
//! `{format, kind, body}` header so a reader can refuse a file written by an
//! incompatible build (or for a different payload type) *before* attempting
//! to deserialize the body — the failure is a descriptive I/O error, never a
//! silent mis-parse.

/// `HashMap<K, V>` ⇄ `Vec<(K, V)>`.
pub mod hash_map_pairs {
    use serde::de::{Deserialize, Deserializer};
    use serde::ser::Serializer;
    use serde::Serialize;
    use std::collections::HashMap;
    use std::hash::Hash;

    pub fn serialize<K, V, S>(map: &HashMap<K, V>, s: S) -> Result<S::Ok, S::Error>
    where
        K: Serialize,
        V: Serialize,
        S: Serializer,
    {
        s.collect_seq(map.iter())
    }

    pub fn deserialize<'de, K, V, D>(d: D) -> Result<HashMap<K, V>, D::Error>
    where
        K: Deserialize<'de> + Eq + Hash,
        V: Deserialize<'de>,
        D: Deserializer<'de>,
    {
        let pairs: Vec<(K, V)> = Vec::deserialize(d)?;
        Ok(pairs.into_iter().collect())
    }
}

/// `BTreeMap<K, V>` ⇄ `Vec<(K, V)>`.
pub mod btree_map_pairs {
    use serde::de::{Deserialize, Deserializer};
    use serde::ser::Serializer;
    use serde::Serialize;
    use std::collections::BTreeMap;

    pub fn serialize<K, V, S>(map: &BTreeMap<K, V>, s: S) -> Result<S::Ok, S::Error>
    where
        K: Serialize,
        V: Serialize,
        S: Serializer,
    {
        s.collect_seq(map.iter())
    }

    pub fn deserialize<'de, K, V, D>(d: D) -> Result<BTreeMap<K, V>, D::Error>
    where
        K: Deserialize<'de> + Ord,
        V: Deserialize<'de>,
        D: Deserializer<'de>,
    {
        let pairs: Vec<(K, V)> = Vec::deserialize(d)?;
        Ok(pairs.into_iter().collect())
    }
}

/// Versioned JSON envelope: `{format, kind, body}`.
pub mod versioned {
    use serde::de::DeserializeOwned;
    use serde::{Deserialize, Serialize};
    use std::io;
    use std::path::Path;

    /// Current on-disk format. Bump whenever the serialized shape of any
    /// enveloped payload changes incompatibly; readers refuse other values.
    pub const FORMAT_VERSION: u32 = 2;

    /// The header + payload wrapper every enveloped file round-trips through.
    #[derive(Serialize, Deserialize)]
    pub struct Envelope<T> {
        /// On-disk format version ([`FORMAT_VERSION`] at write time).
        pub format: u32,
        /// Payload discriminator (e.g. `"pythia.model"`), checked on read so
        /// a file of one kind is never deserialized as another.
        pub kind: String,
        pub body: T,
    }

    fn invalid(msg: String) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, msg)
    }

    /// Serialize `body` under a `{format, kind, body}` header.
    pub fn to_json<T: Serialize>(kind: &str, body: &T) -> io::Result<String> {
        serde_json::to_string(&Envelope {
            format: FORMAT_VERSION,
            kind: kind.to_owned(),
            body,
        })
        .map_err(|e| invalid(e.to_string()))
    }

    /// Parse an envelope, failing loudly on a format or kind mismatch.
    pub fn from_json<T: DeserializeOwned>(kind: &str, json: &str) -> io::Result<T> {
        // Peek at the header alone first, so a mismatch reports the actual
        // format/kind instead of whatever body-shape error serde hits first.
        #[derive(Deserialize)]
        struct Header {
            format: u32,
            kind: String,
        }
        let head: Header = serde_json::from_str(json)
            .map_err(|e| invalid(format!("not a versioned envelope: {e}")))?;
        if head.format != FORMAT_VERSION {
            return Err(invalid(format!(
                "envelope format {} is not the supported format {FORMAT_VERSION}",
                head.format
            )));
        }
        if head.kind != kind {
            return Err(invalid(format!(
                "envelope holds a '{}' payload, expected '{kind}'",
                head.kind
            )));
        }
        let env: Envelope<T> = serde_json::from_str(json).map_err(|e| invalid(e.to_string()))?;
        Ok(env.body)
    }

    /// Write `body` to `path` as an enveloped JSON file.
    pub fn save<T: Serialize>(path: impl AsRef<Path>, kind: &str, body: &T) -> io::Result<()> {
        std::fs::write(path, to_json(kind, body)?)
    }

    /// Load an enveloped JSON file written by [`save`].
    pub fn load<T: DeserializeOwned>(path: impl AsRef<Path>, kind: &str) -> io::Result<T> {
        from_json(kind, &std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, HashMap};

    #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug)]
    struct WithMaps {
        #[serde(with = "super::hash_map_pairs")]
        h: HashMap<(u32, usize), i64>,
        #[serde(with = "super::btree_map_pairs")]
        b: BTreeMap<(u8, u8), String>,
    }

    #[test]
    fn tuple_keyed_maps_roundtrip_through_json() {
        let mut h = HashMap::new();
        h.insert((1, 2), -5);
        h.insert((3, 4), 10);
        let mut b = BTreeMap::new();
        b.insert((0, 1), "x".to_owned());
        let v = WithMaps { h, b };
        let json = serde_json::to_string(&v).unwrap();
        let back: WithMaps = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn versioned_envelope_roundtrips_and_rejects_mismatches() {
        use super::versioned;

        let json = versioned::to_json("test.pair", &(7u32, "x".to_owned())).unwrap();
        let back: (u32, String) = versioned::from_json("test.pair", &json).unwrap();
        assert_eq!(back, (7, "x".to_owned()));

        // Wrong kind: refused with the offending kind in the message.
        let err = versioned::from_json::<(u32, String)>("test.other", &json).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("test.pair"), "{err}");

        // Wrong format version: refused before touching the body.
        let current = format!("\"format\":{}", versioned::FORMAT_VERSION);
        let future = json.replace(&current, "\"format\":999");
        let err = versioned::from_json::<(u32, String)>("test.pair", &future).unwrap_err();
        assert!(err.to_string().contains("999"), "{err}");

        // Not an envelope at all.
        let err = versioned::from_json::<u32>("test.pair", "{\"body\":3}").unwrap_err();
        assert!(err.to_string().contains("envelope"), "{err}");
    }
}
