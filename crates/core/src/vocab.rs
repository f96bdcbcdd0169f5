//! Token vocabulary for serialized query plans.
//!
//! Built over the training workload's serializations; tokens never seen in
//! training map to `[UNK]` at inference time (an unseen *operator* pattern is
//! a sign the query is out-of-distribution; unseen *values* cannot occur
//! because numeric literals are digit-binned, see [`crate::serialize`]).

use std::collections::HashMap;

/// Interned token vocabulary.
#[derive(Debug, Clone)]
pub struct Vocab {
    map: HashMap<String, usize>,
    tokens: Vec<String>,
}

impl Vocab {
    /// Id of the unknown token.
    pub const UNK: usize = 0;
    /// Id of the padding token (used when packing batches).
    pub const PAD: usize = 1;

    /// A vocabulary containing only the reserved tokens.
    pub fn new() -> Self {
        let mut v = Vocab {
            map: HashMap::new(),
            tokens: Vec::new(),
        };
        v.intern("[UNK]");
        v.intern("[PAD]");
        v
    }

    /// Intern `tok`, returning its id (existing id if already present).
    pub fn intern(&mut self, tok: &str) -> usize {
        if let Some(&id) = self.map.get(tok) {
            return id;
        }
        let id = self.tokens.len();
        self.tokens.push(tok.to_owned());
        self.map.insert(tok.to_owned(), id);
        id
    }

    /// Id of `tok` if known.
    pub fn get(&self, tok: &str) -> Option<usize> {
        self.map.get(tok).copied()
    }

    /// Encode a token sequence, mapping unknown tokens to `[UNK]`.
    pub fn encode(&self, toks: &[String]) -> Vec<usize> {
        toks.iter()
            .map(|t| self.get(t).unwrap_or(Vocab::UNK))
            .collect()
    }

    /// Intern every token of a sequence and return the ids (training-time).
    pub fn encode_interning(&mut self, toks: &[String]) -> Vec<usize> {
        toks.iter().map(|t| self.intern(t)).collect()
    }

    /// Number of known tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether only reserved tokens exist.
    pub fn is_empty(&self) -> bool {
        self.tokens.len() <= 2
    }

    /// Token string for an id (diagnostics).
    pub fn token(&self, id: usize) -> &str {
        &self.tokens[id]
    }
}

impl Default for Vocab {
    fn default() -> Self {
        Vocab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_tokens() {
        let v = Vocab::new();
        assert_eq!(v.get("[UNK]"), Some(Vocab::UNK));
        assert_eq!(v.get("[PAD]"), Some(Vocab::PAD));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.intern("x");
        let b = v.intern("x");
        assert_eq!(a, b);
        assert_eq!(v.len(), 3);
        assert_eq!(v.token(a), "x");
    }

    #[test]
    fn encode_maps_unknown_to_unk() {
        let mut v = Vocab::new();
        v.intern("known");
        let ids = v.encode(&["known".into(), "mystery".into()]);
        assert_eq!(ids[0], 2);
        assert_eq!(ids[1], Vocab::UNK);
    }

    #[test]
    fn encode_interning_grows() {
        let mut v = Vocab::new();
        let ids = v.encode_interning(&["a".into(), "b".into(), "a".into()]);
        assert_eq!(ids, vec![2, 3, 2]);
        assert_eq!(v.len(), 4);
    }
}
