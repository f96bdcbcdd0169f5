//! `#[derive(Serialize, Deserialize)]` for the stub `serde` next door.
//!
//! The stub's traits are implemented for every type by a blanket impl, so
//! the derives only have to exist and to accept `#[serde(..)]` helper
//! attributes; they emit no code (and so need no `syn`).

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
