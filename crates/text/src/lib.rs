//! # mapsynth-text
//!
//! String handling for table synthesis (paper §4.1, "Approximate String
//! Matching" and "Synonyms"):
//!
//! * [`normalize()`] — canonicalizes cell values (case folding, footnote
//!   marks, punctuation, whitespace) so that cosmetic variation does
//!   not depress compatibility between tables;
//! * [`editdist`] — bounded edit distance, the paper's Algorithm 2,
//!   with the fractional threshold
//!   `θ_ed(v1,v2) = min{⌊|v1|·f_ed⌋, ⌊|v2|·f_ed⌋, k_ed}`: a
//!   bit-parallel Myers kernel with a banded (Ukkonen-style) fallback,
//!   both returning identical distances;
//! * [`signature`] — per-string character-occurrence signatures (64-bit
//!   mask + frequency histogram) whose `O(1)` exact lower bounds let a
//!   similarity join prune candidate pairs before any kernel runs;
//! * [`synonyms`] — an external synonym feed (paper: "e.g., using
//!   existing synonym feeds \[10\]") that can boost positive
//!   compatibility and suppress false conflicts.

#![forbid(unsafe_code)]

pub mod editdist;
pub mod normalize;
pub mod signature;
pub mod synonyms;

pub use editdist::{
    approx_match, approx_match_compact, edit_distance_full, edit_distance_within,
    edit_distance_within_banded, edit_distance_within_myers, fractional_threshold,
    fractional_threshold_for_lens, MatchParams,
};
pub use normalize::normalize;
pub use signature::{CharSignature, SIG_BUCKETS};
pub use synonyms::SynonymDict;
