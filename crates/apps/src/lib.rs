//! # mapsynth-apps
//!
//! The applications that motivate mapping synthesis (paper §1):
//!
//! * [`index::MappingIndex`] — synthesized mappings materialized behind
//!   hash maps and Bloom filters for efficient containment lookup
//!   ("one could index synthesized mapping tables using hash-based
//!   techniques (e.g., bloom filters) for efficient lookup based on
//!   value containment");
//! * [`autocorrect`](mod@autocorrect) — detect and fix mixed representations in a
//!   column (paper Table 3: full state names mixed with abbreviations);
//! * [`autofill`](mod@autofill) — complete a column from a few example pairs (paper
//!   Table 4);
//! * [`autojoin`](mod@autojoin) — join two tables whose key columns use different
//!   representations through a bridge mapping (paper Table 5).
//!
//! The applications are generic over
//! [`mapsynth_serve::MappingStore`], so the same code serves requests
//! from a local [`index::MappingIndex`] **or** from a versioned
//! snapshot handle obtained from a
//! [`mapsynth_serve::MappingService`] — the concurrent serving path
//! for heavy traffic.

#![forbid(unsafe_code)]

pub mod autocorrect;
pub mod autofill;
pub mod autojoin;
pub mod index;

pub use autocorrect::{autocorrect, Correction};
pub use autofill::{autofill, FillResult};
pub use autojoin::{autojoin, JoinResult};
pub use index::{MappingHandle, MappingIndex};
// The Bloom filter moved to the serving crate; re-exported here for
// source compatibility with pre-serve callers.
pub use mapsynth_serve::{bloom, BloomFilter, MappingStore};
