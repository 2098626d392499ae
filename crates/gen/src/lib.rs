//! # mapsynth-gen
//!
//! The corpus substrate. The paper's inputs — a 100M-table web crawl
//! and a 500K-table enterprise spreadsheet crawl — are proprietary, so
//! this crate builds the closest synthetic equivalent that exercises
//! the same code paths (see DESIGN.md "Substitutions"):
//!
//! * [`registry`] — a ground-truth registry of mapping relationships:
//!   ~40 families seeded with embedded real data (countries and their
//!   ISO/IOC/FIFA codes, US states, airports, stock tickers, chemical
//!   elements, …) plus procedurally generated families, each entity
//!   carrying multiple synonymous surface forms (paper Table 6);
//! * [`noise`] — the cell/table noise model: typos, footnote marks,
//!   case variation, wrong values, incoherent distractor columns,
//!   pivot-style mis-extraction;
//! * [`webgen`] — assembles a heterogeneous web-table corpus: short
//!   tables sampling fragments of relations, single-synonym mentions,
//!   undescriptive headers, spurious-FD tables, temporal tables,
//!   formatting tables (paper Figures 12–13);
//! * [`entgen`] — the enterprise-flavoured corpus of §5.5.
//!
//! Generation is fully deterministic given a seed:
//!
//! ```
//! use mapsynth_gen::procedural::ProceduralConfig;
//! use mapsynth_gen::{generate_web, WebConfig};
//!
//! let cfg = WebConfig {
//!     tables: 6,
//!     domains: 3,
//!     procedural: ProceduralConfig { families: 2, temporal_families: 0, ..Default::default() },
//!     ..Default::default()
//! };
//! let (a, b) = (generate_web(&cfg), generate_web(&cfg));
//! assert!(a.corpus.len() >= 6);
//! assert_eq!(a.corpus.len(), b.corpus.len());
//! assert_eq!(a.emitted_pairs, b.emitted_pairs);
//! ```

#![forbid(unsafe_code)]

pub mod data;
pub mod entgen;
pub mod noise;
pub mod procedural;
pub mod registry;
pub mod webgen;
pub mod words;

pub use entgen::{generate_enterprise, EnterpriseConfig};
pub use noise::NoiseConfig;
pub use registry::{Entry, Registry, Relation, RelationKind};
pub use webgen::{generate_web, WebConfig, WebTableStream};
