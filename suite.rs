//! Anchor target for the workspace-level `tests/` and `examples/`.
//! All real code lives in `crates/`.

#![forbid(unsafe_code)]
