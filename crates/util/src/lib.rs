//! # asgov-util — dependency-free utilities
//!
//! The workspace builds in hermetic environments with **no network
//! access**, so it carries no external crates (see CHANGELOG.md for the
//! policy). This crate vendors the small pieces of infrastructure the
//! rest of the workspace would otherwise pull from crates.io:
//!
//! - [`args`] — the command-line flag reader every binary parses its
//!   arguments with; it refuses an unknown or repeated argument with a
//!   typed error. Replaces `clap`.
//! - [`rng`] — a tiny, fast, seedable PRNG (splitmix64 seeding a
//!   xoshiro256++ core) with the handful of sampling helpers the
//!   simulator and tests need. Replaces `rand::rngs::SmallRng`.
//! - [`json`] — a minimal JSON value type with a writer and a
//!   recursive-descent parser, enough for the profile-table and
//!   benchmark I/O surface. Replaces `serde`/`serde_json`.
//! - [`par`] — a deterministic ordered parallel map over `std::thread`,
//!   used by the profiling sweep and the experiment harness. Replaces
//!   `rayon` for the embarrassingly-parallel loops this workspace has.
//!
//! All four are deterministic and allocation-light; none aims to be a
//! general-purpose replacement for the crates they stand in for.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod json;
pub mod par;
pub mod rng;

pub use json::{Json, JsonError};
pub use rng::Rng;
