//! `asgov-analyze` — dependency-free static analysis for the asgov
//! workspace.
//!
//! Two engines, both hermetic per the vendoring policy (no syn, no
//! loom, no regex):
//!
//! 1. **Invariant lints** ([`rules`]): a hand-rolled Rust lexer
//!    ([`lexer`]) feeding a rule framework that machine-checks the
//!    paper-critical invariants — panic-free hot path, deterministic
//!    simulation, gated observability, a single error taxonomy —
//!    with a reason-mandatory allow list ([`allow`]).
//! 2. **Interleaving checker** ([`interleave`]): a loom-lite
//!    exhaustive scheduler proving the parallel profiling harness's
//!    bit-identical-to-serial guarantee over every (bounded-preemption)
//!    thread interleaving, not just the ones the OS produces.
//!
//! The lint engine has two tiers. Token-level rules work straight off
//! the lexer. Semantic rules work off an item-level parser ([`parse`])
//! that recovers functions, signatures, and impl blocks: the
//! units-of-measure lint ([`units`]) makes the `_ms`/`_ticks`/`_j`
//! suffix convention machine-checked, and the call-graph pass
//! ([`graph`]) chases panic reachability across files. Snapshot-codec
//! symmetry needs no pass: each persisted component derives its writer
//! and reader from one field list (`asgov_core::snapshot_fields!`).
//!
//! The binary (`cargo run -p asgov-analyze -- --workspace`) runs both
//! engines, writes `ANALYZE_report.json` ([`report`]) and exits
//! non-zero on any finding; CI runs it as a blocking job. See
//! DESIGN.md §8 for the rule catalog and the allow-annotation policy.

pub mod allow;
pub mod graph;
pub mod interleave;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod units;
pub mod workspace;
