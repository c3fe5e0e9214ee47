//! # asgov-obs — structured per-cycle observability
//!
//! The controller is a closed loop (performance measurement → Kalman
//! base-speed estimator → LP optimizer → dwell scheduler) whose
//! behaviour is only legible if every control cycle can be replayed and
//! aggregated. `RunReport` / `HealthReport` give end-of-run summaries;
//! this crate adds the per-cycle record underneath them:
//!
//! - [`CycleRecord`] — one schema-versioned snapshot per control cycle:
//!   timestamp, target, measured GIPS, tracking error, Kalman estimate
//!   and innovation, the chosen configuration pair with its dwell split,
//!   optimizer solve time, actuation latency, the actuation fault (if
//!   any) and the degradation level.
//! - [`RingBuffer`] — a fixed-capacity, allocation-free ring that keeps
//!   the newest N records and counts what it dropped.
//! - [`Histogram`] — fixed-bucket (log-spaced) histograms for solve
//!   time, actuation latency and innovation magnitude.
//! - [`FleetStats`] — columnar (struct-of-arrays) streaming aggregator
//!   for fleet-scale runs: per-stream counts, exact fixed-point
//!   moments and shared-bounds log histograms with a bit-exactly
//!   associative `merge`, so sharded partial aggregates fold in any
//!   order without materializing per-device rows.
//! - [`TraceSink`] — the trait the device and controller emit into:
//!   control cycles, typed [`DeviceEvent`]s (DVFS transitions,
//!   governor selections) and the power monitor's sample spans. It is
//!   the one recorder of a run; [`NullSink`] discards everything (and
//!   is bit-identical to no sink at all), [`RingSink`] retains records
//!   and aggregates [`Metrics`].
//!
//! Records serialize to JSONL (one compact object per line, each line
//! carrying the [`SCHEMA`] tag) through the vendored
//! [`asgov_util::json`] — no external dependencies, per the workspace
//! dependency policy.
//!
//! ## Layering
//!
//! This crate sits *below* `asgov-soc`: it depends only on
//! `asgov-util`. The two enums a cycle record shares with the SoC and
//! the controller are defined here, once: [`SocErrorKind`] (the class
//! of a failed sysfs write) and [`DegradationLevel`] (the controller's
//! ladder level). Each carries its wire name, its snapshot code and its
//! counter index; `asgov-soc` re-exports both under the same names.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod agg;
mod hist;
mod record;
mod ring;
mod sink;

pub use agg::{FleetStats, LayoutMismatch};
pub use hist::Histogram;
pub use record::{
    parse_jsonl, CycleRecord, DegradationLevel, RecordError, SocErrorKind, LEGACY_SCHEMA, SCHEMA,
};
pub use ring::RingBuffer;
pub use sink::{DeviceEvent, Metrics, NullSink, RingSink, TraceSink};
