//! The per-cycle trace record and its JSONL encoding.

use asgov_util::Json;

/// Schema tag stamped on every serialized record. Bump the suffix when
/// a field is added, removed, or changes meaning; readers reject lines
/// whose tag they do not understand.
pub const SCHEMA: &str = "asgov-obs/v2";

/// The previous schema tag, still accepted on read: v1 records lack
/// the supervisor fields (`restarts`, `snapshot_errors`), which decode
/// as zero.
pub const LEGACY_SCHEMA: &str = "asgov-obs/v1";

/// The class of a failed sysfs write (`asgov_soc::SocError::kind`):
/// small and `Copy`, so cycle records, health counters and snapshots
/// name a failure cause without carrying path strings around. Defined
/// here, below the SoC crate, so records need no upward dependency;
/// `asgov-soc` re-exports it.
///
/// Declaration order is [`SocErrorKind::ALL`]'s, and fixes both the
/// counter index and the snapshot wire code: new kinds go at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SocErrorKind {
    /// Write to a sysfs path that does not exist.
    NoSuchFile,
    /// Write to a read-only sysfs path.
    ReadOnly,
    /// Value rejected by the kernel interface.
    InvalidValue,
    /// `scaling_setspeed` ignored because the governor is not
    /// `userspace`.
    WrongGovernor,
    /// Transient `-EBUSY` from the kernel.
    Busy,
}

impl SocErrorKind {
    /// Every kind, in declaration order.
    pub const ALL: [SocErrorKind; 5] = [
        SocErrorKind::NoSuchFile,
        SocErrorKind::ReadOnly,
        SocErrorKind::InvalidValue,
        SocErrorKind::WrongGovernor,
        SocErrorKind::Busy,
    ];

    /// Stable wire name (JSONL traces and reports).
    pub fn as_str(self) -> &'static str {
        match self {
            SocErrorKind::NoSuchFile => "no-such-file",
            SocErrorKind::ReadOnly => "read-only",
            SocErrorKind::InvalidValue => "invalid-value",
            SocErrorKind::WrongGovernor => "wrong-governor",
            SocErrorKind::Busy => "busy",
        }
    }

    /// Parse a wire name produced by [`SocErrorKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Index into per-kind counter arrays (the position in
    /// [`SocErrorKind::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable one-byte snapshot code (the position in
    /// [`SocErrorKind::ALL`]).
    pub fn wire_code(self) -> u8 {
        self as u8
    }

    /// Decode a [`SocErrorKind::wire_code`] (`None` for an unknown code:
    /// a corrupt or future snapshot, never a panic).
    pub fn from_wire(code: u8) -> Option<Self> {
        Self::ALL.get(usize::from(code)).copied()
    }
}

impl std::fmt::Display for SocErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The controller's degradation ladder, most capable first: where the
/// controller sat when a record was emitted, and the level a health
/// report or snapshot carries. `asgov-soc` re-exports it.
///
/// `Full` runs the paper's two-configuration schedule; `SafeConfig`
/// pins one safe configuration (no optimization); `FallbackGovernor`
/// hands the device back to the stock governors and only probes for
/// recovery. Declaration order is [`DegradationLevel::ALL`]'s and fixes
/// the counter index, the snapshot wire code and the ordering (worse
/// is greater).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum DegradationLevel {
    /// Full two-configuration control (normal operation).
    #[default]
    Full,
    /// Single safe configuration, feedback suspended.
    SafeConfig,
    /// Device handed back to the fallback (stock) governor.
    FallbackGovernor,
}

impl DegradationLevel {
    /// Every level, ladder order.
    pub const ALL: [DegradationLevel; 3] = [
        DegradationLevel::Full,
        DegradationLevel::SafeConfig,
        DegradationLevel::FallbackGovernor,
    ];

    /// Stable wire name (JSONL traces and reports).
    pub fn as_str(self) -> &'static str {
        match self {
            DegradationLevel::Full => "full",
            DegradationLevel::SafeConfig => "safe-config",
            DegradationLevel::FallbackGovernor => "fallback-governor",
        }
    }

    /// Parse a wire name produced by [`DegradationLevel::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|l| l.as_str() == s)
    }

    /// Index into per-level counter arrays (the position in
    /// [`DegradationLevel::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable one-byte snapshot code (the position in
    /// [`DegradationLevel::ALL`]).
    pub fn wire_code(self) -> u8 {
        self as u8
    }

    /// Decode a [`DegradationLevel::wire_code`] (`None` for an unknown
    /// code).
    pub fn from_wire(code: u8) -> Option<Self> {
        Self::ALL.get(usize::from(code)).copied()
    }

    /// One step less capable (saturates at `FallbackGovernor`).
    pub fn down(self) -> Self {
        match self {
            DegradationLevel::Full => DegradationLevel::SafeConfig,
            _ => DegradationLevel::FallbackGovernor,
        }
    }

    /// One step more capable (saturates at `Full`).
    pub fn up(self) -> Self {
        match self {
            DegradationLevel::FallbackGovernor => DegradationLevel::SafeConfig,
            _ => DegradationLevel::Full,
        }
    }
}

impl std::fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One control cycle, fully described. `Copy` and fixed-size so the
/// ring buffer holding these never allocates after construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleRecord {
    /// Control-cycle ordinal (0-based, monotone within a run).
    pub cycle: u64,
    /// Device time at the end of the cycle, ms.
    pub t_ms: u64,
    /// Performance target, GIPS.
    pub target_gips: f64,
    /// Measured performance over the cycle (mean of accepted perf
    /// readings), GIPS.
    pub measured_gips: f64,
    /// Tracking error `e_n = target − measured`, GIPS.
    pub error: f64,
    /// Kalman base-speed estimate `b_n`, GIPS.
    pub base_estimate: f64,
    /// Kalman innovation `y − h·b⁻` for this cycle's update, GIPS.
    pub innovation: f64,
    /// Required speedup `s_n` emitted by the regulator.
    pub required_speedup: f64,
    /// Lower configuration of the chosen pair `c_l`: (CPU-frequency
    /// index, memory-bandwidth index) into the device ladders.
    pub lower: (u32, u32),
    /// Upper configuration `c_h`, same encoding.
    pub upper: (u32, u32),
    /// Dwell on the lower configuration `τ_l`, ms (post-quantization).
    pub tau_lower_ms: u64,
    /// Dwell on the upper configuration `τ_h`, ms. The scheduler
    /// guarantees `tau_lower_ms + tau_upper_ms == T` exactly.
    pub tau_upper_ms: u64,
    /// Wall-clock time the optimizer spent solving, ns.
    pub solve_ns: u64,
    /// Wall-clock latency of the actuation (sysfs writes + retries), ns.
    pub actuation_ns: u64,
    /// Actuation fault observed during the cycle, if any.
    pub fault: Option<SocErrorKind>,
    /// Degradation-ladder level after this cycle's health accounting.
    pub level: DegradationLevel,
    /// Supervisor restarts of the emitting controller so far (0 when
    /// unsupervised; v1 records decode as 0).
    pub restarts: u64,
    /// Checkpoints found unusable at restart so far (0 when
    /// unsupervised; v1 records decode as 0).
    pub snapshot_errors: u64,
}

impl Default for CycleRecord {
    fn default() -> Self {
        Self {
            cycle: 0,
            t_ms: 0,
            target_gips: 0.0,
            measured_gips: 0.0,
            error: 0.0,
            base_estimate: 0.0,
            innovation: 0.0,
            required_speedup: 0.0,
            lower: (0, 0),
            upper: (0, 0),
            tau_lower_ms: 0,
            tau_upper_ms: 0,
            solve_ns: 0,
            actuation_ns: 0,
            fault: None,
            level: DegradationLevel::Full,
            restarts: 0,
            snapshot_errors: 0,
        }
    }
}

/// Why a serialized record line could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The line is not valid JSON.
    Malformed,
    /// The line parsed, but its `schema` tag is missing or unknown.
    BadSchema(String),
    /// A required field is missing or has the wrong type.
    MissingField(&'static str),
    /// An integer field holds a negative, fractional or too-large
    /// number.
    OutOfRange(&'static str),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Malformed => write!(f, "line is not valid JSON"),
            RecordError::BadSchema(s) => write!(f, "unknown schema tag {s:?} (want {SCHEMA:?})"),
            RecordError::MissingField(name) => write!(f, "missing or mistyped field {name:?}"),
            RecordError::OutOfRange(name) => {
                write!(f, "field {name:?} is not a whole number in range")
            }
        }
    }
}

impl std::error::Error for RecordError {}

impl CycleRecord {
    /// Encode as a JSON object carrying the [`SCHEMA`] tag.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("schema", SCHEMA);
        o.set("cycle", self.cycle as f64);
        o.set("t_ms", self.t_ms as f64);
        o.set("target_gips", self.target_gips);
        o.set("measured_gips", self.measured_gips);
        o.set("error", self.error);
        o.set("base_estimate", self.base_estimate);
        o.set("innovation", self.innovation);
        o.set("required_speedup", self.required_speedup);
        o.set("lower_freq", self.lower.0 as f64);
        o.set("lower_bw", self.lower.1 as f64);
        o.set("upper_freq", self.upper.0 as f64);
        o.set("upper_bw", self.upper.1 as f64);
        o.set("tau_lower_ms", self.tau_lower_ms as f64);
        o.set("tau_upper_ms", self.tau_upper_ms as f64);
        o.set("solve_ns", self.solve_ns as f64);
        o.set("actuation_ns", self.actuation_ns as f64);
        match self.fault {
            Some(fault) => o.set("fault", fault.as_str()),
            None => o.set("fault", Json::Null),
        }
        o.set("level", self.level.as_str());
        o.set("restarts", self.restarts as f64);
        o.set("snapshot_errors", self.snapshot_errors as f64);
        o
    }

    /// Decode a JSON object produced by [`CycleRecord::to_json`].
    /// [`LEGACY_SCHEMA`] (v1) records are accepted too: they predate the
    /// supervisor fields, which decode as zero.
    pub fn from_json(j: &Json) -> Result<Self, RecordError> {
        let tag = j.get("schema").and_then(Json::as_str).unwrap_or("");
        let legacy = tag == LEGACY_SCHEMA;
        if tag != SCHEMA && !legacy {
            return Err(RecordError::BadSchema(tag.to_string()));
        }
        // The writer degrades non-finite floats to `null` (JSON cannot
        // express them), so a null float field decodes as NaN rather
        // than rejecting the whole record. Integer fields stay strict:
        // they are always finite on the wire, so `null` there means
        // corruption, not degradation.
        let f64_field = |name: &'static str| match j.get(name) {
            Some(Json::Null) => Ok(f64::NAN),
            other => other
                .and_then(Json::as_f64)
                .ok_or(RecordError::MissingField(name)),
        };
        fn int_field<T: TryFrom<u64>>(j: &Json, name: &'static str) -> Result<T, RecordError> {
            let v = j
                .get(name)
                .and_then(Json::as_f64)
                .ok_or(RecordError::MissingField(name))?;
            whole(v).ok_or(RecordError::OutOfRange(name))
        }
        let u64_field = |name: &'static str| int_field::<u64>(j, name);
        let u32_field = |name: &'static str| int_field::<u32>(j, name);
        let fault = match j.get("fault") {
            Some(Json::Null) | None => None,
            Some(v) => Some(
                v.as_str()
                    .and_then(SocErrorKind::parse)
                    .ok_or(RecordError::MissingField("fault"))?,
            ),
        };
        let level = j
            .get("level")
            .and_then(Json::as_str)
            .and_then(DegradationLevel::parse)
            .ok_or(RecordError::MissingField("level"))?;
        Ok(Self {
            cycle: u64_field("cycle")?,
            t_ms: u64_field("t_ms")?,
            target_gips: f64_field("target_gips")?,
            measured_gips: f64_field("measured_gips")?,
            error: f64_field("error")?,
            base_estimate: f64_field("base_estimate")?,
            innovation: f64_field("innovation")?,
            required_speedup: f64_field("required_speedup")?,
            lower: (u32_field("lower_freq")?, u32_field("lower_bw")?),
            upper: (u32_field("upper_freq")?, u32_field("upper_bw")?),
            tau_lower_ms: u64_field("tau_lower_ms")?,
            tau_upper_ms: u64_field("tau_upper_ms")?,
            solve_ns: u64_field("solve_ns")?,
            actuation_ns: u64_field("actuation_ns")?,
            fault,
            level,
            restarts: if legacy { 0 } else { u64_field("restarts")? },
            snapshot_errors: if legacy {
                0
            } else {
                u64_field("snapshot_errors")?
            },
        })
    }

    /// Encode as one compact JSONL line (no trailing newline).
    pub fn to_jsonl_line(&self) -> String {
        self.to_json().to_string()
    }

    /// Decode one JSONL line.
    pub fn from_jsonl_line(line: &str) -> Result<Self, RecordError> {
        let j = Json::parse(line).map_err(|_| RecordError::Malformed)?;
        Self::from_json(&j)
    }
}

/// `v` as a `T` when it is a whole number that `T` holds. JSON numbers
/// are `f64`s, and a plain `as` cast would read −1 as 0, 2.5 as 2 and
/// 1e30 as the type's maximum.
fn whole<T: TryFrom<u64>>(v: f64) -> Option<T> {
    // 2^64 is the first `f64` past `u64::MAX`; NaN is in no range.
    let in_range = (0.0..18_446_744_073_709_551_616.0).contains(&v);
    // In range, the cast truncates, so it round-trips only whole numbers.
    let n = v as u64;
    // asgov-analyze: allow(float-eq): exact round-trip test for a whole number, not a tolerance comparison
    if in_range && n as f64 == v {
        T::try_from(n).ok()
    } else {
        None
    }
}

/// Decode a whole JSONL document (one record per non-empty line).
pub fn parse_jsonl(text: &str) -> Result<Vec<CycleRecord>, RecordError> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(CycleRecord::from_jsonl_line)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample(cycle: u64) -> CycleRecord {
        CycleRecord {
            cycle,
            t_ms: 2_000 * (cycle + 1),
            target_gips: 0.5,
            measured_gips: 0.487,
            error: 0.013,
            base_estimate: 0.231,
            innovation: -0.004,
            required_speedup: 2.16,
            lower: (7, 3),
            upper: (8, 4),
            tau_lower_ms: 1_200,
            tau_upper_ms: 800,
            solve_ns: 1_850,
            actuation_ns: 12_400,
            fault: Some(SocErrorKind::Busy),
            level: DegradationLevel::SafeConfig,
            restarts: 1,
            snapshot_errors: 0,
        }
    }

    #[test]
    fn round_trips_through_jsonl() {
        let rec = sample(3);
        let line = rec.to_jsonl_line();
        assert!(line.contains("\"schema\":\"asgov-obs/v2\""));
        assert!(line.contains("\"restarts\":1"));
        let back = CycleRecord::from_jsonl_line(&line).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn legacy_v1_lines_decode_with_zero_supervisor_fields() {
        // A v1 record has no restarts/snapshot_errors fields at all.
        let mut j = sample(2).to_json();
        j.set("schema", LEGACY_SCHEMA);
        let line = j.to_string();
        // (leftover v2 fields in the object are simply ignored for v1;
        // build a true v1 line by removing them)
        let line = line
            .replace(",\"restarts\":1", "")
            .replace(",\"snapshot_errors\":0", "");
        let back = CycleRecord::from_jsonl_line(&line).unwrap();
        assert_eq!(back.restarts, 0);
        assert_eq!(back.snapshot_errors, 0);
        assert_eq!(back.cycle, 2);
        assert_eq!(back.fault, Some(SocErrorKind::Busy));
        // A v2 line missing the new fields is rejected, not defaulted.
        let mut j = sample(2).to_json();
        j.set("restarts", asgov_util::Json::Null);
        assert!(matches!(
            CycleRecord::from_json(&j).unwrap_err(),
            RecordError::MissingField("restarts")
        ));
    }

    #[test]
    fn null_fault_round_trips() {
        let rec = CycleRecord {
            fault: None,
            level: DegradationLevel::Full,
            ..sample(0)
        };
        let back = CycleRecord::from_jsonl_line(&rec.to_jsonl_line()).unwrap();
        assert_eq!(back.fault, None);
        assert_eq!(back.level, DegradationLevel::Full);
    }

    #[test]
    fn non_finite_floats_survive_the_wire_as_nan() {
        // A record that picked up a NaN (e.g. a 0/0 error ratio under a
        // fault) serializes those fields as `null`; the reader recovers
        // NaN instead of rejecting the line, and every other field is
        // intact.
        let rec = CycleRecord {
            measured_gips: f64::NAN,
            innovation: f64::INFINITY,
            ..sample(5)
        };
        let line = rec.to_jsonl_line();
        assert!(line.contains("\"measured_gips\":null"));
        assert!(line.contains("\"innovation\":null"));
        let back = CycleRecord::from_jsonl_line(&line).unwrap();
        assert!(back.measured_gips.is_nan());
        assert!(back.innovation.is_nan()); // infinity is lossy: null → NaN
        assert_eq!(back.cycle, rec.cycle);
        assert_eq!(back.target_gips, rec.target_gips);
        assert_eq!(back.fault, rec.fault);
    }

    #[test]
    fn null_integer_fields_are_rejected() {
        let mut j = sample(0).to_json();
        j.set("solve_ns", asgov_util::Json::Null);
        let err = CycleRecord::from_json(&j).unwrap_err();
        assert!(matches!(err, RecordError::MissingField("solve_ns")));
    }

    #[test]
    fn integer_fields_refuse_negative_fractional_and_huge_numbers() {
        for (field, bad) in [
            ("cycle", -1.0),
            ("t_ms", 2.5),
            ("solve_ns", 1e30),
            ("lower_freq", 4_294_967_296.0),
            ("restarts", f64::NAN),
        ] {
            let mut j = sample(0).to_json();
            j.set(field, bad);
            assert_eq!(
                CycleRecord::from_json(&j),
                Err(RecordError::OutOfRange(field)),
                "{field} = {bad}"
            );
        }
        // Whole numbers at the edges of their types still decode.
        let mut j = sample(0).to_json();
        j.set("lower_freq", 4_294_967_295.0);
        j.set("t_ms", 9_007_199_254_740_992.0);
        let rec = CycleRecord::from_json(&j).expect("in range");
        assert_eq!(rec.lower.0, u32::MAX);
        assert_eq!(rec.t_ms, 1 << 53);
    }

    #[test]
    fn rejects_unknown_schema() {
        let mut j = sample(0).to_json();
        j.set("schema", "asgov-obs/v999");
        let err = CycleRecord::from_json(&j).unwrap_err();
        assert!(matches!(err, RecordError::BadSchema(_)));
    }

    #[test]
    fn rejects_missing_field() {
        let line = r#"{"schema":"asgov-obs/v1","cycle":1}"#;
        let err = CycleRecord::from_jsonl_line(line).unwrap_err();
        assert!(matches!(err, RecordError::MissingField(_)));
    }

    #[test]
    fn wire_names_and_codes_are_total_and_invertible() {
        for (i, k) in SocErrorKind::ALL.into_iter().enumerate() {
            assert_eq!(SocErrorKind::parse(k.as_str()), Some(k));
            assert_eq!(k.to_string(), k.as_str());
            assert_eq!(k.index(), i);
            assert_eq!(SocErrorKind::from_wire(k.wire_code()), Some(k));
        }
        for (i, l) in DegradationLevel::ALL.into_iter().enumerate() {
            assert_eq!(DegradationLevel::parse(l.as_str()), Some(l));
            assert_eq!(l.to_string(), l.as_str());
            assert_eq!(l.index(), i);
            assert_eq!(DegradationLevel::from_wire(l.wire_code()), Some(l));
        }
        assert_eq!(SocErrorKind::parse("nope"), None);
        assert_eq!(DegradationLevel::parse("nope"), None);
        // The snapshot codes are pinned: a frame written today must
        // decode to the same kind and level tomorrow.
        assert_eq!(SocErrorKind::Busy.wire_code(), 4);
        assert_eq!(DegradationLevel::FallbackGovernor.wire_code(), 2);
        for code in [5, 255] {
            assert_eq!(SocErrorKind::from_wire(code), None);
        }
        for code in [3, 255] {
            assert_eq!(DegradationLevel::from_wire(code), None);
        }
    }

    #[test]
    fn ladder_steps_saturate() {
        assert_eq!(DegradationLevel::Full.down(), DegradationLevel::SafeConfig);
        assert_eq!(
            DegradationLevel::SafeConfig.down(),
            DegradationLevel::FallbackGovernor
        );
        assert_eq!(
            DegradationLevel::FallbackGovernor.down(),
            DegradationLevel::FallbackGovernor
        );
        assert_eq!(
            DegradationLevel::FallbackGovernor.up(),
            DegradationLevel::SafeConfig
        );
        assert_eq!(DegradationLevel::SafeConfig.up(), DegradationLevel::Full);
        assert_eq!(DegradationLevel::Full.up(), DegradationLevel::Full);
        assert!(DegradationLevel::Full < DegradationLevel::FallbackGovernor);
    }
}
