//! The profile table (paper Table I).

use asgov_soc::gpu::ADRENO420_FREQS_GHZ;
use asgov_soc::{BwIndex, DvfsTable, FreqIndex, GpuFreqIndex};
use asgov_util::Json;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// A *system configuration*: an ordered pair of CPU frequency and
/// memory bandwidth indices (paper §III-A). The controller framework is
/// axis-generic in principle (the paper lists GPU frequency and network
/// packet rate as future axes); this pair is what the paper controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Config {
    /// CPU frequency index.
    pub freq: FreqIndex,
    /// Memory bandwidth index.
    pub bw: BwIndex,
    /// GPU frequency index, when the GPU axis is controlled too (the
    /// paper's §VII extension); `None` leaves the GPU to its governor.
    pub gpu: Option<GpuFreqIndex>,
}

impl Config {
    /// A two-axis configuration (the paper's controlled pair).
    pub fn new(freq: FreqIndex, bw: BwIndex) -> Self {
        Self {
            freq,
            bw,
            gpu: None,
        }
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.gpu {
            Some(g) => write!(f, "({}, {}, {})", self.freq, self.bw, g),
            None => write!(f, "({}, {})", self.freq, self.bw),
        }
    }
}

/// One row of the profile table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileEntry {
    /// The configuration.
    pub config: Config,
    /// Speedup 𝕊 relative to the application's base speed.
    pub speedup: f64,
    /// Average whole-device power ℙ at this configuration, watts.
    pub power_w: f64,
    /// Whether this row was measured (`false` = interpolated).
    pub measured: bool,
}

/// Offline profile of one application: speedup and power per system
/// configuration, plus the base speed that anchors the speedups.
///
/// # Example
///
/// ```
/// # use asgov_profiler::{Config, ProfileEntry, ProfileTable};
/// # use asgov_soc::{BwIndex, FreqIndex};
/// let table = ProfileTable {
///     app: "AngryBirds".into(),
///     base_gips: 0.129,
///     entries: vec![ProfileEntry {
///         config: Config::new(FreqIndex(0), BwIndex(0)),
///         speedup: 1.0,
///         power_w: 1.62357,
///         measured: true,
///     }],
/// };
/// // Persist and restore through the dependency-free TSV format.
/// let restored: ProfileTable = table.to_tsv().parse()?;
/// assert_eq!(restored, table);
/// # Ok::<(), asgov_profiler::TableParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileTable {
    /// Application name.
    pub app: String,
    /// Base speed `b`: application GIPS at the lowest system
    /// configuration of the SoC (paper: 0.129 for AngryBirds, 0.471 for
    /// VidCon).
    pub base_gips: f64,
    /// Table rows, sorted by (freq, bw).
    pub entries: Vec<ProfileEntry>,
}

impl ProfileTable {
    /// The speedup vector 𝕊 (paper Eqn. 5), in row order.
    pub fn speedups(&self) -> Vec<f64> {
        self.entries.iter().map(|e| e.speedup).collect()
    }

    /// The power vector ℙ (paper Eqn. 4), in row order.
    pub fn powers(&self) -> Vec<f64> {
        self.entries.iter().map(|e| e.power_w).collect()
    }

    /// The configuration of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn config(&self, i: usize) -> Config {
        self.entries[i].config
    }

    /// Number of rows (N).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Smallest speedup in the table.
    pub fn min_speedup(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest speedup in the table.
    pub fn max_speedup(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.speedup)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The problems that keep the table from driving a controller on a
    /// device with `ladder`'s CPU and bus ladders and the Adreno 420
    /// GPU, in human-readable form (empty = it can): no entries, a
    /// non-finite or non-positive base speed, speedup or power, or a
    /// configuration off one of the ladders.
    pub fn defects(&self, ladder: &DvfsTable) -> Vec<String> {
        if self.is_empty() {
            return vec!["table has no entries".to_string()];
        }
        let mut issues = Vec::new();
        if !self.base_gips.is_finite() || self.base_gips <= 0.0 {
            issues.push(format!("bad base speed {} GIPS", self.base_gips));
        }
        for e in &self.entries {
            let c = e.config;
            if c.freq.0 >= ladder.num_freqs()
                || c.bw.0 >= ladder.num_bws()
                || c.gpu.is_some_and(|g| g.0 >= ADRENO420_FREQS_GHZ.len())
            {
                issues.push(format!("configuration {c} is off the device's ladders"));
            }
            if !e.speedup.is_finite() || e.speedup <= 0.0 {
                issues.push(format!("bad speedup {} at {c}", e.speedup));
            }
            if !e.power_w.is_finite() || e.power_w <= 0.0 {
                issues.push(format!("bad power {} at {c}", e.power_w));
            }
        }
        issues
    }

    /// Sanity-check the table before handing it to a controller.
    /// Returns a list of human-readable issues (empty = healthy).
    ///
    /// Checked: the [`ProfileTable::defects`] against `ladder`, and
    /// three signs of a suspect profile that can still drive a
    /// controller: duplicate configurations, a base speed outside
    /// plausible bounds, and a speedup scale that never reaches ~1
    /// (which suggests the base configuration was mis-measured).
    pub fn validate(&self, ladder: &DvfsTable) -> Vec<String> {
        let mut issues = self.defects(ladder);
        if self.is_empty() {
            return issues;
        }
        let b = self.base_gips;
        if b.is_finite() && b > 0.0 && !(1e-4..=100.0).contains(&b) {
            issues.push(format!("implausible base speed {} GIPS", self.base_gips));
        }
        let mut seen = std::collections::BTreeSet::new();
        for e in &self.entries {
            if !seen.insert(e.config) {
                issues.push(format!("duplicate configuration {}", e.config));
            }
        }
        if self.min_speedup() > 1.5 {
            issues.push(format!(
                "smallest speedup is {:.3}: the base configuration looks mis-measured",
                self.min_speedup()
            ));
        }
        issues
    }

    /// Render as a tab-separated table (stable on-disk format — the
    /// workspace deliberately carries no serde *format* crate).
    /// Round-trips through [`ProfileTable::from_tsv`].
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# app\t{}\n# base_gips\t{}\n",
            self.app, self.base_gips
        ));
        out.push_str("# freq_idx\tbw_idx\tgpu_idx\tspeedup\tpower_w\tmeasured\n");
        for e in &self.entries {
            let gpu = e.config.gpu.map_or(-1i64, |g| g.0 as i64);
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\n",
                e.config.freq.0, e.config.bw.0, gpu, e.speedup, e.power_w, e.measured as u8
            ));
        }
        out
    }

    /// Parse the TSV format produced by [`ProfileTable::to_tsv`].
    /// Indices must be unsigned integers (`-1` for no GPU index) and
    /// numbers finite.
    ///
    /// # Errors
    ///
    /// Returns [`TableParseError`] on malformed input.
    pub fn from_tsv(text: &str) -> Result<Self, TableParseError> {
        let mut app = None;
        let mut base_gips = None;
        let mut entries = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim_end_matches('\r');
            if line.trim().is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# app\t") {
                app = Some(rest.to_string());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# base_gips\t") {
                base_gips = Some(finite(rest).ok_or_else(|| TableParseError::at(lineno, line))?);
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            // 6 fields with the GPU column; 5 for tables written before
            // the GPU axis existed.
            if fields.len() != 6 && fields.len() != 5 {
                return Err(TableParseError::at(lineno, line));
            }
            let bad = || TableParseError::at(lineno, line);
            let index = |s: &str| s.parse::<usize>().map_err(|_| bad());
            let number = |s: &str| finite(s).ok_or_else(bad);
            // `-1` in the GPU column: the GPU is left to its governor.
            let (gpu, rest) = match fields.len() {
                6 if fields[2] == "-1" => (None, &fields[3..]),
                6 => (Some(GpuFreqIndex(index(fields[2])?)), &fields[3..]),
                _ => (None, &fields[2..]),
            };
            entries.push(ProfileEntry {
                config: Config {
                    freq: FreqIndex(index(fields[0])?),
                    bw: BwIndex(index(fields[1])?),
                    gpu,
                },
                speedup: number(rest[0])?,
                power_w: number(rest[1])?,
                measured: rest[2] == "1",
            });
        }
        Ok(Self {
            app: app.ok_or(TableParseError::MissingHeader("app"))?,
            base_gips: base_gips.ok_or(TableParseError::MissingHeader("base_gips"))?,
            entries,
        })
    }

    /// Serialize as a JSON document (hand-rolled via `asgov-util` — the
    /// workspace carries no serde). Round-trips through
    /// [`ProfileTable::from_json`].
    pub fn to_json(&self) -> String {
        let mut doc = Json::object();
        doc.set("app", self.app.as_str());
        doc.set("base_gips", self.base_gips);
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                let mut row = Json::object();
                row.set("freq", e.config.freq.0);
                row.set("bw", e.config.bw.0);
                row.set("gpu", e.config.gpu.map_or(Json::Null, |g| Json::from(g.0)));
                row.set("speedup", e.speedup);
                row.set("power_w", e.power_w);
                row.set("measured", e.measured);
                row
            })
            .collect();
        doc.set("entries", Json::Arr(entries));
        doc.to_pretty()
    }

    /// Parse the JSON format produced by [`ProfileTable::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`TableParseError::BadJson`] on malformed input or a
    /// document missing required fields.
    pub fn from_json(text: &str) -> Result<Self, TableParseError> {
        let bad = |what: &'static str| TableParseError::BadJson(what);
        let doc = Json::parse(text).map_err(|_| bad("unparseable document"))?;
        let app = doc
            .get("app")
            .and_then(Json::as_str)
            .ok_or(bad("missing app"))?
            .to_string();
        let base_gips = doc
            .get("base_gips")
            .and_then(Json::as_f64)
            .ok_or(bad("missing base_gips"))?;
        let rows = doc
            .get("entries")
            .and_then(Json::as_array)
            .ok_or(bad("missing entries"))?;
        let mut entries = Vec::with_capacity(rows.len());
        for row in rows {
            let idx = |key: &str| -> Result<usize, TableParseError> {
                row.get(key)
                    .and_then(Json::as_f64)
                    // asgov-analyze: allow(float-eq): exact integrality test on a parsed index, not a tolerance comparison
                    .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                    .map(|v| v as usize)
                    .ok_or(bad("bad index field"))
            };
            let num = |key: &str| row.get(key).and_then(Json::as_f64).ok_or(bad("bad number"));
            let gpu = match row.get("gpu") {
                None | Some(Json::Null) => None,
                Some(g) => Some(GpuFreqIndex(
                    g.as_f64()
                        // asgov-analyze: allow(float-eq): exact integrality test on a parsed index, not a tolerance comparison
                        .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                        .ok_or(bad("bad gpu index"))? as usize,
                )),
            };
            entries.push(ProfileEntry {
                config: Config {
                    freq: FreqIndex(idx("freq")?),
                    bw: BwIndex(idx("bw")?),
                    gpu,
                },
                speedup: num("speedup")?,
                power_w: num("power_w")?,
                measured: row
                    .get("measured")
                    .and_then(Json::as_bool)
                    .ok_or(bad("bad measured flag"))?,
            });
        }
        Ok(Self {
            app,
            base_gips,
            entries,
        })
    }

    /// Pretty-print in the style of the paper's Table I.
    pub fn render(&self, table: &DvfsTable) -> String {
        let mut out = format!(
            "Profile for {} (base speed {:.3} GIPS)\n{:<4} {:<22} {:<10} {:<12} {}\n",
            self.app, self.base_gips, "#", "Config (GHz, MBps)", "Speedup", "Power (mW)", "src"
        );
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "{:<4} ({:.4}, {:>5.0})        {:<10.4} {:<12.2} {}\n",
                i + 1,
                table.freq(e.config.freq).0,
                table.bw(e.config.bw).0,
                e.speedup,
                e.power_w * 1000.0,
                if e.measured { "measured" } else { "interp" },
            ));
        }
        out
    }
}

/// `s` as a finite `f64`.
fn finite(s: &str) -> Option<f64> {
    s.parse::<f64>().ok().filter(|v| v.is_finite())
}

/// Error parsing a profile table from TSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableParseError {
    /// A malformed line.
    BadLine {
        /// Zero-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A required header line is missing.
    MissingHeader(&'static str),
    /// A malformed JSON document (see [`ProfileTable::from_json`]).
    BadJson(&'static str),
}

impl TableParseError {
    fn at(line: usize, content: &str) -> Self {
        Self::BadLine {
            line,
            content: content.to_string(),
        }
    }
}

impl fmt::Display for TableParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableParseError::BadLine { line, content } => {
                write!(f, "malformed profile line {line}: {content:?}")
            }
            TableParseError::MissingHeader(h) => write!(f, "missing header {h:?}"),
            TableParseError::BadJson(what) => write!(f, "malformed profile JSON: {what}"),
        }
    }
}

impl Error for TableParseError {}

impl FromStr for ProfileTable {
    type Err = TableParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::from_tsv(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileTable {
        ProfileTable {
            app: "AngryBirds".into(),
            base_gips: 0.129,
            entries: vec![
                ProfileEntry {
                    config: Config {
                        freq: FreqIndex(0),
                        bw: BwIndex(0),
                        gpu: None,
                    },
                    speedup: 1.0,
                    power_w: 1.62357,
                    measured: true,
                },
                ProfileEntry {
                    config: Config {
                        freq: FreqIndex(0),
                        bw: BwIndex(2),
                        gpu: None,
                    },
                    speedup: 1.0077,
                    power_w: 1.74209,
                    measured: false,
                },
                ProfileEntry {
                    config: Config {
                        freq: FreqIndex(4),
                        bw: BwIndex(0),
                        gpu: None,
                    },
                    speedup: 1.837,
                    power_w: 2.21922,
                    measured: true,
                },
            ],
        }
    }

    #[test]
    fn vectors_in_row_order() {
        let t = sample();
        assert_eq!(t.speedups(), vec![1.0, 1.0077, 1.837]);
        assert_eq!(t.powers(), vec![1.62357, 1.74209, 2.21922]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn min_max_speedup() {
        let t = sample();
        assert_eq!(t.min_speedup(), 1.0);
        assert_eq!(t.max_speedup(), 1.837);
    }

    #[test]
    fn tsv_round_trip() {
        let t = sample();
        let tsv = t.to_tsv();
        let back = ProfileTable::from_tsv(&tsv).unwrap();
        assert_eq!(t, back);
        // FromStr too.
        let back2: ProfileTable = tsv.parse().unwrap();
        assert_eq!(t, back2);
    }

    #[test]
    fn json_round_trip() {
        let mut t = sample();
        t.entries[1].config.gpu = Some(GpuFreqIndex(3));
        let json = t.to_json();
        let back = ProfileTable::from_json(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(matches!(
            ProfileTable::from_json("not json"),
            Err(TableParseError::BadJson(_))
        ));
        assert!(matches!(
            ProfileTable::from_json(r#"{"app": "x"}"#),
            Err(TableParseError::BadJson(_))
        ));
        assert!(matches!(
            ProfileTable::from_json(r#"{"app": "x", "base_gips": 1.0, "entries": [{"freq": -1}]}"#),
            Err(TableParseError::BadJson(_))
        ));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            ProfileTable::from_tsv("# app\tx\n# base_gips\tnope\n"),
            Err(TableParseError::BadLine { .. })
        ));
        assert!(matches!(
            ProfileTable::from_tsv(""),
            Err(TableParseError::MissingHeader("app"))
        ));
        assert!(matches!(
            ProfileTable::from_tsv("# app\tx\n1\t2\t3\n"),
            Err(TableParseError::BadLine { .. })
        ));
    }

    /// Indices parse as unsigned integers and numbers as finite floats:
    /// a negative or fractional index, or a `NaN` or infinite value, is
    /// a malformed line rather than a truncated or absurd row.
    #[test]
    fn parse_rejects_non_integral_indices_and_non_finite_numbers() {
        let header = "# app\tx\n# base_gips\t0.5\n";
        for row in [
            "-3\t0\t-1\t1.0\t1.5\t1",
            "1.5\t0\t-1\t1.0\t1.5\t1",
            "0\t2.0\t-1\t1.0\t1.5\t1",
            "0\t0\t-2\t1.0\t1.5\t1",
            "0\t0\t0.5\t1.0\t1.5\t1",
            "0\t0\t-1\tNaN\t1.5\t1",
            "0\t0\t-1\t1.0\tinf\t1",
            "0\t0\t1.0\tNaN\t1",
        ] {
            assert!(
                matches!(
                    ProfileTable::from_tsv(&format!("{header}{row}\n")),
                    Err(TableParseError::BadLine { line: 2, .. })
                ),
                "{row:?} must be refused"
            );
        }
        assert!(matches!(
            ProfileTable::from_tsv("# app\tx\n# base_gips\tNaN\n"),
            Err(TableParseError::BadLine { line: 1, .. })
        ));
        // The accepted forms: `-1` for no GPU index, and the five-column
        // rows written before the GPU axis existed.
        let t = ProfileTable::from_tsv(&format!(
            "{header}3\t4\t-1\t1.25\t1.5\t1\n5\t6\t2\t1.5\t2.0\t0\n7\t8\t1.75\t2.5\t1\n"
        ))
        .unwrap();
        let configs: Vec<Config> = t.entries.iter().map(|e| e.config).collect();
        assert_eq!(
            configs,
            vec![
                Config::new(FreqIndex(3), BwIndex(4)),
                Config {
                    gpu: Some(GpuFreqIndex(2)),
                    ..Config::new(FreqIndex(5), BwIndex(6))
                },
                Config::new(FreqIndex(7), BwIndex(8)),
            ]
        );
    }

    #[test]
    fn validate_flags_real_problems() {
        let ladder = DvfsTable::nexus6();
        let mut t = sample();
        assert!(t.validate(&ladder).is_empty(), "sample table is healthy");

        t.entries[1].speedup = f64::NAN;
        t.entries.push(t.entries[0]);
        t.base_gips = 1e9;
        let issues = t.validate(&ladder);
        assert!(issues.iter().any(|i| i.contains("bad speedup")));
        assert!(issues.iter().any(|i| i.contains("duplicate")));
        assert!(issues.iter().any(|i| i.contains("base speed")));

        let empty = ProfileTable {
            app: "x".into(),
            base_gips: 1.0,
            entries: vec![],
        };
        assert_eq!(
            empty.validate(&ladder),
            vec!["table has no entries".to_string()]
        );
    }

    /// A table with a bad value or an index off a ladder cannot drive a
    /// controller; the suspect-but-usable signs are not defects.
    #[test]
    fn defects_are_what_a_controller_cannot_run() {
        let ladder = DvfsTable::nexus6();
        let mut t = sample();
        for e in &mut t.entries {
            e.speedup += 2.0;
        }
        t.entries.push(t.entries[0]);
        assert!(t.defects(&ladder).is_empty(), "suspect, not defective");

        let t = sample();
        let with = |edit: fn(&mut ProfileTable)| {
            let mut t = t.clone();
            edit(&mut t);
            t.defects(&ladder)
        };
        let off = |issues: Vec<String>| issues.iter().any(|i| i.contains("off the device"));
        assert!(off(with(|t| t.entries[0].config.freq = FreqIndex(18))));
        assert!(off(with(|t| t.entries[0].config.bw = BwIndex(13))));
        assert!(off(with(
            |t| t.entries[0].config.gpu = Some(GpuFreqIndex(5))
        )));
        assert!(with(|t| t.entries[0].config.freq = FreqIndex(17)).is_empty());
        assert!(with(|t| t.entries[0].config.gpu = Some(GpuFreqIndex(4))).is_empty());
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let t = ProfileTable {
                base_gips: bad,
                ..sample()
            };
            assert!(t.defects(&ladder).iter().any(|i| i.contains("base speed")));
            let mut t = sample();
            t.entries[2].speedup = bad;
            t.entries[1].power_w = bad;
            let issues = t.defects(&ladder);
            assert!(issues.iter().any(|i| i.contains("bad speedup")), "{bad}");
            assert!(issues.iter().any(|i| i.contains("bad power")), "{bad}");
        }
        let empty = ProfileTable {
            entries: vec![],
            ..sample()
        };
        assert_eq!(
            empty.defects(&ladder),
            vec!["table has no entries".to_string()]
        );
    }

    #[test]
    fn validate_flags_missing_base_anchor() {
        let mut t = sample();
        for e in &mut t.entries {
            e.speedup += 2.0;
        }
        let issues = t.validate(&DvfsTable::nexus6());
        assert!(issues.iter().any(|i| i.contains("mis-measured")));
    }

    #[test]
    fn render_mentions_app_and_rows() {
        let t = sample();
        let s = t.render(&DvfsTable::nexus6());
        assert!(s.contains("AngryBirds"));
        assert!(s.contains("0.3000"));
        assert!(s.contains("1623.57"));
    }
}
