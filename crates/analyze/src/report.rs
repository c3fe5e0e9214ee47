//! Machine-readable findings report (`ANALYZE_report.json`).
//!
//! Schema-tagged like the other workspace artifacts (`BENCH_*.json`,
//! `CHAOS_faultmatrix.json`) and serialized with the vendored
//! [`asgov_util::Json`] writer, so object keys are sorted and the
//! bytes are stable for identical inputs.

use crate::interleave::InterleaveReport;
use crate::rules::{Finding, RULE_IDS};
use asgov_util::Json;

/// Schema tag for the analyzer report artifact. v2 added the per-rule
/// finding counts (`rules`); v3 drops the `codec-symmetry` rule and
/// its `codec_pairs` inventory, which the derived snapshot codecs made
/// empty.
pub const SCHEMA: &str = "asgov-analyze/v3";

/// Everything one analyzer run produced.
#[derive(Debug)]
pub struct Report {
    /// Lint findings that survived the allow list.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Interleaving-checker outcome, when that engine ran.
    pub interleave: Option<InterleaveReport>,
}

impl Report {
    /// True when the analyzer found nothing and the interleaving gate
    /// (if run) verified.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.interleave.as_ref().is_none_or(InterleaveReport::ok)
    }

    /// Serialize to the `ANALYZE_report.json` document.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object();
        doc.set("schema", SCHEMA);
        doc.set("files_scanned", self.files_scanned);
        doc.set("clean", self.clean());
        let findings: Vec<Json> = self
            .findings
            .iter()
            .map(|f| {
                let mut o = Json::object();
                o.set("rule", f.rule);
                o.set("file", f.file.as_str());
                o.set("line", f.line as usize);
                o.set("message", f.message.as_str());
                o
            })
            .collect();
        doc.set("findings", Json::Arr(findings));
        // Per-rule finding counts: every known rule appears, zero or not,
        // so baseline diffs see rule additions explicitly.
        let mut rules = Json::object();
        for rule in RULE_IDS {
            let n = self.findings.iter().filter(|f| f.rule == rule).count();
            rules.set(rule, n);
        }
        doc.set("rules", rules);
        if let Some(il) = &self.interleave {
            let mut o = Json::object();
            o.set("teeth_ok", il.teeth_ok);
            o.set("pool_teeth_ok", il.pool_teeth_ok);
            o.set("real_harness_ok", il.real_harness_ok);
            o.set("real_pool_ok", il.real_pool_ok);
            o.set("ok", il.ok());
            let configs: Vec<Json> = il
                .ordered
                .iter()
                .map(|(cfg, out)| {
                    let mut c = Json::object();
                    c.set("jobs", cfg.jobs);
                    c.set("threads", cfg.threads);
                    match cfg.preemption_bound {
                        Some(b) => c.set("preemption_bound", b),
                        None => c.set("preemption_bound", Json::Null),
                    }
                    c.set("schedules", out.schedules as usize);
                    match &out.violation {
                        Some(v) => c.set("violation", v.as_str()),
                        None => c.set("violation", Json::Null),
                    }
                    c
                })
                .collect();
            o.set("configs", Json::Arr(configs));
            let pool_configs: Vec<Json> = il
                .pool
                .iter()
                .map(|(cfg, out)| {
                    let mut c = Json::object();
                    c.set("workers", cfg.workers);
                    c.set("batches", cfg.batches);
                    match cfg.preemption_bound {
                        Some(b) => c.set("preemption_bound", b),
                        None => c.set("preemption_bound", Json::Null),
                    }
                    c.set("schedules", out.schedules as usize);
                    match &out.violation {
                        Some(v) => c.set("violation", v.as_str()),
                        None => c.set("violation", Json::Null),
                    }
                    c
                })
                .collect();
            o.set("pool_configs", Json::Arr(pool_configs));
            doc.set("interleave", o);
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_with_schema_and_clean_flag() {
        let report = Report {
            findings: vec![Finding {
                rule: "float-eq",
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                message: "exact float comparison".into(),
            }],
            files_scanned: 42,
            interleave: None,
        };
        let j = report.to_json();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(j.get("clean").and_then(Json::as_bool), Some(false));
        let f = j.get("findings").and_then(|f| f.at(0)).expect("finding");
        assert_eq!(f.get("line").and_then(Json::as_f64), Some(7.0));
        // Per-rule counts cover every known rule.
        let rules = j.get("rules").expect("rules section");
        assert_eq!(rules.get("float-eq").and_then(Json::as_f64), Some(1.0));
        assert_eq!(rules.get("unit-mismatch").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            rules.get("hot-path-transitive").and_then(Json::as_f64),
            Some(0.0)
        );
        // Parse back — the artifact must be valid JSON.
        let back = Json::parse(&j.to_pretty()).expect("round trip");
        assert_eq!(back.get("files_scanned").and_then(Json::as_f64), Some(42.0));
    }

    #[test]
    fn clean_requires_interleave_gate_to_pass() {
        let il = crate::interleave::run_all(true);
        let report = Report {
            findings: vec![],
            files_scanned: 1,
            interleave: Some(il),
        };
        assert!(report.clean());
        let j = report.to_json();
        let gate = j.get("interleave").expect("interleave section");
        assert_eq!(gate.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            gate.get("pool_teeth_ok").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(gate.get("real_pool_ok").and_then(Json::as_bool), Some(true));
        assert!(gate.get("configs").and_then(|c| c.at(0)).is_some());
        assert!(gate.get("pool_configs").and_then(|c| c.at(0)).is_some());
    }
}
