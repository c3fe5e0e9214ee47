//! Plain-text rendering helpers for experiment output.

use crate::harness::Comparison;

/// Render a histogram (fractions summing to 1) as an ASCII bar chart
/// with one row per bin, labelled 1-based like the paper.
pub fn histogram(title: &str, fractions: &[f64], label: &str) -> String {
    let mut out = format!("{title}\n");
    for (i, &f) in fractions.iter().enumerate() {
        let bar = "#".repeat((f * 60.0).round() as usize);
        out.push_str(&format!("{label}{:<3} {:>6.2}% |{bar}\n", i + 1, f * 100.0));
    }
    out
}

/// Render two histograms side by side (controller vs default), the
/// shape of the paper's Figs. 4 and 5.
pub fn paired_histogram(title: &str, controller: &[f64], default: &[f64], label: &str) -> String {
    let mut out = format!(
        "{title}\n{:<6} {:>10} {:>10}\n",
        "", "controller", "default"
    );
    for i in 0..controller.len().max(default.len()) {
        let c = controller.get(i).copied().unwrap_or(0.0);
        let d = default.get(i).copied().unwrap_or(0.0);
        out.push_str(&format!(
            "{label}{:<4} {:>9.2}% {:>9.2}%  {}\n",
            i + 1,
            c * 100.0,
            d * 100.0,
            bar_pair(c, d)
        ));
    }
    out
}

fn bar_pair(c: f64, d: f64) -> String {
    let cb = "C".repeat((c * 40.0).round() as usize);
    let db = "d".repeat((d * 40.0).round() as usize);
    format!("{cb}|{db}")
}

/// Format a signed percentage like the paper's tables.
pub fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

/// Format a percentage cell, flagging a value that measured nothing as
/// `n/a` rather than printing a misleading `+0.0%`.
fn pct_flagged(v: f64, flagged: bool) -> String {
    if flagged {
        "n/a".to_string()
    } else {
        pct(v)
    }
}

/// A comparison's performance cell: `n/a` when its baseline is
/// degenerate ([`Comparison::baseline_degenerate`]) or a deadline leg
/// was cut short ([`Comparison::truncated`]).
pub fn perf_cell(c: &Comparison) -> String {
    pct_flagged(
        c.performance_delta_pct(),
        c.baseline_degenerate() || c.truncated(),
    )
}

/// A comparison's energy cell: `n/a` when its baseline is degenerate.
pub fn energy_cell(c: &Comparison) -> String {
    pct_flagged(c.energy_savings_pct(), c.baseline_degenerate())
}

/// Render rows as CSV with a header. Fields are escaped minimally
/// (quotes around fields containing commas or quotes).
pub fn csv(header: &[&str], rows: &[Vec<String>]) -> String {
    fn field(s: &str) -> String {
        if s.contains(',') || s.contains('"') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    let mut out = header
        .iter()
        .map(|h| field(h))
        .collect::<Vec<_>>()
        .join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_renders_all_bins() {
        let h = histogram("t", &[0.5, 0.25, 0.25], "f");
        assert!(h.contains("f1"));
        assert!(h.contains("f3"));
        assert!(h.contains("50.00%"));
    }

    #[test]
    fn paired_histogram_handles_uneven_lengths() {
        let s = paired_histogram("t", &[1.0], &[0.5, 0.5], "bw");
        assert!(s.contains("bw2"));
    }

    #[test]
    fn pct_signs() {
        assert_eq!(pct(4.2), "+4.2%");
        assert_eq!(pct(-0.4), "-0.4%");
    }

    #[test]
    fn pct_flagged_marks_degenerate_baselines() {
        assert_eq!(pct_flagged(4.2, false), "+4.2%");
        assert_eq!(pct_flagged(0.0, true), "n/a");
    }

    #[test]
    fn csv_escapes() {
        let out = csv(
            &["app", "note"],
            &[vec!["AngryBirds".into(), "hello, \"world\"".into()]],
        );
        assert_eq!(out, "app,note\nAngryBirds,\"hello, \"\"world\"\"\"\n");
    }
}
