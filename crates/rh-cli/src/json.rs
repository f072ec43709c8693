//! Minimal JSON emission for sweep results.
//!
//! The workspace is dependency-free by design (the container has no crates
//! registry), so rather than pulling in serde we hand-render the small,
//! fixed-shape result document. All strings we emit are crate-controlled
//! identifiers, but they are escaped anyway for robustness.
//!
//! [`render`] is the single definition of the sweep document: the
//! distributed coordinator ([`crate::serve`]) finalizes its slot-merged
//! results through the same function, which is what makes "distributed
//! output is byte-identical to in-process `sweep`" a structural property
//! rather than a re-implementation kept in sync. The config field names
//! rendered here are also the submit-side schema accepted by
//! [`crate::proto::config_from_value`].

use crate::engine::RunResult;
use crate::proto::jstr;
use crate::sweep::SweepOutput;
use std::fmt::Write;

/// Render a finite float in shortest round-trip form; JSON has no NaN/Inf
/// so those become null. The workspace's one float writer.
pub(crate) fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Render one result row. `extended` adds the Section 5 victim-model
/// fields (data pattern, 1→0/0→1 split, post-ECC count); it is off for
/// legacy-axes sweeps so their documents stay byte-identical to the
/// pre-Section-5 reporter.
fn run_result(r: &RunResult, indent: &str, extended: bool) -> String {
    let mut row = format!(
        "{indent}{{\"workload\": {}, \"mitigation\": {}, \"hc_first\": {}, \
         \"activations\": {}, \"total_flips\": {}, \"flipped_rows\": {}, \
         \"flips_per_mact\": {}, \"refreshes_issued\": {}",
        jstr(&r.workload),
        jstr(&r.mitigation),
        r.hc_first,
        r.activations,
        r.total_flips,
        r.flipped_rows,
        num(r.flips_per_mact),
        r.refreshes_issued,
    );
    if extended {
        let _ = write!(
            row,
            ", \"data_pattern\": {}, \"flips_1to0\": {}, \"flips_0to1\": {}",
            jstr(&r.data_pattern),
            r.flips_1to0,
            r.flips_0to1,
        );
        if let Some(post) = r.post_ecc_flips {
            // total_flips above is the raw pre-ECC count; this is what
            // survives correction.
            let _ = write!(row, ", \"post_ecc_flips\": {post}");
        }
    }
    row.push('}');
    row
}

fn result_array(results: &[RunResult], extended: bool) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| run_result(r, "    ", extended))
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

/// Render a full [`SweepOutput`] as a pretty-printed JSON document.
///
/// Note the config section deliberately excludes execution options like the
/// thread count: the document must be a pure function of the sweep config so
/// sharded and serial runs diff clean.
pub fn render(out: &SweepOutput) -> String {
    let cfg = &out.config;
    let extended = cfg.extended_victim_model();
    let hc_list: Vec<String> = cfg.hc_firsts.iter().map(|h| h.to_string()).collect();
    let sides_list: Vec<String> = cfg.sides.iter().map(|s| s.to_string()).collect();
    let p_list: Vec<String> = cfg.para_probabilities.iter().map(|p| num(*p)).collect();
    // The Section 5 axes appear in the config section only when they are in
    // play, so default-axes documents keep their pre-Section-5 bytes.
    let victim_model = if extended {
        let patterns: Vec<String> = cfg.data_patterns.iter().map(|p| jstr(p.name())).collect();
        format!(
            ", \"data_patterns\": [{}], \"ecc_codeword_bits\": {}",
            patterns.join(", "),
            cfg.ecc_codeword_bits
        )
    } else {
        String::new()
    };
    format!(
        "{{\n  \"config\": {{\"seed\": {}, \"activations\": {}, \"hc_firsts\": [{}], \
         \"sides\": [{}], \"para_probabilities\": [{}], \"benign_fraction\": {}, \
         \"refresh_interval\": {}{}, \
         \"geometry\": {{\"channels\": {}, \"ranks\": {}, \"banks\": {}, \"rows_per_bank\": {}}}}},\n  \
         \"grid\": {},\n  \"para_sweep\": {},\n  \"para_monotone\": {}\n}}",
        cfg.seed,
        cfg.activations,
        hc_list.join(", "),
        sides_list.join(", "),
        p_list.join(", "),
        num(cfg.benign_fraction),
        cfg.auto_refresh_interval,
        victim_model,
        cfg.geometry.channels,
        cfg.geometry.ranks,
        cfg.geometry.banks,
        cfg.geometry.rows_per_bank,
        result_array(&out.grid, extended),
        result_array(&out.para_sweep, extended),
        out.para_monotone,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(0.0), "0");
        assert_eq!(num(-0.25), "-0.25");
    }

    fn sample_result() -> RunResult {
        RunResult {
            workload: "double_sided".into(),
            mitigation: "para(p=0.001)".into(),
            hc_first: 4000,
            data_pattern: "rowstripe".into(),
            activations: 1000,
            total_flips: 7,
            flipped_rows: 2,
            flips_per_mact: 7000.0,
            refreshes_issued: 3,
            flips_1to0: 5,
            flips_0to1: 2,
            post_ecc_flips: Some(1),
        }
    }

    #[test]
    fn non_finite_metrics_never_emit_invalid_json() {
        let r = RunResult {
            flips_per_mact: f64::NAN,
            ..sample_result()
        };
        let s = run_result(&r, "", false);
        assert!(s.contains("\"flips_per_mact\": null"));
        assert!(!s.contains("NaN") && !s.contains("inf"));
    }

    /// Every string field of a result row goes through the shared quoter,
    /// so quotes, backslashes and control characters come out escaped.
    #[test]
    fn escape_handles_specials() {
        let mut r = sample_result();
        r.workload = "a\"b\\c\nd".into();
        r.mitigation = "\u{1}".into();
        r.data_pattern = "x\ty".into();
        let s = run_result(&r, "", true);
        assert!(s.contains("\"workload\": \"a\\\"b\\\\c\\nd\""), "{s}");
        assert!(s.contains("\"mitigation\": \"\\u0001\""), "{s}");
        assert!(s.contains("\"data_pattern\": \"x\\ty\""), "{s}");
        assert_eq!(crate::proto::parse(&s).map(|_| ()), Ok(()));
    }

    #[test]
    fn run_result_renders_as_object() {
        let s = run_result(&sample_result(), "", false);
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"hc_first\": 4000"));
        assert!(s.contains("\"mitigation\": \"para(p=0.001)\""));
    }

    /// Default-axes documents must not grow fields: the Section 5 columns
    /// appear only in extended mode, and the ECC column only when the run
    /// actually had an ECC layer.
    #[test]
    fn victim_model_fields_are_gated_on_extended_mode() {
        let r = sample_result();
        let legacy = run_result(&r, "", false);
        for field in ["data_pattern", "flips_1to0", "flips_0to1", "post_ecc_flips"] {
            assert!(!legacy.contains(field), "legacy row leaked '{field}'");
        }
        let extended = run_result(&r, "", true);
        assert!(extended.contains("\"data_pattern\": \"rowstripe\""));
        assert!(extended.contains("\"flips_1to0\": 5"));
        assert!(extended.contains("\"flips_0to1\": 2"));
        assert!(extended.contains("\"post_ecc_flips\": 1"));
        let no_ecc = run_result(
            &RunResult {
                post_ecc_flips: None,
                ..r
            },
            "",
            true,
        );
        assert!(no_ecc.contains("\"flips_1to0\""));
        assert!(!no_ecc.contains("post_ecc_flips"));
    }
}
