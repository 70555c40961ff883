//! The benchmark's metric catalogue and its one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; `tests` in this module check that the two never drift apart.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name printed in the result line.
    pub name: &'static str,
    /// Unit printed beside it.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics: bound on the relative worsening of the median.
    /// Per-layer metrics: the end-to-end metric the row should move.
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        note,
    }
}

/// End-to-end metrics (untraced runs), with their bounds in `note`.
pub const END_TO_END: [Metric; 8] = [
    m("setup_s", "s", "lower", "0.25"),
    m("total_s", "s", "lower", "0.25"),
    m("pipeline_s", "s", "lower", "0.25"),
    m("analysis_s", "s", "lower", "0.25"),
    m("peak_rss_mb", "MB", "lower", "0.2"),
    m("serve_qps", "1/s", "higher", "0.25"),
    m("query_p50_us", "us", "lower", "0.25"),
    m("query_p90_us", "us", "lower", "0.25"),
];

/// Per-layer metrics (traced runs), each with the end-to-end metric it
/// should move in `note`. Layers are named after the workspace crates.
pub const PER_LAYER: [Metric; 57] = [
    m("topogen.generate_ms", "ms", "lower", "pipeline_s"),
    m("bgpsim.simulate_ms", "ms", "lower", "pipeline_s"),
    m("bgpsim.simulate_allocs", "count", "lower", "peak_rss_mb"),
    m("bgpsim.route_observations", "count", "higher", "pipeline_s"),
    m("asgraph.to_pathset_ms", "ms", "lower", "pipeline_s"),
    m("asgraph.sanitize_ms", "ms", "lower", "pipeline_s"),
    m("asgraph.path_stats_ms", "ms", "lower", "pipeline_s"),
    m("asgraph.path_stats_allocs", "count", "lower", "pipeline_s"),
    m("asinfer.infer_all_ms", "ms", "lower", "pipeline_s"),
    m("asinfer.asrank_ms", "ms", "lower", "pipeline_s"),
    m("asinfer.problink_ms", "ms", "lower", "pipeline_s"),
    m("asinfer.toposcope_ms", "ms", "lower", "pipeline_s"),
    m("asinfer.gao_ms", "ms", "lower", "pipeline_s"),
    m("asinfer.toposcope_allocs", "count", "lower", "pipeline_s"),
    m("asinfer.unari_ms", "ms", "lower", "analysis_s"),
    m("asinfer.unari_allocs", "count", "lower", "analysis_s"),
    m("valdata.compile_ms", "ms", "lower", "pipeline_s"),
    m("valdata.compile_allocs", "count", "lower", "pipeline_s"),
    m("valdata.ablation_compile_ms", "ms", "lower", "analysis_s"),
    m("core.clean_ms", "ms", "lower", "pipeline_s"),
    m("core.link_classifier_ms", "ms", "lower", "pipeline_s"),
    m("core.coverage_ms", "ms", "lower", "analysis_s"),
    m("core.heatmap_ms", "ms", "lower", "analysis_s"),
    m("core.ppdc_cones_ms", "ms", "lower", "analysis_s"),
    m("core.eval_table_ms", "ms", "lower", "analysis_s"),
    m("core.sampling_ms", "ms", "lower", "analysis_s"),
    m("core.casestudy_ms", "ms", "lower", "analysis_s"),
    m("core.hardlinks_ms", "ms", "lower", "analysis_s"),
    m("core.linkfeatures_ms", "ms", "lower", "analysis_s"),
    m("core.linkfeatures_allocs", "count", "lower", "analysis_s"),
    m("core.report_ms", "ms", "lower", "analysis_s"),
    m("core.snapshot_save_ms", "ms", "lower", "total_s"),
    m("core.snapshot_bytes", "bytes", "lower", "total_s"),
    m(
        "brevald.answer_line_ns.cone.p50",
        "ns",
        "lower",
        "query_p50_us",
    ),
    m(
        "brevald.answer_line_ns.cone.p99",
        "ns",
        "lower",
        "query_p90_us",
    ),
    m(
        "brevald.answer_line_ns.member.p50",
        "ns",
        "lower",
        "query_p50_us",
    ),
    m(
        "brevald.answer_line_ns.member.p99",
        "ns",
        "lower",
        "query_p90_us",
    ),
    m(
        "brevald.answer_line_ns.class.p50",
        "ns",
        "lower",
        "query_p50_us",
    ),
    m(
        "brevald.answer_line_ns.class.p99",
        "ns",
        "lower",
        "query_p90_us",
    ),
    m(
        "brevald.answer_line_ns.ascov.p50",
        "ns",
        "lower",
        "query_p50_us",
    ),
    m(
        "brevald.answer_line_ns.ascov.p99",
        "ns",
        "lower",
        "query_p90_us",
    ),
    m(
        "brevald.answer_line_ns.slice.p50",
        "ns",
        "lower",
        "query_p50_us",
    ),
    m(
        "brevald.answer_line_ns.slice.p99",
        "ns",
        "lower",
        "query_p90_us",
    ),
    m(
        "brevald.answer_line_ns.stats.p50",
        "ns",
        "lower",
        "query_p50_us",
    ),
    m(
        "brevald.answer_line_ns.stats.p99",
        "ns",
        "lower",
        "query_p90_us",
    ),
    m("brevald.answer_batch_us.p50", "us", "lower", "total_s"),
    m("brevald.answer_batch_us.p99", "us", "lower", "total_s"),
    m("brevald.set_load_ms", "ms", "lower", "total_s"),
    m("brevald.publish_us", "us", "lower", "total_s"),
    m("brevald.reload_ms.p50", "ms", "lower", "total_s"),
    m("brevald.reloads_landed", "count", "higher", "total_s"),
    m("brevald.replies_err", "count", "lower", "serve_qps"),
    m("par.busy_share", "share", "higher", "pipeline_s"),
    m("par.items", "count", "lower", "pipeline_s"),
    m("par.steals", "count", "lower", "total_s"),
    m("par.worker_parks", "count", "lower", "total_s"),
    m("obs.overhead_pct", "%", "lower", "total_s"),
];

/// Collected metric values for one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Records `value` under the declared `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The recorded value of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Names in `catalogue` that are missing or not finite, then recorded
    /// names the catalogue does not declare.
    #[must_use]
    pub fn problems(&self, catalogue: &[Metric]) -> Vec<String> {
        let mut out: Vec<String> = catalogue
            .iter()
            .filter(|m| !self.get(m.name).is_some_and(f64::is_finite))
            .map(|m| format!("missing or non-finite: {}", m.name))
            .collect();
        out.extend(
            self.0
                .keys()
                .filter(|k| !catalogue.iter().any(|m| m.name == k.as_str()))
                .map(|k| format!("undeclared: {k}")),
        );
        out
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with every metric of `catalogue` in declaration order.
#[must_use]
pub fn result_line(catalogue: &[Metric], values: &Values, attempted: u64, failed: u64) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, metric) in catalogue.iter().enumerate() {
        let value = values.get(metric.name).unwrap_or(f64::NAN);
        let _ = write!(
            line,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            metric.name,
            if value.is_finite() { value } else { 0.0 },
            metric.unit
        );
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json`, read without a JSON parser: the workspace's
    /// vendored `serde_json` only serialises.
    fn declared(section: &str) -> Vec<(String, String, String, Option<String>)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("section {section}"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array end")];
        let field = |obj: &str, key: &str| -> Option<String> {
            let at = obj.find(&format!("\"{key}\""))?;
            let rest = obj[at + key.len() + 2..].trim_start().strip_prefix(':')?;
            let rest = rest.trim_start();
            Some(match rest.strip_prefix('"') {
                Some(s) => s[..s.find('"')?].to_owned(),
                None => rest[..rest.find([',', '}'])?].trim().to_owned(),
            })
        };
        body.split('{')
            .skip(1)
            .map(|obj| {
                (
                    field(obj, "name").expect("name"),
                    field(obj, "unit").expect("unit"),
                    field(obj, "better").expect("better"),
                    field(obj, "bound"),
                )
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn end_to_end_matches_benchmark_json() {
        let declared = declared("end_to_end");
        assert_eq!(declared.len(), END_TO_END.len());
        for (metric, (name, unit, better, bound)) in END_TO_END.iter().zip(&declared) {
            assert_eq!(metric.name, name);
            assert_eq!(metric.unit, unit);
            assert_eq!(metric.better, better);
            assert_eq!(Some(metric.note), bound.as_deref());
        }
    }

    #[test]
    fn per_layer_matches_benchmark_json() {
        let declared = declared("per_layer");
        assert_eq!(declared.len(), PER_LAYER.len());
        for (metric, (name, unit, better, _)) in PER_LAYER.iter().zip(&declared) {
            assert_eq!(metric.name, name);
            assert_eq!(metric.unit, unit);
            assert_eq!(metric.better, better);
        }
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
    }

    #[test]
    fn every_layer_row_moves_a_declared_end_to_end_metric() {
        for layer in &PER_LAYER {
            assert!(
                END_TO_END.iter().any(|m| m.name == layer.note),
                "{} maps to undeclared {:?}",
                layer.name,
                layer.note
            );
            let module = layer.name.split('.').next().unwrap_or_default();
            assert!(
                [
                    "topogen", "bgpsim", "asgraph", "asinfer", "valdata", "core", "brevald", "par",
                    "obs"
                ]
                .contains(&module),
                "{} is not named after a module",
                layer.name
            );
        }
    }

    #[test]
    fn result_line_prints_exactly_the_catalogue() {
        let mut values = Values::default();
        for (i, metric) in END_TO_END.iter().enumerate() {
            values.set(metric.name, 1.5 + i as f64);
        }
        assert!(values.problems(&END_TO_END).is_empty());
        let line = result_line(&END_TO_END, &values, 7, 0);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        for metric in &END_TO_END {
            let key = format!("\"{}\": {{\"value\": ", metric.name);
            assert_eq!(line.matches(&key).count(), 1, "{}", metric.name);
        }
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());

        values.set("not_declared", 1.0);
        values.set("total_s", f64::NAN);
        assert_eq!(values.problems(&END_TO_END).len(), 2);
    }
}
