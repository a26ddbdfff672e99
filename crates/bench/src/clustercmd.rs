//! `repro cluster <app>` — multi-tier cluster simulation through the
//! `rbv-cluster` harness: frontend/app/DB machines stepped under one
//! deterministic cross-machine event loop, a seeded latency/bandwidth
//! network, and per-tier latency/CPI attribution whose stages exactly
//! partition each request's client-visible latency.

use std::io::{self, Write};
use std::path::Path;

use rbv_cluster::{run_cluster, ClusterReport, ClusterSpec};
use rbv_os::RbvError;

/// Runs the cluster campaign and prints the report — the human table by
/// default, the machine-readable `rbv-cluster/v1` ledger JSON with
/// `json` (the table then goes to stderr so pipelines stay parseable).
/// `out` writes the ledger atomically; `spans_out` (requires a spec
/// with `trace_spans` set) writes the retained per-request spans as a
/// Perfetto trace with one track-group per machine and cross-tier flow
/// arrows.
///
/// Returns the report together with its invariant verdict: a run whose
/// cross-tier partition checks recorded any violation exits nonzero —
/// the attribution is only worth shipping when it is exact.
///
/// # Errors
///
/// Returns [`RbvError`] from validation, the run, or report output.
pub fn run(
    spec: &ClusterSpec,
    out: Option<&Path>,
    json: bool,
    spans_out: Option<&Path>,
) -> Result<(ClusterReport, bool), RbvError> {
    let pool = rbv_par::Pool::global();
    let report = run_cluster(spec, &pool)?;
    let text = report.to_json().to_string_compact();
    if json {
        let mut err = io::stderr().lock();
        err.write_all(report.render().as_bytes())?;
        println!("{text}");
    } else {
        let mut outw = io::stdout().lock();
        outw.write_all(report.render().as_bytes())?;
    }
    if let Some(path) = out {
        rbv_guard::write_atomic(path, format!("{text}\n").as_bytes())?;
        eprintln!("[cluster ledger written to {}]", path.display());
    }
    if let Some(path) = spans_out {
        let trace = rbv_trace::cluster_to_perfetto(&report.spans, &report.machine_labels());
        rbv_guard::write_atomic(path, trace.to_json_string().as_bytes())?;
        eprintln!(
            "[{} request spans written to {}]",
            report.spans.len(),
            path.display()
        );
    }
    let clean = report.clean();
    if !clean {
        eprintln!(
            "cluster invariants violated: {}",
            report
                .summary
                .invariants
                .first_violation()
                .unwrap_or("unknown")
        );
    }
    Ok((report, clean))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbv_telemetry::Json;
    use rbv_workloads::AppId;

    fn num(doc: &Json, path: &[&str]) -> f64 {
        path.iter()
            .try_fold(doc, |j, key| j.get(key))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("ledger lacks numeric {path:?}"))
    }

    /// The CI cluster smoke spec (`repro cluster rubis --requests 600
    /// --overload 1.0 --seed 42`): the written ledger's cross-tier
    /// attribution is exact and covers the three tiers.
    #[test]
    fn cluster_cmd_ledger_partitions_every_request_across_three_tiers() {
        let dir = std::env::temp_dir().join("rbv-clustercmd-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cluster.json");
        let mut spec = ClusterSpec::three_tier(AppId::Rubis);
        spec.requests = 600;
        spec.overload = 1.0;
        spec.seed = 42;
        let (_, clean) = run(&spec, Some(&path), false, None).expect("cluster cmd");
        assert!(clean);
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(text.trim()).expect("ledger parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("rbv-cluster/v1")
        );
        assert_eq!(num(&doc, &["trace", "invariants", "violations"]), 0.0);
        assert!(num(&doc, &["trace", "invariants", "checks"]) > 0.0);
        assert_eq!(
            num(&doc, &["trace", "completed"]) + num(&doc, &["trace", "failed"]),
            num(&doc, &["requests"])
        );
        assert_eq!(num(&doc, &["trace", "unfinished"]), 0.0);
        let tiers: std::collections::BTreeSet<&str> = doc
            .get("trace")
            .and_then(|t| t.get("tiers"))
            .and_then(Json::as_array)
            .expect("trace.tiers")
            .iter()
            .map(|t| t.get("tier").and_then(Json::as_str).expect("tier label"))
            .collect();
        assert_eq!(tiers, ["app", "db", "frontend"].into_iter().collect());
        std::fs::remove_file(&path).ok();
    }
}
