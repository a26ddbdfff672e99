//! Self-tests of the benchmark: a tiny-size run of every workload emits
//! every metric `BENCHMARK.json` names, with its unit, and fails no
//! check; and a perturbed reference makes the reference check fire.

use std::path::{Path, PathBuf};
use std::process::Command;

use rbv_telemetry::Json;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_of(doc: &Json, key: &str) -> Vec<(String, Option<String>)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("array member")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit").and_then(Json::as_str).map(str::to_string),
            )
        })
        .collect()
}

/// Runs the benchmark binary at tiny size and returns its stdout lines.
fn run(args: &[&str], reference: Option<&Path>) -> Vec<String> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rbv-perfbench"));
    cmd.args(args)
        .args(["--seed", "5", "--seconds", "0.01", "--size", "tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"));
    if let Some(path) = reference {
        cmd.arg("--reference").arg(path);
    }
    let out = cmd.output().expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect()
}

fn result_of(lines: &[String]) -> Json {
    Json::parse(lines.last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn every_workload_emits_every_metric_and_fails_no_check() {
    let bench = benchmark_json();
    let workloads: Vec<String> = names_of(&bench, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    // The table `--workload all` prints is headed by the binary's own
    // workload list, which must be the one BENCHMARK.json names.
    let table = run(&["--workload", "all", "--trace", "0"], None);
    let header: Vec<&str> = table[0].split_whitespace().skip(1).collect();
    assert_eq!(header, workloads);

    for (key, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
        let mut expected = names_of(&bench, key);
        expected.sort();
        for workload in &workloads {
            let result = result_of(&run(&["--workload", workload, "--trace", trace], None));
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64) > Some(0.0));
            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            let mut got: Vec<(String, Option<String>)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).map(str::to_string),
                    )
                })
                .collect();
            got.sort();
            assert_eq!(got, expected, "{workload} --trace {trace}");
        }
    }
}

fn member_mut<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
    match json {
        Json::Obj(members) => members
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no member {key}")),
        _ => panic!("not an object at {key}"),
    }
}

fn perturbed_reference(metric: &str, factor: f64, name: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.json");
    let mut doc = Json::parse(&std::fs::read_to_string(path).expect("reference")).expect("parses");
    let seeds = member_mut(
        member_mut(member_mut(&mut doc, "entries"), "tiny"),
        "serve-web",
    );
    let Json::Obj(seeds) = seeds else {
        panic!("seed map")
    };
    for (_, entry) in seeds {
        let value = member_mut(member_mut(entry, "metrics"), metric);
        if let Json::Num(v) = value {
            *v *= factor;
        }
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&out, doc.to_string_compact()).expect("write perturbed reference");
    out
}

#[test]
fn a_perturbed_reference_makes_the_check_fire() {
    // A changed count fails the exact comparison; a float moved by 5% falls
    // outside its tolerance band; a float moved by 0.1% stays inside.
    for (metric, factor, fires) in [
        ("ledger.offered", 2.0, true),
        ("mean_service_cycles", 1.05, true),
        ("mean_service_cycles", 1.001, false),
    ] {
        let path = perturbed_reference(metric, factor, &format!("ref-{metric}-{factor}.json"));
        let result = result_of(&run(
            &["--workload", "serve-web", "--trace", "0"],
            Some(&path),
        ));
        let failed = result.get("failed").and_then(Json::as_f64).expect("failed");
        assert_eq!(failed > 0.0, fires, "{metric} x{factor}");
        assert_eq!(result.get("correct"), Some(&Json::Bool(!fires)));
    }
}

#[test]
fn write_reference_takes_no_workload_filter() {
    // Regenerating only part of the reference would leave the rest stale,
    // so a workload name next to --write-reference is a usage error.
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ref-filtered.json");
    let _ = std::fs::remove_file(&path);
    let out = Command::new(env!("CARGO_BIN_EXE_rbv-perfbench"))
        .arg("--write-reference")
        .arg(&path)
        .args(["--workload", "all"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(!path.exists());
}
