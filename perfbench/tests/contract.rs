//! The benchmark's own contract: percentile selection, the metric-name
//! grammar, and agreement between `BENCHMARK.json`, `layers.json`, and
//! what a run actually prints.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::metrics::{valid_name, valid_unit, END_TO_END, PER_LAYER};
use perfbench::stats::{beyond, median, percentile};
use perfbench::WORKLOADS;
use sslic_core::obs::json::{self, Json};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("readable");
    json::parse(&text).expect("valid JSON")
}

fn strings(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|v| v.as_str().expect("a string").to_string())
        .collect()
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(bench: &Json, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn tail_percentile_selection_uses_nearest_rank() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&hundred, 50.0), Some(50.0));
    assert_eq!(percentile(&hundred, 90.0), Some(90.0));
    assert_eq!(percentile(&hundred, 100.0), Some(100.0));
    assert_eq!(
        beyond(&hundred, 90.0),
        10,
        "p90 of 100 frames leaves ten beyond"
    );

    // Input order does not matter, and small counts round the rank up.
    let shuffled = [7.0, 1.0, 9.0, 3.0, 5.0, 2.0, 10.0, 4.0, 8.0, 6.0];
    assert_eq!(percentile(&shuffled, 90.0), Some(9.0));
    assert_eq!(percentile(&shuffled, 91.0), Some(10.0));
    assert_eq!(beyond(&shuffled, 90.0), 1);
    assert_eq!(percentile(&[4.0], 90.0), Some(4.0));

    assert_eq!(percentile(&[], 90.0), None);
    assert_eq!(percentile(&hundred, 0.0), None);
    assert_eq!(percentile(&hundred, 100.5), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn metric_names_follow_the_grammar() {
    for ok in ["frames_per_s", "core.assign_ms", "9lives", "a-b.c_d"] {
        assert!(valid_name(ok), "{ok}");
    }
    for bad in [
        "",
        "_lead",
        ".lead",
        "has space",
        "slash/no",
        &"x".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad:?}");
    }
    for ok in ["ms", "1/s", "%", "MiB", "sim_ms", "count"] {
        assert!(valid_unit(ok), "{ok}");
    }
    for bad in ["", "m s", &"u".repeat(17)] {
        assert!(!valid_unit(bad), "{bad:?}");
    }

    let mut seen = std::collections::BTreeSet::new();
    for spec in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(spec.name), "{}", spec.name);
        assert!(valid_unit(spec.unit), "{}", spec.unit);
        assert!(seen.insert(spec.name), "{} is used twice", spec.name);
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let bench = load(&repo_root().join("BENCHMARK.json"));
    let table = |specs: &[perfbench::metrics::Spec]| -> Vec<(String, String)> {
        specs
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string()))
            .collect()
    };
    assert_eq!(declared(&bench, "end_to_end"), table(END_TO_END));
    assert_eq!(declared(&bench, "per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert!(declared(&bench, "end_to_end")
        .iter()
        .any(|(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn layers_json_names_a_target_for_every_layer_metric() {
    let layers = load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("layers.json"));
    let entries = layers.get("layers").and_then(Json::as_arr).expect("layers");
    let names: Vec<&str> = entries
        .iter()
        .map(|e| e.get("metric").and_then(Json::as_str).expect("metric"))
        .collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|s| s.name).collect();
    assert_eq!(names, expected);
    for entry in entries {
        for target in strings(entry, "moves") {
            let known = END_TO_END.iter().any(|s| s.name == target) || target == "error_rate";
            assert!(known, "unknown end-to-end metric {target}");
        }
        for workload in strings(entry, "on")
            .iter()
            .chain(&strings(entry, "unchanged_on"))
        {
            assert!(
                WORKLOADS.contains(&workload.as_str()),
                "unknown workload {workload}"
            );
        }
        let on = strings(entry, "on");
        assert!(
            strings(entry, "unchanged_on")
                .iter()
                .all(|w| !on.contains(w)),
            "a workload is both moved and unchanged"
        );
    }
}

/// Runs the benchmark binary from the repository root, checks that it
/// succeeded with a well-formed result line, and returns that line's
/// metrics in order.
fn run(workload: &str, seed: u64, trace: u8) -> Vec<(String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8");
    assert!(
        out.status.success(),
        "{workload} exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    let keys: Vec<&str> = match &last {
        Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("the result line is not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
    assert!(last.get("attempted").and_then(Json::as_u64) >= Some(1));
    match last.get("metrics") {
        Some(Json::Obj(metrics)) => metrics
            .iter()
            .map(|(name, m)| {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                (name.clone(), value)
            })
            .collect(),
        _ => panic!("no metrics object"),
    }
}

#[test]
fn every_benchmark_name_is_printed_by_a_run() {
    let bench = load(&repo_root().join("BENCHMARK.json"));
    let names = |list: &str| -> Vec<String> {
        declared(&bench, list).into_iter().map(|(n, _)| n).collect()
    };
    for workload in WORKLOADS {
        let printed: Vec<String> = run(workload, 3, 0).into_iter().map(|(n, _)| n).collect();
        assert_eq!(printed, names("end_to_end"), "{workload} untraced");

        // The traced run prints every layer metric, and its modeled
        // accelerator times and distance count repeat exactly on another
        // seed of the same configuration.
        let a = run(workload, 3, 1);
        let b = run(workload, 4, 1);
        let printed: Vec<String> = a.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(printed, names("per_layer"), "{workload} traced");
        for ((name, va), (_, vb)) in a.iter().zip(&b) {
            if name.starts_with("hw.") && name.ends_with("_modeled")
                || name == "core.distance_calcs"
            {
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "{workload} {name} differs across seeds"
                );
                assert!(*va > 0.0, "{workload} {name} is zero");
            }
        }
    }
}

#[test]
fn an_unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
