//! Runs every workload at the tiny size and checks the published
//! metric names, their units, determinism, and dead counters against
//! `BENCHMARK.json` and `records.json`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use ring_server::json::Json;

fn repo_file(rel: &str) -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn arr<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(v)) => v,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn s<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing"))
}

/// `(name, unit)` of every metric in one BENCHMARK.json list.
fn metrics(bench: &Json, list: &str) -> Vec<(String, String)> {
    arr(bench, list)
        .iter()
        .map(|m| (s(m, "name").to_string(), s(m, "unit").to_string()))
        .collect()
}

/// Runs one tiny invocation; returns the result line's metrics as
/// `name -> (value, unit)`.
fn run(workload: &str, trace: u8) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "2007", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{stdout}"
    );
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Obj(m)) = result.get("metrics") else {
        panic!("no metrics object: {last}");
    };
    m.iter()
        .map(|(k, v)| {
            let value = match v.get("value") {
                Some(Json::Num(n)) => *n,
                other => panic!("{k} has no numeric value: {other:?}"),
            };
            (k.clone(), (value, s(v, "unit").to_string()))
        })
        .collect()
}

/// Per-layer metrics that must repeat exactly: counts, byte totals and
/// ratios of counts.
fn deterministic(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "bytes" | "byte-hops")
        || matches!(
            name,
            "sim.events_per_op" | "cache.c2c_share" | "mem.prefetch_useful_ratio"
        )
}

#[test]
fn every_metric_is_printed_with_its_unit_and_counts_repeat() {
    let bench = repo_file("../BENCHMARK.json");
    let records = repo_file("records.json");
    let Some(Json::Obj(gates)) = records.get("must_be_zero") else {
        panic!("records.json has no must_be_zero object");
    };
    let e2e = metrics(&bench, "end_to_end");
    let layers = metrics(&bench, "per_layer");
    let mut nonzero: BTreeMap<String, bool> = BTreeMap::new();
    for w in arr(&bench, "workloads") {
        let w = s(w, "name");
        for (trace, expected) in [(0, &e2e), (1, &layers)] {
            let a = run(w, trace);
            let b = run(w, trace);
            let names: Vec<&String> = a.keys().collect();
            let mut want: Vec<&String> = expected.iter().map(|(n, _)| n).collect();
            want.sort();
            assert_eq!(
                names, want,
                "{w} trace {trace} prints exactly the listed metrics"
            );
            for (name, unit) in expected {
                let (va, ua) = &a[name];
                assert_eq!(ua, unit, "{w}: {name} unit");
                let repeat = if trace == 0 {
                    matches!(
                        name.as_str(),
                        "sim_cycles" | "read_p50_cyc" | "read_p99_cyc"
                    )
                } else {
                    deterministic(name, unit)
                };
                if repeat {
                    assert_eq!(*va, b[name].0, "{w}: {name} repeats exactly");
                }
                if trace == 1 {
                    *nonzero.entry(name.clone()).or_default() |= *va != 0.0;
                }
            }
        }
    }
    let mut bad = Vec::new();
    for (name, unit) in &layers {
        let seen = nonzero[name];
        if gates.contains_key(name) {
            if seen {
                bad.push(format!("{name} must read 0 on a correct run"));
            }
        } else if deterministic(name, unit) && !seen {
            bad.push(format!("published count {name} reads 0 on every workload"));
        }
    }
    assert!(bad.is_empty(), "{bad:#?}");
}

#[test]
fn records_cover_the_published_workloads_and_metrics() {
    let bench = repo_file("../BENCHMARK.json");
    let records = repo_file("records.json");
    let Some(Json::Obj(recs)) = records.get("workloads") else {
        panic!("records.json has no workloads object");
    };
    let mut rec_names: Vec<&str> = recs.keys().map(String::as_str).collect();
    let mut names: Vec<&str> = arr(&bench, "workloads")
        .iter()
        .map(|w| s(w, "name"))
        .collect();
    rec_names.sort();
    names.sort();
    assert_eq!(rec_names, names);
    let layers = metrics(&bench, "per_layer");
    let Some(Json::Obj(gates)) = records.get("must_be_zero") else {
        panic!("records.json has no must_be_zero object");
    };
    let predicted: Vec<String> = arr(&records, "predictions")
        .iter()
        .flat_map(|p| {
            arr(p, "metrics")
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
        })
        .collect();
    for (name, _) in &layers {
        assert!(
            predicted.contains(name) || gates.contains_key(name),
            "neither a prediction nor a must-be-zero gate names {name}"
        );
    }
    for p in predicted.iter().chain(gates.keys()) {
        assert!(
            layers.iter().any(|(n, _)| n == p),
            "records name unknown metric {p}"
        );
    }
}
