//! The contract between the harness and `/BENCHMARK.json`: the names and
//! units one declares are the names and units the other prints, every
//! value is finite, and no op fails — on every workload, traced and not.

use litempi_benchmark::json::Json;
use litempi_benchmark::layers;
use litempi_benchmark::spec::Spec;
use litempi_benchmark::workloads::{all_layer_metrics, MetricDef, Workload, COMMON, END_TO_END};
use std::process::Command;

/// Run the benchmark binary and parse the last line it prints.
fn run(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_litempi-benchmark"))
        .args(args)
        // Must not change the load: the harness clears it and says so.
        .env("LITEMPI_VCIS", "4")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} exited with {:?}:\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().expect("a result line")).expect("result is JSON");
    let provenance = Json::parse(lines.next().expect("a provenance line")).expect("JSON");
    let p = provenance.get("provenance").expect("provenance block");
    for key in [
        "git_commit",
        "nproc",
        "pinned_cpu",
        "rustc",
        "seed",
        "litempi_env_cleared",
    ] {
        assert!(p.get(key).is_some(), "{args:?}: provenance lacks {key}");
    }
    assert_eq!(
        p.get("litempi_env_cleared")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(1),
        "{args:?}: LITEMPI_VCIS was set and must be listed as cleared"
    );
    result
}

/// Check the result line's shape and return `name → value`.
fn metrics_of(result: &Json, expect: &[MetricDef], what: &str) -> Vec<(String, f64)> {
    let keys: Vec<_> = result.as_obj().expect("object").keys().cloned().collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_f64) >= Some(1.0),
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let mut names: Vec<_> = metrics.keys().map(String::as_str).collect();
    let mut want: Vec<_> = expect.iter().map(|m| m.0).collect();
    names.sort_unstable();
    want.sort_unstable();
    assert_eq!(names, want, "{what}: exactly the declared names");
    expect
        .iter()
        .map(|(name, unit)| {
            let m = &metrics[*name];
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(*unit),
                "{what}: {name}"
            );
            let value = m.get("value").and_then(Json::as_f64);
            let value = value.unwrap_or_else(|| panic!("{what}: {name} is not a number"));
            assert!(value.is_finite(), "{what}: {name} = {value}");
            (name.to_string(), value)
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_harness_emits() {
    let spec = Spec::load().expect("BENCHMARK.json parses");
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names);
    let pairs = |specs: &[litempi_benchmark::spec::MetricSpec]| -> Vec<(String, String)> {
        specs
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect()
    };
    let owned = |defs: &[MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(pairs(&spec.end_to_end), owned(END_TO_END));
    assert_eq!(pairs(&spec.per_layer), owned(&all_layer_metrics()));
    for m in &spec.end_to_end {
        let bound = m.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(
        spec.end_to_end.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    assert!((1.0..=60.0).contains(&spec.run_seconds));
}

/// One test, so that the processes run one after another: each pins
/// itself to the same CPU, and side by side they would starve the lossy
/// link's retransmit timers.
#[test]
fn every_workload_emits_its_closed_set_and_fails_no_op() {
    let every = all_layer_metrics();
    for w in Workload::ALL {
        let args = [
            "--workload",
            w.name(),
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--trace",
        ];
        let plain = run(&[&args[..], &["0"]].concat());
        for (name, value) in metrics_of(&plain, END_TO_END, w.name()) {
            assert!(value > 0.0, "{}: {name} = {value}", w.name());
        }

        let what = format!("{} traced", w.name());
        let traced = run(&[&args[..], &["1"]].concat());
        let own: Vec<&str> = (COMMON.iter())
            .chain(&w.layer_metrics())
            .chain(layers::METRICS)
            .map(|m| m.0)
            .collect();
        for (name, value) in metrics_of(&traced, &every, &what) {
            if !own.contains(&name.as_str()) {
                assert_eq!(value, 0.0, "{what}: {name} belongs to another workload");
            } else if name.ends_with("_ns") && !name.contains("reliability") {
                // Differences (tax, recovery) may be anything; a span
                // median that reads 0 means the span never ran.
                assert!(value != 0.0, "{what}: {name} was never measured");
            }
        }
    }

    let direct = run(&["layers", "--seed", "7"]);
    for (name, value) in metrics_of(&direct, layers::METRICS, "layers") {
        assert!(value > 0.0, "layers: {name} = {value}");
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "p2p_small", "--trace", "2"],
        &["--seconds", "1"],
        &["all", "--workload", "p2p_small"],
        &["--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_litempi-benchmark"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} must be refused");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
