//! Every workload, at a tiny size, emits exactly the metrics
//! `BENCHMARK.json` names — each once, with its unit — fails no output
//! check, and repeats its exact (code-quality) metrics run to run.

use vericomp_benchmark::json::{self, Value};
use vericomp_benchmark::{run, Outcome, Params, Workload};

/// Scenario task counts small enough for a debug build.
const TINY: [(Workload, usize); 4] = [
    (Workload::ReleaseCold, 3),
    (Workload::DevRebuild, 3),
    (Workload::ServedMix, 3),
    (Workload::WcetSearch, 2),
];

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every entry of one metric list.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_emits(workload: Workload, outcome: &Outcome, expected: &[(String, String)]) {
    assert!(
        outcome.correct(),
        "{}: {} of {} failed",
        workload.name(),
        outcome.failed,
        outcome.attempted
    );
    assert_eq!(outcome.failed, 0);
    assert_eq!(
        outcome.metrics.len(),
        expected.len(),
        "{}: metric count",
        workload.name()
    );
    for (name, unit) in expected {
        let found: Vec<_> = outcome.metrics.iter().filter(|m| m.name == *name).collect();
        assert_eq!(
            found.len(),
            1,
            "{}: `{name}` emitted {} times",
            workload.name(),
            found.len()
        );
        assert_eq!(found[0].unit, unit, "{}: `{name}` unit", workload.name());
        assert!(
            found[0].value.is_finite(),
            "{}: `{name}` not finite",
            workload.name()
        );
    }
    let line = json::parse(&outcome.to_json_line()).expect("result line is JSON");
    let keys: Vec<&str> = line
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .expect("metric")
        .value
}

#[test]
fn every_workload_emits_every_declared_metric_and_repeats_exact_ones() {
    let spec = spec();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));

    for (workload, tasks) in TINY {
        let params = Params {
            seed: 7,
            seconds: 0.0,
            traced: false,
            tasks,
        };
        let first = run(workload, &params).expect("first run");
        let second = run(workload, &params).expect("second run");
        assert_emits(workload, &first, &end_to_end);
        assert_emits(workload, &second, &end_to_end);
        for exact in ["wcet_cycles", "code_bytes"] {
            assert!(
                value(&first, exact) > 0.0,
                "{}: {exact} is 0",
                workload.name()
            );
            assert_eq!(
                value(&first, exact),
                value(&second, exact),
                "{}: {exact} differs between identical runs",
                workload.name()
            );
        }
        let traced = run(
            workload,
            &Params {
                traced: true,
                ..params
            },
        )
        .expect("traced run");
        assert_emits(workload, &traced, &per_layer);
    }
}
