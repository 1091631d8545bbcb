//! The benchmark's output contract, end to end: every workload, untraced
//! and traced, prints every catalog metric with its unit on the final JSON
//! line, names every metric listed for it on its report lines, passes its
//! output checks, and fails no operation. Each run measures for one second
//! (the families workload always finishes one whole round).

use gopher_e2ebench::execute;
use gopher_e2ebench::report::{
    named_end_to_end, named_per_layer, END_TO_END, PER_LAYER, WORKLOADS,
};
use gopher_repro::gopher_json::{parse, Json};

fn run(workload: &str, trace: u8) -> Vec<String> {
    let args: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        "11",
        "--seconds",
        "1",
        "--trace",
        &trace.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    execute(&args).unwrap_or_else(|(code, msg)| panic!("{workload} exited {code}: {msg}"))
}

/// A named metric is printed as `# metric <name> = <value> <unit>`; a tail
/// the run has too few samples for is named on a `not reported` line.
fn names_metric(lines: &[String], name: &str, unit: &str) -> bool {
    lines.iter().any(|l| {
        (l.starts_with(&format!("# metric {name} = ")) && l.contains(&format!(" {unit} (samples ")))
            || l.starts_with(&format!("# {name} not reported"))
    })
}

fn check_run(workload: &str, trace: u8) {
    let lines = run(workload, trace);
    let last = lines.last().expect("output");
    let json = parse(last).expect("last line is JSON");
    let Json::Obj(fields) = &json else {
        panic!("last line is not an object: {last}");
    };
    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(json.get("correct"), Some(&Json::Bool(true)), "{lines:#?}");
    assert_eq!(json.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(json.get("attempted").and_then(Json::as_f64) >= Some(1.0));
    let catalog = if trace == 1 { PER_LAYER } else { END_TO_END };
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        panic!("no metrics object");
    };
    assert_eq!(metrics.len(), catalog.len());
    for &(name, unit) in catalog {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        assert!(
            names_metric(&lines, name, unit),
            "{workload}: {name} not on a report line"
        );
    }
    let named = if trace == 1 {
        named_per_layer(workload)
    } else {
        named_end_to_end(workload)
    };
    assert!(!named.is_empty());
    for &(name, unit) in named {
        assert!(
            names_metric(&lines, name, unit),
            "{workload} (trace {trace}): {name} [{unit}] not named\n{lines:#?}"
        );
    }
    assert!(lines.iter().any(|l| l.starts_with("# host.ref_ms start ")));
    assert!(lines.iter().any(|l| l.contains(" threads 2")));
    assert!(lines
        .iter()
        .any(|l| l.starts_with("# operations attempted ")));
    if trace == 1 {
        assert!(lines.iter().any(|l| l.starts_with("# tracing: ")));
    }
}

#[test]
fn analyst_output_is_complete() {
    check_run(WORKLOADS[0], 0);
    check_run(WORKLOADS[0], 1);
}

#[test]
fn update_output_is_complete() {
    check_run(WORKLOADS[1], 0);
    check_run(WORKLOADS[1], 1);
}

#[test]
fn serve_output_is_complete() {
    check_run(WORKLOADS[2], 0);
    check_run(WORKLOADS[2], 1);
}

#[test]
fn families_output_is_complete() {
    check_run(WORKLOADS[3], 0);
    check_run(WORKLOADS[3], 1);
}

/// `BENCHMARK.json` at the repository root lists exactly the catalogs the
/// runs print, with the same units, and only workloads the runner knows.
#[test]
fn benchmark_json_matches_the_catalogs() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let spec = parse(&text).expect("valid JSON");
    for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String)> = spec
            .get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let expected: Vec<(String, String)> = catalog
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, expected, "{key}");
    }
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert!(workloads.len() >= 2);
    assert!(
        workloads.iter().all(|w| WORKLOADS.contains(w)),
        "{workloads:?}"
    );
}
