//! The benchmark's own checks, on short inputs (`--short`):
//!
//! * every metric `BENCHMARK.json` names is printed with its unit;
//! * deterministic counts repeat exactly across two runs;
//! * `fleet-day` output does not depend on the worker count.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["diagnose", "detect", "fleet-day"];

/// Runs the benchmark on short inputs; returns its stdout.
fn run(workload: &str, trace: u8, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .arg("--short")
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} trace {trace} failed:\n{stdout}");
    stdout
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut in_section = false;
    let mut out = Vec::new();
    for line in text.lines() {
        if line.trim_start().starts_with('"') && line.contains("\": [") {
            in_section = line.contains(&format!("\"{section}\""));
        } else if in_section && line.contains("\"unit\"") {
            out.push((field(line, "name"), field(line, "unit")));
        }
    }
    assert!(!out.is_empty(), "no metrics declared under {section}");
    out
}

/// The string value of `"key": "..."` on a line.
fn field(line: &str, key: &str) -> String {
    let start = line.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
    line[start..].split('"').next().expect("closing quote").to_string()
}

/// The value of metric `name` in the result line, checking its unit.
fn metric(stdout: &str, name: &str, unit: &str) -> f64 {
    let result = stdout.lines().last().expect("a result line");
    let head = format!("\"{name}\": {{\"value\": ");
    let start =
        result.find(&head).unwrap_or_else(|| panic!("{name} missing from {result}")) + head.len();
    let (value, rest) = result[start..].split_once(',').expect("value then unit");
    assert!(rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")), "{name} unit in {result}");
    value.parse().unwrap_or_else(|_| panic!("{name} value '{value}'"))
}

/// A report line starting with `prefix`.
fn line<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    stdout
        .lines()
        .find(|l| l.trim_start().starts_with(prefix))
        .unwrap_or_else(|| panic!("no '{prefix}' line"))
}

/// The `FleetSummary` rendering in a `fleet-day` report.
fn summary(stdout: &str) -> Vec<&str> {
    stdout.lines().skip_while(|l| !l.contains("fleet summary")).take(9).collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let stdout = run(workload, trace, &[]);
            let result = stdout.lines().last().expect("a result line");
            assert!(result.starts_with("{\"correct\": true, \"attempted\": "), "{result}");
            let declared = declared(section);
            for (name, unit) in &declared {
                let value = metric(&stdout, name, unit);
                assert!(value.is_finite(), "{workload} {name} = {value}");
            }
            assert_eq!(
                result.matches("\"unit\"").count(),
                declared.len(),
                "extra metrics in {result}"
            );
        }
    }
}

#[test]
fn deterministic_counts_repeat_exactly() {
    let counts: [(&str, &str, &str); 3] = [
        ("protocol.tests_per_diagnosis", "tests", "diagnose"),
        ("backend.shots", "count", "detect"),
        ("fleet.batch_builds", "count", "fleet-day"),
    ];
    for (name, unit, workload) in counts {
        let a = metric(&run(workload, 1, &[]), name, unit);
        let b = metric(&run(workload, 1, &[]), name, unit);
        assert!(a > 0.0 && a == b, "{workload} {name}: {a} then {b}");
    }
    for workload in WORKLOADS {
        let (a, b) = (run(workload, 0, &[]), run(workload, 0, &[]));
        assert_eq!(
            metric(&a, "outcome_count", "count"),
            metric(&b, "outcome_count", "count"),
            "{workload}"
        );
        if workload == "fleet-day" {
            assert_eq!(line(&a, "jobs_per_machine_day"), line(&b, "jobs_per_machine_day"));
        } else {
            assert_eq!(line(&a, "identify_rate"), line(&b, "identify_rate"), "{workload}");
        }
    }
}

#[test]
fn fleet_day_output_is_worker_invariant() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()).max(2).to_string();
    let one = run("fleet-day", 0, &["--workers", "1"]);
    let many = run("fleet-day", 0, &["--workers", &cores]);
    assert_eq!(line(&one, "transcript digest"), line(&many, "transcript digest"));
    assert_eq!(summary(&one), summary(&many));
    assert_eq!(metric(&one, "outcome_count", "count"), metric(&many, "outcome_count", "count"));
}
