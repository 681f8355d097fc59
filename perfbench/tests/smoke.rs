//! Tiny-size runs of every workload: each must print every metric it owes
//! with its unit, and a planted wrong expected answer must be counted as
//! a failed operation.

use perfbench::{render, run, Config, Report, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use std::sync::Mutex;

/// Span recording is process-wide, so runs in this file go one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: &str, trace: bool, plant_wrong: bool) -> (Config, Report) {
    let cfg = Config {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::tiny(),
        plant_wrong,
    };
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let report = run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    (cfg, report)
}

/// The unit printed for `name` in the JSON line, if the metric is there.
fn json_unit<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let entry = format!("\"{name}\": {{\"value\": ");
    let rest = &json[json.find(&entry)? + entry.len()..];
    let rest = &rest[rest.find("\"unit\": \"")? + "\"unit\": \"".len()..];
    Some(&rest[..rest.find('"')?])
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, owed) in [(false, END_TO_END), (true, PER_LAYER)] {
            let (cfg, report) = tiny(workload, trace, false);
            let out = render(&cfg, 2, &report);
            let json = out.lines().last().expect("output has lines");
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload} trace={trace}: {json}"
            );
            assert_eq!(report.failed, 0, "{workload} trace={trace}");
            assert_eq!(report.metrics.len(), owed.len(), "{workload} trace={trace}");
            for &(name, unit) in owed {
                assert_eq!(
                    json_unit(json, name),
                    Some(unit),
                    "{workload} trace={trace}: metric {name} missing or mis-united"
                );
            }
            if !trace {
                for &(name, _) in END_TO_END {
                    let v = report.get(name).expect("metric present");
                    assert!(v > 0.0, "{workload}: end-to-end metric {name} reads {v}");
                }
            }
        }
    }
}

#[test]
fn planted_wrong_answer_is_counted_as_a_failure() {
    for workload in WORKLOADS {
        let (cfg, report) = tiny(workload, false, true);
        assert!(report.attempted > 0, "{workload}: nothing attempted");
        assert_eq!(
            report.failed, report.attempted,
            "{workload}: a wrong expected answer passed the gate"
        );
        let out = render(&cfg, 2, &report);
        assert!(out
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}

#[test]
fn benchmark_json_names_the_same_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(json) = std::fs::read_to_string(path) else {
        panic!("{path} is missing");
    };
    let names: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|&(n, _)| n))
        .collect();
    for name in names {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "BENCHMARK.json does not list {name}"
        );
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists names the benchmark does not report"
    );
}
