//! Self-tests that run the workloads end to end at their minimal length:
//! every metric `BENCHMARK.json` names is reported, the output checks
//! pass, and two traced runs with one seed reproduce every deterministic
//! count exactly. Run with `cargo test --release` (a debug build is slow).

use std::sync::Mutex;

use crate::ledger::{Report, DETERMINISTIC};
use crate::{inproc, served};

/// The workloads share scratch directories and measure wall time, so
/// the smoke tests run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// The metric names one section of `BENCHMARK.json` declares.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("name value") + 1..];
            s[..s.find('"').expect("name value ends")].to_owned()
        })
        .collect()
}

fn run(workload: &str, seed: u64, traced: bool) -> Report {
    // Zero seconds: each workload runs its minimal window (the counted
    // waves, and for a retraining workload the rest of that cycle).
    match workload {
        "aqhi_retrain" => inproc::run(&inproc::AQHI_RETRAIN, seed, 0.0, traced, workload),
        _ => served::run(seed, 0.0, traced),
    }
}

fn names(r: &Report) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.to_owned()).collect()
}

fn smoke(workload: &str) {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let plain = run(workload, 3, false);
    assert!(plain.correct(), "{}", plain.render());
    assert_eq!(plain.failed, 0, "{}", plain.render());
    assert_eq!(
        names(&plain),
        declared("end_to_end"),
        "{workload}: end-to-end metrics"
    );
    for m in &plain.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{workload}: {} = {}",
            m.name,
            m.value
        );
    }

    let a = run(workload, 3, true);
    let b = run(workload, 3, true);
    for r in [&a, &b] {
        assert!(r.correct(), "{}", r.render());
        let mut got = names(r);
        let mut want = declared("per_layer");
        got.sort();
        want.sort();
        assert_eq!(got, want, "{workload}: per-layer metrics");
    }
    for name in DETERMINISTIC {
        let (x, y) = (a.value(name), b.value(name));
        assert!(x.is_some(), "{workload}: {name} missing");
        assert_eq!(
            x.map(f64::to_bits),
            y.map(f64::to_bits),
            "{workload}: {name} differs between two traced runs with one seed"
        );
    }
}

#[test]
fn aqhi_retrain_smoke_and_deterministic_counts() {
    smoke("aqhi_retrain");
}

#[test]
fn lrb_served_smoke_and_deterministic_counts() {
    smoke("lrb_served");
}

#[test]
fn every_deterministic_count_is_a_declared_per_layer_metric() {
    let declared = declared("per_layer");
    for name in DETERMINISTIC {
        assert!(declared.iter().any(|d| d == name), "{name}");
    }
}
