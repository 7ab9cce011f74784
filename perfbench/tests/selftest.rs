//! Benchmark self-test: short runs of every workload pass their output
//! checks, emit every declared metric with its unit, and repeat their
//! counts exactly.

use std::sync::Mutex;

use perfbench::{Args, Outcome, Workload, COUNTS, END_TO_END, PER_LAYER};

/// Runs share process-wide state (the plan cache, the fftobs registry) and
/// the host's cores, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn short(w: Workload, seed: u64, trace: bool) -> Outcome {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let argv: Vec<String> = [
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        "0.05",
        "--trace",
        if trace { "1" } else { "0" },
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut args = Args::parse(&argv).expect("valid arguments");
    args.min_steps = 4;
    args.setup_reps = 2;
    args.setup_budget_s = 0.0;
    args.spans_out = None;
    perfbench::run(&args).expect("the run is carried out")
}

fn assert_declared(out: &Outcome, declared: &[(&str, &str)]) {
    let got: Vec<(&str, &str)> = out
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    assert_eq!(
        got, declared,
        "every declared metric, in order, with its unit"
    );
    assert!(out.metrics.iter().all(|m| m.value.is_finite()));
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for w in Workload::ALL {
        let out = short(w, 3, false);
        assert!(out.correct, "{}: {:?}", w.name(), out.notes);
        assert_eq!(out.failed, 0);
        assert!(out.attempted >= 4);
        assert_declared(&out, &END_TO_END);
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            out.metrics
        );
        let line = out.json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{line}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
        }
    }
}

#[test]
fn traced_runs_report_every_layer_and_repeat_their_counts() {
    for w in Workload::ALL {
        let a = short(w, 5, true);
        let b = short(w, 6, true);
        for out in [&a, &b] {
            assert!(out.correct, "{}: {:?}", w.name(), out.notes);
            assert_declared(out, &PER_LAYER);
        }
        for name in COUNTS {
            let (x, y) = (a.get(name), b.get(name));
            assert!(x.is_some_and(|v| v > 0.0), "{}: {name} = {x:?}", w.name());
            assert_eq!(x, y, "{}: count {name} must repeat exactly", w.name());
        }
    }
}

#[test]
fn benchmark_manifest_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        return; // a standalone copy of the benchmark has no manifest beside it
    };
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    // `analytic-brick-768` is run by hand only (see README.md).
    for w in [Workload::C2cPow2_64, Workload::R2cSmooth96] {
        assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}

#[test]
fn refuses_overrides_and_bad_arguments() {
    assert!(Args::parse(&["--workload".into(), "nope".into()]).is_err());
    assert!(Args::parse(&["--seed".into(), "1".into()]).is_err());
    assert!(Args::parse(&[
        "--workload".into(),
        "c2c-pow2-64".into(),
        "--trace".into(),
        "2".into()
    ])
    .is_err());
    assert_eq!(perfbench::env::REFUSED_VARS.len(), 4);
}
