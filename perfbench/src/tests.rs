use super::*;

/// Counters that depend only on the inputs, never on timing.
const DETERMINISTIC: &[&str] = &[
    "eval.join_probes",
    "eval.facts_added",
    "lint.diagnostics",
    "reduce.program_bytes",
    "magic.facts_materialized",
    "incremental.strata_recomputed",
];

fn tiny(workload: Workload, seed: u64) -> Report {
    let cfg = Config {
        workload,
        seed,
        seconds: 0.0,
        trace: true,
        tiny: true,
    };
    let report = run(&cfg);
    assert!(
        report.correct(),
        "{workload:?} seed {seed}: {:?}",
        report.problems
    );
    report
}

fn counters(report: &Report) -> Vec<(&'static str, f64)> {
    DETERMINISTIC
        .iter()
        .map(|&n| (n, report.values.get(n).copied().unwrap_or(0.0)))
        .collect()
}

fn repeats_and_depends_on_seed(workload: Workload, active: &[&str]) {
    let first = tiny(workload, 7);
    let second = tiny(workload, 7);
    assert_eq!(
        counters(&first),
        counters(&second),
        "{workload:?}: counters must repeat"
    );
    assert_eq!(first.inputs_digest, second.inputs_digest);
    for name in active {
        assert!(
            first.values[name] > 0.0,
            "{workload:?}: {name} should count work"
        );
    }
    let other = tiny(workload, 8);
    assert_ne!(
        first.inputs_digest, other.inputs_digest,
        "{workload:?}: a new seed must change the inputs"
    );
    first
        .json(PER_LAYER)
        .expect("every per-layer metric is finite");
}

#[test]
fn batch_small_counters_repeat() {
    repeats_and_depends_on_seed(
        Workload::BatchSmall,
        &[
            "eval.join_probes",
            "eval.facts_added",
            "lint.diagnostics",
            "reduce.program_bytes",
            "magic.facts_materialized",
        ],
    );
}

#[test]
fn batch_polyinst_counters_repeat() {
    repeats_and_depends_on_seed(
        Workload::BatchPolyinst,
        &[
            "eval.join_probes",
            "eval.facts_added",
            "reduce.program_bytes",
            "magic.facts_materialized",
        ],
    );
}

#[test]
fn serve_churn_counters_repeat() {
    repeats_and_depends_on_seed(
        Workload::ServeChurn,
        &[
            "eval.join_probes",
            "eval.facts_added",
            "reduce.program_bytes",
            "incremental.strata_recomputed",
        ],
    );
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let cfg = Config {
        workload: Workload::BatchSmall,
        seed: 3,
        seconds: 0.0,
        trace: false,
        tiny: true,
    };
    let report = run(&cfg);
    assert!(report.correct(), "{:?}", report.problems);
    for (name, _) in END_TO_END {
        let v = report.values[name];
        assert!(v.is_finite() && v > 0.0, "{name} = {v}");
    }
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn bad_arguments_are_errors() {
    for bad in [
        &[][..],
        &["--workload"],
        &["--workload", "nope"],
        &["--workload", "batch_small", "--seed"],
        &["--workload", "batch_small", "--seed", "x"],
        &["--workload", "batch_small", "--seed", "-1"],
        &["--workload", "batch_small", "--seconds", "soon"],
        &["--workload", "batch_small", "--trace", "2"],
        &["--workload", "batch_small", "--trace"],
        &["--workload", "batch_small", "--repeat", "3"],
    ] {
        assert!(parse_args(&args(bad)).is_err(), "{bad:?} should be refused");
    }
    let cfg = parse_args(&args(&[
        "--workload",
        "serve_churn",
        "--seed",
        "9",
        "--seconds",
        "2",
        "--trace",
        "1",
    ]))
    .expect("valid arguments");
    assert_eq!(
        (cfg.workload, cfg.seed, cfg.seconds, cfg.trace),
        (Workload::ServeChurn, 9, 2.0, true)
    );
}

#[test]
fn metric_lists_match_benchmark_json() {
    let json = include_str!("../../BENCHMARK.json");
    let named = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(named(name), "{name} missing from BENCHMARK.json");
    }
    for (name, _) in Workload::ALL {
        assert!(named(name), "workload {name} missing from BENCHMARK.json");
    }
    assert_eq!(
        json.matches("\"name\":").count(),
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}
