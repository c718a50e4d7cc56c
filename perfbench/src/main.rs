//! `perfbench`: the MultiLog end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <batch_small|batch_polyinst|serve_churn>
//!           [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Runs one workload on inputs generated from the seed, checks every
//! answer outside the timers, prints each metric by name with its unit,
//! and ends with one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md
//! next to this crate for the workloads and the metric map.

mod batch;
mod evalstats;
mod gen;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// `main` is the workload's main request (`run` on the batch
/// workloads, a read on `serve_churn`); `side` is its other request
/// (`query`, or a commit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("main_p50_ms", "ms"),
    ("main_p90_ms", "ms"),
    ("main_per_s", "1/s"),
    ("side_p50_ms", "ms"),
    ("side_p90_ms", "ms"),
    ("side_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer a workload does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parser.db_ms", "ms"),
    ("parser.goal_us", "us"),
    ("parser.self_pct", "%"),
    ("lint.ms", "ms"),
    ("lint.diagnostics", "count"),
    ("lint.self_pct", "%"),
    ("reduce.translate_ms", "ms"),
    ("reduce.program_bytes", "bytes"),
    ("reduce.self_pct", "%"),
    ("eval.materialize_ms", "ms"),
    ("eval.join_probes", "count"),
    ("eval.facts_considered", "count"),
    ("eval.facts_added", "count"),
    ("eval.dedup_hits", "count"),
    ("eval.iterations", "count"),
    ("eval.probes_per_added", "ratio"),
    ("eval.max_rule_probes_per_derived", "ratio"),
    ("eval.top_rule_share", "ratio"),
    ("eval.self_pct", "%"),
    ("magic.solve_ms", "ms"),
    ("magic.facts_materialized", "count"),
    ("magic.magic_facts", "count"),
    ("magic.fallbacks", "count"),
    ("magic.over_full_ratio", "ratio"),
    ("magic.self_pct", "%"),
    ("query.answer_ms", "ms"),
    ("query.rows", "count"),
    ("query.self_pct", "%"),
    ("engine.build_ms", "ms"),
    ("engine.solve_ms", "ms"),
    ("engine.rounds", "count"),
    ("engine.facts_derived", "count"),
    ("engine.facts_added", "count"),
    ("engine.self_pct", "%"),
    ("server.refresh_us", "us"),
    ("server.query_us", "us"),
    ("server.open_ms", "ms"),
    ("server.commit_ms", "ms"),
    ("server.publish_ms", "ms"),
    ("server.rss_growth_mb", "MB"),
    ("server.self_pct", "%"),
    ("incremental.level_commit_ms", "ms"),
    ("incremental.derived_added", "count"),
    ("incremental.derived_removed", "count"),
    ("incremental.rederived", "count"),
    ("incremental.strata_recomputed", "count"),
    ("incremental.recompute_commit_frac", "ratio"),
    ("request.self_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Layers and the metric their self time is reported as; `request` is
/// the benchmark's own time inside a request, outside every layer.
const LAYERS: &[(&str, &str)] = &[
    ("parser", "parser.self_pct"),
    ("lint", "lint.self_pct"),
    ("reduce", "reduce.self_pct"),
    ("eval", "eval.self_pct"),
    ("magic", "magic.self_pct"),
    ("query", "query.self_pct"),
    ("engine", "engine.self_pct"),
    ("server", "server.self_pct"),
    ("request", "request.self_pct"),
];

const USAGE: &str = "usage: perfbench --workload <batch_small|batch_polyinst|serve_churn> \
[--seed <n>] [--seconds <n>] [--trace <0|1>]";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchSmall,
    BatchPolyinst,
    ServeChurn,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("batch_small", Workload::BatchSmall),
        ("batch_polyinst", Workload::BatchPolyinst),
        ("serve_churn", Workload::ServeChurn),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("?", |(n, _)| n)
    }
}

#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed loop runs; it always finishes the counted
    /// window first.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub tiny: bool,
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = Workload::ALL.iter().find(|(n, _)| n == v);
                workload = Some(w.ok_or_else(|| format!("unknown workload `{v}`"))?.1);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed `{v}` is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds `{v}` is not a non-negative number"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace `{v}` is neither 0 nor 1")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny: false,
    })
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations and answer mismatches, in order.
    pub problems: Vec<String>,
    pub mismatches: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
    /// Digest of the generated inputs.
    pub inputs_digest: u64,
    /// The recorded spans as JSON lines (traced runs).
    pub trace: Option<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn line(&mut self, name: &str, value: f64, unit: &str) {
        self.lines.push(format!("{name:<24} {value:>14.4} {unit}"));
    }

    pub fn note(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Count one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(format!("failed: {what}"));
    }

    /// Record an answer check; a false one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches += 1;
            self.problems.push(format!("mismatch: {}", what()));
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.failed == 0
    }

    /// The final JSON line over `metrics`, a metric the run did not
    /// set reading 0; an error when a value is not finite.
    fn json(&self, metrics: &[(&str, &str)]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in metrics.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Set `<layer>.self_pct`: each layer's self time as a share of all
/// request time.
pub fn self_times<'a>(report: &mut Report, tracers: impl IntoIterator<Item = &'a trace::Tracer>) {
    let (layers, roots) = trace::layer_self_ns(tracers);
    for &(layer, metric) in LAYERS {
        let ns = layers.get(layer).copied().unwrap_or(0);
        report.set(metric, ns as f64 / roots.max(1) as f64 * 100.0);
    }
}

pub fn run(cfg: &Config) -> Report {
    match cfg.workload {
        Workload::BatchSmall => batch::run(cfg, batch::Kind::Small),
        Workload::BatchPolyinst => batch::run(cfg, batch::Kind::Polyinst),
        Workload::ServeChurn => serve::run(cfg),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = run(&cfg);
    if cfg.trace {
        let traced = report
            .values
            .get("trace.overhead_pct")
            .copied()
            .unwrap_or(f64::NAN);
        report.line("trace.overhead_pct", traced, "%");
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.line("error_rate", error_rate, "ratio");
    println!(
        "workload {} seed {} trace {}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    for line in &report.lines {
        println!("{line}");
    }
    for problem in &report.problems {
        println!("{problem}");
    }
    if let Some(spans) = &report.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}.trace.jsonl", cfg.workload.name()));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }
    let metrics = if cfg.trace { PER_LAYER } else { END_TO_END };
    match report.json(metrics) {
        Ok(json) if report.correct() => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Ok(json) => {
            println!("{json}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
