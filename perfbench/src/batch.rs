//! The batch workloads: the CLI's one-shot path, where every request
//! starts again from source text.
//!
//! * `run`: `parse_database` → `lint_source_at` → τ translation
//!   (`with_options_deferred`) → materialization (`rematerialize`) →
//!   `solve` on every stored query.
//! * `query`: the same front end → `with_options_deferred` →
//!   `parse_goal` → `solve_demand_with_stats` on the point goal.
//! * `op_run`: the same front end → `MultiLogEngine::with_options` →
//!   `solve` on every stored query (the CLI's default engine).
//!
//! `ReducedEngine::with_options`, which the CLI calls, is exactly
//! `with_options_deferred` followed by `rematerialize`; calling the two
//! halves lets the traced run time the τ translation and the fixpoint
//! apart, and the untraced run makes the very same calls.

use std::collections::BTreeMap;
use std::time::Instant;

use multilog_core::reduce::ReducedEngine;
use multilog_core::{
    lint_source_at, parse_database, parse_goal, Answer, EngineOptions, MultiLogEngine,
};
use multilog_datalog::EvalStats;

use crate::evalstats::EvalTotals;
use crate::gen::{self, BatchDb, Rng};
use crate::trace::{median, quantile, Tracer};
use crate::{Config, Report};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Small,
    Polyinst,
}

/// Input sizes of one workload at one scale.
struct Sizes {
    /// Generated databases in the stream.
    dbs: usize,
    /// Range of m-facts (`Small`) or cells (`Polyinst`) per database.
    lo: usize,
    hi: usize,
    /// Keys per dashboard (`Polyinst`).
    keys: usize,
    /// Database visits whose work counters are reported; the run never
    /// stops before finishing them, so the counters do not depend on
    /// the machine's speed.
    window: usize,
}

fn sizes(kind: Kind, tiny: bool) -> Sizes {
    match (kind, tiny) {
        (Kind::Small, false) => Sizes {
            dbs: 48,
            lo: 200,
            hi: 1500,
            keys: 0,
            window: 8,
        },
        (Kind::Small, true) => Sizes {
            dbs: 4,
            lo: 30,
            hi: 60,
            keys: 0,
            window: 6,
        },
        (Kind::Polyinst, false) => Sizes {
            dbs: 16,
            lo: 3000,
            hi: 4000,
            keys: 300,
            window: 2,
        },
        (Kind::Polyinst, true) => Sizes {
            dbs: 2,
            lo: 150,
            hi: 200,
            keys: 20,
            window: 2,
        },
    }
}

/// The seeded database stream of one run. `batch_small` mixes depth 3
/// and 4 with cautious and opt-only rules in equal shares: both
/// databases of a size pair share one combination, and the combinations
/// rotate over the pairs so each meets every part of the size range. It
/// also holds the four example databases.
pub fn stream(kind: Kind, seed: u64, tiny: bool) -> Vec<BatchDb> {
    let s = sizes(kind, tiny);
    let mut rng = Rng::new(seed, 1);
    let counts = gen::spread_sizes(&mut rng, s.dbs, s.lo, s.hi);
    match kind {
        Kind::Polyinst => counts
            .into_iter()
            .enumerate()
            .map(|(i, cells)| {
                gen::dashboard_db(&mut rng, format!("dashboard{i}"), cells, s.keys, 4)
            })
            .collect(),
        Kind::Small => {
            const COMBOS: [(usize, bool); 4] = [(3, false), (3, true), (4, false), (4, true)];
            let mut dbs = Vec::with_capacity(s.dbs + 4);
            for (i, facts) in counts.into_iter().enumerate() {
                let pair = i / 2;
                let (depth, cau) = COMBOS[(pair + pair / 4) % 4];
                dbs.push(gen::small_db(
                    &mut rng,
                    format!("small{i}"),
                    facts,
                    depth,
                    cau,
                ));
            }
            // The examples go in as two pairs, keeping the size pairs
            // of the synthetic databases whole.
            let mut examples = example_dbs();
            let second = examples.split_off(2);
            let middle = dbs.len() / 4 * 2;
            dbs.splice(middle..middle, second);
            dbs.splice(0..0, examples);
            dbs
        }
    }
}

/// The example databases with their m-fact counts filled in.
fn example_dbs() -> Vec<BatchDb> {
    let mut dbs = gen::example_dbs();
    for db in &mut dbs {
        db.mfacts = parse_database(&db.src)
            .map(|p| p.sigma().iter().filter(|c| c.body.is_empty()).count())
            .unwrap_or(0);
    }
    dbs
}

/// What a `run` request leaves behind for the checks and counters.
struct RunOut {
    answers: Vec<Vec<Answer>>,
    engine: ReducedEngine,
    diagnostics: usize,
}

fn front_end(t: &mut Tracer, db: &BatchDb) -> Result<(multilog_core::MultiLogDb, usize), String> {
    let parsed = t
        .span("parser.db", || parse_database(&db.src))
        .map_err(|e| format!("parse: {e}"))?;
    let report = t
        .span("lint.source", || lint_source_at(&db.src, Some(&db.user)))
        .map_err(|e| format!("lint: {e}"))?;
    if report.has_errors() {
        return Err(format!("lint: {}", report.summary()));
    }
    Ok((parsed, report.diagnostics.len()))
}

fn run_request(t: &mut Tracer, db: &BatchDb) -> Result<RunOut, String> {
    let (parsed, diagnostics) = front_end(t, db)?;
    let mut engine = t
        .span("reduce.translate", || {
            ReducedEngine::with_options_deferred(&parsed, &db.user, EngineOptions::default())
        })
        .map_err(|e| format!("reduce: {e}"))?;
    t.span("eval.materialize", || engine.rematerialize())
        .map_err(|e| format!("materialize: {e}"))?;
    let answers = t
        .span("query.answer", || {
            parsed
                .queries()
                .iter()
                .map(|q| engine.solve(q))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("solve: {e}"))?;
    Ok(RunOut {
        answers,
        engine,
        diagnostics,
    })
}

fn query_request(t: &mut Tracer, db: &BatchDb) -> Result<(Vec<Answer>, EvalStats), String> {
    let (parsed, _) = front_end(t, db)?;
    let engine = t
        .span("reduce.translate", || {
            ReducedEngine::with_options_deferred(&parsed, &db.user, EngineOptions::default())
        })
        .map_err(|e| format!("reduce: {e}"))?;
    let goal = t
        .span("parser.goal", || parse_goal(&db.point))
        .map_err(|e| format!("goal: {e}"))?;
    t.span("magic.solve", || engine.solve_demand_with_stats(&goal))
        .map_err(|e| format!("demand: {e}"))
}

fn op_request(t: &mut Tracer, db: &BatchDb) -> Result<(Vec<Vec<Answer>>, MultiLogEngine), String> {
    let (parsed, _) = front_end(t, db)?;
    let engine = t
        .span("engine.build", || {
            MultiLogEngine::with_options(&parsed, &db.user, EngineOptions::default())
        })
        .map_err(|e| format!("operational: {e}"))?;
    let answers = t
        .span("engine.solve", || {
            parsed
                .queries()
                .iter()
                .map(|q| engine.solve(q))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("operational solve: {e}"))?;
    Ok((answers, engine))
}

/// Work counters summed over the counted window.
#[derive(Default)]
struct Counters {
    lint_diagnostics: f64,
    program_bytes: f64,
    eval: EvalTotals,
    full_facts: f64,
    magic_materialized: f64,
    magic_facts: f64,
    magic_fallbacks: f64,
    query_rows: f64,
    op_rounds: f64,
    op_derived: f64,
    op_added: f64,
}

impl Counters {
    fn add_run(&mut self, out: &RunOut) {
        self.lint_diagnostics += out.diagnostics as f64;
        self.program_bytes += out.engine.program_text().len() as f64;
        self.eval.add(out.engine.stats());
        self.full_facts += out.engine.database().fact_count() as f64;
        self.query_rows += out.answers.iter().map(Vec::len).sum::<usize>() as f64;
    }

    fn add_query(&mut self, stats: &EvalStats) {
        if let Some(d) = &stats.demand {
            self.magic_materialized += d.facts_materialized as f64;
            self.magic_facts += d.magic_facts as f64;
            if d.strategy != "magic" {
                self.magic_fallbacks += 1.0;
            }
        }
    }

    fn add_op(&mut self, engine: &MultiLogEngine) {
        let stats = engine.stats();
        self.op_rounds += stats.rounds as f64;
        for c in &stats.per_clause {
            self.op_derived += c.facts_derived as f64;
            self.op_added += c.facts_added as f64;
        }
    }
}

/// Samples of untraced requests, per request kind.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, kind: &'static str, value: f64) {
        self.0.entry(kind).or_default().push(value);
    }

    fn get(&self, kind: &'static str) -> &[f64] {
        self.0.get(kind).map_or(&[], Vec::as_slice)
    }
}

/// Everything one visit needs to check.
#[derive(Default)]
struct VisitOutcome {
    run: Option<Vec<Vec<Answer>>>,
    query: Option<Vec<Answer>>,
    op: Option<Vec<Vec<Answer>>>,
}

struct Runner<'a> {
    report: &'a mut Report,
    /// Latencies in seconds.
    lat: Samples,
    /// Input m-facts per second, per request.
    rates: Samples,
    counters: Counters,
}

impl<'a> Runner<'a> {
    fn new(report: &'a mut Report) -> Self {
        Runner {
            report,
            lat: Samples::default(),
            rates: Samples::default(),
            counters: Counters::default(),
        }
    }

    /// Send every request kind to `db` once; `counted` adds the work
    /// counters. Returns the `run` latency in seconds.
    fn visit(&mut self, t: &mut Tracer, db: &BatchDb, counted: bool) -> Option<f64> {
        let record = !t.on;
        let mut out = VisitOutcome::default();
        let mut run_secs = None;

        self.report.attempted += 1;
        let (res, secs) = t.request("request.run", |t| run_request(t, db));
        match res {
            Ok(run) => {
                if record {
                    self.lat.push("run", secs);
                    self.rates.push("run", db.mfacts as f64 / secs);
                }
                if counted {
                    self.counters.add_run(&run);
                }
                out.run = Some(run.answers);
                run_secs = Some(secs);
            }
            Err(e) => self.report.fail(format!("run on {}: {e}", db.name)),
        }

        self.report.attempted += 1;
        let (res, secs) = t.request("request.query", |t| query_request(t, db));
        match res {
            Ok((answers, stats)) => {
                if record {
                    self.lat.push("query", secs);
                    self.rates.push("query", db.mfacts as f64 / secs);
                }
                if counted {
                    self.counters.add_query(&stats);
                }
                out.query = Some(answers);
            }
            Err(e) => self.report.fail(format!("query on {}: {e}", db.name)),
        }

        if db.op {
            self.report.attempted += 1;
            let (res, secs) = t.request("request.op_run", |t| op_request(t, db));
            match res {
                Ok((answers, engine)) => {
                    if record {
                        self.lat.push("op_run", secs);
                    }
                    if counted {
                        self.counters.add_op(&engine);
                    }
                    out.op = Some(answers);
                }
                Err(e) => self.report.fail(format!("op_run on {}: {e}", db.name)),
            }
        }
        self.check(db, &out);
        run_secs
    }

    /// The answer checks, outside every timer.
    fn check(&mut self, db: &BatchDb, out: &VisitOutcome) {
        let Some(run) = &out.run else { return };
        if let Some(query) = &out.query {
            // The point goal is the last stored query.
            self.report.check(run.last() == Some(query), || {
                format!(
                    "{}: demand answers of `{}` differ from the materialized ones",
                    db.name, db.point
                )
            });
        }
        if let Some(op) = &out.op {
            self.report.check(op == run, || {
                format!(
                    "{}: operational answers differ from the reduced ones (Thm 6.1)",
                    db.name
                )
            });
        }
        if let Some(rows) = db.dashboard_rows {
            let got = run.first().map_or(0, Vec::len);
            self.report.check(got == rows, || {
                format!(
                    "{}: dashboard has {got} rows, expected one per level ({rows})",
                    db.name
                )
            });
        }
    }
}

pub fn run(cfg: &Config, kind: Kind) -> Report {
    let mut report = Report::default();
    let s = sizes(kind, cfg.tiny);
    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch, 0);

    // Set-up, five times: generate the seeded stream, then warm the
    // process with one untraced, uncounted visit to each example
    // database.
    let mut setups = Vec::new();
    let mut dbs = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        dbs = stream(kind, cfg.seed, cfg.tiny);
        let mut runner = Runner::new(&mut report);
        for db in example_dbs() {
            runner.visit(&mut tracer, &db, false);
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    report.inputs_digest = gen::digest(dbs.iter().map(|d| d.src.as_bytes()));

    let mut runner = Runner::new(&mut report);
    let start = Instant::now();
    let mut visit = 0;
    // Traced over untraced `run` latency, per visit.
    let mut overhead = Vec::new();
    // The untraced run stops only after a whole pair of databases (see
    // `gen::spread_sizes`), so its size mix does not depend on speed.
    let whole_pair = |visit: usize| cfg.trace || visit.is_multiple_of(2);
    while visit < s.window || !whole_pair(visit) || start.elapsed().as_secs_f64() < cfg.seconds {
        let db = &dbs[visit % dbs.len()];
        let counted = visit < s.window;
        if cfg.trace {
            // Each visit runs traced and untraced, in alternating order,
            // so the pair gives the tracing overhead on equal inputs.
            let order = if visit % 2 == 0 {
                [true, false]
            } else {
                [false, true]
            };
            let mut secs = [None; 2];
            for (i, on) in order.into_iter().enumerate() {
                tracer.on = on;
                secs[usize::from(on)] = runner.visit(&mut tracer, db, counted && i == 0);
            }
            if let [Some(untraced), Some(traced)] = secs {
                overhead.push(traced / untraced);
            }
        } else {
            runner.visit(&mut tracer, db, counted);
        }
        visit += 1;
    }
    let Runner {
        lat,
        rates,
        counters,
        ..
    } = runner;

    let run = lat.get("run");
    let query = lat.get("query");
    let op = lat.get("op_run");
    // Medians of per-request rates: a handful of databases where the
    // join blows up would otherwise decide a ratio of sums.
    let run_mfacts_per_s = median(rates.get("run"));
    let query_mfacts_per_s = median(rates.get("query"));
    let setup_s = median(&setups);
    let peak_rss_mb = crate::trace::rss_mb().0;

    report.set("main_p50_ms", quantile(run, 0.5) * 1e3);
    report.set("main_p90_ms", quantile(run, 0.9) * 1e3);
    report.set("main_per_s", run_mfacts_per_s);
    report.set("side_p50_ms", quantile(query, 0.5) * 1e3);
    report.set("side_p90_ms", quantile(query, 0.9) * 1e3);
    report.set("side_per_s", query_mfacts_per_s);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mb);

    report.line("run_p50_ms", quantile(run, 0.5) * 1e3, "ms");
    report.line("run_p90_ms", quantile(run, 0.9) * 1e3, "ms");
    report.line("run_mfacts_per_s", run_mfacts_per_s, "1/s");
    report.line("query_p50_ms", quantile(query, 0.5) * 1e3, "ms");
    report.line("query_p90_ms", quantile(query, 0.9) * 1e3, "ms");
    report.line("query_mfacts_per_s", query_mfacts_per_s, "1/s");
    if kind == Kind::Small {
        report.line("op_run_p50_ms", quantile(op, 0.5) * 1e3, "ms");
        report.line("op_run_p90_ms", quantile(op, 0.9) * 1e3, "ms");
    }
    report.line("setup_s", setup_s, "s");
    report.line("peak_rss_mb", peak_rss_mb, "MB");
    report.note(format!(
        "samples: run={} query={} op_run={} over {visit} database visits ({} databases in the stream)",
        run.len(),
        query.len(),
        op.len(),
        dbs.len()
    ));

    if cfg.trace {
        per_layer(&mut report, &tracer, &counters);
        report.set("trace.overhead_pct", (median(&overhead) - 1.0) * 100.0);
        report.trace = Some(crate::trace::to_jsonl([&tracer]));
    }
    report
}

fn per_layer(report: &mut Report, tracer: &Tracer, c: &Counters) {
    // A layer this workload never calls reads 0.
    let ms = |name: &str| {
        let d = tracer.durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) * 1e3
        }
    };
    report.set("parser.db_ms", ms("parser.db"));
    report.set("parser.goal_us", ms("parser.goal") * 1e3);
    report.set("lint.ms", ms("lint.source"));
    report.set("lint.diagnostics", c.lint_diagnostics);
    report.set("reduce.translate_ms", ms("reduce.translate"));
    report.set("reduce.program_bytes", c.program_bytes);
    report.set("eval.materialize_ms", ms("eval.materialize"));
    report.set("magic.solve_ms", ms("magic.solve"));
    report.set("magic.facts_materialized", c.magic_materialized);
    report.set("magic.magic_facts", c.magic_facts);
    report.set("magic.fallbacks", c.magic_fallbacks);
    report.set(
        "magic.over_full_ratio",
        c.magic_materialized / c.full_facts.max(1.0),
    );
    report.set("query.answer_ms", ms("query.answer"));
    report.set("query.rows", c.query_rows);
    report.set("engine.build_ms", ms("engine.build"));
    report.set("engine.solve_ms", ms("engine.solve"));
    report.set("engine.rounds", c.op_rounds);
    report.set("engine.facts_derived", c.op_derived);
    report.set("engine.facts_added", c.op_added);
    crate::self_times(report, [tracer]);
    c.eval.report(report);
}
