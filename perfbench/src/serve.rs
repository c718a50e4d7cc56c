//! The `serve_churn` workload: one `BeliefServer`, a reader thread and
//! a writer thread in closed loops.
//!
//! The reader cycles one session per clearance level; each read is
//! `refresh` + `parse_goal` + `query` on the pinned snapshot. The
//! writer commits single-fact asserts and retracts through the
//! server's incremental maintenance.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use multilog_core::ast::Head;
use multilog_core::reduce::{EdbUpdate, ReducedEngine};
use multilog_core::{
    parse_clause, parse_database, parse_goal, BeliefServer, CommitSummary, EngineOptions,
    MultiLogDb, ReaderSession, WriterSession,
};

use crate::evalstats::EvalTotals;
use crate::gen::{self, Churn, Rng, ServeDb, Update};
use crate::trace::{median, quantile, Tracer};
use crate::{Config, Report};

struct Sizes {
    facts: usize,
    depth: usize,
    /// Commits whose counters are reported; the writer never stops
    /// before finishing them.
    window: usize,
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes {
            facts: 120,
            depth: 4,
            window: 12,
        }
    } else {
        Sizes {
            facts: 3000,
            depth: 4,
            window: 40,
        }
    }
}

/// Parse one generated fact into the update the writer commits.
fn update(u: &Update) -> Result<EdbUpdate, String> {
    let (text, assert) = match u {
        Update::Assert(t) => (t, true),
        Update::Retract(t) => (t, false),
    };
    let clause = parse_clause(text)
        .map_err(|e| format!("update `{text}`: {e}"))?
        .pop()
        .ok_or_else(|| format!("update `{text}` has no clause"))?;
    let Head::M(m) = clause.head else {
        return Err(format!("update `{text}` is not an m-fact"));
    };
    Ok(if assert {
        EdbUpdate::Assert(m)
    } else {
        EdbUpdate::Retract(m)
    })
}

/// What the reader thread hands back.
struct ReaderOut {
    tracer: Tracer,
    /// Read latencies in seconds, untraced and traced.
    reads: [Vec<f64>; 2],
    attempted: u64,
    failures: Vec<String>,
}

fn reader(
    mut sessions: Vec<ReaderSession>,
    goals: &[(usize, String)],
    mut tracer: Tracer,
    trace: bool,
    stop: &AtomicBool,
) -> ReaderOut {
    let mut out_reads = [Vec::new(), Vec::new()];
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut i = 0;
    while !stop.load(Ordering::Relaxed) {
        let (session, goal) = &goals[i % goals.len()];
        let session = &mut sessions[*session];
        // The traced run alternates traced and untraced reads, so the
        // pair gives the tracing overhead on the same traffic.
        tracer.on = trace && i % 2 == 0;
        attempted += 1;
        let (res, secs) = tracer.request("request.read", |t| {
            t.span("server.refresh", || session.refresh());
            let parsed = t
                .span("parser.goal", || parse_goal(goal))
                .map_err(|e| e.to_string())?;
            t.span("server.query", || session.query(&parsed))
                .map_err(|e| e.to_string())
        });
        match res {
            Ok(_) => out_reads[usize::from(tracer.on)].push(secs),
            Err(e) => failures.push(format!("read `{goal}`: {e}")),
        }
        i += 1;
    }
    ReaderOut {
        tracer,
        reads: out_reads,
        attempted,
        failures,
    }
}

/// Per-commit observations.
#[derive(Default)]
struct Commits {
    /// Commit latencies in seconds.
    wall: Vec<f64>,
    level_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    /// Counters over the counted window.
    derived_added: f64,
    derived_removed: f64,
    rederived: f64,
    strata_recomputed: f64,
    recompute_commits: f64,
}

impl Commits {
    fn add(&mut self, secs: f64, summary: &CommitSummary, counted: bool) {
        self.wall.push(secs);
        let levels = summary.levels.values();
        self.level_ms.extend(levels.clone().map(|c| c.wall_ms));
        self.publish_ms
            .push(secs * 1e3 - levels.clone().map(|c| c.wall_ms).sum::<f64>());
        if counted {
            let recomputed: usize = levels.clone().map(|c| c.strata_recomputed).sum();
            for c in levels {
                self.derived_added += c.derived_added as f64;
                self.derived_removed += c.derived_removed as f64;
                self.rederived += c.rederived as f64;
            }
            self.strata_recomputed += recomputed as f64;
            if recomputed > 0 {
                self.recompute_commits += 1.0;
            }
        }
    }
}

/// The writer's closed loop: commit the churn stream one update at a
/// time until the counted window is done and `seconds` have passed.
/// Returns the loop's wall time in seconds.
fn write_loop(
    mut writer: WriterSession<'_>,
    churn: &mut Churn,
    tracer: &mut Tracer,
    commits: &mut Commits,
    report: &mut Report,
    window: usize,
    seconds: f64,
) -> f64 {
    let start = Instant::now();
    while commits.wall.len() < window || start.elapsed().as_secs_f64() < seconds {
        let upd = match update(&churn.next_update()) {
            Ok(u) => u,
            Err(e) => {
                report.fail(e);
                break;
            }
        };
        report.attempted += 1;
        let (res, secs) = tracer.request("request.commit", |t| {
            t.span("server.commit", || writer.commit(&[upd]))
        });
        match res {
            Ok(summary) => commits.add(secs, &summary, commits.wall.len() < window),
            Err(e) => {
                report.fail(format!("commit: {e}"));
                break;
            }
        }
    }
    start.elapsed().as_secs_f64()
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let s = sizes(cfg.tiny);
    let base = ServeDb::generate(&mut Rng::new(cfg.seed, 3), s.facts, s.depth);
    let levels = base.levels();
    let src = base.render(&base.facts);
    let goals = base.reader_goals(&mut Rng::new(cfg.seed, 4), 4096);
    report.inputs_digest = gen::digest(
        [src.as_bytes()]
            .into_iter()
            .chain(goals.iter().map(|g| g.1.as_bytes())),
    );
    let db = match parse_database(&src) {
        Ok(db) => db,
        Err(e) => {
            report.fail(format!("serve database does not parse: {e}"));
            return report;
        }
    };

    // Set-up, five times; the last server is the one measured.
    // `BeliefServer::new` plus the first `open_reader` per level, which
    // materializes that level.
    let mut setups = Vec::new();
    let mut opens = Vec::new();
    let mut set_up = |report: &mut Report| {
        let db = db.clone();
        let start = Instant::now();
        let server = BeliefServer::new(db, EngineOptions::default());
        let mut sessions = Vec::new();
        for level in &levels {
            report.attempted += 1;
            let open = Instant::now();
            match server.open_reader(level) {
                Ok(session) => sessions.push(session),
                Err(e) => report.fail(format!("open_reader({level}): {e}")),
            }
            opens.push(open.elapsed().as_secs_f64());
        }
        setups.push(start.elapsed().as_secs_f64());
        (server, sessions)
    };
    for _ in 1..5 {
        set_up(&mut report);
    }
    let (server, sessions) = set_up(&mut report);
    if sessions.len() != levels.len() {
        return report;
    }
    let rss_after_setup = crate::trace::rss_mb().1;

    let epoch = Instant::now();
    let mut writer_tracer = Tracer::new(cfg.trace, epoch, 1);
    let stop = AtomicBool::new(false);
    let mut commits = Commits::default();
    let mut churn = Churn::new(&base, Rng::new(cfg.seed, 5));
    let mut writer_secs = 0.0;
    let reader_out = std::thread::scope(|scope| {
        let reader_tracer = Tracer::new(false, epoch, 2);
        let handle = scope.spawn(|| reader(sessions, &goals, reader_tracer, cfg.trace, &stop));
        match server.open_writer() {
            Ok(writer) => {
                writer_secs = write_loop(
                    writer,
                    &mut churn,
                    &mut writer_tracer,
                    &mut commits,
                    &mut report,
                    s.window,
                    cfg.seconds,
                );
            }
            Err(e) => report.fail(format!("open_writer: {e}")),
        }
        stop.store(true, Ordering::Relaxed);
        handle.join()
    });
    let Ok(reader_out) = reader_out else {
        report.fail("reader thread panicked".into());
        return report;
    };
    report.attempted += reader_out.attempted;
    for f in reader_out.failures.iter().cloned() {
        report.fail(f);
    }
    let rss_growth = crate::trace::rss_mb().1 - rss_after_setup;
    let committed = commits.wall.len() as u64;

    check_final_epoch(&mut report, &server, &base, &churn, committed);

    let reads = &reader_out.reads[0];
    let setup_s = median(&setups);
    let peak_rss_mb = crate::trace::rss_mb().0;
    let reads_per_s = (reads.len() + reader_out.reads[1].len()) as f64 / writer_secs;
    let commits_per_s = committed as f64 / writer_secs;
    report.set("main_p50_ms", quantile(reads, 0.5) * 1e3);
    report.set("main_p90_ms", quantile(reads, 0.9) * 1e3);
    report.set("main_per_s", reads_per_s);
    report.set("side_p50_ms", quantile(&commits.wall, 0.5) * 1e3);
    report.set("side_p90_ms", quantile(&commits.wall, 0.9) * 1e3);
    report.set("side_per_s", commits_per_s);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mb);

    report.line("read_p50_us", quantile(reads, 0.5) * 1e6, "us");
    report.line("read_p90_us", quantile(reads, 0.9) * 1e6, "us");
    report.line("reads_per_s", reads_per_s, "1/s");
    report.line("commit_p50_ms", quantile(&commits.wall, 0.5) * 1e3, "ms");
    report.line("commit_p90_ms", quantile(&commits.wall, 0.9) * 1e3, "ms");
    report.line("commits_per_s", commits_per_s, "1/s");
    report.line("setup_s", setup_s, "s");
    report.line("peak_rss_mb", peak_rss_mb, "MB");
    report.note(format!(
        "samples: reads={} commits={committed} over {writer_secs:.2} s, final epoch {}",
        reads.len() + reader_out.reads[1].len(),
        server.epoch()
    ));

    if cfg.trace {
        let rt = &reader_out.tracer;
        let wt = &writer_tracer;
        report.set("parser.goal_us", median(&rt.durations("parser.goal")) * 1e6);
        report.set(
            "server.refresh_us",
            median(&rt.durations("server.refresh")) * 1e6,
        );
        report.set(
            "server.query_us",
            median(&rt.durations("server.query")) * 1e6,
        );
        report.set("server.open_ms", median(&opens) * 1e3);
        report.set(
            "server.commit_ms",
            median(&wt.durations("server.commit")) * 1e3,
        );
        report.set("server.publish_ms", median(&commits.publish_ms));
        report.set("server.rss_growth_mb", rss_growth);
        report.set("incremental.level_commit_ms", median(&commits.level_ms));
        report.set("incremental.derived_added", commits.derived_added);
        report.set("incremental.derived_removed", commits.derived_removed);
        report.set("incremental.rederived", commits.rederived);
        report.set("incremental.strata_recomputed", commits.strata_recomputed);
        report.set(
            "incremental.recompute_commit_frac",
            commits.recompute_commits / s.window as f64,
        );
        crate::self_times(&mut report, [rt, wt]);
        materialize_levels(&mut report, &db, &levels);
        let overhead = median(&reader_out.reads[1]) / median(reads) - 1.0;
        report.set("trace.overhead_pct", overhead * 100.0);
        report.trace = Some(crate::trace::to_jsonl([rt, wt]));
    }
    report
}

/// The server exposes no `EvalStats`, so the traced run materializes
/// each level of the base database once more, outside the timed loop,
/// for the `reduce` and `eval` counters and the rule ranking: the same
/// work `open_reader` does in set-up.
fn materialize_levels(report: &mut Report, db: &MultiLogDb, levels: &[String]) {
    let mut eval = EvalTotals::default();
    let (mut translate, mut materialize, mut bytes) = (Vec::new(), Vec::new(), 0.0);
    for level in levels {
        report.attempted += 1;
        let start = Instant::now();
        let mut engine =
            match ReducedEngine::with_options_deferred(db, level, EngineOptions::default()) {
                Ok(e) => e,
                Err(e) => return report.fail(format!("reduce at {level}: {e}")),
            };
        let mid = Instant::now();
        if let Err(e) = engine.rematerialize() {
            return report.fail(format!("materialize at {level}: {e}"));
        }
        translate.push((mid - start).as_secs_f64() * 1e3);
        materialize.push(mid.elapsed().as_secs_f64() * 1e3);
        bytes += engine.program_text().len() as f64;
        eval.add(engine.stats());
    }
    report.set("reduce.translate_ms", median(&translate));
    report.set("reduce.program_bytes", bytes);
    report.set("eval.materialize_ms", median(&materialize));
    eval.report(report);
}

/// At the final epoch each level's answers must equal a from-scratch
/// `ReducedEngine` over the base database plus the committed updates.
fn check_final_epoch(
    report: &mut Report,
    server: &BeliefServer,
    base: &ServeDb,
    churn: &Churn,
    committed: u64,
) {
    report.check(server.epoch() == committed, || {
        format!("server epoch {} after {committed} commits", server.epoch())
    });
    let scratch_src = base.render(&churn.present(base));
    let scratch_db = match parse_database(&scratch_src) {
        Ok(db) => db,
        Err(e) => return report.check(false, || format!("final database does not parse: {e}")),
    };
    for (i, level) in base.levels().iter().enumerate() {
        let served = match server.open_reader(level) {
            Ok(s) => s,
            Err(e) => return report.check(false, || format!("final open_reader({level}): {e}")),
        };
        let scratch = match ReducedEngine::new(&scratch_db, level) {
            Ok(e) => e,
            Err(e) => return report.check(false, || format!("scratch engine at {level}: {e}")),
        };
        for goal in base.check_goals(i) {
            let got = served.query_text(&goal).map_err(|e| e.to_string());
            let want = scratch.solve_text(&goal).map_err(|e| e.to_string());
            report.check(got.is_ok() && got == want, || {
                format!(
                    "{level}: `{goal}` at the final epoch differs from a from-scratch reduction"
                )
            });
        }
    }
}
