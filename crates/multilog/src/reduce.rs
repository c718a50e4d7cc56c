//! The reduction semantics of §6: the translation τ from MultiLog to
//! Datalog plus the inference-engine axiom set **A** of Figure 12,
//! executed on the `multilog-datalog` engine (our CORAL substitute).
//!
//! ## Encoding (§6.1)
//!
//! * `τ(l[p(k : a -c-> v)]) = rel(p, k, a, v, c, l)`
//! * `τ(l[p(k : a -c-> v)] << m) = bel(p, k, a, v, c, l, m)`
//! * p-, l-, h-atoms translate to themselves; `⪯` becomes `dominate/2`.
//! * `τ(λ(B, u))` guards every body/query m- and b-atom with
//!   `dominate(l, u)` and `dominate(c, u)` — the Bell–LaPadula *no read
//!   up* conditions, baked in at compile time because the reduced program
//!   cannot enforce per-user views (§6.2).
//!
//! τ builds `dl::Clause` and `dl::Literal` values directly, and the
//! program reaches [`dl::Program::from_clauses`] (the parser's safety and
//! arity checks) without passing through Datalog source text. Goals are
//! translated the same way on every read. [`ReducedEngine::program_text`]
//! renders the evaluated program for `multilog reduce`; the listing
//! re-parses to exactly the engine's clauses.
//!
//! ## Making Figure 12 executable
//!
//! The paper prints the axioms a₁–a₉ ([`paper_axioms`]) and asserts they
//! are stratified. As written they are not: `rel` depends on `bel`
//! whenever a rule body consults a belief, and the cautious axioms make
//! `bel` depend *negatively* on `rel` — a negative cycle for any
//! syntactic stratifier (and a₆/a₉ additionally use unsafe negation).
//! We therefore emit a semantically equivalent *specialized* axiom set:
//!
//! * `bel` is split per mode (`bel_fir`, `bel_opt`, `bel_cau`), so rules
//!   consuming only monotone modes never touch the negation;
//! * when a rule body does consult `<< cau`, `rel` is additionally split
//!   per level (`rel_u`, `rel_c`, …) and the cautious predicates are
//!   generated per level against the *statically known* dominance
//!   relation — the level stratification of the operational engine,
//!   reflected syntactically. This requires ground levels on body m-atoms
//!   (checked; the operational engine has the same restriction for
//!   cautious programs);
//! * the unsafe negations of a₆–a₉ become safe auxiliary predicates
//!   (`visible`, `beaten`): a value is cautiously believed iff it is
//!   visible and no visible value for the same column strictly dominates
//!   its classification — exactly β (Definition 3.1).
//!
//! Theorem 6.1 (equivalence with the operational semantics) is exercised
//! by `tests/equivalence.rs` at the workspace root.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

use multilog_datalog as dl;
use multilog_lattice::SecurityLattice;

use crate::ast::{Atom, Clause, Goal, Head, MAggFunc, MAtom, PAtom, Term};
use crate::belief::Mode;
use crate::db::MultiLogDb;
use crate::engine::{Answer, EngineOptions};
use crate::{MultiLogError, Result};

/// The verbatim inference engine of Figure 12 (axioms a₁–a₉), as printed
/// in the paper. This is the *reproduced artifact*; [`ReducedEngine`]
/// executes the safe specialization described in the module docs.
pub fn paper_axioms() -> &'static str {
    "\
a1: dominate(X, Y) <- order(X, Y).
a2: dominate(X, X) <- level(X).
a3: dominate(X, Y) <- order(X, Z), dominate(Z, Y).
a4: bel(P, K, A, V, C, H, fir) <- rel(P, K, A, V, C, H).
a5: bel(P, K, A, V, C, H, opt) <- rel(P, K, A, V, C, L), dominate(L, H).
a6: bel(P, K, A, V, C, H, cau) <- rel(P, K, A, V, C, H), ~order(L, H).
a7: bel(P, K, A, V, C, H, cau) <- order(L, H), ~rel(P, K, A, V', C', H), bel(P, K, A, V, C, L, cau).
a8: bel(P, K, A, V, C, H, cau) <- rel(P, K, A, V', C', H), rel(P, K, A, V, C, L), dominate(L, H), dominate(C', C).
a9: bel(P, K, A, V, C, H, cau) <- rel(P, K, A, V, C, H), ~rel(P, K, A, V', C', L), dominate(L, H), dominate(C, C')."
}

/// One extensional update to a reduced database: assert or retract a
/// ground m-atom (one classified cell).
///
/// Applied in batches by [`ReducedEngine::apply_updates`], which drives
/// the Datalog back-end's incremental maintenance instead of
/// re-translating and re-evaluating the whole database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EdbUpdate {
    /// Assert the m-atom as a new extensional fact.
    Assert(MAtom),
    /// Retract a previously asserted m-atom. Retracting a cell that was
    /// only ever *derived* (by a Σ rule body) is a no-op: derived beliefs
    /// cannot be deleted out from under their justification.
    Retract(MAtom),
}

/// A MultiLog database reduced to Datalog and evaluated to fixpoint.
///
/// The fixpoint is held by an incremental Datalog engine, so extensional
/// updates ([`ReducedEngine::apply_updates`]) maintain the materialized
/// belief relations by delta propagation rather than recomputation —
/// belief queries stay warm across updates.
pub struct ReducedEngine {
    lattice: Arc<SecurityLattice>,
    user: String,
    incremental: dl::IncrementalEngine,
    /// Whether `rel` was split per level (cautious bodies present).
    level_split: bool,
    /// How many leading clauses of the program are τ(Δ); the axiom set
    /// **A** follows them.
    tau_len: usize,
    /// Guard configuration, replayed onto demand-driven goal runs.
    fact_limit: usize,
    deadline: Option<std::time::Duration>,
    cancel: Option<dl::CancelToken>,
    /// Lattice-flow demand pruning ([`EngineOptions::flow_prune`]).
    prune: Option<FlowPrune>,
}

/// Demand-pruning state: the static flow analysis of the source
/// database plus each Σ/Π clause paired with its τ image, so prunable
/// rules can be dropped from the demand program by structural equality
/// (spans are not identity, see [`crate::ast::Span`]).
///
/// Only the *demand* path prunes; the incremental materialized fixpoint
/// always evaluates the full program, so `solve`/`apply_updates` are
/// untouched and pruning can never change a committed answer.
struct FlowPrune {
    report: crate::flow::FlowReport,
    /// `(source clause, translated clause)` for every Σ/Π rule.
    rules: Vec<(Clause, dl::Clause)>,
    /// Per-level cautious machinery (`visible_h`, `beaten_h`,
    /// `bel_cau_h`) for levels `h` not dominated by the clearance —
    /// nothing at or below the clearance ever reads them, and they are
    /// never update targets (updates land in `rel_*`), so dropping them
    /// is sound independent of updates.
    machinery: HashSet<String>,
    /// Set once any update transaction has been opened: achieved label
    /// sets may have widened beyond the static bounds, so only the
    /// ground-label (update-independent) criteria remain usable.
    tainted: bool,
}

impl std::fmt::Debug for ReducedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReducedEngine")
            .field("user", &self.user)
            .field("level_split", &self.level_split)
            .field("facts", &self.incremental.database().fact_count())
            .finish_non_exhaustive()
    }
}

impl ReducedEngine {
    /// Translate and evaluate `db` at the clearance level named `user`.
    pub fn new(db: &MultiLogDb, user: &str) -> Result<Self> {
        Self::with_options(db, user, EngineOptions::default())
    }

    /// Like [`ReducedEngine::new`], but evaluating the reduced program
    /// under the same guards the operational engine honors: the fact
    /// budget, wall-clock deadline, and cancellation token of `options`.
    /// Guard trips lift back as the MultiLog-level typed errors.
    pub fn with_options(db: &MultiLogDb, user: &str, options: EngineOptions) -> Result<Self> {
        let mut engine = Self::with_options_deferred(db, user, options)?;
        // The initial materialization runs under the configured guards;
        // trips convert through `From<DatalogError>` so callers see the
        // same `BudgetExceeded`/`DeadlineExceeded`/`Cancelled` variants
        // as the operational engine.
        engine.incremental.recover()?;
        Ok(engine)
    }

    /// Like [`ReducedEngine::with_options`], but *without* materializing
    /// the reduced fixpoint. The back-end starts poisoned and the
    /// database empty, so [`ReducedEngine::solve`]/
    /// [`ReducedEngine::solve_text`] (which read the materialization)
    /// return no answers and [`ReducedEngine::apply_updates`] is
    /// unusable until [`ReducedEngine::rematerialize`] runs. Demand-driven
    /// point queries ([`ReducedEngine::solve_demand`]) work immediately:
    /// they evaluate goal-directed against the translated program and
    /// never need the full fixpoint — the cheap entry point for serving a
    /// few point queries without paying for a materialization.
    pub fn with_options_deferred(
        db: &MultiLogDb,
        user: &str,
        options: EngineOptions,
    ) -> Result<Self> {
        // Match the operational engine's Prop 6.1 fallback.
        let lattice = if db.lambda().is_empty() && db.sigma().is_empty() {
            Arc::new(
                multilog_lattice::LatticeBuilder::new()
                    .level(user)
                    .build()
                    .map_err(MultiLogError::Lattice)?,
            )
        } else {
            db.lattice()?
        };
        if lattice.label(user).is_none() {
            return Err(MultiLogError::NotAdmissible {
                detail: format!("user level `{user}` is not a declared level"),
            });
        }
        let level_split = db
            .sigma()
            .iter()
            .chain(db.pi())
            .flat_map(|c| &c.body)
            .any(|a| matches!(a, Atom::B(_, m) if m.as_ref() == "cau"));
        let clauses = translate(db, user, &lattice, level_split)?;
        let tau_len = db.lambda().len() + db.sigma().len() + db.pi().len();
        // Flow pruning needs a real lattice; the Prop 6.1 fallback has
        // no Σ rules to prune anyway.
        let prune = if options.flow_prune && !(db.lambda().is_empty() && db.sigma().is_empty()) {
            // τ maps each clause to one clause, so the Σ/Π images are
            // the τ(Δ) clauses after τ(Λ).
            let images = &clauses[db.lambda().len()..tau_len];
            let rules = db.sigma().iter().chain(db.pi()).cloned();
            let mut machinery = HashSet::new();
            if level_split {
                if let Some(u) = lattice.label(user) {
                    for h in lattice.labels() {
                        if !lattice.leq(h, u) {
                            let hn = lattice.name(h);
                            machinery.insert(format!("visible_{hn}"));
                            machinery.insert(format!("beaten_{hn}"));
                            machinery.insert(format!("bel_cau_{hn}"));
                        }
                    }
                }
            }
            Some(FlowPrune {
                report: crate::flow::analyze_db(db),
                rules: rules.zip(images.iter().cloned()).collect(),
                machinery,
                tainted: false,
            })
        } else {
            None
        };
        let program = dl::Program::from_clauses(clauses).map_err(MultiLogError::Datalog)?;
        let fact_limit = options.limit();
        let mut incremental = dl::IncrementalEngine::new_deferred(&program)
            .map_err(MultiLogError::Datalog)?
            .with_fact_limit(fact_limit);
        if let Some(deadline) = options.deadline {
            incremental = incremental.with_deadline(deadline);
        }
        if let Some(cancel) = &options.cancel {
            incremental = incremental.with_cancel_token(cancel.clone());
        }
        Ok(ReducedEngine {
            lattice,
            user: user.to_owned(),
            incremental,
            level_split,
            tau_len,
            fact_limit,
            deadline: options.deadline,
            cancel: options.cancel,
            prune,
        })
    }

    /// Per-rule / per-stratum statistics from evaluating the reduced
    /// program to fixpoint (the most recent full materialization;
    /// incremental commits report through [`dl::CommitStats`] instead).
    pub fn stats(&self) -> &dl::EvalStats {
        self.incremental.materialize_stats()
    }

    /// The evaluated Datalog program `τ(Δ) ∪ A`: τ(Δ) one clause per
    /// source clause, in source order, then the axiom set.
    pub fn program(&self) -> &dl::Program {
        self.incremental.program()
    }

    /// [`ReducedEngine::program`] as Datalog source, one clause per line,
    /// with a comment line before the axiom set (for inspection,
    /// `multilog reduce` and the figures binary). It parses back to
    /// exactly the program's clauses.
    pub fn program_text(&self) -> String {
        let (tau, axioms) = self.program().clauses().split_at(self.tau_len);
        let mut out = String::new();
        for c in tau {
            let _ = writeln!(out, "{c}");
        }
        out.push_str("% axiom set A (Figure 12, safe specialization)\n");
        for c in axioms {
            let _ = writeln!(out, "{c}");
        }
        out
    }

    /// The evaluated Datalog database.
    pub fn database(&self) -> &dl::Database {
        self.incremental.database()
    }

    /// Apply a batch of extensional updates as one transaction against
    /// the materialized fixpoint. All updates land atomically: either the
    /// whole batch commits and the belief relations are delta-maintained,
    /// or nothing changes.
    ///
    /// Each atom must be ground and its level and classification must be
    /// declared levels of the lattice. Retracting an atom that was never
    /// asserted (or was derived by a rule) is a counted no-op, mirroring
    /// the back-end's semantics.
    ///
    /// # Errors
    ///
    /// [`MultiLogError::NonGroundUpdate`] for an atom with variables;
    /// [`MultiLogError::NotAdmissible`] for an undeclared level or
    /// classification; guard trips poison the back-end, in which case
    /// [`ReducedEngine::rematerialize`] must run before further use.
    pub fn apply_updates(&mut self, updates: &[EdbUpdate]) -> Result<dl::CommitStats> {
        // Validate every atom before touching the transaction, so a bad
        // batch is rejected without opening one.
        let mut encoded: Vec<(bool, dl::SymId, Vec<dl::Const>)> = Vec::with_capacity(updates.len());
        for update in updates {
            let (m, insert) = match update {
                EdbUpdate::Assert(m) => (m, true),
                EdbUpdate::Retract(m) => (m, false),
            };
            let (pred, fact) = self.encode_update(m)?;
            encoded.push((insert, pred, fact));
        }
        // Any update may widen the achieved label sets beyond the static
        // flow bounds; from here on only ground-label pruning is sound.
        if let Some(p) = self.prune.as_mut() {
            p.tainted = true;
        }
        self.incremental.begin()?;
        for (insert, pred, fact) in encoded {
            let staged = if insert {
                self.incremental.insert(pred.as_str(), fact)
            } else {
                self.incremental.retract(pred.as_str(), fact)
            };
            if let Err(e) = staged {
                // Arity clash against the translated program: discard the
                // partial batch so the engine stays usable.
                let _ = self.incremental.rollback();
                return Err(e.into());
            }
        }
        Ok(self.incremental.commit()?)
    }

    /// Whether an aborted update (guard trip mid-commit) left the
    /// materialized database inconsistent.
    pub fn is_poisoned(&self) -> bool {
        self.incremental.is_poisoned()
    }

    /// Rebuild the fixpoint from scratch after a poisoning abort; also
    /// usable to force a full recomputation.
    ///
    /// # Errors
    ///
    /// Any evaluation error from the full materialization.
    pub fn rematerialize(&mut self) -> Result<()> {
        Ok(self.incremental.recover()?)
    }

    /// Encode a ground m-atom into its τ image — the fact a τ(Δ) clause
    /// with this head would assert: the target relation and the
    /// constant tuple, honoring the level split.
    fn encode_update(&self, m: &MAtom) -> Result<(dl::SymId, Vec<dl::Const>)> {
        let non_ground = || MultiLogError::NonGroundUpdate {
            atom: m.to_string(),
        };
        if !m.is_ground() {
            return Err(non_ground());
        }
        for (role, t) in [("level", &m.level), ("classification", &m.class)] {
            let Term::Sym(name) = t else {
                return Err(MultiLogError::NotAdmissible {
                    detail: format!("update {role} `{t}` is not a symbolic level"),
                });
            };
            if self.lattice.label(name).is_none() {
                return Err(MultiLogError::NotAdmissible {
                    detail: format!("update {role} `{name}` is not a declared level"),
                });
            }
        }
        let split = match &m.level {
            Term::Sym(level) if self.level_split => Some(level.as_ref()),
            _ => None,
        };
        let atom = rel_atom(m, split);
        let fact = atom.as_fact().ok_or_else(non_ground)?;
        Ok((atom.predicate, fact))
    }

    /// Solve a MultiLog goal against the reduced database; answers are in
    /// MultiLog terms, sorted, and directly comparable with
    /// [`crate::MultiLogEngine::solve`].
    pub fn solve(&self, goal: &Goal) -> Result<Vec<Answer>> {
        let body = translate_goal(goal, &self.user, self.level_split)?;
        let answers =
            dl::run_query(self.incremental.database(), &body).map_err(MultiLogError::Datalog)?;
        Ok(project_answers(goal, &answers))
    }

    /// Parse and solve a textual MultiLog goal.
    pub fn solve_text(&self, goal: &str) -> Result<Vec<Answer>> {
        self.solve(&crate::parser::parse_goal(goal)?)
    }

    /// Solve a MultiLog goal demand-driven: instead of reading the
    /// materialized fixpoint, rewrite the translated program with the
    /// magic-sets transformation seeded from the goal's constants (the
    /// predicate name, key, and the user's clearance level in the
    /// appended `dominate` guards all bind arguments after the τ
    /// encoding) and evaluate only the demanded sub-fixpoint. Answers
    /// equal [`ReducedEngine::solve`]; the win is that for point queries
    /// only a fraction of the belief relations is computed — and no
    /// materialization is required at all (see
    /// [`ReducedEngine::with_options_deferred`]).
    pub fn solve_demand(&self, goal: &Goal) -> Result<Vec<Answer>> {
        Ok(self.solve_demand_with_stats(goal)?.0)
    }

    /// [`ReducedEngine::solve_demand`], also returning the evaluation
    /// counters of the goal-directed run — [`dl::EvalStats::demand`]
    /// records whether the magic rewrite applied and how much it
    /// materialized.
    pub fn solve_demand_with_stats(&self, goal: &Goal) -> Result<(Vec<Answer>, dl::EvalStats)> {
        let body = translate_goal(goal, &self.user, self.level_split)?;
        let (program, pruned_rules) = self.demand_program()?;
        // Guard trips convert through `From<DatalogError>`, surfacing the
        // same typed errors as a full materialization would.
        let (answers, mut stats) = self.guarded_engine(&program)?.run_for_goal(&body)?;
        if let Some(d) = stats.demand.as_mut() {
            d.pruned_rules = pruned_rules;
        }
        Ok((project_answers(goal, &answers), stats))
    }

    /// Parse and solve a textual MultiLog goal demand-driven.
    pub fn solve_text_demand(&self, goal: &str) -> Result<Vec<Answer>> {
        self.solve_demand(&crate::parser::parse_goal(goal)?)
    }

    /// [`ReducedEngine::solve_demand`] through a [`DemandCache`]: the
    /// magic-sets rewrite is memoized per binding pattern (the
    /// `(predicate, adornment)` key of [`dl::magic::prepared_key`]), so
    /// repeated point goals that differ only in their constants — the
    /// REPL's common shape — skip the per-goal program clone and rewrite
    /// and only replay the prepared sub-fixpoint with a fresh seed.
    /// Answers equal [`ReducedEngine::solve_demand`]; the caller must
    /// [`DemandCache::clear`] the cache after any extensional update
    /// (the prepared programs embed the EDB).
    pub fn solve_demand_cached(&self, goal: &Goal, cache: &mut DemandCache) -> Result<Vec<Answer>> {
        let body = translate_goal(goal, &self.user, self.level_split)?;
        let (key, consts) = dl::magic::prepared_key(&body);
        let prepared = match cache.map.get(&key) {
            Some(entry) => {
                cache.hits += 1;
                entry
            }
            None => {
                let (program, _) = self.demand_program()?;
                cache
                    .map
                    .entry(key)
                    .or_insert_with(|| dl::magic::prepare(&program, &body))
            }
        };
        if let Some(m) = prepared.as_ref().and_then(|p| p.instantiate(&consts)) {
            let db = self.guarded_engine(&m.program)?.run()?;
            return Ok(project_answers(goal, &m.answers(&db)));
        }
        // Nothing to parameterize (or no sound rewrite): the plain
        // demand path handles it, including its cone fallback.
        self.solve_demand(goal)
    }

    /// A batch engine over `program` under this engine's guards.
    fn guarded_engine<'p>(&self, program: &'p dl::Program) -> Result<dl::Engine<'p>> {
        let mut engine = dl::Engine::new(program)?.with_fact_limit(self.fact_limit);
        if let Some(d) = self.deadline {
            engine = engine.with_deadline(d);
        }
        if let Some(c) = &self.cancel {
            engine = engine.with_cancel_token(c.clone());
        }
        Ok(engine)
    }

    /// The program demand-driven goals run against: the current rules
    /// and base, minus everything the flow analysis proves invisible at
    /// this engine's clearance — the per-level cautious machinery above
    /// the clearance, then every Σ/Π rule whose τ image matches a
    /// prunable source clause. Also returns how many clauses were
    /// dropped: 0 unless [`EngineOptions::flow_prune`] was set.
    fn demand_program(&self) -> Result<(dl::Program, usize)> {
        let program = self
            .incremental
            .current_program()
            .map_err(MultiLogError::Datalog)?;
        let Some(p) = self.prune.as_ref() else {
            return Ok((program, 0));
        };
        let before = program.clauses().len();
        let mut out = program;
        if !p.machinery.is_empty() {
            out = out.without_predicates(&p.machinery);
        }
        let excluded: HashSet<dl::Clause> = p
            .rules
            .iter()
            .filter(|(mc, _)| p.report.rule_prunable(mc, &self.user, !p.tainted))
            .map(|(_, t)| t.clone())
            .collect();
        if !excluded.is_empty() {
            out = out.without_clauses(&excluded);
        }
        let dropped = before - out.clauses().len();
        Ok((out, dropped))
    }

    /// The flow analysis backing demand pruning, when
    /// [`EngineOptions::flow_prune`] was set.
    pub fn flow_report(&self) -> Option<&crate::flow::FlowReport> {
        self.prune.as_ref().map(|p| &p.report)
    }

    /// The lattice used by the reduction.
    pub fn lattice(&self) -> &Arc<SecurityLattice> {
        &self.lattice
    }

    /// A detached goal translator for this engine's clearance and
    /// encoding, carrying the engine's guard configuration. Reader
    /// sessions pair it with a pinned [`dl::Snapshot`] to answer goals
    /// without touching (or blocking on) the engine itself.
    pub fn goal_translator(&self) -> GoalTranslator {
        GoalTranslator {
            user: self.user.clone(),
            level_split: self.level_split,
            guards: dl::QueryGuards {
                deadline: self.deadline,
                fact_limit: if self.fact_limit == usize::MAX {
                    0
                } else {
                    self.fact_limit
                },
                cancel: self.cancel.clone(),
            },
        }
    }

    /// Publish the current materialized database: a copy-on-write clone
    /// — an O(#relations) handle sharing all fact segments and index
    /// runs — suitable as a [`dl::GenerationStore`] generation.
    ///
    /// Before cloning, the key column of `bel` and `rel` is indexed on
    /// this engine's own database (sealed once it lags by the unsealed-
    /// tail bound), so the clone carries the runs. Every goal reads one
    /// of the two with its key column as the selective constant, and no
    /// rule probes it, so nothing else would build that index. Checked
    /// on every publish: the stratum-recompute fallback and tombstone
    /// compaction both drop a relation's indexes.
    pub fn database_snapshot(&mut self) -> dl::Database {
        for pred in GOAL_RELATIONS {
            self.incremental
                .ensure_index(dl::SymId::intern(pred), KEY_COLUMN);
        }
        self.incremental.database().clone()
    }
}

/// The relations goals read: τ sends every m-atom goal to `rel` and
/// every b-atom goal to `bel/7` (the level split is rule-side only).
const GOAL_RELATIONS: [&str; 2] = ["bel", "rel"];
/// The column of [`GOAL_RELATIONS`] holding the MultiLog key: τ lays a
/// cell out as `p, k, a, v, c, …` ([`cell_terms`]).
const KEY_COLUMN: usize = 1;

/// The query-side half of the τ translation, detached from the engine.
///
/// A translator knows the clearance level it serves, whether the
/// reduction split `rel` per level, and the session's query guards — the
/// three inputs needed to turn a MultiLog goal into a reduced Datalog
/// body and answer it against *any* database produced by the matching
/// [`ReducedEngine`] (typically a pinned snapshot). It holds no database
/// itself, so readers using one never contend with writers.
#[derive(Clone, Debug)]
pub struct GoalTranslator {
    user: String,
    level_split: bool,
    guards: dl::QueryGuards,
}

impl GoalTranslator {
    /// The clearance level this translator serves.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// Solve a MultiLog goal against `db` (a materialized reduction at
    /// this translator's clearance), under the session guards. Answers
    /// match [`ReducedEngine::solve`] on the same database.
    pub fn solve_on(&self, db: &dl::Database, goal: &Goal) -> Result<Vec<Answer>> {
        let body = translate_goal(goal, &self.user, self.level_split)?;
        let answers =
            dl::run_query_guarded(db, &body, &self.guards).map_err(MultiLogError::Datalog)?;
        Ok(project_answers(goal, &answers))
    }

    /// Parse and solve a textual MultiLog goal against `db`.
    pub fn solve_text_on(&self, db: &dl::Database, goal: &str) -> Result<Vec<Answer>> {
        self.solve_on(db, &crate::parser::parse_goal(goal)?)
    }
}

/// A memo of prepared magic-sets rewrites keyed by goal binding pattern,
/// owned by interactive callers (the REPL) and passed to
/// [`ReducedEngine::solve_demand_cached`]. Entries embed the extensional
/// database of the moment they were prepared: invalidate with
/// [`DemandCache::clear`] after every committed `+`/`-` update.
#[derive(Debug, Default)]
pub struct DemandCache {
    map: std::collections::HashMap<String, Option<dl::magic::PreparedMagic>>,
    hits: u64,
}

impl DemandCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every prepared rewrite (after an extensional update).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Number of distinct binding patterns prepared (including patterns
    /// recorded as not-rewritable).
    #[must_use]
    pub fn entries(&self) -> usize {
        self.map.len()
    }

    /// How many goals were answered from an already-prepared rewrite.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

/// Project Datalog answers back onto the goal's own variables, in
/// MultiLog terms, sorted and deduplicated — the translation may add
/// guard-only variables that must not leak into the answers.
fn project_answers(goal: &Goal, answers: &dl::QueryAnswer) -> Vec<Answer> {
    let goal_vars: Vec<&str> = {
        let mut vs = Vec::new();
        for a in goal {
            for v in a.variables() {
                if !vs.contains(&v) {
                    vs.push(v);
                }
            }
        }
        vs
    };
    let mut out: Vec<Answer> = Vec::new();
    for b in &answers.answers {
        let mut a: Answer = BTreeMap::new();
        for v in &goal_vars {
            if let Some(c) = b.get(*v) {
                a.insert((*v).to_owned(), const_to_term(c));
            }
        }
        out.push(a);
    }
    out.sort();
    out.dedup();
    out
}

/// Translate the full database: `τ(Λ) ∪ τ(Σ) ∪ τ(Π) ∪ A`, one clause per
/// source clause, then the axioms.
fn translate(
    db: &MultiLogDb,
    user: &str,
    lattice: &SecurityLattice,
    level_split: bool,
) -> Result<Vec<dl::Clause>> {
    let mut out = Vec::new();
    for c in db.lambda().iter().chain(db.sigma()).chain(db.pi()) {
        out.push(translate_clause(c, user, level_split)?);
    }
    push_axioms(lattice, level_split, &mut out);
    Ok(out)
}

/// Append the axiom set **A** (Figure 12, safe specialization).
#[rustfmt::skip] // one axiom per line
fn push_axioms(lattice: &SecurityLattice, level_split: bool, out: &mut Vec<dl::Clause>) {
    // `ax(pred, args, body)` appends one axiom with head `pred(args)`.
    // Arguments starting uppercase are variables, the others symbols
    // (level names and modes, which MultiLog spells lowercase).
    fn at(pred: &str, args: &[&str]) -> dl::Atom {
        let arg = |a: &&str| {
            if a.starts_with(char::is_uppercase) {
                dl::Term::var(a)
            } else {
                dl::Term::sym(a)
            }
        };
        dl::Atom::new(pred, args.iter().map(arg).collect())
    }
    let mut ax = |pred: &str, args: &[&str], body: &[dl::Literal]| {
        out.push(dl::Clause::new(at(pred, args), body.to_vec()));
    };
    let p = |pred: &str, args: &[&str]| dl::Literal::Pos(at(pred, args));
    let not = |pred: &str, args: &[&str]| dl::Literal::Neg(at(pred, args));
    let cc = ["C", "C2"];
    let ne = || {
        let [l, r] = cc.map(dl::Term::var);
        dl::Literal::Cmp { op: dl::CmpOp::Ne, lhs: l, rhs: r }
    };
    let cell = ["P", "K", "A", "V", "C"];
    let (cell_h, cell_l) = (["P", "K", "A", "V", "C", "H"], ["P", "K", "A", "V", "C", "L"]);

    ax("dominate", &["X", "Y"], &[p("order", &["X", "Y"])]);
    ax("dominate", &["X", "X"], &[p("level", &["X"])]);
    ax("dominate", &["X", "Y"], &[p("order", &["X", "Z"]), p("dominate", &["Z", "Y"])]);
    if level_split {
        // Union view of the split relation, for queries.
        for l in lattice.labels() {
            let name = lattice.name(l);
            ax("rel", &["P", "K", "A", "V", "C", name], &[p(&level_rel(name), &cell)]);
        }
        // Per-level cautious machinery over the statically known order.
        let (rival, pkac) = (["P", "K", "A", "V2", "C2"], ["P", "K", "A", "C"]);
        for h in lattice.labels() {
            let hn = lattice.name(h);
            let (vis, beaten) = (format!("visible_{hn}"), format!("beaten_{hn}"));
            let cau = format!("bel_cau_{hn}");
            for l in lattice.down_set(h) {
                ax(&vis, &cell, &[p(&level_rel(lattice.name(l)), &cell)]);
            }
            ax(&beaten, &pkac, &[p(&vis, &cell), p(&vis, &rival), p("dominate", &cc), ne()]);
            ax(&cau, &cell, &[p(&vis, &cell), not(&beaten, &pkac)]);
            ax("bel", &["P", "K", "A", "V", "C", hn, "cau"], &[p(&cau, &cell)]);
        }
    } else {
        // Generic cautious machinery (negation confined to query strata).
        let (vis, beaten) = ("visible", "beaten");
        let (rival, pkach) = (["P", "K", "A", "V2", "C2", "H"], ["P", "K", "A", "C", "H"]);
        ax(vis, &cell_h, &[p("rel", &cell_l), p("dominate", &["L", "H"])]);
        ax(beaten, &pkach, &[p(vis, &cell_h), p(vis, &rival), p("dominate", &cc), ne()]);
        ax("bel", &["P", "K", "A", "V", "C", "H", "cau"], &[p(vis, &cell_h), not(beaten, &pkach)]);
    }
    // Monotone modes, split so rule bodies avoid the negation stratum.
    ax("bel_fir", &cell_h, &[p("rel", &cell_h)]);
    ax("bel_opt", &cell_h, &[p("rel", &cell_l), p("dominate", &["L", "H"])]);
    ax("bel", &["P", "K", "A", "V", "C", "H", "fir"], &[p("bel_fir", &cell_h)]);
    ax("bel", &["P", "K", "A", "V", "C", "H", "opt"], &[p("bel_opt", &cell_h)]);
}

/// τ of one source clause.
fn translate_clause(c: &Clause, user: &str, level_split: bool) -> Result<dl::Clause> {
    let head = match &c.head {
        Head::M(m) => {
            let split = if level_split {
                Some(ground_level(m, || {
                    format!(
                        "reduction of `{c}` requires a ground head level when the \
                         program consults `<< cau`"
                    )
                })?)
            } else {
                None
            };
            rel_atom(m, split)
        }
        Head::P(p) => patom(p)?,
        Head::L(t) => dl::Atom::new("level", vec![term(t)]),
        Head::H(l, h) => dl::Atom::new("order", vec![term(l), term(h)]),
    };
    let mut body = Vec::with_capacity(c.body.len());
    for a in &c.body {
        translate_atom(a, user, level_split, false, &mut body)?;
    }
    let clause = dl::Clause::new(head, body);
    // Aggregate heads: the back-end folds per stratum over distinct
    // witness bindings, so polyinstantiated m-atoms at different levels
    // count separately (bag semantics per Bertossi–Gottlob).
    Ok(match c.agg {
        Some(agg) => clause.with_aggregate(dl::Aggregate {
            func: match agg.func {
                MAggFunc::Count => dl::AggFunc::Count,
                MAggFunc::Sum => dl::AggFunc::Sum,
                MAggFunc::Min => dl::AggFunc::Min,
                MAggFunc::Max => dl::AggFunc::Max,
            },
            position: agg.position,
        }),
        None => clause,
    })
}

/// τ(λ(goal, u)): the reduced Datalog body of a goal.
fn translate_goal(goal: &Goal, user: &str, level_split: bool) -> Result<Vec<dl::Literal>> {
    let mut body = Vec::new();
    for atom in goal {
        translate_atom(atom, user, level_split, true, &mut body)?;
    }
    Ok(body)
}

/// τ(λ(B, u)): translate one atom, adding the no-read-up guards for m-
/// and b-atoms. `in_query` distinguishes query-side translation (always
/// the generic predicates) from rule bodies (level/mode specialized).
fn translate_atom(
    atom: &Atom,
    user: &str,
    level_split: bool,
    in_query: bool,
    out: &mut Vec<dl::Literal>,
) -> Result<()> {
    let pos = |pred: &str, terms: Vec<dl::Term>| dl::Literal::Pos(dl::Atom::new(pred, terms));
    let guard = |t: &Term| pos("dominate", vec![term(t), dl::Term::sym(user)]);
    match atom {
        Atom::M(m) => {
            let split = if level_split && !in_query {
                Some(ground_level(m, || {
                    format!(
                        "reduction requires ground body m-atom levels when the \
                         program consults `<< cau` (offending atom: `{m}`)"
                    )
                })?)
            } else {
                None
            };
            out.extend([
                dl::Literal::Pos(rel_atom(m, split)),
                guard(&m.level),
                guard(&m.class),
            ]);
        }
        Atom::B(m, mode) => {
            let mut terms = cell_terms(m);
            let pred = match (Mode::parse(mode), in_query) {
                // Rule bodies use the specialized predicates; under the
                // level split the level names the cautious relation.
                (Some(Mode::Cau), false) if level_split => {
                    let l = ground_level(m, || {
                        format!("`{m} << cau` needs a ground level for reduction")
                    })?;
                    format!("bel_cau_{l}")
                }
                (Some(Mode::Fir), false) => {
                    terms.push(term(&m.level));
                    "bel_fir".to_owned()
                }
                (Some(Mode::Opt), false) => {
                    terms.push(term(&m.level));
                    "bel_opt".to_owned()
                }
                // Queries and user modes go through the generic bel/7.
                _ => {
                    terms.extend([term(&m.level), dl::Term::sym(mode.as_ref())]);
                    "bel".to_owned()
                }
            };
            out.extend([pos(&pred, terms), guard(&m.level), guard(&m.class)]);
        }
        Atom::P(p) => out.push(dl::Literal::Pos(patom(p)?)),
        Atom::L(t) => out.push(pos("level", vec![term(t)])),
        Atom::H(l, h) => out.push(pos("order", vec![term(l), term(h)])),
        Atom::Leq(l, h) => out.push(pos("dominate", vec![term(l), term(h)])),
    }
    Ok(())
}

/// The level of `m`, which must be ground: under the level split, an
/// m-atom's level names its relation. `detail` explains a failure.
fn ground_level(m: &MAtom, detail: impl FnOnce() -> String) -> Result<&str> {
    match &m.level {
        Term::Sym(level) => Ok(level),
        _ => Err(MultiLogError::NotBeliefStratified { detail: detail() }),
    }
}

/// The relation holding the level-`level` cells when `rel` is split per
/// level.
fn level_rel(level: &str) -> String {
    format!("rel_{level}")
}

/// `p, k, a, v, c`: the columns of an m-atom's τ image before its level.
fn cell_terms(m: &MAtom) -> Vec<dl::Term> {
    vec![
        dl::Term::sym(m.pred.as_ref()),
        term(&m.key),
        dl::Term::sym(m.attr.as_ref()),
        term(&m.value),
        term(&m.class),
    ]
}

/// τ of an m-atom: `rel_l(p, k, a, v, c)` when `split` names the level
/// `l` of a level-split reduction, else `rel(p, k, a, v, c, l)`.
fn rel_atom(m: &MAtom, split: Option<&str>) -> dl::Atom {
    let mut terms = cell_terms(m);
    match split {
        Some(level) => dl::Atom::new(level_rel(level), terms),
        None => {
            terms.push(term(&m.level));
            dl::Atom::new("rel", terms)
        }
    }
}

/// τ of a p-atom: the atom itself, except that an algorithm call
/// `@name(input, t…)` becomes the Datalog layer's call predicate
/// ([`dl::algo::call_predicate`]) over `t…`.
fn patom(p: &PAtom) -> Result<dl::Atom> {
    let Some(name) = p.pred.strip_prefix('@') else {
        return Ok(dl::Atom::new(
            p.pred.as_ref(),
            p.args.iter().map(term).collect(),
        ));
    };
    let Some((Term::Sym(input), args)) = p.args.split_first() else {
        return Err(MultiLogError::NotAdmissible {
            detail: format!("algorithm call `{p}` needs an input predicate name first"),
        });
    };
    Ok(dl::Atom::new(
        dl::algo::call_predicate(name, input),
        args.iter().map(term).collect(),
    ))
}

/// A MultiLog term as a Datalog term: `⊥` becomes the symbol `null`.
fn term(t: &Term) -> dl::Term {
    match t {
        Term::Var(v) => dl::Term::Var(Arc::clone(v)),
        Term::Sym(s) => dl::Term::sym(s.as_ref()),
        Term::Int(i) => dl::Term::int(*i),
        Term::Null => dl::Term::sym("null"),
    }
}

fn const_to_term(c: &dl::Const) -> Term {
    match c {
        dl::Const::Sym(s) if s.as_ref() == "null" => Term::Null,
        dl::Const::Sym(s) => Term::sym(s.as_ref()),
        dl::Const::Int(i) => Term::Int(*i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_database;
    use crate::MultiLogEngine;

    const D1: &str = r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        u[p(k : a -u-> v)].
        c[p(k : a -c-> t)] <- q(j).
        s[p(k : a -u-> v)] <- c[p(k : a -c-> t)] << cau.
        q(j).
    "#;

    #[test]
    fn d1_reduces_and_evaluates() {
        let db = parse_database(D1).unwrap();
        let red = ReducedEngine::new(&db, "s").unwrap();
        // The three rel facts (split per level, unioned into rel/6).
        assert_eq!(red.database().relation("rel").unwrap().len(), 3);
        assert!(red.program_text().contains("rel_u(p, k, a, v, u)."));
        assert!(red.program_text().contains("bel_cau_c"));
    }

    #[test]
    fn figure11_query_through_reduction() {
        let db = parse_database(D1).unwrap();
        let red = ReducedEngine::new(&db, "c").unwrap();
        let ans = red.solve_text("c[p(k : a -u-> v)] << opt").unwrap();
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn reduction_agrees_with_operational_on_d1() {
        let db = parse_database(D1).unwrap();
        for user in ["u", "c", "s"] {
            let op = MultiLogEngine::new(&db, user).unwrap();
            let red = ReducedEngine::new(&db, user).unwrap();
            for goal in [
                "L[p(k : a -C-> V)]",
                "L[p(k : a -C-> V)] << fir",
                "L[p(k : a -C-> V)] << opt",
                "L[p(k : a -C-> V)] << cau",
                "q(X)",
                "u leq L",
            ] {
                let a = op.solve_text(goal).unwrap();
                let b = red.solve_text(goal).unwrap();
                assert_eq!(a, b, "goal `{goal}` at user {user}");
            }
        }
    }

    #[test]
    fn demand_answers_match_materialized_on_d1() {
        let db = parse_database(D1).unwrap();
        for user in ["u", "c", "s"] {
            let red = ReducedEngine::new(&db, user).unwrap();
            for goal in [
                "L[p(k : a -C-> V)]",
                "s[p(k : a -C-> V)] << fir",
                "s[p(k : a -C-> V)] << opt",
                "c[p(k : a -C-> V)] << cau",
                "q(X)",
                "u leq L",
            ] {
                assert_eq!(
                    red.solve_text(goal).unwrap(),
                    red.solve_text_demand(goal).unwrap(),
                    "goal `{goal}` at user {user}"
                );
            }
        }
    }

    #[test]
    fn cached_demand_matches_uncached_and_counts_hits() {
        let db = parse_database(D1).unwrap();
        let mut cache = DemandCache::new();
        for user in ["u", "c", "s"] {
            let red = ReducedEngine::new(&db, user).unwrap();
            cache.clear();
            for goal in [
                "L[p(k : a -C-> V)]",
                "s[p(k : a -C-> V)] << fir",
                "s[p(k : a -C-> V)] << opt",
                "c[p(k : a -C-> V)] << cau",
                "q(X)",
                "u leq L",
            ] {
                let parsed = crate::parser::parse_goal(goal).unwrap();
                let expect = red.solve_text_demand(goal).unwrap();
                // Twice: miss then hit, identical answers both times.
                for _ in 0..2 {
                    assert_eq!(
                        red.solve_demand_cached(&parsed, &mut cache).unwrap(),
                        expect,
                        "goal `{goal}` at user {user}"
                    );
                }
            }
        }
        assert!(cache.entries() >= 1);
        assert!(cache.hits() >= 6, "repeats must hit: {}", cache.hits());
    }

    #[test]
    fn cached_demand_shares_one_rewrite_across_constants() {
        // Goals differing only in the key constant share a prepared
        // rewrite: one entry, and from the second goal on, hits.
        let db = parse_database(D1).unwrap();
        let red = ReducedEngine::new(&db, "s").unwrap();
        let mut cache = DemandCache::new();
        for key in ["k", "k2", "k3"] {
            let goal = format!("s[p({key} : a -C-> V)] << opt");
            let parsed = crate::parser::parse_goal(&goal).unwrap();
            assert_eq!(
                red.solve_demand_cached(&parsed, &mut cache).unwrap(),
                red.solve_text_demand(&goal).unwrap(),
                "goal `{goal}`"
            );
        }
        assert_eq!(cache.entries(), 1, "one binding pattern");
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn demand_stats_report_magic_for_point_queries() {
        let db = parse_database(D1).unwrap();
        let red = ReducedEngine::new(&db, "s").unwrap();
        let goal = crate::parser::parse_goal("s[p(k : a -C-> V)] << opt").unwrap();
        let (answers, stats) = red.solve_demand_with_stats(&goal).unwrap();
        assert!(!answers.is_empty());
        let demand = stats.demand.expect("demand stats recorded");
        // τ appends `dominate(level, user)` guards, so every reduced goal
        // has bound arguments and the magic rewrite engages.
        assert_eq!(demand.strategy, "magic");
        assert!(demand.adorned_predicates >= 1);
    }

    #[test]
    fn deferred_engine_answers_point_queries_without_materializing() {
        let db = parse_database(D1).unwrap();
        let red = ReducedEngine::with_options_deferred(&db, "s", EngineOptions::default()).unwrap();
        assert!(red.is_poisoned(), "deferred engines start unmaterialized");
        assert_eq!(red.database().fact_count(), 0);
        let ans = red.solve_text_demand("s[p(k : a -C-> V)] << opt").unwrap();
        let full = ReducedEngine::new(&db, "s").unwrap();
        assert_eq!(ans, full.solve_text("s[p(k : a -C-> V)] << opt").unwrap());
        // The deferred engine still never materialized anything.
        assert_eq!(red.database().fact_count(), 0);
    }

    /// A level-skewed database: everything interesting lives at `s`,
    /// so a `u`-cleared demand run should be able to drop most rules.
    const SKEWED: &str = r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        u[low(k : a -u-> v1)].
        s[hi(k : a -s-> w1)].
        s[hi2(k : a -s-> V)] <- s[hi(k : a -s-> V)].
        L[mix(K : b -C-> V)] <- L[hi(K : a -C-> V)].
        u[low2(K : a -C-> V)] <- u[low(K : a -C-> V)].
    "#;

    fn prune_options() -> EngineOptions {
        EngineOptions {
            flow_prune: true,
            ..EngineOptions::default()
        }
    }

    #[test]
    fn flow_pruned_demand_answers_match_unpruned() {
        for src in [D1, SKEWED] {
            let db = parse_database(src).unwrap();
            for user in ["u", "c", "s"] {
                let plain = ReducedEngine::new(&db, user).unwrap();
                let pruned = ReducedEngine::with_options(&db, user, prune_options()).unwrap();
                for goal in [
                    "L[p(k : a -C-> V)]",
                    "L[p(k : a -C-> V)] << cau",
                    "L[hi2(k : a -C-> V)]",
                    "L[mix(k : b -C-> V)]",
                    "L[low2(k : a -C-> V)] << opt",
                    "q(X)",
                ] {
                    assert_eq!(
                        plain.solve_text_demand(goal).unwrap(),
                        pruned.solve_text_demand(goal).unwrap(),
                        "goal `{goal}` at user {user}"
                    );
                }
            }
        }
    }

    #[test]
    fn flow_pruning_shrinks_the_demand_program_at_low_clearance() {
        let db = parse_database(SKEWED).unwrap();
        let pruned = ReducedEngine::with_options(&db, "u", prune_options()).unwrap();
        let goal = crate::parser::parse_goal("u[low2(k : a -C-> V)]").unwrap();
        let (answers, stats) = pruned.solve_demand_with_stats(&goal).unwrap();
        assert_eq!(answers.len(), 1);
        let demand = stats.demand.expect("demand stats recorded");
        // The `s`-headed rule and the hi-consuming generic rule are
        // both statically invisible at `u`.
        assert!(demand.pruned_rules >= 2, "pruned {}", demand.pruned_rules);
        // At the top clearance nothing is prunable in SKEWED.
        let top = ReducedEngine::with_options(&db, "s", prune_options()).unwrap();
        let (_, stats) = top.solve_demand_with_stats(&goal).unwrap();
        assert_eq!(stats.demand.unwrap().pruned_rules, 0);
        // Without the option the count stays 0 even at `u`.
        let plain = ReducedEngine::new(&db, "u").unwrap();
        let (_, stats) = plain.solve_demand_with_stats(&goal).unwrap();
        assert_eq!(stats.demand.unwrap().pruned_rules, 0);
    }

    #[test]
    fn flow_pruning_drops_cau_machinery_above_clearance() {
        // D1 consults `<< cau`, so the reduction splits per level and
        // emits visible_/beaten_/bel_cau_ for every level; at `u` the
        // `c` and `s` machinery is statically unreadable.
        let db = parse_database(D1).unwrap();
        let pruned = ReducedEngine::with_options(&db, "u", prune_options()).unwrap();
        let goal = crate::parser::parse_goal("L[p(k : a -C-> V)] << cau").unwrap();
        let (answers, stats) = pruned.solve_demand_with_stats(&goal).unwrap();
        assert!(stats.demand.unwrap().pruned_rules > 0);
        let plain = ReducedEngine::new(&db, "u").unwrap();
        assert_eq!(answers, plain.solve_demand(&goal).unwrap());
    }

    #[test]
    fn updates_disable_bounds_pruning_but_keep_answers_sound() {
        let src = r#"
            level(u). level(s). order(u, s).
            s[hi(k : a -s-> w)].
            L[q(K : b -C-> V)] <- L[hi(K : a -C-> V)].
        "#;
        let db = parse_database(src).unwrap();
        let mut pruned = ReducedEngine::with_options(&db, "u", prune_options()).unwrap();
        let goal = crate::parser::parse_goal("u[q(k : b -C-> V)]").unwrap();
        // Statically, `hi` only achieves level s: the rule is pruned at
        // clearance u and the (correct) answer is empty.
        let (answers, stats) = pruned.solve_demand_with_stats(&goal).unwrap();
        assert!(answers.is_empty());
        assert!(stats.demand.unwrap().pruned_rules > 0);
        // An update widens `hi` down to u — the static bound no longer
        // covers the data, so bounds-based pruning must switch off and
        // the new derivation must appear.
        let atom = match crate::parser::parse_goal("u[hi(k : a -u-> fresh)]")
            .unwrap()
            .remove(0)
        {
            Atom::M(m) => m,
            other => panic!("unexpected {other:?}"),
        };
        pruned
            .apply_updates(&[EdbUpdate::Assert(atom.clone())])
            .unwrap();
        let (answers, stats) = pruned.solve_demand_with_stats(&goal).unwrap();
        assert_eq!(answers.len(), 1, "update-derived answer must survive");
        assert_eq!(stats.demand.unwrap().pruned_rules, 0);
        // Cross-check against an unpruned engine fed the same update.
        let mut plain = ReducedEngine::new(&db, "u").unwrap();
        plain.apply_updates(&[EdbUpdate::Assert(atom)]).unwrap();
        assert_eq!(
            pruned.solve_demand(&goal).unwrap(),
            plain.solve_demand(&goal).unwrap()
        );
    }

    #[test]
    fn algo_call_answers_through_reduction() {
        // Pure-Π database (Prop 6.1 degeneration) calling the native
        // reachability operator.
        let db =
            parse_database("edge(a, b). edge(b, c). edge(c, d). reach(X, Y) <- @bfs(edge, X, Y).")
                .unwrap();
        let red = ReducedEngine::new(&db, "system").unwrap();
        assert_eq!(red.solve_text("reach(a, Y)").unwrap().len(), 3);
        assert_eq!(red.solve_text("reach(X, Y)").unwrap().len(), 6);
        assert_eq!(
            red.solve_text_demand("reach(a, Y)").unwrap(),
            red.solve_text("reach(a, Y)").unwrap()
        );
    }

    /// The `level_dashboard` shape in miniature: per-clearance counts of
    /// optimistically believed cells, aggregated directly over the
    /// b-atom so polyinstantiated cells count once per classification.
    const DASHBOARD: &str = r#"
        level(u). level(c). level(s).
        order(u, c). order(c, s).
        u[emp(e1 : sal -u-> v1)].
        c[emp(e1 : sal -c-> v2)].
        s[emp(e2 : sal -s-> v3)].
        total(H, count(K)) <- H[emp(K : sal -C-> V)] << opt, level(H).
    "#;

    #[test]
    fn aggregate_dashboard_counts_polyinstantiated_witnesses_per_level() {
        let db = parse_database(DASHBOARD).unwrap();
        let red = ReducedEngine::new(&db, "s").unwrap();
        let ans = red.solve_text("total(H, N)").unwrap();
        let by_level: BTreeMap<String, Term> = ans
            .iter()
            .map(|a| (a["H"].to_string(), a["N"].clone()))
            .collect();
        // u sees e1's u-cell; c additionally the polyinstantiated c-cell
        // (distinct witness, same key); s also e2's cell.
        assert_eq!(by_level["u"], Term::Int(1));
        assert_eq!(by_level["c"], Term::Int(2));
        assert_eq!(by_level["s"], Term::Int(3));
    }

    #[test]
    fn aggregate_goals_answered_demand_driven_and_after_updates() {
        let db = parse_database(DASHBOARD).unwrap();
        let mut red = ReducedEngine::new(&db, "s").unwrap();
        assert_eq!(
            red.solve_text_demand("total(s, N)").unwrap(),
            red.solve_text("total(s, N)").unwrap()
        );
        // An update re-derives the aggregate (whole-commit recompute in
        // the back-end, since no per-fact delta exists for folds).
        red.apply_updates(&[EdbUpdate::Assert(goal_matom("u[emp(e3 : sal -u-> v4)]"))])
            .unwrap();
        let ans = red.solve_text("total(u, N)").unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0]["N"], Term::Int(2));
    }

    #[test]
    fn aggregate_clearance_guards_limit_the_dashboard() {
        // At clearance u the c- and s-level cells are never visible, so
        // only the u row survives the no-read-up guards.
        let db = parse_database(DASHBOARD).unwrap();
        let red = ReducedEngine::new(&db, "u").unwrap();
        let ans = red.solve_text("total(H, N)").unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0]["H"], Term::sym("u"));
        assert_eq!(ans[0]["N"], Term::Int(1));
    }

    #[test]
    fn paper_axioms_listing_is_complete() {
        let text = paper_axioms();
        for a in [
            "a1:",
            "a5:",
            "a9:",
            "dominate",
            "bel(P, K, A, V, C, H, cau)",
        ] {
            assert!(text.contains(a));
        }
    }

    #[test]
    fn guards_enforce_no_read_up() {
        let db = parse_database(D1).unwrap();
        let red = ReducedEngine::new(&db, "u").unwrap();
        assert!(red.solve_text("c[p(k : a -c-> t)]").unwrap().is_empty());
        assert_eq!(red.solve_text("u[p(k : a -u-> v)]").unwrap().len(), 1);
    }

    #[test]
    fn datalog_degeneration_prop61() {
        // Prop 6.1: a pure Datalog database reduces to itself (modulo the
        // inert axiom set) and yields classical answers.
        let db = parse_database("q(a). q(b). r(X) <- q(X). p(X, Y) <- q(X), q(Y).").unwrap();
        let red = ReducedEngine::new(&db, "system").unwrap();
        assert_eq!(red.solve_text("r(X)").unwrap().len(), 2);
        assert_eq!(red.solve_text("p(X, Y)").unwrap().len(), 4);
        let op = MultiLogEngine::new(&db, "system").unwrap();
        assert_eq!(
            op.solve_text("p(X, Y)").unwrap(),
            red.solve_text("p(X, Y)").unwrap()
        );
    }

    #[test]
    fn monotone_program_uses_generic_axioms() {
        let src = r#"
            level(u). level(s). order(u, s).
            u[p(k : a -u-> v)].
            s[q(k : b -s-> w)] <- u[p(k : a -u-> v)] << opt.
        "#;
        let db = parse_database(src).unwrap();
        let red = ReducedEngine::new(&db, "s").unwrap();
        assert!(
            !red.program_text().contains("rel_u"),
            "no level split needed"
        );
        assert_eq!(red.solve_text("s[q(k : b -s-> w)]").unwrap().len(), 1);
    }

    #[test]
    fn unknown_user_level_rejected() {
        let db = parse_database("level(u). u[p(k : a -u-> v)].").unwrap();
        assert!(ReducedEngine::new(&db, "zz").is_err());
    }

    fn goal_matom(text: &str) -> MAtom {
        match crate::parser::parse_goal(text).unwrap().remove(0) {
            Atom::M(m) => m,
            other => panic!("not an m-atom: {other}"),
        }
    }

    #[test]
    fn updates_maintain_belief_relations_incrementally() {
        let db = parse_database(D1).unwrap();
        let mut red = ReducedEngine::new(&db, "s").unwrap();
        let stats = red
            .apply_updates(&[EdbUpdate::Assert(goal_matom("u[p(k2 : a -u-> w)]"))])
            .unwrap();
        assert_eq!(stats.edb_inserted, 1);
        assert!(stats.derived_added > 0, "belief relations were maintained");
        assert_eq!(
            red.solve_text("s[p(k2 : a -u-> w)] << opt").unwrap().len(),
            1
        );
        red.apply_updates(&[EdbUpdate::Retract(goal_matom("u[p(k2 : a -u-> w)]"))])
            .unwrap();
        assert!(red
            .solve_text("s[p(k2 : a -u-> w)] << opt")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn updates_agree_with_full_rebuild() {
        let db = parse_database(D1).unwrap();
        let mut red = ReducedEngine::new(&db, "s").unwrap();
        red.apply_updates(&[
            EdbUpdate::Assert(goal_matom("u[p(k2 : a -u-> w)]")),
            EdbUpdate::Retract(goal_matom("u[p(k : a -u-> v)]")),
        ])
        .unwrap();
        let src = D1.replace("u[p(k : a -u-> v)].", "u[p(k2 : a -u-> w)].");
        let fresh = ReducedEngine::new(&parse_database(&src).unwrap(), "s").unwrap();
        for goal in [
            "L[p(K : a -C-> V)]",
            "L[p(K : a -C-> V)] << fir",
            "L[p(K : a -C-> V)] << opt",
            "L[p(K : a -C-> V)] << cau",
        ] {
            assert_eq!(
                red.solve_text(goal).unwrap(),
                fresh.solve_text(goal).unwrap(),
                "goal `{goal}`"
            );
        }
    }

    #[test]
    fn retracting_a_derived_cell_is_a_no_op() {
        let db = parse_database(D1).unwrap();
        let mut red = ReducedEngine::new(&db, "c").unwrap();
        // The c-level cell is derived by r7's body, not asserted: it
        // cannot be deleted out from under its justification.
        let stats = red
            .apply_updates(&[EdbUpdate::Retract(goal_matom("c[p(k : a -c-> t)]"))])
            .unwrap();
        assert_eq!(stats.edb_retracted, 0);
        assert_eq!(red.solve_text("c[p(k : a -c-> t)]").unwrap().len(), 1);
    }

    #[test]
    fn bad_updates_are_rejected_without_poisoning() {
        let db = parse_database(D1).unwrap();
        let mut red = ReducedEngine::new(&db, "s").unwrap();
        let e = red.apply_updates(&[EdbUpdate::Assert(goal_matom("u[p(K : a -u-> w)]"))]);
        assert!(matches!(e, Err(MultiLogError::NonGroundUpdate { .. })));
        let e = red.apply_updates(&[EdbUpdate::Assert(goal_matom("zz[p(k : a -u-> w)]"))]);
        assert!(matches!(e, Err(MultiLogError::NotAdmissible { .. })));
        assert!(!red.is_poisoned());
        assert_eq!(red.solve_text("u[p(k : a -u-> v)]").unwrap().len(), 1);
    }

    #[test]
    fn updates_work_without_level_split() {
        let src = r#"
            level(u). level(s). order(u, s).
            u[p(k : a -u-> v)].
        "#;
        let db = parse_database(src).unwrap();
        let mut red = ReducedEngine::new(&db, "s").unwrap();
        red.apply_updates(&[EdbUpdate::Assert(goal_matom("s[p(k : a -s-> w)]"))])
            .unwrap();
        assert_eq!(red.solve_text("L[p(k : a -C-> V)]").unwrap().len(), 2);
        red.apply_updates(&[EdbUpdate::Retract(goal_matom("u[p(k : a -u-> v)]"))])
            .unwrap();
        assert_eq!(red.solve_text("L[p(k : a -C-> V)]").unwrap().len(), 1);
    }

    #[test]
    fn goal_translator_answers_from_pinned_snapshots() {
        let db = parse_database(D1).unwrap();
        let mut red = ReducedEngine::new(&db, "s").unwrap();
        let translator = red.goal_translator();
        let pinned = red.database_snapshot();
        let goal = "L[p(K : a -C-> V)] << opt";
        // On the live database the translator agrees with solve().
        assert_eq!(
            translator.solve_text_on(red.database(), goal).unwrap(),
            red.solve_text(goal).unwrap()
        );
        let before = translator.solve_text_on(&pinned, goal).unwrap();
        // Mutate the engine; the pinned clone still answers the old state.
        red.apply_updates(&[EdbUpdate::Assert(goal_matom("u[p(k2 : a -u-> w)]"))])
            .unwrap();
        assert_eq!(translator.solve_text_on(&pinned, goal).unwrap(), before);
        assert!(
            translator
                .solve_text_on(red.database(), goal)
                .unwrap()
                .len()
                > before.len()
        );
    }

    #[test]
    fn reserved_word_values_update_and_answer_on_snapshots() {
        // `mod` is a keyword of the Datalog syntax but a plain MultiLog
        // identifier: the serve path must store and answer it like any
        // other value.
        let db = parse_database("level(u). level(s). order(u, s). u[p(k : a -u-> v)].").unwrap();
        let mut red = ReducedEngine::new(&db, "s").unwrap();
        red.apply_updates(&[EdbUpdate::Assert(goal_matom("u[p(k2 : a -u-> mod)]"))])
            .unwrap();
        let (translator, pinned) = (red.goal_translator(), red.database_snapshot());
        let solve = |goal: &str| {
            let goal = crate::parser::parse_goal(goal).unwrap();
            translator.solve_on(&pinned, &goal).unwrap()
        };
        let answers = solve("u[p(k2 : a -C-> V)]");
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0]["V"], Term::sym("mod"));
        // The reserved word as a goal constant translates too.
        let answers = solve("u[p(K : a -C-> mod)]");
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0]["K"], Term::sym("k2"));
    }

    #[test]
    fn null_roundtrips() {
        let src = r#"
            level(u).
            u[p(k : a -u-> null)].
        "#;
        let db = parse_database(src).unwrap();
        let red = ReducedEngine::new(&db, "u").unwrap();
        let ans = red.solve_text("u[p(k : a -u-> V)]").unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0]["V"], Term::Null);
    }
}
