//! Property tests for the incremental maintenance subsystem: after any
//! random interleaving of insert/retract transactions, the maintained
//! database must equal the from-scratch fixpoint over the surviving
//! base facts — through positive recursion and across negation strata,
//! both by the delta rules alone and through the per-stratum recompute
//! fallback.

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;

use proptest::prelude::*;

use multilog_datalog::{
    parse_program, CommitStats, Const, Database, Engine, IncrementalEngine, Program,
};

/// Rules spanning three strata: recursive closure, negation over the
/// closure, and negation over that. `edge` and `b` are the churned base
/// relations.
const RULES: &str = "path(X, Y) :- edge(X, Y).\n\
                     path(X, Z) :- edge(X, Y), path(Y, Z).\n\
                     node(X) :- edge(X, Y).\n\
                     node(Y) :- edge(X, Y).\n\
                     sink(X) :- node(X), not edge(X, Y).\n\
                     unreach(X, Y) :- node(X), node(Y), not path(X, Y).\n\
                     lonely(X) :- b(X), not node(X).\n";

/// One staged update: `(on_edge, insert, x, y)`. `y` is ignored for the
/// unary relation `b`.
type Update = (bool, bool, usize, usize);

/// A transaction history: each inner vector is one `begin`…`commit`.
fn arb_history() -> impl Strategy<Value = Vec<Vec<Update>>> {
    let update = (any::<bool>(), any::<bool>(), 0usize..5, 0usize..5);
    proptest::collection::vec(proptest::collection::vec(update, 1..5), 1..8)
}

/// Initial seed facts so the engine materializes a non-trivial fixpoint
/// before the first commit.
fn seed_src() -> String {
    format!("edge(n0, n1).\nedge(n1, n2).\nb(n0).\nb(n3).\n{RULES}")
}

/// The reference model: the surviving base facts as plain sets.
#[derive(Default)]
struct BaseModel {
    edges: BTreeSet<(usize, usize)>,
    bs: BTreeSet<usize>,
}

impl BaseModel {
    fn seeded() -> Self {
        BaseModel {
            edges: [(0, 1), (1, 2)].into(),
            bs: [0, 3].into(),
        }
    }

    /// The equivalent from-scratch program: rules plus surviving base.
    fn program(&self) -> Program {
        let mut src = String::new();
        for &(x, y) in &self.edges {
            src.push_str(&format!("edge(n{x}, n{y}).\n"));
        }
        for &x in &self.bs {
            src.push_str(&format!("b(n{x}).\n"));
        }
        src.push_str(RULES);
        parse_program(&src).expect("model program is valid")
    }
}

fn all_facts(db: &Database) -> Vec<(String, Box<[Const]>)> {
    let mut out = Vec::new();
    for (pred, rel) in db.relations() {
        for f in rel.sorted() {
            out.push((pred.to_owned(), f));
        }
    }
    out.sort();
    out
}

/// The cautious-belief self-join shape of the MultiLog reduction (see
/// `engine_properties.rs`): `beaten` joins `vis` with itself on (owner,
/// key, level), and the owner column holds a single value, so one merge
/// key group spans the whole relation.
const POLY_RULES: &str = "vis(P, K, V, C, H) :- cell(P, K, V, C), dom(C, H).\n\
     beaten(P, K, C, H) :- vis(P, K, V, C, H), vis(P, K, V2, C2, H), dom(C, C2), C != C2.\n\
     cau(P, K, V, C, H) :- vis(P, K, V, C, H), not beaten(P, K, C, H).\n";

/// `dom` over four totally ordered levels, then one `cell(emp, …)`
/// fact per `(key, value, level)` in `cells`, then [`POLY_RULES`].
fn poly_program(cells: &BTreeSet<(usize, usize, usize)>) -> Program {
    let mut src = String::new();
    for lo in 0..4 {
        for hi in lo..4 {
            src.push_str(&format!("dom(l{lo}, l{hi}).\n"));
        }
    }
    for (k, v, l) in cells {
        src.push_str(&format!("cell(emp, k{k}, v{v}, l{l}).\n"));
    }
    src.push_str(POLY_RULES);
    parse_program(&src).expect("generated program is valid")
}

fn cell_fact((k, v, l): (usize, usize, usize)) -> Vec<Const> {
    vec![
        Const::sym("emp"),
        Const::sym(format!("k{k}")),
        Const::sym(format!("v{v}")),
        Const::sym(format!("l{l}")),
    ]
}

/// Apply one transaction to both the engine and the set model.
fn apply_commit(
    engine: &mut IncrementalEngine,
    model: &mut BaseModel,
    commit: &[Update],
) -> CommitStats {
    engine.begin().unwrap();
    for &(on_edge, insert, x, y) in commit {
        if on_edge {
            let fact = vec![Const::sym(format!("n{x}")), Const::sym(format!("n{y}"))];
            if insert {
                engine.insert("edge", fact).unwrap();
                model.edges.insert((x, y));
            } else {
                engine.retract("edge", fact).unwrap();
                model.edges.remove(&(x, y));
            }
        } else {
            let fact = vec![Const::sym(format!("n{x}"))];
            if insert {
                engine.insert("b", fact).unwrap();
                model.bs.insert(x);
            } else {
                engine.retract("b", fact).unwrap();
                model.bs.remove(&x);
            }
        }
    }
    engine.commit().unwrap()
}

/// The maintained database must equal the from-scratch fixpoint of the
/// model's surviving base, with empty relations ignored (retractions can
/// drain a relation the scratch program never mentions).
fn assert_matches_model(
    engine: &IncrementalEngine,
    model: &BaseModel,
) -> Result<(), TestCaseError> {
    let scratch = Engine::new(&model.program()).unwrap().run().unwrap();
    prop_assert_eq!(all_facts(engine.database()), all_facts(&scratch));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_equals_scratch_after_every_commit(history in arb_history()) {
        let program = parse_program(&seed_src()).unwrap();
        let mut engine = IncrementalEngine::new(&program).unwrap();
        let mut model = BaseModel::seeded();
        for commit in &history {
            apply_commit(&mut engine, &mut model, commit);
            assert_matches_model(&engine, &model)?;
        }
    }

    #[test]
    fn threaded_incremental_equals_scratch(history in arb_history()) {
        let program = parse_program(&seed_src()).unwrap();
        let mut engine = IncrementalEngine::new(&program)
            .unwrap()
            .with_threads(4);
        // Re-materialize under the threaded configuration so the
        // parallel evaluation path is exercised too.
        engine.recover().unwrap();
        let mut model = BaseModel::seeded();
        for commit in &history {
            apply_commit(&mut engine, &mut model, commit);
        }
        assert_matches_model(&engine, &model)?;
    }

    #[test]
    fn delta_rules_alone_equal_scratch(history in arb_history()) {
        // No cascade can reach an unbounded threshold, so every commit,
        // through both negation strata, runs on the delta rules alone.
        let program = parse_program(&seed_src()).unwrap();
        let mut engine = IncrementalEngine::new(&program)
            .unwrap()
            .with_fallback_threshold(usize::MAX);
        let mut model = BaseModel::seeded();
        for commit in &history {
            let stats = apply_commit(&mut engine, &mut model, commit);
            prop_assert_eq!(stats.strata_recomputed, 0);
            assert_matches_model(&engine, &model)?;
        }
    }

    #[test]
    fn delta_rules_alone_equal_scratch_on_polyinstantiated_cells(
        initial in proptest::collection::btree_set((0usize..5, 0usize..3, 0usize..4), 0..24),
        history in proptest::collection::vec(
            proptest::collection::vec((any::<bool>(), (0usize..5, 0usize..3, 0usize..4)), 1..5),
            1..8,
        ),
    ) {
        // The cautious `cau … not beaten` program on a few contested
        // keys: nearly every write changes some `beaten` fact.
        let mut cells = initial;
        let mut engine = IncrementalEngine::new(&poly_program(&cells))
            .unwrap()
            .with_fallback_threshold(usize::MAX);
        for commit in &history {
            engine.begin().unwrap();
            for &(insert, cell) in commit {
                if insert {
                    engine.insert("cell", cell_fact(cell)).unwrap();
                    cells.insert(cell);
                } else {
                    engine.retract("cell", cell_fact(cell)).unwrap();
                    cells.remove(&cell);
                }
            }
            let stats = engine.commit().unwrap();
            prop_assert_eq!(stats.strata_recomputed, 0);
            let scratch = Engine::new(&poly_program(&cells)).unwrap().run().unwrap();
            prop_assert_eq!(all_facts(engine.database()), all_facts(&scratch));
        }
    }

    #[test]
    fn low_fallback_threshold_equals_scratch(history in arb_history()) {
        // Threshold 0 forces the per-stratum recompute fallback on every
        // deletion, pinning the fallback path against the same oracle.
        let program = parse_program(&seed_src()).unwrap();
        let mut engine = IncrementalEngine::new(&program)
            .unwrap()
            .with_fallback_threshold(0);
        let mut model = BaseModel::seeded();
        for commit in &history {
            apply_commit(&mut engine, &mut model, commit);
            assert_matches_model(&engine, &model)?;
        }
    }
}

proptest! {
    // Each case materializes a ~5000-row self-join several times.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn incremental_equals_scratch_on_polyinstantiated_self_join(
        seed in any::<u64>(),
        commits in proptest::collection::vec((50usize..600, 0usize..1000), 2..4),
    ) {
        // 2000 cells over 400 keys put `vis` past one 4096-row batch.
        // Each commit retracts a run of cells and asserts fresh ones, so
        // `vis` carries tombstones, which the planner's row counts must
        // skip, while `beaten` is re-derived through the merge join, its
        // pre-seek defection and the cached relation-side table.
        let mut x = seed | 1;
        let mut next = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let mut cells: BTreeSet<(usize, usize, usize)> =
            (0..2000).map(|_| (next(400), next(8), next(4))).collect();
        let mut engine = IncrementalEngine::new(&poly_program(&cells)).unwrap();
        prop_assert!(engine.database().relation("vis").unwrap().len() > 4096);
        for (retracts, inserts) in commits {
            engine.begin().unwrap();
            let from = next(cells.len());
            let gone: Vec<_> = cells.iter().copied().skip(from).take(retracts).collect();
            for cell in gone {
                engine.retract("cell", cell_fact(cell)).unwrap();
                cells.remove(&cell);
            }
            for _ in 0..inserts {
                let cell = (next(400), next(8), next(4));
                engine.insert("cell", cell_fact(cell)).unwrap();
                cells.insert(cell);
            }
            engine.commit().unwrap();
            let scratch = Engine::new(&poly_program(&cells)).unwrap().run().unwrap();
            prop_assert_eq!(all_facts(engine.database()), all_facts(&scratch));
        }
    }
}
