//! Property tests: the two evaluation strategies must agree on the least
//! model, and evaluation must be deterministic.

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use multilog_datalog::Strategy as EvalStrategy;
use multilog_datalog::{parse_program, Const, Database, Engine, Executor, Program};

/// Random edge relations over a small constant universe plus the standard
/// recursive closure rules — a family of programs with genuine recursion.
fn arb_closure_program() -> impl Strategy<Value = Program> {
    let edge = (0usize..6, 0usize..6);
    proptest::collection::vec(edge, 0..20).prop_map(|edges| {
        let mut src = String::new();
        for (a, b) in edges {
            src.push_str(&format!("edge(n{a}, n{b}).\n"));
        }
        src.push_str(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).\n\
             node(X) :- edge(X, Y).\n\
             node(Y) :- edge(X, Y).\n\
             sink(X) :- node(X), not edge(X, Y).\n\
             unreach(X, Y) :- node(X), node(Y), not path(X, Y).\n",
        );
        parse_program(&src).expect("generated program is valid")
    })
}

/// Random stratified programs: random base facts plus a random subset of
/// rule templates spanning three strata (positive recursion, negation
/// over it, negation over the negation). Every subset is stratified and
/// safe by construction, so the generator exercises multi-stratum
/// pipelines without ever tripping the validation layer.
fn arb_stratified_program() -> impl Strategy<Value = Program> {
    let a_fact = (0usize..5, 0usize..5);
    let b_fact = 0usize..5;
    (
        proptest::collection::vec(a_fact, 0..15),
        proptest::collection::vec(b_fact, 0..6),
        0u32..256,
    )
        .prop_map(|(a, b, mask)| {
            let mut src = String::new();
            for (x, y) in a {
                src.push_str(&format!("a(c{x}, c{y}).\n"));
            }
            for x in b {
                src.push_str(&format!("b(c{x}).\n"));
            }
            let templates = [
                "t(X, Y) :- a(X, Y).",
                "t(X, Z) :- a(X, Y), t(Y, Z).",
                "s(X) :- b(X).",
                "s(X) :- t(X, Y), b(Y).",
                "u(X) :- b(X), not s(X).",
                "u(X) :- s(X), X != c0.",
                "v(X, Y) :- t(X, Y), not u(X).",
                "w(X) :- u(X), not t(X, X).",
            ];
            for (i, rule) in templates.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    src.push_str(rule);
                    src.push('\n');
                }
            }
            parse_program(&src).expect("generated program is valid")
        })
}

/// Levels of the polyinstantiation programs below (a total order).
const POLY_LEVELS: usize = 4;

/// The rules of the cautious-belief shape the MultiLog reduction emits:
/// `vis` sees every cell at every level at or above its classification,
/// and `beaten` self-joins `vis` on (owner, key, level). The owner
/// column, the join's first bound column, holds one or two values, so a
/// single merge key group can span the whole relation. `emp_beaten` is
/// the same self-join under a constant owner.
const POLY_RULES: &str = "vis(P, K, V, C, H) :- cell(P, K, V, C), dom(C, H).\n\
     beaten(P, K, C, H) :- vis(P, K, V, C, H), vis(P, K, V2, C2, H), dom(C, C2), C != C2.\n\
     cau(P, K, V, C, H) :- vis(P, K, V, C, H), not beaten(P, K, C, H).\n\
     emp_beaten(K, H) :- vis(o0, K, V, C, H), vis(o0, K, V2, C2, H), dom(C, C2), C != C2.\n";

/// `cells` random polyinstantiated cells `cell(owner, key, value, level)`
/// drawn from `seed` over `keys` keys and `owners` owners. With 2000
/// cells over 300 or more keys `vis` holds 4500 to 5000 rows: more than
/// one 4096-row batch.
fn poly_cells(keys: usize, owners: usize, cells: usize, seed: u64) -> Vec<[usize; 4]> {
    let mut x = seed | 1;
    let mut next = move |n: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as usize
    };
    (0..cells)
        .map(|_| {
            let key = next(keys);
            [key % owners, key, next(8), next(POLY_LEVELS)]
        })
        .collect()
}

/// A polyinstantiation program over `cells` (see [`POLY_RULES`]).
fn poly_program(cells: &[[usize; 4]]) -> Program {
    let mut src = String::new();
    for lo in 0..POLY_LEVELS {
        for hi in lo..POLY_LEVELS {
            src.push_str(&format!("dom(l{lo}, l{hi}).\n"));
        }
    }
    for [o, k, v, l] in cells {
        src.push_str(&format!("cell(o{o}, k{k}, v{v}, l{l}).\n"));
    }
    src.push_str(POLY_RULES);
    parse_program(&src).expect("generated program is valid")
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn naive_and_seminaive_agree(p in arb_closure_program()) {
        let semi = Engine::new(&p).unwrap().run().unwrap();
        let naive = Engine::new(&p)
            .unwrap()
            .with_strategy(EvalStrategy::Naive)
            .run()
            .unwrap();
        prop_assert_eq!(all_facts(&semi), all_facts(&naive));
    }

    #[test]
    fn evaluation_is_deterministic(p in arb_closure_program()) {
        let a = Engine::new(&p).unwrap().run().unwrap();
        let b = Engine::new(&p).unwrap().run().unwrap();
        prop_assert_eq!(all_facts(&a), all_facts(&b));
    }

    #[test]
    fn parallel_equals_sequential_on_closure(p in arb_closure_program()) {
        // threshold 0 forces the parallel path even on tiny deltas.
        let seq = Engine::new(&p).unwrap().with_threads(1).run().unwrap();
        for threads in [2usize, 4] {
            let par = Engine::new(&p)
                .unwrap()
                .with_threads(threads)
                .with_parallel_threshold(0)
                .run()
                .unwrap();
            prop_assert_eq!(all_facts(&seq), all_facts(&par));
        }
    }

    #[test]
    fn parallel_equals_sequential_on_stratified(p in arb_stratified_program()) {
        let seq = Engine::new(&p).unwrap().with_threads(1).run().unwrap();
        for threads in [2usize, 3, 8] {
            let par = Engine::new(&p)
                .unwrap()
                .with_threads(threads)
                .with_parallel_threshold(0)
                .run()
                .unwrap();
            prop_assert_eq!(all_facts(&seq), all_facts(&par));
        }
    }

    #[test]
    fn batched_equals_tuple_executor_on_closure(p in arb_closure_program()) {
        // The columnar batch executor and the tuple-at-a-time reference
        // executor run the same compiled plans; they must produce the
        // same least model on recursive programs with negation.
        let batched = Engine::new(&p)
            .unwrap()
            .with_executor(Executor::Batched)
            .run()
            .unwrap();
        let tuple = Engine::new(&p)
            .unwrap()
            .with_executor(Executor::Tuple)
            .run()
            .unwrap();
        prop_assert_eq!(all_facts(&batched), all_facts(&tuple));
    }

    #[test]
    fn batched_equals_tuple_executor_on_stratified(p in arb_stratified_program()) {
        let batched = Engine::new(&p)
            .unwrap()
            .with_executor(Executor::Batched)
            .run()
            .unwrap();
        let tuple = Engine::new(&p)
            .unwrap()
            .with_executor(Executor::Tuple)
            .run()
            .unwrap();
        prop_assert_eq!(all_facts(&batched), all_facts(&tuple));
    }

    #[test]
    fn strategies_agree_on_stratified(p in arb_stratified_program()) {
        let semi = Engine::new(&p).unwrap().run().unwrap();
        let naive = Engine::new(&p)
            .unwrap()
            .with_strategy(EvalStrategy::Naive)
            .run()
            .unwrap();
        prop_assert_eq!(all_facts(&semi), all_facts(&naive));
    }

    #[test]
    fn model_is_closed_under_rules(p in arb_closure_program()) {
        // Applying every rule to the fixpoint database adds nothing new:
        // re-running the engine seeded with its own output is idempotent.
        // (We check closure indirectly: path must contain edge, and the
        // composition of edge and path.)
        let db = Engine::new(&p).unwrap().run().unwrap();
        let empty = multilog_datalog::Relation::new();
        let edges = db.relation("edge").unwrap_or(&empty);
        let paths = db.relation("path").unwrap_or(&empty);
        for e in edges.iter() {
            prop_assert!(paths.contains(&e), "edge {:?} not in path", e);
        }
        for e in edges.iter() {
            for q in paths.iter() {
                if e[1] == q[0] {
                    let composed = vec![e[0], q[1]];
                    prop_assert!(paths.contains(&composed));
                }
            }
        }
    }

    #[test]
    fn negation_partitions_node_pairs(p in arb_closure_program()) {
        // unreach(X, Y) must hold exactly when path(X, Y) fails, over nodes.
        let db = Engine::new(&p).unwrap().run().unwrap();
        let empty = multilog_datalog::Relation::new();
        let nodes = db.relation("node").unwrap_or(&empty);
        let paths = db.relation("path").unwrap_or(&empty);
        let unreach = db.relation("unreach").unwrap_or(&empty);
        for x in nodes.iter() {
            for y in nodes.iter() {
                let pair = vec![x[0], y[0]];
                let has_path = paths.contains(&pair);
                let has_unreach = unreach.contains(&pair);
                prop_assert_eq!(has_path, !has_unreach);
            }
        }
    }
}

proptest! {
    // Each case evaluates a ~5000-row self-join with both executors; the
    // tuple executor takes seconds per case in a debug build.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn batched_equals_tuple_executor_on_polyinstantiated_self_join(
        keys in 500usize..1500,
        owners in 1usize..3,
        seed in any::<u64>(),
    ) {
        // The cautious `beaten` self-join over relations past one batch:
        // the merge join, its pre-seek defection to the hash join and
        // the cached relation-side table all run on the batched side.
        let p = poly_program(&poly_cells(keys, owners, 2000, seed));
        let batched = Engine::new(&p)
            .unwrap()
            .with_executor(Executor::Batched)
            .run()
            .unwrap();
        let tuple = Engine::new(&p)
            .unwrap()
            .with_executor(Executor::Tuple)
            .run()
            .unwrap();
        prop_assert!(batched.relation("vis").unwrap().len() > 4096);
        prop_assert_eq!(all_facts(&batched), all_facts(&tuple));
    }
}

/// The `beaten` self-join must not run as a cross product even though
/// its first bound column is constant: join probes stay within a small
/// multiple of the tuples it derives (a nested loop makes thousands).
#[test]
fn constant_first_column_self_join_probes_stay_linear() {
    let p = poly_program(&poly_cells(300, 1, 2000, 7));
    let (db, stats) = Engine::new(&p).unwrap().run_with_stats().unwrap();
    assert!(db.relation("vis").unwrap().len() > 4096);
    let beaten = stats
        .per_rule
        .iter()
        .find(|r| r.rule.starts_with("beaten("))
        .unwrap();
    assert!(beaten.facts_derived > 0);
    assert!(
        beaten.join_probes <= 8 * beaten.facts_derived as u64,
        "beaten: {} probes for {} derived tuples",
        beaten.join_probes,
        beaten.facts_derived
    );
}

#[test]
fn printed_program_reparses_to_same_model() {
    let src = "edge(a, b). edge(b, c).\n\
               path(X, Y) :- edge(X, Y).\n\
               path(X, Y) :- edge(X, Z), path(Z, Y).\n\
               node(X) :- edge(X, Y).\n\
               isolated(X) :- node(X), not path(X, Y).";
    let p1 = parse_program(src).unwrap();
    let p2 = parse_program(&p1.to_string()).unwrap();
    let d1 = Engine::new(&p1).unwrap().run().unwrap();
    let d2 = Engine::new(&p2).unwrap().run().unwrap();
    assert_eq!(all_facts(&d1), all_facts(&d2));
}
