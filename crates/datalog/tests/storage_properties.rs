//! Model-based property tests for fact storage: after any interleaving
//! of inserts and retracts — including retracting a relation down to
//! empty (which forgets its arity) and re-inserting at a different
//! arity — the relation must agree with a plain set model on
//! membership, length, pattern probes, and re-insert dedup, and the
//! database's fact counter must track exactly. Snapshot (COW) clones
//! taken mid-history must never observe later mutations. Constant-
//! pattern probes answer the same whichever columns carry a sorted
//! index, including columns whose selectivity is estimated unscanned.

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use multilog_datalog::{
    run_query, Atom, Const, Database, IncrementalEngine, Literal, Program, Relation, SymId, Term,
};

/// One storage op: `(insert, switch_weight, x, y)`. Facts are binary
/// `(n_x, n_y)` normally; when the weight selects an arity switch the
/// op targets the unary fact `(n_x)` instead — legal only while the
/// relation is empty, which is exactly the reset edge case under test.
type StorageOp = (bool, u8, usize, usize);

fn arb_ops() -> impl Strategy<Value = Vec<StorageOp>> {
    let op = (any::<bool>(), 0u8..100, 0usize..4, 0usize..4);
    proptest::collection::vec(op, 1..60)
}

/// ~15 % of ops try the unary-arity variant.
fn is_switch(weight: u8) -> bool {
    weight < 15
}

fn fact(arity_switch: bool, x: usize, y: usize) -> Vec<Const> {
    let mut f = vec![Const::sym(format!("n{x}"))];
    if !arity_switch {
        f.push(Const::sym(format!("n{y}")));
    }
    f
}

/// The reference model: facts as a plain ordered set.
#[derive(Default)]
struct Model {
    facts: BTreeSet<Vec<Const>>,
    arity: Option<usize>,
}

impl Model {
    /// Mirror one op; returns whether the storage op should be applied
    /// (arity-mismatched inserts would panic by contract, so the driver
    /// skips them — retracts of mismatched arity are defined no-ops).
    fn step(&mut self, insert: bool, f: &[Const]) -> bool {
        if insert {
            if self.arity.is_some_and(|a| a != f.len()) {
                return false;
            }
            self.arity = Some(f.len());
            self.facts.insert(f.to_vec());
        } else {
            self.facts.remove(f);
            if self.facts.is_empty() {
                self.arity = None;
            }
        }
        true
    }
}

fn assert_relation_matches(rel: &Relation, model: &Model) {
    assert_eq!(rel.len(), model.facts.len());
    assert_eq!(rel.is_empty(), model.facts.is_empty());
    assert_eq!(rel.arity(), model.arity);
    // Membership and dedup agree fact by fact over the probed universe.
    for switch in [false, true] {
        for x in 0..4 {
            for y in 0..4 {
                let f = fact(switch, x, y);
                assert_eq!(rel.contains(&f), model.facts.contains(&f), "fact {f:?}");
            }
        }
    }
    // Sorted enumeration is exactly the model set.
    let got: Vec<Vec<Const>> = rel.sorted().iter().map(|f| f.to_vec()).collect();
    let want: Vec<Vec<Const>> = model.facts.iter().cloned().collect();
    assert_eq!(got, want);
    // Index probes: every bound-column pattern returns the model filter.
    if let Some(arity) = model.arity {
        for col in 0..arity {
            for x in 0..4 {
                let mut pat: Vec<Option<Const>> = vec![None; arity];
                pat[col] = Some(Const::sym(format!("n{x}")));
                let got = rel.matching(&pat).count();
                let want = model
                    .facts
                    .iter()
                    .filter(|f| f.len() == arity && f[col] == Const::sym(format!("n{x}")))
                    .count();
                assert_eq!(got, want, "pattern col {col} = n{x}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Relation` under arbitrary insert/retract interleavings —
    /// including empty-reset arity switches — agrees with the model.
    #[test]
    fn relation_agrees_with_set_model(ops in arb_ops()) {
        let mut rel = Relation::new();
        let mut model = Model::default();
        for (insert, weight, x, y) in ops {
            let f = fact(is_switch(weight), x, y);
            // Mirror first: the model decides if an insert is legal at
            // the current arity (mismatches panic by contract).
            let mut probe = Model { facts: model.facts.clone(), arity: model.arity };
            if !probe.step(insert, &f) {
                continue;
            }
            if insert {
                let added = rel.insert(f.clone());
                assert_eq!(added, !model.facts.contains(&f), "insert {f:?}");
            } else {
                let removed = rel.retract(&f);
                assert_eq!(removed, model.facts.contains(&f), "retract {f:?}");
            }
            model = probe;
            assert_relation_matches(&rel, &model);
        }
        // Re-inserting everything present must dedup to all-false; the
        // stale-index regression this pins showed up exactly here, after
        // retract-to-empty/re-insert cycles.
        let current: Vec<Vec<Const>> = model.facts.iter().cloned().collect();
        for f in current {
            assert!(!rel.insert(f.clone()), "dedup lost {f:?}");
        }
        assert_eq!(rel.len(), model.facts.len());
    }

    /// `Database` tracks its global fact counter through the same
    /// interleavings, and COW clones pin their state: a snapshot taken
    /// before each op never changes when the original mutates.
    #[test]
    fn database_count_and_snapshots_survive_interleaving(ops in arb_ops()) {
        let mut db = Database::new();
        let mut model = Model::default();
        for (insert, weight, x, y) in ops {
            let f = fact(is_switch(weight), x, y);
            let mut probe = Model { facts: model.facts.clone(), arity: model.arity };
            if !probe.step(insert, &f) {
                continue;
            }
            let snapshot = db.clone();
            let before: Vec<_> = snapshot
                .relation("p")
                .map(|r| r.sorted())
                .unwrap_or_default();
            if insert {
                db.insert("p", f.clone());
            } else {
                db.retract("p", &f);
            }
            model = probe;
            assert_eq!(db.fact_count(), model.facts.len(), "fact_count after {f:?}");
            // The pre-op snapshot is bitwise stable under the mutation.
            let after: Vec<_> = snapshot
                .relation("p")
                .map(|r| r.sorted())
                .unwrap_or_default();
            assert_eq!(before, after, "snapshot mutated by op on {f:?}");
        }
    }
}

/// Column value domains of the probed relation, shaped like `bel`: a
/// few-valued column, a many-valued key, and two narrow ones.
const DOMAINS: [u8; 4] = [3, 97, 6, 40];

fn cell(col: usize, v: u8) -> Const {
    let v = v % DOMAINS[col];
    if col == 1 {
        Const::sym(format!("k{v}"))
    } else {
        Const::int(i64::from(v))
    }
}

fn row(r: (u8, u8, u8, u8)) -> Vec<Const> {
    vec![cell(0, r.0), cell(1, r.1), cell(2, r.2), cell(3, r.3)]
}

/// Build `t/4` with the columns in `mask` indexed: a base committed
/// through an [`IncrementalEngine`], some of it retracted after the
/// indexes were sealed (tombstones inside the sorted runs), then a
/// clone that takes `tail` more inserts and `late` retracts without
/// any sealing (an unsorted index tail). Returns the database and the
/// live facts.
fn indexed_relation(
    mask: u8,
    base: &[(u8, u8, u8, u8)],
    early: &[usize],
    tail: &[(u8, u8, u8, u8)],
    late: &[usize],
) -> (Database, BTreeSet<Vec<Const>>) {
    let t = SymId::intern("t");
    let mut live: BTreeSet<Vec<Const>> = BTreeSet::new();
    let mut engine = IncrementalEngine::new(&Program::new()).unwrap();
    engine.begin().unwrap();
    for &r in base {
        engine.insert("t", row(r)).unwrap();
        live.insert(row(r));
    }
    engine.commit().unwrap();
    for col in (0..4).filter(|c| mask & (1 << c) != 0) {
        engine.ensure_index(t, col);
    }
    let gone: Vec<Vec<Const>> = early
        .iter()
        .filter_map(|&i| live.iter().nth(i % live.len().max(1)).cloned())
        .collect();
    engine.begin().unwrap();
    for f in gone {
        engine.retract("t", f.clone()).unwrap();
        live.remove(&f);
    }
    engine.commit().unwrap();
    let mut db = engine.database().clone();
    let mut appended = 0;
    for &r in tail {
        if db.insert("t", row(r)) {
            appended += 1;
            live.insert(row(r));
        }
    }
    for &i in late {
        if let Some(f) = live.iter().nth(i % live.len().max(1)).cloned() {
            db.retract("t", &f);
            live.remove(&f);
        }
    }
    // Indexed columns lag by exactly the unsealed inserts; the others
    // were never indexed and lag by every stored row.
    let rel = db.relation("t").unwrap();
    for col in 0..4 {
        let lag = rel.index_lag(col);
        if mask & (1 << col) != 0 {
            assert_eq!(lag, appended, "indexed column {col}");
        } else {
            assert!(lag > 128, "unindexed column {col} lags by {lag} <= 128");
        }
    }
    (db, live)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `run_query` answers and `Relation::matching` results for random
    /// constant patterns over 1–3 columns equal a naive filter of the
    /// live facts, with none, some, or all of the columns indexed — so
    /// the driver column chosen by the selectivity estimate (scanned on
    /// indexed columns, the stored-row count on unindexed ones once
    /// another column is indexed) never changes an answer.
    #[test]
    fn constant_probes_agree_with_a_filter_at_any_index_coverage(
        base in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 200..520),
        early in proptest::collection::vec(0usize..600, 0..60),
        tail in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..200),
        late in proptest::collection::vec(0usize..600, 0..40),
        some in 1u8..15,
        patterns in proptest::collection::vec(
            (proptest::collection::btree_set(0usize..4, 1..4), 0usize..600, any::<bool>()),
            1..8,
        ),
    ) {
        for mask in [0, some, 0b1111] {
            let (db, live) = indexed_relation(mask, &base, &early, &tail, &late);
            let rel = db.relation("t").unwrap();
            prop_assert_eq!(rel.len(), live.len());
            for (cols, pick, absent) in &patterns {
                // Constants from a live fact (a hit), or with one
                // column pushed outside its domain (a miss).
                let source = live.iter().nth(pick % live.len()).unwrap();
                let mut pattern: Vec<Option<Const>> = vec![None; 4];
                for &c in cols {
                    pattern[c] = Some(source[c]);
                }
                if *absent {
                    let c = *cols.iter().next().unwrap();
                    pattern[c] = Some(Const::int(1000));
                }
                let want: Vec<Vec<Const>> = live
                    .iter()
                    .filter(|f| pattern.iter().zip(f.iter()).all(|(p, v)| p.is_none_or(|c| c == *v)))
                    .cloned()
                    .collect();
                let mut got: Vec<Vec<Const>> = rel.matching(&pattern).map(|f| f.to_vec()).collect();
                got.sort();
                prop_assert_eq!(&got, &want, "matching {:?} mask {:#06b}", pattern, mask);

                let terms: Vec<Term> = pattern
                    .iter()
                    .enumerate()
                    .map(|(i, p)| p.map_or_else(|| Term::var(format!("V{i}")), Term::Const))
                    .collect();
                let body = [Literal::Pos(Atom::new("t", terms))];
                let answers = run_query(&db, &body).unwrap().answers;
                let mut expected: Vec<BTreeMap<String, Const>> = want
                    .iter()
                    .map(|f| {
                        (0..4)
                            .filter(|&i| pattern[i].is_none())
                            .map(|i| (format!("V{i}"), f[i]))
                            .collect()
                    })
                    .collect();
                expected.sort();
                expected.dedup();
                prop_assert_eq!(&answers, &expected, "run_query {:?} mask {:#06b}", pattern, mask);
            }
        }
    }
}
