//! Rule compilation: slot-allocated join plans with greedy literal
//! ordering, executed over row-id batches.
//!
//! Each rule (and each semi-naive delta variant of it) is compiled once
//! per stratum into a [`RulePlan`]: variables become dense *slots* into a
//! reusable bindings buffer, and body literals become a sequence of
//! [`Step`]s in an execution order chosen greedily — positive literals
//! ranked by bound-argument count then estimated relation cardinality,
//! negated and built-in literals scheduled as soon as their variables are
//! bound.
//!
//! # Batched execution
//!
//! The default executor ([`RulePlan::eval`]) runs each step over a
//! *batch* of up to [`CHUNK`] candidate bindings at once, represented
//! column-major (one `Vec<Const>` per live slot). A positive scan with no
//! bound columns computes its matching rows once (a constant-column index
//! probe, or a full scan) and cross-products them with the batch. A scan
//! with bound columns picks its join path from predicted cost:
//!
//! * **hash join on every bound column** — the relation side (the rows
//!   of its most selective constant column, else the whole relation) is
//!   hashed on its bound-column cells into a per-step table cached by
//!   relation version, and each batch row probes it. A current table is
//!   always used. A missing or stale one is built when its candidates fit
//!   in one chunk and are at most `TABLE_BUILD_RATIO` times the batch (so
//!   EDB relations are hashed once per evaluation and probed by every
//!   chunk of every round), or when the merge join below is predicted to
//!   cost more probes than building the table (`BUILD_ROW_PROBES` per
//!   relation row);
//! * **merge join** — otherwise the batch is sorted on one bound column
//!   (the first, or for a batch of a few rows the most selective) and
//!   merge-joined against that column's sorted permutation index via a
//!   galloping cursor ([`crate::storage::Relation::col_cursor`]),
//!   filtering the other bound columns per row. A key group therefore
//!   costs (rows seeked) × (batch rows in the group) probes. That cost is
//!   predicted before seeking: for the whole batch from index counts at
//!   sampled batch rows, and for each key group from its own index count,
//!   with tombstones left out before defecting. Past the build cost the
//!   remaining rows defect to the hash join, whose table is then cached
//!   for the later chunks. A key group spanning the whole relation (a
//!   constant join column, as in the cautious `beaten` self-join)
//!   therefore never runs as a nested loop.
//!
//! Sorted permutation indexes are built lazily: each plan records the
//! `(predicate, column)` pairs it probes (`index_needs`) and the
//! evaluator seals exactly those columns at round boundaries.
//!
//! Join results are flushed to the next step in [`CHUNK`]-row batches,
//! so memory stays bounded and the evaluation guard keeps tripping
//! inside a single (possibly enormous) rule application. Negation is
//! memoized per distinct bound-cell tuple within a batch; comparisons
//! and arithmetic filter the batch columnwise.
//!
//! The previous tuple-at-a-time executor is retained verbatim as
//! [`RulePlan::eval_reference`] — it is the differential-testing oracle
//! for the batched path (see `Executor::Tuple` in [`crate::eval`]) and
//! the specification of the rule semantics.
//!
//! # Negation under reordering
//!
//! A negated literal may contain variables that occur in no positive
//! literal *textually before* it; these are existentially quantified
//! inside the negation (`¬∃Y r(X, Y)`). That existential set is fixed
//! **statically from the textual order** before any reordering, so a
//! variable stays existential even when the chosen execution order has
//! already bound it — reordering never changes which facts a rule
//! derives.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::mem;

use crate::atom::{ArithOp, CmpOp, Literal};
use crate::clause::Clause;
use crate::fx::{FxHashMap, FxHasher};
use crate::guard::{EvalGuard, GuardCursor};
use crate::storage::{key_of, Database, Fact, FactBuf, Relation};
use crate::term::{Const, SymId, Term};
use crate::{DatalogError, Result};

/// Rows per flushed batch: join pairs are forwarded to the next step in
/// groups of this size, bounding intermediate memory and keeping guard
/// checks frequent.
const CHUNK: usize = 4096;

/// A missing or stale join table is built up front only when its
/// candidate rows number at most `batch.n * TABLE_BUILD_RATIO` (and at
/// most [`CHUNK`]): hashing a relation row costs a few times more than
/// probing, so smaller batches use the sorted indexes instead.
const TABLE_BUILD_RATIO: usize = 8;

/// Minimum batch size for a merge-join column cursor. Constructing a
/// cursor sorts the index's uncovered tail (up to `INDEX_TAIL_MAX`
/// rows), which only pays off across many seeks; smaller batches probe
/// each key group through the index directly.
const CURSOR_BATCH_MIN: usize = 64;

/// What hashing one relation row into a [`JoinTable`] costs, in merge
/// probes. A probe compares a few cells of one seeked row (3–4 ns on the
/// 2-core reference box); a build hashes the row and files it in its
/// bucket (about 30 ns). The merge join defects to a table once its
/// probes are predicted to exceed this many per relation row; the
/// factor is twice the measured ratio, leaving room for the sampling
/// error of the prediction.
const BUILD_ROW_PROBES: usize = 16;

/// Batch rows sampled when estimating a merge join's probes (see
/// `RulePlan::merge_over_budget`).
const MERGE_SAMPLES: usize = 8;

/// One column of a positive scan.
#[derive(Clone, Copy, Debug)]
enum ScanCol {
    /// Must equal this constant (part of the index probe).
    Const(Const),
    /// Must equal the slot value bound by an earlier step (probe).
    Bound(u32),
    /// First occurrence of an unbound variable: binds the slot.
    Bind(u32),
    /// Repeated occurrence within this atom: must equal the slot value
    /// bound earlier in the same row.
    Check(u32),
}

/// One column of a negated-literal probe.
#[derive(Clone, Copy, Debug)]
enum NegCol {
    /// Must equal this constant.
    Const(Const),
    /// Must equal the slot value (non-existential variable).
    Bound(u32),
    /// Existential variable, first occurrence: captures into a local.
    Local(u32),
    /// Existential variable, repeated: must equal the captured local.
    LocalCheck(u32),
}

/// A value source for comparisons, arithmetic, and head projection.
#[derive(Clone, Copy, Debug)]
enum ValSrc {
    Const(Const),
    Slot(u32),
}

/// What an arithmetic built-in does with its result.
#[derive(Clone, Copy, Debug)]
enum ArithTarget {
    /// Bind the result into an unbound slot.
    Bind(u32),
    /// The target slot is already bound: check equality.
    CheckSlot(u32),
    /// The target is a constant: check equality.
    CheckConst(Const),
}

/// Precomputed column roles of a positive scan, consumed by the batched
/// executor (`cols` remains the source of truth for the reference
/// executor).
#[derive(Clone, Debug, Default)]
struct ScanSpec {
    /// Columns that must equal a constant.
    consts: Vec<(usize, Const)>,
    /// Columns that must equal an already-bound slot.
    bounds: Vec<(usize, u32)>,
    /// Columns whose cell binds a slot first occurring here.
    binds: Vec<(usize, u32)>,
    /// Repeated-variable columns: cell must equal the earlier column
    /// (within the same atom) that binds the shared slot.
    checks: Vec<(usize, usize)>,
    /// How to assemble an output row for the *live* slots after this
    /// step: copy from the matched fact's column (`Some(col)`) or carry
    /// from the input batch (`None`).
    gather: Vec<(u32, Option<usize>)>,
}

/// One scheduled operation of a compiled rule body.
#[derive(Clone, Debug)]
enum Step {
    /// Join against a relation (or the delta relation for the variant's
    /// distinguished body position).
    Scan {
        pred: SymId,
        from_delta: bool,
        cols: Vec<ScanCol>,
        spec: ScanSpec,
    },
    /// Prune unless `¬∃(locals) pred(cols)` holds.
    Neg {
        pred: SymId,
        cols: Vec<NegCol>,
        n_locals: usize,
        consts: Vec<(usize, Const)>,
        bounds: Vec<(usize, u32)>,
    },
    /// Prune unless the comparison holds.
    Cmp { op: CmpOp, lhs: ValSrc, rhs: ValSrc },
    /// Evaluate `lhs op rhs` and bind or check the target.
    Arith {
        op: ArithOp,
        lhs: ValSrc,
        rhs: ValSrc,
        target: ArithTarget,
    },
}

/// A column-major batch of candidate bindings: `cols` is indexed by slot
/// id, and only the slots live at the current step (the plan's `carry`
/// set) hold `n` values.
#[derive(Debug, Default)]
struct Batch {
    n: usize,
    cols: Vec<Vec<Const>>,
}

impl Batch {
    fn reset(&mut self, n_slots: usize) {
        self.n = 0;
        if self.cols.len() < n_slots {
            self.cols.resize_with(n_slots, Vec::new);
        }
        for c in &mut self.cols {
            c.clear();
        }
    }

    #[inline]
    fn get(&self, slot: u32, row: usize) -> Const {
        self.cols[slot as usize][row]
    }
}

/// A cached hash-join table over one scan step's relation side: the
/// live rows satisfying the scan's constant and repeated-variable
/// columns, bucketed by the hash of their bound-column cells. The layout
/// is a counting sort, not a map: bucket `b` (the hash's top bits) is
/// `entries[starts[b]..starts[b + 1]]`, sorted so that equal hashes are
/// adjacent. A build is two linear passes plus tiny per-bucket sorts; a
/// table costs 16 bytes per row plus 4 to 8 for the bucket offsets.
/// Valid for exactly one relation version ([`Relation::version`]): it is
/// built once per version and reused across chunks and evaluation
/// rounds — for EDB relations, exactly once.
struct JoinTable {
    version: u128,
    /// `64 - log2(bucket count)`: a hash's bucket is `hash >> shift`.
    shift: u32,
    starts: Vec<u32>,
    /// `(bound-cell hash, row id)`, grouped by bucket.
    entries: Vec<(u64, u32)>,
}

impl JoinTable {
    /// Hash `rel`'s candidate rows for `spec` (see
    /// [`RulePlan::scan_candidates`]) on every bound column; `buf` is a
    /// reusable row buffer.
    fn build(spec: &ScanSpec, rel: &Relation, buf: &mut Vec<u32>) -> Self {
        RulePlan::scan_candidates(spec, rel, buf);
        let buckets = buf.len().next_power_of_two();
        let shift = 64 - buckets.trailing_zeros();
        let hashed: Vec<(u64, u32)> = buf
            .iter()
            .map(|&r| {
                (
                    hash_cells(spec.bounds.iter().map(|&(c, _)| rel.cell(r, c))),
                    r,
                )
            })
            .collect();
        let mut starts = vec![0u32; buckets + 1];
        for &(h, _) in &hashed {
            starts[bucket_of(h, shift) + 1] += 1;
        }
        for b in 0..buckets {
            starts[b + 1] += starts[b];
        }
        let mut next = starts.clone();
        let mut entries = vec![(0, 0); hashed.len()];
        for &(h, r) in &hashed {
            let slot = &mut next[bucket_of(h, shift)];
            entries[*slot as usize] = (h, r);
            *slot += 1;
        }
        for b in 0..buckets {
            let bucket = &mut entries[starts[b] as usize..starts[b + 1] as usize];
            if bucket.len() > 1 {
                bucket.sort_unstable();
            }
        }
        JoinTable {
            version: rel.version(),
            shift,
            starts,
            entries,
        }
    }

    /// The candidate rows whose bound cells hash to `h`, as `(h, row)`.
    fn get(&self, h: u64) -> &[(u64, u32)] {
        let b = bucket_of(h, self.shift);
        let (mut lo, end) = (self.starts[b] as usize, self.starts[b + 1] as usize);
        while lo < end && self.entries[lo].0 < h {
            lo += 1;
        }
        let mut hi = lo;
        while hi < end && self.entries[hi].0 == h {
            hi += 1;
        }
        &self.entries[lo..hi]
    }
}

/// The [`JoinTable`] bucket of hash `h`: its top `64 - shift` bits.
fn bucket_of(h: u64, shift: u32) -> usize {
    usize::try_from(h.checked_shr(shift).unwrap_or(0)).unwrap_or(0)
}

/// Reusable per-plan evaluation buffers: the slot bindings plus one
/// pattern/local/batch/row buffer per step, taken out and restored
/// around the recursive join so no per-row allocation happens.
pub(crate) struct Scratch {
    bindings: Vec<Const>,
    patterns: Vec<Vec<Option<Const>>>,
    locals: Vec<Vec<Const>>,
    /// Per-step output batches of the batched executor.
    batches: Vec<Batch>,
    /// Per-step row-id buffers of the batched executor.
    rowbufs: Vec<Vec<u32>>,
    /// Per-step cached relation-side hash-join tables.
    tables: Vec<Option<JoinTable>>,
    /// Guard tick state and probe counter for this plan's evaluations.
    cursor: GuardCursor,
}

impl Scratch {
    /// Take (and reset) the join-probe count accumulated since the last
    /// call, for per-rule statistics.
    pub(crate) fn take_probes(&mut self) -> u64 {
        self.cursor.take_probes()
    }
}

/// A compiled rule variant: slots, ordered steps, head projection.
#[derive(Debug)]
pub(crate) struct RulePlan {
    /// The head predicate (interned).
    pub head_pred: SymId,
    head: Vec<ValSrc>,
    steps: Vec<Step>,
    n_slots: usize,
    /// `carry[i]`: the slots (sorted) whose values batches entering step
    /// `i` carry — bound before step `i` *and* still read by step `i` or
    /// later (or the head). `carry[steps.len()]` feeds the projection.
    carry: Vec<Vec<u32>>,
    /// The textual body position reading from the delta relation, if this
    /// is a semi-naive variant.
    pub delta_pred: Option<SymId>,
    /// `(predicate, column)` pairs this plan probes by value — constant
    /// and bound columns of its stored-relation scans and negations. The
    /// evaluator seals exactly these sorted indexes at round boundaries
    /// (`Database::ensure_index_id`); unlisted columns are never indexed.
    pub(crate) index_needs: Vec<(SymId, usize)>,
    /// Human-readable description of the chosen join order.
    pub order_desc: String,
}

/// A row count or offset as `u32`, saturating (probe counters and
/// row ids are `u32`).
fn clamp(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

fn hash_cells(cells: impl Iterator<Item = Const>) -> u64 {
    let mut h = FxHasher::default();
    for c in cells {
        c.hash(&mut h);
    }
    h.finish()
}

impl RulePlan {
    /// Compile `rule` into a plan. `delta_pos` selects the body position
    /// that reads from a delta relation (semi-naive variant); `db`
    /// supplies relation cardinality estimates for the greedy ordering.
    #[allow(clippy::too_many_lines)]
    pub fn compile(rule: &Clause, delta_pos: Option<usize>, db: &Database) -> Result<Self> {
        let unsafe_var = |v: &str| DatalogError::UnsafeVariable {
            variable: v.to_owned(),
            clause: rule.to_string(),
        };

        // Slot allocation: every variable bound by a positive literal or
        // an arithmetic target gets a dense slot.
        let mut slots: HashMap<&str, u32> = HashMap::new();
        fn slot_of<'a>(v: &'a str, slots: &mut HashMap<&'a str, u32>) -> u32 {
            let next = u32::try_from(slots.len()).expect("slot overflow");
            *slots.entry(v).or_insert(next)
        }
        for lit in &rule.body {
            match lit {
                Literal::Pos(a) => {
                    for v in a.variables() {
                        slot_of(v, &mut slots);
                    }
                }
                Literal::Arith { target, .. } => {
                    if let Some(v) = target.as_var() {
                        slot_of(v, &mut slots);
                    }
                }
                Literal::Neg(_) | Literal::Cmp { .. } => {}
            }
        }

        // Existential sets of negated literals, fixed by TEXTUAL order:
        // vars not bound by any earlier positive literal or arithmetic
        // target are quantified inside the negation.
        let mut textually_bound: HashSet<&str> = HashSet::new();
        let mut existential: Vec<Option<HashSet<&str>>> = Vec::with_capacity(rule.body.len());
        for lit in &rule.body {
            match lit {
                Literal::Neg(a) => {
                    let e: HashSet<&str> = a
                        .variables()
                        .filter(|v| !textually_bound.contains(v))
                        .collect();
                    existential.push(Some(e));
                }
                Literal::Pos(a) => {
                    textually_bound.extend(a.variables());
                    existential.push(None);
                }
                Literal::Arith { target, .. } => {
                    textually_bound.extend(target.as_var());
                    existential.push(None);
                }
                Literal::Cmp { .. } => existential.push(None),
            }
        }

        // Greedy scheduling.
        let mut bound: HashSet<u32> = HashSet::new();
        let mut scheduled = vec![false; rule.body.len()];
        let mut steps: Vec<Step> = Vec::with_capacity(rule.body.len());
        let mut carry: Vec<Vec<u32>> = Vec::with_capacity(rule.body.len() + 1);
        let mut order: Vec<usize> = Vec::with_capacity(rule.body.len());

        let snap = |bound: &HashSet<u32>| -> Vec<u32> {
            let mut v: Vec<u32> = bound.iter().copied().collect();
            v.sort_unstable();
            v
        };

        let val_src = |t: &Term, slots: &HashMap<&str, u32>| -> Result<ValSrc> {
            match t {
                Term::Const(c) => Ok(ValSrc::Const(*c)),
                Term::Var(v) => slots
                    .get(v.as_ref())
                    .map(|&s| ValSrc::Slot(s))
                    .ok_or_else(|| unsafe_var(v)),
            }
        };

        while scheduled.iter().any(|&s| !s) {
            // Flush every ready non-positive literal, in textual order.
            let mut progressed = true;
            while progressed {
                progressed = false;
                for i in 0..rule.body.len() {
                    if scheduled[i] {
                        continue;
                    }
                    match &rule.body[i] {
                        Literal::Neg(a) => {
                            let e = existential[i].as_ref().expect("neg has existential set");
                            let ready = a.variables().all(|v| {
                                e.contains(v) || slots.get(v).is_some_and(|s| bound.contains(s))
                            });
                            if !ready {
                                continue;
                            }
                            let mut local_of: HashMap<&str, u32> = HashMap::new();
                            let mut cols = Vec::with_capacity(a.terms.len());
                            for t in &a.terms {
                                cols.push(match t {
                                    Term::Const(c) => NegCol::Const(*c),
                                    Term::Var(v) if e.contains(v.as_ref()) => {
                                        let next =
                                            u32::try_from(local_of.len()).expect("local overflow");
                                        match local_of.entry(v.as_ref()) {
                                            std::collections::hash_map::Entry::Occupied(o) => {
                                                NegCol::LocalCheck(*o.get())
                                            }
                                            std::collections::hash_map::Entry::Vacant(va) => {
                                                va.insert(next);
                                                NegCol::Local(next)
                                            }
                                        }
                                    }
                                    Term::Var(v) => NegCol::Bound(slots[v.as_ref()]),
                                });
                            }
                            let consts = cols
                                .iter()
                                .enumerate()
                                .filter_map(|(c, col)| match col {
                                    NegCol::Const(v) => Some((c, *v)),
                                    _ => None,
                                })
                                .collect();
                            let neg_bounds = cols
                                .iter()
                                .enumerate()
                                .filter_map(|(c, col)| match col {
                                    NegCol::Bound(s) => Some((c, *s)),
                                    _ => None,
                                })
                                .collect();
                            carry.push(snap(&bound));
                            steps.push(Step::Neg {
                                pred: a.predicate,
                                cols,
                                n_locals: local_of.len(),
                                consts,
                                bounds: neg_bounds,
                            });
                            scheduled[i] = true;
                            order.push(i);
                            progressed = true;
                        }
                        Literal::Cmp { op, lhs, rhs } => {
                            let ready = [lhs, rhs].into_iter().all(|t| {
                                t.as_var()
                                    .is_none_or(|v| slots.get(v).is_some_and(|s| bound.contains(s)))
                            });
                            if !ready {
                                continue;
                            }
                            carry.push(snap(&bound));
                            steps.push(Step::Cmp {
                                op: *op,
                                lhs: val_src(lhs, &slots)?,
                                rhs: val_src(rhs, &slots)?,
                            });
                            scheduled[i] = true;
                            order.push(i);
                            progressed = true;
                        }
                        Literal::Arith {
                            target,
                            lhs,
                            op,
                            rhs,
                        } => {
                            let ready = [lhs, rhs].into_iter().all(|t| {
                                t.as_var()
                                    .is_none_or(|v| slots.get(v).is_some_and(|s| bound.contains(s)))
                            });
                            if !ready {
                                continue;
                            }
                            carry.push(snap(&bound));
                            let tgt = match target {
                                Term::Const(c) => ArithTarget::CheckConst(*c),
                                Term::Var(v) => {
                                    let s = slots[v.as_ref()];
                                    if bound.contains(&s) {
                                        ArithTarget::CheckSlot(s)
                                    } else {
                                        bound.insert(s);
                                        ArithTarget::Bind(s)
                                    }
                                }
                            };
                            steps.push(Step::Arith {
                                op: *op,
                                lhs: val_src(lhs, &slots)?,
                                rhs: val_src(rhs, &slots)?,
                                target: tgt,
                            });
                            scheduled[i] = true;
                            order.push(i);
                            progressed = true;
                        }
                        Literal::Pos(_) => {}
                    }
                }
            }

            // Pick the best remaining positive literal: most bound
            // argument positions, then smallest estimated cardinality,
            // then textual position (for determinism).
            let best = (0..rule.body.len())
                .filter(|&i| !scheduled[i])
                .filter_map(|i| match &rule.body[i] {
                    Literal::Pos(a) => Some((i, a)),
                    _ => None,
                })
                .min_by_key(|&(i, a)| {
                    let bound_args = a
                        .terms
                        .iter()
                        .filter(|t| match t {
                            Term::Const(_) => true,
                            Term::Var(v) => {
                                slots.get(v.as_ref()).is_some_and(|s| bound.contains(s))
                            }
                        })
                        .count();
                    let est = if delta_pos == Some(i) {
                        // Deltas are typically tiny: rank them below every
                        // full relation so they are scheduled early.
                        0
                    } else {
                        db.relation_id(a.predicate).map_or(0, Relation::len) + 1
                    };
                    (usize::MAX - bound_args, est, i)
                });
            let Some((i, a)) = best else { break };
            let mut bound_here: HashSet<u32> = HashSet::new();
            let mut cols = Vec::with_capacity(a.terms.len());
            for t in &a.terms {
                cols.push(match t {
                    Term::Const(c) => ScanCol::Const(*c),
                    Term::Var(v) => {
                        let s = slots[v.as_ref()];
                        if bound.contains(&s) {
                            ScanCol::Bound(s)
                        } else if bound_here.contains(&s) {
                            ScanCol::Check(s)
                        } else {
                            bound_here.insert(s);
                            ScanCol::Bind(s)
                        }
                    }
                });
            }
            let mut spec = ScanSpec::default();
            let mut first_col_of_slot: HashMap<u32, usize> = HashMap::new();
            for (c, col) in cols.iter().enumerate() {
                match col {
                    ScanCol::Const(v) => spec.consts.push((c, *v)),
                    ScanCol::Bound(s) => spec.bounds.push((c, *s)),
                    ScanCol::Bind(s) => {
                        first_col_of_slot.insert(*s, c);
                        spec.binds.push((c, *s));
                    }
                    ScanCol::Check(s) => spec.checks.push((c, first_col_of_slot[s])),
                }
            }
            carry.push(snap(&bound));
            bound.extend(bound_here);
            steps.push(Step::Scan {
                pred: a.predicate,
                from_delta: delta_pos == Some(i),
                cols,
                spec,
            });
            scheduled[i] = true;
            order.push(i);
        }

        // Anything left never became ready: a built-in over variables no
        // positive literal binds. (The textual evaluator paniced here.)
        if let Some(i) = scheduled.iter().position(|&s| !s) {
            let v = rule.body[i]
                .variables()
                .into_iter()
                .find(|v| slots.get(v).is_none_or(|s| !bound.contains(s)))
                .unwrap_or("_");
            return Err(unsafe_var(v));
        }
        carry.push(snap(&bound));

        // Head projection (safety guarantees every head var is bound).
        let head = rule
            .head
            .terms
            .iter()
            .map(|t| val_src(t, &slots))
            .collect::<Result<Vec<_>>>()?;

        // Liveness trim: a batch entering step i only needs the slots
        // some step >= i (or the head) still reads. Then fix each scan's
        // gather list: its output rows are exactly carry[i + 1].
        let mut live: HashSet<u32> = head
            .iter()
            .filter_map(|h| match h {
                ValSrc::Slot(s) => Some(*s),
                ValSrc::Const(_) => None,
            })
            .collect();
        carry[steps.len()].retain(|s| live.contains(s));
        for i in (0..steps.len()).rev() {
            let slot_reads = |v: &ValSrc, live: &mut HashSet<u32>| {
                if let ValSrc::Slot(s) = v {
                    live.insert(*s);
                }
            };
            match &steps[i] {
                Step::Scan { spec, .. } => {
                    for &(_, s) in &spec.bounds {
                        live.insert(s);
                    }
                }
                Step::Neg { bounds, .. } => {
                    for &(_, s) in bounds {
                        live.insert(s);
                    }
                }
                Step::Cmp { lhs, rhs, .. } => {
                    slot_reads(lhs, &mut live);
                    slot_reads(rhs, &mut live);
                }
                Step::Arith {
                    lhs, rhs, target, ..
                } => {
                    slot_reads(lhs, &mut live);
                    slot_reads(rhs, &mut live);
                    if let ArithTarget::CheckSlot(s) = target {
                        live.insert(*s);
                    }
                }
            }
            carry[i].retain(|s| live.contains(s));
        }
        for i in 0..steps.len() {
            let out_slots = carry[i + 1].clone();
            if let Step::Scan { spec, .. } = &mut steps[i] {
                spec.gather = out_slots
                    .iter()
                    .map(|&slot| {
                        let from = spec
                            .binds
                            .iter()
                            .find(|&&(_, s)| s == slot)
                            .map(|&(c, _)| c);
                        (slot, from)
                    })
                    .collect();
            }
        }

        // Index demand: every column a stored-relation scan or negation
        // probes by value. Delta scans enumerate the delta fact list and
        // probe nothing.
        let mut index_needs: Vec<(SymId, usize)> = Vec::new();
        for s in &steps {
            match s {
                Step::Scan {
                    pred,
                    from_delta: false,
                    spec,
                    ..
                } => {
                    index_needs.extend(spec.consts.iter().map(|&(c, _)| (*pred, c)));
                    index_needs.extend(spec.bounds.iter().map(|&(c, _)| (*pred, c)));
                }
                Step::Neg {
                    pred,
                    consts,
                    bounds,
                    ..
                } => {
                    index_needs.extend(consts.iter().map(|&(c, _)| (*pred, c)));
                    index_needs.extend(bounds.iter().map(|&(c, _)| (*pred, c)));
                }
                Step::Scan { .. } | Step::Cmp { .. } | Step::Arith { .. } => {}
            }
        }
        index_needs.sort_unstable();
        index_needs.dedup();

        let order_desc = format!(
            "{}{} :- [{}]",
            rule.head.predicate,
            match delta_pos {
                Some(p) => format!(" (Δ@{p})"),
                None => String::new(),
            },
            order
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );

        Ok(RulePlan {
            head_pred: rule.head.predicate,
            head,
            steps,
            n_slots: slots.len(),
            carry,
            delta_pred: delta_pos.map(|p| {
                rule.body[p]
                    .atom()
                    .expect("delta position is a positive literal")
                    .predicate
            }),
            index_needs,
            order_desc,
        })
    }

    /// Allocate evaluation buffers sized for this plan.
    pub fn new_scratch(&self) -> Scratch {
        Scratch {
            bindings: vec![Const::Int(0); self.n_slots],
            patterns: self
                .steps
                .iter()
                .map(|s| match s {
                    Step::Scan { cols, .. } => Vec::with_capacity(cols.len()),
                    Step::Neg { cols, .. } => Vec::with_capacity(cols.len()),
                    _ => Vec::new(),
                })
                .collect(),
            locals: self
                .steps
                .iter()
                .map(|s| match s {
                    Step::Neg { n_locals, .. } => vec![Const::Int(0); *n_locals],
                    _ => Vec::new(),
                })
                .collect(),
            batches: self.steps.iter().map(|_| Batch::default()).collect(),
            rowbufs: self.steps.iter().map(|_| Vec::new()).collect(),
            tables: self.steps.iter().map(|_| None).collect(),
            cursor: GuardCursor::new(),
        }
    }

    /// Evaluate the plan with the batched executor, appending every head
    /// instantiation (possibly with duplicates) to `out`. `delta`
    /// supplies the delta facts when this is a semi-naive variant; deltas
    /// are plain fact lists (no indexes) because the planner schedules
    /// the delta scan early, where it is enumerated rather than probed.
    /// The `guard` is consulted at tick granularity inside the join loop
    /// and once more on completion, so deadline, budget, and cancellation
    /// trips surface from within a single (possibly enormous) rule
    /// application.
    ///
    /// The emitted *set* of head tuples is identical to
    /// [`RulePlan::eval_reference`]; the order of `out` may differ.
    pub fn eval(
        &self,
        db: &Database,
        delta: Option<&FactBuf>,
        scratch: &mut Scratch,
        out: &mut FactBuf,
        guard: &EvalGuard,
    ) -> Result<()> {
        debug_assert_eq!(scratch.bindings.len(), self.n_slots);
        let mut root = Batch::default();
        root.reset(self.n_slots);
        root.n = 1; // the single empty binding
        self.exec_batch(0, db, delta, &root, scratch, out, guard)?;
        scratch.cursor.flush(guard)
    }

    #[inline]
    fn resolve_batch(&self, v: ValSrc, batch: &Batch, row: usize) -> Const {
        match v {
            ValSrc::Const(c) => c,
            ValSrc::Slot(s) => batch.get(s, row),
        }
    }

    /// Copy the carried slots of `row` from `batch` into `child`.
    #[inline]
    fn carry_row(&self, step: usize, batch: &Batch, row: usize, child: &mut Batch) {
        for &slot in &self.carry[step + 1] {
            child.cols[slot as usize].push(batch.get(slot, row));
        }
        child.n += 1;
    }

    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn exec_batch(
        &self,
        step: usize,
        db: &Database,
        delta: Option<&FactBuf>,
        batch: &Batch,
        scratch: &mut Scratch,
        out: &mut FactBuf,
        guard: &EvalGuard,
    ) -> Result<()> {
        if batch.n == 0 {
            return Ok(());
        }
        let Some(s) = self.steps.get(step) else {
            for row in 0..batch.n {
                scratch.cursor.emit(guard)?;
                out.push_row(self.head.iter().map(|h| self.resolve_batch(*h, batch, row)));
            }
            return Ok(());
        };
        match s {
            Step::Scan {
                pred,
                from_delta,
                cols,
                spec,
            } => {
                let mut child = mem::take(&mut scratch.batches[step]);
                child.reset(self.n_slots);
                let mut result = if *from_delta {
                    self.scan_delta(
                        step, spec, db, delta, batch, &mut child, scratch, out, guard,
                    )
                } else {
                    self.scan_rel(
                        step,
                        *pred,
                        spec,
                        cols.len(),
                        db,
                        delta,
                        batch,
                        &mut child,
                        scratch,
                        out,
                        guard,
                    )
                };
                if result.is_ok() && child.n > 0 {
                    result = self.exec_batch(step + 1, db, delta, &child, scratch, out, guard);
                }
                scratch.batches[step] = child;
                result
            }
            Step::Neg {
                pred,
                cols,
                n_locals,
                consts,
                bounds,
            } => {
                let mut child = mem::take(&mut scratch.batches[step]);
                child.reset(self.n_slots);
                let mut result = Ok(());
                if let Some(rel) = db.relation_id(*pred) {
                    let mut pattern = mem::take(&mut scratch.patterns[step]);
                    pattern.clear();
                    pattern.resize(cols.len(), None);
                    for &(c, v) in consts {
                        pattern[c] = Some(v);
                    }
                    let mut locals = mem::take(&mut scratch.locals[step]);
                    locals.clear();
                    locals.resize(*n_locals, Const::Int(0));
                    // Memoize existence per distinct bound-cell tuple:
                    // batches routinely repeat the same join key.
                    let mut memo: FxHashMap<Box<[Const]>, bool> = FxHashMap::default();
                    let mut key: Vec<Const> = Vec::with_capacity(bounds.len());
                    for row in 0..batch.n {
                        key.clear();
                        key.extend(bounds.iter().map(|&(_, s)| batch.get(s, row)));
                        let exists = match memo.get(key.as_slice()) {
                            Some(&e) => e,
                            None => {
                                for &(c, s) in bounds {
                                    pattern[c] = Some(batch.get(s, row));
                                }
                                let mut rows: u32 = 0;
                                let e = rel.matching(&pattern).any(|fact| {
                                    rows = rows.saturating_add(1);
                                    for (i, col) in cols.iter().enumerate() {
                                        match col {
                                            NegCol::Local(l) => locals[*l as usize] = fact[i],
                                            NegCol::LocalCheck(l) => {
                                                if locals[*l as usize] != fact[i] {
                                                    return false;
                                                }
                                            }
                                            NegCol::Const(_) | NegCol::Bound(_) => {}
                                        }
                                    }
                                    true
                                });
                                result = scratch.cursor.probe_n(rows, guard);
                                memo.insert(key.clone().into_boxed_slice(), e);
                                e
                            }
                        };
                        if result.is_err() {
                            break;
                        }
                        if !exists {
                            self.carry_row(step, batch, row, &mut child);
                        }
                    }
                    scratch.patterns[step] = pattern;
                    scratch.locals[step] = locals;
                } else {
                    // Missing relation: the negation holds for every row.
                    for row in 0..batch.n {
                        self.carry_row(step, batch, row, &mut child);
                    }
                }
                if result.is_ok() {
                    result = self.exec_batch(step + 1, db, delta, &child, scratch, out, guard);
                }
                scratch.batches[step] = child;
                result
            }
            Step::Cmp { op, lhs, rhs } => {
                let mut child = mem::take(&mut scratch.batches[step]);
                child.reset(self.n_slots);
                let mut result = Ok(());
                for row in 0..batch.n {
                    let l = self.resolve_batch(*lhs, batch, row);
                    let r = self.resolve_batch(*rhs, batch, row);
                    match op.eval(&l, &r) {
                        Ok(true) => self.carry_row(step, batch, row, &mut child),
                        Ok(false) => {}
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                if result.is_ok() {
                    result = self.exec_batch(step + 1, db, delta, &child, scratch, out, guard);
                }
                scratch.batches[step] = child;
                result
            }
            Step::Arith {
                op,
                lhs,
                rhs,
                target,
            } => {
                let as_int = |v: Const| -> Result<i64> {
                    match v {
                        Const::Int(i) => Ok(i),
                        other => Err(DatalogError::IncomparableTerms {
                            left: other.to_string(),
                            right: "integer".to_owned(),
                        }),
                    }
                };
                let mut child = mem::take(&mut scratch.batches[step]);
                child.reset(self.n_slots);
                let mut result = Ok(());
                for row in 0..batch.n {
                    let value = as_int(self.resolve_batch(*lhs, batch, row))
                        .and_then(|l| as_int(self.resolve_batch(*rhs, batch, row)).map(|r| (l, r)))
                        .and_then(|(l, r)| op.eval(l, r));
                    let value = match value {
                        Ok(v) => Const::Int(v),
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    };
                    let keep = match target {
                        ArithTarget::CheckConst(c) => *c == value,
                        ArithTarget::CheckSlot(s) => batch.get(*s, row) == value,
                        ArithTarget::Bind(_) => true,
                    };
                    if keep {
                        for &slot in &self.carry[step + 1] {
                            let v = match target {
                                // The bound slot is new: the parent batch
                                // has no column for it.
                                ArithTarget::Bind(b) if *b == slot => value,
                                _ => batch.get(slot, row),
                            };
                            child.cols[slot as usize].push(v);
                        }
                        child.n += 1;
                    }
                }
                if result.is_ok() {
                    result = self.exec_batch(step + 1, db, delta, &child, scratch, out, guard);
                }
                scratch.batches[step] = child;
                result
            }
        }
    }

    /// Append one join pair — input-batch row × relation row — to the
    /// child batch, flushing a full child downstream.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn push_rel_pair(
        &self,
        step: usize,
        spec: &ScanSpec,
        batch: &Batch,
        row: usize,
        rel: &Relation,
        rel_row: u32,
        child: &mut Batch,
        db: &Database,
        delta: Option<&FactBuf>,
        scratch: &mut Scratch,
        out: &mut FactBuf,
        guard: &EvalGuard,
    ) -> Result<()> {
        for &(slot, from) in &spec.gather {
            let v = match from {
                Some(c) => rel.cell(rel_row, c),
                None => batch.get(slot, row),
            };
            child.cols[slot as usize].push(v);
        }
        child.n += 1;
        if child.n >= CHUNK {
            self.exec_batch(step + 1, db, delta, child, scratch, out, guard)?;
            child.reset(self.n_slots);
        }
        Ok(())
    }

    /// Fill `rows` with the live rows satisfying this scan's constant
    /// and repeated-variable columns, driven by the most selective
    /// constant column's index when the scan has one.
    fn scan_candidates(spec: &ScanSpec, rel: &Relation, rows: &mut Vec<u32>) {
        rows.clear();
        match spec
            .consts
            .iter()
            .copied()
            .min_by_key(|&(c, v)| rel.count_eq(c, v))
        {
            Some((c, v)) => rel.probe_rows(c, v, rows),
            None => rel.live_rows(rows),
        }
        Self::retain_scan_rows(spec, rel, rows);
    }

    /// Drop candidate rows violating this scan's constant columns or
    /// intra-atom repeated variables. The merge path seeks on a *bound*
    /// column, so even a single const column must still be checked here.
    fn retain_scan_rows(spec: &ScanSpec, rel: &Relation, rows: &mut Vec<u32>) {
        if !spec.consts.is_empty() || !spec.checks.is_empty() {
            rows.retain(|&r| {
                spec.consts.iter().all(|&(c, v)| rel.cell(r, c) == v)
                    && spec
                        .checks
                        .iter()
                        .all(|&(c, b)| rel.cell(r, c) == rel.cell(r, b))
            });
        }
    }

    /// Probe `table` with the bound cells of each batch row in `rows`,
    /// pushing every verified match (hash collisions are filtered by
    /// comparing the bound cells) into `child`.
    #[allow(clippy::too_many_arguments)]
    fn probe_table(
        &self,
        step: usize,
        spec: &ScanSpec,
        table: &JoinTable,
        rows: impl Iterator<Item = usize>,
        rel: &Relation,
        batch: &Batch,
        child: &mut Batch,
        db: &Database,
        delta: Option<&FactBuf>,
        scratch: &mut Scratch,
        out: &mut FactBuf,
        guard: &EvalGuard,
    ) -> Result<()> {
        for row in rows {
            let cands = table.get(hash_cells(
                spec.bounds.iter().map(|&(_, s)| batch.get(s, row)),
            ));
            if cands.is_empty() {
                continue;
            }
            scratch.cursor.probe_n(clamp(cands.len()), guard)?;
            for &(_, r) in cands {
                if spec
                    .bounds
                    .iter()
                    .all(|&(c, s)| rel.cell(r, c) == batch.get(s, row))
                {
                    self.push_rel_pair(
                        step, spec, batch, row, rel, r, child, db, delta, scratch, out, guard,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Whether a merge join of `batch` on bound column `col` (slot
    /// `slot`) is predicted to make more than `budget` probes: the
    /// relation rows matching the column's cells at up to
    /// [`MERGE_SAMPLES`] evenly spaced batch rows, scaled to the whole
    /// batch. The cheap `count_eq`, which also counts tombstones, screens
    /// first; only a prediction over budget is confirmed with live counts,
    /// which walk the matching rows when the relation has tombstones.
    fn merge_over_budget(
        rel: &Relation,
        (col, slot): (usize, u32),
        batch: &Batch,
        budget: usize,
    ) -> bool {
        let stride = batch.n.div_ceil(MERGE_SAMPLES).max(1);
        let samples = batch.n.div_ceil(stride).max(1);
        let over = |count: &dyn Fn(usize, Const) -> usize| {
            (0..batch.n)
                .step_by(stride)
                .map(|row| count(col, batch.get(slot, row)))
                .sum::<usize>()
                .saturating_mul(batch.n)
                / samples
                > budget
        };
        over(&|c, v| rel.count_eq(c, v)) && over(&|c, v| rel.count_eq_live(c, v))
    }

    /// Batched scan of a stored relation. Fills `child` with join pairs
    /// (flushing at [`CHUNK`]); the caller flushes the remainder.
    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn scan_rel(
        &self,
        step: usize,
        pred: SymId,
        spec: &ScanSpec,
        arity: usize,
        db: &Database,
        delta: Option<&FactBuf>,
        batch: &Batch,
        child: &mut Batch,
        scratch: &mut Scratch,
        out: &mut FactBuf,
        guard: &EvalGuard,
    ) -> Result<()> {
        let Some(rel) = db.relation_id(pred) else {
            return Ok(());
        };
        if rel.arity() != Some(arity) {
            return Ok(()); // empty (or never-populated) relation
        }

        if spec.bounds.is_empty() {
            // No join columns: the matching rows are the same for every
            // batch row. Compute them once, then cross-product.
            let mut rows = mem::take(&mut scratch.rowbufs[step]);
            Self::scan_candidates(spec, rel, &mut rows);
            let mut result = Ok(());
            'batch: for row in 0..batch.n {
                result = scratch.cursor.probe_n(clamp(rows.len()), guard);
                if result.is_err() {
                    break;
                }
                for &r in &rows {
                    result = self.push_rel_pair(
                        step, spec, batch, row, rel, r, child, db, delta, scratch, out, guard,
                    );
                    if result.is_err() {
                        break 'batch;
                    }
                }
            }
            scratch.rowbufs[step] = rows;
            return result;
        }

        // Hash join on every bound column against the step's cached
        // relation-side table, when it is current for this relation
        // version or worth building now. Building costs O(candidates)
        // once per version (the most selective constant's rows, else the
        // whole relation). It is worth it when the candidates fit in a
        // chunk and are at most TABLE_BUILD_RATIO times the batch, so
        // one-off small evaluations (incremental delta propagation, point
        // queries) stay on the indexes. It is also worth it when, with two
        // or more bound columns, the merge join below is predicted to
        // probe more than hashing the relation costs (BUILD_ROW_PROBES per
        // row): the merge seeks on the first bound column and filters the
        // rest per row, so a key group costs (rows seeked) × (batch rows
        // in the group) probes, and the prediction samples that from the
        // index before seeking anything. A first bound column that is
        // constant, as in the cautious `beaten` self-join, is the extreme
        // case: one key group spans the whole relation.
        let multi = spec.bounds.len() >= 2;
        let bail = rel
            .len()
            .saturating_mul(BUILD_ROW_PROBES)
            .saturating_add(CHUNK);
        let mut current = scratch.tables[step]
            .as_ref()
            .is_some_and(|t| t.version == rel.version());
        if !current {
            let build = spec
                .consts
                .iter()
                .map(|&(c, v)| rel.count_eq(c, v))
                .min()
                .unwrap_or(rel.len());
            if build <= CHUNK.min(batch.n.saturating_mul(TABLE_BUILD_RATIO))
                || (multi && Self::merge_over_budget(rel, spec.bounds[0], batch, bail))
            {
                scratch.tables[step] =
                    Some(JoinTable::build(spec, rel, &mut scratch.rowbufs[step]));
                current = true;
            }
        }
        if current {
            let table = scratch.tables[step].take().expect("table is current");
            let result = self.probe_table(
                step,
                spec,
                &table,
                0..batch.n,
                rel,
                batch,
                child,
                db,
                delta,
                scratch,
                out,
                guard,
            );
            scratch.tables[step] = Some(table);
            return result;
        }

        // Merge join: sort the batch on one bound column (keys computed
        // once, not per comparison) and walk that column's sorted
        // permutation index with a galloping cursor — one forward merge
        // instead of a hash probe per row. Cursor construction sorts the
        // index's uncovered tail, so batches too small to amortize that
        // probe each key group directly instead (binary search per run
        // plus an unsorted-tail scan). A batch of at most MERGE_SAMPLES
        // rows whose first bound column matches more than an eighth of
        // the relation seeks on the bound column whose cells match the
        // fewest rows: every row is counted, and it has that few seeks
        // whichever column is chosen. Larger batches keep the first bound
        // column: a more selective column shortens key groups but
        // multiplies the seeks, each of which gallops every sorted run,
        // and an unselective first column is what the hash join above
        // already catches. Before each key group is seeked, the probes
        // spent plus its cost predicted from the index (matching rows ×
        // group length) are checked against the same budget, and past it
        // the remaining rows defect to the hash join, caching its table
        // for the later chunks. The prediction is screened from cheap to
        // exact — the relation size, then `count_eq`, then live rows —
        // and defects only when every stage is over budget. The
        // probes-spent check alone stays as a fallback.
        let matches = |(c, s): (usize, u32)| {
            (0..batch.n)
                .map(|row| rel.count_eq(c, batch.get(s, row)))
                .sum::<usize>()
        };
        let (jcol, jslot) = if multi
            && batch.n <= MERGE_SAMPLES
            && matches(spec.bounds[0]).saturating_mul(MERGE_SAMPLES) > rel.len()
        {
            spec.bounds
                .iter()
                .copied()
                .min_by_key(|&b| matches(b))
                .expect("a multi-column scan has bound columns")
        } else {
            spec.bounds[0]
        };
        let mut order: Vec<(u128, u32)> = (0..batch.n)
            .map(|r| (key_of(batch.get(jslot, r)), clamp(r)))
            .collect();
        order.sort_unstable();
        let mut cur = (batch.n >= CURSOR_BATCH_MIN).then(|| rel.col_cursor(jcol));
        let mut rows = mem::take(&mut scratch.rowbufs[step]);
        let mut result = Ok(());
        let mut spent = 0usize;
        let mut i = 0;
        'merge: while i < order.len() {
            let k = order[i].0;
            let v = batch.get(jslot, order[i].1 as usize);
            let mut j = i + 1;
            while j < order.len() && order[j].0 == k {
                j += 1;
            }
            let over = |rows: usize| spent.saturating_add(rows.saturating_mul(j - i)) > bail;
            if multi
                && (spent > bail
                    || (over(rel.len())
                        && over(rel.count_eq(jcol, v))
                        && over(rel.count_eq_live(jcol, v))))
            {
                let table = JoinTable::build(spec, rel, &mut rows);
                let rest = order[i..].iter().map(|&(_, br)| br as usize);
                result = self.probe_table(
                    step, spec, &table, rest, rel, batch, child, db, delta, scratch, out, guard,
                );
                scratch.tables[step] = Some(table);
                break;
            }
            rows.clear();
            match &mut cur {
                Some(cur) => cur.seek(v, &mut rows),
                None => rel.probe_rows(jcol, v, &mut rows),
            }
            Self::retain_scan_rows(spec, rel, &mut rows);
            let probes = rows.len().saturating_mul(j - i);
            spent = spent.saturating_add(probes);
            result = scratch.cursor.probe_n(clamp(probes), guard);
            if result.is_err() {
                break;
            }
            for &(_, br) in &order[i..j] {
                let row = br as usize;
                for &r in &rows {
                    if spec
                        .bounds
                        .iter()
                        .all(|&(c, s)| c == jcol || rel.cell(r, c) == batch.get(s, row))
                    {
                        result = self.push_rel_pair(
                            step, spec, batch, row, rel, r, child, db, delta, scratch, out, guard,
                        );
                        if result.is_err() {
                            break 'merge;
                        }
                    }
                }
            }
            i = j;
        }
        scratch.rowbufs[step] = rows;
        result
    }

    /// Batched scan of the semi-naive delta (a plain fact list): nested
    /// loop, outer over delta facts, inner over batch rows. The planner
    /// schedules delta scans early, so the batch side is small here.
    #[allow(clippy::too_many_arguments)]
    fn scan_delta(
        &self,
        step: usize,
        spec: &ScanSpec,
        db: &Database,
        delta: Option<&FactBuf>,
        batch: &Batch,
        child: &mut Batch,
        scratch: &mut Scratch,
        out: &mut FactBuf,
        guard: &EvalGuard,
    ) -> Result<()> {
        let facts = delta.expect("delta variant evaluated without a delta");
        let mut result = Ok(());
        'facts: for fi in 0..facts.len() {
            let fact = facts.row(fi);
            result = scratch.cursor.probe_n(clamp(batch.n), guard);
            if result.is_err() {
                break;
            }
            if !spec.consts.iter().all(|&(c, v)| fact[c] == v)
                || !spec.checks.iter().all(|&(c, b)| fact[c] == fact[b])
            {
                continue;
            }
            for row in 0..batch.n {
                if !spec
                    .bounds
                    .iter()
                    .all(|&(c, s)| batch.get(s, row) == fact[c])
                {
                    continue;
                }
                for &(slot, from) in &spec.gather {
                    let v = match from {
                        Some(c) => fact[c],
                        None => batch.get(slot, row),
                    };
                    child.cols[slot as usize].push(v);
                }
                child.n += 1;
                if child.n >= CHUNK {
                    result = self.exec_batch(step + 1, db, delta, child, scratch, out, guard);
                    child.reset(self.n_slots);
                    if result.is_err() {
                        break 'facts;
                    }
                }
            }
        }
        result
    }

    /// Evaluate the plan with the retained tuple-at-a-time executor: the
    /// reference semantics the batched path is differentially tested
    /// against (and an escape hatch, via `Executor::Tuple`). Same
    /// contract as [`RulePlan::eval`]; the emitted multiset of head
    /// tuples is identical, only the order of `out` may differ.
    pub fn eval_reference(
        &self,
        db: &Database,
        delta: Option<&FactBuf>,
        scratch: &mut Scratch,
        out: &mut FactBuf,
        guard: &EvalGuard,
    ) -> Result<()> {
        debug_assert_eq!(scratch.bindings.len(), self.n_slots);
        self.exec_tuple(0, db, delta, scratch, out, guard)?;
        scratch.cursor.flush(guard)
    }

    #[allow(clippy::too_many_lines)]
    fn exec_tuple(
        &self,
        step: usize,
        db: &Database,
        delta: Option<&FactBuf>,
        scratch: &mut Scratch,
        out: &mut FactBuf,
        guard: &EvalGuard,
    ) -> Result<()> {
        let Some(s) = self.steps.get(step) else {
            scratch.cursor.emit(guard)?;
            out.push_row(self.head.iter().map(|h| match h {
                ValSrc::Const(c) => *c,
                ValSrc::Slot(s) => scratch.bindings[*s as usize],
            }));
            return Ok(());
        };
        match s {
            Step::Scan {
                pred,
                from_delta,
                cols,
                spec: _,
            } => {
                if *from_delta {
                    // Delta facts are filtered inline — no pattern probe,
                    // no index: the whole delta is consumed anyway.
                    let facts = delta.expect("delta variant evaluated without a delta");
                    let mut result = Ok(());
                    'facts: for fi in 0..facts.len() {
                        let fact = facts.row(fi);
                        result = scratch.cursor.probe(guard);
                        if result.is_err() {
                            break;
                        }
                        for (i, col) in cols.iter().enumerate() {
                            match col {
                                ScanCol::Const(c) => {
                                    if *c != fact[i] {
                                        continue 'facts;
                                    }
                                }
                                ScanCol::Bound(s) | ScanCol::Check(s) => {
                                    if scratch.bindings[*s as usize] != fact[i] {
                                        continue 'facts;
                                    }
                                }
                                ScanCol::Bind(s) => scratch.bindings[*s as usize] = fact[i],
                            }
                        }
                        result = self.exec_tuple(step + 1, db, delta, scratch, out, guard);
                        if result.is_err() {
                            break;
                        }
                    }
                    return result;
                }
                let rel = match db.relation_id(*pred) {
                    Some(r) => r,
                    None => return Ok(()), // empty relation: no matches
                };
                let mut pattern = mem::take(&mut scratch.patterns[step]);
                pattern.clear();
                for col in cols {
                    pattern.push(match col {
                        ScanCol::Const(c) => Some(*c),
                        ScanCol::Bound(s) => Some(scratch.bindings[*s as usize]),
                        ScanCol::Bind(_) | ScanCol::Check(_) => None,
                    });
                }
                let mut result = Ok(());
                for fact in rel.matching(&pattern) {
                    result = scratch.cursor.probe(guard);
                    if result.is_err() {
                        break;
                    }
                    let mut ok = true;
                    for (i, col) in cols.iter().enumerate() {
                        match col {
                            ScanCol::Bind(s) => scratch.bindings[*s as usize] = fact[i],
                            ScanCol::Check(s) => {
                                if scratch.bindings[*s as usize] != fact[i] {
                                    ok = false;
                                    break;
                                }
                            }
                            ScanCol::Const(_) | ScanCol::Bound(_) => {}
                        }
                    }
                    if ok {
                        result = self.exec_tuple(step + 1, db, delta, scratch, out, guard);
                        if result.is_err() {
                            break;
                        }
                    }
                }
                scratch.patterns[step] = pattern;
                result
            }
            Step::Neg {
                pred,
                cols,
                n_locals,
                ..
            } => {
                if let Some(rel) = db.relation_id(*pred) {
                    let mut pattern = mem::take(&mut scratch.patterns[step]);
                    pattern.clear();
                    for col in cols {
                        pattern.push(match col {
                            NegCol::Const(c) => Some(*c),
                            NegCol::Bound(s) => Some(scratch.bindings[*s as usize]),
                            NegCol::Local(_) | NegCol::LocalCheck(_) => None,
                        });
                    }
                    let mut locals = mem::take(&mut scratch.locals[step]);
                    locals.clear();
                    locals.resize(*n_locals, Const::Int(0));
                    let mut rows: u32 = 0;
                    let exists = rel.matching(&pattern).any(|fact| {
                        rows = rows.saturating_add(1);
                        for (i, col) in cols.iter().enumerate() {
                            match col {
                                NegCol::Local(l) => locals[*l as usize] = fact[i],
                                NegCol::LocalCheck(l) => {
                                    if locals[*l as usize] != fact[i] {
                                        return false;
                                    }
                                }
                                NegCol::Const(_) | NegCol::Bound(_) => {}
                            }
                        }
                        true
                    });
                    scratch.patterns[step] = pattern;
                    scratch.locals[step] = locals;
                    scratch.cursor.probe_n(rows, guard)?;
                    if exists {
                        return Ok(());
                    }
                }
                self.exec_tuple(step + 1, db, delta, scratch, out, guard)
            }
            Step::Cmp { op, lhs, rhs } => {
                let l = self.resolve(*lhs, scratch);
                let r = self.resolve(*rhs, scratch);
                if op.eval(&l, &r)? {
                    self.exec_tuple(step + 1, db, delta, scratch, out, guard)
                } else {
                    Ok(())
                }
            }
            Step::Arith {
                op,
                lhs,
                rhs,
                target,
            } => {
                let as_int = |v: Const| -> Result<i64> {
                    match v {
                        Const::Int(i) => Ok(i),
                        other => Err(DatalogError::IncomparableTerms {
                            left: other.to_string(),
                            right: "integer".to_owned(),
                        }),
                    }
                };
                let l = as_int(self.resolve(*lhs, scratch))?;
                let r = as_int(self.resolve(*rhs, scratch))?;
                let value = Const::Int(op.eval(l, r)?);
                match target {
                    ArithTarget::CheckConst(c) => {
                        if *c != value {
                            return Ok(());
                        }
                    }
                    ArithTarget::CheckSlot(s) => {
                        if scratch.bindings[*s as usize] != value {
                            return Ok(());
                        }
                    }
                    ArithTarget::Bind(s) => scratch.bindings[*s as usize] = value,
                }
                self.exec_tuple(step + 1, db, delta, scratch, out, guard)
            }
        }
    }

    fn resolve(&self, v: ValSrc, scratch: &Scratch) -> Const {
        match v {
            ValSrc::Const(c) => c,
            ValSrc::Slot(s) => scratch.bindings[s as usize],
        }
    }
}

/// Delta-variant positions of a rule within `stratum_preds`: each body
/// position holding a positive literal over a same-stratum predicate.
pub(crate) fn delta_positions(rule: &Clause, stratum_preds: &HashSet<SymId>) -> Vec<usize> {
    rule.body
        .iter()
        .enumerate()
        .filter_map(|(i, l)| match l {
            Literal::Pos(a) if stratum_preds.contains(&a.predicate) => Some(i),
            _ => None,
        })
        .collect()
}

/// Compile-and-run convenience used by ad hoc queries: evaluates `rule`
/// against `db` with a freshly compiled plan.
/// Evaluate one rule against a fixpointed database, consulting `guard`
/// during the join: ad hoc queries issued by long-lived sessions run
/// under the session's deadline / budget / cancellation (pass
/// [`EvalGuard::unlimited`] for unguarded evaluation).
pub(crate) fn eval_rule_once_guarded(
    rule: &Clause,
    db: &Database,
    guard: &EvalGuard,
) -> Result<Vec<Fact>> {
    let plan = RulePlan::compile(rule, None, db)?;
    let mut scratch = plan.new_scratch();
    let mut out = FactBuf::default();
    plan.eval(db, None, &mut scratch, &mut out, guard)?;
    Ok(out.rows().map(Fact::from).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn plan_for(src: &str, head: &str, delta_pos: Option<usize>) -> RulePlan {
        let p = parse_program(src).unwrap();
        let db = Database::new();
        let rule = p
            .clauses()
            .iter()
            .rfind(|c| !c.is_fact() && c.head.predicate.as_str() == head)
            .expect("rule present");
        RulePlan::compile(rule, delta_pos, &db).unwrap()
    }

    #[test]
    fn delta_literal_is_scheduled_first() {
        let src = "edge(a, b). path(X, Y) :- edge(X, Y).\
                   path(X, Z) :- edge(X, Y), path(Y, Z).";
        // Delta on body position 1 (path): it should be first in the order.
        let plan = plan_for(src, "path", Some(1));
        assert!(
            plan.order_desc.contains(":- [1,0]"),
            "delta first: {}",
            plan.order_desc
        );
        assert_eq!(plan.delta_pred.unwrap().as_str(), "path");
    }

    #[test]
    fn builtins_schedule_when_bound() {
        // The comparison references Y, bound only by the second literal:
        // the planner must order it after s(Y) instead of failing.
        let src = "q(a). s(1). p(X) :- q(X), Y < 2, s(Y).";
        let plan = plan_for(src, "p", None);
        let order: &str = plan
            .order_desc
            .split('[')
            .nth(1)
            .unwrap()
            .trim_end_matches(']');
        let pos_of = |i: char| order.chars().position(|c| c == i).unwrap();
        assert!(pos_of('2') < pos_of('1'), "cmp after s(Y): {order}");
    }

    #[test]
    fn existential_set_fixed_by_textual_order() {
        // Y is existential in `not r(X, Y)` (no earlier positive binds
        // it), even though p(X, Y) would bind Y if scheduled first.
        let src = "s(a). p(a, b). r(a, c). q(X) :- s(X), not r(X, Y), p(X, Y).";
        let p = parse_program(src).unwrap();
        let rule = p.clauses().iter().find(|c| !c.is_fact()).unwrap();
        let mut db = Database::new();
        db.insert("s", vec![Const::sym("a")]);
        db.insert("p", vec![Const::sym("a"), Const::sym("b")]);
        db.insert("r", vec![Const::sym("a"), Const::sym("c")]);
        let derived = eval_rule_once_guarded(rule, &db, &EvalGuard::unlimited()).unwrap();
        // ∃Y r(a, Y) holds, so the negation fails and nothing is derived —
        // even though the (a, b) binding from p would not match r.
        assert!(derived.is_empty(), "derived: {derived:?}");
    }

    #[test]
    fn unready_builtin_reports_unsafe_variable() {
        use crate::clause::Clause;
        use crate::{Atom, CmpOp};
        // Hand-built rule (the parser/safety layer would reject it):
        // p(X) :- q(X), Z != a — Z is never bound.
        let rule = Clause::new(
            Atom::new("p", vec![Term::var("X")]),
            vec![
                Literal::Pos(Atom::new("q", vec![Term::var("X")])),
                Literal::Cmp {
                    op: CmpOp::Ne,
                    lhs: Term::var("Z"),
                    rhs: Term::sym("a"),
                },
            ],
        );
        let db = Database::new();
        let err = RulePlan::compile(&rule, None, &db).unwrap_err();
        assert!(matches!(err, DatalogError::UnsafeVariable { variable, .. } if variable == "Z"));
    }

    /// Both executors over a mixed rule set (joins, negation, arithmetic,
    /// comparisons, repeated variables) must derive identical sets.
    #[test]
    fn batched_matches_reference_executor() {
        let src = "e(a, b). e(b, c). e(c, a). e(a, a).\
                   n(1). n(2). n(3).\
                   loop(X) :- e(X, X).\
                   pair(X, Y) :- e(X, Y), not loop(X).\
                   sum(X, S) :- n(X), S = X + 10, X < 3.";
        let p = parse_program(src).unwrap();
        let mut db = Database::new();
        for c in p.clauses().iter().filter(|c| c.is_fact()) {
            let fact: Fact = c
                .head
                .terms
                .iter()
                .map(|t| *t.as_const().unwrap())
                .collect();
            db.insert(c.head.predicate.as_str(), fact);
        }
        let guard = EvalGuard::unlimited();
        for rule in p.clauses().iter().filter(|c| !c.is_fact()) {
            let plan = RulePlan::compile(rule, None, &db).unwrap();
            let (mut batched, mut tuple) = (FactBuf::default(), FactBuf::default());
            plan.eval(&db, None, &mut plan.new_scratch(), &mut batched, &guard)
                .unwrap();
            plan.eval_reference(&db, None, &mut plan.new_scratch(), &mut tuple, &guard)
                .unwrap();
            let mut batched: Vec<Fact> = batched.rows().map(Fact::from).collect();
            let mut tuple: Vec<Fact> = tuple.rows().map(Fact::from).collect();
            batched.sort();
            tuple.sort();
            assert_eq!(batched, tuple, "rule {rule}");
        }
    }
}
