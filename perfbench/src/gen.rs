//! Seeded input generation. Every input the program sees is `.mlog`
//! source text, goal text, or an update built here from `--seed`; the
//! same seed always yields the same inputs.

use std::collections::VecDeque;
use std::fmt::Write as _;

/// SplitMix64: small, fast, and stable across Rust releases, so a seed
/// names the same inputs on every toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of a run: `tag` separates the
    /// streams drawn from the same seed.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut rng = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(1) sampler over `0..n`: key 0 is the hottest.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Sizes for a stream of `n` databases (`n` even) in `[lo, hi]`, in
/// mirrored pairs: pair `j` holds `lo + u·(hi − lo)` and
/// `hi − u·(hi − lo)` with `u` in `[0, 1/2]` from the base-2 van der
/// Corput sequence plus a small seeded jitter. The first pair spans the
/// whole range and every prefix of whole pairs is spread evenly around
/// its middle, so a time-bounded run that stops after a whole pair sees
/// nearly the same size mix whatever the seed and however many pairs it
/// reached; the seed changes the contents.
pub fn spread_sizes(rng: &mut Rng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let pairs = n / 2;
    let strata = pairs.next_power_of_two() as f64;
    let span = (hi - lo) as f64;
    (0..pairs)
        .flat_map(|j| {
            let vdc = (j as u32).reverse_bits() as f64 / 2f64.powi(32);
            let u = (vdc + rng.unit() / strata) / 2.0;
            [lo + (u * span) as usize, hi - (u * span) as usize]
        })
        .collect()
}

/// One database of a batch stream, with the goals sent to it.
#[derive(Clone, Debug)]
pub struct BatchDb {
    pub name: String,
    /// Complete source text, stored queries (`<- goal.`) included. The
    /// last stored query is always [`BatchDb::point`], so the `run`
    /// answers double as the materialized reference for `query`.
    pub src: String,
    /// Clearance the requests run at.
    pub user: String,
    /// The point goal a `query` request answers demand-driven.
    pub point: String,
    /// Input m-facts (cells) in the source.
    pub mfacts: usize,
    /// Dashboard rows expected from the first stored query, one per
    /// level (`batch_polyinst` only).
    pub dashboard_rows: Option<usize>,
    /// Whether `op_run` is sent (the operational engine refuses
    /// aggregates, so dashboards get `run` and `query` only).
    pub op: bool,
}

fn lattice_header(out: &mut String, depth: usize) {
    for i in 0..depth {
        let _ = writeln!(out, "level(l{i}).");
    }
    for i in 1..depth {
        let _ = writeln!(out, "order(l{}, l{i}).", i - 1);
    }
}

/// The four example databases shipped with the repository, each with a
/// point goal appended as its last stored query.
pub fn example_dbs() -> Vec<BatchDb> {
    let examples: [(&str, &str, &str, &str, bool); 4] = [
        (
            "d1",
            include_str!("../../examples/data/d1.mlog"),
            "s",
            "s[p(k : a -C-> V)] << cau",
            true,
        ),
        (
            "mission",
            include_str!("../../examples/data/mission.mlog"),
            "s",
            "s[mission(phantom : objective -C-> V)] << cau",
            true,
        ),
        (
            "corporate",
            include_str!("../../examples/data/corporate.mlog"),
            "executive",
            "executive[project(atlas : budget -C-> V)] << opt",
            true,
        ),
        (
            "dashboard",
            include_str!("../../examples/data/dashboard.mlog"),
            "s",
            "s[emp(alice : sal -C-> V)] << opt",
            false,
        ),
    ];
    examples
        .into_iter()
        .map(|(name, text, user, point, op)| BatchDb {
            name: name.to_owned(),
            src: format!("{text}\n<- {point}.\n"),
            user: user.to_owned(),
            point: point.to_owned(),
            // Counted from the parsed database by the caller.
            mfacts: 0,
            dashboard_rows: None,
            op,
        })
        .collect()
}

/// A `batch_small` database: `facts` base m-facts over `facts / 4 + 1`
/// keys on the levels below the top, and ten top-level rules deriving
/// facts from `<< cau` (or `<< opt`) beliefs one level down.
pub fn small_db(rng: &mut Rng, name: String, facts: usize, depth: usize, cau: bool) -> BatchDb {
    let mut src = String::new();
    lattice_header(&mut src, depth);
    let top = depth - 1;
    let below = top - 1;
    let keys = facts / 4 + 1;
    for f in 0..facts {
        let level = rng.below(top);
        let class = rng.below(level + 1);
        let key = rng.below(keys);
        let _ = writeln!(src, "l{level}[data(k{key} : a -l{class}-> v{f})].");
    }
    let mode = if cau { "cau" } else { "opt" };
    for r in 0..10 {
        let key = rng.below(keys);
        let _ = writeln!(
            src,
            "l{top}[derived(k{key} : b -l{top}-> d{r})] <- l{below}[data(k{key} : a -C-> V)] << {mode}."
        );
    }
    let point = format!("l{top}[data(k{} : a -C-> V)] << {mode}", rng.below(keys));
    let _ = writeln!(src, "<- l{top}[derived(K : b -C-> V)] << {mode}.");
    let _ = writeln!(
        src,
        "<- l{below}[data(k{} : a -C-> V)] << opt.",
        rng.below(keys)
    );
    let _ = writeln!(src, "<- {point}.");
    BatchDb {
        name,
        src,
        user: format!("l{top}"),
        point,
        mfacts: facts,
        dashboard_rows: None,
        op: true,
    }
}

/// A `batch_polyinst` dashboard: `cells` salary cells over `keys` keys
/// at depth `depth`, each asserted at a random level and classified at
/// or below it, so most keys carry several values at several levels.
/// One aggregate rule counts each clearance's distinct salary beliefs.
pub fn dashboard_db(
    rng: &mut Rng,
    name: String,
    cells: usize,
    keys: usize,
    depth: usize,
) -> BatchDb {
    let mut src = String::new();
    lattice_header(&mut src, depth);
    // One seed cell per level so every dashboard row exists.
    for lvl in 0..depth {
        let _ = writeln!(src, "l{lvl}[emp(k0 : sal -l{lvl}-> s{lvl})].");
    }
    for c in 0..cells {
        let lvl = rng.below(depth);
        let cls = rng.below(lvl + 1);
        let key = rng.below(keys);
        let _ = writeln!(src, "l{lvl}[emp(k{key} : sal -l{cls}-> v{c})].");
    }
    let _ = writeln!(
        src,
        "total(H, count(K)) <- H[emp(K : sal -_C-> _V)] << opt, level(H)."
    );
    let top = depth - 1;
    let point = format!(
        "l{}[emp(k{} : sal -C-> V)] << opt",
        top - 1,
        rng.below(keys)
    );
    let _ = writeln!(src, "<- total(H, N).");
    let _ = writeln!(
        src,
        "<- l{top}[emp(k{} : sal -C-> V)] << opt.",
        rng.below(keys)
    );
    let _ = writeln!(src, "<- l1[emp(k{} : sal -C-> V)] << fir.", rng.below(keys));
    let _ = writeln!(src, "<- {point}.");
    BatchDb {
        name,
        src,
        user: format!("l{top}"),
        point,
        mfacts: cells + depth,
        dashboard_rows: Some(depth),
        op: false,
    }
}

/// The `serve_churn` database, kept as parts so the final-epoch check
/// can re-render it with the committed updates applied.
#[derive(Clone, Debug)]
pub struct ServeDb {
    pub depth: usize,
    pub keys: usize,
    /// Base m-facts, one clause text each.
    pub facts: Vec<String>,
    /// Lattice declarations and the cautious rules.
    header: String,
    rules: String,
}

impl ServeDb {
    /// `facts` base m-facts on the levels below the top over
    /// `facts / 4 + 1` keys, and twelve top-level rules consulting
    /// cautious beliefs one level down.
    pub fn generate(rng: &mut Rng, facts: usize, depth: usize) -> Self {
        let mut header = String::new();
        lattice_header(&mut header, depth);
        let top = depth - 1;
        let below = top - 1;
        let keys = facts / 4 + 1;
        let facts = (0..facts)
            .map(|f| {
                let level = rng.below(top);
                let class = rng.below(level + 1);
                let key = rng.below(keys);
                format!("l{level}[data(k{key} : a -l{class}-> v{f})].")
            })
            .collect();
        let mut rules = String::new();
        for r in 0..12 {
            // Rule r reads key r: the hot end of the key space, where
            // the writer and the readers concentrate.
            let _ = writeln!(
                rules,
                "l{top}[derived(k{r} : b -l{top}-> d{r})] <- l{below}[data(k{r} : a -C-> V)] << cau."
            );
        }
        ServeDb {
            depth,
            keys,
            facts,
            header,
            rules,
        }
    }

    /// Source text over the given base facts.
    pub fn render(&self, facts: &[String]) -> String {
        let mut src = self.header.clone();
        for f in facts {
            src.push_str(f);
            src.push('\n');
        }
        src.push_str(&self.rules);
        src
    }

    pub fn levels(&self) -> Vec<String> {
        (0..self.depth).map(|i| format!("l{i}")).collect()
    }

    /// Reader goals: sessions cycle through the levels and modes cycle
    /// firm/opt/cau, so every (level, mode) pair gets the same share;
    /// one goal in ten names a key absent from the database, a quarter
    /// of the top level's goals ask for derived facts, and keys are
    /// drawn Zipf-skewed.
    pub fn reader_goals(&self, rng: &mut Rng, n: usize) -> Vec<(usize, String)> {
        let zipf = Zipf::new(self.keys);
        let top = self.depth - 1;
        (0..n)
            .map(|i| {
                let session = i % self.depth;
                let round = i / self.depth;
                let mode = ["fir", "opt", "cau"][round % 3];
                let key = if (round / 3) % 10 == 9 {
                    format!("absent{}", rng.below(1000))
                } else {
                    format!("k{}", zipf.sample(rng))
                };
                let goal = if session == top && (round / 3) % 4 == 1 {
                    format!("l{top}[derived({key} : b -C-> V)] << {mode}")
                } else {
                    format!("l{session}[data({key} : a -C-> V)] << {mode}")
                };
                (session, goal)
            })
            .collect()
    }

    /// Goals whose answers cover every belief relation at `level`; the
    /// final-epoch check compares them against a from-scratch engine.
    pub fn check_goals(&self, level: usize) -> Vec<String> {
        let mut goals: Vec<String> = ["fir", "opt", "cau"]
            .iter()
            .map(|m| format!("l{level}[data(K : a -C-> V)] << {m}"))
            .collect();
        if level == self.depth - 1 {
            goals.push(format!("l{level}[derived(K : b -C-> V)] << cau"));
        }
        goals
    }
}

/// Churned facts live at once; past this many, the writer retracts.
const CHURN_LIVE: usize = 16;

/// The writer's single-fact update stream. It asserts fresh cells on
/// Zipf-skewed keys, cycling the levels below the top, until
/// [`CHURN_LIVE`] of them are live, then alternates retracting the
/// oldest live one with asserting a new one. The stream depends only on
/// the seed, never on timing.
#[derive(Debug)]
pub struct Churn {
    rng: Rng,
    zipf: Zipf,
    top: usize,
    asserted: usize,
    live: VecDeque<String>,
}

/// One update of the churn stream.
pub enum Update {
    Assert(String),
    Retract(String),
}

impl Churn {
    pub fn new(db: &ServeDb, rng: Rng) -> Self {
        Churn {
            rng,
            zipf: Zipf::new(db.keys),
            top: db.depth - 1,
            asserted: 0,
            live: VecDeque::new(),
        }
    }

    pub fn next_update(&mut self) -> Update {
        if self.live.len() >= CHURN_LIVE {
            if let Some(fact) = self.live.pop_front() {
                return Update::Retract(fact);
            }
        }
        let level = self.asserted % self.top;
        let class = self.rng.below(level + 1);
        let key = self.zipf.sample(&mut self.rng);
        let fact = format!("l{level}[data(k{key} : a -l{class}-> w{})].", self.asserted);
        self.asserted += 1;
        self.live.push_back(fact.clone());
        Update::Assert(fact)
    }

    /// The base facts plus the churned facts live now.
    pub fn present(&self, db: &ServeDb) -> Vec<String> {
        db.facts.iter().chain(&self.live).cloned().collect()
    }
}

/// FNV-1a over the generated text, so tests can tell two input sets
/// apart without keeping them.
pub fn digest(parts: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for part in parts {
        for &b in part.as_ref() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}
