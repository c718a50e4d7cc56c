//! Totals of the Datalog back-end's `EvalStats` over full
//! materializations, and the per-rule join-probe ranking derived from
//! them.

use std::collections::BTreeMap;

use multilog_datalog::EvalStats;

use crate::Report;

#[derive(Debug, Default)]
pub struct EvalTotals {
    iterations: f64,
    facts_considered: f64,
    facts_added: f64,
    dedup_hits: f64,
    join_probes: f64,
    /// Per reduced rule: (join probes, facts derived).
    rules: BTreeMap<String, (u64, u64)>,
}

impl EvalTotals {
    pub fn add(&mut self, stats: &EvalStats) {
        self.iterations += stats.iterations as f64;
        self.facts_considered += stats.facts_considered as f64;
        self.facts_added += stats.facts_added as f64;
        for r in &stats.per_rule {
            self.dedup_hits += r.dedup_hits as f64;
            self.join_probes += r.join_probes as f64;
            let entry = self.rules.entry(r.rule.clone()).or_default();
            entry.0 += r.join_probes;
            entry.1 += r.facts_derived as u64;
        }
    }

    /// Set the `eval.*` counters and list the five rules with the most
    /// join probes.
    pub fn report(&self, report: &mut Report) {
        let ratio = |p: u64, d: u64| p as f64 / d.max(1) as f64;
        let mut rules: Vec<_> = self.rules.iter().map(|(r, &(p, d))| (r, p, d)).collect();
        rules.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        report.set("eval.join_probes", self.join_probes);
        report.set("eval.facts_considered", self.facts_considered);
        report.set("eval.facts_added", self.facts_added);
        report.set("eval.dedup_hits", self.dedup_hits);
        report.set("eval.iterations", self.iterations);
        report.set(
            "eval.probes_per_added",
            self.join_probes / self.facts_added.max(1.0),
        );
        let max_ratio = rules
            .iter()
            .map(|&(_, p, d)| ratio(p, d))
            .fold(0.0, f64::max);
        report.set("eval.max_rule_probes_per_derived", max_ratio);
        let top = rules.first().map_or(0.0, |&(_, p, _)| p as f64);
        report.set("eval.top_rule_share", top / self.join_probes.max(1.0));
        report.note(
            "top rules by join probes over the counted window (probes, derived, probes/derived):"
                .into(),
        );
        for (rule, probes, derived) in rules.into_iter().take(5) {
            report.note(format!(
                "  {probes:>12} {derived:>9} {:>10.1}  {rule}",
                ratio(probes, derived)
            ));
        }
    }
}
