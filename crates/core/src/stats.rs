//! Analysis-result statistics: the "introspection dashboard".
//!
//! The paper's §3 intuition — "there are many program elements whose
//! analysis cost is vastly disproportionate to their importance" — is an
//! empirical claim about the *distribution* of points-to sizes. This module
//! computes that distribution and the heavy hitters, both for inspection
//! (the CLI's `--stats` flag) and for documentation of workload shapes.

use rudoop_ir::{MethodId, Program, VarId};

use crate::introspection::IntrospectionMetrics;
use crate::solver::PointsToResult;
use crate::supervisor::{SupervisedRun, SupervisionVerdict};

/// A log₂ histogram of points-to set sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeHistogram {
    /// `buckets[i]` counts sets with size in `[2^i, 2^(i+1))`; bucket 0
    /// counts singletons, and `empty` counts empty sets.
    pub buckets: Vec<u64>,
    /// Number of empty sets.
    pub empty: u64,
    /// Largest set observed.
    pub max: usize,
    /// Total elements over all sets.
    pub total: u64,
}

impl SizeHistogram {
    fn from_sizes(sizes: impl Iterator<Item = usize>) -> Self {
        let mut buckets = vec![0u64; 1];
        let mut empty = 0u64;
        let mut max = 0usize;
        let mut total = 0u64;
        for s in sizes {
            total += s as u64;
            max = max.max(s);
            if s == 0 {
                empty += 1;
                continue;
            }
            let b = (usize::BITS - 1 - s.leading_zeros()) as usize;
            if buckets.len() <= b {
                buckets.resize(b + 1, 0);
            }
            buckets[b] += 1;
        }
        SizeHistogram {
            buckets,
            empty,
            max,
            total,
        }
    }

    /// Renders like `0:12 1:5 2-3:9 4-7:2 …`.
    pub fn render(&self) -> String {
        let mut parts = vec![format!("empty:{}", self.empty)];
        for (i, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let lo = 1usize << i;
            let hi = (1usize << (i + 1)) - 1;
            if lo == hi {
                parts.push(format!("{lo}:{count}"));
            } else {
                parts.push(format!("{lo}-{hi}:{count}"));
            }
        }
        parts.join(" ")
    }
}

/// Distribution statistics for one analysis result.
#[derive(Debug, Clone)]
pub struct ResultStats {
    /// Histogram of projected var-points-to sizes.
    pub var_pts_histogram: SizeHistogram,
    /// Histogram of projected field-points-to sizes.
    pub field_pts_histogram: SizeHistogram,
    /// The `n` variables with the largest points-to sets.
    pub fattest_vars: Vec<(VarId, usize)>,
    /// The `n` methods with the largest total points-to volume (metric #2).
    pub fattest_methods: Vec<(MethodId, u32)>,
}

impl ResultStats {
    /// Computes distribution statistics, keeping the top `n` heavy hitters.
    pub fn compute(program: &Program, result: &PointsToResult, n: usize) -> Self {
        let var_pts_histogram = SizeHistogram::from_sizes(result.var_pts.values().map(Vec::len));
        let field_pts_histogram =
            SizeHistogram::from_sizes(result.field_pts.values().map(Vec::len));

        let mut fattest_vars: Vec<(VarId, usize)> = result
            .var_pts
            .iter()
            .map(|(v, pts)| (v, pts.len()))
            .collect();
        fattest_vars.sort_by_key(|&(v, len)| (std::cmp::Reverse(len), v));
        fattest_vars.truncate(n);

        let metrics = IntrospectionMetrics::compute(program, result);
        let mut fattest_methods: Vec<(MethodId, u32)> = metrics
            .method_total_pts
            .iter()
            .map(|(m, &vol)| (m, vol))
            .collect();
        fattest_methods.sort_by_key(|&(m, vol)| (std::cmp::Reverse(vol), m));
        fattest_methods.truncate(n);

        ResultStats {
            var_pts_histogram,
            field_pts_histogram,
            fattest_vars,
            fattest_methods,
        }
    }

    /// Renders a human-readable dashboard.
    pub fn render(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "var-points-to sizes:   {}",
            self.var_pts_histogram.render()
        );
        let _ = writeln!(
            out,
            "field-points-to sizes: {}",
            self.field_pts_histogram.render()
        );
        let _ = writeln!(out, "fattest variables:");
        for &(v, len) in &self.fattest_vars {
            let _ = writeln!(out, "  {:>8}  {}", len, program.var_display(v));
        }
        let _ = writeln!(out, "fattest methods (total points-to volume):");
        for &(m, vol) in &self.fattest_methods {
            let _ = writeln!(out, "  {:>8}  {}", vol, program.method_display(m));
        }
        out
    }
}

/// Renders the attempt history of a supervised run as a ladder table —
/// one line per rung with its outcome, stop cause, work counters, and
/// salvage summary — followed by the verdict line the CLI prints.
pub fn render_supervised(run: &SupervisedRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "degradation ladder:");
    for (i, a) in run.attempts.iter().enumerate() {
        let marker = if Some(i) == run.completed_rung {
            '*'
        } else {
            ' '
        };
        let status = match a.exhaustion {
            None => "complete".to_owned(),
            Some(cause) => format!("stopped: {cause}"),
        };
        let _ = writeln!(
            out,
            "{marker} [{i}] {:<18} {:<28} derivations={:<10} bytes~{:<12} salvaged: {} vars / {} calls / {} methods",
            a.rung.spec(),
            status,
            a.stats.derivations,
            a.stats.bytes_estimate(),
            a.salvaged.vars_with_facts,
            a.salvaged.resolved_call_sites,
            a.salvaged.reachable_methods,
        );
        if a.ran_first_pass {
            let _ = writeln!(out, "      (computed shared insensitive first pass)");
        }
    }
    match run.verdict {
        SupervisionVerdict::Complete => {
            let _ = writeln!(
                out,
                "verdict: complete — {} finished within budget",
                run.final_analysis().unwrap_or("?")
            );
        }
        SupervisionVerdict::Degraded => {
            let _ = writeln!(
                out,
                "verdict: degraded — fell back to {} (rung {})",
                run.final_analysis().unwrap_or("?"),
                run.completed_rung.unwrap_or(0)
            );
        }
        SupervisionVerdict::Exhausted => {
            let salvage = run
                .salvaged
                .as_ref()
                .map(|s| {
                    let f = crate::supervisor::SalvagedFacts::of(s);
                    format!(
                        "best partial result kept: {} vars with facts, {} resolved calls",
                        f.vars_with_facts, f.resolved_call_sites
                    )
                })
                .unwrap_or_else(|| "no partial result".to_owned());
            let _ = writeln!(
                out,
                "verdict: exhausted — every rung ran out of budget; {salvage}"
            );
        }
    }
    out
}

/// Renders the full non-empty points-to dump as the CLI's `--dump` report:
/// one `var -> {Class, ...}` line per variable with facts, in variable
/// order. The daemon serves this exact string so service responses are
/// byte-identical to batch stdout.
pub fn render_dump(program: &Program, result: &PointsToResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (v, pts) in result.var_pts.iter() {
        if pts.is_empty() {
            continue;
        }
        let names: Vec<String> = pts
            .iter()
            .map(|&h| program.classes[program.allocs[h].class].name.clone())
            .collect();
        let _ = writeln!(
            out,
            "{} -> {{{}}}",
            program.var_display(v),
            names.join(", ")
        );
    }
    out
}

/// Renders the CLI's `--pts` report for one variable query: one
/// `var -> {Class@alloc, ...}` line per matching variable, or `None` when
/// nothing matches (the CLI notes that on stderr; the daemon answers with
/// a typed error). The daemon serves this exact string so service
/// responses are byte-identical to batch stdout.
pub fn render_pts(program: &Program, result: &PointsToResult, query: &str) -> Option<String> {
    use std::fmt::Write as _;
    let matched: Vec<_> = program
        .vars
        .iter()
        .filter(|&(v, _)| program.var_display(v) == *query || program.vars[v].name == *query)
        .collect();
    if matched.is_empty() {
        return None;
    }
    let mut out = String::new();
    for (v, _) in matched {
        let names: Vec<String> = result
            .points_to(v)
            .iter()
            .map(|&h| format!("{}@{}", program.classes[program.allocs[h].class].name, h))
            .collect();
        let _ = writeln!(
            out,
            "{} -> {{{}}}",
            program.var_display(v),
            names.join(", ")
        );
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Insensitive;
    use crate::solver::{analyze, SolverConfig};
    use rudoop_ir::{ClassHierarchy, ProgramBuilder};

    fn fixture() -> (Program, PointsToResult) {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let fat = b.var(main, "fat");
        for i in 0..5 {
            let v = b.var(main, &format!("v{i}"));
            b.alloc(main, v, obj);
            b.mov(main, fat, v);
        }
        let _lonely = b.var(main, "lonely");
        b.entry(main);
        let p = b.finish();
        let h = ClassHierarchy::new(&p);
        let r = analyze(&p, &h, &Insensitive, &SolverConfig::default());
        (p, r)
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = SizeHistogram::from_sizes([0, 1, 1, 2, 3, 5, 9].into_iter());
        assert_eq!(h.empty, 1);
        assert_eq!(h.buckets[0], 2); // size 1
        assert_eq!(h.buckets[1], 2); // sizes 2-3
        assert_eq!(h.buckets[2], 1); // sizes 4-7
        assert_eq!(h.buckets[3], 1); // sizes 8-15
        assert_eq!(h.max, 9);
        assert_eq!(h.total, 21);
        assert!(h.render().starts_with("empty:1 1:2"));
    }

    #[test]
    fn fattest_vars_are_sorted_descending() {
        let (p, r) = fixture();
        let stats = ResultStats::compute(&p, &r, 3);
        assert_eq!(stats.fattest_vars.len(), 3);
        assert_eq!(stats.fattest_vars[0].1, 5, "the `fat` variable leads");
        assert!(stats.fattest_vars[0].1 >= stats.fattest_vars[1].1);
        let rendered = stats.render(&p);
        assert!(rendered.contains("fat"), "{rendered}");
    }

    #[test]
    fn empty_sets_are_counted() {
        let (p, r) = fixture();
        let stats = ResultStats::compute(&p, &r, 2);
        assert!(
            stats.var_pts_histogram.empty >= 1,
            "lonely var has no objects"
        );
    }
}
