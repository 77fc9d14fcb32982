//! `compare`: two result files against the bounds in `BENCHMARK.json`,
//! one row per workload × end-to-end metric. This is the `bench-diff`
//! ROADMAP item 1 asks for; it lives inside the benchmark so that a
//! change claiming a gain cannot edit it.

use crate::stats::{median, quartiles};
use obs::Json;
use std::fmt::Write as _;
use std::path::Path;

/// One end-to-end metric as `BENCHMARK.json` defines it.
#[derive(Clone, Debug, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics of a `BENCHMARK.json`.
pub fn read_bounds(path: &Path) -> Result<Vec<Bounded>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("an end_to_end metric lacks `{k}`"))
            };
            Ok(Bounded {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("an end_to_end metric lacks `bound`")?,
            })
        })
        .collect()
}

/// How the new median of one metric stands against the base's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The run-to-run spread of either side is wider than the bound:
    /// the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range as a share of the median; 0 for a single run.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values.to_vec());
    (q3 - q1) / median(values.to_vec()).abs()
}

/// Judges `new` against `base` for a metric with the given direction
/// and bound.
pub fn judge(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    if spread(base).max(spread(new)) > bound {
        return Verdict::Unresolved;
    }
    let (b, n) = (median(base.to_vec()), median(new.to_vec()));
    // Positive when the new side is worse.
    let worse_by = if higher_is_better { b - n } else { n - b } / b.abs();
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// The runs a result file holds for `workload`.
fn runs<'a>(file: &'a Json, workload: &str) -> &'a [Json] {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
}

/// The values of `metric` over the untraced runs of `workload`.
fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs(file, workload)
        .iter()
        .filter(|r| r.get("traced") != Some(&Json::Bool(true)))
        .filter_map(|r| r.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// `failed / attempted` summed over the runs of `workload`.
fn failed_share(file: &Json, workload: &str) -> f64 {
    let runs = runs(file, workload);
    let sum = |k: &str| -> f64 { runs.iter().filter_map(|r| r.get(k)?.as_f64()).sum() };
    sum("failed") / sum("attempted").max(1.0)
}

fn workload_names(file: &Json) -> Vec<String> {
    match file.get("workloads") {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

/// The comparison table, and whether every row is within its bound.
pub fn compare(base: &Json, new: &Json, bounds: &[Bounded]) -> (String, bool) {
    let mut out = String::new();
    let mut all_within = true;
    let _ = writeln!(
        out,
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7} {:>7} {:>6}  verdict (ratio = new / base; base = first file)",
        "workload", "metric", "base median", "new median", "ratio", "spread", "spread", "bound"
    );
    for w in workload_names(base) {
        for m in bounds {
            let (b, n) = (values(base, &w, &m.name), values(new, &w, &m.name));
            if b.is_empty() || n.is_empty() {
                let _ = writeln!(out, "{w:<18} {:<22} missing on one side", m.name);
                all_within = false;
                continue;
            }
            let verdict = judge(&b, &n, m.higher_is_better, m.bound);
            all_within &= verdict == Verdict::WithinBound;
            let (bm, nm) = (median(b.clone()), median(n.clone()));
            let _ = writeln!(
                out,
                "{w:<18} {:<22} {bm:>14.4} {nm:>14.4} {:>9.4} {:>6.1}% {:>6.1}% {:>5.0}%  {} [{}; {} runs vs {}]",
                m.name,
                nm / bm,
                spread(&b) * 100.0,
                spread(&n) * 100.0,
                m.bound * 100.0,
                verdict.label(),
                m.unit,
                b.len(),
                n.len()
            );
        }
        let (fb, fn_) = (failed_share(base, &w), failed_share(new, &w));
        let verdict = if fn_ > fb { "worse" } else { "within-bound" };
        all_within &= fn_ <= fb;
        let _ = writeln!(
            out,
            "{w:<18} {:<22} {fb:>14.6} {fn_:>14.6} {:>9} {:>7} {:>7} {:>6}  {verdict} [fraction; may not rise]",
            "failed_share", "-", "-", "-", "-"
        );
    }
    // The one layer metric that needs two workloads: sharded ingest
    // over unsharded ingest of the same stream, both untraced.
    let vs_unsharded = |file: &Json| {
        let ingest = |w: &str| values(file, w, "ingest_updates_per_s");
        let (s, u) = (ingest("sharded-2"), ingest("steady-ingest"));
        (!s.is_empty() && !u.is_empty()).then(|| median(s) / median(u))
    };
    if let (Some(b), Some(n)) = (vs_unsharded(base), vs_unsharded(new)) {
        let _ = writeln!(
            out,
            "{:<18} {:<22} {b:>14.4} {n:>14.4}  median ingest_updates_per_s of sharded-2 / steady-ingest [ratio; not judged]",
            "sharded-2", "stream.sharded.vs_unsharded"
        );
    }
    (out, all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |by: f64| base.map(|x| x * by);
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(&base, &shift(1.05), false, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(judge(&base, &shift(1.20), false, 0.10), Verdict::Worse);
        assert_eq!(judge(&base, &shift(0.80), false, 0.10), Verdict::Better);
        // Higher is better: the same shifts read the other way.
        assert_eq!(judge(&base, &shift(1.20), true, 0.10), Verdict::Better);
        assert_eq!(judge(&base, &shift(0.80), true, 0.10), Verdict::Worse);
        // Runs that scatter by more than the bound decide nothing.
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(judge(&noisy, &shift(1.5), false, 0.10), Verdict::Unresolved);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn bounds_come_from_the_repo_benchmark_json() {
        let bounds = read_bounds(&crate::report::repo_root().join("BENCHMARK.json")).unwrap();
        // Names, units and directions agree with the code's own list.
        let ours: Vec<_> = crate::spec::END_TO_END
            .iter()
            .map(|d| (d.name, d.unit, d.higher_is_better))
            .collect();
        let theirs: Vec<_> = bounds
            .iter()
            .map(|b| (b.name.as_str(), b.unit.as_str(), b.higher_is_better))
            .collect();
        assert_eq!(ours, theirs);
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
        assert!(bounds.iter().all(|b| b.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_lists_every_workload_and_layer_metric() {
        let text =
            std::fs::read_to_string(crate::report::repo_root().join("BENCHMARK.json")).unwrap();
        let doc = obs::json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<_> = crate::spec::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), workloads);
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), crate::spec::PER_LAYER.len());
        for (m, d) in layers.iter().zip(crate::spec::PER_LAYER) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(m.get("better").and_then(Json::as_str), Some(better));
        }
        for (w, d) in doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(crate::spec::WORKLOADS)
        {
            assert_eq!(w.get("why").and_then(Json::as_str), Some(d.why));
        }
    }

    /// A result file with three runs per workload of `ingest` upd/s.
    fn file(workloads: &[(&str, f64)]) -> Json {
        let run = |ingest: f64| {
            Json::obj([
                ("traced", Json::Bool(false)),
                ("attempted", Json::U64(100)),
                ("failed", Json::U64(0)),
                (
                    "end_to_end",
                    Json::obj([(
                        "ingest_updates_per_s",
                        Json::obj([("value", Json::F64(ingest))]),
                    )]),
                ),
            ])
        };
        let runs = |ingest: f64| {
            let three = [1.0, 1.01, 0.99].map(|jitter| run(ingest * jitter));
            Json::obj([("runs", Json::Arr(three.to_vec()))])
        };
        Json::obj([(
            "workloads",
            Json::obj(workloads.iter().map(|&(w, ingest)| (w, runs(ingest)))),
        )])
    }

    fn ingest_bound() -> [Bounded; 1] {
        [Bounded {
            name: "ingest_updates_per_s".into(),
            unit: "upd/s".into(),
            higher_is_better: true,
            bound: 0.10,
        }]
    }

    #[test]
    fn compare_reports_every_pair_and_flags_a_regression() {
        let of = |ingest| file(&[("steady-ingest", ingest)]);
        let (table, ok) = compare(&of(1000.0), &of(1001.0), &ingest_bound());
        assert!(ok, "{table}");
        assert!(table.contains("within-bound") && table.contains("failed_share"));
        assert!(!table.contains("vs_unsharded"));
        let (table, ok) = compare(&of(1000.0), &of(700.0), &ingest_bound());
        assert!(!ok && table.contains("worse"), "{table}");
    }

    #[test]
    fn compare_derives_sharded_over_unsharded_ingest() {
        let base = file(&[("steady-ingest", 1000.0), ("sharded-2", 800.0)]);
        let new = file(&[("steady-ingest", 1000.0), ("sharded-2", 750.0)]);
        let (table, ok) = compare(&base, &new, &ingest_bound());
        assert!(ok, "{table}");
        let row = table
            .lines()
            .find(|l| l.contains("stream.sharded.vs_unsharded"))
            .unwrap();
        assert!(row.contains("0.8000") && row.contains("0.7500"), "{row}");
    }
}
