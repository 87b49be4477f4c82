//! `popbench compare A.json B.json`: applies the bounds in `BENCHMARK.json`
//! to every end-to-end metric × workload pair of two result files.

use crate::json::Json;
use crate::stats::Stat;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// A side's value cannot be trusted to within the bound and the two
    /// sides' ranges overlap: the benchmark cannot tell (choosing-metrics
    /// §6.5).
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's per-round values of one metric on one workload, and the
/// value the run reported from them.
pub struct Side {
    pub value: f64,
    /// Bootstrap quartiles of the reported statistic (how far one run's
    /// value can be trusted).
    pub low: f64,
    pub high: f64,
}

impl Side {
    pub fn new(stat: Stat, values: &[f64]) -> Side {
        let (low, high) = stat.bootstrap_quartiles(values);
        Side {
            value: stat.of(values),
            low,
            high,
        }
    }

    /// Width of the trusted range as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.high - self.low) / self.value.abs()
        }
    }
}

/// Judges B (the change) against A (the parent). `bound` is the share of A's
/// value by which the metric may worsen.
pub fn judge(a: &Side, b: &Side, higher_is_better: bool, bound: f64) -> Verdict {
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    if a.spread().max(b.spread()) > bound {
        // Too wide to hold the bound: only disjoint ranges can be told apart.
        return if b.low > a.high || b.high < a.low {
            if sign * (b.value - a.value) > 0.0 {
                Verdict::Better
            } else {
                Verdict::Worse
            }
        } else {
            Verdict::Unresolved
        };
    }
    let gain = sign * (b.value - a.value) / a.value.abs();
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Side,
    pub b: Side,
    pub bound: f64,
    pub verdict: Verdict,
}

fn side(file: &Json, workload: &str, metric: &str) -> Option<Side> {
    let record = file
        .get("workloads")?
        .get(workload)?
        .get("e2e")?
        .get("metrics")?
        .get(metric)?;
    let stat = Stat::from_name(record.get("stat")?.as_str()?)?;
    let values: Vec<f64> = record
        .get("values")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (!values.is_empty()).then(|| Side::new(stat, &values))
}

/// Every metric × workload pair present in both files, in manifest order.
pub fn compare(manifest: &Json, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let list = |key: &str| {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("manifest has no `{key}` list"))
    };
    let mut rows = Vec::new();
    for w in list("workloads")? {
        let workload = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        for m in list("end_to_end")? {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("metric without `{k}`"))
            };
            let metric = field("name")?;
            let higher = match field("better")? {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("{metric}: better = {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or(format!("{metric}: no bound"))?;
            if let (Some(sa), Some(sb)) = (side(a, workload, metric), side(b, workload, metric)) {
                let verdict = judge(&sa, &sb, higher, bound);
                rows.push(Row {
                    workload: workload.to_string(),
                    metric: metric.to_string(),
                    a: sa,
                    b: sb,
                    bound,
                    verdict,
                });
            }
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload × metric pair".into());
    }
    Ok(rows)
}

/// A markdown table of the rows (pasted into the README and the PR).
pub fn table(rows: &[Row]) -> String {
    let mut out = String::from(
        "| workload | metric | A | B | B vs A | A spread | B spread | bound | verdict |\n|---|---|---:|---:|---:|---:|---:|---:|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {:.4} | {:.4} | {:+.1}% | {:.1}% | {:.1}% | {:.0}% | {} |\n",
            r.workload,
            r.metric,
            r.a.value,
            r.b.value,
            100.0 * (r.b.value - r.a.value) / r.a.value.abs(),
            100.0 * r.a.spread(),
            100.0 * r.b.spread(),
            100.0 * r.bound,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side_of(values: &[f64]) -> Side {
        Side::new(Stat::Median, values)
    }

    #[test]
    fn verdicts() {
        let base = side_of(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let v = |b: &[f64], higher| judge(&base, &side_of(b), higher, 0.10);
        assert_eq!(v(&[104.0, 105.0, 103.0, 104.5, 103.5], true), Verdict::Same);
        assert_eq!(
            v(&[120.0, 121.0, 119.0, 120.5, 119.5], true),
            Verdict::Better
        );
        assert_eq!(v(&[80.0, 81.0, 79.0, 80.5, 79.5], true), Verdict::Worse);
        assert_eq!(v(&[80.0, 81.0, 79.0, 80.5, 79.5], false), Verdict::Better);
        assert_eq!(
            v(&[120.0, 121.0, 119.0, 120.5, 119.5], false),
            Verdict::Worse
        );
        // A value that cannot be trusted to within the bound: overlapping
        // ranges cannot be told apart, disjoint ones can.
        assert_eq!(
            v(&[60.0, 140.0, 100.0, 75.0, 125.0], true),
            Verdict::Unresolved
        );
        assert_eq!(
            v(&[150.0, 250.0, 200.0, 180.0, 220.0], true),
            Verdict::Better
        );
        assert_eq!(v(&[15.0, 25.0, 20.0, 18.0, 22.0], true), Verdict::Worse);
        assert_eq!(v(&[15.0, 25.0, 20.0, 18.0, 22.0], false), Verdict::Better);
    }

    #[test]
    fn the_upper_tail_decides_a_bimodal_metric() {
        // Bimodal values: the median sits in the low mode, the upper tail in
        // the high one, and the high one is what repeats.
        let a = Side::new(
            Stat::TopThree,
            &[2.1, 0.8, 2.0, 0.9, 0.8, 2.2, 0.85, 0.8, 2.1, 0.9, 0.8],
        );
        let b = Side::new(
            Stat::TopThree,
            &[0.8, 2.15, 0.9, 0.85, 2.1, 0.8, 2.0, 0.9, 0.8, 2.2, 0.8],
        );
        assert!(
            (a.value - 2.1333).abs() < 1e-3 && a.spread() < 0.10,
            "{}",
            a.spread()
        );
        assert_eq!(judge(&a, &b, true, 0.20), Verdict::Same);
    }

    #[test]
    fn compares_files_in_manifest_order() {
        let manifest = crate::json::parse(
            r#"{"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "x_mops", "better": "higher", "bound": 0.1},
                               {"name": "absent", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let file = |v: &str| {
            crate::json::parse(&format!(
                r#"{{"workloads": {{"w": {{"e2e": {{"metrics": {{"x_mops": {{"stat": "median", "values": {v}}}}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let rows = compare(&manifest, &file("[10, 10.1, 9.9]"), &file("[5, 5.1, 4.9]")).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].metric.as_str(), rows[0].verdict),
            ("x_mops", Verdict::Worse)
        );
        assert!(table(&rows).contains("| w | x_mops | 10.0000 | 5.0000 | -50.0% |"));
        assert!(compare(&manifest, &file("[1]"), &Json::Obj(vec![])).is_err());
    }
}
