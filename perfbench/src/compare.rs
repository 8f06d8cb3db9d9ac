//! `compare <a> <b>`: parent-vs-change verdicts from two directories of
//! run records (`<workload>.jsonl`, one record per line, as written by
//! runs with `--out`). One row per (end-to-end metric, workload).

use crate::json::{self, Value};
use crate::manifest::{Better, Clock, EndToEnd, END_TO_END};
use crate::stats::{median, min_max};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The untraced, full-scale records of one directory, by workload.
type Records = BTreeMap<String, Vec<Value>>;

fn load(dir: &Path) -> Result<Records, String> {
    let mut out = Records::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".jsonl") || name.ends_with(".trace.jsonl") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        add_records(&mut out, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out)
}

/// Files the untraced, full-scale records among `text`'s lines.
fn add_records(out: &mut Records, text: &str) -> Result<(), String> {
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = json::parse(line)?;
        if record.get("trace").and_then(Value::as_f64) != Some(0.0)
            || record.get("quick") != Some(&Value::Bool(false))
        {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("record without a workload")?;
        out.entry(workload.to_string()).or_default().push(record);
    }
    Ok(())
}

/// The settings two sides must share for their numbers to be
/// comparable: seeds (as a sorted list), nproc, lanes, run length.
fn settings(records: &[Value]) -> Vec<(String, Vec<u64>)> {
    ["seed", "nproc", "lanes", "seconds"]
        .iter()
        .map(|&key| {
            let mut values: Vec<u64> = records
                .iter()
                .filter_map(|r| r.get(key).and_then(Value::as_f64))
                .map(|v| v as u64)
                .collect();
            values.sort_unstable();
            if key != "seed" {
                values.dedup();
            }
            (key.to_string(), values)
        })
        .collect()
}

fn metric_values(records: &[Value], name: &str) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// The verdict for one metric given each side's values over its runs.
///
/// Simulated metrics are deterministic per seed, so any difference is
/// real: `same` only on exact equality, else the direction decides.
/// Host metrics: when either side's min..max range is wider than the
/// bound the medians cannot be trusted, so the row is `unresolved`
/// unless every run of one side beats every run of the other; else
/// the change of medians is judged against the bound.
pub fn verdict(def: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Signed so that positive = b worse than a.
    let worse_by = |x: f64, y: f64| match def.better {
        Better::Lower => y - x,
        Better::Higher => x - y,
    };
    if def.clock == Clock::Simulated {
        let (mut sa, mut sb) = (a.to_vec(), b.to_vec());
        sa.sort_by(f64::total_cmp);
        sb.sort_by(f64::total_cmp);
        return if sa == sb {
            Verdict::Same
        } else if worse_by(ma, mb) > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        };
    }
    let ((lo_a, hi_a), (lo_b, hi_b)) = (min_max(a), min_max(b));
    let wide = |lo: f64, hi: f64, m: f64| (hi - lo) / m.abs() > def.bound;
    if wide(lo_a, hi_a, ma) || wide(lo_b, hi_b, mb) {
        let b_all_better = match def.better {
            Better::Lower => hi_b < lo_a,
            Better::Higher => lo_b > hi_a,
        };
        let b_all_worse = match def.better {
            Better::Lower => lo_b > hi_a,
            Better::Higher => hi_b < lo_a,
        };
        return if b_all_better {
            Verdict::Better
        } else if b_all_worse && worse_by(ma, mb) / ma.abs() > def.bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let change = worse_by(ma, mb) / ma.abs();
    if change > def.bound {
        Verdict::Worse
    } else if change < -def.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Prints the table; `Ok(true)` when no row is `worse` or `unresolved`.
pub fn run(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let rows = compare(&load(a_dir)?, &load(b_dir)?)?;
    println!("| workload | metric | a median | b median | change | verdict |");
    println!("|---|---|---|---|---|---|");
    for r in &rows {
        println!(
            "| {} | {} | {:.6} | {:.6} | {:+.2}% | {} |",
            r.workload,
            r.metric,
            r.a,
            r.b,
            (r.b - r.a) / r.a.abs() * 100.0,
            r.verdict.as_str()
        );
    }
    Ok(rows
        .iter()
        .all(|r| !matches!(r.verdict, Verdict::Worse | Verdict::Unresolved)))
}

/// One row of the comparison: both medians and the verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

fn compare(a: &Records, b: &Records) -> Result<Vec<Row>, String> {
    if a.is_empty() {
        return Err("side a holds no untraced run records".into());
    }
    let mut rows = Vec::new();
    for (workload, ra) in a {
        let rb = b
            .get(workload)
            .ok_or_else(|| format!("{workload}: missing from side b"))?;
        let (sa, sb) = (settings(ra), settings(rb));
        if sa != sb {
            return Err(format!(
                "{workload}: settings differ, refusing to compare\n  a: {sa:?}\n  b: {sb:?}"
            ));
        }
        for def in &END_TO_END {
            let (va, vb) = (metric_values(ra, def.name), metric_values(rb, def.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}: {} missing from a record", def.name));
            }
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                a: median(&va),
                b: median(&vb),
                verdict: verdict(def, &va, &vb),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::end_to_end;

    #[test]
    fn host_metric_verdicts() {
        // Local definitions: the verdict rules must not depend on the
        // bounds the manifest happens to carry.
        let host = |better| EndToEnd {
            bound: 0.10,
            better,
            ..*end_to_end("wall_s").unwrap()
        };
        let lower = &host(Better::Lower);
        let tight = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(
            verdict(lower, &tight, &[1.02, 1.03, 1.01, 1.02]),
            Verdict::Same
        );
        assert_eq!(
            verdict(lower, &tight, &[1.20, 1.21, 1.19, 1.20]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(lower, &tight, &[0.80, 0.81, 0.79, 0.80]),
            Verdict::Better
        );
        // One side's range is wider than the bound and the ranges overlap.
        assert_eq!(
            verdict(lower, &tight, &[0.90, 1.15, 1.00, 1.05]),
            Verdict::Unresolved
        );
        // Wide, but every run of b beats every run of a.
        assert_eq!(
            verdict(lower, &[1.0, 1.2, 1.1], &[0.7, 0.9, 0.8]),
            Verdict::Better
        );
        // Wide, and every run of b loses by more than the bound.
        assert_eq!(
            verdict(lower, &[1.0, 1.2, 1.1], &[1.5, 1.7, 1.6]),
            Verdict::Worse
        );

        let rate = &host(Better::Higher);
        assert_eq!(
            verdict(rate, &[100.0, 101.0], &[80.0, 81.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(rate, &[100.0, 101.0], &[120.0, 121.0]),
            Verdict::Better
        );
    }

    #[test]
    fn simulated_metrics_compare_exactly() {
        let gap = end_to_end("loss_gap").unwrap(); // lower is better
        assert_eq!(verdict(gap, &[1.5, 1.6], &[1.6, 1.5]), Verdict::Same);
        assert_eq!(verdict(gap, &[1.5, 1.6], &[1.5, 1.6000001]), Verdict::Worse);
        assert_eq!(verdict(gap, &[1.5, 1.6], &[1.4, 1.6]), Verdict::Better);
        let rate = end_to_end("epochs_per_virtual_hour").unwrap(); // higher is better
        assert_eq!(verdict(rate, &[50.0], &[49.0]), Verdict::Worse);
    }

    #[test]
    fn refuses_mismatched_settings_and_reads_only_untraced_records() {
        let record = |seed: f64, trace: f64, wall: f64| {
            Value::obj([
                ("workload", Value::str("w")),
                ("seed", Value::Num(seed)),
                ("trace", Value::Num(trace)),
                ("quick", Value::Bool(false)),
                ("nproc", Value::Num(2.0)),
                ("lanes", Value::Num(2.0)),
                ("seconds", Value::Num(12.0)),
                (
                    "metrics",
                    Value::obj(END_TO_END.iter().map(|m| {
                        let v = if m.name == "wall_s" { wall } else { 1.0 };
                        (m.name, Value::obj([("value", Value::Num(v))]))
                    })),
                ),
            ])
            .encode()
        };
        let side = |lines: &[String]| {
            let mut records = Records::new();
            add_records(&mut records, &lines.join("\n")).unwrap();
            records
        };
        let a = side(&[record(11.0, 0.0, 1.0), record(11.0, 1.0, 9.0)]);
        assert_eq!(a["w"].len(), 1, "traced records are skipped");
        let wall_verdict = |b: &Records| {
            let rows = compare(&a, b).unwrap();
            assert_eq!(rows.len(), END_TO_END.len());
            rows.iter().find(|r| r.metric == "wall_s").unwrap().verdict
        };
        assert_eq!(
            wall_verdict(&side(&[record(11.0, 0.0, 1.3)])),
            Verdict::Worse
        );
        assert_eq!(
            wall_verdict(&side(&[record(11.0, 0.0, 1.02)])),
            Verdict::Same
        );
        let other_seed = side(&[record(12.0, 0.0, 1.0)]);
        assert!(compare(&a, &other_seed)
            .unwrap_err()
            .contains("settings differ"));
        assert!(compare(&a, &Records::new())
            .unwrap_err()
            .contains("missing"));
    }
}
