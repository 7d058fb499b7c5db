//! The committed ledger: `BENCHMARK.json` (metric declarations and bounds),
//! full sets of runs into `BENCH_pipeline.json`, and `--compare` of two
//! such files.

use crate::json::{num, quote, Json};
use crate::stats::Summary;
use crate::workloads::Workload;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// The repository's `BENCHMARK.json`.
pub const MANIFEST: &str = include_str!("../../../../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the old median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Decl>,
    #[cfg(test)]
    pub per_layer: Vec<Decl>,
}

impl Manifest {
    /// Parse a `BENCHMARK.json` document.
    ///
    /// # Errors
    /// A missing or mistyped key.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text)?;
        let decls = |key: &str| -> Result<Vec<Decl>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("{key} is not a list"))?
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("{key} entry lacks {k}"))
                    };
                    Ok(Decl {
                        name: s("name")?,
                        unit: s("unit")?,
                        higher_is_better: match s("better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => {
                                return Err(format!("better must be higher|lower, not {other}"))
                            }
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("run_seconds is not a number")?,
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("workloads is not a list")?
                .iter()
                .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect::<Option<_>>()
                .ok_or("a workload lacks a name")?,
            end_to_end: decls("end_to_end")?,
            #[cfg(test)]
            per_layer: decls("per_layer")?,
        })
    }

    /// The embedded `BENCHMARK.json`.
    pub fn embedded() -> Manifest {
        Manifest::parse(MANIFEST).expect("BENCHMARK.json is well-formed")
    }
}

/// One run's metrics as `(name, unit, value, summary)`.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub set: usize,
    pub workload: String,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, String, f64, Summary)>,
}

/// Parse a metric line `workload metric value unit (n, q1, median, q3)`.
fn parse_metric_line(line: &str) -> Option<(String, String, String, f64, Summary)> {
    let (head, tail) = line.split_once(" (")?;
    let f: Vec<&str> = head.split_whitespace().collect();
    let q: Vec<&str> = tail.strip_suffix(')')?.split(", ").collect();
    if f.len() != 4 || q.len() != 4 {
        return None;
    }
    Some((
        f[0].to_string(),
        f[1].to_string(),
        f[3].to_string(),
        f[2].parse().ok()?,
        Summary {
            n: q[0].parse().ok()?,
            q1: q[1].parse().ok()?,
            median: q[2].parse().ok()?,
            q3: q[3].parse().ok()?,
        },
    ))
}

/// Run one workload in a child process of this executable, echoing its
/// output, and collect its metrics.
fn run_child(
    w: Workload,
    set: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if trace {
        cmd.arg("--out").arg(out);
    }
    let output = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{} exited with {}", w.name(), output.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{}: result line: {e}", w.name()))?;
    let count = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(RunRecord {
        set,
        workload: w.name().to_string(),
        trace,
        attempted: count("attempted"),
        failed: count("failed"),
        metrics: stdout
            .lines()
            .filter_map(parse_metric_line)
            .filter(|(wl, ..)| wl == w.name())
            .map(|(_, name, unit, value, s)| (name, unit, value, s))
            .collect(),
    })
}

fn git_describe() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn record_json(r: &RunRecord) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, value, s)| {
            format!(
                "{}:{{\"unit\":{},\"value\":{},\"n\":{},\"q1\":{},\"median\":{},\"q3\":{}}}",
                quote(name),
                quote(unit),
                num(*value),
                s.n,
                num(s.q1),
                num(s.median),
                num(s.q3)
            )
        })
        .collect();
    format!(
        "{{\"set\":{},\"workload\":{},\"trace\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.set,
        quote(&r.workload),
        u8::from(r.trace),
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

/// Run `sets` full sets of the four workloads, each workload in its own
/// child process, then (with `trace`) one traced run of each; write
/// `out/BENCH_pipeline.json` and print the end-to-end values per set.
///
/// # Errors
/// A child that fails or a file that cannot be written.
pub fn run_sets(
    seed: u64,
    seconds: f64,
    sets: usize,
    trace: bool,
    out: &Path,
) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let mut records = Vec::new();
    for set in 1..=sets {
        for w in Workload::ALL {
            records.push(run_child(w, set, seed, seconds, false, out)?);
        }
    }
    if trace {
        for w in Workload::ALL {
            records.push(run_child(w, 0, seed, seconds, true, out)?);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut doc = format!(
        "{{\"schema\":\"epvf-pipeline-bench\",\"version\":1,\"git\":{},\"nproc\":{nproc},\"seed\":{seed},\"seconds\":{},\"runs\":[\n",
        quote(&git_describe()),
        num(seconds)
    );
    let lines: Vec<String> = records.iter().map(record_json).collect();
    doc.push_str(&lines.join(",\n"));
    doc.push_str("\n]}\n");
    let path = out.join("BENCH_pipeline.json");
    std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;

    println!("\nend-to-end values per set ({nproc} CPUs, seed {seed}, {seconds} s per run):");
    for w in Workload::ALL {
        for d in Manifest::embedded().end_to_end {
            let cells: Vec<String> = records
                .iter()
                .filter(|r| !r.trace && r.workload == w.name())
                .filter_map(|r| r.metrics.iter().find(|m| m.0 == d.name))
                .map(|m| format!("{:.4}", m.2))
                .collect();
            println!(
                "  {:<20} {:<12} {} {}",
                w.name(),
                d.name,
                cells.join("  "),
                d.unit
            );
        }
    }
    println!("wrote {}", path.display());
    Ok(())
}

/// The untraced runs of a `BENCH_pipeline.json` document.
///
/// # Errors
/// A document that does not have the expected shape.
pub fn read_runs(text: &str) -> Result<Vec<RunRecord>, String> {
    let doc = Json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("no runs list")?;
    let mut out = Vec::new();
    for r in runs {
        let n = |k: &str| {
            r.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("run lacks {k}"))
        };
        if n("trace")? != 0.0 {
            continue;
        }
        let metrics = r
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("run lacks metrics")?
            .iter()
            .map(|(name, m)| {
                let f = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_f64)
                        .ok_or(format!("{name} lacks {k}"))
                };
                Ok((
                    name.clone(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    f("value")?,
                    Summary {
                        n: f("n")? as usize,
                        q1: f("q1")?,
                        median: f("median")?,
                        q3: f("q3")?,
                    },
                ))
            })
            .collect::<Result<_, String>>()?;
        out.push(RunRecord {
            set: n("set")? as usize,
            workload: r
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("run lacks workload")?
                .to_string(),
            trace: false,
            attempted: n("attempted")? as u64,
            failed: n("failed")? as u64,
            metrics,
        });
    }
    Ok(out)
}

/// A side of a comparison: the median and quartiles of the runs' values.
/// A file with a single run has no run-to-run spread, so that run's
/// quartiles over passes stand in for it.
fn side(runs: &[RunRecord], workload: &str, metric: &str) -> Option<Summary> {
    let found: Vec<(f64, Summary)> = runs
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|m| m.0 == metric).map(|m| (m.2, m.3)))
        .collect();
    match found.as_slice() {
        [] => None,
        [(value, passes)] => Some(Summary {
            median: *value,
            ..*passes
        }),
        many => {
            let values: Vec<f64> = many.iter().map(|&(v, _)| v).collect();
            Some(Summary::of(&values))
        }
    }
}

/// Verdict on one `(workload, metric)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of a side is wider than the bound.
    Unresolved,
    Missing,
}

/// Compare one metric's two sides against its declaration.
pub fn judge(d: &Decl, old: Option<Summary>, new: Option<Summary>) -> (Verdict, f64) {
    let (Some(old), Some(new)) = (old, new) else {
        return (Verdict::Missing, 0.0);
    };
    let delta = if old.median == 0.0 {
        0.0
    } else {
        (new.median - old.median) / old.median.abs()
    };
    let worse = if d.higher_is_better { -delta } else { delta };
    let bound = d.bound.unwrap_or(f64::INFINITY);
    let verdict = if old.spread() > bound || new.spread() > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, delta)
}

/// `--compare OLD NEW`: one row per workload and end-to-end metric.
/// Returns whether no metric regressed past its bound.
///
/// # Errors
/// A file that cannot be read or parsed.
pub fn compare(old_path: &Path, new_path: &Path) -> Result<bool, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("reading {}: {e}", p.display()))
            .and_then(|t| read_runs(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (old, new) = (read(old_path)?, read(new_path)?);
    let manifest = Manifest::embedded();
    let mut ok = true;
    let mut table = format!(
        "{:<20} {:<12} {:>32} {:>32} {:>8}  verdict\n",
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "delta"
    );
    let cell = |s: Option<Summary>| {
        s.map_or("-".to_string(), |s| {
            format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3)
        })
    };
    for w in &manifest.workloads {
        for d in &manifest.end_to_end {
            let (o, n) = (side(&old, w, &d.name), side(&new, w, &d.name));
            let (verdict, delta) = judge(d, o, n);
            ok &= !matches!(verdict, Verdict::Regressed | Verdict::Missing);
            let _ = writeln!(
                table,
                "{:<20} {:<12} {:>32} {:>32} {:>+7.1}%  {}",
                w,
                d.name,
                cell(o),
                cell(n),
                100.0 * delta,
                match verdict {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Regressed =>
                        format!("REGRESSED (bound {:.0}%)", 100.0 * d.bound.unwrap_or(0.0)),
                    Verdict::Unresolved => "unresolved (spread wider than bound)".to_string(),
                    Verdict::Missing => "MISSING".to_string(),
                }
            );
        }
    }
    print!("{table}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{END_TO_END, PER_LAYER};

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn manifest_declares_exactly_the_emitted_metrics() {
        let m = Manifest::embedded();
        let declared = |ds: &[Decl]| -> Vec<(String, String)> {
            ds.iter()
                .map(|d| (d.name.clone(), d.unit.clone()))
                .collect()
        };
        let emitted = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
            ms.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&m.end_to_end), emitted(&END_TO_END));
        assert_eq!(declared(&m.per_layer), emitted(&PER_LAYER));
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(m.workloads, workloads);
        for d in m.end_to_end.iter().chain(&m.per_layer) {
            assert!(valid_name(&d.name), "bad metric name {}", d.name);
        }
        for w in &m.workloads {
            assert!(valid_name(w), "bad workload name {w}");
        }
        for d in &m.end_to_end {
            let b = d.bound.expect("end-to-end metrics have bounds");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", d.name);
        }
        assert!(m.per_layer.iter().all(|d| d.bound.is_none()));
        assert!(m.run_seconds >= 1.0);
    }

    #[test]
    fn metric_lines_round_trip_and_compare_flags_regressions() {
        let line = "analyze-deep throughput 41.5 work/s (7, 40.25, 41.5, 42)";
        let (w, name, unit, value, sum) = parse_metric_line(line).expect("parses");
        assert_eq!(
            (w.as_str(), name.as_str(), unit.as_str()),
            ("analyze-deep", "throughput", "work/s")
        );
        assert_eq!(
            (value, sum.n, sum.q1, sum.median, sum.q3),
            (41.5, 7, 40.25, 41.5, 42.0)
        );
        assert!(parse_metric_line("{\"correct\":true}").is_none());

        let d = Decl {
            name: "throughput".into(),
            unit: "work/s".into(),
            higher_is_better: true,
            bound: Some(0.10),
        };
        let s = |q1: f64, median: f64, q3: f64| {
            Some(Summary {
                n: 5,
                q1,
                median,
                q3,
            })
        };
        assert_eq!(
            judge(&d, s(99.0, 100.0, 101.0), s(97.0, 98.0, 99.0)).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&d, s(99.0, 100.0, 101.0), s(79.0, 80.0, 81.0)).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&d, s(99.0, 100.0, 101.0), s(158.0, 160.0, 162.0)).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&d, s(80.0, 100.0, 120.0), s(79.0, 80.0, 81.0)).0,
            Verdict::Unresolved
        );
        assert_eq!(judge(&d, None, s(1.0, 1.0, 1.0)).0, Verdict::Missing);
        let lower = Decl {
            higher_is_better: false,
            ..d
        };
        assert_eq!(
            judge(&lower, s(99.0, 100.0, 101.0), s(119.0, 120.0, 121.0)).0,
            Verdict::Regressed
        );

        let rec = RunRecord {
            set: 1,
            workload: "analyze-deep".into(),
            trace: false,
            attempted: 3,
            failed: 0,
            metrics: vec![(name, unit, value, sum)],
        };
        let doc = format!("{{\"runs\":[{}]}}", record_json(&rec));
        let back = read_runs(&doc).expect("reads back");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].metrics[0].3, rec.metrics[0].3);
        assert_eq!(
            side(&back, "analyze-deep", "throughput").map(|s| s.median),
            Some(41.5)
        );
    }
}
