//! `pipeline` — the end-to-end benchmark of the ePVF pipeline: analysis and
//! fault-injection throughput on four workloads, with a traced per-layer
//! breakdown. See `README.md` in this directory for the metrics and the
//! reasons behind each workload.
//!
//! ```text
//! pipeline --workload W [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
//! pipeline [--seed S] [--seconds N] [--sets K] [--trace 0|1] [--out DIR]
//! pipeline --compare OLD.json NEW.json
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of standard output is its result as JSON. Without it, every workload
//! runs in a child process of its own, `--sets` times, and the runs are
//! written to `DIR/BENCH_pipeline.json` (default `results/pipeline`).
//! `--compare` prints old and new medians per workload and end-to-end
//! metric, and exits non-zero when one worsened past its bound.

mod gate;
mod json;
mod ledger;
mod run;
mod stats;
mod trace;
mod workloads;

use run::{RunOpts, Scratch};
use std::path::PathBuf;
use workloads::{Size, Workload};

const USAGE: &str =
    "usage: pipeline --workload W [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
       pipeline [--seed S] [--seconds N] [--sets K] [--trace 0|1] [--out DIR]
       pipeline --compare OLD.json NEW.json
workloads: analyze-suite analyze-deep analyze-incremental inject-campaign";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    sets: usize,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seconds: ledger::Manifest::embedded().run_seconds,
        trace: false,
        out: None,
        sets: 1,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload = Some(Workload::from_name(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                };
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--sets" => {
                cli.sets = value()?
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or("--sets needs a positive number")?;
            }
            "--compare" => {
                let old = PathBuf::from(value()?);
                let new = PathBuf::from(it.next().ok_or("--compare needs two files")?);
                cli.compare = Some((old, new));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Run one workload in this process and print its result.
fn run_one(cli: &Cli, workload: Workload) -> Result<(), String> {
    let opts = RunOpts {
        workload,
        size: Size::Full,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    // Cache and WAL files go under the build directory, inside the checkout.
    let root =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let report = {
        let scratch = Scratch::new(&root)?;
        run::run(&opts, scratch.path())?
    };
    if cli.trace {
        let table = trace::self_time_table(workload.name(), &report.spans);
        print!("{table}");
        if let Some(out) = &cli.out {
            std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
            for (file, text) in [
                (
                    format!("trace-{}.json", workload.name()),
                    trace::to_json(workload.name(), &report.spans),
                ),
                (format!("selftime-{}.txt", workload.name()), table),
            ] {
                let path = out.join(file);
                std::fs::write(&path, text)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
        }
    }
    for line in run::metric_lines(&report) {
        println!("{line}");
    }
    println!("{}", run::result_json(&report));
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("pipeline: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if let Some((old, new)) = &cli.compare {
        ledger::compare(old, new).map(|ok| if ok { 0 } else { 1 })
    } else if let Some(w) = cli.workload {
        run_one(&cli, w).map(|()| 0)
    } else {
        let out = cli
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from("results/pipeline"));
        ledger::run_sets(cli.seed, cli.seconds, cli.sets, cli.trace, &out).map(|()| 0)
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("pipeline: {e}");
            std::process::exit(1);
        }
    }
}
