//! Table II: relative crash-class frequency (SF / A / MMA / AE) per
//! benchmark. The paper finds segmentation faults dominate (≥96%).

use epvf_bench::{analyze_workload, pct, print_table, HarnessOpts};
use epvf_workloads::extended_suite;

fn main() {
    let opts = HarnessOpts::from_args();
    // The paper's Table II includes kmeans (absent from its Table IV), so
    // this harness runs the extended suite.
    let workloads = opts.workloads_in(extended_suite(opts.scale));
    let mut rows = Vec::new();
    for w in &workloads {
        let a = analyze_workload(w);
        let fi = a.inject(opts.runs, opts.seed);
        let fr = fi.crash_kind_fractions();
        let crashes: usize = fi.crash_kind_counts().iter().sum();
        rows.push(vec![
            w.name.to_string(),
            pct(fr[0]),
            pct(fr[1]),
            pct(fr[2]),
            pct(fr[3]),
            crashes.to_string(),
        ]);
    }
    print_table(
        "Table II: relative crash frequency by exception class",
        &["benchmark", "SF", "A", "MMA", "AE", "(crashes)"],
        &rows,
    );
    println!("\npaper: SF averages 99% with a 96% minimum across benchmarks.");
    epvf_bench::emit_metrics("table2", &opts);
}
