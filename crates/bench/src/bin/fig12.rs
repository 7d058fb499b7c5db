//! Figure 12: CDF of per-instruction PVF and ePVF for nw and lud — PVF
//! clusters at 1 (no discriminative power), ePVF spreads out.

use epvf_bench::{analyze_workload, pct, print_table, HarnessOpts};
use epvf_core::{cdf, per_instruction_scores};
use epvf_workloads::by_name;

fn main() {
    let opts = HarnessOpts::from_args();
    for name in opts.names_in(&["nw", "lud"]) {
        let w = by_name(name, opts.scale).expect("known benchmark");
        let a = analyze_workload(&w);
        let trace = a.golden().trace.as_ref().expect("traced");
        let scores = per_instruction_scores(
            &w.module,
            trace,
            &a.analysis.ddg,
            &a.analysis.ace,
            &a.analysis.crash_map,
        );
        let pvfs: Vec<f64> = scores.iter().map(|s| s.pvf).collect();
        let epvfs: Vec<f64> = scores.iter().map(|s| s.epvf).collect();
        let pvf_cdf = cdf(&pvfs);
        let epvf_cdf = cdf(&epvfs);
        let frac_le = |points: &[(f64, f64)], x: f64| {
            points
                .iter()
                .rev()
                .find(|(v, _)| *v <= x)
                .map_or(0.0, |(_, f)| *f)
        };
        let mut rows = Vec::new();
        for t in [0.2, 0.4, 0.6, 0.8, 0.95, 0.999] {
            rows.push(vec![
                format!("{t:.3}"),
                pct(frac_le(&pvf_cdf, t)),
                pct(frac_le(&epvf_cdf, t)),
            ]);
        }
        print_table(
            &format!("Figure 12 ({name}): CDF of per-instruction values"),
            &["value ≤", "PVF CDF", "ePVF CDF"],
            &rows,
        );
        let spike = pvfs.iter().filter(|v| **v > 0.95).count() as f64 / pvfs.len() as f64;
        let espike = epvfs.iter().filter(|v| **v > 0.95).count() as f64 / epvfs.len() as f64;
        println!(
            "{name}: instructions with value > 0.95 — PVF {} vs ePVF {}",
            pct(spike),
            pct(espike)
        );
    }
    println!("\npaper: the PVF CDF has a sharp spike near 1; ePVF is spread out.");
    epvf_bench::emit_metrics("fig12", &opts);
}
