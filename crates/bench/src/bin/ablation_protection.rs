//! Ablation: protection budget sweep (8% / 16% / 24%, paper footnote 4)
//! across the three ranking strategies, on the §V benchmark subset.

use epvf_bench::{analyze_workload, pct, print_table, HarnessOpts};
use epvf_core::{analyze, per_instruction_scores, AceConfig, EpvfConfig};
use epvf_llfi::{Campaign, CampaignConfig};
use epvf_protect::{plan_protection, rank_instructions, RankingStrategy};
use epvf_workloads::{by_name, Workload};

fn sdc(module: &epvf_ir::Module, args: &[u64], runs: usize, seed: u64) -> f64 {
    Campaign::new(module, Workload::ENTRY, args, CampaignConfig::default())
        .expect("module runs")
        .run(runs, seed)
        .sdc_rate()
}

fn main() {
    let opts = HarnessOpts::from_args();
    let budgets = [0.08, 0.16, 0.24];
    let mut rows = Vec::new();
    for name in opts.names_in(&["mm", "lud", "nw"]) {
        let w = by_name(name, opts.scale).expect("known benchmark");
        let a = analyze_workload(&w);
        let trace = a.golden().trace.as_ref().expect("traced");
        let data_only = analyze(
            &w.module,
            trace,
            EpvfConfig {
                ace: AceConfig {
                    include_control: false,
                },
                ..EpvfConfig::default()
            },
        );
        let scores = per_instruction_scores(
            &w.module,
            trace,
            &data_only.ddg,
            &data_only.ace,
            &data_only.crash_map,
        );
        let base = sdc(&w.module, &w.args, opts.runs, opts.seed);
        for (label, strategy) in [
            ("ePVF", RankingStrategy::Epvf),
            ("hot-path", RankingStrategy::HotPath),
            ("random", RankingStrategy::Random(opts.seed)),
        ] {
            let ranking = rank_instructions(strategy, &scores);
            let mut cells = vec![name.to_string(), label.to_string(), pct(base)];
            for budget in budgets {
                let plan = plan_protection(
                    &w.module,
                    Workload::ENTRY,
                    &w.args,
                    &ranking,
                    budget,
                    usize::MAX,
                );
                cells.push(pct(sdc(&plan.module, &w.args, opts.runs, opts.seed)));
            }
            rows.push(cells);
        }
    }
    print_table(
        "Ablation: SDC rate by protection budget",
        &["benchmark", "ranking", "none", "8%", "16%", "24%"],
        &rows,
    );
    println!("\nshape to check: SDC decreases monotonically with budget; ePVF ranking");
    println!("dominates at equal budget on SDC-heavy kernels.");
    epvf_bench::emit_metrics("ablation_protection", &opts);
}
