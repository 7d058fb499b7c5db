//! Figure 13: SDC rate with no protection vs hot-path duplication vs
//! ePVF-informed duplication at a 24% overhead budget, over the paper's
//! five SDC-prone benchmarks (mm, pathfinder, hotspot, lud, nw).

use epvf_bench::{analyze_workload, pct, print_table, HarnessOpts};
use epvf_core::{analyze, per_instruction_scores, AceConfig, EpvfConfig};
use epvf_llfi::{geomean, Campaign, CampaignConfig};
use epvf_protect::{duplicate_instructions, plan_protection, rank_instructions, RankingStrategy};
use epvf_workloads::{by_name, by_name_variant, Workload};

const BUDGET: f64 = 0.24;
const MAX_CANDIDATES: usize = usize::MAX; // scan the whole ranking; cold slices cost ~nothing

fn sdc_of(module: &epvf_ir::Module, args: &[u64], runs: usize, seed: u64) -> (f64, f64) {
    let campaign = Campaign::new(module, Workload::ENTRY, args, CampaignConfig::default())
        .expect("module runs");
    let fi = campaign.run(runs, seed);
    (fi.sdc_rate(), fi.detected_rate())
}

fn main() {
    let opts = HarnessOpts::from_args();
    let names = ["mm", "pathfinder", "hotspot", "lud", "nw"];
    let mut rows = Vec::new();
    let (mut base_v, mut hot_v, mut epvf_v) = (Vec::new(), Vec::new(), Vec::new());
    for name in opts.names_in(&names) {
        let w = by_name(name, opts.scale).expect("known benchmark");
        // Evaluation uses a *different input* than the one that produced
        // the ePVF ranking, as in the paper ("we run the fault injection
        // campaigns with different inputs than the ones we used to get the
        // ePVF values"). Static instruction ids are shared, so the
        // protection set transfers.
        let eval = by_name_variant(name, opts.scale, 1).expect("variant exists");
        let a = analyze_workload(&w);
        let trace = a.golden().trace.as_ref().expect("traced");
        // Rank with *data-only* ACE roots: branch conditions otherwise all
        // score ePVF = 1 and soak up the budget — the very pathology the
        // paper observes on hotspot ("control-flow structures all marked
        // as sensitive by ePVF though they do not cause SDCs").
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
        let (base_sdc, _) = sdc_of(&eval.module, &eval.args, opts.runs, opts.seed);

        let hot_rank = rank_instructions(RankingStrategy::HotPath, &scores);
        let hot_plan = plan_protection(
            &w.module,
            Workload::ENTRY,
            &w.args,
            &hot_rank,
            BUDGET,
            MAX_CANDIDATES,
        );
        let hot_eval =
            duplicate_instructions(&eval.module, &hot_plan.protected.iter().copied().collect());
        let (hot_sdc, hot_det) = sdc_of(&hot_eval, &eval.args, opts.runs, opts.seed);

        let epvf_rank = rank_instructions(RankingStrategy::Epvf, &scores);
        let epvf_plan = plan_protection(
            &w.module,
            Workload::ENTRY,
            &w.args,
            &epvf_rank,
            BUDGET,
            MAX_CANDIDATES,
        );
        let epvf_eval =
            duplicate_instructions(&eval.module, &epvf_plan.protected.iter().copied().collect());
        let (epvf_sdc, epvf_det) = sdc_of(&epvf_eval, &eval.args, opts.runs, opts.seed);

        base_v.push(base_sdc);
        hot_v.push(hot_sdc);
        epvf_v.push(epvf_sdc);
        rows.push(vec![
            name.to_string(),
            pct(base_sdc),
            format!(
                "{} (det {}, ovh {})",
                pct(hot_sdc),
                pct(hot_det),
                pct(hot_plan.overhead)
            ),
            format!(
                "{} (det {}, ovh {})",
                pct(epvf_sdc),
                pct(epvf_det),
                pct(epvf_plan.overhead)
            ),
        ]);
    }
    print_table(
        "Figure 13: SDC rate under selective duplication (24% overhead budget)",
        &["benchmark", "no protection", "hot-path", "ePVF-informed"],
        &rows,
    );
    println!(
        "\ngeomean SDC: none {} | hot-path {} | ePVF {}",
        pct(geomean(&base_v)),
        pct(geomean(&hot_v)),
        pct(geomean(&epvf_v))
    );
    println!("paper: 20% → 10% (hot-path) → 7% (ePVF); ePVF wins everywhere but");
    println!("hotspot. here: ePVF wins the geomean, clearly on the value-chain");
    println!("kernels (mm, lud); hot-path wins pathfinder/nw, where control faults");
    println!("dominate SDCs — this reproduction's analogue of the hotspot exception.");
    epvf_bench::emit_metrics("fig13", &opts);
}
