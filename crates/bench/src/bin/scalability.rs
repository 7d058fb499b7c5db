//! §VI-A scalability: analysis cost as the input (and thus the trace and
//! ACE graph) grows. The paper argues the crash/propagation phase scales
//! with the number of accesses times slice depth; this sweep measures it.

use epvf_bench::{print_table, HarnessOpts};
use epvf_core::{analyze, EpvfConfig};
use epvf_llfi::{Campaign, CampaignConfig};
use epvf_workloads::{mm, pathfinder, Workload};

fn measure(w: &Workload) -> Vec<String> {
    let campaign = Campaign::new(
        &w.module,
        Workload::ENTRY,
        &w.args,
        CampaignConfig::default(),
    )
    .expect("runs");
    let trace = campaign.golden().trace.as_ref().expect("traced");
    let res = analyze(&w.module, trace, EpvfConfig::default());
    let m = &res.metrics;
    vec![
        m.dyn_insts.to_string(),
        m.ace_nodes.to_string(),
        format!("{:.1}", m.graph_time.as_secs_f64() * 1e3),
        format!("{:.1}", m.model_time.as_secs_f64() * 1e3),
        format!("{:.3}", m.epvf),
    ]
}

fn main() {
    // The sweep builds its own scaled inputs; the options only feed the
    // metrics stamp (and `--metrics-out`).
    let opts = HarnessOpts::from_args();
    let mut rows = Vec::new();
    for n in [8, 12, 16, 20, 24, 28] {
        let w = mm::build_n(n);
        let mut cells = vec![format!("mm n={n}")];
        cells.extend(measure(&w));
        rows.push(cells);
    }
    for (r, c) in [(8, 16), (16, 32), (24, 64), (32, 96)] {
        let w = pathfinder::build_grid(r, c);
        let mut cells = vec![format!("pathfinder {r}x{c}")];
        cells.extend(measure(&w));
        rows.push(cells);
    }
    print_table(
        "§VI-A scalability sweep",
        &[
            "workload",
            "dyn insts",
            "ACE nodes",
            "graph (ms)",
            "models (ms)",
            "ePVF",
        ],
        &rows,
    );
    println!("\nshape to check: model time grows roughly linearly with trace size");
    println!("(propagation visits each DDG node at most once), and ePVF");
    println!("stays stable as the input scales — the property §IV-E sampling exploits.");
    epvf_bench::emit_metrics("scalability", &opts);
}
