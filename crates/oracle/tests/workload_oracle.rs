//! Exhaustive oracle over the two smallest bundled workloads: every
//! injectable `(dynamic instruction, operand, bit)` is executed, the crash
//! model is scored against that ground truth (acceptance floor 0.85/0.85,
//! paper Table V reports 89%/92% sampled), and one disagreement repro is
//! round-tripped through the text format and replayed to confirm it
//! reproduces the recorded outcome.

use epvf_core::{analyze, EpvfConfig};
use epvf_llfi::{Campaign, CampaignConfig};
use epvf_oracle::{
    differential_check, hard_invariant_scan, parse_repro, replay_repro, sweep, write_repros,
    ReproContext,
};
use epvf_workloads::{smallest_first, Scale};
use std::path::Path;

#[test]
fn smallest_workloads_beat_the_acceptance_floor() {
    let workloads = smallest_first(Scale::Tiny);
    assert!(workloads.len() >= 2, "need two workloads to sweep");
    let mut replayed_one = false;
    for w in &workloads[..2] {
        let campaign = Campaign::new(&w.module, "main", &w.args, CampaignConfig::default())
            .expect("golden run completes");
        let trace = campaign.golden().trace.as_ref().expect("golden is traced");
        let res = analyze(&w.module, trace, EpvfConfig::default());
        let gt = sweep(&campaign, 0);
        assert!(gt.is_exhaustive(), "{}: exhaustive sweep", w.name);
        let report = differential_check(&campaign, &res, &gt, 8);
        let violations = hard_invariant_scan(&campaign, &res, &gt);
        assert!(
            violations.is_empty(),
            "{}: hard invariant violated: {violations:?}",
            w.name
        );
        let c = report.confusion;
        println!(
            "{}: {} flips, recall {:.4} precision {:.4} (tp={} fp={} fn={} tn={})",
            w.name,
            gt.universe,
            c.recall(),
            c.precision(),
            c.tp,
            c.fp,
            c.fn_,
            c.tn
        );
        assert!(
            c.recall() >= 0.85,
            "{}: recall {:.4} below acceptance floor",
            w.name,
            c.recall()
        );
        assert!(
            c.precision() >= 0.85,
            "{}: precision {:.4} below acceptance floor",
            w.name,
            c.precision()
        );

        // Every truncated disagreement becomes a replayable repro file.
        let ctx = ReproContext {
            label: w.name,
            module: &w.module,
            entry: "main",
            args: &w.args,
            model: epvf_core::DEFAULT_MODEL,
            trace,
        };
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("oracle-repros");
        let paths =
            write_repros(&dir, w.name, &ctx, &report.disagreements).expect("repros written");
        assert_eq!(paths.len(), report.disagreements.len());
        if let (Some(path), Some(d)) = (paths.first(), report.disagreements.first()) {
            let text = std::fs::read_to_string(path).expect("repro readable");
            let repro = parse_repro(&text).expect("repro parses");
            assert_eq!(repro.spec, d.spec, "spec survives the round trip");
            let outcome = replay_repro(&repro).expect("repro replays");
            assert_eq!(
                outcome, d.outcome,
                "{}: replay of {} diverged from recorded outcome",
                w.name, d.spec
            );
            replayed_one = true;
        }
    }
    assert!(
        replayed_one,
        "expected at least one disagreement repro to replay (models are not perfect)"
    );
}
