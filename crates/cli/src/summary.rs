//! The campaign summary block shared by `epvf inject` and `epvf merge`.
//!
//! The byte-identical-aggregates contract is enforced on this exact text:
//! a merged N-shard campaign must render the same bytes as the
//! single-process `epvf inject` run, so the renderer is one function fed
//! by both commands rather than two parallel `println!` blocks that could
//! drift.

use crate::CliError;
use epvf_core::EpvfResult;
use epvf_llfi::{precision_study, recall_study, Campaign, CampaignResult, InjOutcome};
use std::fmt::Write;

/// Render the `epvf inject` summary block for a finished campaign.
///
/// For the default fault model this re-runs the recall and precision
/// studies; both are deterministic functions of `(campaign, crash map,
/// run count, seed)`, so a merge that re-renders the block from shard
/// WALs reproduces the injection-time bytes exactly.
pub(crate) fn inject_summary(
    label: &str,
    seed: u64,
    campaign: &Campaign<'_>,
    res: &EpvfResult,
    fi: &CampaignResult,
) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(format!(
        "target    : {label} ({} runs, seed {seed})",
        fi.n()
    ));
    let model_name = campaign.model().name();
    let default_model = model_name == epvf_core::DEFAULT_MODEL;
    if !default_model {
        line(format!("model     : {model_name}"));
    }
    line(format!(
        "outcomes  : crash {:.1}%  SDC {:.1}%  hang {:.1}%  benign {:.1}%",
        100.0 * fi.crash_rate(),
        100.0 * fi.sdc_rate(),
        100.0 * fi.hang_rate(),
        100.0 * fi.benign_rate()
    ));
    // Only printed when nonzero, which keeps the default single-bit
    // campaign output byte-identical (no detector fires without
    // protection or an error-reporting fault model).
    if fi.detected_rate() > 0.0 {
        line(format!("detected  : {:.1}%", 100.0 * fi.detected_rate()));
    }
    if fi.unsound_rate() > 0.0 {
        line(format!(
            "supervised: timed-out {:.1}%  quarantined {:.1}%",
            100.0 * fi.timed_out_rate(),
            100.0 * fi.quarantined_rate()
        ));
    }
    let [sf, a, mma, ae] = fi.crash_kind_fractions();
    line(format!(
        "crashes   : SF {:.1}%  A {:.1}%  MMA {:.1}%  AE {:.1}%",
        100.0 * sf,
        100.0 * a,
        100.0 * mma,
        100.0 * ae
    ));
    // The quick single-bit recall/precision estimate only makes sense for
    // the model whose specs *are* single-bit flips; other models are
    // scored exactly by `epvf oracle --fault-model`.
    if default_model {
        let recall = recall_study(fi, &res.crash_map);
        let precision = precision_study(campaign, &res.crash_map, (fi.n() / 2).max(100), seed);
        line(format!("recall    : {:.1}%", 100.0 * recall.recall()));
        line(format!("precision : {:.1}%", 100.0 * precision.precision()));
        line(format!(
            "crash rate: model {:.1}% vs measured {:.1}%",
            100.0 * res.metrics.crash_rate_estimate,
            100.0 * fi.crash_rate()
        ));
    }
    out
}

/// Render the `epvf shard` summary: exact integer class counts (no
/// percentages — a shard's slice is an implementation detail, and integer
/// counts make the shard-level differential tests exact).
pub(crate) fn shard_summary(
    label: &str,
    seed: u64,
    shard: epvf_llfi::ShardSpec,
    total_runs: usize,
    campaign: &Campaign<'_>,
    fi: &CampaignResult,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "shard     : {shard} ({} of {total_runs} runs, seed {seed})",
        fi.n()
    );
    let _ = writeln!(out, "target    : {label}");
    let model_name = campaign.model().name();
    if model_name != epvf_core::DEFAULT_MODEL {
        let _ = writeln!(out, "model     : {model_name}");
    }
    let _ = writeln!(
        out,
        "outcomes  : benign {}  sdc {}  crash {}  hang {}  detected {}  timed-out {}  quarantined {}",
        fi.count(|o| o == InjOutcome::Benign),
        fi.count(|o| o == InjOutcome::Sdc),
        fi.count(InjOutcome::is_crash),
        fi.count(|o| o == InjOutcome::Hang),
        fi.count(|o| o == InjOutcome::Detected),
        fi.count(|o| matches!(o, InjOutcome::TimedOut(_))),
        fi.count(|o| o == InjOutcome::Quarantined),
    );
    let [sf, a, mma, ae] = fi.crash_kind_counts();
    let _ = writeln!(out, "crashes   : SF {sf}  A {a}  MMA {mma}  AE {ae}");
    out
}

/// Shared tail of `inject`-style commands: write quarantine repros (when
/// requested) and apply the graceful-degradation gate.
pub(crate) fn finish_campaign(
    label: &str,
    campaign: &Campaign<'_>,
    fi: &CampaignResult,
    quarantine_dir: Option<&std::path::Path>,
    max_unsound: f64,
) -> Result<(), CliError> {
    if let Some(dir) = quarantine_dir {
        if !fi.quarantines.is_empty() {
            let prefix = label.replace([':', '/'], "-");
            let paths = campaign
                .write_quarantine_repros(dir, &prefix, &fi.quarantines)
                .map_err(|e| CliError::io(format!("writing quarantine repros: {e}")))?;
            outln!(
                "quarantine: {} repro file(s) in {}",
                paths.len(),
                dir.display()
            )?;
        }
    }
    if fi.unsound_rate() > max_unsound {
        let msg = format!(
            "campaign degraded: {:.1}% of runs quarantined or timed out \
             (threshold {:.1}%); results above are partial",
            100.0 * fi.unsound_rate(),
            100.0 * max_unsound
        );
        epvf_telemetry::Progress::new("inject", 0).note(&msg);
        return Err(CliError::Degraded(msg));
    }
    Ok(())
}
