//! # epvf-llfi — IR-level fault-injection campaigns and accuracy studies
//!
//! The experimental half of the ePVF paper: an LLFI-style fault injector
//! (§II-B, §IV-A) used to (a) characterize failure outcomes (Fig. 5,
//! Table II), (b) build the ground truth against which the analytical
//! crash prediction is scored — recall (Fig. 6) and precision (Fig. 7) —
//! and (c) validate the ePVF crash-rate estimate (Fig. 8) and the §V
//! protection case study (Fig. 13).
//!
//! One single-bit fault per run, injected into a uniformly drawn
//! `(register-operand read, bit)` pair of the dynamic trace; outcomes are
//! classified against the golden run into benign / SDC / crash-by-class /
//! hang / detected.
//!
//! ```
//! use epvf_llfi::{Campaign, CampaignConfig};
//! use epvf_ir::{ModuleBuilder, Type, Value};
//!
//! let mut mb = ModuleBuilder::new("m");
//! let mut f = mb.function("main", vec![], None);
//! let p = f.malloc(Value::i64(64));
//! let slot = f.gep(p, Value::i32(3), 8);
//! f.store(Type::I64, Value::i64(5), slot);
//! let v = f.load(Type::I64, slot);
//! f.output(Type::I64, v);
//! f.ret(None);
//! f.finish();
//! let module = mb.finish()?;
//!
//! let campaign = Campaign::new(&module, "main", &[], CampaignConfig::default())?;
//! let result = campaign.run(300, 1);
//! println!(
//!     "crash {:.0}%  sdc {:.0}%  benign {:.0}%",
//!     100.0 * result.crash_rate(),
//!     100.0 * result.sdc_rate(),
//!     100.0 * result.benign_rate(),
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod accuracy;
mod campaign;
mod isolate;
mod sampler;
mod shard;
mod site;
mod stats;
mod supervisor;
mod wal;

pub use accuracy::{
    precision_study, predicted_crash_specs, recall_study, PrecisionReport, RecallReport,
};
pub use campaign::{
    Campaign, CampaignConfig, CampaignError, CampaignResult, GoldenArtifacts, InjOutcome,
    OutputCompare, QuarantineRecord,
};
pub use isolate::RunSession;
pub use sampler::{
    AdaptiveSampler, RateEstimate, RoundInfo, SampledCampaign, SamplerConfig, StratumReport,
};
pub use shard::{CampaignAggregate, MergeError, ShardOutcomes, ShardSpec, StratumTally};
pub use site::{injectable_operand, InjectionSite, SiteTable};
pub use stats::{ci95, clopper_pearson95, clopper_pearson_f, geomean, mean, wilson95_f};
pub use supervisor::{
    backoff_delay, supervise, ChaosConfig, Event as SupervisorEvent, FailureKind, ShardOutcome,
    ShardPlan, SupervisorConfig, SupervisorReport,
};
pub use wal::{
    read_wal_fingerprint, wal_fingerprint, wal_fingerprint_shard, CampaignKey, Draw, RecoveredWal,
    WalError, WalSink, WAL_MAGIC,
};
