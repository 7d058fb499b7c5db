//! End-to-end oracle validation of every shipped fault model.
//!
//! Two layers:
//!
//! 1. **Exhaustive sweeps** — each non-default model's full injection-point
//!    universe on the two smallest bundled workloads runs to a concrete
//!    outcome through the differential oracle, and no hard invariant
//!    (`definitely_faults`, in-bounds flipped stores, …) may be violated.
//!    Recall/precision floors are *not* asserted here: the crash model only
//!    claims to predict register/address corruption, and the per-model
//!    confusion matrices are recorded in EXPERIMENTS.md instead.
//!
//! 2. **Planted faults** — hand-built modules where the outcome of one
//!    specific injection is known by construction: a wrong-branch SDC, a
//!    skipped output SDC, a destination flip corrupting every later use, a
//!    high-bit store-address crash, and the SEC-DED
//!    delayed-reporting pair (short window ⇒ expired+masked, long window ⇒
//!    detected on consumption).

use epvf_core::{parse_fault_model, EpvfConfig};
use epvf_interp::InjectionSpec;
use epvf_ir::{IcmpPred, Module, ModuleBuilder, Op, StaticInstId, Type, Value};
use epvf_llfi::{Campaign, CampaignConfig, InjOutcome};
use epvf_oracle::check_module_model;
use epvf_workloads::{smallest_first, Scale};

/// Sweep one model exhaustively over the two smallest workloads and demand
/// zero hard-invariant violations.
fn sweep_model(model_str: &str) {
    let workloads = smallest_first(Scale::Tiny);
    assert!(workloads.len() >= 2, "need two workloads to sweep");
    for w in &workloads[..2] {
        let model = parse_fault_model(model_str).expect("model parses");
        let oracle =
            check_module_model(&w.module, "main", &w.args, 8, EpvfConfig::default(), model);
        assert!(
            oracle.ground_truth.is_exhaustive(),
            "{} under {model_str}: sweep must be exhaustive ({} of {})",
            w.name,
            oracle.ground_truth.runs.len(),
            oracle.ground_truth.universe
        );
        assert!(
            !oracle.ground_truth.runs.is_empty(),
            "{} under {model_str}: model enumerates no sites",
            w.name
        );
        assert!(
            oracle.hard_violations.is_empty(),
            "{} under {model_str}: hard invariant violated: {:?}",
            w.name,
            oracle.hard_violations
        );
        let c = oracle.report.confusion;
        let [crash, sdc, benign, hang, detected, _, _] = oracle.ground_truth.tally();
        println!(
            "{} {model_str}: {} flips crash={crash} sdc={sdc} benign={benign} hang={hang} \
             detected={detected} | recall {:.4} precision {:.4}",
            w.name,
            oracle.ground_truth.universe,
            c.recall(),
            c.precision()
        );
    }
}

#[test]
fn dest_model_sweeps_clean() {
    sweep_model("dest");
}

#[test]
fn burst_model_sweeps_clean() {
    sweep_model("burst:2");
}

#[test]
fn skip_model_sweeps_clean() {
    sweep_model("skip");
}

#[test]
fn wrong_branch_model_sweeps_clean() {
    sweep_model("wrong-branch");
}

#[test]
fn store_addr_model_sweeps_clean() {
    sweep_model("store-addr");
}

#[test]
fn ecc_model_sweeps_clean() {
    sweep_model("ecc:100");
}

// ---------------------------------------------------------------------------
// Planted faults with known outcomes.
// ---------------------------------------------------------------------------

/// Find the first static instruction satisfying `pred`.
fn find_sid(module: &Module, pred: impl Fn(&Op) -> bool) -> StaticInstId {
    module
        .functions
        .iter()
        .flat_map(|f| f.insts())
        .find(|i| pred(&i.op))
        .expect("module contains the planted instruction")
        .sid
}

/// Dynamic index of the first golden-trace record at `sid`.
fn first_dyn_at(campaign: &Campaign<'_>, sid: StaticInstId) -> u64 {
    campaign
        .golden()
        .trace
        .as_ref()
        .expect("golden is traced")
        .records
        .iter()
        .find(|r| r.sid == sid)
        .expect("planted instruction executes")
        .idx
}

/// `if n < 10 { output 1 } else { output 2 }` — inverting the branch on a
/// small argument swaps the printed value.
fn branch_module() -> Module {
    let mut mb = ModuleBuilder::new("b");
    let mut f = mb.function("main", vec![Type::I32], None);
    let n = f.param(0);
    let c = f.icmp(IcmpPred::Slt, Type::I32, n, Value::i32(10));
    let then_b = f.create_block("t");
    let else_b = f.create_block("e");
    f.cond_br(c, then_b, else_b);
    f.switch_to(then_b);
    f.output(Type::I32, Value::i32(1));
    f.ret(None);
    f.switch_to(else_b);
    f.output(Type::I32, Value::i32(2));
    f.ret(None);
    f.finish();
    mb.finish().expect("verifies")
}

#[test]
fn planted_wrong_branch_is_sdc() {
    let m = branch_module();
    let model = parse_fault_model("wrong-branch").expect("parses");
    let campaign =
        Campaign::with_model(&m, "main", &[5], CampaignConfig::default(), model).expect("golden");
    let sid = find_sid(&m, |op| matches!(op, Op::CondBr { .. }));
    let spec = InjectionSpec {
        dyn_idx: first_dyn_at(&campaign, sid),
        operand_slot: 0,
        bit: 0,
    };
    assert_eq!(
        campaign.run_spec(spec),
        InjOutcome::Sdc,
        "inverted branch prints 2 instead of 1"
    );
}

/// `output(n + 5)` — skipping the output drops a printed value.
fn output_module() -> Module {
    let mut mb = ModuleBuilder::new("o");
    let mut f = mb.function("main", vec![Type::I32], None);
    let n = f.param(0);
    let x = f.add(Type::I32, n, Value::i32(5));
    f.output(Type::I32, x);
    f.ret(None);
    f.finish();
    mb.finish().expect("verifies")
}

#[test]
fn planted_skip_of_output_is_sdc() {
    let m = output_module();
    let model = parse_fault_model("skip").expect("parses");
    let campaign =
        Campaign::with_model(&m, "main", &[3], CampaignConfig::default(), model).expect("golden");
    let sid = find_sid(&m, |op| matches!(op, Op::Output { .. }));
    let spec = InjectionSpec {
        dyn_idx: first_dyn_at(&campaign, sid),
        operand_slot: 0,
        bit: 0,
    };
    assert_eq!(
        campaign.run_spec(spec),
        InjOutcome::Sdc,
        "skipped output leaves the printed stream short"
    );
}

/// `x = n + 0; output x; output x` — a destination flip corrupts `x`
/// for both outputs, where a source flip would corrupt one read.
#[test]
fn planted_dest_flip_persists_across_uses() {
    let mut mb = ModuleBuilder::new("d");
    let mut f = mb.function("main", vec![Type::I32], None);
    let n = f.param(0);
    let x = f.add(Type::I32, n, Value::i32(0));
    f.output(Type::I32, x);
    f.output(Type::I32, x);
    f.ret(None);
    f.finish();
    let m = mb.finish().expect("verifies");
    let model = parse_fault_model("dest").expect("parses");
    let campaign =
        Campaign::with_model(&m, "main", &[8], CampaignConfig::default(), model).expect("golden");
    let sid = find_sid(&m, |op| matches!(op, Op::Bin { .. }));
    let spec = InjectionSpec {
        dyn_idx: first_dyn_at(&campaign, sid),
        operand_slot: 0,
        bit: 0,
    };
    assert_eq!(
        campaign.run_spec(spec),
        InjOutcome::Sdc,
        "both outputs print 9 instead of 8"
    );
}

/// store + load round trip through one malloc'd cell, with a spacer chain
/// of `adds` dynamic instructions between store and load so ECC windows can
/// be planted on either side of the consumption point.
fn store_load_module(adds: u32) -> Module {
    let mut mb = ModuleBuilder::new("s");
    let mut f = mb.function("main", vec![Type::I32], None);
    let n = f.param(0);
    let buf = f.malloc(Value::i64(64));
    f.store(Type::I64, Value::i64(0x1234), buf);
    let mut acc = n;
    for _ in 0..adds {
        acc = f.add(Type::I32, acc, Value::i32(1));
    }
    f.output(Type::I32, acc);
    let v = f.load(Type::I64, buf);
    f.output(Type::I64, v);
    f.ret(None);
    f.finish();
    mb.finish().expect("verifies")
}

#[test]
fn planted_store_addr_high_bit_crashes() {
    let m = store_load_module(0);
    let model = parse_fault_model("store-addr").expect("parses");
    let campaign =
        Campaign::with_model(&m, "main", &[1], CampaignConfig::default(), model).expect("golden");
    let sid = find_sid(&m, |op| matches!(op, Op::Store { .. }));
    let spec = InjectionSpec {
        dyn_idx: first_dyn_at(&campaign, sid),
        operand_slot: 1,
        bit: 40,
    };
    let outcome = campaign.run_spec(spec);
    assert!(
        outcome.is_crash(),
        "store to address ^ 2^40 lands far outside every allocation: {outcome:?}"
    );
}

#[test]
fn planted_ecc_long_window_is_detected() {
    // 8 spacer instructions between store and load; a window of 1000 keeps
    // the uncorrectable double-bit error armed until the load consumes it.
    let m = store_load_module(8);
    let model = parse_fault_model("ecc:1000").expect("parses");
    let campaign =
        Campaign::with_model(&m, "main", &[1], CampaignConfig::default(), model).expect("golden");
    let sid = find_sid(&m, |op| matches!(op, Op::Store { .. }));
    let spec = InjectionSpec {
        dyn_idx: first_dyn_at(&campaign, sid),
        operand_slot: 0,
        bit: 0,
    };
    assert_eq!(
        campaign.run_spec(spec),
        InjOutcome::Detected,
        "SEC-DED raises on the consuming load inside the window"
    );
}

#[test]
fn planted_ecc_short_window_is_masked() {
    // Same plant, but a 2-instruction window expires during the spacer
    // chain: the scrubber restores the golden word before the load, the run
    // rejoins the golden trace, and the fault classifies benign — the
    // delayed-reporting masked class.
    let m = store_load_module(8);
    let model = parse_fault_model("ecc:2").expect("parses");
    let campaign =
        Campaign::with_model(&m, "main", &[1], CampaignConfig::default(), model).expect("golden");
    let sid = find_sid(&m, |op| matches!(op, Op::Store { .. }));
    let spec = InjectionSpec {
        dyn_idx: first_dyn_at(&campaign, sid),
        operand_slot: 0,
        bit: 0,
    };
    assert_eq!(
        campaign.run_spec(spec),
        InjOutcome::Benign,
        "an error never consumed before the window closes is masked"
    );
}

#[test]
fn planted_burst_flip_tracks_mask_width() {
    // Flipping the two top value bits of the stored constant survives to
    // the final output: an SDC under burst:2 at the store's value slot.
    let m = store_load_module(0);
    let model = parse_fault_model("burst:2").expect("parses");
    let campaign =
        Campaign::with_model(&m, "main", &[1], CampaignConfig::default(), model).expect("golden");
    let sid = find_sid(&m, |op| matches!(op, Op::Store { .. }));
    let spec = InjectionSpec {
        dyn_idx: first_dyn_at(&campaign, sid),
        operand_slot: 0,
        bit: 20,
    };
    assert_eq!(
        campaign.run_spec(spec),
        InjOutcome::Sdc,
        "corrupted stored value reaches the output"
    );
}
