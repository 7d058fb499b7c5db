//! Pluggable fault models.
//!
//! The paper's llfi layer models exactly one fault: a single bit flipped in
//! a live register-operand read (§IV-A). That assumption is baked into the
//! campaign currency — an [`InjectionSpec`] is a `(dyn, slot, bit)`
//! coordinate — but nothing else about the pipeline depends on it. A
//! [`FaultModel`] keeps the coordinate system and reinterprets it:
//!
//! * **enumeration** — [`FaultModel::points`] says how many injection
//!   points a given `(dynamic instruction, slot)` pair contributes, so site
//!   tables, exhaustive oracle sweeps, and the adaptive sampler all walk
//!   the model's own universe;
//! * **lowering** — [`FaultModel::lower`] turns each abstract spec into the
//!   [`MachineFault`] the interpreter executes.
//!
//! Keeping [`InjectionSpec`] as the universal currency means WAL resume,
//! repro files, quarantine records, and the differential oracle all work
//! unchanged for every model; a spec is only meaningful *relative to a
//! model*, which is why WAL fingerprints are domain-separated by
//! [`FaultModel::name`].
//!
//! Four models ship beyond the default single-bit flip (§II-E and the
//! related-work motivations in PAPERS.md): multi-bit burst flips,
//! instruction-skip, wrong-branch, store-address corruption, and an
//! at-rest SEC-DED ECC word model with delayed error reporting.

use crate::classify::OperandKind;
use epvf_interp::{DynInst, DynInstRef, FaultEffect, InjectionSpec, MachineFault};
use epvf_ir::{Module, Op, StaticInstId, Type, Value};
use std::fmt;
use std::sync::Arc;

/// Width in bits of the injectable register-operand read at `(rec, slot)`,
/// or `None` if that operand is not an injection site (constant, global, or
/// a register without a recorded producer).
///
/// This is the single definition of "injectable site" for the register
/// fault models. Site tables (random campaigns), the targeted precision
/// study, and the exhaustive oracle all go through it, so their site
/// universes can never diverge.
pub fn injectable_operand(module: &Module, rec: DynInstRef<'_>, slot: usize) -> Option<u32> {
    let op = rec.operands.get(slot)?;
    let Value::Reg(r) = op.value else { return None };
    op.src?;
    Some(module.functions[rec.func.index()].value_types[r.index()].bits())
}

/// Per-module static facts a [`FaultModel`] needs to classify instructions
/// without re-scanning blocks per dynamic record: one dense `sid → flag`
/// table per question.
#[derive(Debug, Clone)]
pub struct FaultCtx {
    /// Whether the instruction can be retired as a no-op (not a block
    /// terminator, not a phi — phis are resolved as a batch by the
    /// interpreter and cannot be skipped individually).
    skippable: Vec<bool>,
    /// Whether the instruction makes a conditional control decision
    /// (`cond_br` or `detect_if`) that a wrong-branch fault can invert.
    branchy: Vec<bool>,
}

impl FaultCtx {
    /// Scan every instruction of `module` once.
    pub fn new(module: &Module) -> FaultCtx {
        let n = module.n_static_insts as usize;
        let mut skippable = vec![false; n];
        let mut branchy = vec![false; n];
        for f in &module.functions {
            for inst in f.insts() {
                skippable[inst.sid.index()] =
                    !inst.op.is_terminator() && !matches!(inst.op, Op::Phi { .. });
                branchy[inst.sid.index()] =
                    matches!(inst.op, Op::CondBr { .. } | Op::DetectIf { .. });
            }
        }
        FaultCtx { skippable, branchy }
    }

    /// Whether `sid` can be skipped without breaking control flow.
    pub fn skippable(&self, sid: StaticInstId) -> bool {
        self.skippable[sid.index()]
    }

    /// Whether `sid` is a conditional branch or conditional detector.
    pub fn branchy(&self, sid: StaticInstId) -> bool {
        self.branchy[sid.index()]
    }
}

/// A fault model: a reinterpretation of the `(dyn, slot, bit)` spec space.
///
/// Implementations must be deterministic pure functions of their inputs —
/// enumeration and lowering run on every worker thread and on WAL resume,
/// and the byte-identical-across-threads contract extends to them.
pub trait FaultModel: fmt::Debug + Send + Sync {
    /// Canonical name with parameters (e.g. `bitflip`, `burst:2`,
    /// `ecc:100`) — parseable back by [`parse_fault_model`], printed by the
    /// CLI, and hashed into WAL fingerprints for domain separation.
    fn name(&self) -> String;

    /// Whether the `bit` coordinate indexes bit positions (`true`, the
    /// default) or is a degenerate point index. Bandless models stratify
    /// on opcode class × operand kind only (`SiteClass::band = None`).
    fn bit_indexed(&self) -> bool {
        true
    }

    /// Number of injection points the model places at `(rec, slot)`, or
    /// `None` if this pair is not a site. The spec universe for the pair is
    /// `bit ∈ 0..points` (so points must fit in `u8` range, ≤ 64).
    fn points(
        &self,
        ctx: &FaultCtx,
        module: &Module,
        rec: DynInstRef<'_>,
        slot: usize,
    ) -> Option<u32>;

    /// Lower one abstract spec to the machine-level fault the interpreter
    /// executes. `width` is the point count [`Self::points`] returned for
    /// the spec's site (64 when unknown) — burst masks wrap within it.
    fn lower(&self, spec: InjectionSpec, width: u32) -> MachineFault;

    /// Stratification kind of the operand at `(rec, slot)`. The default
    /// derives it from the operand's static type; models whose fault
    /// targets something other than the operand value override it.
    fn operand_kind(&self, module: &Module, rec: DynInstRef<'_>, slot: usize) -> OperandKind {
        match rec.operands.get(slot).map(|o| o.value) {
            Some(Value::Reg(r)) => {
                OperandKind::of(module.functions[rec.func.index()].value_types[r.index()])
            }
            Some(Value::ConstInt { ty, .. } | Value::ConstFloat { ty, .. }) => OperandKind::of(ty),
            Some(Value::Global(_)) => OperandKind::Ptr,
            None => OperandKind::Int,
        }
    }
}

/// The paper's model: one bit of one live register-operand read (§IV-A).
/// Lowering is the interpreter's own `InjectionSpec → MachineFault`
/// conversion, so campaigns under this model are byte-identical to the
/// pre-trait pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleBitFlip;

/// Name of the default model.
pub const DEFAULT_MODEL: &str = "bitflip";

impl FaultModel for SingleBitFlip {
    fn name(&self) -> String {
        DEFAULT_MODEL.to_string()
    }

    fn points(
        &self,
        _ctx: &FaultCtx,
        module: &Module,
        rec: DynInstRef<'_>,
        slot: usize,
    ) -> Option<u32> {
        injectable_operand(module, rec, slot)
    }

    fn lower(&self, spec: InjectionSpec, _width: u32) -> MachineFault {
        spec.into()
    }
}

/// LLFI's default model: one bit of one instruction's *result* flips as it
/// is written to the destination register, so every later use sees it.
/// One site per value-defining dynamic instruction (slot 0); points are
/// the result's bits. Address registers are written once but read at
/// every access, so this universe weights data values more heavily than
/// the paper's source-read model does.
#[derive(Debug, Clone, Copy, Default)]
pub struct DestFlip;

impl DestFlip {
    /// Type of the value `rec` defines, if any.
    fn result_ty(module: &Module, rec: &DynInst) -> Option<Type> {
        let (reg, _, _) = rec.result?;
        Some(module.functions[rec.func.index()].value_types[reg.index()])
    }
}

impl FaultModel for DestFlip {
    fn name(&self) -> String {
        "dest".to_string()
    }

    fn points(
        &self,
        _ctx: &FaultCtx,
        module: &Module,
        rec: DynInstRef<'_>,
        slot: usize,
    ) -> Option<u32> {
        if slot != 0 {
            return None;
        }
        Self::result_ty(module, &rec).map(Type::bits)
    }

    fn lower(&self, spec: InjectionSpec, _width: u32) -> MachineFault {
        MachineFault {
            dyn_idx: spec.dyn_idx,
            effect: FaultEffect::ResultXor {
                mask: 1u64 << (spec.bit & 63),
            },
        }
    }

    fn operand_kind(&self, module: &Module, rec: DynInstRef<'_>, _slot: usize) -> OperandKind {
        Self::result_ty(module, &rec).map_or(OperandKind::Int, OperandKind::of)
    }
}

/// §II-E multi-bit extension, promoted from the `multibit` bench harness:
/// `bits` adjacent bits flip together, starting at the spec's bit and
/// wrapping within the operand width. Same site universe as the default
/// model.
#[derive(Debug, Clone, Copy)]
pub struct BurstFlip {
    /// Burst width in bits (≥ 2; 2 = double-bit, 8 = byte burst).
    pub bits: u32,
}

impl FaultModel for BurstFlip {
    fn name(&self) -> String {
        format!("burst:{}", self.bits)
    }

    fn points(
        &self,
        _ctx: &FaultCtx,
        module: &Module,
        rec: DynInstRef<'_>,
        slot: usize,
    ) -> Option<u32> {
        injectable_operand(module, rec, slot)
    }

    fn lower(&self, spec: InjectionSpec, width: u32) -> MachineFault {
        let w = width.clamp(1, 64) as u64;
        let mut mask = 0u64;
        for k in 0..u64::from(self.bits) {
            mask |= 1u64 << ((u64::from(spec.bit) + k) % w);
        }
        MachineFault {
            dyn_idx: spec.dyn_idx,
            effect: FaultEffect::OperandXor {
                slot: spec.operand_slot,
                mask,
            },
        }
    }
}

/// Instruction-skip: the target dynamic instruction retires as a no-op.
/// One point per skippable instruction (slot 0, bit 0); not bit-indexed.
#[derive(Debug, Clone, Copy, Default)]
pub struct InstSkip;

impl FaultModel for InstSkip {
    fn name(&self) -> String {
        "skip".to_string()
    }

    fn bit_indexed(&self) -> bool {
        false
    }

    fn points(
        &self,
        ctx: &FaultCtx,
        _module: &Module,
        rec: DynInstRef<'_>,
        slot: usize,
    ) -> Option<u32> {
        (slot == 0 && ctx.skippable(rec.sid)).then_some(1)
    }

    fn lower(&self, spec: InjectionSpec, _width: u32) -> MachineFault {
        MachineFault {
            dyn_idx: spec.dyn_idx,
            effect: FaultEffect::SkipInst,
        }
    }
}

/// Wrong-branch: the taken/not-taken decision of a conditional branch (or
/// conditional detector) inverts. One point per dynamic conditional;
/// not bit-indexed.
#[derive(Debug, Clone, Copy, Default)]
pub struct WrongBranch;

impl FaultModel for WrongBranch {
    fn name(&self) -> String {
        "wrong-branch".to_string()
    }

    fn bit_indexed(&self) -> bool {
        false
    }

    fn points(
        &self,
        ctx: &FaultCtx,
        _module: &Module,
        rec: DynInstRef<'_>,
        slot: usize,
    ) -> Option<u32> {
        (slot == 0 && ctx.branchy(rec.sid)).then_some(1)
    }

    fn lower(&self, spec: InjectionSpec, _width: u32) -> MachineFault {
        MachineFault {
            dyn_idx: spec.dyn_idx,
            effect: FaultEffect::FlipBranch,
        }
    }
}

/// Store-address corruption: one bit of the effective store address flips
/// after the address operand is read, before the access — the fault class
/// the paper's crash model is built to predict. Sites are the address
/// slots (slot 1) of dynamic stores; all 64 address bits are points.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreAddr;

impl FaultModel for StoreAddr {
    fn name(&self) -> String {
        "store-addr".to_string()
    }

    fn points(
        &self,
        _ctx: &FaultCtx,
        _module: &Module,
        rec: DynInstRef<'_>,
        slot: usize,
    ) -> Option<u32> {
        (slot == 1 && rec.mem.as_ref().is_some_and(|m| m.is_store)).then_some(64)
    }

    fn lower(&self, spec: InjectionSpec, _width: u32) -> MachineFault {
        MachineFault {
            dyn_idx: spec.dyn_idx,
            effect: FaultEffect::AddrXor {
                mask: 1u64 << (spec.bit & 63),
            },
        }
    }

    fn operand_kind(&self, _module: &Module, _rec: DynInstRef<'_>, _slot: usize) -> OperandKind {
        OperandKind::Ptr // the corrupted quantity is always an address
    }
}

/// At-rest SEC-DED ECC word strike with delayed reporting: an adjacent
/// double-bit pattern (uncorrectable, hence *detected* on consumption)
/// flips in the word a store just wrote. An error never consumed within
/// `window` dynamic instructions is scrubbed and classified masked. Sites
/// are the value slots (slot 0) of dynamic stores; points are the stored
/// word's bits (the strike starts at the spec's bit and wraps).
#[derive(Debug, Clone, Copy)]
pub struct EccWord {
    /// Delayed-reporting scrub window, in dynamic instructions.
    pub window: u64,
}

/// Default ECC scrub window (dynamic instructions).
pub const DEFAULT_ECC_WINDOW: u64 = 100;

impl FaultModel for EccWord {
    fn name(&self) -> String {
        format!("ecc:{}", self.window)
    }

    fn points(
        &self,
        _ctx: &FaultCtx,
        _module: &Module,
        rec: DynInstRef<'_>,
        slot: usize,
    ) -> Option<u32> {
        let mem = rec.mem.as_ref().filter(|m| m.is_store)?;
        (slot == 0).then_some((mem.size * 8).min(64) as u32)
    }

    fn lower(&self, spec: InjectionSpec, width: u32) -> MachineFault {
        let w = width.clamp(1, 64) as u64;
        let b = u64::from(spec.bit) % w;
        MachineFault {
            dyn_idx: spec.dyn_idx,
            effect: FaultEffect::EccFlip {
                mask: (1u64 << b) | (1u64 << ((b + 1) % w)),
                window: self.window,
            },
        }
    }
}

/// The default model as a shared handle.
pub fn default_fault_model() -> Arc<dyn FaultModel> {
    Arc::new(SingleBitFlip)
}

/// Parse a `name[:params]` model string: `bitflip`, `dest`,
/// `burst[:BITS]`, `skip`, `wrong-branch`, `store-addr`, `ecc[:WINDOW]`.
///
/// # Errors
/// A human-readable message naming the valid models or the bad parameter.
pub fn parse_fault_model(s: &str) -> Result<Arc<dyn FaultModel>, String> {
    let (name, param) = match s.split_once(':') {
        Some((n, p)) => (n, Some(p)),
        None => (s, None),
    };
    let no_param = |model: Arc<dyn FaultModel>| -> Result<Arc<dyn FaultModel>, String> {
        match param {
            Some(p) => Err(format!(
                "fault model `{name}` takes no parameter, got `{p}`"
            )),
            None => Ok(model),
        }
    };
    match name {
        "bitflip" => no_param(Arc::new(SingleBitFlip)),
        "dest" => no_param(Arc::new(DestFlip)),
        "skip" => no_param(Arc::new(InstSkip)),
        "wrong-branch" => no_param(Arc::new(WrongBranch)),
        "store-addr" => no_param(Arc::new(StoreAddr)),
        "burst" => {
            let bits: u32 = match param {
                Some(p) => p.parse().map_err(|e| format!("burst width `{p}`: {e}"))?,
                None => 2,
            };
            if !(2..=8).contains(&bits) {
                return Err(format!("burst width must be 2..=8, got {bits}"));
            }
            Ok(Arc::new(BurstFlip { bits }))
        }
        "ecc" => {
            let window: u64 = match param {
                Some(p) => p.parse().map_err(|e| format!("ecc window `{p}`: {e}"))?,
                None => DEFAULT_ECC_WINDOW,
            };
            if window == 0 {
                return Err("ecc window must be at least 1".to_string());
            }
            Ok(Arc::new(EccWord { window }))
        }
        _ => Err(format!(
            "unknown fault model `{name}` (expected bitflip, dest, burst[:BITS], \
             skip, wrong-branch, store-addr, or ecc[:WINDOW])"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_canonical_names() {
        for s in [
            "bitflip",
            "dest",
            "burst:2",
            "burst:8",
            "skip",
            "wrong-branch",
            "store-addr",
            "ecc:100",
        ] {
            let m = parse_fault_model(s).expect("parses");
            assert_eq!(m.name(), s, "canonical name round-trips");
        }
        assert_eq!(
            parse_fault_model("burst").expect("parses").name(),
            "burst:2"
        );
        assert_eq!(
            parse_fault_model("ecc").expect("parses").name(),
            format!("ecc:{DEFAULT_ECC_WINDOW}")
        );
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_fault_model("flux-capacitor").is_err());
        assert!(parse_fault_model("burst:1").is_err());
        assert!(parse_fault_model("burst:9").is_err());
        assert!(parse_fault_model("burst:x").is_err());
        assert!(parse_fault_model("ecc:0").is_err());
        assert!(parse_fault_model("skip:3").is_err());
        assert!(parse_fault_model("bitflip:1").is_err());
        assert!(parse_fault_model("dest:1").is_err());
    }

    #[test]
    fn default_lowering_matches_legacy_conversion() {
        // The byte-identical guarantee for the default model rests on this:
        // SingleBitFlip::lower is the pre-trait pipeline's conversion, one
        // bit of the read in the spec's slot at its dynamic index, whatever
        // the site width.
        for (dyn_idx, slot, bit) in [(0u64, 0usize, 0u8), (17, 1, 63), (9999, 2, 31)] {
            let spec = InjectionSpec {
                dyn_idx,
                operand_slot: slot,
                bit,
            };
            let want = MachineFault {
                dyn_idx,
                effect: FaultEffect::OperandXor {
                    slot,
                    mask: 1 << bit,
                },
            };
            for width in [1, 32, 64] {
                assert_eq!(SingleBitFlip.lower(spec, width), want);
            }
        }
    }

    #[test]
    fn burst_masks_wrap_within_operand_width() {
        let m = BurstFlip { bits: 3 };
        let spec = InjectionSpec {
            dyn_idx: 0,
            operand_slot: 0,
            bit: 31,
        };
        let MachineFault {
            effect: FaultEffect::OperandXor { mask, .. },
            ..
        } = m.lower(spec, 32)
        else {
            panic!("burst lowers to an operand XOR");
        };
        // bit 31 wraps to bits 0 and 1 in a 32-bit operand.
        assert_eq!(mask, (1 << 31) | 0b11);
    }

    #[test]
    fn ecc_masks_are_adjacent_double_bits() {
        let m = EccWord { window: 10 };
        for (bit, width, want) in [(0u8, 32u32, 0b11u64), (31, 32, (1 << 31) | 1), (7, 8, 0x81)] {
            let MachineFault {
                effect: FaultEffect::EccFlip { mask, window },
                ..
            } = m.lower(
                InjectionSpec {
                    dyn_idx: 5,
                    operand_slot: 0,
                    bit,
                },
                width,
            )
            else {
                panic!("ecc lowers to an ECC flip");
            };
            assert_eq!(mask, want, "bit {bit} width {width}");
            assert_eq!(window, 10);
            assert_eq!(mask.count_ones(), 2, "uncorrectable by construction");
        }
    }
}
