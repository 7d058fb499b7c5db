//! The end-to-end ePVF pipeline (paper Fig. 2) and its metrics.
//!
//! `trace → DDG → ACE graph → crash model + propagation → ePVF`, with the
//! phase timing split the paper reports in Fig. 10.

use crate::compose::compose_model;
use crate::crash_model::CrashModelConfig;
use crate::propagation::{propagate_scoped, CrashMap, CrashScope};
use crate::section_cache::SectionCache;
use epvf_ddg::{build_ddg, AceConfig, AceGraph, Ddg};
use epvf_interp::Trace;
use epvf_ir::Module;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Configuration of the whole analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpvfConfig {
    /// ACE-graph options (control roots on/off).
    pub ace: AceConfig,
    /// Crash-model options (stack rule, stack limit).
    pub crash: CrashModelConfig,
    /// Which accesses trigger the crash model (paper default: ACE only).
    pub scope: CrashScope,
}

/// Scalar results of one analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpvfMetrics {
    /// Dynamic IR instructions in the trace (Table V column 1).
    pub dyn_insts: u64,
    /// DDG vertex count.
    pub ddg_nodes: usize,
    /// ACE graph vertex count (Table V column 2).
    pub ace_nodes: usize,
    /// Σ bit widths of all register nodes (PVF denominator).
    pub total_register_bits: u64,
    /// Σ bit widths of ACE register nodes (PVF numerator).
    pub ace_register_bits: u64,
    /// Σ crash bits over ACE register nodes (ePVF subtraction, Eq. 2).
    pub crash_register_bits: u64,
    /// PVF of the used-registers resource (Eq. 1).
    pub pvf: f64,
    /// ePVF (Eq. 2): `(ACE − crash) / total`.
    pub epvf: f64,
    /// Σ bit widths over every register-operand *read* in the trace — the
    /// space the fault-injection campaign samples uniformly.
    pub trace_use_bits: u64,
    /// Σ predicted crash bits over constrained reads.
    pub use_crash_bits: u64,
    /// Predicted crash rate: `use_crash_bits / trace_use_bits` — compared
    /// against fault injection in the paper's Fig. 8.
    pub crash_rate_estimate: f64,
    /// Time spent building the DDG and ACE graph (Fig. 10 bottom bar).
    pub graph_time: Duration,
    /// Time spent in the crash + propagation models (Fig. 10 top bar).
    pub model_time: Duration,
}

/// Full artifacts of one analysis, for downstream consumers (per-instruction
/// ranking, sampling, accuracy evaluation).
#[derive(Debug, Clone)]
pub struct EpvfResult {
    /// The dynamic dependency graph.
    pub ddg: Ddg,
    /// The ACE subgraph.
    pub ace: AceGraph,
    /// Per-use / per-node crash constraints.
    pub crash_map: CrashMap,
    /// Scalar metrics.
    pub metrics: EpvfMetrics,
}

/// Σ bit widths of register-operand reads in a trace.
pub fn trace_use_bits(module: &Module, trace: &Trace) -> u64 {
    let mut total = 0u64;
    for rec in trace {
        let func = &module.functions[rec.func.index()];
        for op in rec.operands {
            if op.src.is_some() {
                if let epvf_ir::Value::Reg(r) = op.value {
                    total += u64::from(func.value_types[r.index()].bits());
                }
            }
        }
    }
    total
}

/// Run the complete ePVF methodology on a golden-run trace.
///
/// # Examples
///
/// ```
/// use epvf_core::{analyze, EpvfConfig};
/// use epvf_interp::{ExecConfig, Interpreter};
/// use epvf_ir::{ModuleBuilder, Type, Value};
///
/// let mut mb = ModuleBuilder::new("m");
/// let mut f = mb.function("main", vec![], None);
/// let p = f.malloc(Value::i64(16));
/// f.store(Type::I64, Value::i64(3), p);
/// let v = f.load(Type::I64, p);
/// f.output(Type::I64, v);
/// f.ret(None);
/// f.finish();
/// let module = mb.finish()?;
///
/// let run = Interpreter::new(&module, ExecConfig::default()).golden_run("main", &[])?;
/// let result = analyze(&module, run.trace.as_ref().expect("traced"), EpvfConfig::default());
/// assert!(result.metrics.epvf <= result.metrics.pvf, "ePVF is a tighter bound");
/// assert!(result.metrics.crash_register_bits > 0, "address bits are crash bits");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze(module: &Module, trace: &Trace, config: EpvfConfig) -> EpvfResult {
    analyze_with(module, trace, config, None)
}

/// The body shared by [`analyze`] and [`crate::analyze_compositional`]:
/// without a cache the crash model seeds every root of the trace and then
/// sweeps the DDG once; with one it runs section by section through
/// `cache`, one root at a time. Both schedules reach the same fixpoint, so
/// the results are identical.
pub(crate) fn analyze_with(
    module: &Module,
    trace: &Trace,
    config: EpvfConfig,
    cache: Option<&mut SectionCache>,
) -> EpvfResult {
    epvf_telemetry::add(epvf_telemetry::Ctr::CoreAnalyses, 1);
    epvf_telemetry::add(epvf_telemetry::Ctr::CoreTraceLen, trace.len() as u64);
    let t0 = Instant::now();
    let ddg = build_ddg(module, trace);
    let ace = AceGraph::compute(&ddg, config.ace);
    let graph_time = t0.elapsed();

    let t1 = Instant::now();
    let crash_map = match cache {
        None => propagate_scoped(module, trace, &ddg, &ace, config.crash, config.scope),
        Some(cache) => compose_model(module, trace, &ddg, &ace, config, cache),
    };
    let model_time = t1.elapsed();

    let metrics = compute_metrics(
        module, trace, &ddg, &ace, &crash_map, graph_time, model_time,
    );
    EpvfResult {
        ddg,
        ace,
        crash_map,
        metrics,
    }
}

/// Metrics over precomputed artifacts (used by the sampling estimator to
/// rescore partial ACE graphs without rebuilding the DDG).
pub fn compute_metrics(
    module: &Module,
    trace: &Trace,
    ddg: &Ddg,
    ace: &AceGraph,
    crash_map: &CrashMap,
    graph_time: Duration,
    model_time: Duration,
) -> EpvfMetrics {
    let total_register_bits = ddg.total_register_bits();
    let ace_register_bits = ace.register_bits();
    let crash_register_bits = crash_map.ace_register_crash_bits(ddg, ace);
    let pvf = ratio(ace_register_bits, total_register_bits);
    let epvf = ratio(
        ace_register_bits.saturating_sub(crash_register_bits),
        total_register_bits,
    );
    let use_bits = trace_use_bits(module, trace);
    let use_crash_bits = crash_map.total_use_crash_bits();
    EpvfMetrics {
        dyn_insts: trace.len() as u64,
        ddg_nodes: ddg.len(),
        ace_nodes: ace.len(),
        total_register_bits,
        ace_register_bits,
        crash_register_bits,
        pvf,
        epvf,
        trace_use_bits: use_bits,
        use_crash_bits,
        crash_rate_estimate: ratio(use_crash_bits, use_bits),
        graph_time,
        model_time,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epvf_interp::{ExecConfig, Interpreter};
    use epvf_ir::{IcmpPred, ModuleBuilder, Type, Value};

    /// An array-walking kernel: every iteration stores through a gep.
    fn kernel() -> (Module, Trace) {
        let mut mb = ModuleBuilder::new("k");
        let mut f = mb.function("main", vec![Type::I32], None);
        let n = f.param(0);
        let bytes = f.zext(Type::I32, Type::I64, n);
        let size = f.mul(Type::I64, bytes, Value::i64(4));
        let arr = f.malloc(size);
        let entry = f.current_block();
        let header = f.create_block("h");
        let body = f.create_block("b");
        let exit = f.create_block("e");
        f.br(header);
        f.switch_to(header);
        let i = f.phi(Type::I32, vec![(entry, Value::i32(0))]);
        let c = f.icmp(IcmpPred::Slt, Type::I32, i, n);
        f.cond_br(c, body, exit);
        f.switch_to(body);
        let v = f.mul(Type::I32, i, Value::i32(3));
        let slot = f.gep(arr, i, 4);
        f.store(Type::I32, v, slot);
        let i2 = f.add(Type::I32, i, Value::i32(1));
        f.add_incoming(i, body, i2);
        f.br(header);
        f.switch_to(exit);
        let last = f.sub(Type::I32, n, Value::i32(1));
        let lslot = f.gep(arr, last, 4);
        let lv = f.load(Type::I32, lslot);
        f.output(Type::I32, lv);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let r = Interpreter::new(&m, ExecConfig::default())
            .golden_run("main", &[16])
            .expect("runs");
        assert_eq!(r.outputs, vec![45]);
        let t = r.trace.expect("trace");
        (m, t)
    }

    #[test]
    fn epvf_tighter_than_pvf() {
        let (m, t) = kernel();
        let res = analyze(&m, &t, EpvfConfig::default());
        let me = res.metrics;
        assert!(me.epvf < me.pvf, "epvf {} !< pvf {}", me.epvf, me.pvf);
        assert!(me.epvf >= 0.0);
        assert!(me.pvf <= 1.0);
        assert!(me.crash_register_bits > 0);
        assert!(me.ace_register_bits <= me.total_register_bits);
    }

    #[test]
    fn crash_rate_estimate_positive_for_memory_kernel() {
        let (m, t) = kernel();
        let res = analyze(&m, &t, EpvfConfig::default());
        assert!(res.metrics.crash_rate_estimate > 0.0);
        assert!(res.metrics.crash_rate_estimate < 1.0);
        assert!(res.metrics.use_crash_bits <= res.metrics.trace_use_bits);
    }

    #[test]
    fn table5_style_counts_populated() {
        let (m, t) = kernel();
        let res = analyze(&m, &t, EpvfConfig::default());
        assert_eq!(res.metrics.dyn_insts, t.len() as u64);
        assert!(res.metrics.ace_nodes > 0);
        assert!(res.metrics.ace_nodes <= res.metrics.ddg_nodes);
    }

    #[test]
    fn ace_config_control_roots_change_pvf() {
        let (m, t) = kernel();
        let with = analyze(&m, &t, EpvfConfig::default());
        let without = analyze(
            &m,
            &t,
            EpvfConfig {
                ace: AceConfig {
                    include_control: false,
                },
                ..EpvfConfig::default()
            },
        );
        assert!(with.metrics.pvf >= without.metrics.pvf);
    }

    #[test]
    fn deterministic_metrics() {
        let (m, t) = kernel();
        let a = analyze(&m, &t, EpvfConfig::default());
        let b = analyze(&m, &t, EpvfConfig::default());
        assert_eq!(a.metrics.pvf, b.metrics.pvf);
        assert_eq!(a.metrics.epvf, b.metrics.epvf);
        assert_eq!(a.metrics.use_crash_bits, b.metrics.use_crash_bits);
    }
}
