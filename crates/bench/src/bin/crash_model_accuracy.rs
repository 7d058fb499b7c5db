//! §III-D experiment: accuracy of the naive boundary-only crash model vs
//! the full model with the Linux stack-expansion rule, evaluated on
//! out-of-VMA accesses. The paper measured ~85% naive and >99.5% full.

use epvf_bench::{pct, print_table, HarnessOpts};
use epvf_core::{check_boundary, CrashModelConfig};
use epvf_interp::{ExecConfig, InjectionSpec, Interpreter};
use epvf_ir::{Module, ModuleBuilder, Type, Value};
use epvf_workloads::dsl::for_simple;

/// A stack-heavy kernel: a large alloca walked by stores, so address-bit
/// flips frequently land in the stack gap below the VMA (the case the
/// naive model mispredicts).
fn stack_kernel() -> Module {
    let mut mb = ModuleBuilder::new("stack_kernel");
    let mut f = mb.function("main", vec![], None);
    let buf = f.alloca(512, 8);
    for_simple(&mut f, 0, Value::i32(64), |f, i| {
        let slot = f.gep(buf, i, 8);
        let wide = f.zext(Type::I32, Type::I64, i);
        f.store(Type::I64, wide, slot);
        let v = f.load(Type::I64, slot);
        f.output(Type::I64, v);
    });
    f.ret(None);
    f.finish();
    mb.finish().expect("verifies")
}

fn main() {
    let opts = HarnessOpts::from_args();
    let module = stack_kernel();
    let interp = Interpreter::new(&module, ExecConfig::default());
    let golden = interp.golden_run("main", &[]).expect("runs");
    let trace = golden.trace.as_ref().expect("traced");

    let naive_cfg = CrashModelConfig {
        stack_rule: false,
        ..CrashModelConfig::default()
    };
    let full_cfg = CrashModelConfig::default();

    let mut cases = 0usize;
    let mut naive_correct = 0usize;
    let mut full_correct = 0usize;
    let mut actual_crashes = 0usize;
    'outer: for rec in trace {
        let Some(mem) = rec.mem.as_ref() else {
            continue;
        };
        let slot = usize::from(mem.is_store);
        let vma = mem.map.locate(mem.addr).expect("golden access mapped");
        let full_range = check_boundary(mem, full_cfg);
        let naive_range = check_boundary(mem, naive_cfg);
        for bit in 0..48u8 {
            let flipped = mem.addr ^ (1u64 << bit);
            // §III-D studies accesses outside the segment boundaries.
            if vma.contains(flipped) {
                continue;
            }
            cases += 1;
            let fi = interp
                .run(
                    "main",
                    &[],
                    Some(
                        InjectionSpec {
                            dyn_idx: rec.idx,
                            operand_slot: slot,
                            bit,
                        }
                        .into(),
                    ),
                )
                .expect("runs");
            let crashed = fi.outcome.is_crash();
            actual_crashes += usize::from(crashed);
            // Naive hypothesis: every out-of-segment access crashes.
            naive_correct += usize::from(crashed != naive_range.contains(flipped));
            full_correct += usize::from(crashed != full_range.contains(flipped));
            if cases >= opts.runs.max(200) {
                break 'outer;
            }
        }
    }
    print_table(
        "§III-D: crash-model accuracy on out-of-segment accesses",
        &["model", "correct", "cases", "accuracy"],
        &[
            vec![
                "naive (VMA bounds only)".into(),
                naive_correct.to_string(),
                cases.to_string(),
                pct(naive_correct as f64 / cases.max(1) as f64),
            ],
            vec![
                "full (Linux stack rule)".into(),
                full_correct.to_string(),
                cases.to_string(),
                pct(full_correct as f64 / cases.max(1) as f64),
            ],
        ],
    );
    println!(
        "\nout-of-segment accesses that actually crashed: {} — the gap is the\nstack-expansion window the naive model misses.",
        pct(actual_crashes as f64 / cases.max(1) as f64)
    );
    println!("paper: ~85% naive → >99.5% with the kernel-accurate rule.");
    epvf_bench::emit_metrics("crash_model_accuracy", &opts);
}
