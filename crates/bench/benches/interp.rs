//! Criterion microbenches for the interpreter: traced vs untraced golden
//! runs (tracing cost) and a fault-injected run.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use epvf_interp::{ExecConfig, InjectionSpec, Interpreter};
use epvf_workloads::{mm, Scale};

fn bench_interp(c: &mut Criterion) {
    let w = mm::build(Scale::Tiny);
    let interp = Interpreter::new(&w.module, ExecConfig::default());
    let golden = interp.run("main", &w.args, None).expect("runs");

    let mut g = c.benchmark_group("interp");
    g.throughput(Throughput::Elements(golden.dyn_insts));
    g.bench_function("untraced_run/mm_tiny", |b| {
        b.iter(|| interp.run("main", &w.args, None).expect("runs"))
    });
    g.bench_function("traced_run/mm_tiny", |b| {
        b.iter(|| interp.golden_run("main", &w.args).expect("runs"))
    });
    g.bench_function("injected_run/mm_tiny", |b| {
        b.iter(|| {
            interp
                .run(
                    "main",
                    &w.args,
                    Some(
                        InjectionSpec {
                            dyn_idx: golden.dyn_insts / 2,
                            operand_slot: 0,
                            bit: 3,
                        }
                        .into(),
                    ),
                )
                .expect("runs")
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_interp
}
criterion_main!(benches);
