//! Section-cache payoff study: cold vs warm vs one-section-mutated
//! compositional analysis on loop-heavy kernels.
//!
//! The cold model pass is quadratic on a loop-carried chain — the backward
//! slice of iteration `i`'s address runs through `i` phi steps, and the
//! per-root walk drains it per access — while a warm replay writes each
//! section's net final-state delta in one linear pass. The study measures
//! that asymmetry honestly: every timed result is first checked equal to
//! the monolithic analysis (a speedup on a wrong answer is not a speedup),
//! and the harness asserts the ≥3× warm-speedup floor this repo's CI
//! gates on.

use epvf_bench::{print_table, HarnessOpts};
use epvf_core::{analyze, analyze_compositional, EpvfConfig, EpvfResult, SectionCache};
use epvf_interp::{ExecConfig, Interpreter, Trace};
use epvf_ir::{IcmpPred, Module, ModuleBuilder, Type, Value};
use epvf_telemetry::MetricsReport;

/// K independent loop nests, each walking its own buffer for `trips`
/// iterations; `mults[k]` is the per-loop constant a "mutation" edits.
fn kernel(mults: &[i32], trips: i32) -> Module {
    let mut mb = ModuleBuilder::new("sections");
    let mut f = mb.function("main", vec![], None);
    let bufs: Vec<_> = (0..mults.len())
        .map(|_| f.malloc(Value::i64(i64::from(trips) * 4)))
        .collect();
    let mut pred = f.current_block();
    for (k, (&m, &buf)) in mults.iter().zip(&bufs).enumerate() {
        let header = f.create_block(format!("h{k}"));
        let body = f.create_block(format!("b{k}"));
        let next = f.create_block(format!("n{k}"));
        f.br(header);
        f.switch_to(header);
        let i = f.phi(Type::I32, vec![(pred, Value::i32(0))]);
        let c = f.icmp(IcmpPred::Slt, Type::I32, i, Value::i32(trips));
        f.cond_br(c, body, next);
        f.switch_to(body);
        let v = f.mul(Type::I32, i, Value::i32(m));
        let slot = f.gep(buf, i, 4);
        f.store(Type::I32, v, slot);
        let lv = f.load(Type::I32, slot);
        f.output(Type::I32, lv);
        let i2 = f.add(Type::I32, i, Value::i32(1));
        f.add_incoming(i, body, i2);
        f.br(header);
        f.switch_to(next);
        pred = next;
    }
    f.ret(None);
    f.finish();
    mb.finish().expect("kernel verifies")
}

fn traced(module: &Module) -> Trace {
    Interpreter::new(module, ExecConfig::default())
        .golden_run("main", &[])
        .expect("golden run completes")
        .trace
        .expect("traced")
}

fn model_ms(r: &EpvfResult) -> f64 {
    r.metrics.model_time.as_secs_f64() * 1e3
}

fn assert_same(a: &EpvfResult, b: &EpvfResult, what: &str) {
    assert_eq!(a.crash_map, b.crash_map, "{what}: CrashMap diverged");
    assert_eq!(
        a.metrics.epvf.to_bits(),
        b.metrics.epvf.to_bits(),
        "{what}: ePVF diverged"
    );
}

fn main() {
    let opts = HarnessOpts::from_args();
    let sizes: &[(usize, i32)] = &[(4, 600), (6, 1000), (8, 1500)];
    let cache_root =
        std::env::temp_dir().join(format!("epvf-bench-sections-{}", std::process::id()));

    let mut rows = Vec::new();
    // Headline: the warm and mutated speedups on the largest kernel,
    // where the quadratic/linear gap is widest.
    let mut headline = (0.0f64, 0.0f64);
    for &(k, trips) in sizes {
        let mults: Vec<i32> = (0..k as i32).map(|i| 3 + 2 * i).collect();
        let module = kernel(&mults, trips);
        let trace = traced(&module);
        let config = EpvfConfig::default();
        let mono = analyze(&module, &trace, config);

        let dir = cache_root.join(format!("k{k}-n{trips}"));
        let mut cache = SectionCache::persistent(&dir).expect("cache dir");
        let cold = analyze_compositional(&module, &trace, config, &mut cache);
        assert_same(&mono, &cold, "cold");
        let warm = analyze_compositional(&module, &trace, config, &mut cache);
        assert_same(&mono, &warm, "warm");
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, s.sections, "hit/miss conservation");
        assert_eq!(s.hits, s.sections / 2, "warm pass replays every section");

        // Edit one loop's multiplier: the warm re-analysis recomputes just
        // that section and replays the other K-1.
        let mut edited = mults.clone();
        edited[k / 2] += 1;
        let mutant = kernel(&edited, trips);
        let trace_mut = traced(&mutant);
        let reference = analyze(&mutant, &trace_mut, config);
        let before = cache.stats();
        let mutated = analyze_compositional(&mutant, &trace_mut, config, &mut cache);
        assert_same(&reference, &mutated, "mutated");
        let after = cache.stats();
        assert_eq!(
            after.misses - before.misses,
            1,
            "exactly the edited section recomputes"
        );

        let warm_speedup = model_ms(&cold) / model_ms(&warm);
        let mut_speedup = model_ms(&cold) / model_ms(&mutated);
        if model_ms(&cold) >= headline.0 {
            headline = (model_ms(&cold), warm_speedup);
        }
        rows.push(vec![
            format!("{k} loops x {trips}"),
            format!("{} sects", s.sections / 2),
            format!("{:.1} ms", model_ms(&cold)),
            format!("{:.1} ms", model_ms(&warm)),
            format!("{warm_speedup:.1}x"),
            format!("{:.1} ms", model_ms(&mutated)),
            format!("{mut_speedup:.1}x"),
        ]);
    }
    let _ = std::fs::remove_dir_all(&cache_root);
    print_table(
        "Section cache: cold vs warm vs one-section-mutated (model phase, verified identical)",
        &[
            "kernel", "sections", "cold", "warm", "speedup", "mutated", "speedup",
        ],
        &rows,
    );

    let warm_speedup = headline.1;
    let path = opts
        .metrics_out
        .clone()
        .unwrap_or_else(|| "results/BENCH_section_cache.json".into());
    let report = MetricsReport::new(epvf_telemetry::global_snapshot())
        .with_meta("tool", "epvf-bench")
        .with_meta("harness", "section_cache")
        .with_meta("git_sha", epvf_bench::git_sha())
        // Warm-replay speedup of the model phase on the largest kernel —
        // the number the incremental-analysis claim rests on.
        .with_meta("warm_speedup", format!("{warm_speedup:.2}"));
    match report.write_file(&path) {
        Ok(()) => eprintln!("metrics: wrote {}", path.display()),
        Err(e) => eprintln!("metrics: cannot write {}: {e}", path.display()),
    }
    assert!(
        warm_speedup >= 3.0,
        "warm-replay speedup {warm_speedup:.2}x is below the 3x floor"
    );
}
