//! Differential proof that the compositional engine is a refactoring, not
//! an approximation: on every bundled workload and on hundreds of random
//! well-typed generator programs, `analyze_compositional` must produce the
//! *same `CrashMap`* (not just the same scalars) as the monolithic
//! `analyze`, cold and warm, through an in-memory and a persisted section
//! cache.
//!
//! `EPVF_COMPOSE_GEN_PROGRAMS` overrides the random-program count
//! (default 200).

use epvf_core::{analyze, analyze_compositional, CrashScope, EpvfConfig, EpvfResult, SectionCache};
use epvf_interp::{ExecConfig, Interpreter, Trace};
use epvf_ir::Module;
use epvf_oracle::{GenConfig, Recipe};
use epvf_workloads::{extended_suite, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn program_budget() -> usize {
    std::env::var("EPVF_COMPOSE_GEN_PROGRAMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// Timing fields aside, every scalar the analysis reports must agree.
fn assert_metrics_eq(a: &EpvfResult, b: &EpvfResult, what: &str) {
    let (ma, mb) = (&a.metrics, &b.metrics);
    assert_eq!(ma.dyn_insts, mb.dyn_insts, "{what}: dyn_insts");
    assert_eq!(ma.ddg_nodes, mb.ddg_nodes, "{what}: ddg_nodes");
    assert_eq!(ma.ace_nodes, mb.ace_nodes, "{what}: ace_nodes");
    assert_eq!(
        ma.total_register_bits, mb.total_register_bits,
        "{what}: total_register_bits"
    );
    assert_eq!(
        ma.ace_register_bits, mb.ace_register_bits,
        "{what}: ace_register_bits"
    );
    assert_eq!(
        ma.crash_register_bits, mb.crash_register_bits,
        "{what}: crash_register_bits"
    );
    assert_eq!(
        ma.trace_use_bits, mb.trace_use_bits,
        "{what}: trace_use_bits"
    );
    assert_eq!(
        ma.use_crash_bits, mb.use_crash_bits,
        "{what}: use_crash_bits"
    );
    assert_eq!(ma.pvf.to_bits(), mb.pvf.to_bits(), "{what}: pvf");
    assert_eq!(ma.epvf.to_bits(), mb.epvf.to_bits(), "{what}: epvf");
    assert_eq!(
        ma.crash_rate_estimate.to_bits(),
        mb.crash_rate_estimate.to_bits(),
        "{what}: crash_rate_estimate"
    );
}

/// The full equality battery for one `(module, trace, config)`:
/// monolithic == composed-cold == composed-warm, hit/miss accounting is
/// conserved, and the warm pass replays every section.
fn check_one(module: &Module, trace: &Trace, config: EpvfConfig, what: &str) {
    let mono = analyze(module, trace, config);
    let mut cache = SectionCache::in_memory();
    let cold = analyze_compositional(module, trace, config, &mut cache);
    assert_eq!(
        mono.crash_map, cold.crash_map,
        "{what}: cold composed CrashMap diverged from monolithic"
    );
    assert_metrics_eq(&mono, &cold, &format!("{what} (cold)"));
    let s = cache.stats();
    assert_eq!(s.hits + s.misses, s.sections, "{what}: conservation");
    assert_eq!(s.hits, 0, "{what}: a fresh cache cannot hit");

    let warm = analyze_compositional(module, trace, config, &mut cache);
    assert_eq!(
        mono.crash_map, warm.crash_map,
        "{what}: warm replay diverged from monolithic"
    );
    assert_metrics_eq(&mono, &warm, &format!("{what} (warm)"));
    let s2 = cache.stats();
    assert_eq!(
        s2.hits + s2.misses,
        s2.sections,
        "{what}: conservation (warm)"
    );
    assert_eq!(
        s2.hits, s.sections,
        "{what}: an identical re-analysis must replay every section"
    );
    assert_eq!(
        s2.misses, s.misses,
        "{what}: warm pass recomputed something"
    );
}

#[test]
fn composed_equals_monolithic_on_every_workload() {
    for w in extended_suite(Scale::Tiny) {
        let golden = w.golden();
        let trace = golden.trace.as_ref().expect("traced");
        check_one(&w.module, trace, EpvfConfig::default(), w.name);
        // The crash scope changes which accesses seed propagation; the
        // compositional split must be equality-preserving under both.
        check_one(
            &w.module,
            trace,
            EpvfConfig {
                scope: CrashScope::AllAccesses,
                ..EpvfConfig::default()
            },
            &format!("{} (all-accesses)", w.name),
        );
    }
}

/// Addresses indexed by wrapping hashes, shifts by 54, a `udiv` by 2^54,
/// `sub`, narrow casts and a negative `gep` index, with no `urem` to cut
/// the slice (every generated index passes through one). The root-at-a-time
/// sweep narrows shared ranges root by root; it must still reach the
/// batched sweep's map.
#[test]
fn hashed_index_kernel_composes_exactly() {
    let module = epvf_ir::parse_module(include_str!("../../core/tests/fixtures/hash_index.ir"))
        .expect("fixture parses");
    let run = Interpreter::new(&module, ExecConfig::default())
        .golden_run("main", &[])
        .expect("golden run");
    let trace = run.trace.as_ref().expect("traced");
    for scope in [CrashScope::AceOnly, CrashScope::AllAccesses] {
        let config = EpvfConfig {
            scope,
            ..EpvfConfig::default()
        };
        check_one(&module, trace, config, &format!("hash_index {scope:?}"));
    }
}

#[test]
fn persisted_cache_round_trips_across_processes() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("compositional-diff-cache");
    let _ = std::fs::remove_dir_all(&dir);
    for w in extended_suite(Scale::Tiny).into_iter().take(3) {
        let golden = w.golden();
        let trace = golden.trace.as_ref().expect("traced");
        let mono = analyze(&w.module, trace, EpvfConfig::default());

        let mut cold_cache = SectionCache::persistent(&dir).expect("cache dir");
        let cold = analyze_compositional(&w.module, trace, EpvfConfig::default(), &mut cold_cache);
        assert_eq!(mono.crash_map, cold.crash_map, "{} (persist cold)", w.name);
        let cold_stats = cold_cache.stats();
        drop(cold_cache);

        // A brand-new handle on the same directory simulates a second
        // process: everything must come back from disk.
        let mut warm_cache = SectionCache::persistent(&dir).expect("cache dir");
        let warm = analyze_compositional(&w.module, trace, EpvfConfig::default(), &mut warm_cache);
        assert_eq!(mono.crash_map, warm.crash_map, "{} (persist warm)", w.name);
        let s = warm_cache.stats();
        assert_eq!(
            s.hits, cold_stats.sections,
            "{}: disk replay incomplete",
            w.name
        );
        assert_eq!(s.misses, 0, "{}: disk replay recomputed", w.name);
    }
}

#[test]
fn random_programs_compose_exactly() {
    let n = program_budget();
    let mut rng = StdRng::seed_from_u64(0xC0_5EC7);
    let mut checked = 0usize;
    for i in 0..n {
        let recipe = Recipe::random(&mut rng, &GenConfig::default());
        let module = recipe.emit();
        let run = Interpreter::new(&module, ExecConfig::default())
            .golden_run("main", &[])
            .unwrap_or_else(|e| panic!("recipe {i} `{recipe}` golden run failed: {e}"));
        let Some(trace) = run.trace.as_ref() else {
            panic!("recipe {i} `{recipe}` produced no trace");
        };
        // Random programs are dense in stores that never reach an output,
        // so AllAccesses exercises far more sections than the paper-default
        // scope; check both.
        for (scope, tag) in [
            (CrashScope::AceOnly, "ace-only"),
            (CrashScope::AllAccesses, "all-accesses"),
        ] {
            let config = EpvfConfig {
                scope,
                ..EpvfConfig::default()
            };
            check_one(
                &module,
                trace,
                config,
                &format!("recipe {i} `{recipe}` {tag}"),
            );
        }
        checked += 1;
    }
    assert!(checked >= n, "checked {checked} of {n} programs");
    println!("compositional equality held on {checked} generated programs");
}
