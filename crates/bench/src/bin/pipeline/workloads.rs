//! The four workloads: their inputs, one pass over them, and the identity
//! checks of the warm-up pass.
//!
//! Every layer is timed from outside, through calls into its public API,
//! so the untraced passes run exactly what `epvf analyze` and `epvf inject`
//! run, and the traced passes run the same calls one layer at a time.

use crate::gate::{Digest, Digests};
use crate::trace::Tracer;
use epvf_core::{
    analyze, analyze_compositional, build_ddg, compute_metrics, propagate_scoped, AceGraph,
    EpvfConfig, EpvfResult, SectionCache,
};
use epvf_interp::{ExecConfig, Interpreter, Outcome, Trace};
use epvf_ir::{IcmpPred, Module, ModuleBuilder, Type, Value};
use epvf_llfi::{
    wal_fingerprint, wal_fingerprint_shard, Campaign, CampaignConfig, CampaignResult, InjOutcome,
    RunSession, ShardOutcomes, ShardSpec, WalSink,
};
use epvf_workloads::{by_name, by_name_variant, mm, pathfinder, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

const ENTRY: &str = "main";

/// The paper's Table IV programs, in its order.
const TABLE_IV: [&str; 10] = [
    "lulesh",
    "particlefilter",
    "srad",
    "nw",
    "hotspot",
    "lavamd",
    "bfs",
    "lud",
    "pathfinder",
    "mm",
];

/// Strided shards per inject campaign.
const SHARDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AnalyzeSuite,
    AnalyzeDeep,
    AnalyzeIncremental,
    InjectCampaign,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AnalyzeSuite,
        Workload::AnalyzeDeep,
        Workload::AnalyzeIncremental,
        Workload::InjectCampaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalyzeSuite => "analyze-suite",
            Workload::AnalyzeDeep => "analyze-deep",
            Workload::AnalyzeIncremental => "analyze-incremental",
            Workload::InjectCampaign => "inject-campaign",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a tiny one for the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg(test)]
    Tiny,
}

/// A program and its entry arguments.
pub struct Program {
    pub label: String,
    pub module: Module,
    pub args: Vec<u64>,
}

impl Program {
    fn of(w: epvf_workloads::Workload) -> Program {
        Program {
            label: w.name.to_string(),
            module: w.module,
            args: w.args,
        }
    }
}

enum Plan {
    /// Golden run plus monolithic analysis of each program.
    Analyze,
    /// `(label, span, program index)` steps against one fresh cache; the
    /// span names the cold, warm or edited run.
    Compose(Vec<(&'static str, &'static str, usize)>),
    /// A sharded, WAL-backed campaign per program.
    Inject {
        runs: usize,
        seed: u64,
        threads: usize,
        replay_samples: usize,
    },
}

/// A workload's inputs, built from its seed.
pub struct Inputs {
    workload: Workload,
    programs: Vec<Program>,
    plan: Plan,
}

/// What one pass did.
pub struct PassOut {
    pub digests: Digests,
    /// Thousands of trace instructions analysed (analyze-*) or injected
    /// runs (inject-campaign).
    pub work: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Odd per-loop multipliers of the chain kernel: the section-cache
/// harness's `3 + 2k` at seed 0, shifted by a byte of the hashed seed
/// otherwise.
fn chain_mults(loops: usize, seed: u64) -> Vec<i32> {
    let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..loops)
        .map(|k| 3 + 2 * k as i32 + 2 * ((h >> (8 * (k % 8))) & 7) as i32)
        .collect()
}

/// `loops` independent loop nests, each walking its own buffer for `trips`
/// iterations with multiplier `mults[k]` (the kernel of the section-cache
/// harness): its backward slices grow with the trip count, so propagation
/// dominates its analysis.
fn chain_kernel(mults: &[i32], trips: i32) -> Program {
    let mut mb = ModuleBuilder::new("sections");
    let mut f = mb.function("main", vec![], None);
    let bufs: Vec<_> = mults
        .iter()
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
    Program {
        label: "chain".to_string(),
        module: mb.finish().expect("chain kernel verifies"),
        args: Vec::new(),
    }
}

/// A Table IV program with input variant `seed`; the programs without
/// variants keep their paper input.
fn table_iv(name: &str, scale: Scale, seed: u64) -> Program {
    Program::of(
        by_name_variant(name, scale, seed)
            .or_else(|| by_name(name, scale))
            .expect("Table IV program"),
    )
}

impl Inputs {
    pub fn build(workload: Workload, size: Size, seed: u64) -> Inputs {
        let full = size == Size::Full;
        let (loops, trips) = if full { (4, 600) } else { (2, 40) };
        match workload {
            Workload::AnalyzeSuite => {
                let scale = if full { Scale::Small } else { Scale::Tiny };
                Inputs {
                    workload,
                    programs: TABLE_IV.iter().map(|n| table_iv(n, scale, seed)).collect(),
                    plan: Plan::Analyze,
                }
            }
            Workload::AnalyzeDeep => {
                let (n, rows, cols) = if full { (16, 16, 48) } else { (6, 8, 16) };
                Inputs {
                    workload,
                    programs: vec![
                        Program::of(mm::build_n_variant(n, seed)),
                        Program::of(pathfinder::build_grid_variant(rows, cols, seed)),
                        chain_kernel(&chain_mults(loops, seed), trips),
                    ],
                    plan: Plan::Analyze,
                }
            }
            Workload::AnalyzeIncremental => {
                let mults = chain_mults(loops, seed);
                let mut edited = mults.clone();
                edited[(seed % loops as u64) as usize] += 1;
                let scale = if full { Scale::Small } else { Scale::Tiny };
                Inputs {
                    workload,
                    programs: vec![
                        chain_kernel(&mults, trips),
                        chain_kernel(&edited, trips),
                        Program::of(mm::build_variant(scale, seed)),
                        Program::of(mm::build_variant(scale, seed.wrapping_add(1))),
                    ],
                    plan: Plan::Compose(vec![
                        ("chain.cold", "core.compose_cold", 0),
                        ("chain.warm", "core.compose_warm", 0),
                        ("chain.edit", "core.compose_edit", 1),
                        ("mm.cold", "core.compose_cold", 2),
                        ("mm.warm", "core.compose_warm", 2),
                        ("mm.new", "core.compose_edit", 3),
                    ]),
                }
            }
            Workload::InjectCampaign => {
                let scale = if full { Scale::Small } else { Scale::Tiny };
                let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
                Inputs {
                    workload,
                    programs: TABLE_IV.iter().map(|n| table_iv(n, scale, seed)).collect(),
                    plan: Plan::Inject {
                        runs: if full { 500 } else { 40 },
                        seed,
                        threads,
                        replay_samples: if full { 500 } else { 10 },
                    },
                }
            }
        }
    }

    /// Run one pass. Traced passes split each op into its layer calls;
    /// untraced ones make the calls a user's command makes.
    ///
    /// # Errors
    /// Filesystem failures of the cache or WAL scratch files.
    pub fn run_pass(&self, tr: &mut Tracer, scratch: &Path) -> Result<PassOut, String> {
        let mut out = PassOut {
            digests: Vec::new(),
            work: 0.0,
            attempted: 0,
            failed: 0,
        };
        match &self.plan {
            Plan::Analyze => {
                for p in &self.programs {
                    let op = tr.begin("op.analyze");
                    let traced = tr.is_on();
                    let res = catch_unwind(AssertUnwindSafe(|| {
                        if traced {
                            analyze_layered(p, tr)
                        } else {
                            let trace = golden_trace(p, tr);
                            let r = analyze(&p.module, &trace, EpvfConfig::default());
                            (trace.len(), Digest::of_analysis(&r))
                        }
                    }));
                    tr.end(op);
                    out.record(&p.label, 1, res.map(|(len, d)| (len as f64 / 1e3, 0, d)));
                }
            }
            Plan::Compose(steps) => {
                let dir = scratch.join("section-cache");
                let mut cache = SectionCache::persistent(&dir)
                    .map_err(|e| format!("section cache {}: {e}", dir.display()))?;
                for &(label, span, i) in steps {
                    let p = &self.programs[i];
                    let op = tr.begin("op.compose");
                    let res = catch_unwind(AssertUnwindSafe(|| {
                        let trace = golden_trace(p, tr);
                        let r = tr.leaf(span, || {
                            analyze_compositional(
                                &p.module,
                                &trace,
                                EpvfConfig::default(),
                                &mut cache,
                            )
                        });
                        (trace.len(), Digest::of_analysis(&r))
                    }));
                    tr.end(op);
                    out.record(label, 1, res.map(|(len, d)| (len as f64 / 1e3, 0, d)));
                }
                std::fs::remove_dir_all(&dir)
                    .map_err(|e| format!("removing {}: {e}", dir.display()))?;
            }
            &Plan::Inject {
                runs,
                seed,
                threads,
                ..
            } => {
                for p in &self.programs {
                    let op = tr.begin("op.campaign");
                    let res = catch_unwind(AssertUnwindSafe(|| {
                        sharded_campaign(p, runs, seed, threads, tr, scratch)
                    }));
                    tr.end(op);
                    let res = match res {
                        Ok(Ok(r)) => Ok(r),
                        Ok(Err(e)) => return Err(format!("{}: {e}", p.label)),
                        Err(panic) => Err(panic),
                    };
                    out.record(
                        &p.label,
                        runs as u64,
                        res.map(|r| {
                            let failed = r.count(InjOutcome::is_supervised_kill) as u64;
                            (runs as f64, failed, Digest::of_campaign(&r))
                        }),
                    );
                }
            }
        }
        Ok(out)
    }

    /// The warm-up identities: the layer-by-layer analysis equals
    /// `analyze`, compositional results equal monolithic ones (the whole
    /// `CrashMap`, since an input-data edit can leave the digest unchanged),
    /// and the merged sharded-WAL campaign equals the in-memory
    /// `Campaign::run`. `warm` holds the warm-up pass's digests.
    ///
    /// # Errors
    /// The first identity that does not hold, or a cache directory that
    /// cannot be created.
    pub fn check_identities(&self, warm: &Digests, scratch: &Path) -> Result<(), String> {
        let what = format!("{} identity", self.workload.name());
        let mut off = Tracer::new(false);
        let reference: Digests = match &self.plan {
            Plan::Analyze => self
                .programs
                .iter()
                .map(|p| (p.label.clone(), analyze_layered(p, &mut off).1))
                .collect(),
            Plan::Compose(steps) => {
                let dir = scratch.join("identity-cache");
                let mut cache = SectionCache::persistent(&dir)
                    .map_err(|e| format!("section cache {}: {e}", dir.display()))?;
                let mut reference = Vec::new();
                for &(label, _, i) in steps {
                    let p = &self.programs[i];
                    let trace = golden_trace(p, &mut off);
                    let config = EpvfConfig::default();
                    let mono = analyze(&p.module, &trace, config);
                    let composed = analyze_compositional(&p.module, &trace, config, &mut cache);
                    if composed.crash_map != mono.crash_map {
                        return Err(format!("{what}: {label}: compositional CrashMap differs"));
                    }
                    reference.push((label.to_string(), Digest::of_analysis(&mono)));
                }
                std::fs::remove_dir_all(&dir)
                    .map_err(|e| format!("removing {}: {e}", dir.display()))?;
                reference
            }
            &Plan::Inject {
                runs,
                seed,
                threads,
                ..
            } => self
                .programs
                .iter()
                .map(|p| {
                    let c = campaign(p, threads)?;
                    Ok((p.label.clone(), Digest::of_campaign(&c.run(runs, seed))))
                })
                .collect::<Result<_, String>>()?,
        };
        crate::gate::check_same(&what, &reference, warm)
    }

    /// Wall time of `Campaign::run_spec` on sampled specs of every program,
    /// in microseconds (inject-campaign only; empty otherwise).
    ///
    /// # Errors
    /// A campaign that cannot be prepared.
    pub fn replay_samples_us(&self) -> Result<Vec<f64>, String> {
        let &Plan::Inject {
            seed,
            replay_samples,
            ..
        } = &self.plan
        else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for p in &self.programs {
            let c = campaign(p, 1)?;
            for spec in c.draw_specs(replay_samples, seed ^ 0x5eed) {
                let t = Instant::now();
                std::hint::black_box(c.run_spec(spec));
                out.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        Ok(out)
    }
}

impl PassOut {
    /// Account for one op of `ops` operations that did `work` and had
    /// `failed` of them fail, or panicked.
    fn record(&mut self, label: &str, ops: u64, res: std::thread::Result<(f64, u64, Digest)>) {
        self.attempted += ops;
        match res {
            Ok((work, failed, d)) => {
                self.work += work;
                self.failed += failed;
                self.digests.push((label.to_string(), d));
            }
            Err(_) => {
                self.failed += ops;
                self.digests.push((label.to_string(), Digest::Panicked));
            }
        }
    }
}

fn golden_trace(p: &Program, tr: &mut Tracer) -> Trace {
    tr.leaf("interp.golden", || {
        let run = Interpreter::new(&p.module, ExecConfig::default())
            .golden_run(ENTRY, &p.args)
            .expect("benchmark program starts");
        assert_eq!(run.outcome, Outcome::Completed, "{}: golden run", p.label);
        run.trace.expect("golden runs are traced")
    })
}

/// `analyze`, one public call per layer.
fn analyze_layered(p: &Program, tr: &mut Tracer) -> (usize, Digest) {
    let config = EpvfConfig::default();
    let trace = golden_trace(p, tr);
    let t0 = Instant::now();
    let ddg = tr.leaf("ddg.build", || build_ddg(&p.module, &trace));
    let ace = tr.leaf("ddg.ace", || AceGraph::compute(&ddg, config.ace));
    let graph_time = t0.elapsed();
    let t1 = Instant::now();
    let crash_map = tr.leaf("core.propagate", || {
        propagate_scoped(&p.module, &trace, &ddg, &ace, config.crash, config.scope)
    });
    let model_time = t1.elapsed();
    let metrics = tr.leaf("core.metrics", || {
        compute_metrics(
            &p.module, &trace, &ddg, &ace, &crash_map, graph_time, model_time,
        )
    });
    let r = EpvfResult {
        ddg,
        ace,
        crash_map,
        metrics,
    };
    (trace.len(), Digest::of_analysis(&r))
}

fn campaign(p: &Program, threads: usize) -> Result<Campaign<'_>, String> {
    let config = CampaignConfig {
        threads,
        ..CampaignConfig::default()
    };
    Campaign::new(&p.module, ENTRY, &p.args, config).map_err(|e| format!("{}: {e}", p.label))
}

/// What `epvf shard` ×2 and `epvf merge` do for one campaign: each strided
/// slice runs into its own WAL, then the WALs are read back and merged.
fn sharded_campaign(
    p: &Program,
    runs: usize,
    seed: u64,
    threads: usize,
    tr: &mut Tracer,
    scratch: &Path,
) -> Result<CampaignResult, String> {
    let c = tr.leaf("llfi.prepare", || campaign(p, threads))?;
    let specs = c.draw_specs(runs, seed);
    let base = tr.leaf("llfi.wal", || {
        wal_fingerprint(&p.module.to_string(), ENTRY, &p.args, &specs)
    });
    let shards: Vec<ShardSpec> = (0..SHARDS)
        .map(|i| ShardSpec::new(i, SHARDS).expect("valid geometry"))
        .collect();
    let path = |s: ShardSpec| scratch.join(format!("{}-{}.wal", p.label, s.index()));
    let fp = |s: ShardSpec| wal_fingerprint_shard(base, s.index(), s.of());
    for &s in &shards {
        let sink = tr
            .leaf("llfi.wal", || WalSink::create(&path(s), fp(s)))
            .map_err(|e| format!("creating WAL: {e}"))?;
        let local: Vec<_> = s.indices(specs.len()).map(|g| specs[g]).collect();
        let session = RunSession {
            wal: Some(&sink),
            index_base: s.index(),
            index_stride: s.of(),
            quiet: true,
            ..RunSession::default()
        };
        tr.leaf("llfi.campaign", || c.run_specs_session(&local, &session));
        if let Some(e) = sink.take_error() {
            return Err(format!("writing WAL: {e}"));
        }
    }
    let mut merged = ShardOutcomes::empty();
    for &s in &shards {
        let (_sink, rec) = tr
            .leaf("llfi.wal", || WalSink::recover(&path(s), fp(s)))
            .map_err(|e| format!("recovering WAL: {e}"))?;
        if rec.torn > 0 {
            return Err(format!("shard {s}: {} torn WAL records", rec.torn));
        }
        merged = tr
            .leaf("llfi.merge", || {
                merged.merge(ShardOutcomes::from_recovered(&rec))
            })
            .map_err(|e| e.to_string())?;
    }
    let result = tr
        .leaf("llfi.merge", || merged.into_result(&specs))
        .map_err(|e| e.to_string())?;
    for &s in &shards {
        std::fs::remove_file(path(s)).map_err(|e| format!("removing WAL: {e}"))?;
    }
    Ok(result)
}
