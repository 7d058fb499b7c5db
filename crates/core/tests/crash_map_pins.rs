//! The whole `CrashMap`, pinned by value. Every use and node constraint of
//! `analyze` on the bundled workloads at Tiny scale (under both crash
//! scopes), on the section-cache chain kernel, on a pointer-spill kernel
//! and on a hashed-index kernel is folded, in sorted key order, into one
//! FNV-1a/64 fingerprint per case.
//!
//! Except for the hashed-index kernel, the literals were computed by the
//! per-root propagation walk that the one-sweep engine replaced, so they
//! prove the two reach the same fixpoint bit for bit. The hashed-index
//! kernel (`fixtures/hash_index.ir`) feeds addresses through wrapping
//! multiplies, a `lshr` by 54, a `udiv` by 2^54, `sub`, `trunc`, `sext`,
//! `zext` and a negative `gep` index, with no `urem` to cut the slice. The
//! per-root walk's `lshr` row dropped the high bits of its upper end, and
//! its safety valve judged a wrapped multiply by the range at hand, so its
//! map there depended on the order in which roots narrowed a range; that
//! literal is the one-sweep engine's.

use epvf_core::{analyze, Constraint, CrashScope, EpvfConfig, EpvfResult};
use epvf_ddg::NodeId;
use epvf_interp::{ExecConfig, Interpreter};
use epvf_ir::{parse_module, Fnv64, IcmpPred, Module, ModuleBuilder, Type, Value};
use epvf_workloads::{extended_suite, Scale};

fn hash_constraint(h: &mut Fnv64, c: &Constraint) {
    h.u64(c.range.lo);
    h.u64(c.range.hi);
    h.u64(c.value);
    h.u32(c.width);
}

/// FNV-1a/64 over every use constraint in `(dyn_idx, slot)` order, then
/// every node constraint in node-id order, each list prefixed by its length.
fn fingerprint(r: &EpvfResult) -> u64 {
    let map = &r.crash_map;
    let mut uses: Vec<((u64, usize), Constraint)> = map.uses().map(|(k, &c)| (k, c)).collect();
    uses.sort_by_key(|&(k, _)| k);
    let mut h = Fnv64::new();
    h.u64(uses.len() as u64);
    for ((dyn_idx, slot), c) in &uses {
        h.u64(*dyn_idx);
        h.u64(*slot as u64);
        hash_constraint(&mut h, c);
    }
    h.u64(map.n_nodes() as u64);
    let mut seen = 0;
    for id in 0..r.ddg.len() as u32 {
        if let Some(c) = map.node_constraint(NodeId(id)) {
            h.u32(id);
            hash_constraint(&mut h, c);
            seen += 1;
        }
    }
    assert_eq!(seen, map.n_nodes(), "every constrained node is a DDG node");
    h.finish()
}

fn analyze_fp(module: &Module, args: &[u64], scope: CrashScope) -> u64 {
    let run = Interpreter::new(module, ExecConfig::default())
        .golden_run("main", args)
        .expect("golden run");
    let trace = run.trace.as_ref().expect("traced");
    let config = EpvfConfig {
        scope,
        ..EpvfConfig::default()
    };
    fingerprint(&analyze(module, trace, config))
}

/// The section-cache chain kernel: `loops` independent loop nests, each
/// storing `i * mults[k]` through `gep(buf_k, i)` for `trips` iterations.
fn chain_kernel(mults: &[i32], trips: i32) -> Module {
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
    mb.finish().expect("chain kernel verifies")
}

/// A loop that spills `n` pointers into a table, then a loop that reloads
/// each one and stores through it: every reloaded address constrains the
/// stored pointer through memory, the load-to-store path of Table III.
fn spill_kernel(n: i32) -> Module {
    let mut mb = ModuleBuilder::new("spill");
    let mut f = mb.function("main", vec![], None);
    let table = f.malloc(Value::i64(i64::from(n) * 8));
    let data = f.malloc(Value::i64(i64::from(n) * 4));
    let mut pred = f.current_block();
    for k in 0..2 {
        let header = f.create_block(format!("h{k}"));
        let body = f.create_block(format!("b{k}"));
        let next = f.create_block(format!("n{k}"));
        f.br(header);
        f.switch_to(header);
        let i = f.phi(Type::I32, vec![(pred, Value::i32(0))]);
        let c = f.icmp(IcmpPred::Slt, Type::I32, i, Value::i32(n));
        f.cond_br(c, body, next);
        f.switch_to(body);
        let cell = f.gep(table, i, 8);
        if k == 0 {
            let p = f.gep(data, i, 4);
            f.store(Type::Ptr, p, cell);
        } else {
            let p = f.load(Type::Ptr, cell);
            f.store(Type::I32, i, p);
            let v = f.load(Type::I32, p);
            f.output(Type::I32, v);
        }
        let i2 = f.add(Type::I32, i, Value::i32(1));
        f.add_incoming(i, body, i2);
        f.br(header);
        f.switch_to(next);
        pred = next;
    }
    f.ret(None);
    f.finish();
    mb.finish().expect("spill kernel verifies")
}

/// `(case, AceOnly fingerprint, AllAccesses fingerprint)`.
const PINS: &[(&str, u64, u64)] = &[
    ("lulesh", 0xeb24_fea5_930c_e016, 0xb154_9cb9_9602_0c38),
    (
        "particlefilter",
        0x6298_0e54_e757_2978,
        0xc890_47f8_e3bb_7610,
    ),
    ("srad", 0x2f3b_78fd_6d3b_d159, 0x2f3b_78fd_6d3b_d159),
    ("nw", 0x4728_d19d_f38b_605e, 0xd1bc_da8c_b744_92fa),
    ("hotspot", 0x8689_cb9f_cd24_3640, 0x8689_cb9f_cd24_3640),
    ("lavaMD", 0x9f49_a95e_d514_b0f0, 0x9f49_a95e_d514_b0f0),
    ("bfs", 0x90a0_4087_0f3e_c0c4, 0xfabf_2043_08e8_8ade),
    ("lud", 0x1513_e521_6810_2951, 0x1513_e521_6810_2951),
    ("pathfinder", 0x510f_aba7_e1a9_9041, 0x510f_aba7_e1a9_9041),
    ("mm", 0xf9c0_f6b8_d8ff_0b15, 0xf9c0_f6b8_d8ff_0b15),
    ("kmeans", 0xbf14_e8e0_dae2_da8a, 0x8fb7_1bd7_d587_4933),
    ("chain 2x40", 0x5bdb_9b47_7d27_b883, 0x5bdb_9b47_7d27_b883),
    ("spill 24", 0xe635_1e86_d6ab_9289, 0xe635_1e86_d6ab_9289),
    ("hash_index", 0xdc1d_f627_f569_635e, 0xdc1d_f627_f569_635e),
];

#[test]
fn crash_maps_match_the_per_root_walk() {
    let mut cases: Vec<(String, Module, Vec<u64>)> = extended_suite(Scale::Tiny)
        .into_iter()
        .map(|w| (w.name.to_string(), w.module, w.args))
        .collect();
    cases.push((
        "chain 2x40".to_string(),
        chain_kernel(&[3, 5], 40),
        Vec::new(),
    ));
    cases.push(("spill 24".to_string(), spill_kernel(24), Vec::new()));
    cases.push((
        "hash_index".to_string(),
        parse_module(include_str!("fixtures/hash_index.ir")).expect("fixture parses"),
        Vec::new(),
    ));
    let got: Vec<(String, u64, u64)> = cases
        .iter()
        .map(|(name, m, args)| {
            (
                name.clone(),
                analyze_fp(m, args, CrashScope::AceOnly),
                analyze_fp(m, args, CrashScope::AllAccesses),
            )
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(n, a, b)| format!("    ({n:?}, {a:#018x}, {b:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, u64, u64)> = PINS
        .iter()
        .map(|&(n, a, b)| (n.to_string(), a, b))
        .collect();
    assert_eq!(got, pinned, "observed pins:\n{table}");
}
