//! Property-based IR program generator.
//!
//! Programs are generated as *recipes* — flat lists of [`GenOp`] genes —
//! that expand through [`epvf_ir::ModuleBuilder`] into well-typed modules
//! whose golden runs complete **by construction**: every value reference is
//! taken modulo the live value pool, every load/store index is wrapped
//! `urem`-style into its buffer, divisors are forced odd, shift amounts are
//! masked below the width, and the only back edges are constant-bounded
//! loops. Total emission is what makes shrinking trivial: *any* subsequence
//! of genes is again a valid program, so the shrinker just deletes genes
//! while the failure persists.
//!
//! The gene set deliberately covers the shapes the crash/propagation models
//! care about: arithmetic chains (Table III rows 1–5), GEP address
//! computation over heap buffers (row 6), trunc/ext casts (row 7), branch
//! diamonds (control-flow masking), and phi-carrying loops (the paper's
//! loop-guard masking case).

use epvf_ir::{IcmpPred, Module, ModuleBuilder, Type, Value};
use rand::Rng;
use std::fmt;
use std::str::FromStr;

/// Elements per generated heap buffer.
pub const BUF_LEN: u64 = 8;
/// Heap buffers every generated program allocates.
pub const N_BUFS: usize = 2;

/// One gene. All indices are interpreted modulo the relevant pool size at
/// emission time, so every combination is valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenOp {
    /// Push a constant-derived register (`c | 1` via arithmetic).
    Const(u64),
    /// Binary op: `kind % 9` selects add/sub/mul/and/or/xor/shl/lshr/udiv.
    Bin {
        /// Operation selector.
        kind: u8,
        /// Left operand (pool index).
        a: u16,
        /// Right operand (pool index).
        b: u16,
    },
    /// Truncate to i32 and widen back (`kind % 2`: zext or sext).
    Cast {
        /// Widening selector.
        kind: u8,
        /// Operand (pool index).
        v: u16,
    },
    /// Load from `buf[pool[idx] % BUF_LEN]`.
    Load {
        /// Buffer selector (mod [`N_BUFS`]).
        buf: u8,
        /// Index value (pool index).
        idx: u16,
    },
    /// Store `pool[val]` to `buf[pool[idx] % BUF_LEN]`.
    Store {
        /// Buffer selector (mod [`N_BUFS`]).
        buf: u8,
        /// Index value (pool index).
        idx: u16,
        /// Stored value (pool index).
        val: u16,
    },
    /// A real branch diamond merged by a phi.
    Diamond {
        /// Condition source (pool index; branch on its parity).
        cond: u16,
        /// Then-arm operand (pool index).
        a: u16,
        /// Else-arm operand (pool index).
        b: u16,
    },
    /// A constant-bounded loop summing buffer elements through phis.
    Loop {
        /// Buffer selector (mod [`N_BUFS`]).
        buf: u8,
        /// Iteration count (`1 + iters % 4`).
        iters: u8,
    },
    /// Emit `pool[v]` through an `output` instruction (an ACE root).
    Output(u16),
}

/// Generation limits.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Maximum genes per recipe.
    pub max_ops: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { max_ops: 24 }
    }
}

/// A generated program in genome form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Recipe {
    /// The genes, emitted in order.
    pub ops: Vec<GenOp>,
}

impl Recipe {
    /// Draw a random recipe.
    pub fn random<R: Rng>(rng: &mut R, config: &GenConfig) -> Recipe {
        let n = rng.gen_range(1..=config.max_ops.max(1));
        let ops = (0..n).map(|_| random_op(rng)).collect();
        Recipe { ops }
    }

    /// Expand the genome into a verified module with entry `main` (no
    /// arguments).
    ///
    /// # Panics
    /// Panics if the emitted module fails verification — by construction
    /// that is a generator bug, and the property tests treat it as one.
    pub fn emit(&self) -> Module {
        let mut mb = ModuleBuilder::new("generated");
        let mut f = mb.function("main", vec![], None);
        // Fixed prelude: two register seeds and the heap buffers, with one
        // slot of each buffer initialised so loads see non-trivial data.
        let s0 = f.add(Type::I64, Value::i64(5), Value::i64(12));
        let s1 = f.mul(Type::I64, s0, Value::i64(3));
        let mut pool = vec![s0, s1];
        let size = Value::i64(8 * BUF_LEN as i64);
        let bufs: Vec<Value> = (0..N_BUFS)
            .map(|i| {
                let b = f.malloc(size);
                let slot = f.gep(b, Value::i64(i as i64), 8);
                f.store(Type::I64, Value::i64(41 + i as i64), slot);
                b
            })
            .collect();
        for op in &self.ops {
            let pick = |i: u16| pool[i as usize % pool.len()];
            match *op {
                GenOp::Const(c) => {
                    let v = f.or(Type::I64, Value::i64(c as i64), Value::i64(1));
                    pool.push(v);
                }
                GenOp::Bin { kind, a, b } => {
                    let (va, vb) = (pick(a), pick(b));
                    let v = match kind % 9 {
                        0 => f.add(Type::I64, va, vb),
                        1 => f.sub(Type::I64, va, vb),
                        2 => f.mul(Type::I64, va, vb),
                        3 => f.and(Type::I64, va, vb),
                        4 => f.or(Type::I64, va, vb),
                        5 => f.xor(Type::I64, va, vb),
                        6 => {
                            let amt = f.and(Type::I64, vb, Value::i64(7));
                            f.shl(Type::I64, va, amt)
                        }
                        7 => {
                            let amt = f.and(Type::I64, vb, Value::i64(7));
                            f.lshr(Type::I64, va, amt)
                        }
                        _ => {
                            let div = f.or(Type::I64, vb, Value::i64(1));
                            f.udiv(Type::I64, va, div)
                        }
                    };
                    pool.push(v);
                }
                GenOp::Cast { kind, v } => {
                    let narrow = f.trunc(Type::I64, Type::I32, pick(v));
                    let wide = if kind % 2 == 0 {
                        f.zext(Type::I32, Type::I64, narrow)
                    } else {
                        f.sext(Type::I32, Type::I64, narrow)
                    };
                    pool.push(wide);
                }
                GenOp::Load { buf, idx } => {
                    let w = f.urem(Type::I64, pick(idx), Value::i64(BUF_LEN as i64));
                    let addr = f.gep(bufs[buf as usize % N_BUFS], w, 8);
                    let v = f.load(Type::I64, addr);
                    pool.push(v);
                }
                GenOp::Store { buf, idx, val } => {
                    let w = f.urem(Type::I64, pick(idx), Value::i64(BUF_LEN as i64));
                    let addr = f.gep(bufs[buf as usize % N_BUFS], w, 8);
                    f.store(Type::I64, pick(val), addr);
                }
                GenOp::Diamond { cond, a, b } => {
                    let parity = f.and(Type::I64, pick(cond), Value::i64(1));
                    let c = f.icmp(IcmpPred::Eq, Type::I64, parity, Value::i64(1));
                    let (va, vb) = (pick(a), pick(b));
                    let tb = f.create_block("then");
                    let eb = f.create_block("else");
                    let join = f.create_block("join");
                    f.cond_br(c, tb, eb);
                    f.switch_to(tb);
                    let tv = f.add(Type::I64, va, Value::i64(5));
                    f.br(join);
                    f.switch_to(eb);
                    let ev = f.xor(Type::I64, vb, Value::i64(3));
                    f.br(join);
                    f.switch_to(join);
                    let merged = f.phi(Type::I64, vec![(tb, tv), (eb, ev)]);
                    pool.push(merged);
                }
                GenOp::Loop { buf, iters } => {
                    let n = i64::from(1 + iters % 4);
                    let base = bufs[buf as usize % N_BUFS];
                    let pre = f.current_block();
                    let header = f.create_block("head");
                    let body = f.create_block("body");
                    let exit = f.create_block("exit");
                    f.br(header);
                    f.switch_to(header);
                    let i = f.phi(Type::I64, vec![(pre, Value::i64(0))]);
                    let acc = f.phi(Type::I64, vec![(pre, Value::i64(0))]);
                    let c = f.icmp(IcmpPred::Slt, Type::I64, i, Value::i64(n));
                    f.cond_br(c, body, exit);
                    f.switch_to(body);
                    let w = f.urem(Type::I64, i, Value::i64(BUF_LEN as i64));
                    let addr = f.gep(base, w, 8);
                    let lv = f.load(Type::I64, addr);
                    let acc2 = f.add(Type::I64, acc, lv);
                    let i2 = f.add(Type::I64, i, Value::i64(1));
                    f.add_incoming(i, body, i2);
                    f.add_incoming(acc, body, acc2);
                    f.br(header);
                    f.switch_to(exit);
                    pool.push(acc);
                }
                GenOp::Output(v) => {
                    f.output(Type::I64, pick(v));
                }
            }
        }
        // Every program observes its last value, so the ACE analysis always
        // has at least one root.
        let last = *pool.last().expect("pool starts non-empty");
        f.output(Type::I64, last);
        f.ret(None);
        f.finish();
        mb.finish().expect("generated module verifies")
    }

    /// Shrink to a locally minimal failing recipe: repeatedly delete genes
    /// (and zero constants) while `fails` keeps returning `true`.
    pub fn shrink(&self, mut fails: impl FnMut(&Recipe) -> bool) -> Recipe {
        let mut cur = self.clone();
        loop {
            let mut improved = false;
            let mut i = cur.ops.len();
            while i > 0 {
                i -= 1;
                let mut cand = cur.clone();
                cand.ops.remove(i);
                if !cand.ops.is_empty() && fails(&cand) {
                    cur = cand;
                    improved = true;
                }
            }
            for i in 0..cur.ops.len() {
                if let GenOp::Const(c) = cur.ops[i] {
                    if c != 0 {
                        let mut cand = cur.clone();
                        cand.ops[i] = GenOp::Const(0);
                        if fails(&cand) {
                            cur = cand;
                            improved = true;
                        }
                    }
                }
            }
            if !improved {
                return cur;
            }
        }
    }
}

fn random_op<R: Rng>(rng: &mut R) -> GenOp {
    match rng.gen_range(0..100u32) {
        0..=9 => GenOp::Const(rng.gen_range(0..1u64 << 40)),
        10..=34 => GenOp::Bin {
            kind: rng.gen_range(0..9) as u8,
            a: rng.gen_range(0..256) as u16,
            b: rng.gen_range(0..256) as u16,
        },
        35..=42 => GenOp::Cast {
            kind: rng.gen_range(0..2) as u8,
            v: rng.gen_range(0..256) as u16,
        },
        43..=60 => GenOp::Load {
            buf: rng.gen_range(0..N_BUFS as u32) as u8,
            idx: rng.gen_range(0..256) as u16,
        },
        61..=76 => GenOp::Store {
            buf: rng.gen_range(0..N_BUFS as u32) as u8,
            idx: rng.gen_range(0..256) as u16,
            val: rng.gen_range(0..256) as u16,
        },
        77..=86 => GenOp::Diamond {
            cond: rng.gen_range(0..256) as u16,
            a: rng.gen_range(0..256) as u16,
            b: rng.gen_range(0..256) as u16,
        },
        87..=92 => GenOp::Loop {
            buf: rng.gen_range(0..N_BUFS as u32) as u8,
            iters: rng.gen_range(0..8) as u8,
        },
        _ => GenOp::Output(rng.gen_range(0..256) as u16),
    }
}

// ---- regression-corpus text form -------------------------------------
//
// One recipe per line, genes space-separated:
//   C:<v>  B:<k>:<a>:<b>  X:<k>:<v>  L:<buf>:<idx>  S:<buf>:<idx>:<val>
//   D:<c>:<a>:<b>  P:<buf>:<iters>  O:<v>
// The vendored proptest stub has no failure persistence, so the corpus
// format (and its replay) is owned here.

impl fmt::Display for GenOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GenOp::Const(v) => write!(f, "C:{v}"),
            GenOp::Bin { kind, a, b } => write!(f, "B:{kind}:{a}:{b}"),
            GenOp::Cast { kind, v } => write!(f, "X:{kind}:{v}"),
            GenOp::Load { buf, idx } => write!(f, "L:{buf}:{idx}"),
            GenOp::Store { buf, idx, val } => write!(f, "S:{buf}:{idx}:{val}"),
            GenOp::Diamond { cond, a, b } => write!(f, "D:{cond}:{a}:{b}"),
            GenOp::Loop { buf, iters } => write!(f, "P:{buf}:{iters}"),
            GenOp::Output(v) => write!(f, "O:{v}"),
        }
    }
}

impl fmt::Display for Recipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

impl FromStr for GenOp {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut p = s.split(':');
        let tag = p.next().ok_or_else(|| format!("empty gene in `{s}`"))?;
        let mut num = |what: &str| -> Result<u64, String> {
            p.next()
                .ok_or_else(|| format!("gene `{s}`: missing {what}"))?
                .parse::<u64>()
                .map_err(|e| format!("gene `{s}`: bad {what}: {e}"))
        };
        let op = match tag {
            "C" => GenOp::Const(num("value")?),
            "B" => GenOp::Bin {
                kind: num("kind")? as u8,
                a: num("a")? as u16,
                b: num("b")? as u16,
            },
            "X" => GenOp::Cast {
                kind: num("kind")? as u8,
                v: num("v")? as u16,
            },
            "L" => GenOp::Load {
                buf: num("buf")? as u8,
                idx: num("idx")? as u16,
            },
            "S" => GenOp::Store {
                buf: num("buf")? as u8,
                idx: num("idx")? as u16,
                val: num("val")? as u16,
            },
            "D" => GenOp::Diamond {
                cond: num("cond")? as u16,
                a: num("a")? as u16,
                b: num("b")? as u16,
            },
            "P" => GenOp::Loop {
                buf: num("buf")? as u8,
                iters: num("iters")? as u8,
            },
            "O" => GenOp::Output(num("v")? as u16),
            other => return Err(format!("unknown gene tag `{other}`")),
        };
        Ok(op)
    }
}

impl FromStr for Recipe {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let ops = s
            .split_whitespace()
            .map(GenOp::from_str)
            .collect::<Result<Vec<_>, _>>()?;
        if ops.is_empty() {
            return Err("empty recipe".into());
        }
        Ok(Recipe { ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epvf_interp::{ExecConfig, Interpreter, Outcome};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_random_recipe_emits_a_completing_program() {
        let mut rng = StdRng::seed_from_u64(0xE9F4);
        for _ in 0..60 {
            let r = Recipe::random(&mut rng, &GenConfig::default());
            let m = r.emit();
            let run = Interpreter::new(&m, ExecConfig::default())
                .run("main", &[], None)
                .expect("entry valid");
            assert_eq!(run.outcome, Outcome::Completed, "recipe `{r}`");
            assert!(!run.outputs.is_empty(), "always at least the final output");
        }
    }

    #[test]
    fn recipe_text_roundtrips() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let r = Recipe::random(&mut rng, &GenConfig::default());
            let text = r.to_string();
            let back: Recipe = text.parse().expect("parses");
            assert_eq!(back, r, "`{text}`");
        }
        assert!("Z:1".parse::<Recipe>().is_err());
        assert!("".parse::<Recipe>().is_err());
    }

    #[test]
    fn shrink_finds_a_minimal_failing_subset() {
        // Synthetic failure: "fails" iff the recipe still contains a Store
        // gene. The shrinker must reduce to exactly one gene.
        let mut rng = StdRng::seed_from_u64(5);
        let mut r = Recipe::random(&mut rng, &GenConfig { max_ops: 20 });
        r.ops.push(GenOp::Store {
            buf: 0,
            idx: 3,
            val: 4,
        });
        let fails = |c: &Recipe| c.ops.iter().any(|o| matches!(o, GenOp::Store { .. }));
        let min = r.shrink(fails);
        assert_eq!(min.ops.len(), 1, "shrunk to `{min}`");
        assert!(matches!(min.ops[0], GenOp::Store { .. }));
    }
}
