//! Small construction helpers shared by the benchmark ports: counted loops
//! with loop-carried values, and deterministic input generation.

use epvf_ir::{FunctionBuilder, IcmpPred, Type, Value};

/// Build a counted `for i in lo..hi` loop with `carried` loop-carried
/// values. `body` receives the induction variable and the current carried
/// values, and returns the next-iteration carried values (same arity/order).
/// Returns the carried values as they stand when the loop exits. The
/// builder is positioned in the exit block afterwards.
///
/// The induction variable is a signed `i32`; the loop runs while `i < hi`.
///
/// # Panics
/// Panics if `body` returns a different number of values than `carried`.
pub fn for_range(
    f: &mut FunctionBuilder<'_>,
    lo: Value,
    hi: Value,
    carried: &[(Type, Value)],
    body: impl FnOnce(&mut FunctionBuilder<'_>, Value, &[Value]) -> Vec<Value>,
) -> Vec<Value> {
    let pre = f.current_block();
    let header = f.create_block("for.header");
    let body_bb = f.create_block("for.body");
    let exit = f.create_block("for.exit");
    f.br(header);
    f.switch_to(header);
    let i = f.phi(Type::I32, vec![(pre, lo)]);
    let vars: Vec<Value> = carried
        .iter()
        .map(|(ty, init)| f.phi(*ty, vec![(pre, *init)]))
        .collect();
    let cont = f.icmp(IcmpPred::Slt, Type::I32, i, hi);
    f.cond_br(cont, body_bb, exit);
    f.switch_to(body_bb);
    let next = body(f, i, &vars);
    assert_eq!(next.len(), vars.len(), "carried-value arity mismatch");
    let i2 = f.add(Type::I32, i, Value::i32(1));
    let backedge = f.current_block();
    f.add_incoming(i, backedge, i2);
    for (v, n) in vars.iter().zip(&next) {
        f.add_incoming(*v, backedge, *n);
    }
    f.br(header);
    f.switch_to(exit);
    vars
}

/// `for_range` without carried values.
pub fn for_simple(
    f: &mut FunctionBuilder<'_>,
    lo: i32,
    hi: Value,
    body: impl FnOnce(&mut FunctionBuilder<'_>, Value),
) {
    for_range(f, Value::i32(lo), hi, &[], |f, i, _| {
        body(f, i);
        vec![]
    });
}

/// Deterministic pseudo-random `f64` stream in `[0, 1)` (SplitMix64-based),
/// used both to initialize workload globals and by the Rust reference
/// implementations the tests compare against.
#[derive(Debug, Clone)]
pub struct InputStream(u64);

impl InputStream {
    /// Seeded stream.
    pub fn new(seed: u64) -> Self {
        InputStream(seed.wrapping_mul(2).wrapping_add(1))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Next integer in `[0, bound)`.
    pub fn next_below(&mut self, bound: u32) -> u32 {
        (self.next_u64() % u64::from(bound.max(1))) as u32
    }

    /// A vector of floats in `[lo, hi)`.
    pub fn f64s(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| lo + self.next_f64() * (hi - lo)).collect()
    }

    /// A vector of ints in `[0, bound)`.
    pub fn i32s(&mut self, n: usize, bound: u32) -> Vec<i32> {
        (0..n).map(|_| self.next_below(bound) as i32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epvf_interp::{ExecConfig, Interpreter};
    use epvf_ir::ModuleBuilder;

    #[test]
    fn for_range_accumulates_carried_values() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", vec![], None);
        // sum = Σ i, prod-ish = Σ 2i for i in 0..10
        let finals = for_range(
            &mut f,
            Value::i32(0),
            Value::i32(10),
            &[(Type::I32, Value::i32(0)), (Type::I32, Value::i32(0))],
            |f, i, vars| {
                let s = f.add(Type::I32, vars[0], i);
                let d = f.add(Type::I32, i, i);
                let t = f.add(Type::I32, vars[1], d);
                vec![s, t]
            },
        );
        f.output(Type::I32, finals[0]);
        f.output(Type::I32, finals[1]);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let r = Interpreter::new(&m, ExecConfig::default())
            .run("main", &[], None)
            .expect("runs");
        assert_eq!(r.outputs, vec![45, 90]);
    }

    #[test]
    fn nested_loops_compose() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", vec![], None);
        let finals = for_range(
            &mut f,
            Value::i32(0),
            Value::i32(4),
            &[(Type::I32, Value::i32(0))],
            |f, i, outer| {
                let inner = for_range(
                    f,
                    Value::i32(0),
                    Value::i32(3),
                    &[(Type::I32, outer[0])],
                    |f, j, acc| {
                        let p = f.mul(Type::I32, i, j);
                        vec![f.add(Type::I32, acc[0], p)]
                    },
                );
                vec![inner[0]]
            },
        );
        f.output(Type::I32, finals[0]);
        f.ret(None);
        f.finish();
        let m = mb.finish().expect("verifies");
        let r = Interpreter::new(&m, ExecConfig::default())
            .run("main", &[], None)
            .expect("runs");
        // Σ_{i<4} Σ_{j<3} i*j = (0+1+2+3)*(0+1+2) = 18
        assert_eq!(r.outputs, vec![18]);
    }

    #[test]
    fn input_stream_is_deterministic_and_bounded() {
        let mut a = InputStream::new(5);
        let mut b = InputStream::new(5);
        for _ in 0..100 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
        }
        let v = a.i32s(50, 10);
        assert!(v.iter().all(|x| (0..10).contains(x)));
        let f = a.f64s(50, -2.0, 3.0);
        assert!(f.iter().all(|x| (-2.0..3.0).contains(x)));
    }
}
