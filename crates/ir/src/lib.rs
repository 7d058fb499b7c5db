//! # epvf-ir — a mini LLVM-like IR
//!
//! This crate defines the typed, SSA-form intermediate representation that
//! the rest of the ePVF reproduction operates on. It plays the role LLVM IR
//! plays in the paper *"ePVF: An Enhanced Program Vulnerability Factor
//! Methodology for Cross-layer Resilience Analysis"* (DSN 2016): an
//! architecture-neutral program representation whose **virtual registers**
//! are the resource whose vulnerability is measured.
//!
//! The instruction set deliberately mirrors the subset the paper's analysis
//! reasons about — integer/float arithmetic, the address-computation chain
//! (`getelementptr`, casts), memory accesses, and control flow — plus the
//! math intrinsics the Rodinia-style workloads need.
//!
//! ## Quick start
//!
//! ```
//! use epvf_ir::{IcmpPred, ModuleBuilder, Type, Value};
//!
//! // i32 clamp0(i32 x) { return x < 0 ? 0 : x; }
//! let mut mb = ModuleBuilder::new("example");
//! let mut f = mb.function("clamp0", vec![Type::I32], Some(Type::I32));
//! let x = f.param(0);
//! let neg = f.icmp(IcmpPred::Slt, Type::I32, x, Value::i32(0));
//! let r = f.select(Type::I32, neg, Value::i32(0), x);
//! f.ret(Some(r));
//! f.finish();
//!
//! let module = mb.finish()?;
//! println!("{module}");
//! # Ok::<(), epvf_ir::VerifyError>(())
//! ```

#![warn(missing_docs)]

mod builder;
mod fnv;
mod inst;
mod module;
mod parse;
mod section;
mod types;
mod value;
pub mod verify;

pub use builder::{FunctionBuilder, ModuleBuilder};
pub use fnv::{fnv1a32, Fnv64};
pub use inst::{BinOp, CastOp, FBinOp, FUnOp, FcmpPred, IcmpPred, Inst, Op};
pub use module::{Block, Function, Global, InstIndex, Module};
pub use parse::{parse_module, ParseError};
pub use section::{Section, SectionKind, SectionMap};
pub use types::Type;
pub use value::{BlockId, FuncId, GlobalId, StaticInstId, Value, ValueId};
pub use verify::{verify_module, VerifyError};
