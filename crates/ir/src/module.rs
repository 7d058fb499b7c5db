//! Modules, functions, basic blocks, and globals.

use crate::inst::{Inst, Op};
use crate::types::Type;
use crate::value::{BlockId, FuncId, GlobalId, StaticInstId, ValueId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A global variable: a named, fixed-size byte region placed in the simulated
/// data segment before execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Global {
    /// Symbolic name (for printing only).
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Required alignment in bytes (power of two).
    pub align: u64,
    /// Initial contents; zero-padded to `size` if shorter.
    pub init: Vec<u8>,
}

/// A basic block: a straight-line run of instructions ending in a terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// This block's id within its function.
    pub id: BlockId,
    /// Optional label for printing.
    pub name: String,
    /// Instructions, the last of which must be a terminator in a verified
    /// function.
    pub insts: Vec<Inst>,
}

impl Block {
    /// The terminator instruction, if the block is non-empty and well-formed.
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last().filter(|i| i.op.is_terminator())
    }

    /// Successor block ids of this block's terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self.terminator().map(|i| &i.op) {
            Some(Op::Br { target }) => vec![*target],
            Some(Op::CondBr {
                then_bb, else_bb, ..
            }) => vec![*then_bb, *else_bb],
            _ => vec![],
        }
    }
}

/// A function: parameters, a register type table, and basic blocks.
///
/// Every virtual register (parameter or instruction result) has an entry in
/// [`Function::value_types`], indexed by [`ValueId`]. The first
/// `params` entries belong to the parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// This function's id within the module.
    pub id: FuncId,
    /// Symbolic name.
    pub name: String,
    /// Number of parameters; their ids are `0..n_params`.
    pub n_params: u32,
    /// Return type, if any.
    pub ret_ty: Option<Type>,
    /// Type of every virtual register, indexed by [`ValueId`].
    pub value_types: Vec<Type>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Type of a virtual register.
    ///
    /// # Panics
    /// Panics if `v` is not a register of this function.
    pub fn type_of(&self, v: ValueId) -> Type {
        self.value_types[v.index()]
    }

    /// Iterate over all instructions in block order.
    pub fn insts(&self) -> impl Iterator<Item = &Inst> {
        self.blocks.iter().flat_map(|b| b.insts.iter())
    }

    /// The entry block.
    ///
    /// # Panics
    /// Panics if the function has no blocks (unfinished builder output).
    pub fn entry(&self) -> &Block {
        &self.blocks[0]
    }

    /// Number of virtual registers (parameters included).
    pub fn n_values(&self) -> u32 {
        self.value_types.len() as u32
    }
}

/// A whole program: functions plus globals. Function 0 need not be the entry
/// point; the interpreter is told which function to run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Module {
    /// Module name (for printing).
    pub name: String,
    /// All functions.
    pub functions: Vec<Function>,
    /// All globals.
    pub globals: Vec<Global>,
    /// Total number of static instructions (static ids are `0..n`).
    pub n_static_insts: u32,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Look up a function by id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Look up a global by id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// Find the static instruction with the given id, with its owner
    /// function and block.
    pub fn find_inst(&self, sid: StaticInstId) -> Option<(&Function, &Block, &Inst)> {
        for f in &self.functions {
            for b in &f.blocks {
                for i in &b.insts {
                    if i.sid == sid {
                        return Some((f, b, i));
                    }
                }
            }
        }
        None
    }

    /// Total static instruction count across all functions.
    pub fn static_inst_count(&self) -> usize {
        self.functions.iter().map(|f| f.insts().count()).sum()
    }
}

/// Static instruction id → instruction: the table the trace consumers
/// (DDG build, propagation, bit census) look each record's instruction up
/// in, instead of scanning the module per record like
/// [`Module::find_inst`].
#[derive(Debug)]
pub struct InstIndex<'m> {
    by_sid: Vec<Option<&'m Inst>>,
}

impl<'m> InstIndex<'m> {
    /// Index every instruction of `module` by its static id.
    pub fn new(module: &'m Module) -> Self {
        let mut by_sid: Vec<Option<&'m Inst>> = vec![None; module.n_static_insts as usize];
        for f in &module.functions {
            for inst in f.insts() {
                if inst.sid.index() >= by_sid.len() {
                    by_sid.resize(inst.sid.index() + 1, None);
                }
                by_sid[inst.sid.index()] = Some(inst);
            }
        }
        InstIndex { by_sid }
    }

    /// The instruction with static id `sid`.
    ///
    /// # Panics
    /// Panics if the module has no such instruction: the trace being read
    /// belongs to another module.
    pub fn get(&self, sid: StaticInstId) -> &'m Inst {
        self.by_sid
            .get(sid.index())
            .copied()
            .flatten()
            .expect("trace references instruction missing from module")
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; module {}", self.name)?;
        for (i, g) in self.globals.iter().enumerate() {
            write!(
                f,
                "@g{i} = global \"{}\" [{} x i8], align {}",
                g.name, g.size, g.align
            )?;
            if g.init.iter().any(|b| *b != 0) {
                write!(f, ", init \"")?;
                for b in &g.init {
                    write!(f, "{b:02x}")?;
                }
                write!(f, "\"")?;
            }
            writeln!(f)?;
        }
        for func in &self.functions {
            let ret = func
                .ret_ty
                .map(|t| t.to_string())
                .unwrap_or_else(|| "void".to_string());
            write!(f, "\ndefine {ret} @{}(", func.name)?;
            for p in 0..func.n_params {
                if p > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{} %{p}", func.value_types[p as usize])?;
            }
            writeln!(f, ") {{")?;
            for b in &func.blocks {
                writeln!(f, "{}:  ; {}", b.id, b.name)?;
                for i in &b.insts {
                    writeln!(f, "  {i}")?;
                }
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::value::Value;

    #[test]
    fn block_successors() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.function("f", vec![], Some(Type::I32));
        let bb1 = fb.create_block("next");
        fb.br(bb1);
        fb.switch_to(bb1);
        fb.ret(Some(Value::i32(0)));
        fb.finish();
        let m = mb.finish().expect("verifies");
        let f = &m.functions[0];
        assert_eq!(f.blocks[0].successors(), vec![bb1]);
        assert!(f.blocks[1].successors().is_empty());
    }

    #[test]
    fn find_inst_by_static_id() {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.function("f", vec![Type::I32], Some(Type::I32));
        let p = fb.param(0);
        let s = fb.add(Type::I32, p, Value::i32(1));
        fb.ret(Some(s));
        fb.finish();
        let m = mb.finish().expect("verifies");
        let (func, _, inst) = m.find_inst(StaticInstId(0)).expect("first inst");
        assert_eq!(func.name, "f");
        assert_eq!(inst.op.mnemonic(), "add");
        assert!(m.find_inst(StaticInstId(999)).is_none());
        assert_eq!(m.static_inst_count(), 2);
        assert_eq!(m.n_static_insts, 2);
    }

    #[test]
    fn display_is_nonempty_and_contains_name() {
        let mut mb = ModuleBuilder::new("hello");
        let mut fb = mb.function("main", vec![], None);
        fb.ret(None);
        fb.finish();
        let m = mb.finish().expect("verifies");
        let s = m.to_string();
        assert!(s.contains("module hello"));
        assert!(s.contains("define void @main"));
        assert!(s.contains("ret void"));
    }
}
