//! The linked program container: the interface between the compiler on one
//! side and the simulator and WCET analyzer on the other.
//!
//! A [`Program`] carries the text section (instructions at consecutive word
//! addresses from `config.text_base`), initialized data, symbol tables for
//! functions and global variables, and the *annotation table* produced by the
//! compiler's pro-forma annotation mechanism (paper §3.4): for each source
//! `__builtin_annotation`, the format string and the final machine location of
//! every argument.

use std::collections::BTreeMap;
use std::fmt;

use crate::config::MachineConfig;
use crate::encode::{decode, encode, DecodeError};
use crate::inst::Inst;
use crate::reg::{Fpr, Gpr};

/// A function symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSym {
    /// Function name.
    pub name: String,
    /// Entry address.
    pub entry: u32,
    /// Size in instruction words.
    pub len_words: u32,
}

/// Element type of a global variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemTy {
    /// 32-bit signed integer.
    I32,
    /// 64-bit IEEE double.
    F64,
}

impl ElemTy {
    /// Size of one element in bytes.
    pub fn size(self) -> u32 {
        match self {
            ElemTy::I32 => 4,
            ElemTy::F64 => 8,
        }
    }
}

/// A global-variable symbol (scalar when `len == 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalSym {
    /// Variable name.
    pub name: String,
    /// Base address.
    pub addr: u32,
    /// Element type.
    pub elem: ElemTy,
    /// Number of elements.
    pub len: u32,
}

/// An initialized datum in the data section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataValue {
    /// A 32-bit word.
    I32(i32),
    /// A 64-bit double.
    F64(f64),
}

/// The final machine location of an annotation argument, as substituted into
/// the `%i` tokens of the format string (paper §3.4: "machine register, stack
/// slot or global symbol"). Memory locations carry the stored element type so
/// the value can be observed faithfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgLoc {
    /// A general-purpose register.
    Gpr(Gpr),
    /// A floating-point register.
    Fpr(Fpr),
    /// A stack slot at the given byte offset from the stack pointer.
    Stack(i16, ElemTy),
    /// A global memory location at the given absolute address.
    Global(u32, ElemTy),
}

impl fmt::Display for ArgLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgLoc::Gpr(r) => r.fmt(f),
            ArgLoc::Fpr(r) => r.fmt(f),
            ArgLoc::Stack(off, _) => write!(f, "sp[{off}]"),
            ArgLoc::Global(addr, _) => write!(f, "@{addr:#010x}"),
        }
    }
}

impl ArgLoc {
    /// The location as one lossless, whitespace-free token — the text form
    /// of the annotation file and of stored annotation tables: `r3`, `f1`,
    /// `sp-8i`, `@0x1000f`. A memory location ends in its element type
    /// (`i` or `f`). [`ArgLoc::from_token`] inverts it.
    #[must_use]
    pub fn token(&self) -> String {
        let ty = |e: &ElemTy| match e {
            ElemTy::I32 => 'i',
            ElemTy::F64 => 'f',
        };
        match self {
            ArgLoc::Gpr(r) => r.to_string(),
            ArgLoc::Fpr(r) => r.to_string(),
            ArgLoc::Stack(off, e) => format!("sp{off:+}{}", ty(e)),
            ArgLoc::Global(addr, e) => format!("@{addr:#x}{}", ty(e)),
        }
    }

    /// Parses a [`token`](ArgLoc::token). Any other text, whatever its
    /// bytes, is `None`: tokens may come from files on disk.
    #[must_use]
    pub fn from_token(s: &str) -> Option<ArgLoc> {
        fn typed(s: &str) -> Option<(&str, ElemTy)> {
            s.strip_suffix('i')
                .map(|n| (n, ElemTy::I32))
                .or_else(|| s.strip_suffix('f').map(|n| (n, ElemTy::F64)))
        }
        if let Some(rest) = s.strip_prefix("sp") {
            let (off, elem) = typed(rest)?;
            return Some(ArgLoc::Stack(off.parse().ok()?, elem));
        }
        if let Some(rest) = s.strip_prefix('@') {
            let (addr, elem) = typed(rest)?;
            let addr = u32::from_str_radix(addr.strip_prefix("0x")?, 16).ok()?;
            return Some(ArgLoc::Global(addr, elem));
        }
        if let Some(idx) = s.strip_prefix('r') {
            return Some(ArgLoc::Gpr(Gpr::try_new(idx.parse().ok()?)?));
        }
        let idx = s.strip_prefix('f')?;
        Some(ArgLoc::Fpr(Fpr::try_new(idx.parse().ok()?)?))
    }
}

/// One entry of the annotation table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotationEntry {
    /// The id carried by the corresponding `annot` marker instruction.
    pub id: u16,
    /// The format string, with `%1`, `%2`, … referring to `args`.
    pub format: String,
    /// Final locations of the arguments, in order.
    pub args: Vec<ArgLoc>,
}

impl AnnotationEntry {
    /// The format string with every `%i` token replaced by the final location
    /// of the i-th argument — the text the paper's scheme emits as an
    /// assembly comment (e.g. `0 <= r3 <= @32 < 360`).
    pub fn resolved_text(&self) -> String {
        let mut out = String::new();
        let mut chars = self.format.chars().peekable();
        while let Some(c) = chars.next() {
            if c == '%' {
                let mut num = String::new();
                while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                    num.push(chars.next().expect("peeked digit"));
                }
                match num.parse::<usize>() {
                    Ok(i) if i >= 1 && i <= self.args.len() => {
                        out.push_str(&self.args[i - 1].to_string());
                    }
                    _ => {
                        out.push('%');
                        out.push_str(&num);
                    }
                }
            } else {
                out.push(c);
            }
        }
        out
    }
}

/// A linked executable program.
#[derive(Debug, Clone)]
pub struct Program {
    /// The machine configuration the program was linked against.
    pub config: MachineConfig,
    /// Text section: instruction `i` lives at `config.text_base + 4 * i`.
    pub code: Vec<Inst>,
    /// Program entry point (address of the function to run).
    pub entry: u32,
    /// Function symbols, sorted by entry address.
    pub functions: Vec<FuncSym>,
    /// Global-variable symbols.
    pub globals: Vec<GlobalSym>,
    /// Initialized data: absolute address → value.
    pub data: BTreeMap<u32, DataValue>,
    /// Base address of the floating-point constant pool (the TOC register
    /// `r2` points here at startup).
    pub const_pool_base: u32,
    /// Base address for small-data-area addressing (`r13` points here).
    pub sda_base: u32,
    /// The annotation table, indexed by marker id.
    pub annotations: Vec<AnnotationEntry>,
}

impl Program {
    /// The address of the instruction at `index` in the text section.
    pub fn addr_of(&self, index: usize) -> u32 {
        self.config.text_base + 4 * index as u32
    }

    /// The instruction at byte address `addr`, if it lies in the text section.
    pub fn inst_at(&self, addr: u32) -> Option<&Inst> {
        if addr < self.config.text_base || !addr.is_multiple_of(4) {
            return None;
        }
        self.code.get(((addr - self.config.text_base) / 4) as usize)
    }

    /// Total text-section size in bytes.
    pub fn text_size(&self) -> u32 {
        4 * self.code.len() as u32
    }

    /// Encodes the text section to binary words.
    pub fn encode_text(&self) -> Vec<u32> {
        self.code
            .iter()
            .enumerate()
            .map(|(i, inst)| encode(inst, self.addr_of(i)))
            .collect()
    }

    /// Decodes binary words back into instructions (what the WCET analyzer
    /// does to reconstruct the program).
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] encountered.
    pub fn decode_text(config: &MachineConfig, words: &[u32]) -> Result<Vec<Inst>, DecodeError> {
        words
            .iter()
            .enumerate()
            .map(|(i, &w)| decode(w, config.text_base + 4 * i as u32))
            .collect()
    }

    /// The function symbol containing `addr`, if any.
    pub fn function_at(&self, addr: u32) -> Option<&FuncSym> {
        self.functions
            .iter()
            .find(|f| addr >= f.entry && addr < f.entry + 4 * f.len_words)
    }

    /// The function symbol with the given name, if any.
    pub fn function(&self, name: &str) -> Option<&FuncSym> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// The global symbol with the given name, if any.
    pub fn global(&self, name: &str) -> Option<&GlobalSym> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// The annotation entry for a marker id, if any.
    pub fn annotation(&self, id: u16) -> Option<&AnnotationEntry> {
        self.annotations.iter().find(|a| a.id == id)
    }

    /// A human-readable disassembly listing with function labels and
    /// annotation comments in the style the paper describes
    /// (`# annotation: 0 <= r3 <= @32 < 360`).
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (i, inst) in self.code.iter().enumerate() {
            let addr = self.addr_of(i);
            if let Some(f) = self.functions.iter().find(|f| f.entry == addr) {
                out.push_str(&format!("{}:\n", f.name));
            }
            if let Inst::Annot { id } = inst {
                if let Some(entry) = self.annotation(*id) {
                    out.push_str(&format!(
                        "{addr:#010x}:    # annotation: {}\n",
                        entry.resolved_text()
                    ));
                    continue;
                }
            }
            out.push_str(&format!("{addr:#010x}:    {inst}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::reg::Gpr;

    fn sample() -> Program {
        let config = MachineConfig::mpc755();
        let code = vec![Inst::li(Gpr::new(3), 1), Inst::Annot { id: 0 }, Inst::Blr];
        Program {
            entry: config.text_base,
            functions: vec![FuncSym {
                name: "f".into(),
                entry: config.text_base,
                len_words: 3,
            }],
            globals: vec![GlobalSym {
                name: "x".into(),
                addr: config.data_base,
                elem: ElemTy::I32,
                len: 1,
            }],
            data: BTreeMap::new(),
            const_pool_base: config.data_base + 0x1000,
            sda_base: config.data_base + 0x8000,
            annotations: vec![AnnotationEntry {
                id: 0,
                format: "0 <= %1 < 360".into(),
                args: vec![ArgLoc::Gpr(Gpr::new(3))],
            }],
            code,
            config,
        }
    }

    #[test]
    fn addressing() {
        let p = sample();
        assert_eq!(p.addr_of(0), p.config.text_base);
        assert_eq!(p.inst_at(p.config.text_base + 8), Some(&Inst::Blr));
        assert_eq!(p.inst_at(p.config.text_base + 2), None); // unaligned
        assert_eq!(p.text_size(), 12);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = sample();
        let words = p.encode_text();
        let back = Program::decode_text(&p.config, &words).unwrap();
        assert_eq!(back, p.code);
    }

    #[test]
    fn symbol_lookup() {
        let p = sample();
        assert_eq!(p.function("f").unwrap().entry, p.config.text_base);
        assert!(p.function("g").is_none());
        assert_eq!(p.function_at(p.config.text_base + 8).unwrap().name, "f");
        assert!(p.function_at(p.config.text_base + 12).is_none());
        assert_eq!(p.global("x").unwrap().elem, ElemTy::I32);
    }

    #[test]
    fn annotation_resolution() {
        let p = sample();
        assert_eq!(p.annotation(0).unwrap().resolved_text(), "0 <= r3 < 360");
        let listing = p.disassemble();
        assert!(listing.contains("# annotation: 0 <= r3 < 360"), "{listing}");
        assert!(listing.starts_with("f:\n"));
    }

    #[test]
    fn resolved_text_handles_malformed_tokens() {
        let e = AnnotationEntry {
            id: 1,
            format: "%1 and %9 and %".into(),
            args: vec![ArgLoc::Stack(32, ElemTy::I32)],
        };
        assert_eq!(e.resolved_text(), "sp[32] and %9 and %");
    }
}
