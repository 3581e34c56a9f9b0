//! Control-flow reconstruction from the binary, dominators and natural
//! loops — the analyzer's first phase ("decoding / CFG reconstruction" in
//! the aiT pipeline).
//!
//! The analyzer deliberately starts from the *encoded words*: the program's
//! text section is re-encoded and decoded here, so analysis results are
//! statements about the binary, not about compiler IR.

use std::collections::{BTreeMap, BTreeSet};

use vericomp_arch::inst::{ControlFlow, Inst};
use vericomp_arch::program::Program;

use crate::AnalysisError;

/// A reconstructed basic block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Address of the first instruction.
    pub start: u32,
    /// Decoded instructions (including the terminating branch, if any).
    pub insts: Vec<Inst>,
    /// Successor block start addresses (within the function).
    pub succs: Vec<u32>,
    /// Callees invoked by `bl` instructions in this block, in order.
    pub calls: Vec<String>,
    /// Whether the block ends the function (`blr`).
    pub is_return: bool,
}

/// A natural loop.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// Header block address.
    pub header: u32,
    /// All blocks of the loop (header included).
    pub blocks: BTreeSet<u32>,
    /// Sources of back edges (latches).
    pub latches: BTreeSet<u32>,
    /// Blocks inside the loop with a successor outside it.
    pub exits: BTreeSet<u32>,
}

/// The reconstructed control-flow graph of one function.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Function name.
    pub name: String,
    /// Entry address.
    pub entry: u32,
    /// Blocks by start address.
    pub blocks: BTreeMap<u32, Block>,
    /// Natural loops, innermost last (sorted by increasing block count).
    pub loops: Vec<NaturalLoop>,
    /// Reverse post-order from the entry, computed once at reconstruction
    /// (every analysis phase iterates it).
    rpo: Vec<u32>,
    /// RPO position of each reachable block address.
    index_of: BTreeMap<u32, u32>,
    /// Successor RPO positions of each block, indexed by RPO position.
    succ_idx: Vec<Vec<u32>>,
}

impl Cfg {
    /// Predecessor map.
    pub fn predecessors(&self) -> BTreeMap<u32, Vec<u32>> {
        let mut preds: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (&a, b) in &self.blocks {
            for &s in &b.succs {
                preds.entry(s).or_default().push(a);
            }
        }
        preds
    }

    /// Reverse post-order of block addresses from the entry.
    pub fn rpo(&self) -> &[u32] {
        &self.rpo
    }

    /// RPO position of each reachable block address.
    pub fn index_of(&self) -> &BTreeMap<u32, u32> {
        &self.index_of
    }

    /// Successor RPO positions of each block, indexed by RPO position.
    /// Shared by every fixpoint phase so the dense tables are built once.
    pub fn succ_idx(&self) -> &[Vec<u32>] {
        &self.succ_idx
    }
}

/// Reconstructs the CFG of the named function from the program's encoded
/// binary.
///
/// # Errors
///
/// [`AnalysisError`] on unknown functions, decode failures, control flow
/// leaving the function, or irreducible loops.
pub fn reconstruct(program: &Program, func: &str) -> Result<Cfg, AnalysisError> {
    let words = program.encode_text();
    reconstruct_with_words(program, func, &words)
}

/// Like [`reconstruct`], but decoding from a caller-provided encoding of the
/// program text. The session analyzer encodes once per request and
/// reconstructs every function from the same words, instead of re-encoding
/// the whole program per function.
pub fn reconstruct_with_words(
    program: &Program,
    func: &str,
    words: &[u32],
) -> Result<Cfg, AnalysisError> {
    let sym = program
        .function(func)
        .ok_or_else(|| AnalysisError::UnknownFunction(func.to_owned()))?;
    let lo = sym.entry;
    let hi = sym.entry + 4 * sym.len_words;

    // Decode each word of the function exactly once.
    let base = ((lo - program.config.text_base) / 4) as usize;
    let mut decoded = Vec::with_capacity(sym.len_words as usize);
    for i in 0..sym.len_words as usize {
        let addr = lo + 4 * i as u32;
        decoded.push(
            vericomp_arch::encode::decode(words[base + i], addr).map_err(AnalysisError::Decode)?,
        );
    }
    let decode_at = |addr: u32| -> &Inst { &decoded[((addr - lo) / 4) as usize] };

    // Pass 1: leaders.
    let mut leaders: BTreeSet<u32> = BTreeSet::new();
    leaders.insert(lo);
    let mut addr = lo;
    while addr < hi {
        let inst = decode_at(addr);
        match inst.control_flow() {
            ControlFlow::Jump(t) => {
                in_range(t, lo, hi, addr)?;
                leaders.insert(t);
                if addr + 4 < hi {
                    leaders.insert(addr + 4);
                }
            }
            ControlFlow::CondBranch(t) => {
                in_range(t, lo, hi, addr)?;
                leaders.insert(t);
                if addr + 4 < hi {
                    leaders.insert(addr + 4);
                }
            }
            ControlFlow::Return => {
                if addr + 4 < hi {
                    leaders.insert(addr + 4);
                }
            }
            ControlFlow::Call(_) | ControlFlow::Fallthrough => {}
        }
        addr += 4;
    }

    // Pass 2: blocks, built in ascending leader order so every later
    // table can address them by ordinal (binary search on the sorted
    // leader list) instead of through tree lookups.
    let leader_list: Vec<u32> = leaders.iter().copied().collect();
    let nblocks = leader_list.len();
    let ord_of = |addr: u32| -> usize { leader_list.binary_search(&addr).expect("is a leader") };
    let mut blocks_vec: Vec<Block> = Vec::with_capacity(nblocks);
    for (i, &start) in leader_list.iter().enumerate() {
        let end = leader_list.get(i + 1).copied().unwrap_or(hi);
        let mut insts = Vec::with_capacity(((end - start) / 4) as usize);
        let mut calls = Vec::new();
        let mut succs = Vec::new();
        let mut is_return = false;
        let mut a = start;
        while a < end {
            let inst = *decode_at(a);
            match inst.control_flow() {
                ControlFlow::Call(t) => {
                    let callee = program
                        .function_at(t)
                        .filter(|f| f.entry == t)
                        .ok_or(AnalysisError::CallOutsideText { at: a, target: t })?;
                    calls.push(callee.name.clone());
                }
                ControlFlow::Jump(t) => {
                    succs.push(t);
                }
                ControlFlow::CondBranch(t) => {
                    succs.push(t); // taken first
                    if a + 4 < hi {
                        succs.push(a + 4);
                    }
                }
                ControlFlow::Return => is_return = true,
                ControlFlow::Fallthrough => {}
            }
            insts.push(inst);
            a += 4;
        }
        let last_cf = insts.last().map(Inst::control_flow);
        if matches!(
            last_cf,
            Some(ControlFlow::Fallthrough) | Some(ControlFlow::Call(_)) | None
        ) && end < hi
        {
            succs.push(end);
        }
        blocks_vec.push(Block {
            start,
            insts,
            succs,
            calls,
            is_return,
        });
    }

    // Depth-first post-order over block ordinals; identical traversal (and
    // so identical RPO) to a walk over the address-keyed map, since the
    // ordinal order is the ascending address order.
    let mut visited = vec![false; nblocks];
    let mut post: Vec<u32> = Vec::with_capacity(nblocks);
    let mut stack: Vec<(u32, u32)> = vec![(0, 0)];
    visited[0] = true; // the entry is the lowest leader
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        let succs = &blocks_vec[b as usize].succs;
        if (*i as usize) < succs.len() {
            let so = ord_of(succs[*i as usize]) as u32;
            *i += 1;
            if !visited[so as usize] {
                visited[so as usize] = true;
                stack.push((so, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    let ord_rpo: Vec<u32> = post.into_iter().rev().collect();
    let rpo: Vec<u32> = ord_rpo.iter().map(|&o| leader_list[o as usize]).collect();
    let mut rpo_of_ord = vec![u32::MAX; nblocks];
    for (ri, &o) in ord_rpo.iter().enumerate() {
        rpo_of_ord[o as usize] = ri as u32;
    }
    let index_of: BTreeMap<u32, u32> = rpo
        .iter()
        .enumerate()
        .map(|(i, &b)| (b, i as u32))
        .collect();
    let succ_idx: Vec<Vec<u32>> = ord_rpo
        .iter()
        .map(|&o| {
            blocks_vec[o as usize]
                .succs
                .iter()
                .map(|&s| rpo_of_ord[ord_of(s)])
                .collect()
        })
        .collect();
    let blocks: BTreeMap<u32, Block> = leader_list.iter().copied().zip(blocks_vec).collect();
    let mut cfg = Cfg {
        name: func.to_owned(),
        entry: lo,
        rpo,
        index_of,
        succ_idx,
        blocks,
        loops: Vec::new(),
    };
    cfg.loops = find_loops(&cfg)?;
    Ok(cfg)
}

fn in_range(t: u32, lo: u32, hi: u32, at: u32) -> Result<(), AnalysisError> {
    if t < lo || t >= hi {
        return Err(AnalysisError::BranchOutsideFunction { at, target: t });
    }
    Ok(())
}

/// Per-function index tables: RPO position per reachable block, and the
/// reachable predecessors of each reachable block (ascending address, the
/// order [`Cfg::predecessors`] produces).
struct Indexed {
    pred_off: Vec<u32>,
    pred_dat: Vec<u32>,
}

impl Indexed {
    fn preds(&self, b: usize) -> &[u32] {
        &self.pred_dat[self.pred_off[b] as usize..self.pred_off[b + 1] as usize]
    }
}

fn index_cfg(cfg: &Cfg) -> Indexed {
    let n = cfg.rpo().len();
    let mut pred_off = vec![0u32; n + 1];
    for succs in cfg.succ_idx() {
        for &si in succs {
            pred_off[si as usize + 1] += 1;
        }
    }
    for i in 0..n {
        pred_off[i + 1] += pred_off[i];
    }
    let mut cursor = pred_off.clone();
    let mut pred_dat = vec![0u32; pred_off[n] as usize];
    // iterate predecessors in ascending address order (unreachable blocks
    // never gain a dominator, so skipping them changes nothing)
    for &ai in cfg.index_of().values() {
        for &si in &cfg.succ_idx()[ai as usize] {
            let c = &mut cursor[si as usize];
            pred_dat[*c as usize] = ai;
            *c += 1;
        }
    }
    Indexed { pred_off, pred_dat }
}

/// Index-based immediate dominators (Cooper–Harvey–Kennedy); entry maps to
/// itself, unreachable blocks are absent.
fn dominators_idx(ix: &Indexed, n: usize) -> Vec<u32> {
    let mut idom: Vec<Option<u32>> = vec![None; n];
    idom[0] = Some(0);
    let mut changed = true;
    while changed {
        changed = false;
        for b in 1..n {
            let mut new_idom: Option<u32> = None;
            for &p in ix.preds(b) {
                if idom[p as usize].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(p, cur, &idom),
                });
            }
            if let Some(ni) = new_idom {
                if idom[b] != Some(ni) {
                    idom[b] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    idom.into_iter().map(|d| d.unwrap_or(0)).collect()
}

/// Computes immediate dominators (Cooper–Harvey–Kennedy).
pub fn dominators(cfg: &Cfg) -> BTreeMap<u32, u32> {
    let rpo = cfg.rpo();
    let ix = index_cfg(cfg);
    let idom = dominators_idx(&ix, rpo.len());
    rpo.iter()
        .enumerate()
        .map(|(i, &b)| (b, rpo[idom[i] as usize]))
        .collect()
}

/// RPO indices make the walk-up comparison direct: a block's dominator
/// always precedes it in RPO.
fn intersect(mut a: u32, mut b: u32, idom: &[Option<u32>]) -> u32 {
    while a != b {
        while a > b {
            a = idom[a as usize].expect("processed earlier in RPO");
        }
        while b > a {
            b = idom[b as usize].expect("processed earlier in RPO");
        }
    }
    a
}

/// Whether RPO index `a` dominates index `b`.
fn dominates_idx(a: u32, mut b: u32, idom: &[u32]) -> bool {
    loop {
        if a == b {
            return true;
        }
        if b == 0 {
            return false;
        }
        b = idom[b as usize];
    }
}

fn find_loops(cfg: &Cfg) -> Result<Vec<NaturalLoop>, AnalysisError> {
    let rpo = cfg.rpo();
    let n = rpo.len();
    let ix = index_cfg(cfg);
    let idom = dominators_idx(&ix, n);
    // Loops keyed by header ordinal: body membership bitmap + latch ordinals.
    let mut found: Vec<(u32, Vec<bool>, Vec<u32>)> = Vec::new();
    let mut loop_of_header: BTreeMap<u32, usize> = BTreeMap::new();
    let mut stack: Vec<u32> = Vec::new();

    for bi in 0..n as u32 {
        for &si in &cfg.succ_idx()[bi as usize] {
            // back edge b -> s?
            if dominates_idx(si, bi, &idom) {
                let li = *loop_of_header.entry(si).or_insert_with(|| {
                    let mut body = vec![false; n];
                    body[si as usize] = true;
                    found.push((si, body, Vec::new()));
                    found.len() - 1
                });
                let (_, body, latches) = &mut found[li];
                latches.push(bi);
                // natural loop body: reverse reachability from latch to header
                stack.push(bi);
                while let Some(x) = stack.pop() {
                    if body[x as usize] {
                        continue;
                    }
                    body[x as usize] = true;
                    stack.extend_from_slice(ix.preds(x as usize));
                }
            } else if si <= bi {
                // a retreating edge whose target does not dominate the
                // source: irreducible region
                return Err(AnalysisError::IrreducibleLoop {
                    at: rpo[si as usize],
                });
            }
        }
    }

    // Header-address order first so the final size sort (stable) breaks ties
    // the same way the address-keyed map used to.
    found.sort_by_key(|&(hi, _, _)| rpo[hi as usize]);
    let mut result: Vec<NaturalLoop> = found
        .into_iter()
        .map(|(hi, body, latches)| {
            let mut exits = BTreeSet::new();
            for i in 0..n {
                if body[i] && cfg.succ_idx()[i].iter().any(|&s| !body[s as usize]) {
                    exits.insert(rpo[i]);
                }
            }
            NaturalLoop {
                header: rpo[hi as usize],
                blocks: (0..n).filter(|&i| body[i]).map(|i| rpo[i]).collect(),
                latches: latches.iter().map(|&l| rpo[l as usize]).collect(),
                exits,
            }
        })
        .collect();
    // sort outermost (largest) first
    result.sort_by_key(|l| std::cmp::Reverse(l.blocks.len()));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;
    use vericomp_arch::inst::{Cond, Inst as M};
    use vericomp_arch::program::FuncSym;
    use vericomp_arch::reg::{Cr, Gpr};
    use vericomp_arch::MachineConfig;

    fn g(i: u8) -> Gpr {
        Gpr::new(i)
    }

    fn program(code: Vec<M>) -> Program {
        let config = MachineConfig::mpc755();
        let len_words = code.len() as u32;
        Program {
            entry: config.text_base,
            functions: vec![FuncSym {
                name: "f".into(),
                entry: config.text_base,
                len_words,
            }],
            globals: vec![],
            data: Map::new(),
            const_pool_base: config.data_base,
            sda_base: config.data_base,
            annotations: vec![],
            code,
            config,
        }
    }

    #[test]
    fn straight_line_single_block() {
        let p = program(vec![M::li(g(3), 1), M::li(g(4), 2), M::Blr]);
        let cfg = reconstruct(&p, "f").unwrap();
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.blocks[&cfg.entry].is_return);
        assert!(cfg.loops.is_empty());
    }

    #[test]
    fn diamond_reconstructed() {
        let base = MachineConfig::mpc755().text_base;
        let p = program(vec![
            /* 0 */
            M::Cmpwi {
                cr: Cr::CR0,
                ra: g(3),
                imm: 0,
            },
            /* 4 */
            M::Bc {
                cond: Cond::Lt,
                cr: Cr::CR0,
                target: base + 16,
            },
            /* 8 */ M::li(g(4), 1),
            /* 12 */ M::B { target: base + 20 },
            /* 16 */ M::li(g(4), 2),
            /* 20 */ M::Blr,
        ]);
        let cfg = reconstruct(&p, "f").unwrap();
        assert_eq!(cfg.blocks.len(), 4);
        let entry = &cfg.blocks[&base];
        assert_eq!(entry.succs, vec![base + 16, base + 8]);
        assert!(cfg.loops.is_empty());
        let idom = dominators(&cfg);
        assert_eq!(idom[&(base + 20)], base);
    }

    #[test]
    fn loop_detected_with_latch_and_exit() {
        let base = MachineConfig::mpc755().text_base;
        let p = program(vec![
            /* 0  */ M::li(g(4), 0),
            /* 4 head */
            M::Cmpwi {
                cr: Cr::CR0,
                ra: g(4),
                imm: 10,
            },
            /* 8  */
            M::Bc {
                cond: Cond::Ge,
                cr: Cr::CR0,
                target: base + 24,
            },
            /* 12 body */
            M::Addi {
                rd: g(4),
                ra: g(4),
                imm: 1,
            },
            /* 16 */ M::B { target: base + 4 },
            /* 20 dead */ M::Nop,
            /* 24 exit */ M::Blr,
        ]);
        let cfg = reconstruct(&p, "f").unwrap();
        assert_eq!(cfg.loops.len(), 1);
        let l = &cfg.loops[0];
        assert_eq!(l.header, base + 4);
        assert!(l.blocks.contains(&(base + 12)));
        assert!(!l.blocks.contains(&(base + 24)));
        assert_eq!(l.latches, BTreeSet::from([base + 12]));
        assert_eq!(l.exits, BTreeSet::from([base + 4]));
    }

    #[test]
    fn calls_recorded_not_block_ending() {
        let base = MachineConfig::mpc755().text_base;
        let config = MachineConfig::mpc755();
        let code = vec![
            /* 0 */ M::Bl { target: base + 12 },
            /* 4 */ M::li(g(3), 1),
            /* 8 */ M::Blr,
            /* 12 g */ M::Blr,
        ];
        let p = Program {
            entry: base,
            functions: vec![
                FuncSym {
                    name: "f".into(),
                    entry: base,
                    len_words: 3,
                },
                FuncSym {
                    name: "g".into(),
                    entry: base + 12,
                    len_words: 1,
                },
            ],
            globals: vec![],
            data: Map::new(),
            const_pool_base: config.data_base,
            sda_base: config.data_base,
            annotations: vec![],
            code,
            config,
        };
        let cfg = reconstruct(&p, "f").unwrap();
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[&base].calls, vec!["g".to_owned()]);
    }

    #[test]
    fn branch_outside_function_rejected() {
        let base = MachineConfig::mpc755().text_base;
        let p = program(vec![
            M::B {
                target: base + 0x1000,
            },
            M::Blr,
        ]);
        assert!(matches!(
            reconstruct(&p, "f"),
            Err(AnalysisError::BranchOutsideFunction { .. })
        ));
    }

    #[test]
    fn rpo_starts_at_entry() {
        let base = MachineConfig::mpc755().text_base;
        let p = program(vec![
            M::Cmpwi {
                cr: Cr::CR0,
                ra: g(3),
                imm: 0,
            },
            M::Bc {
                cond: Cond::Eq,
                cr: Cr::CR0,
                target: base + 12,
            },
            M::Blr,
            M::Blr,
        ]);
        let cfg = reconstruct(&p, "f").unwrap();
        let rpo = cfg.rpo();
        assert_eq!(rpo[0], base);
        assert_eq!(rpo.len(), 3);
    }
}
