//! Machine configuration shared by the compiler, the simulator and the WCET
//! analyzer: memory map, cache geometry and instruction latencies.
//!
//! Defaults model the MPC755 setup of the paper: 32 KiB, 8-way, 32-byte-line
//! L1 instruction and data caches, an external RAM with a multi-decade-cycle
//! line fill, and a slow uncached memory-mapped I/O region for hardware signal
//! acquisitions.

use crate::inst::Inst;

/// Geometry of one level-1 cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (lines per set).
    pub ways: u32,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// The line-aligned tag of an address (line index within the whole
    /// address space).
    pub fn line_of(&self, addr: u32) -> u32 {
        addr / self.line_bytes
    }

    /// The set an address maps to.
    pub fn set_of(&self, addr: u32) -> u32 {
        self.line_of(addr) % self.sets()
    }
}

/// The complete machine model configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// L1 instruction cache geometry.
    pub icache: CacheConfig,
    /// L1 data cache geometry.
    pub dcache: CacheConfig,
    /// Cycles to fill a cache line from external memory on a demand data
    /// miss (critical word needed before dependents can proceed).
    pub mem_latency: u32,
    /// Effective dispatch stall of an instruction-cache miss. Smaller than
    /// `mem_latency`: code fetch is a sequential burst and the MPC755
    /// streams instructions as the line fills.
    pub fetch_latency: u32,
    /// Cycles for one access to the uncached memory-mapped I/O region
    /// (hardware signal acquisition).
    pub io_latency: u32,

    /// Base address of the text (code) section.
    pub text_base: u32,
    /// Base address of the data section (globals, then constant pool).
    pub data_base: u32,
    /// Initial stack pointer (stack grows towards lower addresses).
    pub stack_top: u32,
    /// Base address of the memory-mapped I/O region.
    pub io_base: u32,
    /// Size in bytes of the memory-mapped I/O region.
    pub io_size: u32,

    /// Result latency of simple integer instructions.
    pub lat_int: u32,
    /// Result latency of integer multiply.
    pub lat_mul: u32,
    /// Result latency of integer divide (blocking).
    pub lat_div: u32,
    /// Result latency of pipelined FP add/sub/mul/compare.
    pub lat_fp: u32,
    /// Result latency of fused multiply-add.
    pub lat_fmadd: u32,
    /// Result latency of FP divide (blocking).
    pub lat_fdiv: u32,
    /// Result latency of FP register moves / negate / abs.
    pub lat_fmove: u32,
    /// Result latency of int↔float conversion (blocking).
    pub lat_conv: u32,
    /// Result latency of a load that hits in the data cache.
    pub lat_load: u32,
    /// Extra dispatch bubble after a taken branch.
    pub branch_penalty: u32,
}

/// Every field of the machine model, in digest order: the one list that
/// [`MachineConfig::fields`] reads and [`MachineConfig::from_fields`]
/// writes. The artifact store's machine digest, the compile service's
/// wire encoding and the WCET analyzer's fact keys all go through it.
const FIELDS: [fn(&mut MachineConfig) -> &mut u32; MachineConfig::FIELD_COUNT] = [
    |m| &mut m.icache.size_bytes,
    |m| &mut m.icache.ways,
    |m| &mut m.icache.line_bytes,
    |m| &mut m.dcache.size_bytes,
    |m| &mut m.dcache.ways,
    |m| &mut m.dcache.line_bytes,
    |m| &mut m.mem_latency,
    |m| &mut m.fetch_latency,
    |m| &mut m.io_latency,
    |m| &mut m.text_base,
    |m| &mut m.data_base,
    |m| &mut m.stack_top,
    |m| &mut m.io_base,
    |m| &mut m.io_size,
    |m| &mut m.lat_int,
    |m| &mut m.lat_mul,
    |m| &mut m.lat_div,
    |m| &mut m.lat_fp,
    |m| &mut m.lat_fmadd,
    |m| &mut m.lat_fdiv,
    |m| &mut m.lat_fmove,
    |m| &mut m.lat_conv,
    |m| &mut m.lat_load,
    |m| &mut m.branch_penalty,
];

impl MachineConfig {
    /// Number of `u32` fields in a machine model.
    pub const FIELD_COUNT: usize = 24;

    /// Every field, in digest order.
    pub fn fields(&self) -> [u32; MachineConfig::FIELD_COUNT] {
        let mut m = self.clone();
        FIELDS.map(|field| *field(&mut m))
    }

    /// The machine model with these fields, in [`fields`](Self::fields)
    /// order.
    pub fn from_fields(values: [u32; MachineConfig::FIELD_COUNT]) -> MachineConfig {
        let mut m = MachineConfig::mpc755();
        for (field, value) in FIELDS.iter().zip(values) {
            *field(&mut m) = value;
        }
        m
    }

    /// The MPC755-like default configuration used throughout the experiments.
    pub fn mpc755() -> Self {
        MachineConfig {
            icache: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 32,
            },
            dcache: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 32,
            },
            mem_latency: 30,
            fetch_latency: 8,
            io_latency: 250,
            text_base: 0x0010_0000,
            data_base: 0x1000_0000,
            stack_top: 0x2000_0000,
            io_base: 0xF000_0000,
            io_size: 0x1000,
            lat_int: 1,
            lat_mul: 3,
            lat_div: 19,
            lat_fp: 3,
            lat_fmadd: 4,
            lat_fdiv: 18,
            lat_fmove: 2,
            lat_conv: 4,
            lat_load: 2,
            branch_penalty: 1,
        }
    }

    /// A tiny-cache variant used by tests that want to observe capacity
    /// evictions without generating large programs.
    pub fn tiny_caches() -> Self {
        MachineConfig {
            icache: CacheConfig {
                size_bytes: 512,
                ways: 2,
                line_bytes: 32,
            },
            dcache: CacheConfig {
                size_bytes: 512,
                ways: 2,
                line_bytes: 32,
            },
            ..Self::mpc755()
        }
    }

    /// Whether `addr` falls in the uncached memory-mapped I/O region.
    pub fn is_io(&self, addr: u32) -> bool {
        addr >= self.io_base && addr - self.io_base < self.io_size
    }

    /// Result latency of an instruction (excluding cache effects).
    pub fn result_latency(&self, inst: &Inst) -> u32 {
        use Inst::*;
        match inst {
            Mulli { .. } | Mullw { .. } => self.lat_mul,
            Divw { .. } | Divwu { .. } => self.lat_div,
            Fadd { .. } | Fsub { .. } | Fmul { .. } | Fcmpu { .. } => self.lat_fp,
            Fmadd { .. } => self.lat_fmadd,
            Fdiv { .. } => self.lat_fdiv,
            Fneg { .. } | Fabs { .. } | Fmr { .. } => self.lat_fmove,
            Itof { .. } | Ftoi { .. } => self.lat_conv,
            Lwz { .. } | Lwzx { .. } | Lfd { .. } | Lfdx { .. } => self.lat_load,
            Stw { .. } | Stwu { .. } | Stwx { .. } | Stfd { .. } | Stfdx { .. } => 1,
            _ => self.lat_int,
        }
    }

    /// Whether the instruction occupies its unit until its result is ready
    /// (non-pipelined execution: divides and conversions).
    pub fn is_blocking(&self, inst: &Inst) -> bool {
        matches!(
            inst,
            Inst::Divw { .. }
                | Inst::Divwu { .. }
                | Inst::Fdiv { .. }
                | Inst::Itof { .. }
                | Inst::Ftoi { .. }
        )
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::mpc755()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{Fpr, Gpr};

    #[test]
    fn cache_geometry() {
        let c = MachineConfig::mpc755().icache;
        assert_eq!(c.sets(), 128);
        assert_eq!(c.line_of(0x40), 2);
        assert_eq!(c.set_of(0x40), 2);
        // addresses one cache-size apart map to the same set
        assert_eq!(c.set_of(0x1000), c.set_of(0x1000 + 128 * 32));
    }

    #[test]
    fn field_table_covers_every_field_once() {
        // distinct values survive a round trip only if no two entries of
        // the table alias one field
        let values: [u32; MachineConfig::FIELD_COUNT] = std::array::from_fn(|i| i as u32 + 1);
        assert_eq!(MachineConfig::from_fields(values).fields(), values);
    }

    #[test]
    fn io_region() {
        let cfg = MachineConfig::mpc755();
        assert!(cfg.is_io(0xF000_0000));
        assert!(cfg.is_io(0xF000_0FFF));
        assert!(!cfg.is_io(0xF000_1000));
        assert!(!cfg.is_io(0x1000_0000));
    }

    #[test]
    fn latencies_by_class() {
        let cfg = MachineConfig::mpc755();
        let fdiv = Inst::Fdiv {
            fd: Fpr::new(1),
            fa: Fpr::new(2),
            fb: Fpr::new(3),
        };
        assert_eq!(cfg.result_latency(&fdiv), cfg.lat_fdiv);
        assert!(cfg.is_blocking(&fdiv));
        let add = Inst::Add {
            rd: Gpr::new(3),
            ra: Gpr::new(4),
            rb: Gpr::new(5),
        };
        assert_eq!(cfg.result_latency(&add), 1);
        assert!(!cfg.is_blocking(&add));
    }
}
