//! Split instruction/data cache front end.
//!
//! The paper's processor model (Section 3.1, assumption 1) is a RISC core
//! with separate on-chip instruction and write-back data caches. This
//! wrapper routes instruction fetches to the I-cache and data references
//! to the D-cache and aggregates their statistics.

use crate::cache::{AccessOutcome, Cache};
use crate::config::CacheConfig;
use crate::stats::CacheStats;
use simtrace::{Instr, MemOp};

/// Per-instruction cache activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrOutcome {
    /// Outcome of the instruction fetch.
    pub fetch: AccessOutcome,
    /// Outcome of the data reference, if the instruction had one.
    pub data: Option<AccessOutcome>,
}

/// A split I/D cache pair.
#[derive(Debug, Clone)]
pub struct SplitCache {
    icache: Cache,
    dcache: Cache,
}

impl SplitCache {
    /// Creates a split cache from two configurations.
    pub fn new(icache_cfg: CacheConfig, dcache_cfg: CacheConfig) -> Self {
        SplitCache {
            icache: Cache::new(icache_cfg),
            dcache: Cache::new(dcache_cfg),
        }
    }

    /// Runs one instruction through both caches.
    pub fn step(&mut self, instr: &Instr) -> InstrOutcome {
        let fetch = self.icache.access(MemOp::Load, instr.pc);
        let data = instr.mem.map(|m| self.dcache.access(m.op, m.addr));
        InstrOutcome { fetch, data }
    }

    /// Runs a whole trace, returning the number of instructions executed.
    pub fn run(&mut self, trace: impl IntoIterator<Item = Instr>) -> u64 {
        let mut n = 0;
        for instr in trace {
            self.step(&instr);
            n += 1;
        }
        n
    }

    /// The instruction cache.
    pub fn icache(&self) -> &Cache {
        &self.icache
    }

    /// The data cache.
    pub fn dcache(&self) -> &Cache {
        &self.dcache
    }

    /// Combined statistics of both caches.
    pub fn combined_stats(&self) -> CacheStats {
        let mut s = *self.icache.stats();
        s.merge(self.dcache.stats());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtrace::MemRef;

    fn cfg(size: u64) -> CacheConfig {
        CacheConfig::new(size, 32, 2).expect("valid")
    }

    #[test]
    fn routes_fetches_and_data_separately() {
        let mut sc = SplitCache::new(cfg(1024), cfg(1024));
        let i = Instr::mem(0x40u64, MemRef::load(0x40u64, 4));
        // Same address, but I and D caches are independent: both miss.
        let out = sc.step(&i);
        assert!(!out.fetch.hit);
        assert!(!out.data.expect("has data ref").hit);
        assert_eq!(sc.icache().stats().misses(), 1);
        assert_eq!(sc.dcache().stats().misses(), 1);
    }

    #[test]
    fn plain_instruction_touches_only_icache() {
        let mut sc = SplitCache::new(cfg(1024), cfg(1024));
        let out = sc.step(&Instr::plain(0u64));
        assert!(out.data.is_none());
        assert_eq!(sc.dcache().stats().accesses(), 0);
        assert_eq!(sc.icache().stats().accesses(), 1);
    }

    #[test]
    fn sequential_code_has_high_icache_hit_ratio() {
        let mut sc = SplitCache::new(cfg(4096), cfg(4096));
        let trace: Vec<Instr> = (0..4096u64).map(|i| Instr::plain((i * 4) % 2048)).collect();
        let n = sc.run(trace);
        assert_eq!(n, 4096);
        assert!(
            sc.icache().stats().hit_ratio() > 0.95,
            "looping sequential code should mostly hit: {}",
            sc.icache().stats().hit_ratio()
        );
    }

    #[test]
    fn combined_stats_sum_both_caches() {
        let mut sc = SplitCache::new(cfg(1024), cfg(1024));
        sc.step(&Instr::mem(0u64, MemRef::store(0x200u64, 4)));
        let combined = sc.combined_stats();
        assert_eq!(combined.accesses(), 2);
        assert_eq!(combined.fills, 2);
    }
}
