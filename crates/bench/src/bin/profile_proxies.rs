//! Diagnostic: per-proxy cache behaviour at the paper's Figure 1 cache
//! (8 KB two-way, L = 32, D = 4, β = 8) and at 32 KB for the
//! size-sensitivity the Example 1 case study relies on.
//!
//! Usage: `profile_proxies [instructions]` (a positive count, default
//! 150 000). A bad count exits with status 2 and a message.

use report::Table;
use simcache::CacheConfig;
use simcpu::{Cpu, CpuConfig, StallFeature};
use simmem::{BusWidth, MemoryTiming};
use simtrace::workload::{builtins, WorkloadSpec};

fn measure(program: &WorkloadSpec, cache_bytes: u64, instructions: usize) -> simcpu::SimResult {
    let cfg = CpuConfig::baseline(
        CacheConfig::new(cache_bytes, 32, 2).expect("valid cache"),
        MemoryTiming::new(BusWidth::new(4).expect("valid bus"), 8),
    )
    .with_stall(StallFeature::FullStall);
    Cpu::new(cfg).run(program.compile(0xDEAD_BEEF).take(instructions))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n = match args.as_slice() {
        [] => Some(150_000),
        [count] => count.parse::<usize>().ok().filter(|&n| n > 0),
        _ => None,
    };
    let Some(n) = n else {
        eprintln!(
            "profile_proxies: bad instruction count {:?}",
            args.join(" ")
        );
        eprintln!("usage: profile_proxies [instructions]");
        std::process::exit(2);
    };
    let mut t = Table::new([
        "program", "HR @8K", "HR @32K", "HR @128K", "α @8K", "mem frac",
    ]);
    for p in builtins() {
        let r8 = measure(p, 8 * 1024, n);
        let r32 = measure(p, 32 * 1024, n);
        let r128 = measure(p, 128 * 1024, n);
        t.row([
            p.to_string(),
            format!("{:.2}%", 100.0 * r8.dcache.hit_ratio()),
            format!("{:.2}%", 100.0 * r32.dcache.hit_ratio()),
            format!("{:.2}%", 100.0 * r128.dcache.hit_ratio()),
            format!("{:.3}", r8.alpha()),
            format!(
                "{:.3}",
                r8.dcache.accesses() as f64 / r8.instructions as f64
            ),
        ]);
    }
    println!("{}", t.render());
}
