//! Criterion benchmarks of the simulation and analytic kernels.
//!
//! These time the machinery behind the experiments (trace generation,
//! cache simulation, CPU timing, the analytic sweeps), making the
//! harness double as a performance regression suite.

use bench::tracestore;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use simcache::{Cache, CacheConfig, SectorCache, SectorConfig, VictimCache};
use simcpu::{Cpu, CpuConfig, L2Config, MissTimeline, Prefetch, StallFeature};
use simmem::{BusWidth, MemoryTiming};
use simtrace::encode::TraceBuffer;
use simtrace::gen::{PatternTrace, TraceShape, ZipfWorkingSet};
use simtrace::workload::{builtin, builtins};
use simtrace::Instr;
use smithval::{validate_all_panels, DesignTargetModel};
use tradeoff::api::SimulateQuery;
use tradeoff::equiv::traded_hit_ratio;
use tradeoff::{HitRatio, Machine, SystemConfig};

const N: usize = 50_000;

fn trace_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_generation");
    g.throughput(Throughput::Elements(N as u64));
    for name in ["nasa7", "doduc"] {
        let p = builtin(name).unwrap();
        g.bench_function(name, |b| {
            b.iter(|| p.compile(1).take(N).map(|i| i.pc.raw()).sum::<u64>())
        });
    }
    g.finish();
}

fn cache_simulation(c: &mut Criterion) {
    let trace: Vec<Instr> = builtin("swm256").unwrap().compile(2).take(N).collect();
    let mut g = c.benchmark_group("cache_simulation");
    g.throughput(Throughput::Elements(N as u64));
    for (name, cfg) in [
        ("8K_2way_lru", CacheConfig::new(8 * 1024, 32, 2).unwrap()),
        ("64K_4way_lru", CacheConfig::new(64 * 1024, 32, 4).unwrap()),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || Cache::new(cfg),
                |mut cache| {
                    for i in &trace {
                        if let Some(m) = i.mem {
                            cache.access(m.op, m.addr);
                        }
                    }
                    cache.stats().hits()
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn cpu_simulation(c: &mut Criterion) {
    let trace: Vec<Instr> = builtin("wave5").unwrap().compile(3).take(N).collect();
    let mut g = c.benchmark_group("cpu_simulation");
    g.throughput(Throughput::Elements(N as u64));
    for stall in [StallFeature::FullStall, StallFeature::BusNotLocked3] {
        g.bench_function(stall.to_string(), |b| {
            b.iter_batched(
                || {
                    Cpu::new(
                        CpuConfig::baseline(
                            CacheConfig::new(8 * 1024, 32, 2).unwrap(),
                            MemoryTiming::new(BusWidth::new(4).unwrap(), 8),
                        )
                        .with_stall(stall),
                    )
                },
                |cpu| cpu.run(trace.iter().copied()).cycles,
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// Timeline replay per stalling feature over the hot `simulate` mix: the
/// six built-ins at 50 000 instructions under the query's default cache
/// and seed, × β_m {4, 8, 12, 16} × bus {4, 8, 16} bytes. Consecutive
/// replays go to different timelines, as a query stream's do; the time
/// is per replay. NB (4 MSHRs, as the query serves it) walks the most
/// echoes per replay.
fn timeline_replay(c: &mut Criterion) {
    let query = SimulateQuery::default();
    let cache = CacheConfig::new(query.cache, query.line, 2).unwrap();
    let timelines: Vec<_> = builtins()
        .iter()
        .map(|p| tracestore::workload_timeline(p, query.seed, N, &cache))
        .collect();
    let mut g = c.benchmark_group("replay");
    for stall in [
        StallFeature::FullStall,
        StallFeature::BusLocked,
        StallFeature::BusNotLocked1,
        StallFeature::BusNotLocked2,
        StallFeature::BusNotLocked3,
        StallFeature::NonBlocking { mshrs: 4 },
    ] {
        let mut points: Vec<(&MissTimeline, CpuConfig)> = Vec::new();
        for beta in [4u64, 8, 12, 16] {
            for bus in [4u64, 8, 16] {
                let timing = MemoryTiming::new(BusWidth::new(bus).unwrap(), beta);
                for tl in &timelines {
                    points.push((tl, CpuConfig::baseline(cache, timing).with_stall(stall)));
                }
            }
        }
        g.bench_function(stall.name(), |b| {
            let mut next = points.iter().cycle();
            b.iter(|| {
                let (tl, cfg) = next.next().unwrap();
                tl.replay(cfg).cycles
            })
        });
    }
    g.finish();
}

fn analytic_kernels(c: &mut Criterion) {
    let base = SystemConfig::full_stalling(0.5);
    let doubled = base.with_bus_factor(2.0);
    let hr = HitRatio::new(0.95).unwrap();
    c.bench_function("traded_hit_ratio_sweep_1k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 1..=1000 {
                let m = Machine::new(4.0, 32.0, 2.0 + i as f64 * 0.05).unwrap();
                acc += traded_hit_ratio(&m, &base, &doubled, hr).unwrap();
            }
            acc
        })
    });
    c.bench_function("fig6_validation", |b| {
        let model = DesignTargetModel::default();
        b.iter(|| validate_all_panels(&model).unwrap().len())
    });
}

fn alternative_organisations(c: &mut Criterion) {
    let trace: Vec<Instr> = builtin("doduc").unwrap().compile(4).take(N).collect();
    let mut g = c.benchmark_group("alternative_organisations");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("sector_64_8", |b| {
        b.iter_batched(
            || SectorCache::new(SectorConfig::new(8 * 1024, 64, 8, 2).unwrap()),
            |mut cache| {
                for i in &trace {
                    if let Some(m) = i.mem {
                        cache.access(m.op, m.addr);
                    }
                }
                cache.stats().hits()
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("victim_dm_plus_4", |b| {
        b.iter_batched(
            || VictimCache::new(CacheConfig::new(8 * 1024, 32, 1).unwrap(), 4),
            |mut cache| {
                for i in &trace {
                    if let Some(m) = i.mem {
                        cache.access(m.op, m.addr);
                    }
                }
                cache.effective_hit_ratio()
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn extended_cpu_paths(c: &mut Criterion) {
    let trace: Vec<Instr> = builtin("swm256").unwrap().compile(5).take(N).collect();
    let mut g = c.benchmark_group("extended_cpu_paths");
    g.throughput(Throughput::Elements(N as u64));
    let base = || {
        CpuConfig::baseline(
            CacheConfig::new(8 * 1024, 32, 2).unwrap(),
            MemoryTiming::new(BusWidth::new(4).unwrap(), 8),
        )
    };
    g.bench_function("with_l2", |b| {
        b.iter_batched(
            || {
                Cpu::new(base().with_l2(L2Config::new(
                    CacheConfig::new(128 * 1024, 32, 4).unwrap(),
                    2,
                )))
            },
            |cpu| cpu.run(trace.iter().copied()).cycles,
            BatchSize::LargeInput,
        )
    });
    g.bench_function("with_prefetch", |b| {
        b.iter_batched(
            || Cpu::new(base().with_prefetch(Prefetch::NextLine)),
            |cpu| cpu.run(trace.iter().copied()).cycles,
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn trace_encoding(c: &mut Criterion) {
    let trace: Vec<Instr> = builtin("ear").unwrap().compile(6).take(N).collect();
    let mut g = c.benchmark_group("trace_encoding");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("encode", |b| {
        b.iter(|| TraceBuffer::encode(trace.iter().copied()).len())
    });
    let buf = TraceBuffer::encode(trace.iter().copied());
    g.bench_function("decode", |b| {
        b.iter(|| buf.iter().filter_map(Result::ok).count())
    });
    g.finish();
}

fn zipf_sampling(c: &mut Criterion) {
    let mut g = c.benchmark_group("zipf_sampling");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("zipf_64k_slots", |b| {
        b.iter_batched(
            || {
                PatternTrace::new(
                    ZipfWorkingSet::new(0, 64 * 1024, 8, 1.2, 0.2),
                    TraceShape::default(),
                    7,
                )
            },
            |trace| trace.take(N).filter(|i| i.mem.is_some()).count(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    trace_generation,
    cache_simulation,
    cpu_simulation,
    timeline_replay,
    analytic_kernels,
    alternative_organisations,
    extended_cpu_paths,
    trace_encoding,
    zipf_sampling
);
criterion_main!(benches);
