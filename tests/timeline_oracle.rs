//! The miss-event timeline engine against its oracle: for *arbitrary*
//! traces and every supported timing configuration, `TimelineCpu` must
//! reproduce `Cpu::run` **bit-identically** — the whole `SimResult`
//! (cycles, φ, α, every stall counter, the miss-distance histogram, the
//! write-buffer statistics), not just summary ratios. This is the
//! `mattson_oracle.rs` counterpart for the timing half of the harness.

use proptest::prelude::*;
use unified_tradeoff::prelude::*;
use unified_tradeoff::simmem::BypassMode;

fn traces() -> impl Strategy<Value = Vec<Instr>> {
    // Mixed loads/stores/plains over a bounded region, word-aligned;
    // small enough that eviction and re-miss patterns are dense.
    proptest::collection::vec((0u8..3, 0u64..16 * 1024), 1..400).prop_map(|ops| {
        ops.into_iter()
            .enumerate()
            .map(|(i, (kind, addr))| {
                let pc = (i as u64) * 4;
                match kind {
                    0 => Instr::plain(pc),
                    1 => Instr::mem(pc, MemRef::load(addr & !3, 4)),
                    _ => Instr::mem(pc, MemRef::store(addr & !3, 4)),
                }
            })
            .collect()
    })
}

fn stalls() -> impl Strategy<Value = StallFeature> {
    prop_oneof![
        Just(StallFeature::FullStall),
        Just(StallFeature::BusLocked),
        Just(StallFeature::BusNotLocked1),
        Just(StallFeature::BusNotLocked2),
        Just(StallFeature::BusNotLocked3),
        // Ring capacities at and just past powers of two.
        (1u32..=17).prop_map(|m| StallFeature::NonBlocking { mshrs: m }),
    ]
}

/// Every configuration the timeline claims to replay exactly: any stall
/// feature, β_m, bus width, line size (narrower than, equal to or wider
/// than the bus), memory pipelining, asymmetric write timing and
/// write-buffer setting over a write-back write-allocate data cache.
fn supported_configs() -> impl Strategy<Value = CpuConfig> {
    (
        stalls(),
        prop_oneof![Just(4u64), Just(8), Just(16), Just(32)], // bus
        prop_oneof![Just(16u64), Just(32), Just(64)],         // line
        2u64..30,                                             // beta
        0u64..4,                                              // pipelining quantum (0 = off)
        any::<bool>(),                                        // writes at 2×β
        0usize..5,                                            // write-buffer capacity (0 = none)
        any::<bool>(),                                        // chunk-granular bypass
    )
        .prop_map(
            |(stall, bus, line, beta, q, slow_writes, capacity, chunky)| {
                // No clamp to the bus: a line narrower than the bus is a
                // single-chunk fill, which `check_line` accepts.
                let mut timing = MemoryTiming::new(BusWidth::new(bus).expect("valid"), beta);
                if q > 0 {
                    timing = timing.pipelined(q.min(beta));
                }
                if slow_writes {
                    timing = timing.with_write_beta(2 * beta);
                }
                let mut cfg = CpuConfig::baseline(
                    CacheConfig::new(2 * 1024, line, 2).expect("valid"),
                    timing,
                )
                .with_stall(stall);
                if capacity > 0 {
                    let mode = if chunky {
                        BypassMode::ChunkGranular
                    } else {
                        BypassMode::Ideal
                    };
                    cfg = cfg.with_write_buffer(WriteBufferConfig { capacity, mode });
                }
                cfg
            },
        )
}

fn replay(trace: &[Instr], cfg: CpuConfig) -> SimResult {
    let timeline = MissTimeline::extract(cfg.dcache, trace.iter().copied());
    assert!(
        timeline.supports(&cfg),
        "strategy must generate supported configs"
    );
    timeline.replay(&cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline guarantee: replayed results equal full simulation,
    /// field for field.
    #[test]
    fn timeline_replay_is_bit_identical(trace in traces(), cfg in supported_configs()) {
        let oracle = Cpu::new(cfg).run(trace.iter().copied());
        prop_assert_eq!(replay(&trace, cfg), oracle);
    }

    /// One timeline serves every timing point: replaying the *same*
    /// extraction under two configurations matches two fresh oracles.
    #[test]
    fn one_extraction_many_replays(
        trace in traces(),
        cfg_a in supported_configs(),
        cfg_b in supported_configs(),
    ) {
        // Force a shared cache geometry so one timeline covers both.
        let mut cfg_b = cfg_b;
        cfg_b.dcache = cfg_a.dcache;
        let timeline = MissTimeline::extract(cfg_a.dcache, trace.iter().copied());
        for cfg in [cfg_a, cfg_b] {
            let oracle = Cpu::new(cfg).run(trace.iter().copied());
            prop_assert_eq!(timeline.replay(&cfg), oracle);
        }
    }

    /// Windowed replay: snapshots at arbitrary reference counts equal
    /// `Cpu::snapshot` at the same boundaries — the warm-up-then-measure
    /// pattern every phase/window experiment relies on.
    #[test]
    fn marks_match_cpu_snapshots(
        trace in traces(),
        cfg in supported_configs(),
        cuts in proptest::collection::vec(1u64..400, 1..4),
    ) {
        let refs = trace.iter().filter(|i| i.mem.is_some()).count() as u64;
        let mut marks: Vec<u64> = cuts.into_iter().filter(|&c| c <= refs).collect();
        marks.sort_unstable();
        marks.dedup();
        if marks.is_empty() {
            return Ok(()); // trace too short for any cut this case
        }

        let timeline = MissTimeline::extract(cfg.dcache, trace.iter().copied());
        let (snaps, fin) = TimelineCpu::new(&timeline, cfg)
            .expect("supported")
            .run_with_marks(&marks);

        let mut cpu = Cpu::new(cfg);
        let mut seen = 0u64;
        let mut next = marks.iter().copied().peekable();
        let mut oracle = Vec::new();
        for instr in &trace {
            cpu.step(instr);
            if instr.mem.is_some() {
                seen += 1;
                if next.peek() == Some(&seen) {
                    next.next();
                    oracle.push(cpu.snapshot());
                }
            }
        }
        prop_assert_eq!(snaps, oracle);
        prop_assert_eq!(fin, cpu.finish());
    }

    /// φ and α derived from the replay match the oracle's — the two
    /// quantities every figure of the paper consumes.
    #[test]
    fn phi_and_alpha_match(trace in traces(), cfg in supported_configs()) {
        let fast = replay(&trace, cfg);
        let oracle = Cpu::new(cfg).run(trace.iter().copied());
        prop_assert_eq!(fast.phi(), oracle.phi());
        prop_assert_eq!(fast.alpha(), oracle.alpha());
        prop_assert_eq!(fast.cycles, oracle.cycles);
    }
}

#[test]
fn unsupported_configs_fall_back_to_the_oracle_path() {
    // The one guarantee the engine makes about configurations it cannot
    // replay: it refuses them, so callers keep using `Cpu::run`.
    let cache = CacheConfig::new(2 * 1024, 32, 2).unwrap();
    let timeline = MissTimeline::extract(cache, std::iter::empty());
    let cfg = CpuConfig::baseline(cache, MemoryTiming::new(BusWidth::new(4).unwrap(), 8))
        .with_icache(CacheConfig::new(1024, 32, 1).unwrap());
    assert!(!timeline.supports(&cfg));
    assert!(TimelineCpu::new(&timeline, cfg).is_err());
}

/// Every stalling feature the sweep replays: NB with a fill ring that is
/// exactly full (1, 4, 16 MSHRs) and one with a spare slot (3).
const SWEEP_STALLS: [StallFeature; 9] = [
    StallFeature::FullStall,
    StallFeature::BusLocked,
    StallFeature::BusNotLocked1,
    StallFeature::BusNotLocked2,
    StallFeature::BusNotLocked3,
    StallFeature::NonBlocking { mshrs: 1 },
    StallFeature::NonBlocking { mshrs: 3 },
    StallFeature::NonBlocking { mshrs: 4 },
    StallFeature::NonBlocking { mshrs: 16 },
];

/// A deterministic sweep of the whole supported space on short traces:
/// every built-in proxy × line 16–64 × bus 4–32 × β {2, 8, 30} ×
/// pipelined or not × three write-buffer settings × every stalling
/// feature (11 664 configurations). Each point's `replay`, its slot in
/// one `replay_batch` over its timeline, and the final result of a
/// marked `run_with_marks` must all equal `Cpu::run`.
#[test]
fn sweep_matches_the_oracle_across_the_supported_space() {
    const INSTRUCTIONS: usize = 1_000;
    let write_buffers = [
        None,
        Some(WriteBufferConfig {
            capacity: 4,
            mode: BypassMode::Ideal,
        }),
        Some(WriteBufferConfig {
            capacity: 2,
            mode: BypassMode::ChunkGranular,
        }),
    ];
    let mut points = 0;
    for program in simtrace::workload::builtins() {
        let trace: Vec<Instr> = program.compile(7).take(INSTRUCTIONS).collect();
        for line in [16u64, 32, 64] {
            let cache = CacheConfig::new(2 * 1024, line, 2).expect("valid");
            let timeline = MissTimeline::extract(cache, trace.iter().copied());
            let refs = timeline.references();
            let marks = [refs / 3, refs / 2].map(|m| m.max(1));
            let mut cfgs = Vec::new();
            for bus in [4u64, 8, 16, 32] {
                for beta in [2u64, 8, 30] {
                    for pipelined in [false, true] {
                        let mut timing =
                            MemoryTiming::new(BusWidth::new(bus).expect("valid"), beta);
                        if pipelined {
                            timing = timing.pipelined(beta / 2);
                        }
                        for wb in write_buffers {
                            for stall in SWEEP_STALLS {
                                let mut cfg = CpuConfig::baseline(cache, timing).with_stall(stall);
                                cfg.write_buffer = wb;
                                cfgs.push(cfg);
                            }
                        }
                    }
                }
            }
            let batch = timeline.replay_batch(&cfgs).expect("supported");
            for (cfg, batched) in cfgs.iter().zip(&batch) {
                let oracle = Cpu::new(*cfg).run(trace.iter().copied());
                let what = format!("{program} line {line} {:?} {}", cfg.timing, cfg.stall);
                assert_eq!(timeline.replay(cfg), oracle, "replay: {what}");
                assert_eq!(*batched, oracle, "replay_batch: {what}");
                let (_, marked) = TimelineCpu::new(&timeline, *cfg)
                    .expect("supported")
                    .run_with_marks(&marks);
                assert_eq!(marked, oracle, "run_with_marks: {what}");
                points += 1;
            }
        }
    }
    assert_eq!(points, 11_664);
}
