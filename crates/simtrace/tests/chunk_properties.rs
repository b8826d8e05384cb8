//! Property tests for the chunked-generation determinism contract
//! (`simtrace::chunk` module docs): for every SPEC92 proxy program,
//! arbitrary chunk sizes and arbitrary resume points, the chunked
//! stream is bit-identical to the monolithic one. The streaming
//! pipeline (`bench::stream`) leans on exactly these properties.

use proptest::prelude::*;
use simtrace::chunk::ChunkedTrace;
use simtrace::workload::{builtins, WorkloadSpec};
use simtrace::Instr;

fn program() -> impl Strategy<Value = &'static WorkloadSpec> {
    (0..builtins().len()).prop_map(|i| &builtins()[i])
}

fn mono(program: &WorkloadSpec, seed: u64, len: usize) -> Vec<Instr> {
    program.compile(seed).take(len).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Concatenating the chunks reproduces the monolithic trace exactly,
    /// whatever the chunk size — including sizes larger than the trace.
    #[test]
    fn chunked_is_bit_identical_to_monolithic(
        program in program(),
        seed in any::<u64>(),
        len in 1usize..3_000,
        chunk_len in 1usize..4_096,
    ) {
        let want = mono(program, seed, len);
        let mut got = Vec::with_capacity(len);
        program.chunks(seed, len, chunk_len)
            .for_each_chunk(|c| got.extend_from_slice(c));
        prop_assert_eq!(got, want);
    }

    /// Every chunk respects the size bound, only the final chunk may be
    /// short, and the produced counter accounts for every instruction.
    #[test]
    fn chunk_sizes_and_accounting_hold(
        program in program(),
        seed in any::<u64>(),
        len in 1usize..3_000,
        chunk_len in 1usize..512,
    ) {
        let mut chunks = program.chunks(seed, len, chunk_len);
        let mut buf = Vec::new();
        let mut sizes = Vec::new();
        while chunks.next_chunk_into(&mut buf) {
            sizes.push(buf.len());
        }
        prop_assert_eq!(sizes.iter().sum::<usize>(), len);
        prop_assert_eq!(chunks.produced(), len as u64);
        let (last, full) = sizes.split_last().expect("len >= 1 gives a chunk");
        prop_assert!(full.iter().all(|&s| s == chunk_len), "only the last chunk may be short");
        prop_assert!(*last >= 1 && *last <= chunk_len);
    }

    /// A resume point is derivable from `(seed, skip)`: `start_at`
    /// continues with exactly the instructions a drained prefix would
    /// have been followed by.
    #[test]
    fn resume_points_are_derivable(
        program in program(),
        seed in any::<u64>(),
        len in 2usize..3_000,
        chunk_len in 1usize..512,
        skip_frac in 0.0f64..1.0,
    ) {
        let skip = ((len as f64 * skip_frac) as u64).min(len as u64 - 1);
        let want = mono(program, seed, len);
        let mut resumed = ChunkedTrace::start_at(
            program.compile(seed).take(len),
            chunk_len,
            skip,
        );
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while resumed.next_chunk_into(&mut buf) {
            got.extend_from_slice(&buf);
        }
        prop_assert_eq!(&got[..], &want[skip as usize..]);
    }

    /// Changing the chunk size between chunks never changes the stream,
    /// only its partitioning.
    #[test]
    fn repartitioning_mid_stream_is_invisible(
        program in program(),
        seed in any::<u64>(),
        len in 1usize..3_000,
        first_len in 1usize..512,
        second_len in 1usize..512,
    ) {
        let want = mono(program, seed, len);
        let mut chunks = program.chunks(seed, len, first_len);
        let mut got = Vec::new();
        let mut buf = Vec::new();
        if chunks.next_chunk_into(&mut buf) {
            got.extend_from_slice(&buf);
        }
        chunks.set_chunk_len(second_len);
        while chunks.next_chunk_into(&mut buf) {
            got.extend_from_slice(&buf);
        }
        prop_assert_eq!(got, want);
    }
}
