//! Workload-spec contract tests: canonical round-tripping, content-hash
//! stability, and the golden instruction streams of the six built-in
//! SPEC92 proxy specs.
//!
//! The trace store keys every memo entry on `WorkloadSpec::id()`, so
//! these properties are what keep `results/manifest.json` stable across
//! the declarative-workload refactor: same canonical bytes → same hash
//! → same traces → same artifacts.

use bench::tracestore::SPEC_SEED;
use proptest::prelude::*;
use report::{sha256_hex, Json};
use simtrace::workload::{builtin, builtins, WorkloadSpec};
use simtrace::Instr;

/// The pinned content hashes of the six built-in proxy specs. These are
/// SHA-256 over the canonical JSON rendering; a drift here means every
/// memoised timeline and histogram key changes — treat it as a
/// breaking change, not a test to update casually.
const PINNED_IDS: [(&str, &str); 6] = [
    (
        "nasa7",
        "e21ad3515398eceefa55cec28c57471be6a702f9e295a6594458d790c80a3777",
    ),
    (
        "swm256",
        "11418866e49fadc7cf86b4b286ac3a019024c954881a51543b00b4223116ded4",
    ),
    (
        "wave5",
        "cd42325165379beefbd5e9f22bda5da81236ff7ab9a3ca2e330c65dd1933ce9f",
    ),
    (
        "ear",
        "79d97484ce91b4f02ae3ec035608cecae5b814670d972b403619453e925f92e7",
    ),
    (
        "doduc",
        "09b0b284f1075a65b25dbd01e94a4f8e7a882dfe941a9c4310449bac84e36e21",
    ),
    (
        "hydro2d",
        "d51134785f3247abc5f39fec8cdab1071fe542e110350b0ccec92d6ab0de4de2",
    ),
];

#[test]
fn builtin_content_hashes_are_pinned() {
    assert_eq!(builtins().len(), PINNED_IDS.len());
    for (name, id) in PINNED_IDS {
        let spec = builtin(name).expect(name);
        assert_eq!(spec.id().hex(), id, "{name}: content hash drifted");
        assert_eq!(spec.label(), name);
        // Hashing is a pure function of the canonical bytes: a
        // re-parsed copy has the same identity.
        let reparsed = WorkloadSpec::from_json(&spec.to_json()).expect(name);
        assert_eq!(reparsed.id(), spec.id());
    }
}

/// Stream lengths the golden digests cover: every seed at `SHORT`, and
/// the suite's seed at `LONG`.
const SHORT: usize = 2_000;
const LONG: usize = 200_000;

/// SHA-256 digests of the first `len` instructions each built-in
/// compiles to, as `(name, seed, len, digest)` ([`stream_digest`]).
/// Every memoised timeline and histogram — and so every
/// committed artifact — is a function of these streams; a drift here is
/// a breaking change, like a drift in [`PINNED_IDS`].
#[rustfmt::skip]
const GOLDEN_STREAMS: [(&str, u64, usize, &str); 24] = [
    ("nasa7", 0, SHORT, "f9de49beb02a4d8b326d193ffc2df423b3c2bb73dd75d8340520461a89c07f90"),
    ("nasa7", 7, SHORT, "ed9e4b83f0c978061720b6454ed1ad4815b4c15bcd64cef5a62b5631aa9b008c"),
    ("nasa7", SPEC_SEED, SHORT, "748fe2854f058ac609b0ab0095ecfb255de2f58d0fddfa59c84d4cbef29e3412"),
    ("nasa7", SPEC_SEED, LONG, "ae388de80407be6d1014a1a8c5e0bc4f5a3f268d216897a42c0a3a96f744ecaf"),
    ("swm256", 0, SHORT, "6213e53a0302eea86543667f027540dc27f6a270be80451e2bfa71ce87ac3c2d"),
    ("swm256", 7, SHORT, "edc8a4d51729826f4bbddf3a4095aa0ca07676010f87f070ab0ccc1eafc79bad"),
    ("swm256", SPEC_SEED, SHORT, "4dd87b4acbbd4b81921ddcaeafb409d765da4feac08cf08eaed17f51d8d63256"),
    ("swm256", SPEC_SEED, LONG, "b133fa6b953645b08ed6f9124ccaf0ae10280e66c19dbe8e44a927f9be414c68"),
    ("wave5", 0, SHORT, "05e6cba04d7506e4741ff3bd6fd94fed5435d65404062d4f0f943fbf0e205235"),
    ("wave5", 7, SHORT, "6cd271bf45eb5fd4fe132b6161e9769367ce1fc5c18a5ebf3b6246a0477bdecf"),
    ("wave5", SPEC_SEED, SHORT, "6f686556b60883f0b66c274fb786f8504c2fec602929055b916c944c086edb7e"),
    ("wave5", SPEC_SEED, LONG, "a7a0d4c81e9e4920403e1fdada4959c61926e2f7e1950dabb7ff18c8201454cf"),
    ("ear", 0, SHORT, "5d80cc66906d5bd14f67db809afbd82c9742bdbc3cff39a849827c195cb68e6f"),
    ("ear", 7, SHORT, "650fbefd7998b70f72348f1fb9d266bceb940becbbf9ae4fce2d8e0a50c6e166"),
    ("ear", SPEC_SEED, SHORT, "d673a4e320f500f8ad6cb8b21c2293dc1f43ccbdc3e4cfd9bf0abc6ad11611c2"),
    ("ear", SPEC_SEED, LONG, "8110f6ec76fb38455272033a71b91f836245d5d97c2a43c847b7d68b93d8a69e"),
    ("doduc", 0, SHORT, "9c2e8c79efe5af00d47ed98fa9a8e4866530603ebd2982eaab97409f87377ee6"),
    ("doduc", 7, SHORT, "eedd532218478eb0e6baa281f544c07bf19db489c7e41cf10453cebb3f54da8d"),
    ("doduc", SPEC_SEED, SHORT, "798eb6d97ec7587a9acdee65f192989079f8852d698146426c81f4729adba269"),
    ("doduc", SPEC_SEED, LONG, "778c35167a39c6ea40da6f8fd0541732eafb204cf0273b2740fb7188affe28e5"),
    ("hydro2d", 0, SHORT, "0c4119bf10855b5bf090b99623be21f9789e5d32f93e5f640c2f0aa6c72352e6"),
    ("hydro2d", 7, SHORT, "7e138779317b502c647956adf55b1bd3c297b25636c2877e2c9cbe6591cf7191"),
    ("hydro2d", SPEC_SEED, SHORT, "ed20455b777f8598111ddadc5554858d78b3a534a8155ecc25dc4cdcfc13c831"),
    ("hydro2d", SPEC_SEED, LONG, "07d6112dced7dcb082d36df621c56916a7cedfa71929596bb4554c911a93206b"),
];

/// SHA-256 over a stream: per instruction, its `pc` as 8 little-endian
/// bytes and, for a memory instruction, its address (8 little-endian
/// bytes), its op (one byte: 0 load, 1 store) and its size (one byte).
fn stream_digest(stream: impl Iterator<Item = Instr>) -> String {
    let mut bytes = Vec::new();
    for instr in stream {
        bytes.extend_from_slice(&instr.pc.raw().to_le_bytes());
        if let Some(m) = instr.mem {
            bytes.extend_from_slice(&m.addr.raw().to_le_bytes());
            bytes.push(u8::from(m.op.is_store()));
            bytes.push(m.size);
        }
    }
    sha256_hex(&bytes)
}

/// The golden digests were computed from the hand-written constructors
/// the JSON built-ins replaced, so matching them keeps every built-in
/// bit-identical to its legacy stream. The pins also fix that a stream
/// is deterministic in its seed, changes with the seed, and differs
/// between programs driven by the same seed: all 24 digests are
/// distinct.
#[test]
fn builtins_are_bit_identical_to_the_legacy_constructors() {
    let mut digests: Vec<&str> = GOLDEN_STREAMS.iter().map(|pin| pin.3).collect();
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(
        digests.len(),
        GOLDEN_STREAMS.len(),
        "every pinned stream differs"
    );
    for spec in builtins() {
        let name = spec.label();
        let pins = GOLDEN_STREAMS.iter().filter(|(n, ..)| *n == name).count();
        assert_eq!(pins, 4, "{name}: three short seeds and one long stream");
    }
    for (name, seed, len, digest) in GOLDEN_STREAMS {
        let spec = builtin(name).expect(name);
        assert_eq!(
            stream_digest(spec.compile(seed).take(len)),
            digest,
            "{name} diverged at seed {seed:#x}, {len} instructions"
        );
    }
}

fn num(n: u64) -> Json {
    Json::num(n as f64)
}

/// One random leaf node, as the JSON a user would write. Bounds keep
/// every draw inside the validators' accepted ranges; fractions and the
/// Zipf exponent are arbitrary f64s in range, which exercises the
/// shortest-round-trip number codec.
fn leaf() -> impl Strategy<Value = Json> {
    prop_oneof![
        (1u64..1 << 30, 1u64..1 << 16, 1u64..4096, 1u8..=32, 0u32..64).prop_map(
            |(base, region_bytes, stride, elem_size, store_period)| {
                Json::obj(vec![
                    ("kind", Json::str("strided")),
                    ("base", num(base)),
                    ("region_bytes", num(region_bytes)),
                    ("stride", num(stride)),
                    ("elem_size", Json::num(f64::from(elem_size))),
                    ("store_period", Json::num(f64::from(store_period))),
                ])
            }
        ),
        (
            1u64..1 << 30,
            1u32..2048,
            8u64..256,
            0.0f64..1.0,
            any::<u64>()
        )
            .prop_map(|(base, nodes, node_bytes, store_fraction, seed)| {
                Json::obj(vec![
                    ("kind", Json::str("chase")),
                    ("base", num(base)),
                    ("nodes", Json::num(f64::from(nodes))),
                    ("node_bytes", num(node_bytes)),
                    ("store_fraction", Json::num(store_fraction)),
                    ("seed", Json::str(format!("{seed:#x}"))),
                ])
            }),
        (1u64..1 << 30, 1u64..1 << 16, 0.0f64..1.0, 1u8..=32).prop_map(
            |(base, bytes, store_fraction, elem_size)| {
                Json::obj(vec![
                    ("kind", Json::str("working_set")),
                    ("base", num(base)),
                    ("bytes", num(bytes)),
                    ("store_fraction", Json::num(store_fraction)),
                    ("elem_size", Json::num(f64::from(elem_size))),
                ])
            }
        ),
        (
            1u64..1 << 30,
            1u32..2048,
            1u8..=32,
            0.1f64..2.0,
            0.0f64..1.0
        )
            .prop_map(|(base, slots, elem_size, s, store_fraction)| {
                Json::obj(vec![
                    ("kind", Json::str("zipf")),
                    ("base", num(base)),
                    ("slots", Json::num(f64::from(slots))),
                    ("elem_size", Json::num(f64::from(elem_size))),
                    ("s", Json::num(s)),
                    ("store_fraction", Json::num(store_fraction)),
                ])
            }),
    ]
}

/// A random spec: a leaf, a weighted mixture of leaves, or a phase
/// alternation over leaves, with an optional name and seed mix.
fn spec_json() -> impl Strategy<Value = Json> {
    let pattern = prop_oneof![
        leaf(),
        (proptest::collection::vec((0.1f64..10.0, leaf()), 1..4)).prop_map(|components| {
            Json::obj(vec![
                ("kind", Json::str("mixture")),
                (
                    "components",
                    Json::Arr(
                        components
                            .into_iter()
                            .map(|(weight, pattern)| {
                                Json::obj(vec![("weight", Json::num(weight)), ("pattern", pattern)])
                            })
                            .collect(),
                    ),
                ),
            ])
        }),
        (proptest::collection::vec((1u64..10_000, leaf()), 1..4)).prop_map(|phases| {
            Json::obj(vec![
                ("kind", Json::str("phases")),
                (
                    "phases",
                    Json::Arr(
                        phases
                            .into_iter()
                            .enumerate()
                            .map(|(i, (refs, pattern))| {
                                Json::obj(vec![
                                    ("name", Json::str(format!("phase{i}"))),
                                    ("refs", num(refs)),
                                    ("pattern", pattern),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        }),
    ];
    (any::<bool>(), any::<u64>(), pattern).prop_map(|(named, seed_mix, pattern)| {
        let mut fields = Vec::new();
        if named {
            fields.push(("name".to_string(), Json::str("prop")));
        }
        fields.push(("seed_mix".to_string(), Json::str(format!("{seed_mix:#x}"))));
        fields.push(("pattern".to_string(), pattern));
        Json::Obj(fields)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse → canonical render → parse is a fixed point: the second
    /// parse reproduces the canonical bytes and the content hash.
    #[test]
    fn canonical_form_is_a_round_trip_fixed_point(json in spec_json()) {
        let spec = WorkloadSpec::from_json(&json).expect("generated specs are valid");
        let canonical = spec.canonical_json().render();
        let reparsed = WorkloadSpec::from_json_str(&canonical).expect("canonical form parses");
        prop_assert_eq!(reparsed.canonical_json().render(), canonical.clone());
        prop_assert_eq!(reparsed.id(), spec.id());
        // The full form (with name) parses back to an equal spec.
        let full = WorkloadSpec::from_json_str(&spec.to_json().render()).unwrap();
        prop_assert_eq!(&full, &spec);
        prop_assert_eq!(full.label(), spec.label());
    }

    /// The name never enters the identity, and the identity is what the
    /// trace store keys on.
    #[test]
    fn names_are_labels_not_identities(json in spec_json()) {
        let spec = WorkloadSpec::from_json(&json).unwrap();
        let mut renamed = spec.clone();
        renamed.name = Some("somebody-else".to_string());
        prop_assert_eq!(renamed.id(), spec.id());
        let mut anon = spec.clone();
        anon.name = None;
        prop_assert_eq!(anon.id(), spec.id());
    }

    /// Compiled specs are deterministic in the seed and chunking never
    /// changes the stream (the contract the streaming pipeline needs).
    #[test]
    fn compilation_is_deterministic_and_chunk_invariant(
        json in spec_json(),
        seed in any::<u64>(),
        chunk_len in 1usize..700,
    ) {
        let spec = WorkloadSpec::from_json(&json).unwrap();
        let len = 1_500;
        let whole: Vec<Instr> = spec.compile(seed).take(len).collect();
        let again: Vec<Instr> = spec.compile(seed).take(len).collect();
        prop_assert_eq!(&again, &whole, "same seed, same stream");
        let mut chunked = Vec::with_capacity(len);
        spec.chunks(seed, len, chunk_len)
            .for_each_chunk(|c| chunked.extend_from_slice(c));
        prop_assert_eq!(chunked, whole, "chunking changed the stream");
    }
}
