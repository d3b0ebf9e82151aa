//! Parse ↔ render round-trip property for ladder specs.
//!
//! `LadderSpec::spec` documents itself as "accepted back by parse", so
//! that contract gets a seeded property test: generated specs survive a
//! `parse → spec` round trip byte-for-byte, and a second `parse` of the
//! rendered form is a fixpoint. A seeded mutation fuzz holds every other
//! input to the same contract: it either fails with an error or parses to
//! a ladder whose spec is a fixpoint, and it never panics. A rung carries
//! no suffix: `2objH@t4` is an unknown flavor, rejected with the rung and
//! its character span.
use rudoop_core::driver::Flavor;
use rudoop_core::supervisor::{LadderSpec, RungSpec};
use rudoop_ir::rng::SplitMix64;

const FLAVORS: [&str; 9] = [
    "insens",
    "cutshortcut",
    "summaries",
    "1call",
    "2callH",
    "1objH",
    "2objH",
    "2typeH",
    "S2objH",
];

/// One random rung spec string (flavor, optional heuristic) in its
/// canonical rendering.
fn gen_rung(rng: &mut SplitMix64) -> String {
    let flavor = FLAVORS[rng.below(FLAVORS.len())];
    // The three context-free rungs never take an introspective prefix:
    // there is nothing for a heuristic to refine.
    let context_free = matches!(flavor, "insens" | "cutshortcut" | "summaries");
    if !context_free && rng.ratio(1, 2) {
        let letter = if rng.ratio(1, 2) { 'A' } else { 'B' };
        format!("intro{letter}:{flavor}")
    } else {
        flavor.to_owned()
    }
}

#[test]
fn seeded_specs_round_trip_through_parse_and_render() {
    let mut rng = SplitMix64::new(0x1adde5);
    for case in 0..500 {
        // Two or more rungs: a lone introspective rung deliberately
        // expands to the canonical ladder, which is not a round trip.
        let n = rng.range(2, 6);
        let spec = (0..n)
            .map(|_| gen_rung(&mut rng))
            .collect::<Vec<_>>()
            .join(",");
        let parsed = LadderSpec::parse(&spec)
            .unwrap_or_else(|e| panic!("case {case}: {spec:?} failed to parse: {e}"));
        assert_eq!(
            parsed.spec(),
            spec,
            "case {case}: round trip changed the spec"
        );
        let again = LadderSpec::parse(&parsed.spec()).expect("rendered spec parses");
        assert_eq!(
            again.spec(),
            spec,
            "case {case}: parse∘spec is not a fixpoint"
        );
    }
}

#[test]
fn single_rungs_round_trip() {
    let mut rng = SplitMix64::new(0x5eed);
    for _ in 0..200 {
        let spec = gen_rung(&mut rng);
        let parsed = RungSpec::parse(&spec).expect("generated rung parses");
        assert_eq!(parsed.spec(), spec);
    }
}

#[test]
fn whitespace_and_canonical_ladders_still_parse() {
    let parsed = LadderSpec::parse(" 2objH , introB:2objH ,insens").expect("parses");
    assert_eq!(parsed.spec(), "2objH,introB:2objH,insens");
    assert_eq!(
        LadderSpec::parse("default").expect("default parses").spec(),
        LadderSpec::default_for(Flavor::OBJ2H).spec()
    );
}

#[test]
fn thread_suffix_is_an_unknown_flavor() {
    let err = RungSpec::parse("2objH@t4").expect_err("a suffixed rung must not parse");
    assert!(err.contains("unknown flavor \"2objH@t4\""), "{err}");
    assert!(err.contains("in rung \"2objH@t4\""), "{err}");
    let err = RungSpec::parse("introB:2objH@t4").expect_err("a suffixed rung must not parse");
    assert!(err.contains("in rung \"introB:2objH@t4\""), "{err}");
    let err = LadderSpec::parse("2objH,insens@t2").expect_err("a suffixed rung must not parse");
    assert!(
        err.starts_with("rung 1 at chars 6..15 of ladder spec:"),
        "unexpected error: {err}"
    );
    assert!(err.contains("in rung \"insens@t2\""), "{err}");
    let err = LadderSpec::parse("2objH@t4").expect_err("a suffixed lone rung must not parse");
    assert!(
        err.starts_with("rung 0 at chars 0..8 of ladder spec:"),
        "unexpected error: {err}"
    );
}

#[test]
fn ladder_errors_carry_absolute_offsets() {
    let err = LadderSpec::parse("2objH, insens@t2@t3 ,1objH").expect_err("bad rung inside");
    assert!(
        err.starts_with("rung 1 at chars 7..19 of ladder spec:"),
        "unexpected error: {err}"
    );
    assert!(err.contains("unknown flavor \"insens@t2@t3\""), "{err}");
}

#[test]
fn cutshortcut_rungs_round_trip() {
    let parsed = LadderSpec::parse("2objH,cutshortcut,insens").expect("parses");
    assert_eq!(parsed.spec(), "2objH,cutshortcut,insens");
    let rung = RungSpec::parse("cutshortcut").expect("bare rung parses");
    assert_eq!(rung.spec(), "cutshortcut");
}

#[test]
fn summaries_rungs_round_trip() {
    let parsed = LadderSpec::parse("2objH,summaries,insens").expect("parses");
    assert_eq!(parsed.spec(), "2objH,summaries,insens");
    let rung = RungSpec::parse("summaries").expect("bare rung parses");
    assert_eq!(rung.spec(), "summaries");
}

#[test]
fn unknown_rung_flavor_error_lists_valid_names() {
    // A typo'd rung gets the same teaching error as a typo'd
    // `--analysis`: the full flavor grammar, all six named families.
    let err = RungSpec::parse("cutshort").expect_err("typo must not parse");
    assert!(err.contains("unknown flavor \"cutshort\""), "{err}");
    assert!(
        err.contains("valid flavors are insens, cutshortcut, summaries"),
        "{err}"
    );
}

/// Characters the fuzz inserts and substitutes: the spec grammar's
/// separators, whitespace, letters and digits of flavor names, and
/// multi-byte characters (so char-span arithmetic meets non-ASCII input).
const FUZZ_CHARS: [char; 24] = [
    '@', ',', ':', ' ', '\t', 't', '0', '1', '2', '9', 'H', 'S', 'A', 'B', 'a', 'o', 'i', 'n', '-',
    'é', '→', '★', '\u{200b}', '🦀',
];

/// The valid specs of this file, mutated by the fuzz.
const FUZZ_SEEDS: [&str; 8] = [
    "2objH,introB:2objH,insens",
    " 2objH , introB:2objH ,insens",
    "default",
    "introA:2typeH",
    "2objH,cutshortcut,insens",
    "2objH,summaries,insens",
    "S2objH,introspectiveB:1call,2callH",
    "1objH",
];

/// One or two char-level insertions, deletions or replacements of `spec`.
fn mutate(rng: &mut SplitMix64, spec: &str) -> String {
    let mut chars: Vec<char> = spec.chars().collect();
    for _ in 0..rng.range(1, 3) {
        let at = rng.below(chars.len() + 1);
        let c = FUZZ_CHARS[rng.below(FUZZ_CHARS.len())];
        match rng.below(3) {
            0 => chars.insert(at, c),
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ if at < chars.len() => chars[at] = c,
            _ => chars.push(c),
        }
    }
    chars.into_iter().collect()
}

/// Mutated specs either fail to parse or parse to a ladder whose `spec()`
/// re-parses to the same `spec()`; none panics. 64 rounds per seed, and
/// the mutations must land on both sides of the grammar.
#[test]
fn mutated_specs_fail_or_round_trip() {
    let (mut parsed, mut rejected) = (0, 0);
    for seed in [1u64, 7, 0x1adde5, 0xF422_F422] {
        let mut rng = SplitMix64::new(seed);
        for round in 0..64 {
            let base = if rng.ratio(1, 4) {
                gen_rung(&mut rng)
            } else {
                FUZZ_SEEDS[rng.below(FUZZ_SEEDS.len())].to_owned()
            };
            let input = mutate(&mut rng, &base);
            let tag = format!("seed {seed} round {round}: {input:?}");
            if let Ok(rung) = RungSpec::parse(&input) {
                let spec = rung.spec();
                let again = RungSpec::parse(&spec).unwrap_or_else(|e| panic!("{tag}: rung {e}"));
                assert_eq!(again.spec(), spec, "{tag}: rung is not a fixpoint");
            }
            match LadderSpec::parse(&input) {
                Ok(ladder) => {
                    parsed += 1;
                    let spec = ladder.spec();
                    let again = LadderSpec::parse(&spec).unwrap_or_else(|e| {
                        panic!("{tag}: rendered as {spec:?}, which fails: {e}")
                    });
                    assert_eq!(again.spec(), spec, "{tag}: not a fixpoint");
                }
                Err(_) => rejected += 1,
            }
        }
    }
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}
