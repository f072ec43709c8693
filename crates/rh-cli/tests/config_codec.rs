//! Seeded round-trip property test for the proto config codec.
//!
//! The distributed protocol's one serialization contract: for any valid
//! `SweepConfig`, `config_to_json → parse → config_from_value →
//! config_to_json` is **byte-stable** — the re-encoding equals the first
//! encoding exactly. Byte stability is what the result cache, the
//! checkpoint journal, and request dedup all key on, so a drift here
//! (a float formatted differently, a field reordered) would silently
//! invalidate every cached artifact. The generator below drives every axis
//! the codec carries — patterns, ECC, sides, PARA probabilities including
//! exact-binary and awkward decimals, geometry corners, extreme seeds —
//! across a few hundred seeded draws.
//!
//! The dual obligation: unknown-field rejection must keep firing. A typoed
//! axis name in a submitted config must fail loudly, not silently run the
//! default sweep — so every generated config is re-submitted with each of
//! its top-level keys mutated, and every mutation must be rejected naming
//! the unknown field.
//!
//! The third obligation is the bound on what a config can cost: a seeded
//! fuzz over hostile config values, up to lines at the 32 MiB line bound,
//! must come back refused or planned, quickly and within the cell cap.

use rh_cli::proto::{config_from_value, config_hash, config_to_json, parse, MAX_LINE_BYTES};
use rh_cli::sweep::{MAX_AXIS_VALUES, MAX_PLAN_CELLS};
use rh_cli::{SweepConfig, SweepPlan};
use rh_core::{DataPattern, Geometry, SplitMix64, MAX_TOTAL_ROWS};
use std::time::{Duration, Instant};

/// Draw one valid config covering every codec axis. Values are chosen from
/// small pools rather than raw bit-noise so the draws stay valid under
/// `SweepConfig::validate` while still hitting the representational edge
/// cases (u64::MAX seeds, denormal-adjacent probabilities, 1-row banks).
fn gen_config(rng: &mut SplitMix64) -> SweepConfig {
    let pick = |rng: &mut SplitMix64, n: usize| rng.gen_range(n as u64) as usize;
    let seed_pool: [u64; 5] = [0, 1, 0xC0FFEE, u64::MAX, 0x8000_0000_0000_0000];
    let hc_pool: [u64; 6] = [1, 100, 2_000, 4_800, 139_000, u64::MAX];
    let sides_pool: [usize; 4] = [2, 3, 16, 64];
    // Exact binary fractions, shortest-round-trip-awkward decimals, and the
    // boundary values the validator admits.
    let p_pool: [f64; 8] = [0.0, 1.0, 0.5, 0.001, 0.004, 0.1 + 0.2, 1e-300, 0.062_5];
    let pattern_pool: [DataPattern; 4] = [
        DataPattern::Legacy,
        DataPattern::Solid,
        DataPattern::Checkerboard,
        DataPattern::RowStripe,
    ];
    let draw_list = |rng: &mut SplitMix64, max_len: usize| -> Vec<usize> {
        let len = 1 + pick(rng, max_len);
        (0..len).map(|_| rng.next_u64() as usize).collect()
    };
    SweepConfig {
        seed: seed_pool[pick(rng, seed_pool.len())],
        activations: 1 + rng.gen_range(1 << 40),
        hc_firsts: draw_list(rng, 4)
            .into_iter()
            .map(|i| hc_pool[i % hc_pool.len()])
            .collect(),
        sides: draw_list(rng, 4)
            .into_iter()
            .map(|i| sides_pool[i % sides_pool.len()])
            .collect(),
        para_probabilities: draw_list(rng, 6)
            .into_iter()
            .map(|i| p_pool[i % p_pool.len()])
            .collect(),
        data_patterns: draw_list(rng, 4)
            .into_iter()
            .map(|i| pattern_pool[i % pattern_pool.len()])
            .collect(),
        ecc_codeword_bits: [0u32, 1, 64, 128, 8192][pick(rng, 5)],
        benign_fraction: [0.0, 0.1, 0.25, 1.0, 0.333_333_333_333_333_3][pick(rng, 5)],
        auto_refresh_interval: [0u64, 1, 32_000, u64::MAX][pick(rng, 4)],
        geometry: Geometry {
            channels: [1u32, 2][pick(rng, 2)],
            ranks: [1u32, 4][pick(rng, 2)],
            banks: [1u32, 4, 16][pick(rng, 3)],
            // The largest bank the row cap admits at the largest drawn
            // channel x rank x bank count (2 x 4 x 16).
            rows_per_bank: [1u32, 64, 4_096, (MAX_TOTAL_ROWS / 128) as u32][pick(rng, 4)],
        },
    }
}

fn fields_match(a: &SweepConfig, b: &SweepConfig) {
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.activations, b.activations);
    assert_eq!(a.hc_firsts, b.hc_firsts);
    assert_eq!(a.sides, b.sides);
    assert_eq!(a.para_probabilities, b.para_probabilities, "bit-exact f64s");
    assert_eq!(a.data_patterns, b.data_patterns);
    assert_eq!(a.ecc_codeword_bits, b.ecc_codeword_bits);
    assert_eq!(a.benign_fraction, b.benign_fraction);
    assert_eq!(a.auto_refresh_interval, b.auto_refresh_interval);
    assert_eq!(a.geometry, b.geometry);
}

#[test]
fn encode_decode_encode_is_byte_stable_across_every_axis() {
    let mut rng = SplitMix64::new(0x5EED_C0DE);
    for draw in 0..300 {
        let cfg = gen_config(&mut rng);
        cfg.validate()
            .unwrap_or_else(|e| panic!("draw {draw}: generator made an invalid config: {e}"));
        let encoded = config_to_json(&cfg);
        let value = parse(&encoded)
            .unwrap_or_else(|e| panic!("draw {draw}: encoding did not parse: {e}\n{encoded}"));
        let decoded = config_from_value(&value)
            .unwrap_or_else(|e| panic!("draw {draw}: decode failed: {e}\n{encoded}"));
        fields_match(&cfg, &decoded);
        let re_encoded = config_to_json(&decoded);
        assert_eq!(
            encoded, re_encoded,
            "draw {draw}: re-encoding drifted from the first encoding"
        );
        // The cache/dedup key must survive the round trip too — it hashes
        // semantic content (normalized axes, float bit patterns), so a
        // decode that preserved bytes but moved bits would show up here.
        assert_eq!(config_hash(&cfg), config_hash(&decoded), "draw {draw}");
    }
}

/// Mutate each top-level key of a freshly encoded config and assert the
/// decoder rejects every mutation by name. Driven off the real encoding
/// (not a hand-written list) so a field added to the codec later is
/// automatically covered.
#[test]
fn unknown_field_rejection_fires_on_every_mutated_key() {
    let mut rng = SplitMix64::new(0xBAD_F1E1D);
    for draw in 0..25 {
        let cfg = gen_config(&mut rng);
        let encoded = config_to_json(&cfg);
        let keys: Vec<String> = parse(&encoded)
            .expect("encoding parses")
            .as_object()
            .expect("config encodes as an object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert!(keys.len() >= 10, "codec should carry every axis");
        for key in keys {
            let needle = format!("\"{key}\":");
            let mutated_key = format!("{key}_typo");
            let mutated = encoded.replace(&needle, &format!("\"{mutated_key}\":"));
            assert_ne!(mutated, encoded, "draw {draw}: key '{key}' not found");
            let value = parse(&mutated).expect("mutation keeps the JSON well-formed");
            let err = config_from_value(&value).expect_err(&format!(
                "draw {draw}: mutated key '{mutated_key}' must be rejected"
            ));
            assert!(
                err.contains(&mutated_key),
                "draw {draw}: rejection must name the unknown field, got '{err}'"
            );
        }
    }
    // The nested geometry keys get the same treatment.
    let encoded = config_to_json(&SweepConfig::default());
    for gkey in ["channels", "ranks", "banks", "rows_per_bank"] {
        let mutated = encoded.replace(&format!("\"{gkey}\":"), &format!("\"{gkey}_typo\":"));
        let value = parse(&mutated).expect("mutation keeps the JSON well-formed");
        let err = config_from_value(&value).expect_err("mutated geometry key must be rejected");
        assert!(
            err.contains(&format!("{gkey}_typo")),
            "rejection must name the unknown geometry field, got '{err}'"
        );
    }
}

/// The axes of a config and the value tokens each is filled from. The
/// first `n` tokens of a pool are values the decoder accepts, the shortest
/// first; the rest are hostile: 0, `u64::MAX + 1`, negative and
/// fractional counts, probabilities past 1 and below 0 or parsing to
/// infinity, unknown pattern names and values of the wrong type.
const AXES: [(&str, &[&str], usize); 4] = [
    (
        "hc_firsts",
        &[
            "1",
            "4096",
            "18446744073709551615",
            "0",
            "18446744073709551616",
            "-1",
            "1.5",
        ],
        3,
    ),
    (
        "sides",
        &[
            "2",
            "3",
            "8",
            "0",
            "1",
            "4096",
            "18446744073709551615",
            "-2",
        ],
        3,
    ),
    (
        "para_probabilities",
        &[
            "0",
            "1",
            "-0.0",
            "0.004",
            "4.9e-324",
            "1.0000001",
            "-0.001",
            "1e309",
        ],
        5,
    ),
    (
        "data_patterns",
        &[
            "\"solid\"",
            "\"legacy\"",
            "\"checkerboard\"",
            "\"rowstripe\"",
            "7",
            "\"zebra\"",
        ],
        4,
    ),
];

/// Scalar fields and their values, accepted ones first as above.
const SCALARS: [(&str, &[&str], usize); 5] = [
    (
        "seed",
        &["0", "1", "18446744073709551615", "18446744073709551616"],
        3,
    ),
    (
        "activations",
        &["1", "200000", "18446744073709551615", "0"],
        3,
    ),
    (
        "ecc_codeword_bits",
        &["0", "1", "128", "8192", "8193", "4294967296"],
        4,
    ),
    (
        "benign_fraction",
        &["0", "1", "0.1", "1.5", "-0.1", "1e309"],
        3,
    ),
    (
        "refresh_interval",
        &["0", "1", "32000", "18446744073709551615"],
        4,
    ),
];

/// Geometry dimensions; products reach past `MAX_TOTAL_ROWS` (2^24
/// rows), and the last two tokens past a dimension's range.
const GEOMETRY: (&[&str], usize) = (&["1", "2", "64", "4096", "16777216", "0", "4294967296"], 5);

/// The longest an axis of tokens of `token_len` bytes can be in a line at
/// the line bound, leaving room for the rest of the config.
fn max_axis_len(token_len: usize) -> usize {
    (MAX_LINE_BYTES - 1_024) / (token_len + 1)
}

fn pick<'a>(rng: &mut SplitMix64, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(pool.len() as u64) as usize]
}

/// `len` values drawn from `pool`: a chunk of up to 64 random tokens,
/// repeated, so a line near the bound is built at memcpy speed.
fn axis_values(rng: &mut SplitMix64, pool: &[&str], len: usize) -> String {
    let chunk: Vec<&str> = (0..len.min(64)).map(|_| pick(rng, pool)).collect();
    if chunk.is_empty() {
        return String::new();
    }
    let block = chunk.join(",");
    let rest = &chunk[..len % chunk.len()];
    let mut blocks = vec![block.as_str(); len / chunk.len()];
    blocks.extend(rest);
    blocks.join(",")
}

/// `len` distinct values of a numeric axis (none for the pattern axis):
/// lists that normalization cannot shrink, up to twice the axis cap.
fn distinct_values(axis: &str, len: usize) -> Option<String> {
    let value = |i: usize| match axis {
        "hc_firsts" => Some((i + 1).to_string()),
        "sides" => Some((i + 2).to_string()),
        "para_probabilities" => Some((i as f64 / len as f64).to_string()),
        _ => None,
    };
    (0..len)
        .map(value)
        .collect::<Option<Vec<_>>>()
        .map(|v| v.join(","))
}

/// Seeded fuzz over config values through the wire decoder
/// ([`config_from_value`]) and the planner ([`SweepPlan::from_config`]).
/// Axis lengths run from 0 to what a line at the 32 MiB bound can carry,
/// log-uniformly, with one case per axis at the bound, and lists of
/// distinct values run past the axis and cell caps; the other fields
/// take extreme values, from the accepted tokens only in half the cases.
/// No case may panic, each is refused or planned in under 2 s (a debug
/// build does a case in milliseconds), every planned case holds at most
/// `MAX_PLAN_CELLS` cells, and each of the three caps refuses some case.
#[test]
fn config_value_fuzz_is_refused_or_planned_within_the_caps() {
    let mut rng = SplitMix64::new(0xF022_CA95);
    let (mut planned, mut refused) = (0, 0);
    let mut refusals_by_cap = [0; 3];
    let caps = ["(MAX_JSON_VALUES)", "(MAX_AXIS_VALUES)", "(MAX_PLAN_CELLS)"];
    for case in 0..240 {
        let hostile = rng.gen_range(2) == 0;
        let draw = |rng: &mut SplitMix64, (pool, accepted): (&[&'static str], usize)| {
            pick(rng, if hostile { pool } else { &pool[..accepted] })
        };
        let mut fields = Vec::new();
        for (i, &(axis, pool, accepted)) in AXES.iter().enumerate() {
            // Cases 0-3 fill one axis with its shortest token up to the
            // line bound; otherwise an axis is omitted, short, or
            // log-uniform up to the bound.
            let (pool, len) = if case < 4 {
                if case != i {
                    continue;
                }
                (&pool[..1], max_axis_len(pool[0].len()))
            } else {
                let pool = if hostile { pool } else { &pool[..accepted] };
                let len = match rng.gen_range(5) {
                    0 => continue,
                    4 => {
                        let bits = rng.gen_range(u64::from((2 * MAX_AXIS_VALUES).ilog2()) + 1);
                        let len = rng.gen_range(1 << bits) as usize;
                        if let Some(values) = distinct_values(axis, len) {
                            fields.push(format!("\"{axis}\":[{values}]"));
                            continue;
                        }
                        len
                    }
                    1 => {
                        let longest = pool.iter().map(|t| t.len()).max().unwrap();
                        let max = max_axis_len(longest);
                        let bits = rng.gen_range(u64::from(max.ilog2()) + 1);
                        rng.gen_range(1 << bits) as usize
                    }
                    // Empty axes only in hostile cases.
                    _ => usize::from(!hostile) + rng.gen_range(8) as usize,
                };
                (pool, len)
            };
            let values = axis_values(&mut rng, pool, len);
            fields.push(format!("\"{axis}\":[{values}]"));
        }
        for (field, pool, accepted) in SCALARS {
            if rng.gen_range(2) == 0 {
                let value = draw(&mut rng, (pool, accepted));
                fields.push(format!("\"{field}\":{value}"));
            }
        }
        let mut dims = Vec::new();
        for dim in ["channels", "ranks", "banks", "rows_per_bank"] {
            if rng.gen_range(2) == 0 {
                let value = draw(&mut rng, GEOMETRY);
                dims.push(format!("\"{dim}\":{value}"));
            }
        }
        fields.push(format!("\"geometry\":{{{}}}", dims.join(",")));
        let line = format!("{{{}}}", fields.join(","));
        assert!(
            line.len() <= MAX_LINE_BYTES,
            "case {case}: {} bytes",
            line.len()
        );

        let start = Instant::now();
        let outcome = std::panic::catch_unwind(|| {
            let value = parse(&line)?;
            let plan = SweepPlan::from_config(&config_from_value(&value)?)?;
            Ok::<_, String>(plan.grid.len() + plan.para_sweep.len())
        });
        let took = start.elapsed();
        let head: String = line.chars().take(200).collect();
        let what = format!("case {case} ({} bytes): {head}", line.len());
        match outcome.unwrap_or_else(|_| panic!("{what} panicked")) {
            Ok(cells) => {
                assert!(cells <= MAX_PLAN_CELLS, "{what}: {cells} cells");
                planned += 1;
            }
            Err(e) => {
                if case < 4 {
                    assert!(e.contains("(MAX_"), "{what}: the refusal names no cap: {e}");
                }
                for (count, cap) in refusals_by_cap.iter_mut().zip(caps) {
                    *count += usize::from(e.contains(cap));
                }
                refused += 1;
            }
        }
        assert!(took < Duration::from_secs(2), "{what}: took {took:?}");
    }
    // Both outcomes are exercised, not just refusals.
    assert!(
        planned >= 20 && refused >= 20,
        "{planned} planned, {refused} refused"
    );
    assert!(
        refusals_by_cap.iter().all(|&n| n > 0),
        "{refusals_by_cap:?}"
    );
}
