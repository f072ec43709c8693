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

use rh_cli::proto::{config_from_value, config_hash, config_to_json, parse};
use rh_cli::SweepConfig;
use rh_core::{DataPattern, Geometry, SplitMix64, MAX_TOTAL_ROWS};

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
