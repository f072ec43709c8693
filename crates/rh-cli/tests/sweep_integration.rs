//! End-to-end sweep tests over a reduced grid (kept small so the debug-mode
//! test suite stays fast).

use rh_cli::sweep::{DDR4_GRID_DIGEST, DEFAULT_SWEEP_DIGEST, FOUR_PATTERN_DIGEST};
use rh_cli::{json, run_sweep, RunResult, SweepConfig, SweepOutput, MODEL_ID};
use rh_core::{DataPattern, Geometry};

/// Reduced grid: 3 HC_first × (2 classic + 2 many-sided) × 5 mitigations,
/// two tREFW windows per cell.
fn small_config() -> SweepConfig {
    SweepConfig {
        seed: 0xBEEF,
        activations: 24_000,
        hc_firsts: vec![1_000, 2_000, 8_000],
        sides: vec![2, 8],
        para_probabilities: vec![0.0, 0.002, 0.008, 0.032],
        benign_fraction: 0.1,
        auto_refresh_interval: 12_000,
        geometry: Geometry::tiny(4096),
        ..SweepConfig::default()
    }
}

fn small_sweep() -> SweepOutput {
    run_sweep(&small_config(), 1).expect("small config is valid")
}

#[test]
fn sweep_covers_full_grid() {
    let out = small_sweep();
    // 3 HC_first x 4 workloads x 5 mitigations.
    assert_eq!(out.grid.len(), 3 * 4 * 5);
    let workloads: std::collections::HashSet<_> =
        out.grid.iter().map(|r| r.workload.clone()).collect();
    assert_eq!(workloads.len(), 4);
    let mitigations: std::collections::HashSet<_> =
        out.grid.iter().map(|r| r.mitigation.clone()).collect();
    assert!(mitigations.len() >= 5);
}

#[test]
fn threads_do_not_change_the_bytes() {
    // The per-worker device reuse (`reset_for_cell`) means different thread
    // counts split cells across workers differently — the bytes must still
    // be identical at every count (1, 2, and 8 exercise "one worker runs
    // everything", "workers see interleaved shards", and "more workers than
    // some shards").
    let cfg = small_config();
    let serial = json::render(&run_sweep(&cfg, 1).unwrap());
    for threads in [2, 8] {
        let sharded = json::render(&run_sweep(&cfg, threads).unwrap());
        assert_eq!(
            serial, sharded,
            "sweep at --threads {threads} must be byte-identical to serial"
        );
    }
}

#[test]
fn para_flips_monotone_and_actually_decreasing() {
    let out = small_sweep();
    assert!(out.para_monotone, "flips must be non-increasing in PARA p");
    let flips: Vec<u64> = out.para_sweep.iter().map(|r| r.total_flips).collect();
    assert!(
        flips.first().unwrap() > flips.last().unwrap(),
        "sweep must show a real decrease: {flips:?}"
    );
}

#[test]
fn unmitigated_flips_grow_as_hc_first_drops() {
    let out = small_sweep();
    // For the double-sided workload with no mitigation, a weaker device
    // (lower HC_first) must flip at least as many bits.
    let mut baseline: Vec<(u64, u64)> = out
        .grid
        .iter()
        .filter(|r| r.mitigation == "none" && r.workload.starts_with("double_sided"))
        .map(|r| (r.hc_first, r.total_flips))
        .collect();
    baseline.sort();
    assert_eq!(baseline.len(), 3);
    for pair in baseline.windows(2) {
        assert!(
            pair[0].1 >= pair[1].1,
            "lower HC_first must not flip fewer bits: {baseline:?}"
        );
    }
    assert!(baseline[0].1 > 0, "weakest device must flip under attack");
}

#[test]
fn mitigations_reduce_flips_versus_baseline() {
    let out = small_sweep();
    let hc = 1_000;
    let flips_of = |mit_prefix: &str| -> u64 {
        out.grid
            .iter()
            .filter(|r| {
                r.hc_first == hc
                    && r.workload.starts_with("double_sided")
                    && r.mitigation.starts_with(mit_prefix)
            })
            .map(|r| r.total_flips)
            .sum()
    };
    let none = flips_of("none");
    assert!(none > 0);
    assert!(flips_of("graphene") < none, "graphene must beat baseline");
    assert!(flips_of("refresh") < none, "refresh must beat baseline");
    assert!(
        flips_of("trr") < none,
        "TRR must hold against the double-sided attack it was designed for"
    );
}

/// The paper's (and TRRespass's) headline mitigation finding: deployed
/// small-table TRR collapses once many-sided patterns exceed its per-window
/// refresh budget at low HC_first, while an adequately provisioned Graphene
/// keeps the device flip-free under the identical stream.
#[test]
fn trr_collapses_under_many_sided_while_graphene_holds() {
    let out = small_sweep();
    let hc_min = *small_config().hc_firsts.iter().min().unwrap();
    let wide_cells: Vec<&RunResult> = out
        .grid
        .iter()
        .filter(|r| r.hc_first == hc_min && r.workload.starts_with("many_sided(n=8)"))
        .collect();
    assert!(!wide_cells.is_empty());
    let trr = wide_cells
        .iter()
        .find(|r| r.mitigation.starts_with("trr(k=16"))
        .expect("TRR cell present");
    assert!(
        trr.total_flips > 0,
        "16-entry TRR must fail under 8-sided hammering at HC_first={hc_min}"
    );
    let graphene = wide_cells
        .iter()
        .find(|r| r.mitigation.starts_with("graphene"))
        .expect("graphene cell present");
    assert_eq!(
        graphene.total_flips, 0,
        "adequately-sized graphene must keep the device flip-free"
    );
}

/// TRR's failure is HC_first-dependent: at the top of the axis one refresh
/// window cannot accumulate enough disturbance, so the same TRR that fails
/// on weak devices protects strong ones — the generational story.
#[test]
fn trr_failure_appears_only_at_low_hc_first() {
    let out = small_sweep();
    let trr_flips = |hc: u64| -> u64 {
        out.grid
            .iter()
            .filter(|r| {
                r.hc_first == hc
                    && r.workload.starts_with("many_sided(n=8)")
                    && r.mitigation.starts_with("trr")
            })
            .map(|r| r.total_flips)
            .sum()
    };
    assert!(trr_flips(1_000) > 0, "weak device must break TRR");
    assert_eq!(trr_flips(8_000), 0, "strong device must survive TRR-only");
}

#[test]
fn sweep_adapts_victim_to_small_geometries() {
    // The victim row is derived from the geometry, so a small bank must
    // run without panicking.
    let cfg = SweepConfig {
        activations: 2_000,
        hc_firsts: vec![500],
        geometry: Geometry::tiny(64),
        ..small_config()
    };
    let out = run_sweep(&cfg, 2).unwrap();
    assert_eq!(out.grid.len(), 4 * 5);
}

#[test]
fn output_config_reflects_executed_grid() {
    // Duplicate axis values collapse at normalization time, and the output
    // reports the normalized config — so a consumer can always derive the
    // grid shape from the config section.
    let cfg = SweepConfig {
        activations: 1_000,
        hc_firsts: vec![500, 500, 800],
        sides: vec![4, 4],
        para_probabilities: vec![0.01, 0.0, 0.01],
        geometry: Geometry::tiny(64),
        ..small_config()
    };
    let out = run_sweep(&cfg, 2).unwrap();
    assert_eq!(out.config.hc_firsts, vec![500, 800]);
    assert_eq!(out.config.sides, vec![4]);
    assert_eq!(out.config.para_probabilities, vec![0.0, 0.01]);
    assert_eq!(out.grid.len(), 2 * 3 * 5);
    assert_eq!(out.para_sweep.len(), 2);
}

#[test]
fn invalid_configs_are_rejected_not_paniced() {
    let mut cfg = small_config();
    cfg.activations = 0;
    assert!(run_sweep(&cfg, 1).is_err());

    let mut cfg = small_config();
    cfg.sides = vec![4096];
    assert!(run_sweep(&cfg, 1).is_err(), "oversized pattern must error");

    let mut cfg = small_config();
    cfg.para_probabilities.clear();
    assert!(run_sweep(&cfg, 1).is_err());
}

/// A config exercising the Section 5 axes: every data pattern plus on-die
/// ECC, on the unmitigated low-HC corner so flips actually occur.
fn victim_model_config() -> SweepConfig {
    SweepConfig {
        activations: 24_000,
        hc_firsts: vec![1_000],
        sides: vec![8],
        data_patterns: vec![
            DataPattern::Legacy,
            DataPattern::Solid,
            DataPattern::Checkerboard,
            DataPattern::RowStripe,
        ],
        ecc_codeword_bits: 128,
        ..small_config()
    }
}

#[test]
fn default_axes_emit_no_victim_model_fields() {
    // The acceptance contract's test half: a default-axes document must not
    // contain any of the new fields (the byte-for-byte comparison against
    // the pre-PR binary is run in CI / during development).
    let doc = json::render(&small_sweep());
    for field in [
        "data_pattern",
        "flips_1to0",
        "flips_0to1",
        "post_ecc_flips",
        "ecc_codeword_bits",
    ] {
        assert!(!doc.contains(field), "default sweep leaked '{field}'");
    }
}

#[test]
fn victim_model_sweep_is_thread_invariant_and_reports_new_fields() {
    let cfg = victim_model_config();
    let serial = json::render(&run_sweep(&cfg, 1).unwrap());
    let sharded = json::render(&run_sweep(&cfg, 8).unwrap());
    assert_eq!(serial, sharded, "extended axes must stay byte-identical");
    assert!(serial
        .contains("\"data_patterns\": [\"legacy\", \"solid\", \"checkerboard\", \"rowstripe\"]"));
    assert!(serial.contains("\"ecc_codeword_bits\": 128"));
    assert!(serial.contains("\"data_pattern\": \"rowstripe\""));
    assert!(serial.contains("\"flips_1to0\""));
    assert!(serial.contains("\"post_ecc_flips\""));
}

#[test]
fn data_pattern_ordering_matches_section_5() {
    let out = run_sweep(&victim_model_config(), 2).unwrap();
    let unmitigated_flips = |pattern: &str| -> u64 {
        out.grid
            .iter()
            .filter(|r| r.mitigation == "none" && r.data_pattern == pattern)
            .map(|r| r.total_flips)
            .sum()
    };
    let legacy = unmitigated_flips("legacy");
    let solid = unmitigated_flips("solid");
    let stripe = unmitigated_flips("rowstripe");
    assert!(legacy > 0 && stripe > 0);
    // Solid (uniform data, weakest coupling, only true-cell rows charged)
    // must flip strictly less than the pattern-agnostic model; the
    // worst-case row-stripe must beat solid — the paper's Section 5.1
    // ordering.
    assert!(
        solid < legacy,
        "solid ({solid}) must flip less than legacy ({legacy})"
    );
    assert!(
        stripe > solid,
        "rowstripe ({stripe}) must flip more than solid ({solid})"
    );
}

#[test]
fn flip_directions_partition_totals_and_follow_orientation() {
    let out = run_sweep(&victim_model_config(), 2).unwrap();
    for r in &out.grid {
        assert_eq!(
            r.flips_1to0 + r.flips_0to1,
            r.total_flips,
            "direction split must partition total flips in {}/{}/{}",
            r.data_pattern,
            r.workload,
            r.mitigation
        );
        if r.data_pattern == "solid" {
            // All-1s data can only discharge true-cells: 1→0 exclusively.
            assert_eq!(r.flips_0to1, 0, "solid produced 0→1 flips");
        }
    }
    // The striped pattern flips in both directions somewhere in the grid.
    let stripe_0to1: u64 = out
        .grid
        .iter()
        .filter(|r| r.data_pattern == "rowstripe")
        .map(|r| r.flips_0to1)
        .sum();
    assert!(stripe_0to1 > 0, "rowstripe never flipped an anti-cell row");
}

#[test]
fn ecc_masks_flips_but_never_adds_them() {
    let out = run_sweep(&victim_model_config(), 2).unwrap();
    let mut some_masking = false;
    for r in &out.grid {
        let post = r
            .post_ecc_flips
            .expect("ECC enabled: every cell reports a post-ECC count");
        assert!(
            post <= r.total_flips,
            "ECC added flips in {}/{}/{}",
            r.data_pattern,
            r.workload,
            r.mitigation
        );
        if post < r.total_flips {
            some_masking = true;
        }
    }
    assert!(some_masking, "ECC never corrected anything across the grid");
}

#[test]
fn sweep_is_deterministic() {
    let a = run_sweep(&small_config(), 1).unwrap();
    let b = run_sweep(&small_config(), 1).unwrap();
    let fa: Vec<u64> = a.grid.iter().map(|r| r.total_flips).collect();
    let fb: Vec<u64> = b.grid.iter().map(|r| r.total_flips).collect();
    assert_eq!(fa, fb);
}

/// The default `sweep` document is the simulator's byte-identical fixed
/// point: every change to the engine, the device model or the renderer must
/// reproduce it exactly. The pinned value is the FNV-1a 64 digest of the
/// document without its trailing newline, the same digest the benchmark's
/// `sweep-default` canary checks. The three pinned digests are the inputs
/// of `MODEL_ID`, so re-pinning any of them moves the model id.
#[test]
fn default_sweep_document_is_pinned() {
    let digest = document_digest(&SweepConfig::default());
    assert_eq!(digest, DEFAULT_SWEEP_DIGEST, "digest {digest:#018x}");
}

/// FNV-1a 64 of the rendered sweep document without its trailing newline.
fn document_digest(cfg: &SweepConfig) -> u64 {
    let doc = json::render(&run_sweep(cfg, 2).expect("valid config"));
    fnv1a64(doc.trim_end_matches('\n').bytes())
}

fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `MODEL_ID` is the FNV-1a fold of the three pinned digests'
/// little-endian bytes, in pin order: a literal id, or one that left a
/// digest out, fails here.
#[test]
fn model_id_is_the_fold_of_the_pinned_digests() {
    let digests = [DEFAULT_SWEEP_DIGEST, DDR4_GRID_DIGEST, FOUR_PATTERN_DIGEST];
    let fold = fnv1a64(digests.iter().flat_map(|d| d.to_le_bytes()));
    assert_eq!(MODEL_ID, fold, "MODEL_ID {MODEL_ID:#018x}");
}

/// The Section-5 document on a DDR4-class device: 16 banks × 32K rows,
/// `HC_first` down to 128, legacy and rowstripe patterns under 128-bit ECC.
/// Where the default pin covers a cache-resident 16K-row device with the
/// Section 5 axes off, this one covers what only the large geometry and
/// those axes reach: each thread's one device reset across cells of six
/// table sets (every earlier cell's charges must read as stale), rowstripe
/// coupling, the ECC scan, and post-ECC counts derived along the
/// `HC_first` axis from each unit's peak record. The activation budget is cut to 40 000 per
/// cell so a debug build runs it in seconds; the digest is the same in
/// debug and release builds.
#[test]
fn ddr4_reference_document_is_pinned() {
    let cfg = SweepConfig {
        seed: 0xBE7C4,
        activations: 40_000,
        hc_firsts: vec![4096, 512, 128],
        sides: vec![8],
        para_probabilities: vec![0.004],
        data_patterns: vec![DataPattern::Legacy, DataPattern::RowStripe],
        ecc_codeword_bits: 128,
        benign_fraction: 0.1,
        auto_refresh_interval: 32_000,
        geometry: Geometry {
            channels: 1,
            ranks: 1,
            banks: 16,
            rows_per_bank: 32 * 1024,
        },
    };
    let digest = document_digest(&cfg);
    assert_eq!(digest, DDR4_GRID_DIGEST, "digest {digest:#018x}");
}

/// The default grid over all four data patterns under 128-bit ECC, at 40K
/// activations per cell: 484 cells that fold into 69 engine passes and 267
/// device simulations — each grid pass replays its device calls into three
/// other patterns' devices, and each device derives the other `HC_first`
/// values from its peak record.
/// The digest is the one the simulator produced before the data-pattern
/// fold, when every pattern ran its own engine pass, so it pins replay to
/// those bytes; it is the same in debug and release builds.
#[test]
fn four_pattern_document_is_pinned() {
    let cfg = SweepConfig {
        data_patterns: vec![
            DataPattern::Legacy,
            DataPattern::Solid,
            DataPattern::Checkerboard,
            DataPattern::RowStripe,
        ],
        ecc_codeword_bits: 128,
        activations: 40_000,
        ..SweepConfig::default()
    };
    let digest = document_digest(&cfg);
    assert_eq!(digest, FOUR_PATTERN_DIGEST, "digest {digest:#018x}");
}

/// A reader that has gone away is an error, not a crash: with its stdout
/// already closed (`rh-cli sweep | head -c 10` once `head` exits), every
/// command that prints — a document or the help — exits 1 with an
/// `error:` line naming stdout, and nothing panics.
#[test]
fn closed_stdout_is_an_error_not_a_panic() {
    let bin = env!("CARGO_BIN_EXE_rh-cli");
    for args in [
        &[
            "sweep",
            "--activations",
            "2000",
            "--hc",
            "500",
            "--sides",
            "2",
        ][..],
        &[
            "configure",
            "--hc",
            "64",
            "--window",
            "1000",
            "--target-pfail",
            "0.01",
        ],
        &["--help"],
    ] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = std::process::Command::new(bin)
            .args(args)
            .stdout(writer)
            .output()
            .expect("run rh-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("error: stdout:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// A closed stderr costs the message, not the exit code: with the reader
/// of its stderr gone, a command that fails on its arguments (a bad flag
/// on `sweep` or `serve`, `submit` without `--connect`, an unknown
/// command) or while running (a worker whose connect is refused) exits 1.
/// Before, writing the `error:` line panicked and the exit code was 101.
#[test]
fn closed_stderr_costs_the_message_not_the_exit_code() {
    let bin = env!("CARGO_BIN_EXE_rh-cli");
    let refused = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("bound").to_string()
    };
    for args in [
        &["sweep", "--bogus"][..],
        &["serve", "--bogus"],
        &["submit"],
        &["frobnicate"],
        &["worker", "--connect", refused.as_str()],
    ] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let status = std::process::Command::new(bin)
            .args(args)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(writer)
            .status()
            .expect("run rh-cli");
        assert_eq!(status.code(), Some(1), "{args:?}");
    }
}
