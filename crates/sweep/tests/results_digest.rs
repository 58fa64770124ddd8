//! The results digest: the simulator's actual output on a small pinned
//! campaign, recorded next to the cache salt
//! ([`therm3d_sweep::cache::RESULTS_DIGEST`]).
//!
//! A change that moves any reported number changes the digest. The
//! test then fails and prints what to do: bump `ENGINE_VERSION` (so
//! cached results of the old semantics stop matching) and record the
//! digest it prints. A refactor that claims to change nothing proves it
//! by leaving this test green.

use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_sweep::cache::{cell_key, encode_line, fnv1a64, ENGINE_VERSION, RESULTS_DIGEST};
use therm3d_sweep::{from_toml, SweepSpec};
use therm3d_workload::Benchmark;

/// The four policies the paper's figures compare.
const PAPER_POLICIES: [PolicyKind; 4] =
    [PolicyKind::Default, PolicyKind::DvfsTt, PolicyKind::Adapt3d, PolicyKind::Migr];

/// The pinned campaign, in digest order:
/// - the scenario axes (stack order × TSV × sensor × 2 policies) on
///   EXP-1, from `examples/sweep_scenarios.toml` (10 s, 4×4);
/// - EXP-2..4 at 4×4 under the four paper policies, 20 s each;
/// - one 10 s cell each on EXP-3 and EXP-4 at 8×8, the paper-default
///   grid (n = 258 nodes).
fn pinned_campaign() -> Vec<SweepSpec> {
    let scenarios_toml = include_str!("../../../examples/sweep_scenarios.toml");
    let scenarios =
        from_toml(scenarios_toml).expect("examples/sweep_scenarios.toml parses").with_threads(0);
    let stacks = SweepSpec::new("digest-stacks")
        .with_experiments(&[Experiment::Exp2, Experiment::Exp3, Experiment::Exp4])
        .with_policies(&PAPER_POLICIES)
        .with_benchmarks(&[Benchmark::WebMed])
        .with_seeds(&[2009])
        .with_sim_seconds(20.0)
        .with_grid(4, 4)
        .with_threads(0);
    let paper_grid = SweepSpec::new("digest-paper-grid")
        .with_experiments(&[Experiment::Exp3, Experiment::Exp4])
        .with_policies(&[PolicyKind::Adapt3d])
        .with_benchmarks(&[Benchmark::WebMed])
        .with_seeds(&[2009])
        .with_sim_seconds(10.0)
        .with_grid(8, 8)
        .with_threads(0);
    vec![scenarios, stacks, paper_grid]
}

fn campaign_digest() -> u64 {
    let mut csv = String::new();
    let mut cells = 0;
    for spec in pinned_campaign() {
        let report = therm3d_sweep::run(&spec).expect("pinned campaign runs");
        cells += report.rows.len();
        csv.push_str(&report.csv());
        // The CSV rounds (temperatures to 0.01 °C); the cache encoding
        // of each result is bit-exact, so any moved bit shows.
        for row in &report.rows {
            csv.push_str(&encode_line(&cell_key(&spec, &row.cell), &row.result));
            csv.push('\n');
        }
    }
    assert_eq!(cells, 16 + 12 + 2, "the pinned campaign's shape is part of the digest");
    fnv1a64(csv.as_bytes())
}

#[test]
fn results_digest_matches_the_recorded_salt() {
    let digest = campaign_digest();
    let (recorded_salt, recorded_digest) = RESULTS_DIGEST;
    println!("results digest under {ENGINE_VERSION}: 0x{digest:016x}");
    if !cfg!(target_arch = "x86_64") {
        println!("results digest is pinned for x86_64 only; skipping the comparison");
        return;
    }
    assert_eq!(
        recorded_salt, ENGINE_VERSION,
        "ENGINE_VERSION was bumped: record the new digest in cache.rs as \
         RESULTS_DIGEST = (\"{ENGINE_VERSION}\", 0x{digest:016x})"
    );
    assert_eq!(
        digest, recorded_digest,
        "simulator results changed (digest 0x{digest:016x}, recorded 0x{recorded_digest:016x}) \
         without a salt bump: bump ENGINE_VERSION in crates/sweep/src/cache.rs, rerun this \
         test and record the digest it prints in RESULTS_DIGEST"
    );
}
