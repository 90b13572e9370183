//! Forest-inference micro-bench: scalar pointer walk vs flat arena.
//!
//! Measures single-sample prediction latency for two Random Forest
//! inference paths over the same trained ensembles:
//!
//! - `scalar` — the original `Box`-node pointer walk
//!   (`RandomForest::predict_proba_reference`), kept as the parity
//!   oracle;
//! - `flat` — the struct-of-arrays `TreeArena` walk behind
//!   `RandomForest::predict_proba`.
//!
//! The grid is `n_trees` ∈ {10, 50, 100} × `max_depth` ∈ {8, 16}; every
//! cell reports nanoseconds per predicted sample (best of the
//! repetitions — the work is deterministic, so the minimum is the
//! measurement) and the speedup against `scalar` on the same ensemble.
//! Acceptance target: `flat` reaches at least 3× `scalar` at
//! `n_trees = 50`, `depth = 16` — the LRB/AQHI-sized configuration. The
//! achieved ratio is printed either way; hosts with small caches may sit
//! below the target and the line says so rather than flattering the
//! number.
//!
//! A second stage measures the query the engine actually makes: a
//! multi-label [`Predictor`] (four QoD labels, the LRB-sized forest)
//! answering one `predict_step` call per label and wave, as
//! `QodEngine::should_trigger` does. It reports waves/second and
//! nanoseconds per `predict_step` call, and persists both to
//! `BENCH_ml.json` at the repo root so the bench trajectory has a
//! machine-readable anchor.

use std::fs;
use std::path::Path;
use std::time::Instant;

use smartflux::{KnowledgeBase, ModelKind, Predictor};
use smartflux_ml::{Classifier, Dataset, RandomForest};

use crate::{heading, results_dir, write_csv};

/// One measured cell of the inference grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestInferenceRow {
    /// Ensemble size.
    pub n_trees: usize,
    /// Tree depth cap.
    pub depth: usize,
    /// Inference path (`scalar`, `flat`).
    pub path: String,
    /// Nanoseconds per predicted sample (best repetition).
    pub ns_per_predict: f64,
    /// Throughput relative to `scalar` on the same ensemble.
    pub speedup: f64,
}

/// Probe samples per measurement pass.
const PROBES: usize = 2_000;

/// splitmix64: deterministic synthetic data.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Training data with interacting signal, noise, and duplicated values,
/// so the fitted trees reach realistic depth and branchiness.
fn dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let a = (rng.next() % 1000) as f64 / 100.0;
        let b = (rng.next() % 100) as f64 / 10.0;
        let c = (rng.next() % 7) as f64;
        let d = (rng.next() % 1000) as f64 / 250.0;
        x.push(vec![a, b, c, d]);
        y.push(a + b * 0.5 > 7.5 || (c >= 4.0 && d > 2.0));
    }
    // tidy:allow(panic): bench harness aborts loudly on setup failure
    Dataset::new(x, y).expect("synthetic dataset is well-formed")
}

fn probes(n: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng(0xBEEF_CAFE);
    (0..n)
        .map(|_| {
            vec![
                (rng.next() % 1000) as f64 / 100.0,
                (rng.next() % 100) as f64 / 10.0,
                (rng.next() % 7) as f64,
                (rng.next() % 1000) as f64 / 250.0,
            ]
        })
        .collect()
}

/// Times `pass` over the probe block `reps` times and returns the best
/// (lowest) nanoseconds per sample. The probabilities are accumulated
/// into a checksum that is returned to the caller, so the compiler
/// cannot discard the prediction work.
fn best_ns_per_sample(reps: u32, n_samples: usize, mut pass: impl FnMut() -> f64) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut checksum = 0.0;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        checksum = pass();
        let ns = start.elapsed().as_nanos() as f64 / n_samples as f64;
        if ns < best {
            best = ns;
        }
    }
    (best, checksum)
}

/// Measures every `n_trees` × `depth` × path combination.
#[must_use]
pub fn measure(reps: u32) -> Vec<ForestInferenceRow> {
    let block = probes(PROBES);
    let data = dataset(600, 42);
    let mut rows = Vec::new();
    for n_trees in [10usize, 50, 100] {
        for depth in [8usize, 16] {
            let mut rf = RandomForest::new(n_trees)
                .with_max_depth(depth)
                .with_seed(7);
            // tidy:allow(panic): bench harness aborts loudly on setup failure
            rf.fit(&data).expect("bench forest fits");

            let (scalar_ns, scalar_sum) = best_ns_per_sample(reps, block.len(), || {
                block.iter().map(|p| rf.predict_proba_reference(p)).sum()
            });
            let (flat_ns, flat_sum) = best_ns_per_sample(reps, block.len(), || {
                block.iter().map(|p| rf.predict_proba(p)).sum()
            });
            // The two paths are bit-identical, so identical checksums
            // double as an in-bench parity assertion.
            assert!(
                scalar_sum == flat_sum,
                "inference paths diverged: {scalar_sum} / {flat_sum}"
            );

            for (path, ns) in [("scalar", scalar_ns), ("flat", flat_ns)] {
                rows.push(ForestInferenceRow {
                    n_trees,
                    depth,
                    path: path.to_owned(),
                    ns_per_predict: ns,
                    speedup: scalar_ns / ns,
                });
            }
        }
    }
    rows
}

/// Engine-facing measurement: a four-label [`Predictor`] with the
/// LRB-sized forest, queried once per label and wave through
/// `predict_step` — the engine's per-step trigger query.
///
/// Returns `(waves_per_sec, ns_per_predict_step)`.
#[must_use]
pub fn measure_predictor(reps: u32) -> (f64, f64) {
    const LABELS: usize = 4;
    let mut kb = KnowledgeBase::new((0..LABELS).map(|j| format!("step{j}")).collect());
    let mut rng = Rng(0x51AB_1E5E);
    for wave in 0..600u64 {
        let impacts: Vec<f64> = (0..LABELS)
            .map(|_| (rng.next() % 1000) as f64 / 1000.0)
            .collect();
        let labels: Vec<bool> = impacts.iter().map(|&i| i > 0.42).collect();
        // tidy:allow(panic): bench harness aborts loudly on setup failure
        kb.append(wave, impacts, labels).expect("well-shaped row");
    }
    let mut predictor = Predictor::new(
        ModelKind::RandomForest {
            trees: 50,
            max_depth: 16,
            threshold: 0.5,
        },
        17,
    );
    // tidy:allow(panic): bench harness aborts loudly on setup failure
    predictor.train(&kb).expect("bench predictor trains");

    let queries = probes(PROBES);
    let (ns_per_wave, decisions) = best_ns_per_sample(reps, queries.len(), || {
        queries
            .iter()
            .map(|q| {
                (0..LABELS)
                    // tidy:allow(panic): bench harness aborts loudly on a failed op
                    .filter(|&j| predictor.predict_step(j, q).expect("trained"))
                    .count() as f64
            })
            .sum()
    });
    // Not a parity check, only dead-code protection for the query loop.
    assert!(decisions >= 0.0, "query loop optimised away");
    (1e9 / ns_per_wave, ns_per_wave / LABELS as f64)
}

/// Writes the machine-readable bench anchor next to `tidy-ratchet.json`.
fn write_bench_json(waves_per_sec: f64, ns_per_label: f64, flat_speedup: f64) {
    let path = results_dir().join("..").join("BENCH_ml.json");
    let json = format!(
        "{{\n  \"schema\": 2,\n  \"bench\": \"forest_inference\",\n  \
         \"config\": {{ \"n_trees\": 50, \"depth\": 16, \"labels\": 4, \
         \"query\": \"predict_step\" }},\n  \
         \"waves_per_sec\": {waves_per_sec:.0},\n  \
         \"predict_ns_per_label\": {ns_per_label:.1},\n  \
         \"speedup_flat_vs_scalar\": {flat_speedup:.2}\n}}\n"
    );
    // tidy:allow(panic): bench harness aborts loudly on I/O failure
    fs::write(&path, json).expect("cannot write BENCH_ml.json");
    println!("  wrote {}", simplified(&path));
}

/// Display helper: collapses the `results/..` indirection in the path.
fn simplified(path: &Path) -> String {
    path.canonicalize()
        .map_or_else(|_| path.display().to_string(), |p| p.display().to_string())
}

/// The speedup of `path` over `scalar` at a grid cell.
fn speedup_at(rows: &[ForestInferenceRow], path: &str, n_trees: usize, depth: usize) -> f64 {
    rows.iter()
        .find(|r| r.path == path && r.n_trees == n_trees && r.depth == depth)
        .map_or(0.0, |r| r.speedup)
}

/// Runs the micro-bench and prints + persists the tables.
pub fn run() {
    heading("Forest inference — scalar vs flat arena");
    println!("acceptance: flat ≥ 3x scalar at n_trees=50, depth=16\n");
    let rows = measure(5);
    let mut csv = Vec::new();
    for r in &rows {
        println!(
            "  trees={:<4} depth={:<3} {:<8} {:>9.1} ns/predict  {:>6.2}x vs scalar",
            r.n_trees, r.depth, r.path, r.ns_per_predict, r.speedup
        );
        csv.push(format!(
            "{},{},{},{:.1},{:.3}",
            r.n_trees, r.depth, r.path, r.ns_per_predict, r.speedup
        ));
    }
    println!();
    let flat = speedup_at(&rows, "flat", 50, 16);
    println!(
        "  flat     at trees=50 depth=16: {flat:.2}x ({})",
        if flat >= 3.0 {
            "meets ≥3x"
        } else {
            "BELOW 3x"
        }
    );
    if flat < 3.0 {
        // Same reporting stance as store_scaling: print the honest number
        // and explain the regime rather than massage the measurement. A
        // 50-tree/depth-16 forest over 4 features is a few hundred KB of
        // nodes, so on this host the scalar baseline already runs mostly
        // out of L2 and the latency gap the interleaved walk hides is
        // small; the flat path wins by memory-level parallelism, which
        // grows with forest size (see the trees=100 rows) and with cache
        // pressure on larger hosts.
        println!(
            "  note: below-target cells are cache-resident on this host; \
             the gap widens with forest size."
        );
    }
    write_csv(
        "forest_inference.csv",
        "n_trees,depth,path,ns_per_predict,speedup_vs_scalar",
        &csv,
    );

    let (waves_per_sec, ns_per_label) = measure_predictor(5);
    println!(
        "\n  predictor (4 labels, trees=50 depth=16, predict_step per label): \
         {waves_per_sec:.0} waves/s, {ns_per_label:.1} ns per predict_step"
    );
    write_bench_json(waves_per_sec, ns_per_label, flat);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_cell_and_paths_agree() {
        let rows = measure(1);
        // 3 tree counts × 2 depths × 2 paths.
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(r.ns_per_predict > 0.0);
            assert!(r.speedup > 0.0);
        }
        // Scalar is its own baseline.
        for r in rows.iter().filter(|r| r.path == "scalar") {
            assert!((r.speedup - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn predictor_stage_reports_positive_throughput() {
        let (waves_per_sec, ns_per_label) = measure_predictor(1);
        assert!(waves_per_sec > 0.0);
        assert!(ns_per_label > 0.0);
    }
}
