//! Random Forests — the paper's default learning approach.

use std::num::NonZeroUsize;

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::arena::TreeArena;
use crate::codec;
use crate::dataset::Dataset;
use crate::error::MlError;
use crate::tree::DecisionTree;
use crate::Classifier;

/// Worker budget for [`RandomForest::fit`].
///
/// Training is deterministic at every setting: bootstrap samples are
/// drawn sequentially from the forest RNG before any tree is fitted and
/// per-tree feature-subsampling seeds derive from the tree index, so
/// `Fixed(1)` and `Auto` produce bit-identical forests — `Fixed(1)` is
/// kept for parity tests and single-core baselines, not correctness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TrainParallelism {
    /// One worker per available hardware thread (the default).
    #[default]
    Auto,
    /// Exactly `n` workers; `Fixed(1)` fits trees on the calling thread.
    Fixed(usize),
}

impl TrainParallelism {
    /// Resolved worker count (always ≥ 1).
    #[must_use]
    pub fn workers(self) -> usize {
        match self {
            Self::Auto => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            Self::Fixed(n) => n.max(1),
        }
    }
}

/// A Random Forest classifier: bagged decision trees with per-split feature
/// subsampling, as in Breiman 2001.
///
/// The paper adopts RF as SmartFlux's default classifier because "default
/// parameterization in RF often performs well"; the two knobs the paper
/// calls out for recall/precision trading — the number of trees and the
/// maximum tree depth — are exposed here, plus a decision threshold used by
/// SmartFlux to optimise for recall (fewer missed `maxε` violations at the
/// cost of extra executions).
///
/// # Example
///
/// ```
/// use smartflux_ml::{Classifier, Dataset, RandomForest};
///
/// let data = Dataset::new(
///     (0..40).map(|i| vec![i as f64, (40 - i) as f64]).collect(),
///     (0..40).map(|i| i >= 20).collect(),
/// ).unwrap();
/// let mut rf = RandomForest::new(15).with_seed(42);
/// rf.fit(&data).unwrap();
/// assert!(rf.predict(&[35.0, 5.0]));
/// assert!(!rf.predict(&[3.0, 37.0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    n_trees: usize,
    max_depth: usize,
    min_samples_split: usize,
    max_features: Option<usize>,
    threshold: f64,
    seed: u64,
    parallelism: TrainParallelism,
    trees: Vec<DecisionTree>,
    /// Flattened prediction arena, rebuilt from `trees` at every fit and
    /// decode; empty exactly when `trees` is empty.
    arena: TreeArena,
}

impl Default for RandomForest {
    fn default() -> Self {
        Self::new(50)
    }
}

impl RandomForest {
    /// A forest of `n_trees` trees with default depth (16) and `√d` feature
    /// subsampling.
    ///
    /// # Panics
    ///
    /// Panics if `n_trees` is zero.
    #[must_use]
    pub fn new(n_trees: usize) -> Self {
        assert!(n_trees > 0, "a forest needs at least one tree");
        Self {
            n_trees,
            max_depth: 16,
            min_samples_split: 2,
            max_features: None, // √d chosen at fit time
            threshold: 0.5,
            seed: 0,
            parallelism: TrainParallelism::Auto,
            trees: Vec::new(),
            arena: TreeArena::new(),
        }
    }

    /// Sets the maximum depth of every tree.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "max depth must be positive");
        self.max_depth = depth;
        self
    }

    /// Sets the number of features considered per split (default `√d`).
    #[must_use]
    pub fn with_max_features(mut self, k: usize) -> Self {
        self.max_features = Some(k.max(1));
        self
    }

    /// Sets the minimum number of instances required to split a node.
    #[must_use]
    pub fn with_min_samples_split(mut self, min: usize) -> Self {
        self.min_samples_split = min.max(2);
        self
    }

    /// Sets the probability threshold above which [`predict`] returns
    /// positive.
    ///
    /// Thresholds below 0.5 bias the model toward recall — SmartFlux uses
    /// this for workloads like LRB where missing a `maxε` violation is
    /// costlier than a wasted execution.
    ///
    /// [`predict`]: Classifier::predict
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `(0, 1)`.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold must be in (0, 1)"
        );
        self.threshold = threshold;
        self
    }

    /// Seeds bootstrap sampling and feature subsampling.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the training worker budget (default [`TrainParallelism::Auto`]).
    ///
    /// The fitted forest is bit-identical at every setting; see
    /// [`TrainParallelism`].
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: TrainParallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Number of trees in the (fitted or configured) ensemble.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.n_trees
    }

    /// The configured decision threshold.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The configured training worker budget.
    #[must_use]
    pub fn parallelism(&self) -> TrainParallelism {
        self.parallelism
    }

    /// The flattened prediction arena (empty before fitting).
    #[must_use]
    pub fn arena(&self) -> &TreeArena {
        &self.arena
    }

    /// Rebuilds the flat arena from the pointer trees. Every path that
    /// installs trees (fit, text/binary decode) calls this, so the two
    /// representations can never diverge.
    fn rebuild_arena(&mut self) {
        self.arena.clear();
        for tree in &self.trees {
            tree.flatten_into(&mut self.arena);
        }
    }

    /// The reference prediction path: per-tree `Box`-node pointer walks,
    /// averaged in ensemble order. Kept as the independent oracle for
    /// the parity suite and the scalar baseline of the
    /// `forest_inference` micro-bench; [`predict_proba`] serves the same
    /// values from the flat arena.
    ///
    /// Returns the 0.5 prior before fitting, like [`predict_proba`].
    ///
    /// [`predict_proba`]: Classifier::predict_proba
    #[must_use]
    pub fn predict_proba_reference(&self, features: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.5;
        }
        let sum: f64 = self.trees.iter().map(|t| t.predict_proba(features)).sum();
        sum / self.trees.len() as f64
    }
}

impl RandomForest {
    /// Split-frequency feature importance of the fitted forest: how often
    /// each feature was chosen as a split, normalised to sum to 1.
    ///
    /// Useful for diagnosing which steps' impacts actually drive a
    /// full-vector predictor. Returns `None` before fitting; returns a
    /// uniform vector when the forest is all leaves.
    #[must_use]
    pub fn feature_importance(&self, n_features: usize) -> Option<Vec<f64>> {
        if self.trees.is_empty() {
            return None;
        }
        let mut counts = vec![0.0; n_features];
        for tree in &self.trees {
            if let Some(text) = tree.to_text() {
                for line in text.lines() {
                    if let Some(rest) = line.strip_prefix("S ") {
                        if let Some(feature) = rest
                            .split_whitespace()
                            .next()
                            .and_then(|f| f.parse::<usize>().ok())
                        {
                            if feature < n_features {
                                counts[feature] += 1.0;
                            }
                        }
                    }
                }
            }
        }
        let total: f64 = counts.iter().sum();
        if total == 0.0 {
            return Some(vec![1.0 / n_features as f64; n_features]);
        }
        Some(counts.into_iter().map(|c| c / total).collect())
    }

    /// Serialises the fitted forest into a versioned text form.
    ///
    /// Returns `None` before fitting.
    #[must_use]
    pub fn to_text(&self) -> Option<String> {
        if self.trees.is_empty() {
            return None;
        }
        let mut out = format!(
            "forest v1 trees={} threshold={:e}\n",
            self.trees.len(),
            self.threshold
        );
        for tree in &self.trees {
            out.push_str("tree\n");
            out.push_str(&tree.to_text()?);
        }
        Some(out)
    }

    /// Reconstructs a fitted forest from its [`to_text`](Self::to_text)
    /// form.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first structural problem.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty forest text")?;
        let mut fields = header.split_whitespace();
        if fields.next() != Some("forest") || fields.next() != Some("v1") {
            return Err("bad forest header".into());
        }
        let mut n_trees = None;
        let mut threshold = 0.5;
        for field in fields {
            if let Some(v) = field.strip_prefix("trees=") {
                n_trees = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("bad tree count: {e}"))?,
                );
            } else if let Some(v) = field.strip_prefix("threshold=") {
                threshold = v.parse().map_err(|e| format!("bad threshold: {e}"))?;
            } else {
                return Err(format!("unknown header field `{field}`"));
            }
        }
        let n_trees = n_trees.ok_or("header missing tree count")?;
        if n_trees == 0 {
            return Err("forest must hold at least one tree".into());
        }
        if !(threshold > 0.0 && threshold < 1.0) {
            return Err(format!("threshold {threshold} out of range"));
        }

        // Split the remainder on "tree" sentinel lines.
        let mut chunks: Vec<String> = Vec::new();
        for line in lines {
            if line.trim() == "tree" {
                chunks.push(String::new());
            } else if let Some(current) = chunks.last_mut() {
                current.push_str(line);
                current.push('\n');
            } else if !line.trim().is_empty() {
                return Err("tree data before first `tree` sentinel".into());
            }
        }
        if chunks.len() != n_trees {
            return Err(format!(
                "header declared {n_trees} trees, found {}",
                chunks.len()
            ));
        }
        let trees = chunks
            .iter()
            .map(|c| DecisionTree::from_text(c))
            .collect::<Result<Vec<_>, _>>()?;
        let mut forest = Self {
            n_trees,
            max_depth: 16,
            min_samples_split: 2,
            max_features: None,
            threshold,
            seed: 0,
            parallelism: TrainParallelism::Auto,
            trees,
            arena: TreeArena::new(),
        };
        forest.rebuild_arena();
        Ok(forest)
    }

    /// Serialises the fitted forest into a versioned binary form.
    ///
    /// Unlike [`to_text`](Self::to_text), every `f64` travels as its exact
    /// IEEE-754 bit pattern, so [`from_bytes`](Self::from_bytes) restores
    /// a forest whose predictions are bit-identical — the property the
    /// engine checkpoint relies on for recovery determinism. Returns
    /// `None` before fitting.
    #[must_use]
    pub fn to_bytes(&self) -> Option<Vec<u8>> {
        if self.trees.is_empty() {
            return None;
        }
        let mut out = Vec::new();
        out.extend_from_slice(b"SFRF");
        codec::put_u16(&mut out, 1); // format version
        codec::put_f64(&mut out, self.threshold);
        codec::put_u32(&mut out, self.trees.len() as u32);
        for tree in &self.trees {
            if !tree.write_binary(&mut out) {
                return None;
            }
        }
        Some(out)
    }

    /// Reconstructs a fitted forest from its [`to_bytes`](Self::to_bytes)
    /// form. Training hyper-parameters not needed for prediction are
    /// restored to defaults, mirroring [`from_text`](Self::from_text).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::Decode`] describing the first structural
    /// problem; malformed bytes never panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, MlError> {
        let mut r = codec::Reader::new(bytes);
        let magic = r.slice(4, "forest magic")?;
        if magic != b"SFRF" {
            return Err(MlError::Decode("bad forest magic".into()));
        }
        let version = r.u16()?;
        if version != 1 {
            return Err(MlError::Decode(format!(
                "unsupported forest format version {version}"
            )));
        }
        let threshold = r.f64()?;
        if !(threshold > 0.0 && threshold < 1.0) {
            return Err(MlError::Decode(format!(
                "threshold {threshold} out of range"
            )));
        }
        let n_trees = r.u32()? as usize;
        if n_trees == 0 {
            return Err(MlError::Decode("forest must hold at least one tree".into()));
        }
        let mut trees = Vec::with_capacity(n_trees.min(4096));
        for _ in 0..n_trees {
            trees.push(DecisionTree::read_binary(&mut r)?);
        }
        if !r.is_exhausted() {
            return Err(MlError::Decode("trailing bytes after forest".into()));
        }
        // Decoded forests predict through the same flat arena as freshly
        // fitted ones: the checkpoint/recovery path must not fall back to
        // a different (if bit-identical) traversal strategy.
        let mut forest = Self {
            n_trees,
            max_depth: 16,
            min_samples_split: 2,
            max_features: None,
            threshold,
            seed: 0,
            parallelism: TrainParallelism::Auto,
            trees,
            arena: TreeArena::new(),
        };
        forest.rebuild_arena();
        Ok(forest)
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let k = self
            .max_features
            .unwrap_or_else(|| (data.n_features() as f64).sqrt().ceil() as usize)
            .max(1);
        // Bootstrap samples (with replacement) are drawn sequentially
        // from the single forest RNG *before* any tree is fitted,
        // preserving the historical draw order: tree `t` always receives
        // draws [t·n, (t+1)·n), no matter how many workers then fit the
        // trees. Per-tree feature subsampling is seeded from the tree
        // index, so the fitted ensemble is bit-identical at every
        // parallelism setting.
        let samples: Vec<Vec<usize>> = (0..self.n_trees)
            .map(|_| {
                (0..data.len())
                    .map(|_| rng.random_range(0..data.len()))
                    .collect()
            })
            .collect();

        let fit_one = |t: usize, sample: &[usize]| -> Result<DecisionTree, MlError> {
            let boot = data.subset(sample);
            let mut tree = DecisionTree::new()
                .with_max_depth(self.max_depth)
                .with_min_samples_split(self.min_samples_split)
                .with_max_features(k)
                .with_seed(self.seed.wrapping_add(t as u64).wrapping_mul(0x9E37_79B9));
            tree.fit(&boot)?;
            Ok(tree)
        };

        let workers = self.parallelism.workers().min(self.n_trees);
        let mut slots: Vec<Option<Result<DecisionTree, MlError>>> = Vec::new();
        slots.resize_with(self.n_trees, || None);
        if workers <= 1 {
            for (t, sample) in samples.iter().enumerate() {
                slots[t] = Some(fit_one(t, sample));
            }
        } else {
            // Contiguous chunks keep every worker's output slots disjoint;
            // scoped threads propagate worker panics at join, so no
            // channel plumbing or unwraps are needed.
            let per = self.n_trees.div_ceil(workers);
            std::thread::scope(|scope| {
                for (w, (sample_chunk, slot_chunk)) in
                    samples.chunks(per).zip(slots.chunks_mut(per)).enumerate()
                {
                    let fit_one = &fit_one;
                    scope.spawn(move || {
                        for (i, (sample, slot)) in
                            sample_chunk.iter().zip(slot_chunk.iter_mut()).enumerate()
                        {
                            *slot = Some(fit_one(w * per + i, sample));
                        }
                    });
                }
            });
        }

        let mut trees = Vec::with_capacity(self.n_trees);
        for slot in slots {
            match slot {
                Some(Ok(tree)) => trees.push(tree),
                Some(Err(e)) => return Err(e),
                // Unreachable — the chunked loops fill every slot — but
                // handled without panicking per the lib-code discipline.
                None => return Err(MlError::NotFitted),
            }
        }
        self.trees = trees;
        self.rebuild_arena();
        Ok(())
    }

    fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }

    /// Flat-arena traversal; see [`predict_proba_reference`] for the
    /// pointer-walk oracle it is parity-tested against.
    ///
    /// [`predict_proba_reference`]: RandomForest::predict_proba_reference
    fn predict_proba(&self, features: &[f64]) -> f64 {
        if self.arena.is_empty() {
            return 0.5; // the trait-level unfitted prior
        }
        self.arena.predict_proba(features)
    }

    fn predict(&self, features: &[f64]) -> bool {
        self.predict_proba(features) >= self.threshold
    }

    fn export_bytes(&self) -> Option<Vec<u8>> {
        self.to_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn banded() -> Dataset {
        // Positive iff x in [10, 20).
        Dataset::new(
            (0..30).map(|i| vec![i as f64]).collect(),
            (0..30).map(|i| (10..20).contains(&i)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn learns_a_band() {
        let mut rf = RandomForest::new(30).with_seed(1);
        rf.fit(&banded()).unwrap();
        assert!(rf.predict(&[15.0]));
        assert!(!rf.predict(&[25.0]));
        assert!(!rf.predict(&[5.0]));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = RandomForest::new(10).with_seed(99);
        let mut b = RandomForest::new(10).with_seed(99);
        a.fit(&banded()).unwrap();
        b.fit(&banded()).unwrap();
        for x in 0..30 {
            assert_eq!(a.predict_proba(&[x as f64]), b.predict_proba(&[x as f64]));
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let mut a = RandomForest::new(5).with_seed(1);
        let mut b = RandomForest::new(5).with_seed(2);
        a.fit(&banded()).unwrap();
        b.fit(&banded()).unwrap();
        let differs = (0..300)
            .map(|x| x as f64 / 10.0)
            .any(|x| a.predict_proba(&[x]) != b.predict_proba(&[x]));
        assert!(differs);
    }

    #[test]
    fn lower_threshold_is_more_recall_hungry() {
        let mut rf = RandomForest::new(20).with_seed(5);
        rf.fit(&banded()).unwrap();
        let p = rf.predict_proba(&[9.6]); // boundary region
        let strict = p >= 0.5;
        let recall_biased = p >= 0.2;
        // The recall-biased cut never predicts negative where strict said positive.
        assert!(recall_biased || !strict);
    }

    #[test]
    fn unfitted_returns_prior() {
        let rf = RandomForest::new(3);
        assert_eq!(rf.predict_proba(&[1.0]), 0.5);
    }

    #[test]
    fn unfitted_is_rejected_on_checked_paths() {
        let rf = RandomForest::new(3).with_threshold(0.2);
        assert!(!rf.is_fitted());
        // The trait-level prior (0.5) would cross the recall-tuned
        // threshold and read as a confident "execute"…
        assert!(rf.predict(&[1.0]));
        // …which is exactly why the checked paths refuse to answer.
        assert_eq!(rf.try_predict_proba(&[1.0]), Err(MlError::NotFitted));
        assert_eq!(rf.try_predict(&[1.0]), Err(MlError::NotFitted));
    }

    #[test]
    fn flat_path_matches_reference_walk() {
        let mut rf = RandomForest::new(25).with_seed(7);
        rf.fit(&banded()).unwrap();
        assert!(rf.is_fitted());
        assert_eq!(rf.arena().n_trees(), 25);
        for x in -10..40 {
            let probe = [f64::from(x)];
            assert_eq!(
                rf.predict_proba(&probe),
                rf.predict_proba_reference(&probe),
                "x={x}"
            );
        }
    }

    #[test]
    fn parallel_training_is_bit_identical() {
        let mut sequential = RandomForest::new(16)
            .with_seed(21)
            .with_parallelism(TrainParallelism::Fixed(1));
        let mut parallel = RandomForest::new(16)
            .with_seed(21)
            .with_parallelism(TrainParallelism::Fixed(4));
        sequential.fit(&banded()).unwrap();
        parallel.fit(&banded()).unwrap();
        // Tree-for-tree identity, not just equal predictions: the codec
        // serialises every node, so equal bytes mean equal forests.
        assert_eq!(sequential.to_bytes(), parallel.to_bytes());
        assert_eq!(TrainParallelism::Fixed(0).workers(), 1);
        assert!(TrainParallelism::Auto.workers() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let _ = RandomForest::new(0);
    }

    #[test]
    fn feature_importance_highlights_the_informative_feature() {
        // Feature 1 is pure noise; feature 0 carries the signal.
        let data = Dataset::new(
            (0..60)
                .map(|i| vec![i as f64, ((i * 7919) % 13) as f64])
                .collect(),
            (0..60).map(|i| i >= 30).collect(),
        )
        .unwrap();
        let mut rf = RandomForest::new(20).with_seed(3);
        rf.fit(&data).unwrap();
        let imp = rf.feature_importance(2).unwrap();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > imp[1], "importance {imp:?}");
        assert!(RandomForest::new(2).feature_importance(2).is_none());
    }

    #[test]
    fn text_roundtrip_preserves_predictions() {
        let mut rf = RandomForest::new(9).with_threshold(0.3).with_seed(2);
        rf.fit(&banded()).unwrap();
        let text = rf.to_text().unwrap();
        let restored = RandomForest::from_text(&text).unwrap();
        assert_eq!(restored.n_trees(), 9);
        assert_eq!(restored.threshold(), 0.3);
        for x in -10..40 {
            let probe = [f64::from(x)];
            assert_eq!(rf.predict_proba(&probe), restored.predict_proba(&probe));
            assert_eq!(rf.predict(&probe), restored.predict(&probe));
        }
        assert!(RandomForest::new(3).to_text().is_none());
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let mut rf = RandomForest::new(9).with_threshold(0.3).with_seed(2);
        rf.fit(&banded()).unwrap();
        let bytes = rf.to_bytes().unwrap();
        let restored = RandomForest::from_bytes(&bytes).unwrap();
        assert_eq!(restored.n_trees(), 9);
        assert_eq!(restored.threshold(), 0.3);
        // Bit-exact: the restored forest is the same PartialEq value up to
        // non-serialized training hyper-parameters, so probe predictions
        // must match everywhere.
        for x in -10..40 {
            let probe = [f64::from(x)];
            assert_eq!(rf.predict_proba(&probe), restored.predict_proba(&probe));
            assert_eq!(rf.predict(&probe), restored.predict(&probe));
        }
        // And the codec is stable: re-serialising reproduces the bytes.
        assert_eq!(restored.to_bytes().unwrap(), bytes);
        assert!(RandomForest::new(3).to_bytes().is_none());
        // export_bytes (the Classifier hook) is the same codec.
        assert_eq!(rf.export_bytes().unwrap(), bytes);
    }

    #[test]
    fn from_bytes_rejects_malformed_input() {
        assert!(matches!(
            RandomForest::from_bytes(b""),
            Err(MlError::Decode(_))
        ));
        assert!(RandomForest::from_bytes(b"NOPE").is_err());
        let mut rf = RandomForest::new(3).with_seed(1);
        rf.fit(&banded()).unwrap();
        let good = rf.to_bytes().unwrap();
        // Every truncation is rejected cleanly, never a panic.
        for cut in 0..good.len() {
            assert!(RandomForest::from_bytes(&good[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage is rejected too.
        let mut extended = good.clone();
        extended.push(0);
        assert!(RandomForest::from_bytes(&extended).is_err());
        // A version bump is refused rather than misread.
        let mut vbumped = good;
        vbumped[4] = 2;
        assert!(RandomForest::from_bytes(&vbumped).is_err());
    }

    #[test]
    fn from_text_rejects_malformed_input() {
        assert!(RandomForest::from_text("").is_err());
        assert!(RandomForest::from_text("forest v2 trees=1").is_err());
        assert!(RandomForest::from_text("forest v1 trees=2 threshold=0.5\ntree\nL 0.5\n").is_err());
        assert!(RandomForest::from_text("forest v1 trees=1 threshold=2.0\ntree\nL 0.5\n").is_err());
        assert!(RandomForest::from_text("forest v1 trees=1 threshold=0.5\nL 0.5\n").is_err());
    }

    #[test]
    fn probability_within_unit_interval() {
        let mut rf = RandomForest::new(17).with_seed(3);
        rf.fit(&banded()).unwrap();
        for x in -50..80 {
            let p = rf.predict_proba(&[x as f64]);
            assert!((0.0..=1.0).contains(&p), "p={p} out of range");
        }
    }
}
