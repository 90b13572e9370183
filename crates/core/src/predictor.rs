//! The Predictor component: multi-label classification of execution
//! configurations.

use std::fmt;
use std::time::{Duration, Instant};

use smartflux_ml::crossval::cross_validate;
use smartflux_ml::metrics::ConfusionMatrix;
use smartflux_ml::{
    Classifier, DecisionTree, GaussianNaiveBayes, LinearSvm, LogisticRegression, MultiLabelDataset,
    NeuralNetwork, RandomForest,
};
use smartflux_telemetry::{names, Telemetry};

use crate::error::CoreError;
use crate::knowledge::KnowledgeBase;

/// Which classification algorithm the predictor builds per label.
///
/// The paper compares six algorithms (§3.2) and defaults to Random Forest;
/// all six are available here and can be switched freely.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelKind {
    /// Random Forest (the default). `threshold < 0.5` optimises for recall.
    RandomForest {
        /// Number of trees ("maximum number of trees to be generated").
        trees: usize,
        /// Maximum tree depth ("maximum depth of the trees").
        max_depth: usize,
        /// Decision threshold; lower favours recall over precision.
        threshold: f64,
    },
    /// A single CART decision tree (the J48 stand-in).
    DecisionTree,
    /// Logistic regression.
    Logistic,
    /// Gaussian naive Bayes (the Bayes-network stand-in).
    NaiveBayes,
    /// A linear SVM (Pegasos).
    Svm,
    /// A kernelised SVM (RBF by default, kernel Pegasos).
    KernelSvm,
    /// A one-hidden-layer MLP.
    NeuralNetwork {
        /// Hidden units.
        hidden: usize,
    },
}

impl Default for ModelKind {
    fn default() -> Self {
        ModelKind::RandomForest {
            trees: 60,
            max_depth: 12,
            threshold: 0.5,
        }
    }
}

impl ModelKind {
    /// The paper's recall-optimised Random Forest configuration, used for
    /// the LRB workload where `maxε` violations are costlier than wasted
    /// executions.
    #[must_use]
    pub fn recall_optimised() -> Self {
        ModelKind::RandomForest {
            trees: 80,
            max_depth: 14,
            threshold: 0.3,
        }
    }

    /// Instantiates an untrained classifier of this kind.
    #[must_use]
    pub fn build(&self, seed: u64) -> Box<dyn Classifier> {
        match *self {
            ModelKind::RandomForest {
                trees,
                max_depth,
                threshold,
            } => Box::new(
                RandomForest::new(trees)
                    .with_max_depth(max_depth)
                    .with_threshold(threshold)
                    .with_seed(seed),
            ),
            ModelKind::DecisionTree => Box::new(DecisionTree::new()),
            ModelKind::Logistic => Box::new(LogisticRegression::new()),
            ModelKind::NaiveBayes => Box::new(GaussianNaiveBayes::new()),
            ModelKind::Svm => Box::new(LinearSvm::new().with_seed(seed)),
            ModelKind::KernelSvm => Box::new(smartflux_ml::KernelSvm::rbf().with_seed(seed)),
            ModelKind::NeuralNetwork { hidden } => {
                Box::new(NeuralNetwork::new(hidden).with_seed(seed))
            }
        }
    }
}

/// Which features each per-label classifier sees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FeatureMode {
    /// Label `j`'s classifier sees only step `j`'s own input impact.
    ///
    /// This is the default: under adaptive execution a step's neighbours
    /// stop producing output whenever they are skipped, so their impact
    /// features collapse to zero — a region the synchronous training run
    /// never visits. Conditioning each label only on its own impact keeps
    /// the training and application feature distributions aligned and
    /// avoids the all-steps-deadlocked failure mode.
    #[default]
    OwnImpact,
    /// Label `j`'s classifier sees the full impact vector (the literal
    /// `h(X) = Y` formulation of §3.1).
    FullVector,
}

/// Test-phase quality of a trained predictor, pooled across labels by
/// 10-fold cross-validation (§3.2 "Test Phase").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorQuality {
    /// Proportion of instances correctly classified.
    pub accuracy: f64,
    /// Of the predicted executions, how many were truly needed.
    pub precision: f64,
    /// Of the truly needed executions, how many were predicted.
    pub recall: f64,
}

/// The Predictor: one classifier per QoD step over the shared impact
/// feature vector, with test-phase quality assessment.
///
/// # Example
///
/// ```
/// use smartflux::{KnowledgeBase, Predictor, ModelKind};
///
/// let mut kb = KnowledgeBase::new(vec!["s".into()]);
/// for w in 0..40 {
///     // The step must execute when its accumulated impact is large.
///     kb.append(w, vec![(w % 8) as f64], vec![w % 8 >= 5]).unwrap();
/// }
/// let mut p = Predictor::new(ModelKind::default(), 7);
/// let quality = p.train(&kb).unwrap();
/// assert!(quality.accuracy > 0.9);
/// assert_eq!(p.predict(&[7.0]).unwrap(), vec![true]);
/// assert_eq!(p.predict(&[0.0]).unwrap(), vec![false]);
/// ```
pub struct Predictor {
    kind: ModelKind,
    seed: u64,
    cv_folds: usize,
    feature_mode: FeatureMode,
    models: Vec<Box<dyn Classifier>>,
    quality: Option<PredictorQuality>,
    last_build_time: Option<Duration>,
    /// Inert (disabled) unless the owning engine attaches a handle; feeds
    /// the `ml.predict_ns` / `ml.fit_ns` instruments.
    telemetry: Telemetry,
}

impl Predictor {
    /// Creates an untrained predictor using `kind` models.
    #[must_use]
    pub fn new(kind: ModelKind, seed: u64) -> Self {
        Self {
            kind,
            seed,
            cv_folds: 10,
            feature_mode: FeatureMode::default(),
            models: Vec::new(),
            quality: None,
            last_build_time: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; the predictor then feeds the
    /// ML-kernel instruments (`ml.predict_ns`, `ml.fit_ns`).
    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Sets the number of cross-validation folds used by the test phase
    /// (default 10, clamped to the dataset size at train time).
    ///
    /// # Panics
    ///
    /// Panics if `folds < 2`.
    #[must_use]
    pub fn with_cv_folds(mut self, folds: usize) -> Self {
        assert!(folds >= 2, "need at least two folds");
        self.cv_folds = folds;
        self
    }

    /// Selects which features each per-label classifier sees.
    #[must_use]
    pub fn with_feature_mode(mut self, mode: FeatureMode) -> Self {
        self.feature_mode = mode;
        self
    }

    /// The feature mode in use.
    #[must_use]
    pub fn feature_mode(&self) -> FeatureMode {
        self.feature_mode
    }

    /// Projects the shared impact vector into the features label `j`'s
    /// classifier consumes.
    ///
    /// Returns a borrow into `impacts` — the per-wave query path makes one
    /// projection per label, so allocating here would put a `Vec` on the
    /// hot path of every decision.
    fn project<'a>(&self, j: usize, impacts: &'a [f64]) -> &'a [f64] {
        match self.feature_mode {
            FeatureMode::OwnImpact => &impacts[j..=j],
            FeatureMode::FullVector => impacts,
        }
    }

    /// Rejects queries an untrained or wrong-width model cannot answer.
    ///
    /// Both feature modes consume an `n_labels`-wide impact vector (each
    /// label projects its own slice out of it), so the width check is
    /// mode-independent.
    fn check_query(&self, impacts: &[f64]) -> Result<(), CoreError> {
        if self.models.is_empty() {
            return Err(CoreError::NotTrained);
        }
        if impacts.len() != self.models.len() {
            return Err(CoreError::ShapeMismatch {
                expected: self.models.len(),
                found: impacts.len(),
            });
        }
        Ok(())
    }

    /// Builds the single-label training view for label `j`.
    fn label_view(
        &self,
        data: &MultiLabelDataset,
        j: usize,
    ) -> Result<smartflux_ml::Dataset, CoreError> {
        match self.feature_mode {
            FeatureMode::FullVector => Ok(data.binary_view(j)?),
            FeatureMode::OwnImpact => {
                let x: Vec<Vec<f64>> = data.x().iter().map(|r| vec![r[j]]).collect();
                let y = data.label_column(j)?;
                Ok(smartflux_ml::Dataset::new(x, y)?)
            }
        }
    }

    /// Returns `true` once a model has been trained.
    #[must_use]
    pub fn is_trained(&self) -> bool {
        !self.models.is_empty()
    }

    /// The model kind in use.
    #[must_use]
    pub fn kind(&self) -> &ModelKind {
        &self.kind
    }

    /// Quality measured at the latest training, if any.
    #[must_use]
    pub fn quality(&self) -> Option<PredictorQuality> {
        self.quality
    }

    /// Wall-clock time the latest model build took (§5.3 reports this as
    /// the dominant — yet sub-second — overhead).
    #[must_use]
    pub fn last_build_time(&self) -> Option<Duration> {
        self.last_build_time
    }

    /// Trains one model per QoD step from the knowledge base and runs the
    /// test phase (k-fold cross-validation pooled across labels).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientTraining`] for logs smaller than
    /// the fold count and propagates training failures.
    pub fn train(&mut self, kb: &KnowledgeBase) -> Result<PredictorQuality, CoreError> {
        let data = kb.to_dataset()?;
        if data.len() < 4 {
            return Err(CoreError::InsufficientTraining {
                have: data.len(),
                need: 4,
            });
        }
        // tidy:allow(time): measures model build latency (Table 2), which is
        // reported, never replayed
        let start = Instant::now();
        let quality = self.assess(&data)?;

        // The fit span covers only the kernel work (per-label model
        // fitting), not the cross-validated test phase above — `ml.fit_ns`
        // answers "how long does (re)building the models take", the
        // engine-level `engine.train` span covers the whole phase.
        let fit_span = self
            .telemetry
            .span(names::ML_FIT_LATENCY, data.n_labels() as u64);
        let mut models = Vec::with_capacity(data.n_labels());
        for j in 0..data.n_labels() {
            let view = self.label_view(&data, j)?;
            let mut model = self.kind.build(self.seed.wrapping_add(j as u64));
            model.fit(&view)?;
            models.push(model);
        }
        drop(fit_span);
        self.models = models;
        self.quality = Some(quality);
        self.last_build_time = Some(start.elapsed());
        Ok(quality)
    }

    /// Runs the test phase only: k-fold CV per label, pooled.
    fn assess(&self, data: &MultiLabelDataset) -> Result<PredictorQuality, CoreError> {
        let folds = self.cv_folds.min(data.len() / 2).max(2);
        let mut pooled = ConfusionMatrix::default();
        for j in 0..data.n_labels() {
            let view = self.label_view(data, j)?;
            let seed = self.seed.wrapping_add(j as u64);
            let result = cross_validate(&view, folds, seed, || self.kind.build(seed))?;
            pooled.merge(&result.confusion);
        }
        Ok(PredictorQuality {
            accuracy: pooled.accuracy(),
            precision: pooled.precision(),
            recall: pooled.recall(),
        })
    }

    /// Predicts which steps must execute for the given impact vector
    /// (`true` = the step's error bound would otherwise be exceeded): the
    /// paper's `h(X) = Y` query of §3.1, every label model walked over one
    /// impact vector. Each label projects its feature slice out of the
    /// shared vector without copying.
    ///
    /// Queries go through the checked `try_predict` path — a present but
    /// unfitted model is rejected like an absent one, never answered
    /// from the 0.5 prior.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before training (or when any
    /// per-label model is unfitted) and [`CoreError::ShapeMismatch`] on
    /// a wrong-width impact vector.
    pub fn predict(&self, impacts: &[f64]) -> Result<Vec<bool>, CoreError> {
        self.check_query(impacts)?;
        let _span = self
            .telemetry
            .span(names::ML_PREDICT_LATENCY, self.models.len() as u64);
        let mut decisions = Vec::with_capacity(self.models.len());
        for (j, m) in self.models.iter().enumerate() {
            decisions.push(
                m.try_predict(self.project(j, impacts))
                    .map_err(|_| CoreError::NotTrained)?,
            );
        }
        Ok(decisions)
    }

    /// Predicts the execution decision for a single step (label index `j`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before training (or when the
    /// model is unfitted) and [`CoreError::ShapeMismatch`] for an
    /// unknown label index or wrong-width impact vector.
    pub fn predict_step(&self, j: usize, impacts: &[f64]) -> Result<bool, CoreError> {
        self.check_query(impacts)?;
        let model = self.models.get(j).ok_or(CoreError::ShapeMismatch {
            expected: self.models.len(),
            found: j,
        })?;
        let _span = self.telemetry.span(names::ML_PREDICT_LATENCY, j as u64);
        model
            .try_predict(self.project(j, impacts))
            .map_err(|_| CoreError::NotTrained)
    }

    /// Serialises every trained per-label model into its binary form, for
    /// engine checkpoints. Returns `None` if the predictor is untrained or
    /// any model kind lacks a binary codec (such predictors are restored
    /// by deterministic retraining from the checkpointed knowledge base).
    pub(crate) fn export_models(&self) -> Option<Vec<Vec<u8>>> {
        if self.models.is_empty() {
            return None;
        }
        self.models.iter().map(Classifier::export_bytes).collect()
    }

    /// Installs models deserialized from a checkpoint, together with the
    /// quality measured when they were originally trained. The build-time
    /// measurement does not survive recovery (it is reporting-only).
    pub(crate) fn restore_models(
        &mut self,
        models: Vec<Box<dyn Classifier>>,
        quality: Option<PredictorQuality>,
    ) {
        self.models = models;
        self.quality = quality;
        self.last_build_time = None;
    }
}

impl fmt::Debug for Predictor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Predictor")
            .field("kind", &self.kind)
            .field("trained", &self.is_trained())
            .field("quality", &self.quality)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb_two_steps() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new(vec!["a".into(), "b".into()]);
        for w in 0..60 {
            let ia = (w % 10) as f64;
            let ib = (w % 6) as f64;
            kb.append(w, vec![ia, ib], vec![ia >= 6.0, ib >= 4.0])
                .unwrap();
        }
        kb
    }

    #[test]
    fn trains_and_predicts_per_step() {
        let mut p = Predictor::new(ModelKind::default(), 3);
        let q = p.train(&kb_two_steps()).unwrap();
        assert!(q.accuracy > 0.9, "accuracy {}", q.accuracy);
        assert_eq!(p.predict(&[9.0, 0.0]).unwrap(), vec![true, false]);
        assert_eq!(p.predict(&[0.0, 5.0]).unwrap(), vec![false, true]);
        assert!(p.predict_step(0, &[9.0, 0.0]).unwrap());
        assert!(p.last_build_time().is_some());
    }

    #[test]
    fn untrained_prediction_fails() {
        let p = Predictor::new(ModelKind::default(), 0);
        assert!(matches!(p.predict(&[1.0]), Err(CoreError::NotTrained)));
        assert!(!p.is_trained());
    }

    #[test]
    fn tiny_log_is_rejected() {
        let mut kb = KnowledgeBase::new(vec!["a".into()]);
        kb.append(1, vec![1.0], vec![true]).unwrap();
        let mut p = Predictor::new(ModelKind::default(), 0);
        assert!(matches!(
            p.train(&kb),
            Err(CoreError::InsufficientTraining { .. })
        ));
    }

    #[test]
    fn recall_optimised_catches_more_positives() {
        // Noisy boundary: recall-optimised threshold should fire at least as
        // often as the balanced model.
        let mut kb = KnowledgeBase::new(vec!["a".into()]);
        for w in 0..120 {
            let i = (w % 12) as f64;
            let label = i >= 6.0 || (w % 17 == 0);
            kb.append(w, vec![i], vec![label]).unwrap();
        }
        let mut balanced = Predictor::new(ModelKind::default(), 1);
        let mut recallish = Predictor::new(ModelKind::recall_optimised(), 1);
        balanced.train(&kb).unwrap();
        recallish.train(&kb).unwrap();
        let fires = |p: &Predictor| {
            (0..12)
                .filter(|&i| p.predict(&[i as f64]).unwrap()[0])
                .count()
        };
        assert!(fires(&recallish) >= fires(&balanced));
    }

    #[test]
    fn alternative_model_kinds_train() {
        for kind in [
            ModelKind::DecisionTree,
            ModelKind::Logistic,
            ModelKind::NaiveBayes,
            ModelKind::Svm,
            ModelKind::KernelSvm,
            ModelKind::NeuralNetwork { hidden: 4 },
        ] {
            let mut p = Predictor::new(kind.clone(), 2);
            let q = p.train(&kb_two_steps()).unwrap();
            assert!(q.accuracy > 0.7, "kind {kind:?} accuracy {}", q.accuracy);
        }
    }
}
