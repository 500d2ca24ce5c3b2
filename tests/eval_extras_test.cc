// Tests for the evaluation extensions: bootstrap confidence intervals,
// paired bootstrap comparison, probability calibration (Brier/ECE), the
// held-out DDI sign-prediction evaluation, and occlusion feature
// importance in the app layer.

#include <cmath>

#include "app/importance.h"
#include "core/dssddi_system.h"
#include "eval/calibration.h"
#include "eval/ddi_eval.h"
#include "eval/significance.h"
#include "gtest/gtest.h"
#include "test_support.h"
#include "util/rng.h"

namespace dssddi {
namespace {

using tensor::Matrix;

// ---------------------------------------------------------------------
// Bootstrap confidence intervals
// ---------------------------------------------------------------------

struct RankingInstance {
  Matrix scores;
  Matrix truth;
};

RankingInstance MakeInstance(uint64_t seed, int patients = 40, int drugs = 10,
                             double signal = 0.6) {
  util::Rng rng(seed);
  RankingInstance instance;
  instance.scores = Matrix(patients, drugs);
  instance.truth = Matrix(patients, drugs);
  for (int i = 0; i < patients; ++i) {
    for (int v = 0; v < drugs; ++v) {
      const bool positive = rng.Bernoulli(0.25);
      instance.truth.At(i, v) = positive ? 1.0f : 0.0f;
      // Scores correlate with the truth with strength `signal`.
      instance.scores.At(i, v) = static_cast<float>(
          signal * instance.truth.At(i, v) + rng.Uniform(0.0, 1.0 - signal));
    }
  }
  return instance;
}

TEST(BootstrapTest, IntervalContainsPointEstimate) {
  const auto instance = MakeInstance(5);
  const double point = eval::RecallAtK(instance.scores, instance.truth, 4);
  eval::BootstrapOptions options;
  options.num_resamples = 400;
  const auto result =
      eval::BootstrapRankingMetrics(instance.scores, instance.truth, 4, options);
  EXPECT_LE(result.recall.lower, point + 1e-9);
  EXPECT_GE(result.recall.upper, point - 1e-9);
  EXPECT_LE(result.recall.lower, result.recall.mean);
  EXPECT_GE(result.recall.upper, result.recall.mean);
  EXPECT_GT(result.recall.stddev, 0.0);
  EXPECT_EQ(result.num_resamples, 400);
}

TEST(BootstrapTest, DeterministicUnderSameSeed) {
  const auto instance = MakeInstance(6);
  eval::BootstrapOptions options;
  options.num_resamples = 100;
  const auto a =
      eval::BootstrapRankingMetrics(instance.scores, instance.truth, 3, options);
  const auto b =
      eval::BootstrapRankingMetrics(instance.scores, instance.truth, 3, options);
  EXPECT_DOUBLE_EQ(a.recall.mean, b.recall.mean);
  EXPECT_DOUBLE_EQ(a.precision.lower, b.precision.lower);
  EXPECT_DOUBLE_EQ(a.ndcg.upper, b.ndcg.upper);
}

TEST(BootstrapTest, WiderConfidenceGivesWiderInterval) {
  const auto instance = MakeInstance(7);
  eval::BootstrapOptions narrow;
  narrow.confidence = 0.5;
  narrow.num_resamples = 500;
  eval::BootstrapOptions wide = narrow;
  wide.confidence = 0.99;
  const auto a =
      eval::BootstrapRankingMetrics(instance.scores, instance.truth, 4, narrow);
  const auto b =
      eval::BootstrapRankingMetrics(instance.scores, instance.truth, 4, wide);
  EXPECT_GE(b.recall.upper - b.recall.lower, a.recall.upper - a.recall.lower);
}

TEST(PairedBootstrapTest, StrongModelBeatsWeakModel) {
  const auto strong = MakeInstance(8, 40, 10, 0.8);
  // Weak model: random scores on the same truth.
  util::Rng rng(9);
  Matrix weak_scores(40, 10);
  for (float& v : weak_scores.data()) v = static_cast<float>(rng.Uniform(0.0, 1.0));

  eval::BootstrapOptions options;
  options.num_resamples = 300;
  const double win_rate = eval::PairedBootstrapWinRate(
      strong.scores, weak_scores, strong.truth, 4, options);
  EXPECT_GT(win_rate, 0.95);
  // And the reverse comparison must be correspondingly weak.
  const double reverse = eval::PairedBootstrapWinRate(
      weak_scores, strong.scores, strong.truth, 4, options);
  EXPECT_LT(reverse, 0.05);
}

TEST(PairedBootstrapTest, IdenticalModelsNeverStrictlyWin) {
  const auto instance = MakeInstance(10);
  eval::BootstrapOptions options;
  options.num_resamples = 100;
  EXPECT_DOUBLE_EQ(eval::PairedBootstrapWinRate(instance.scores, instance.scores,
                                                instance.truth, 4, options),
                   0.0);
}

// ---------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------

TEST(CalibrationTest, PerfectForecastScoresZero) {
  Matrix truth(4, 4);
  for (int i = 0; i < 4; ++i) truth.At(i, i) = 1.0f;
  const auto report = eval::ComputeCalibration(truth, truth, 10);
  EXPECT_DOUBLE_EQ(report.brier, 0.0);
  EXPECT_DOUBLE_EQ(report.ece, 0.0);
}

TEST(CalibrationTest, ConstantHalfForecastBrierQuarter) {
  Matrix scores(10, 10, 0.5f);
  util::Rng rng(11);
  Matrix truth(10, 10);
  int positives = 0;
  for (float& v : truth.data()) {
    v = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
    positives += v > 0.5f;
  }
  const auto report = eval::ComputeCalibration(scores, truth, 10);
  EXPECT_DOUBLE_EQ(report.brier, 0.25);
  // ECE equals |0.5 - empirical positive rate| (everything in one bin).
  const double rate = positives / 100.0;
  EXPECT_NEAR(report.ece, std::fabs(0.5 - rate), 1e-9);
}

TEST(CalibrationTest, OverconfidentForecastPenalized) {
  // Predicting 0.95 for coin flips is worse than predicting 0.5.
  util::Rng rng(12);
  Matrix truth(20, 20);
  for (float& v : truth.data()) v = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  const auto confident = eval::ComputeCalibration(Matrix(20, 20, 0.95f), truth, 10);
  const auto humble = eval::ComputeCalibration(Matrix(20, 20, 0.5f), truth, 10);
  EXPECT_GT(confident.brier, humble.brier);
  EXPECT_GT(confident.ece, humble.ece);
}

TEST(CalibrationTest, BinsPartitionAllPredictions) {
  const auto instance = MakeInstance(13);
  const auto report = eval::ComputeCalibration(instance.scores, instance.truth, 7);
  long long total = 0;
  for (const auto& bin : report.bins) total += bin.count;
  EXPECT_EQ(total, static_cast<long long>(instance.scores.size()));
  EXPECT_EQ(report.bins.size(), 7u);
}

TEST(CalibrationTest, RenderIncludesSummary) {
  const auto instance = MakeInstance(14);
  const auto report = eval::ComputeCalibration(instance.scores, instance.truth);
  const std::string text = eval::RenderCalibration(report);
  EXPECT_NE(text.find("Brier"), std::string::npos);
  EXPECT_NE(text.find("ECE"), std::string::npos);
}

// ---------------------------------------------------------------------
// DDI sign prediction
// ---------------------------------------------------------------------

TEST(DdiSignEvalTest, LearnsSignsOnStructuredGraph) {
  // A graph with clear sign structure: two synergy cliques joined by
  // antagonistic edges. The module must separate held-out signs.
  using graph::EdgeSign;
  std::vector<graph::SignedEdge> edges;
  for (int u = 0; u < 6; ++u) {
    for (int v = u + 1; v < 6; ++v) edges.push_back({u, v, EdgeSign::kSynergistic});
  }
  for (int u = 6; u < 12; ++u) {
    for (int v = u + 1; v < 12; ++v) edges.push_back({u, v, EdgeSign::kSynergistic});
  }
  for (int u = 0; u < 6; ++u) {
    for (int v = 6; v < 12; ++v) {
      if ((u + v) % 2 == 0) edges.push_back({u, v, EdgeSign::kAntagonistic});
    }
  }
  const graph::SignedGraph ddi(12, std::move(edges));

  core::DdiModuleConfig config;
  config.epochs = 150;
  config.hidden_dim = 16;
  // The synthetic graph is dense; only a handful of non-edges exist.
  config.zero_edge_count = 5;
  const auto result = eval::EvaluateDdiSignPrediction(ddi, config);
  EXPECT_GT(result.num_test_edges, 0);
  EXPECT_GT(result.num_train_edges, result.num_test_edges);
  EXPECT_GT(result.auc, 0.8) << "synergy/antagonism separation too weak";
  EXPECT_LT(result.mse, 1.0);
}

TEST(DdiSignEvalTest, DeterministicUnderSeed) {
  const auto dataset = testing::TinyDataset();
  core::DdiModuleConfig config;
  config.epochs = 30;
  config.hidden_dim = 8;
  const auto a = eval::EvaluateDdiSignPrediction(dataset.ddi, config);
  const auto b = eval::EvaluateDdiSignPrediction(dataset.ddi, config);
  EXPECT_DOUBLE_EQ(a.mse, b.mse);
  EXPECT_DOUBLE_EQ(a.auc, b.auc);
  EXPECT_EQ(a.num_test_edges, b.num_test_edges);
}

// ---------------------------------------------------------------------
// Occlusion importance
// ---------------------------------------------------------------------

TEST(OcclusionImportanceTest, RecoversTheDecisiveFeature) {
  // Synthetic scorer: drug 0's score is driven entirely by feature 2.
  const app::ScoreFn scorer = [](const Matrix& x) {
    Matrix scores(x.rows(), 3, 0.5f);
    for (int i = 0; i < x.rows(); ++i) scores.At(i, 0) = x.At(i, 2);
    return scores;
  };
  Matrix patient(1, 5, 0.1f);
  patient.At(0, 2) = 0.9f;
  const auto attributions = app::OcclusionImportance(scorer, patient, 0);
  ASSERT_EQ(attributions.size(), 5u);
  EXPECT_EQ(attributions[0].feature, 2);
  EXPECT_NEAR(attributions[0].delta, 0.9f, 1e-6);
  // Other features contribute nothing.
  for (size_t i = 1; i < attributions.size(); ++i) {
    EXPECT_NEAR(attributions[i].delta, 0.0f, 1e-6);
  }
}

TEST(OcclusionImportanceTest, BaselineShiftsReference) {
  const app::ScoreFn scorer = [](const Matrix& x) {
    Matrix scores(x.rows(), 1, 0.0f);
    for (int i = 0; i < x.rows(); ++i) scores.At(i, 0) = x.At(i, 0);
    return scores;
  };
  Matrix patient(1, 2, 1.0f);
  // With baseline == the feature value, occlusion changes nothing.
  const auto neutral = app::OcclusionImportance(scorer, patient, 0, {1.0f, 1.0f});
  EXPECT_NEAR(neutral[0].delta, 0.0f, 1e-6);
  const auto zeroed = app::OcclusionImportance(scorer, patient, 0);
  EXPECT_NEAR(zeroed[0].delta, 1.0f, 1e-6);
}

TEST(OcclusionImportanceTest, WorksOnTrainedSystem) {
  const auto dataset = testing::TinyDataset();
  core::DssddiConfig config;
  config.ddi.epochs = 40;
  config.md.epochs = 60;
  config.md.hidden_dim = 16;
  core::DssddiSystem system(config);
  system.Fit(dataset);

  const int patient = dataset.split.test.front();
  const Matrix x = dataset.patient_features.GatherRows({patient});
  const auto suggestion = system.Suggest(dataset, patient, 1);
  const app::ScoreFn scorer = [&](const Matrix& batch) {
    return system.md_module()->PredictScores(batch);
  };
  const auto attributions =
      app::OcclusionImportance(scorer, x, suggestion.drugs[0]);
  ASSERT_EQ(attributions.size(), static_cast<size_t>(x.cols()));
  // Sorted by magnitude.
  for (size_t i = 1; i < attributions.size(); ++i) {
    EXPECT_GE(std::fabs(attributions[i - 1].delta), std::fabs(attributions[i].delta));
  }
  const std::string text = app::RenderImportance(attributions, {}, 4);
  EXPECT_FALSE(text.empty());
}

}  // namespace
}  // namespace dssddi
