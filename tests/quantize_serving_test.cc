// The int8 serving contract, end to end on the bench cohort (a reduced
// chronic-study cohort, the same generator behind bench_serving /
// bench_gemm): quantized top-1 suggestions agree with the float
// reference on >= 99% of patients, the service's int8 answers are
// bit-identical to direct quantized bundle inference (batching never
// changes a row's scores), the quantization surface shows up in
// ServiceStats and /statsz, and /admin/reload flips float <-> int8 on a
// live server.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/dssddi_system.h"
#include "data/chronic_cohort.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "io/bundle_v4.h"
#include "io/inference_bundle.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/suggest_frontend.h"
#include "serve/service.h"
#include "tensor/kernels/qgemm.h"

namespace dssddi {
namespace {

using tensor::kernels::QuantMode;

int ArgMaxRow(const tensor::Matrix& scores, int row) {
  int best = 0;
  for (int j = 1; j < scores.cols(); ++j) {
    if (scores.At(row, j) > scores.At(row, best)) best = j;
  }
  return best;
}

class QuantizeServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The bench cohort: the same reduced chronic-study configuration
    // bench_serving / bench_net train and freeze (150 + 100 patients,
    // 40-epoch modules).
    data::ChronicDatasetOptions options;
    options.cohort.num_males = 150;
    options.cohort.num_females = 100;
    dataset_ = new data::SuggestionDataset(data::BuildChronicDataset(options));
    core::DssddiConfig config;
    config.ddi.epochs = 40;
    config.md.epochs = 40;
    core::DssddiSystem system(config);
    system.Fit(*dataset_);
    bundle_ = new io::InferenceBundle(
        io::ExtractInferenceBundle(system, *dataset_));
  }
  static void TearDownTestSuite() {
    delete bundle_;
    delete dataset_;
    bundle_ = nullptr;
    dataset_ = nullptr;
  }

  static io::InferenceBundle BundleWithMode(QuantMode mode) {
    io::InferenceBundle bundle = *bundle_;
    bundle.quantization = static_cast<int>(mode);
    return bundle;
  }

  static data::SuggestionDataset* dataset_;
  static io::InferenceBundle* bundle_;
};

data::SuggestionDataset* QuantizeServingTest::dataset_ = nullptr;
io::InferenceBundle* QuantizeServingTest::bundle_ = nullptr;

TEST_F(QuantizeServingTest, Top1AgreementWithFloatReferenceIsAtLeast99Percent) {
  const io::InferenceBundle float_bundle = BundleWithMode(QuantMode::kNone);
  const io::InferenceBundle int8_bundle = BundleWithMode(QuantMode::kInt8);
  const tensor::Matrix& x = dataset_->patient_features;
  const tensor::Matrix float_scores = float_bundle.PredictScores(x);
  const tensor::Matrix int8_scores = int8_bundle.PredictScores(x);
  ASSERT_TRUE(int8_scores.SameShape(float_scores));

  int agree = 0;
  double max_score_gap = 0.0;
  for (int i = 0; i < x.rows(); ++i) {
    if (ArgMaxRow(float_scores, i) == ArgMaxRow(int8_scores, i)) ++agree;
    for (int j = 0; j < float_scores.cols(); ++j) {
      max_score_gap = std::max<double>(
          max_score_gap, std::fabs(float_scores.At(i, j) - int8_scores.At(i, j)));
    }
  }
  const double agreement = static_cast<double>(agree) / x.rows();
  EXPECT_GE(agreement, 0.99)
      << agree << "/" << x.rows() << " top-1 matches; max sigmoid-score gap "
      << max_score_gap;
  // Quantization error must also be visibly small in score space, not
  // just rank space.
  EXPECT_LT(max_score_gap, 0.05);
}

TEST_F(QuantizeServingTest, ServiceInt8AnswersMatchDirectQuantizedInference) {
  serve::ServiceOptions options;
  options.num_threads = 2;
  options.max_batch_size = 8;
  options.quantization = "int8";
  serve::SuggestionService service(*bundle_, options);

  const io::InferenceBundle int8_bundle = BundleWithMode(QuantMode::kInt8);
  for (int patient = 0; patient < 24; ++patient) {
    serve::Request request;
    request.patient_id = patient;
    request.features.assign(
        dataset_->patient_features.RowPtr(patient),
        dataset_->patient_features.RowPtr(patient) + dataset_->patient_features.cols());
    request.k = 3;
    const core::Suggestion actual = service.Submit(std::move(request)).get();
    const core::Suggestion expected = int8_bundle.Suggest(
        dataset_->patient_features.GatherRows({patient}), 3);
    EXPECT_EQ(actual.drugs, expected.drugs) << "patient " << patient;
    ASSERT_EQ(actual.scores.size(), expected.scores.size());
    for (size_t i = 0; i < expected.scores.size(); ++i) {
      // Bit-identical: per-row activation quantization makes batch
      // composition irrelevant to a row's scores.
      EXPECT_EQ(actual.scores[i], expected.scores[i])
          << "patient " << patient << " score " << i;
    }
  }

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.quantization, "int8");
  // patient_fc (2 layers) + decoder (2 layers) in the default config.
  EXPECT_EQ(stats.quant_layer_max_abs_error.size(),
            bundle_->patient_fc.quantized.layers.size() +
                bundle_->decoder.quantized.layers.size());
  for (const double error : stats.quant_layer_max_abs_error) {
    EXPECT_GE(error, 0.0);
    EXPECT_LT(error, 0.1);  // int8 on unit-scale weights: tiny per-weight error
  }
}

TEST_F(QuantizeServingTest, FloatModeReportsNoQuantization) {
  serve::ServiceOptions options;
  options.quantization = "none";
  serve::SuggestionService service(*bundle_, options);
  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.quantization, "none");
  EXPECT_TRUE(stats.quant_layer_max_abs_error.empty());
}

TEST_F(QuantizeServingTest, HttpReloadFlipsFloatAndInt8Live) {
  const std::string path = ::testing::TempDir() + "/quantize_reload.dssb";
  ASSERT_TRUE(io::SaveInferenceBundleV4(path, *bundle_).ok);

  serve::ServiceOptions options;
  options.num_threads = 2;
  options.quantization = "none";
  serve::SuggestionService service(*bundle_, options);
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  ASSERT_TRUE(server.Start().ok);

  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);

  const auto statsz_quantization = [&client]() {
    net::ClientResponse response;
    EXPECT_TRUE(client.Request("GET", "/statsz", "", &response).ok);
    EXPECT_EQ(response.status, 200);
    net::JsonValue document;
    std::string error;
    EXPECT_TRUE(net::ParseJson(response.body, &document, &error)) << error;
    return document.Find("service")->Find("quantization")->AsString();
  };
  EXPECT_EQ(statsz_quantization(), "none");

  // Flip to int8 via admin reload of the same bundle file.
  net::ClientResponse reload;
  ASSERT_TRUE(client.Request("POST", "/admin/reload",
                             "{\"path\":\"" + path + "\",\"quantize\":\"int8\"}",
                             &reload).ok);
  ASSERT_EQ(reload.status, 200) << reload.body;
  net::JsonValue reload_json;
  std::string error;
  ASSERT_TRUE(net::ParseJson(reload.body, &reload_json, &error));
  EXPECT_EQ(reload_json.Find("quantization")->AsString(), "int8");
  EXPECT_EQ(statsz_quantization(), "int8");

  // Served answers now match direct int8 inference.
  const io::InferenceBundle int8_bundle = BundleWithMode(QuantMode::kInt8);
  const int patient = 5;
  net::JsonWriter body;
  body.BeginObject().Key("patient_id").Int(patient).Key("features").BeginArray();
  for (int j = 0; j < dataset_->patient_features.cols(); ++j) {
    body.Float(dataset_->patient_features.At(patient, j));
  }
  body.EndArray().Key("k").Int(3).Key("explain").Bool(false).EndObject();
  net::ClientResponse suggest;
  ASSERT_TRUE(client.Request("POST", "/v1/suggest", body.str(), &suggest).ok);
  ASSERT_EQ(suggest.status, 200);
  net::JsonValue document;
  ASSERT_TRUE(net::ParseJson(suggest.body, &document, &error)) << error;
  const core::Suggestion expected = int8_bundle.Suggest(
      dataset_->patient_features.GatherRows({patient}), 3);
  const auto& drugs = document.Find("drugs")->Items();
  ASSERT_EQ(drugs.size(), expected.drugs.size());
  for (size_t i = 0; i < expected.drugs.size(); ++i) {
    EXPECT_EQ(drugs[i].AsInt(), expected.drugs[i]);
  }

  // And back to float.
  ASSERT_TRUE(client.Request("POST", "/admin/reload",
                             "{\"path\":\"" + path + "\",\"quantize\":\"none\"}",
                             &reload).ok);
  ASSERT_EQ(reload.status, 200) << reload.body;
  EXPECT_EQ(statsz_quantization(), "none");

  // Unknown quantize values are rejected before touching the model.
  ASSERT_TRUE(client.Request("POST", "/admin/reload",
                             "{\"path\":\"" + path + "\",\"quantize\":\"int4\"}",
                             &reload).ok);
  EXPECT_EQ(reload.status, 400);
  server.Stop();
}

}  // namespace
}  // namespace dssddi
