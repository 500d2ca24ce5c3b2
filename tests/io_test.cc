// Tests for the persistence layer: binary primitives, framed files with
// checksums, artifact codecs (Matrix / SignedGraph / dataset), and the
// frozen inference bundle (train -> export -> save -> load -> identical
// scores). Includes failure injection: truncation, bit flips, wrong
// artifact kind, and inconsistent dimensions must all be rejected.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>

#include "core/dssddi_system.h"
#include "gtest/gtest.h"
#include "io/binary.h"
#include "io/bundle_v4.h"
#include "io/inference_bundle.h"
#include "io/mmap_file.h"
#include "io/serialize.h"
#include "test_support.h"
#include "util/rng.h"

namespace dssddi {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------
// Binary primitives
// ---------------------------------------------------------------------

TEST(BinaryTest, PrimitiveRoundTrip) {
  io::BinaryWriter writer;
  writer.WriteU8(0xab);
  writer.WriteU32(0xdeadbeef);
  writer.WriteU64(0x0123456789abcdefull);
  writer.WriteI32(-42);
  writer.WriteF32(3.25f);
  writer.WriteF64(-1e300);
  writer.WriteString("chronic");
  writer.WriteIntVector({5, -3, 0});

  io::BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadU8(), 0xab);
  EXPECT_EQ(reader.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(reader.ReadU64(), 0x0123456789abcdefull);
  EXPECT_EQ(reader.ReadI32(), -42);
  EXPECT_EQ(reader.ReadF32(), 3.25f);
  EXPECT_EQ(reader.ReadF64(), -1e300);
  EXPECT_EQ(reader.ReadString(), "chronic");
  std::vector<int> ints;
  EXPECT_TRUE(reader.ReadIntVector(&ints));
  EXPECT_EQ(ints, (std::vector<int>{5, -3, 0}));
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BinaryTest, LittleEndianLayout) {
  io::BinaryWriter writer;
  writer.WriteU32(0x01020304);
  const std::string& buffer = writer.buffer();
  ASSERT_EQ(buffer.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(buffer[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(buffer[3]), 0x01);
}

TEST(BinaryTest, ReaderFailureIsSticky) {
  io::BinaryWriter writer;
  writer.WriteU32(7);
  io::BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadU32(), 7u);
  EXPECT_EQ(reader.ReadU32(), 0u);  // past the end
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.ReadU8(), 0u);  // still failed
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BinaryTest, StringWithEmbeddedNulRoundTrips) {
  io::BinaryWriter writer;
  std::string value("a\0b", 3);
  writer.WriteString(value);
  io::BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadString(), value);
}

TEST(BinaryTest, OversizedLengthPrefixFailsInsteadOfAllocating) {
  io::BinaryWriter writer;
  writer.WriteU32(0xffffffffu);  // claims 4 GiB of floats, none present
  io::BinaryReader reader(writer.buffer());
  std::vector<float> floats;
  EXPECT_FALSE(reader.ReadFloatArray(&floats));
  EXPECT_FALSE(reader.ok());
}

TEST(Fnv1aTest, MatchesReferenceVector) {
  // FNV-1a 64 of empty input is the offset basis.
  EXPECT_EQ(io::Fnv1a64("", 0), 0xcbf29ce484222325ull);
  // Any single-bit change must alter the hash.
  EXPECT_NE(io::Fnv1a64("dssddi", 6), io::Fnv1a64("dssddj", 6));
}

// ---------------------------------------------------------------------
// Framed files
// ---------------------------------------------------------------------

TEST(FramedFileTest, RoundTripAndVersion) {
  const std::string path = TempPath("framed.bin");
  ASSERT_TRUE(io::WriteFramedFile(path, 9, 3, "payload-bytes").ok);
  std::string payload;
  uint32_t version = 0;
  ASSERT_TRUE(io::ReadFramedFile(path, 9, 5, &payload, &version).ok);
  EXPECT_EQ(payload, "payload-bytes");
  EXPECT_EQ(version, 3u);
}

TEST(FramedFileTest, WrongFormatIdRejected) {
  const std::string path = TempPath("framed_kind.bin");
  ASSERT_TRUE(io::WriteFramedFile(path, 1, 1, "x").ok);
  std::string payload;
  const io::Status status = io::ReadFramedFile(path, 2, 1, &payload, nullptr);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("artifact kind"), std::string::npos);
}

TEST(FramedFileTest, NewerVersionRejected) {
  const std::string path = TempPath("framed_ver.bin");
  ASSERT_TRUE(io::WriteFramedFile(path, 1, 7, "x").ok);
  std::string payload;
  EXPECT_FALSE(io::ReadFramedFile(path, 1, 6, &payload, nullptr).ok);
}

TEST(FramedFileTest, BitFlipDetected) {
  const std::string path = TempPath("framed_flip.bin");
  ASSERT_TRUE(io::WriteFramedFile(path, 1, 1, "sensitive-payload").ok);
  std::string raw;
  ASSERT_TRUE(io::ReadFileToString(path, &raw).ok);
  raw[raw.size() - 3] ^= 0x10;  // flip a payload bit
  ASSERT_TRUE(io::WriteStringToFile(path, raw).ok);
  std::string payload;
  const io::Status status = io::ReadFramedFile(path, 1, 1, &payload, nullptr);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("checksum"), std::string::npos);
}

TEST(FramedFileTest, TruncationDetected) {
  const std::string path = TempPath("framed_trunc.bin");
  ASSERT_TRUE(io::WriteFramedFile(path, 1, 1, "0123456789").ok);
  std::string raw;
  ASSERT_TRUE(io::ReadFileToString(path, &raw).ok);
  raw.resize(raw.size() - 4);
  ASSERT_TRUE(io::WriteStringToFile(path, raw).ok);
  std::string payload;
  EXPECT_FALSE(io::ReadFramedFile(path, 1, 1, &payload, nullptr).ok);
}

TEST(FramedFileTest, MissingFileIsError) {
  std::string payload;
  EXPECT_FALSE(io::ReadFramedFile(TempPath("does_not_exist.bin"), 1, 1, &payload,
                                  nullptr)
                   .ok);
}

TEST(FramedFileTest, GarbageMagicRejected) {
  const std::string path = TempPath("garbage.bin");
  ASSERT_TRUE(io::WriteStringToFile(path, "this is not a dssddi file at all").ok);
  std::string payload;
  const io::Status status = io::ReadFramedFile(path, 1, 1, &payload, nullptr);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("not a DSSDDI file"), std::string::npos);
}

// ---------------------------------------------------------------------
// Matrix codec (property sweep over shapes)
// ---------------------------------------------------------------------

class MatrixRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MatrixRoundTripTest, RoundTripsExactly) {
  const auto [rows, cols] = GetParam();
  util::Rng rng(rows * 131 + cols);
  tensor::Matrix matrix(rows, cols);
  for (float& v : matrix.data()) v = static_cast<float>(rng.Normal(0.0, 2.0));

  io::BinaryWriter writer;
  io::WriteMatrix(writer, matrix);
  io::BinaryReader reader(writer.buffer());
  tensor::Matrix loaded;
  ASSERT_TRUE(io::ReadMatrix(reader, &loaded));
  ASSERT_EQ(loaded.rows(), rows);
  ASSERT_EQ(loaded.cols(), cols);
  EXPECT_EQ(loaded.data(), matrix.data());  // bit-exact
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatrixRoundTripTest,
                         ::testing::Values(std::make_tuple(0, 0),
                                           std::make_tuple(1, 1),
                                           std::make_tuple(1, 17),
                                           std::make_tuple(17, 1),
                                           std::make_tuple(8, 8),
                                           std::make_tuple(3, 400),
                                           std::make_tuple(128, 5)));

TEST(MatrixCodecTest, SizeMismatchRejected) {
  io::BinaryWriter writer;
  writer.WriteU32(2);
  writer.WriteU32(3);
  writer.WriteFloatArray(nullptr, 0);  // 0 floats for a 2x3 matrix
  io::BinaryReader reader(writer.buffer());
  tensor::Matrix matrix;
  EXPECT_FALSE(io::ReadMatrix(reader, &matrix));
}

TEST(MatrixCodecTest, FileRoundTripAndKindConfusion) {
  tensor::Matrix matrix({{1.5f, -2.0f}, {0.0f, 4.25f}});
  const std::string path = TempPath("matrix.dss");
  ASSERT_TRUE(io::SaveMatrixFile(path, matrix).ok);
  tensor::Matrix loaded;
  ASSERT_TRUE(io::LoadMatrixFile(path, &loaded).ok);
  EXPECT_EQ(loaded.data(), matrix.data());

  // Loading the matrix file as a graph must fail on the format id.
  graph::SignedGraph graph;
  EXPECT_FALSE(io::LoadSignedGraphFile(path, &graph).ok);
}

// ---------------------------------------------------------------------
// SignedGraph codec
// ---------------------------------------------------------------------

TEST(SignedGraphCodecTest, RoundTripPreservesStructure) {
  std::vector<graph::SignedEdge> edges = {
      {0, 1, graph::EdgeSign::kSynergistic},
      {1, 2, graph::EdgeSign::kAntagonistic},
      {2, 3, graph::EdgeSign::kNone},
      {0, 3, graph::EdgeSign::kAntagonistic},
  };
  graph::SignedGraph original(5, edges);

  const std::string path = TempPath("graph.dss");
  ASSERT_TRUE(io::SaveSignedGraphFile(path, original).ok);
  graph::SignedGraph loaded;
  ASSERT_TRUE(io::LoadSignedGraphFile(path, &loaded).ok);

  EXPECT_EQ(loaded.num_vertices(), 5);
  EXPECT_EQ(loaded.num_edges(), 4);
  EXPECT_EQ(loaded.SignOf(0, 1), graph::EdgeSign::kSynergistic);
  EXPECT_EQ(loaded.SignOf(1, 2), graph::EdgeSign::kAntagonistic);
  EXPECT_EQ(loaded.SignOf(2, 3), graph::EdgeSign::kNone);
  EXPECT_TRUE(loaded.HasInteraction(0, 3));
  EXPECT_EQ(loaded.PositiveNeighbors(1), original.PositiveNeighbors(1));
  EXPECT_EQ(loaded.NegativeNeighbors(2), original.NegativeNeighbors(2));
}

TEST(SignedGraphCodecTest, OutOfRangeVertexRejected) {
  io::BinaryWriter writer;
  writer.WriteU32(2);  // 2 vertices
  writer.WriteU32(1);  // 1 edge
  writer.WriteU32(0);
  writer.WriteU32(9);  // vertex 9 does not exist
  writer.WriteI32(1);
  io::BinaryReader reader(writer.buffer());
  graph::SignedGraph graph;
  EXPECT_FALSE(io::ReadSignedGraph(reader, &graph));
}

TEST(SignedGraphCodecTest, InvalidSignRejected) {
  io::BinaryWriter writer;
  writer.WriteU32(3);
  writer.WriteU32(1);
  writer.WriteU32(0);
  writer.WriteU32(1);
  writer.WriteI32(7);  // not in {-1, 0, 1}
  io::BinaryReader reader(writer.buffer());
  graph::SignedGraph graph;
  EXPECT_FALSE(io::ReadSignedGraph(reader, &graph));
}

// ---------------------------------------------------------------------
// Dataset codec
// ---------------------------------------------------------------------

TEST(DatasetCodecTest, TinyDatasetRoundTrips) {
  const auto dataset = testing::TinyDataset();
  const std::string path = TempPath("tiny.dss");
  ASSERT_TRUE(io::SaveDatasetFile(path, dataset).ok);

  data::SuggestionDataset loaded;
  ASSERT_TRUE(io::LoadDatasetFile(path, &loaded).ok);
  EXPECT_EQ(loaded.name, dataset.name);
  EXPECT_EQ(loaded.patient_features.data(), dataset.patient_features.data());
  EXPECT_EQ(loaded.medication.data(), dataset.medication.data());
  EXPECT_EQ(loaded.drug_features.data(), dataset.drug_features.data());
  EXPECT_EQ(loaded.ddi.num_edges(), dataset.ddi.num_edges());
  EXPECT_EQ(loaded.split.train, dataset.split.train);
  EXPECT_EQ(loaded.split.validation, dataset.split.validation);
  EXPECT_EQ(loaded.split.test, dataset.split.test);
  EXPECT_EQ(loaded.num_diseases, dataset.num_diseases);
  EXPECT_EQ(loaded.drug_names, dataset.drug_names);
}

TEST(DatasetCodecTest, VisitHistoriesRoundTrip) {
  auto dataset = testing::TinyDataset(30, 3, 9);
  dataset.visit_codes = {{{1, 2}, {3}}, {{4}}, {}};
  dataset.patient_diseases = {{0}, {1, 2}, {}};
  const std::string path = TempPath("visits.dss");
  ASSERT_TRUE(io::SaveDatasetFile(path, dataset).ok);
  data::SuggestionDataset loaded;
  ASSERT_TRUE(io::LoadDatasetFile(path, &loaded).ok);
  EXPECT_EQ(loaded.visit_codes, dataset.visit_codes);
  EXPECT_EQ(loaded.patient_diseases, dataset.patient_diseases);
}

TEST(DatasetCodecTest, InconsistentAxesRejected) {
  auto dataset = testing::TinyDataset();
  // Break the patient axis: features say 10 patients, medication says 120.
  dataset.patient_features = tensor::Matrix(10, 5);
  io::BinaryWriter writer;
  io::WriteDataset(writer, dataset);
  io::BinaryReader reader(writer.buffer());
  data::SuggestionDataset loaded;
  EXPECT_FALSE(io::ReadDataset(reader, &loaded));
}

// ---------------------------------------------------------------------
// Inference bundle
// ---------------------------------------------------------------------

class InferenceBundleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SuggestionDataset(testing::TinyDataset());
    core::DssddiConfig config;
    config.ddi.epochs = 60;
    config.md.epochs = 80;
    config.md.hidden_dim = 16;
    system_ = new core::DssddiSystem(config);
    system_->Fit(*dataset_);
  }
  static void TearDownTestSuite() {
    delete system_;
    delete dataset_;
    system_ = nullptr;
    dataset_ = nullptr;
  }

  static data::SuggestionDataset* dataset_;
  static core::DssddiSystem* system_;
};

data::SuggestionDataset* InferenceBundleTest::dataset_ = nullptr;
core::DssddiSystem* InferenceBundleTest::system_ = nullptr;

TEST_F(InferenceBundleTest, ExtractedBundleMatchesSystemScores) {
  auto bundle = io::ExtractInferenceBundle(*system_, *dataset_);
  // This oracle is about the float path: the training stack scores in
  // float, so pin the bundle to float regardless of DSSDDI_QUANTIZE.
  bundle.quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  const auto& test_ids = dataset_->split.test;
  const tensor::Matrix expected = system_->PredictScores(*dataset_, test_ids);
  const tensor::Matrix actual =
      bundle.PredictScores(dataset_->patient_features.GatherRows(test_ids));
  ASSERT_TRUE(actual.SameShape(expected));
  for (int i = 0; i < expected.rows(); ++i) {
    for (int j = 0; j < expected.cols(); ++j) {
      EXPECT_FLOAT_EQ(actual.At(i, j), expected.At(i, j)) << i << "," << j;
    }
  }
}

TEST_F(InferenceBundleTest, SuggestMatchesInProcessSystem) {
  auto bundle = io::ExtractInferenceBundle(*system_, *dataset_);
  bundle.quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  const int patient = dataset_->split.test.front();
  const auto expected = system_->Suggest(*dataset_, patient, 3);
  const auto actual =
      bundle.Suggest(dataset_->patient_features.GatherRows({patient}), 3);
  EXPECT_EQ(actual.drugs, expected.drugs);
  EXPECT_EQ(actual.explanation.subgraph_drugs, expected.explanation.subgraph_drugs);
  EXPECT_DOUBLE_EQ(actual.explanation.suggestion_satisfaction,
                   expected.explanation.suggestion_satisfaction);
}

TEST_F(InferenceBundleTest, QuantizedScoresAreBatchInvariant) {
  // Per-row dynamic activation scales make quantization row-local: a
  // patient's int8 scores may not depend on who shares the batch. This
  // is what lets the serving batcher regroup rows freely under int8.
  auto bundle = io::ExtractInferenceBundle(*system_, *dataset_);
  bundle.quantization = static_cast<int>(tensor::kernels::QuantMode::kInt8);
  const auto& test_ids = dataset_->split.test;
  const tensor::Matrix batch =
      bundle.PredictScores(dataset_->patient_features.GatherRows(test_ids));
  for (size_t i = 0; i < test_ids.size(); ++i) {
    const tensor::Matrix solo = bundle.PredictScores(
        dataset_->patient_features.GatherRows({test_ids[i]}));
    for (int j = 0; j < solo.cols(); ++j) {
      ASSERT_EQ(solo.At(0, j), batch.At(static_cast<int>(i), j))
          << "patient " << test_ids[i] << " score " << j;
    }
  }
}

TEST_F(InferenceBundleTest, ReloadIntoReusedBundleDropsStaleQuantizedWeights) {
  // Loading into a reused InferenceBundle object must never keep the
  // previous model's int8 companion: when the new file carries no
  // quantized section the companion is rebuilt from the NEW float
  // weights, not served from the stale ones.
  const auto bundle_a = io::ExtractInferenceBundle(*system_, *dataset_);

  core::DssddiConfig other_config;
  other_config.ddi.epochs = 30;
  other_config.md.epochs = 30;
  other_config.md.hidden_dim = 16;
  core::DssddiSystem other(other_config);
  other.Fit(*dataset_);
  io::InferenceBundle bundle_b = io::ExtractInferenceBundle(other, *dataset_);
  // Strip B's quantized sections so its file carries none.
  bundle_b.patient_fc.quantized.layers.clear();
  bundle_b.decoder.quantized.layers.clear();

  const std::string path_a = TempPath("reuse_a.dssb");
  const std::string path_b = TempPath("reuse_b.dssb");
  ASSERT_TRUE(io::SaveInferenceBundleV4(path_a, bundle_a).ok);
  ASSERT_TRUE(io::SaveInferenceBundleV4(path_b, bundle_b).ok);

  io::InferenceBundle reused;
  ASSERT_TRUE(io::LoadInferenceBundle(path_a, &reused).ok);
  ASSERT_TRUE(io::LoadInferenceBundle(path_b, &reused).ok);

  bundle_b.EnsureQuantized();
  reused.quantization = static_cast<int>(tensor::kernels::QuantMode::kInt8);
  bundle_b.quantization = static_cast<int>(tensor::kernels::QuantMode::kInt8);
  const tensor::Matrix x =
      dataset_->patient_features.GatherRows(dataset_->split.test);
  const tensor::Matrix expected = bundle_b.PredictScores(x);
  const tensor::Matrix actual = reused.PredictScores(x);
  EXPECT_EQ(actual.data(), expected.data());
}

TEST_F(InferenceBundleTest, ShapeInconsistentBundleRejectedAtLoad) {
  // A bundle whose patient encoder disagrees with its feature width used
  // to pass loading and then abort (layer-width CHECK) at scoring time;
  // untrusted files must fail at load with a Status instead.
  auto bundle = io::ExtractInferenceBundle(*system_, *dataset_);
  bundle.cluster_centroids = tensor::Matrix(
      bundle.cluster_centroids.rows(), bundle.cluster_centroids.cols() + 1);
  const std::string path = TempPath("bad_shapes.dssb");
  ASSERT_TRUE(io::SaveInferenceBundleV4(path, bundle).ok);
  io::InferenceBundle loaded;
  const io::Status status = io::LoadInferenceBundle(path, &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("layer shapes"), std::string::npos)
      << status.message;
}

// ---------------------------------------------------------------------
// Robustness sweeps: a reader facing truncated or random bytes must fail
// cleanly (no crash, no partial state) at every cut point.
// ---------------------------------------------------------------------

class TruncationSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(TruncationSweepTest, EveryPrefixOfADatasetFileIsRejected) {
  const auto dataset = testing::TinyDataset(20, 2, 6);
  const std::string path = TempPath("sweep.dss");
  ASSERT_TRUE(io::SaveDatasetFile(path, dataset).ok);
  std::string raw;
  ASSERT_TRUE(io::ReadFileToString(path, &raw).ok);

  // Cut at a deterministic fraction of the file per test instance.
  const size_t cut = raw.size() * static_cast<size_t>(GetParam()) / 10;
  ASSERT_LT(cut, raw.size());
  const std::string truncated_path = TempPath("sweep_cut.dss");
  ASSERT_TRUE(io::WriteStringToFile(truncated_path, raw.substr(0, cut)).ok);

  data::SuggestionDataset loaded;
  EXPECT_FALSE(io::LoadDatasetFile(truncated_path, &loaded).ok);
}

INSTANTIATE_TEST_SUITE_P(CutPoints, TruncationSweepTest, ::testing::Range(0, 10));

class RandomBytesTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomBytesTest, GarbageNeverCrashesTheLoaders) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 977);
  std::string garbage(1024 + rng.NextBelow(4096), '\0');
  for (char& c : garbage) c = static_cast<char>(rng.NextBelow(256));
  const std::string path = TempPath("garbage_fuzz.bin");
  ASSERT_TRUE(io::WriteStringToFile(path, garbage).ok);

  tensor::Matrix matrix;
  EXPECT_FALSE(io::LoadMatrixFile(path, &matrix).ok);
  graph::SignedGraph graph;
  EXPECT_FALSE(io::LoadSignedGraphFile(path, &graph).ok);
  data::SuggestionDataset dataset;
  EXPECT_FALSE(io::LoadDatasetFile(path, &dataset).ok);
  io::InferenceBundle bundle;
  EXPECT_FALSE(io::LoadInferenceBundle(path, &bundle).ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBytesTest, ::testing::Range(1, 9));

TEST(RandomBytesTest, GarbagePayloadBehindValidFrameIsRejected) {
  // A correct frame whose payload is random bytes: the checksum passes
  // (it is computed over those bytes) but the codec must reject it.
  util::Rng rng(4242);
  std::string payload(512, '\0');
  for (char& c : payload) c = static_cast<char>(rng.NextBelow(256));
  const std::string path = TempPath("framed_garbage.dss");
  ASSERT_TRUE(io::WriteFramedFile(path, io::kFormatDataset, 1, payload).ok);
  data::SuggestionDataset dataset;
  const io::Status status = io::LoadDatasetFile(path, &dataset);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("malformed"), std::string::npos);
}

TEST(FrozenMlpTest, ForwardMatchesHandComputation) {
  io::FrozenMlp mlp;
  io::FrozenMlp::Layer layer;
  layer.weight = tensor::Matrix({{2.0f}, {1.0f}});  // 2 -> 1
  layer.bias = tensor::Matrix({{-1.0f}});
  layer.activation = static_cast<int>(tensor::Activation::kRelu);
  mlp.layers.push_back(layer);

  const tensor::Matrix x({{1.0f, 3.0f}, {0.0f, 0.0f}});
  const tensor::Matrix y = mlp.Forward(x);
  EXPECT_FLOAT_EQ(y.At(0, 0), 4.0f);   // 2*1 + 1*3 - 1 = 4
  EXPECT_FLOAT_EQ(y.At(1, 0), 0.0f);   // relu(-1) = 0
}

// ---------------------------------------------------------------------
// MmapFile
// ---------------------------------------------------------------------

TEST(MmapFileTest, MapsARealFileAndReadsItsBytes) {
  const std::string path = TempPath("mmap_plain.bin");
  ASSERT_TRUE(io::WriteStringToFile(path, "mapped contents").ok);
  io::MmapFile mapping;
  ASSERT_TRUE(io::MmapFile::Open(path, &mapping).ok);
  ASSERT_EQ(mapping.size(), 15u);
  EXPECT_EQ(std::memcmp(mapping.data(), "mapped contents", 15), 0);
}

TEST(MmapFileTest, PrefaultedMappingReadsTheSameBytes) {
  const std::string path = TempPath("mmap_prefault.bin");
  ASSERT_TRUE(io::WriteStringToFile(path, "prefault me").ok);
  io::MmapFile mapping;
  ASSERT_TRUE(io::MmapFile::Open(path, &mapping, /*prefault=*/true).ok);
  ASSERT_EQ(mapping.size(), 11u);
  EXPECT_EQ(std::memcmp(mapping.data(), "prefault me", 11), 0);
}

TEST(MmapFileTest, MissingEmptyAndDirectoryPathsFailCleanly) {
  io::MmapFile mapping;
  EXPECT_FALSE(io::MmapFile::Open(TempPath("no_such_mmap.bin"), &mapping).ok);

  const std::string empty_path = TempPath("mmap_empty.bin");
  ASSERT_TRUE(io::WriteStringToFile(empty_path, "").ok);
  EXPECT_FALSE(io::MmapFile::Open(empty_path, &mapping).ok);

  EXPECT_FALSE(io::MmapFile::Open(::testing::TempDir(), &mapping).ok);
}

// ---------------------------------------------------------------------
// Bundle format v4 (zero-copy mmap)
// ---------------------------------------------------------------------

// Section-table walker for corruption tests: returns the file offset of
// the first section of `type` (0 if absent). Layout constants match the
// format doc in io/bundle_v4.h.
size_t FindV4Section(const std::string& raw, uint32_t type,
                     uint64_t* length = nullptr) {
  uint32_t count = 0;
  std::memcpy(&count, raw.data() + 24, sizeof(count));
  for (uint32_t i = 0; i < count; ++i) {
    const size_t entry = 32 + 32 * static_cast<size_t>(i);
    uint32_t entry_type = 0;
    std::memcpy(&entry_type, raw.data() + entry, sizeof(entry_type));
    if (entry_type != type) continue;
    uint64_t offset = 0;
    std::memcpy(&offset, raw.data() + entry + 8, sizeof(offset));
    if (length != nullptr) {
      std::memcpy(length, raw.data() + entry + 16, sizeof(*length));
    }
    return static_cast<size_t>(offset);
  }
  return 0;
}

class BundleV4Test : public InferenceBundleTest {
 protected:
  // Saves the suite bundle once as v4 (with int8 companions) and reads
  // the raw bytes back for the corruption tests.
  static void SetUpTestSuite() {
    InferenceBundleTest::SetUpTestSuite();
    bundle_ = new io::InferenceBundle(
        io::ExtractInferenceBundle(*system_, *dataset_));
    v4_path_ = new std::string(TempPath("model_v4.dssb"));
    ASSERT_TRUE(io::SaveInferenceBundleV4(*v4_path_, *bundle_).ok);
    raw_ = new std::string();
    ASSERT_TRUE(io::ReadFileToString(*v4_path_, raw_).ok);
  }
  static void TearDownTestSuite() {
    delete raw_;
    delete v4_path_;
    delete bundle_;
    raw_ = nullptr;
    v4_path_ = nullptr;
    bundle_ = nullptr;
    InferenceBundleTest::TearDownTestSuite();
  }

  // Writes `raw` with bytes [at, at+len) replaced and expects the loader
  // to reject it with the canonical malformed-v4 message.
  static void ExpectMutationRejected(size_t at, const void* bytes, size_t len,
                                     const char* label) {
    std::string mutated = *raw_;
    ASSERT_LE(at + len, mutated.size()) << label;
    std::memcpy(mutated.data() + at, bytes, len);
    const std::string path = TempPath("v4_mutated.dssb");
    ASSERT_TRUE(io::WriteStringToFile(path, mutated).ok);
    io::InferenceBundle loaded;
    const io::Status status = io::LoadInferenceBundle(path, &loaded);
    EXPECT_FALSE(status.ok) << label;
    EXPECT_NE(status.message.find("malformed v4 bundle"), std::string::npos)
        << label << ": " << status.message;
  }

  static void ExpectU32MutationRejected(size_t at, uint32_t value,
                                        const char* label) {
    ExpectMutationRejected(at, &value, sizeof(value), label);
  }
  static void ExpectU64MutationRejected(size_t at, uint64_t value,
                                        const char* label) {
    ExpectMutationRejected(at, &value, sizeof(value), label);
  }

  static io::InferenceBundle* bundle_;
  static std::string* v4_path_;
  static std::string* raw_;
};

io::InferenceBundle* BundleV4Test::bundle_ = nullptr;
std::string* BundleV4Test::v4_path_ = nullptr;
std::string* BundleV4Test::raw_ = nullptr;

TEST_F(BundleV4Test, RoundTripIsZeroCopyAndBitExact) {
  io::InferenceBundle loaded;
  loaded.quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  ASSERT_TRUE(io::LoadInferenceBundle(*v4_path_, &loaded).ok);
  EXPECT_EQ(loaded.format_version, 4u);
  EXPECT_GT(loaded.bytes_mapped(), 0u);
  EXPECT_GE(loaded.load_ms, 0.0);
  EXPECT_TRUE(loaded.has_ms_skeleton);
  EXPECT_TRUE(loaded.ms_skeleton.is_view());
  EXPECT_EQ(loaded.display_name, bundle_->display_name);
  EXPECT_EQ(loaded.hidden_dim, bundle_->hidden_dim);
  EXPECT_EQ(loaded.ms_explainer, bundle_->ms_explainer);
  EXPECT_EQ(loaded.drug_names, bundle_->drug_names);

  // The tensors must be views into the mapping, not copies.
  const unsigned char* base = loaded.mapping->data();
  const unsigned char* end = base + loaded.bytes_mapped();
  const float* w = loaded.patient_fc.layers.front().weight.ReadPtr();
  EXPECT_TRUE(reinterpret_cast<const unsigned char*>(w) >= base &&
              reinterpret_cast<const unsigned char*>(w) < end);

  const tensor::Matrix x =
      dataset_->patient_features.GatherRows(dataset_->split.test);
  io::InferenceBundle float_ref = *bundle_;
  float_ref.quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  const tensor::Matrix before = float_ref.PredictScores(x);
  const tensor::Matrix after = loaded.PredictScores(x);
  EXPECT_EQ(before.data(), after.data());  // bit-exact across the file

  EXPECT_TRUE(io::VerifyBundleV4Checksums(*v4_path_).ok);
}

TEST_F(BundleV4Test, V4ScoresBitIdenticalToInProcessAcrossQuantModes) {
  const tensor::Matrix x =
      dataset_->patient_features.GatherRows(dataset_->split.test);
  const int patient = dataset_->split.test.front();

  for (const auto mode : {tensor::kernels::QuantMode::kNone,
                          tensor::kernels::QuantMode::kInt8}) {
    io::InferenceBundle in_process = *bundle_;
    io::InferenceBundle v4;
    in_process.quantization = static_cast<int>(mode);
    v4.quantization = static_cast<int>(mode);
    ASSERT_TRUE(io::LoadInferenceBundle(*v4_path_, &v4).ok);
    EXPECT_EQ(v4.format_version, 4u);

    const tensor::Matrix in_process_scores = in_process.PredictScores(x);
    const tensor::Matrix mapped = v4.PredictScores(x);
    EXPECT_EQ(in_process_scores.data(), mapped.data())
        << "mode " << static_cast<int>(mode);

    const auto expected = in_process.Suggest(
        dataset_->patient_features.GatherRows({patient}), 3);
    const auto actual =
        v4.Suggest(dataset_->patient_features.GatherRows({patient}), 3);
    EXPECT_EQ(expected.drugs, actual.drugs);
    EXPECT_EQ(expected.scores, actual.scores);
    EXPECT_EQ(expected.explanation.subgraph_drugs,
              actual.explanation.subgraph_drugs);
    EXPECT_DOUBLE_EQ(expected.explanation.suggestion_satisfaction,
                     actual.explanation.suggestion_satisfaction);
  }
}

TEST_F(BundleV4Test, MappedQuantizedTilesMatchTheHeapPacking) {
  io::InferenceBundle loaded;
  ASSERT_TRUE(io::LoadInferenceBundle(*v4_path_, &loaded).ok);
  ASSERT_EQ(loaded.patient_fc.quantized.layers.size(),
            bundle_->patient_fc.quantized.layers.size());
  for (size_t i = 0; i < bundle_->patient_fc.quantized.layers.size(); ++i) {
    const auto& saved = bundle_->patient_fc.quantized.layers[i].weights;
    const auto& got = loaded.patient_fc.quantized.layers[i].weights;
    ASSERT_EQ(saved.packed_size(), got.packed_size()) << "layer " << i;
    EXPECT_EQ(std::memcmp(saved.packed_data(), got.packed_data(),
                          saved.packed_size()),
              0)
        << "layer " << i;
    EXPECT_EQ(std::memcmp(saved.scale_data(), got.scale_data(),
                          static_cast<size_t>(saved.n_padded) * sizeof(float)),
              0)
        << "layer " << i;
  }
}

TEST_F(BundleV4Test, MappedSkeletonEqualsInteractionSkeleton) {
  io::InferenceBundle loaded;
  ASSERT_TRUE(io::LoadInferenceBundle(*v4_path_, &loaded).ok);
  ASSERT_TRUE(loaded.has_ms_skeleton);
  const graph::Graph expected = loaded.ddi.InteractionSkeleton();
  ASSERT_EQ(loaded.ms_skeleton.num_vertices(), expected.num_vertices());
  ASSERT_EQ(loaded.ms_skeleton.num_edges(), expected.num_edges());
  for (int e = 0; e < expected.num_edges(); ++e) {
    EXPECT_EQ(loaded.ms_skeleton.Edge(e), expected.Edge(e)) << "edge " << e;
  }
}

TEST_F(BundleV4Test, QuantlessV4FileRebuildsInt8FromMappedFloats) {
  io::InferenceBundle stripped = *bundle_;
  stripped.patient_fc.quantized.layers.clear();
  stripped.decoder.quantized.layers.clear();
  const std::string path = TempPath("model_v4_noquant.dssb");
  ASSERT_TRUE(io::SaveInferenceBundleV4(path, stripped).ok);

  io::InferenceBundle loaded;
  loaded.quantization = static_cast<int>(tensor::kernels::QuantMode::kInt8);
  ASSERT_TRUE(io::LoadInferenceBundle(path, &loaded).ok);
  EXPECT_FALSE(loaded.patient_fc.quantized.layers.empty());

  io::InferenceBundle shipped;
  shipped.quantization = static_cast<int>(tensor::kernels::QuantMode::kInt8);
  ASSERT_TRUE(io::LoadInferenceBundle(*v4_path_, &shipped).ok);
  const tensor::Matrix x =
      dataset_->patient_features.GatherRows(dataset_->split.test);
  const tensor::Matrix rebuilt = loaded.PredictScores(x);
  const tensor::Matrix from_section = shipped.PredictScores(x);
  EXPECT_EQ(rebuilt.data(), from_section.data());
}

TEST_F(BundleV4Test, EveryTruncatedPrefixOfAV4FileIsRejected) {
  const std::string cut_path = TempPath("v4_truncate_cut.dssb");
  for (int tenths = 0; tenths < 10; ++tenths) {
    const size_t cut = raw_->size() * static_cast<size_t>(tenths) / 10;
    ASSERT_TRUE(io::WriteStringToFile(cut_path, raw_->substr(0, cut)).ok);
    io::InferenceBundle loaded;
    EXPECT_FALSE(io::LoadInferenceBundle(cut_path, &loaded).ok)
        << "accepted a v4 bundle truncated to " << cut << " of "
        << raw_->size() << " bytes";
  }
}

TEST_F(BundleV4Test, HeaderAndSectionTableFuzzFailsCleanly) {
  // Each mutation targets one documented header/table field (offsets per
  // the format comment in io/bundle_v4.h) and must produce a clean
  // Status — never a crash or a silently wrong bundle.
  ExpectU32MutationRejected(4, 999, "unsupported header version");
  ExpectU32MutationRejected(8, 7, "wrong format id");
  ExpectU32MutationRejected(12, 3, "unsupported bundle version");
  ExpectU64MutationRejected(16, raw_->size() + 4096, "file size too large");
  ExpectU64MutationRejected(16, 64, "file size too small");
  ExpectU32MutationRejected(24, 0, "zero sections");
  ExpectU32MutationRejected(24, 1u << 20, "implausible section count");
  // Section-table entry 0 lives at offset 32.
  ExpectU32MutationRejected(32, 0xffff, "unknown section type");
  ExpectU64MutationRejected(32 + 8, 4096 + 8, "misaligned section offset");
  ExpectU64MutationRejected(32 + 16, raw_->size() * 2,
                            "section extends past end of file");
  // Duplicate: make entry 1 the same type as entry 0.
  uint32_t type0 = 0;
  std::memcpy(&type0, raw_->data() + 32, sizeof(type0));
  ExpectU32MutationRejected(32 + 32, type0, "duplicate section");
  // Overlap: point entry 1 at entry 0's pages.
  uint64_t offset0 = 0;
  std::memcpy(&offset0, raw_->data() + 32 + 8, sizeof(offset0));
  ExpectU64MutationRejected(32 + 32 + 8, offset0, "overlapping sections");
}

TEST_F(BundleV4Test, GarbageAfterV4MagicIsRejected) {
  util::Rng rng(77);
  std::string garbage(8192, '\0');
  for (char& c : garbage) {
    c = static_cast<char>(rng.UniformInt(0, 255));
  }
  std::memcpy(garbage.data(), &io::kBundleV4Magic, sizeof(io::kBundleV4Magic));
  const std::string path = TempPath("v4_garbage.dssb");
  ASSERT_TRUE(io::WriteStringToFile(path, garbage).ok);
  io::InferenceBundle loaded;
  const io::Status status = io::LoadInferenceBundle(path, &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("malformed v4 bundle"), std::string::npos)
      << status.message;
}

TEST_F(BundleV4Test, CorruptedBundleRejected) {
  // Corruption inside sections — descriptors, and the one payload array
  // (int8 scales) the loader can afford to scan — fails at load with a
  // Status; corrupt weight bytes are the checksum verifier's job (below).
  const size_t meta = FindV4Section(*raw_, io::kSectionMeta);
  const size_t patient = FindV4Section(*raw_, io::kSectionPatientMlp);
  const size_t drug_reps = FindV4Section(*raw_, io::kSectionDrugReps);
  const size_t graph = FindV4Section(*raw_, io::kSectionGraph);
  const size_t quant = FindV4Section(*raw_, io::kSectionQuantPatient);
  ASSERT_GT(meta, 0u);
  ASSERT_GT(patient, 0u);
  ASSERT_GT(drug_reps, 0u);
  ASSERT_GT(graph, 0u);
  ASSERT_GT(quant, 0u);

  ExpectU32MutationRejected(meta, 0xfffffff0u, "display name length");
  // u32 layer count, then layer 0: u32 rows, u32 cols, i32 activation,
  // u64 weight_off.
  ExpectU64MutationRejected(patient + 16, 1, "misaligned weight offset");
  uint32_t rows = 0;
  std::memcpy(&rows, raw_->data() + drug_reps, sizeof(rows));
  ExpectU32MutationRejected(drug_reps, rows + 1, "matrix past section end");
  // u32 x4 counts, then the signed-edge array offset.
  ExpectU64MutationRejected(graph + 16, 3, "misaligned signed-edge offset");
  // u32 layer count, then layer 0: u32 k, u32 n, i32 activation, f32
  // error, u64 data_off, u64 scales_off.
  uint64_t scales_off = 0;
  std::memcpy(&scales_off, raw_->data() + quant + 28, sizeof(scales_off));
  const float nan = std::numeric_limits<float>::quiet_NaN();
  ExpectMutationRejected(quant + scales_off, &nan, sizeof(nan), "NaN scale");
}

TEST_F(BundleV4Test, RetiredV3BundleIsRejectedWithReexportHint) {
  // Files in the retired v3 framed format start with the "DSSD" frame
  // magic and the inference-bundle format id; the loader names the
  // format and the writer to re-export with.
  const std::string path = TempPath("model_v3_retired.dssb");
  ASSERT_TRUE(io::WriteFramedFile(path, io::kFormatInferenceBundle, 3,
                                  std::string(256, '\x01'))
                  .ok);
  io::InferenceBundle loaded;
  const io::Status status = io::LoadInferenceBundle(path, &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("retired v3"), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("SaveInferenceBundleV4"), std::string::npos)
      << status.message;

  // Any other framed artifact is simply not a bundle.
  ASSERT_TRUE(io::SaveMatrixFile(path, tensor::Matrix::Identity(3)).ok);
  const io::Status matrix_status = io::LoadInferenceBundle(path, &loaded);
  EXPECT_FALSE(matrix_status.ok);
  EXPECT_NE(matrix_status.message.find("bad magic"), std::string::npos)
      << matrix_status.message;
}

TEST_F(BundleV4Test, ChecksumVerifierCatchesPayloadBitRot) {
  // The loader stays O(pages) by design — it does NOT hash payloads — so
  // a single flipped weight byte must be caught by the offline verifier
  // that tooling (bundle_convert --selftest, check.sh) runs instead.
  uint64_t length = 0;
  const size_t drug_reps =
      FindV4Section(*raw_, io::kSectionDrugReps, &length);
  ASSERT_GT(drug_reps, 0u);
  ASSERT_GT(length, 40u);
  std::string mutated = *raw_;
  mutated[drug_reps + 40] = static_cast<char>(mutated[drug_reps + 40] ^ 0x10);
  const std::string path = TempPath("v4_bitrot.dssb");
  ASSERT_TRUE(io::WriteStringToFile(path, mutated).ok);

  const io::Status status = io::VerifyBundleV4Checksums(path);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("section checksum mismatch"),
            std::string::npos)
      << status.message;
  EXPECT_TRUE(io::VerifyBundleV4Checksums(*v4_path_).ok);
}

}  // namespace
}  // namespace dssddi
