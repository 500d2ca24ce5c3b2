// Golden digest of Medical Support explanations: every field of
// MsModule::Explain, under both explainers, over a fixed seeded list of
// drug sets on the chronic-study DDI skeleton. The digests were recorded
// from the explainers before the CTC truss index existed; any change to
// which subgraph an explanation returns, or to any number it reports,
// changes them. Explanations never touch the GEMM backend or the
// quantization mode, so the same constants hold in every check leg.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/ms_module.h"
#include "data/catalog.h"
#include "data/ddi_database.h"
#include "graph/signed_graph.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace dssddi {
namespace {

/// FNV-1a over a canonical little-endian byte stream.
class Digest {
 public:
  void Int(int64_t value) {
    uint64_t bits = static_cast<uint64_t>(value);
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(bits >> (8 * i)));
  }
  void Double(double value) {
    int64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Int(bits);
  }
  void Ints(const std::vector<int>& values) {
    Int(static_cast<int64_t>(values.size()));
    for (int v : values) Int(v);
  }
  void Edges(const std::vector<core::InteractionEdge>& edges) {
    Int(static_cast<int64_t>(edges.size()));
    for (const core::InteractionEdge& e : edges) {
      Int(e.drug_u);
      Int(e.drug_v);
      Int(static_cast<int>(e.sign));
    }
  }
  void Explanation(const core::Explanation& exp) {
    Ints(exp.suggested_drugs);
    Ints(exp.subgraph_drugs);
    Edges(exp.subgraph_edges);
    Edges(exp.synergies_within);
    Edges(exp.antagonisms_within);
    Edges(exp.antagonisms_outward);
    Double(exp.suggestion_satisfaction);
    Int(exp.trussness);
    Int(exp.diameter);
    Double(exp.density);
  }
  uint64_t value() const { return state_; }

 private:
  void Byte(uint8_t b) {
    state_ ^= b;
    state_ *= 0x100000001b3ULL;
  }
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// The default interaction graph with every edge of `isolate` dropped
/// and every edge between drug ids below and at-or-above `split` cut:
/// isolated drugs and disconnected drug sets, which the connected
/// default skeleton has none of.
graph::SignedGraph SplitDdi(const graph::SignedGraph& ddi, const std::vector<int>& isolate,
                            int split) {
  std::vector<graph::SignedEdge> edges;
  for (const graph::SignedEdge& e : ddi.edges()) {
    bool keep = (e.u < split) == (e.v < split);
    for (int d : isolate) keep = keep && e.u != d && e.v != d;
    if (keep) edges.push_back(e);
  }
  return graph::SignedGraph(ddi.num_vertices(), std::move(edges));
}

/// Seeded drug sets, `per_k` for each k in 1..6, plus the hand-picked
/// `extra` sets.
std::vector<std::vector<int>> DrugSets(int num_drugs, int per_k, uint64_t seed,
                                       const std::vector<std::vector<int>>& extra) {
  util::Rng rng(seed);
  std::vector<std::vector<int>> sets = extra;
  for (int k = 1; k <= 6; ++k) {
    for (int i = 0; i < per_k; ++i) sets.push_back(rng.SampleWithoutReplacement(num_drugs, k));
  }
  return sets;
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(value));
  return buf;
}

uint64_t ExplanationDigest(const graph::SignedGraph& ddi, core::ExplainerKind kind,
                           const std::vector<std::vector<int>>& sets) {
  const core::MsModule ms(ddi, 0.5, kind);
  Digest digest;
  for (const std::vector<int>& set : sets) digest.Explanation(ms.Explain(set));
  return digest.value();
}

class ExplainGoldenTest : public ::testing::Test {
 protected:
  const graph::SignedGraph ddi_ = data::GenerateDdiDatabase(data::Catalog::Instance());
};

TEST_F(ExplainGoldenTest, DefaultSkeletonExplanationsMatchRecordedDigests) {
  ASSERT_EQ(ddi_.num_vertices(), 86);
  ASSERT_EQ(ddi_.num_edges(), 340);
  const auto sets = DrugSets(ddi_.num_vertices(), 300, 1401, {});
  EXPECT_EQ(Hex(ExplanationDigest(ddi_, core::ExplainerKind::kClosestTrussCommunity, sets)),
            "0x915ef05c7982fd99");
  EXPECT_EQ(Hex(ExplanationDigest(ddi_, core::ExplainerKind::kDensestSubgraph, sets)),
            "0x509dfeb72d9599fc");
}

TEST_F(ExplainGoldenTest, IsolatedAndDisconnectedSetsMatchRecordedDigests) {
  const std::vector<int> isolated = {0, 50, 85};
  const graph::SignedGraph split = SplitDdi(ddi_, isolated, 43);
  const graph::Graph skeleton = split.InteractionSkeleton();
  for (int d : isolated) ASSERT_EQ(skeleton.Degree(d), 0) << d;
  // Single isolated drugs, isolated pairs, an isolated drug with
  // connected partners, and sets straddling the cut.
  const auto sets = DrugSets(split.num_vertices(), 100, 1402,
                             {{0}, {50}, {0, 85}, {0, 50, 85}, {0, 1, 2},
                              {50, 20, 60}, {1, 60}, {10, 20, 44, 70}});
  EXPECT_EQ(Hex(ExplanationDigest(split, core::ExplainerKind::kClosestTrussCommunity, sets)),
            "0x43d24d523a048855");
  EXPECT_EQ(Hex(ExplanationDigest(split, core::ExplainerKind::kDensestSubgraph, sets)),
            "0xd32125b7dd8c1486");
}

}  // namespace
}  // namespace dssddi
