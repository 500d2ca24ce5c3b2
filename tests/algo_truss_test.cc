#include <algorithm>

#include "algo/bfs.h"
#include "algo/truss.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "truss_oracle.h"
#include "util/rng.h"

namespace dssddi::algo {
namespace {

using graph::Graph;
using testing::IsPTruss;
using testing::PTrussEdges;

Graph CompleteGraph(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return Graph::FromEdges(n, edges);
}

Graph RandomGraph(int n, double p, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(p)) edges.emplace_back(u, v);
    }
  }
  return Graph::FromEdges(n, edges);
}

/// Reference O(m * n) support computation.
std::vector<int> NaiveSupport(const Graph& g) {
  std::vector<int> support(g.num_edges(), 0);
  for (int e = 0; e < g.num_edges(); ++e) {
    auto [u, v] = g.Edge(e);
    for (int w = 0; w < g.num_vertices(); ++w) {
      if (w != u && w != v && g.HasEdge(u, w) && g.HasEdge(v, w)) ++support[e];
    }
  }
  return support;
}

TEST(EdgeSupportTest, TriangleHasSupportOne) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  for (int s : EdgeSupport(g)) EXPECT_EQ(s, 1);
}

TEST(EdgeSupportTest, PathHasZeroSupport) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  for (int s : EdgeSupport(g)) EXPECT_EQ(s, 0);
}

TEST(TrussTest, CompleteGraphTrussIsN) {
  // Every edge of K_n lies in n-2 triangles -> truss number n.
  for (int n : {3, 4, 5, 6}) {
    Graph g = CompleteGraph(n);
    for (int t : TrussDecomposition(g)) EXPECT_EQ(t, n) << "K_" << n;
  }
}

TEST(TrussTest, TreeEdgesHaveTrussTwo) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {1, 3}, {3, 4}});
  for (int t : TrussDecomposition(g)) EXPECT_EQ(t, 2);
}

TEST(TrussTest, TriangleWithTailMixedTruss) {
  // Triangle 0-1-2 plus tail 2-3: triangle edges truss 3, tail truss 2.
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const auto truss = TrussDecomposition(g);
  EXPECT_EQ(truss[g.EdgeId(0, 1)], 3);
  EXPECT_EQ(truss[g.EdgeId(1, 2)], 3);
  EXPECT_EQ(truss[g.EdgeId(0, 2)], 3);
  EXPECT_EQ(truss[g.EdgeId(2, 3)], 2);
}

TEST(TrussTest, PTrussEdgesSatisfyInvariant) {
  Graph g = RandomGraph(30, 0.25, 77);
  for (int p = 2; p <= 5; ++p) {
    const auto alive = PTrussEdges(g, p);
    EXPECT_TRUE(IsPTruss(g, alive, p)) << "p=" << p;
  }
}

TEST(TrussTest, PTrussIsMaximal) {
  // Every edge with truss >= p must survive in the p-truss.
  Graph g = RandomGraph(25, 0.3, 99);
  const auto truss = TrussDecomposition(g);
  for (int p = 2; p <= 4; ++p) {
    const auto alive = PTrussEdges(g, p);
    for (int e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(alive[e] != 0, truss[e] >= p)
          << "edge " << e << " truss=" << truss[e] << " p=" << p;
    }
  }
}

class TrussPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrussPropertyTest, SupportMatchesNaiveOnRandomGraphs) {
  Graph g = RandomGraph(20, 0.3, GetParam());
  const auto fast = EdgeSupport(g);
  const auto naive = NaiveSupport(g);
  EXPECT_EQ(fast, naive);
}

TEST_P(TrussPropertyTest, TrussBetweenTwoAndSupportPlusTwo) {
  Graph g = RandomGraph(18, 0.35, GetParam() * 31 + 1);
  const auto truss = TrussDecomposition(g);
  const auto support = EdgeSupport(g);
  for (int e = 0; e < g.num_edges(); ++e) {
    EXPECT_GE(truss[e], 2);
    EXPECT_LE(truss[e], support[e] + 2);
  }
}

TEST_P(TrussPropertyTest, TrussNumberConsistentWithPTrussMembership) {
  Graph g = RandomGraph(16, 0.35, GetParam() * 131 + 7);
  const auto truss = TrussDecomposition(g);
  const int max_truss =
      truss.empty() ? 2 : *std::max_element(truss.begin(), truss.end());
  for (int p = 2; p <= max_truss; ++p) {
    const auto alive = PTrussEdges(g, p);
    for (int e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(alive[e] != 0, truss[e] >= p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, TrussPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(MaxQueryTrussnessTest, TriangleQuery) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  const auto truss = TrussDecomposition(g);
  EXPECT_EQ(MaxQueryTrussness(g, truss, {0, 1}), 3);
  EXPECT_EQ(MaxQueryTrussness(g, truss, {0, 4}), 2);
  EXPECT_EQ(MaxQueryTrussness(g, truss, {}), 0);
}

TEST(MaxQueryTrussnessTest, DisconnectedQueryReturnsZero) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  EXPECT_EQ(MaxQueryTrussness(g, TrussDecomposition(g), {0, 2}), 0);
}

// The identity the library relies on instead of peeling: for every p,
// the maximal p-truss is exactly {e : truss[e] >= p}; and MaxQueryTrussness
// read off the truss numbers equals the per-p peel loop it replaced.
void ExpectTrussNumbersMatchPeeling(const Graph& g, uint64_t query_seed) {
  const auto truss = TrussDecomposition(g);
  const int max_truss = truss.empty() ? 2 : *std::max_element(truss.begin(), truss.end());
  EXPECT_EQ(max_truss, testing::PeeledMaxTruss(g));
  for (int p = 2; p <= max_truss + 1; ++p) {
    const auto alive = PTrussEdges(g, p);
    std::vector<char> from_truss(g.num_edges());
    for (int e = 0; e < g.num_edges(); ++e) from_truss[e] = truss[e] >= p;
    EXPECT_EQ(from_truss, alive) << "p=" << p;
  }
  if (g.num_vertices() == 0) return;
  util::Rng rng(query_seed);
  for (int trial = 0; trial < 24; ++trial) {
    const int size = 1 + static_cast<int>(rng.NextBelow(std::min(5, g.num_vertices())));
    const auto query = rng.SampleWithoutReplacement(g.num_vertices(), size);
    EXPECT_EQ(MaxQueryTrussness(g, truss, query), testing::PeeledMaxQueryTrussness(g, query))
        << "query size " << size << " trial " << trial;
  }
}

class TrussOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrussOracleTest, RandomGraphTrussNumbersMatchPeeling) {
  const uint64_t seed = GetParam();
  util::Rng shape(seed);
  const int n = 8 + static_cast<int>(shape.NextBelow(30));
  const double p = 0.1 + 0.4 * shape.NextDouble();
  ExpectTrussNumbersMatchPeeling(RandomGraph(n, p, seed * 7919 + 3), seed);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, TrussOracleTest, ::testing::Range<uint64_t>(1, 41));

TEST(TrussOracleFixedGraphTest, CompleteGraphsMatchPeeling) {
  for (int n : {1, 2, 3, 4, 5, 6, 8}) {
    SCOPED_TRACE("K_" + std::to_string(n));
    ExpectTrussNumbersMatchPeeling(CompleteGraph(n), 100 + n);
  }
}

TEST(TrussOracleFixedGraphTest, EmptyGraphsMatchPeeling) {
  ExpectTrussNumbersMatchPeeling(Graph::FromEdges(0, {}), 1);
  ExpectTrussNumbersMatchPeeling(Graph::FromEdges(5, {}), 2);
}

}  // namespace
}  // namespace dssddi::algo
