// DDI knowledge-graph explorer: exercises the graph-algorithm substrate
// directly — truss decomposition of the interaction network, closest-
// truss-community queries around drug sets, and DDIGCN-predicted
// interaction scores for drug pairs with no recorded interaction.
//
//   ./examples/ddi_explorer

#include <algorithm>
#include <cstdio>
#include <vector>

#include "algo/ctc.h"
#include "algo/truss.h"
#include "core/ddi_module.h"
#include "data/catalog.h"
#include "data/ddi_database.h"

int main() {
  using namespace dssddi;
  const auto& catalog = data::Catalog::Instance();
  const graph::SignedGraph ddi = data::GenerateDdiDatabase(catalog);
  const graph::Graph skeleton = ddi.InteractionSkeleton();

  // --- Truss structure of the interaction network. ---
  const std::vector<int> truss = algo::TrussDecomposition(skeleton);
  std::vector<int> truss_histogram;
  for (int t : truss) {
    if (t >= static_cast<int>(truss_histogram.size())) truss_histogram.resize(t + 1, 0);
    ++truss_histogram[t];
  }
  std::printf("interaction network: %d drugs, %d edges\n", skeleton.num_vertices(),
              skeleton.num_edges());
  for (size_t t = 2; t < truss_histogram.size(); ++t) {
    if (truss_histogram[t] > 0) {
      std::printf("  truss %zu: %d edges\n", t, truss_histogram[t]);
    }
  }

  // --- Community around the statin pair of the paper's Fig. 8. ---
  const int simvastatin = catalog.FindDrug("Simvastatin");
  const int atorvastatin = catalog.FindDrug("Atorvastatin");
  const auto community =
      algo::FindClosestTrussCommunity(skeleton, truss, {simvastatin, atorvastatin});
  std::printf("\nclosest truss community around {Simvastatin, Atorvastatin}:\n"
              "  %zu drugs, trussness %d, diameter %d:\n",
              community.vertices.size(), community.trussness, community.diameter);
  for (int v : community.vertices) {
    std::printf("    %s\n", catalog.drug(v).name.c_str());
  }

  // --- DDIGCN as an interaction predictor for unseen pairs. ---
  core::DdiModuleConfig config;
  config.backbone = core::BackboneKind::kSgcn;
  config.epochs = 200;
  core::DdiModule module(ddi, config);
  std::printf("\ntraining DDIGCN... final MSE %.4f\n", module.Train());

  // Score a few pairs without recorded interactions; same-indication
  // pairs should lean synergistic, cross-indication pairs toward zero or
  // antagonistic.
  struct Pair {
    const char* a;
    const char* b;
  };
  const Pair probes[] = {{"Enalapril", "Lisinopril"},
                         {"Metformin", "Gliclazide"},
                         {"Omeprazole", "Salbutamol"},
                         {"Gabapentin", "Timolol"},
                         {"Warfarin", "Aspirin"}};
  std::printf("\npredicted interaction scores (>0 synergy-like, <0 antagonism-like):\n");
  for (const auto& probe : probes) {
    const int a = catalog.FindDrug(probe.a);
    const int b = catalog.FindDrug(probe.b);
    const auto recorded = ddi.SignOf(a, b);
    std::printf("  %-12s x %-12s -> %+.3f (recorded: %s)\n", probe.a, probe.b,
                module.PredictInteraction(a, b),
                recorded == graph::EdgeSign::kSynergistic    ? "synergistic"
                : recorded == graph::EdgeSign::kAntagonistic ? "antagonistic"
                                                             : "none");
  }
  return 0;
}
