#ifndef SERVEBENCH_CHECKER_H_
#define SERVEBENCH_CHECKER_H_

// The answer checker. Every response of a run is judged against
//  - the unbatched in-process answer: InferenceBundle::PredictScores on
//    the request's own feature row (one-row matrix) plus TopKDrugs, on
//    the bundle of the model generation the response names; drugs and
//    scores must match bit for bit;
//  - the method's properties, recomputed from the DDI database: scores
//    non-increasing; synergies/antagonisms within the suggestion are
//    exactly its signed pairs; outward antagonisms are exactly the
//    antagonistic pairs from suggested drugs to the other subgraph drugs;
//    the subgraph contains the suggestion; SS equals Eq. 19 from those
//    counts and the bundle's alpha.
// Checking runs after the timed phases, on several threads.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/signed_graph.h"
#include "io/inference_bundle.h"
#include "loadgen.h"
#include "workload.h"

namespace servebench {

/// What a checked answer suggested, for the layer replays and counts.
struct Observed {
  bool ok = false;
  bool explained = false;
  std::vector<int> drugs;  // in answer order
};

class Checker {
 public:
  /// `bundles` are loaded from the files the servers serve; `bundle_of`
  /// maps a response's model_version to an index into them (-1 unknown).
  Checker(std::vector<const dssddi::io::InferenceBundle*> bundles,
          std::function<int(uint64_t)> bundle_of, const Inputs& inputs);

  /// Computes the expected answers of every row the records use, then
  /// checks records [first, end) on `threads` threads. Returns the number
  /// of failed checks; the first few reasons go to `errors`.
  uint64_t CheckAll(const Record* records, uint64_t first, uint64_t end,
                    int threads, std::vector<Observed>* observed,
                    std::vector<std::string>* errors);

  /// Checks one response of request `index` (JSON body or wire frame).
  bool CheckJson(const std::string& body, uint64_t index, bool explain,
                 Observed* observed, std::string* why) const;
  bool CheckFrame(const std::string& frame, uint64_t index, Observed* observed,
                  std::string* why) const;

  /// Corrupts one drug id and, separately, the SS value of an accepted
  /// explained JSON answer, and one drug id of an accepted frame (when
  /// given); true when the checker rejects every corruption.
  bool SelfTest(const std::string& json_body, uint64_t json_index,
                const std::string& frame, uint64_t frame_index,
                std::string* report) const;

  /// The unbatched top-k drugs of `row` on `bundle`, in answer order.
  std::vector<int> UnbatchedTopK(int bundle, int row, int k) const;

 private:
  /// Computes one expected answer; not safe to race on one slot.
  void Expect(int bundle, int row) const;

  struct Expected {
    bool ready = false;
    int32_t drugs[6] = {0, 0, 0, 0, 0, 0};
    float scores[6] = {0, 0, 0, 0, 0, 0};
  };
  const Expected& ExpectedFor(int bundle, int row) const;
  bool CheckAnswer(uint64_t index, uint64_t version,
                   const std::vector<int>& drugs,
                   const std::vector<float>& scores, int* bundle,
                   std::string* why) const;

  std::vector<const dssddi::io::InferenceBundle*> bundles_;
  std::function<int(uint64_t)> bundle_of_;
  const Inputs& inputs_;
  dssddi::graph::SignedGraph ddi_;
  /// [bundle][row], filled before checking starts.
  mutable std::vector<std::vector<Expected>> expected_;
};

}  // namespace servebench

#endif  // SERVEBENCH_CHECKER_H_
