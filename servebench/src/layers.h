#ifndef SERVEBENCH_LAYERS_H_
#define SERVEBENCH_LAYERS_H_

// Per-layer numbers of the traced run. Most are timed by the benchmark
// around public calls, replaying the run's own generated inputs after
// the timed phases; the rest are read from the service's stage
// histograms (trace_sample_every = 1 in this run) and its Stats().

#include <string>
#include <utility>
#include <vector>

#include "checker.h"
#include "common.h"
#include "loadgen.h"
#include "stack.h"
#include "workload.h"

namespace servebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct LayerInputs {
  const WorkloadSpec* spec = nullptr;
  Inputs* inputs = nullptr;
  Stack* stack = nullptr;
  /// Checked answers of requests [0, observed.size()).
  const std::vector<Observed>* observed = nullptr;
  const PhaseStats* closed = nullptr;
  const PhaseStats* open = nullptr;
  double closed_rps = 0.0;        // the closed phase's rate, as rps reports it
  std::vector<double> fit_s;      // every model fit of the run
  std::vector<double> reload_ms;  // reloads made during the timed phases
  std::string bundle_path;        // the served bundle
  std::string scratch_dir;        // for the save/load replay
  uint64_t next_index = 0;        // first request index the replays may use
};

/// Measures every per-layer metric, recording spans into `spans`.
std::vector<Metric> MeasureLayers(const LayerInputs& in, SpanLog& spans);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H_
