#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

// Workload definitions and their seeded inputs: held-out chronic-cohort
// patients, pre-encoded request bytes (JSON over HTTP or binary wire
// frames) kept in the arena, and the order in which requests visit them.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace servebench {

enum class Codec { kJson, kFrame };

struct WorkloadSpec {
  std::string name;
  Codec codec = Codec::kJson;
  bool explain = true;
  /// Traffic enters through a RouterFrontend over two replicas, which
  /// hot-reload between two bundles every kReloadEveryRequests closed-loop
  /// sends, and patients revisit a Zipf(kZipfExponent) hot set, each with
  /// a fixed id and k (so repeats can hit the cache). Otherwise every
  /// request is a fresh patient: a new id and a held-out row no earlier
  /// request used.
  bool routed = false;
  /// Connections of both loops; requests kept in flight on each in the
  /// closed loop.
  int connections = 0;
  int closed_depth = 0;
  /// The open loop's fixed absolute send rate (1/s).
  double open_rate = 0.0;
  /// Distinct held-out patient rows generated for the run.
  int pool_rows = 0;
  /// k for every request (0 = drawn per patient from [2, 6]).
  int fixed_k = 0;
};

/// The routed hot set's skew: YCSB's default Zipfian constant.
inline constexpr double kZipfExponent = 0.99;
/// Closed-loop sends between routed replica reloads (replicas take turns).
inline constexpr int kReloadEveryRequests = 20000;

/// Looks a workload up by name; false when unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* out);

/// Patient ids are written as ten decimal digits starting here, so a
/// pre-encoded JSON body can take a new id without re-encoding.
inline constexpr int64_t kPatientIdBase = 1000000000;

/// The seeded inputs of one run.
class Inputs {
 public:
  /// Generates `spec.pool_rows` held-out patients from the chronic-cohort
  /// generator, in several cohorts under seeds derived from `seed` (never
  /// the training seed), and pre-encodes one request per patient into
  /// `arena`.
  Inputs(const WorkloadSpec& spec, uint64_t seed, int feature_width,
         Arena& arena);

  struct Request {
    const char* bytes = nullptr;
    size_t size = 0;
  };
  /// Bytes of request `index` (0-based, over the whole run). Patches the
  /// patient id (and, for frames, the request id = index + 1) in place;
  /// the bytes stay valid until the next call for the same row.
  Request Prepare(uint64_t index);

  int RowOf(uint64_t index) const {
    return static_cast<int>(sequence_[index % sequence_len_]);
  }
  size_t SizeOf(uint64_t index) const { return sizes_[RowOf(index)]; }
  int KOf(uint64_t index) const { return k_[RowOf(index)]; }
  int64_t PatientIdOf(uint64_t index) const {
    return kPatientIdBase +
           static_cast<int64_t>(spec_.routed ? RowOf(index) : index);
  }
  const float* Row(int row) const {
    return features_ + static_cast<size_t>(row) * width_;
  }
  int width() const { return width_; }
  int rows() const { return rows_; }
  const WorkloadSpec& spec() const { return spec_; }
  uint64_t heldout_seed() const { return heldout_seed_; }
  /// Share of requests (over the visit sequence) that go to the
  /// `patients` most visited patients — the hot-set concentration.
  double TopShare(size_t patients) const;

  /// A JSON /v1/suggest body for `row` with explain on (self-test and
  /// layer replays use it regardless of the workload's codec).
  std::string JsonBody(int row, int64_t patient_id, int k, bool explain) const;
  std::string FrameBytes(int row, int64_t patient_id, int k, bool explain,
                         uint64_t request_id) const;

 private:
  WorkloadSpec spec_;
  uint64_t heldout_seed_ = 0;
  int width_ = 0;
  int rows_ = 0;
  float* features_ = nullptr;
  int8_t* k_ = nullptr;
  char** bytes_ = nullptr;
  uint32_t* sizes_ = nullptr;
  uint32_t* id_offsets_ = nullptr;
  uint32_t* sequence_ = nullptr;
  size_t sequence_len_ = 0;
};

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
