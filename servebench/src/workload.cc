#include "workload.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>

#include "data/catalog.h"
#include "data/chronic_cohort.h"
#include "data/ddi_database.h"
#include "net/json.h"
#include "net/wire.h"
#include "util/rng.h"

namespace servebench {
namespace {

namespace wire = dssddi::net::wire;

/// The training cohort's seed (ChronicCohortOptions default); held-out
/// patients must never come from it.
constexpr uint64_t kTrainingCohortSeed = 2001;

/// Held-out rows of the fresh-patient workloads. A run must never send
/// more requests than its pool holds (main checks it): a reused row would
/// repeat a drug set and flatter a memo. A 25 s run sends 11 s of warm-up
/// and closed loop plus the open loop, so 2^17 JSON rows cover about
/// 11500 requests/s (10x today's explain_json on one core) and 2^18
/// frames about 22000/s (5x today's score_binary). JSON rows are the
/// costly ones to encode.
constexpr int kJsonPoolRows = 1 << 17;
constexpr int kFramePoolRows = 1 << 18;
/// Held-out cohorts (seeds) a run's patients are drawn from.
constexpr int kSubCohorts = 16;

std::vector<WorkloadSpec> AllWorkloads() {
  std::vector<WorkloadSpec> out;

  WorkloadSpec explain;
  explain.name = "explain_json";
  explain.codec = Codec::kJson;
  explain.explain = true;
  explain.connections = 4;
  explain.closed_depth = 1;
  explain.open_rate = 300.0;
  explain.pool_rows = kJsonPoolRows;
  out.push_back(explain);

  WorkloadSpec binary;
  binary.name = "score_binary";
  binary.codec = Codec::kFrame;
  binary.explain = false;
  binary.connections = 2;
  binary.closed_depth = 8;
  binary.open_rate = 800.0;
  binary.pool_rows = kFramePoolRows;
  binary.fixed_k = 3;
  out.push_back(binary);

  // The hot set is 4x the 4096-entry cache of each replica (the router
  // spreads every patient's visits over both), so LRU eviction runs
  // between reloads.
  WorkloadSpec routed;
  routed.name = "routed_reload";
  routed.codec = Codec::kJson;
  routed.explain = true;
  routed.routed = true;
  routed.connections = 4;
  routed.closed_depth = 1;
  routed.open_rate = 500.0;
  routed.pool_rows = 16384;
  out.push_back(routed);
  return out;
}

void WriteTenDigits(char* at, int64_t value) {
  for (int i = 9; i >= 0; --i) {
    at[i] = static_cast<char>('0' + value % 10);
    value /= 10;
  }
}

void WriteU64(char* at, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    at[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) {
      *out = spec;
      return true;
    }
  }
  return false;
}

Inputs::Inputs(const WorkloadSpec& spec, uint64_t seed, int feature_width,
               Arena& arena)
    : spec_(spec), width_(feature_width), rows_(spec.pool_rows) {
  heldout_seed_ = 0x5eb0000ull + seed * 7919ull;

  // Held-out patients: same catalog and DDI database as training, other
  // cohort seeds, rows shuffled so cohorts and genders interleave. A
  // cohort seed also draws population-wide parameters (the latent
  // prescribing preferences), so one cohort per run would make the cost
  // of a run's requests depend on its seed; kSubCohorts cohorts average
  // that out.
  const dssddi::data::Catalog& catalog = dssddi::data::Catalog::Instance();
  const dssddi::graph::SignedGraph ddi =
      dssddi::data::GenerateDdiDatabase(catalog);
  std::vector<dssddi::data::PatientRecord> patients;
  patients.reserve(static_cast<size_t>(rows_));
  for (int c = 0; c < kSubCohorts; ++c) {
    const int size = rows_ / kSubCohorts + (c < rows_ % kSubCohorts ? 1 : 0);
    dssddi::data::ChronicCohortOptions cohort;
    cohort.seed = heldout_seed_ + static_cast<uint64_t>(c) * 104729ull;
    if (cohort.seed == kTrainingCohortSeed) ++cohort.seed;
    cohort.num_males = size / 2;
    cohort.num_females = size - size / 2;
    std::vector<dssddi::data::PatientRecord> part =
        dssddi::data::ChronicCohortGenerator(catalog, ddi, cohort).Generate();
    std::move(part.begin(), part.end(), std::back_inserter(patients));
  }
  dssddi::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  for (size_t i = patients.size(); i > 1; --i) {
    std::swap(patients[i - 1], patients[rng.NextBelow(i)]);
  }

  features_ = arena.AllocateArray<float>(static_cast<size_t>(rows_) * width_);
  k_ = arena.AllocateArray<int8_t>(rows_);
  for (int r = 0; r < rows_; ++r) {
    const std::vector<float>& row = patients[static_cast<size_t>(r)].features;
    if (static_cast<int>(row.size()) != width_) {
      throw std::runtime_error("held-out feature width differs from model");
    }
    std::copy(row.begin(), row.end(),
              features_ + static_cast<size_t>(r) * width_);
    k_[r] = static_cast<int8_t>(
        spec_.fixed_k > 0 ? spec_.fixed_k : 2 + static_cast<int>(rng.NextBelow(5)));
  }

  bytes_ = arena.AllocateArray<char*>(rows_);
  sizes_ = arena.AllocateArray<uint32_t>(rows_);
  id_offsets_ = arena.AllocateArray<uint32_t>(rows_);
  for (int r = 0; r < rows_; ++r) {
    std::string bytes;
    uint32_t id_offset = 0;
    if (spec_.codec == Codec::kJson) {
      const std::string body = JsonBody(r, kPatientIdBase, k_[r], spec_.explain);
      bytes = "POST /v1/suggest HTTP/1.1\r\nHost: servebench\r\n"
              "Content-Type: application/json\r\nContent-Length: " +
              std::to_string(body.size()) + "\r\n\r\n";
      id_offset = static_cast<uint32_t>(bytes.size() +
                                        body.find("\"patient_id\":") + 13);
      bytes += body;
    } else {
      bytes = FrameBytes(r, kPatientIdBase, k_[r], spec_.explain, 1);
      id_offset = static_cast<uint32_t>(wire::kHeaderBytes);
    }
    bytes_[r] = const_cast<char*>(arena.Store(bytes.data(), bytes.size()));
    sizes_[r] = static_cast<uint32_t>(bytes.size());
    id_offsets_[r] = id_offset;
  }

  // Visit order. Fresh-patient workloads walk the shuffled pool; the hot
  // set draws ranks from a Zipf law over it.
  if (!spec_.routed) {
    sequence_len_ = static_cast<size_t>(rows_);
    sequence_ = arena.AllocateArray<uint32_t>(sequence_len_);
    std::iota(sequence_, sequence_ + sequence_len_, 0u);
  } else {
    std::vector<double> cdf(static_cast<size_t>(rows_));
    double total = 0.0;
    for (int r = 0; r < rows_; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf[static_cast<size_t>(r)] = total;
    }
    sequence_len_ = size_t{1} << 18;
    sequence_ = arena.AllocateArray<uint32_t>(sequence_len_);
    for (size_t i = 0; i < sequence_len_; ++i) {
      const double u = rng.NextDouble() * total;
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      sequence_[i] = static_cast<uint32_t>(std::min(rank, cdf.size() - 1));
    }
  }
}

Inputs::Request Inputs::Prepare(uint64_t index) {
  const int row = RowOf(index);
  char* bytes = bytes_[row];
  if (spec_.codec == Codec::kJson) {
    WriteTenDigits(bytes + id_offsets_[row], PatientIdOf(index));
  } else {
    WriteU64(bytes + wire::kRequestIdOffset, index + 1);
    WriteU64(bytes + id_offsets_[row],
             static_cast<uint64_t>(PatientIdOf(index)));
  }
  return {bytes, sizes_[row]};
}

double Inputs::TopShare(size_t patients) const {
  std::vector<uint64_t> visits(static_cast<size_t>(rows_), 0);
  for (size_t i = 0; i < sequence_len_; ++i) ++visits[sequence_[i]];
  std::sort(visits.begin(), visits.end(), std::greater<uint64_t>());
  const size_t top = std::min(patients, visits.size());
  uint64_t hot = 0;
  for (size_t i = 0; i < top; ++i) hot += visits[i];
  return static_cast<double>(hot) / static_cast<double>(sequence_len_);
}

std::string Inputs::JsonBody(int row, int64_t patient_id, int k,
                             bool explain) const {
  dssddi::net::JsonWriter json;
  json.BeginObject().Key("patient_id").Int(patient_id).Key("features").BeginArray();
  const float* features = Row(row);
  for (int j = 0; j < width_; ++j) json.Float(features[j]);
  json.EndArray().Key("k").Int(k).Key("explain").Bool(explain).EndObject();
  return json.str();
}

std::string Inputs::FrameBytes(int row, int64_t patient_id, int k, bool explain,
                               uint64_t request_id) const {
  wire::SuggestRequestFrame frame;
  frame.patient_id = patient_id;
  frame.k = k;
  frame.explain = explain;
  frame.features.assign(Row(row), Row(row) + width_);
  frame.request_id = request_id;
  return wire::EncodeSuggestRequest(frame);
}

}  // namespace servebench
