#include "checker.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "core/suggestion_model.h"
#include "data/catalog.h"
#include "data/ddi_database.h"
#include "net/json.h"
#include "net/wire.h"
#include "tensor/matrix.h"

namespace servebench {
namespace {

namespace wire = dssddi::net::wire;
using dssddi::graph::EdgeSign;
using dssddi::net::JsonValue;
using Pairs = std::vector<std::pair<int, int>>;

bool SameBits(float a, float b) {
  uint32_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

bool ReadInts(const JsonValue* value, std::vector<int>* out) {
  if (value == nullptr || !value->is_array()) return false;
  out->clear();
  for (const JsonValue& item : value->Items()) {
    if (!item.is_number()) return false;
    out->push_back(static_cast<int>(item.AsInt()));
  }
  return true;
}

/// [[u,v],...] as pairs; `unordered` normalizes each to (min, max).
bool ReadPairs(const JsonValue* value, bool unordered, Pairs* out) {
  if (value == nullptr || !value->is_array()) return false;
  out->clear();
  for (const JsonValue& item : value->Items()) {
    std::vector<int> pair;
    if (!ReadInts(&item, &pair) || pair.size() != 2) return false;
    if (unordered && pair[0] > pair[1]) std::swap(pair[0], pair[1]);
    out->emplace_back(pair[0], pair[1]);
  }
  std::sort(out->begin(), out->end());
  return true;
}

/// Replaces the first number after `key` in `text` with `replacement`.
bool ReplaceNumberAfter(std::string* text, const std::string& key,
                        const std::string& replacement) {
  size_t at = text->find(key);
  if (at == std::string::npos) return false;
  at += key.size();
  size_t end = at;
  while (end < text->size() &&
         (std::isdigit(static_cast<unsigned char>((*text)[end])) ||
          std::strchr("+-.eE", (*text)[end]) != nullptr)) {
    ++end;
  }
  if (end == at) return false;
  text->replace(at, end - at, replacement);
  return true;
}

std::string NumberAfter(const std::string& text, const std::string& key) {
  size_t at = text.find(key);
  if (at == std::string::npos) return "";
  at += key.size();
  size_t end = at;
  while (end < text.size() && std::strchr("0123456789+-.eE", text[end]) != nullptr) {
    ++end;
  }
  return text.substr(at, end - at);
}

}  // namespace

Checker::Checker(std::vector<const dssddi::io::InferenceBundle*> bundles,
                 std::function<int(uint64_t)> bundle_of, const Inputs& inputs)
    : bundles_(std::move(bundles)),
      bundle_of_(std::move(bundle_of)),
      inputs_(inputs),
      ddi_(dssddi::data::GenerateDdiDatabase(dssddi::data::Catalog::Instance())),
      expected_(bundles_.size(),
                std::vector<Expected>(static_cast<size_t>(inputs.rows()))) {}

void Checker::Expect(int bundle, int row) const {
  Expected& slot = expected_[static_cast<size_t>(bundle)][static_cast<size_t>(row)];
  if (slot.ready) return;
  // The unbatched answer: a one-row matrix, scored alone.
  dssddi::tensor::Matrix x(1, inputs_.width());
  std::copy(inputs_.Row(row), inputs_.Row(row) + inputs_.width(), x.RowPtr(0));
  const dssddi::tensor::Matrix scores =
      bundles_[static_cast<size_t>(bundle)]->PredictScores(x);
  const std::vector<int> top = dssddi::core::TopKDrugs(scores, 0, 6);
  for (size_t j = 0; j < top.size() && j < 6; ++j) {
    slot.drugs[j] = top[j];
    slot.scores[j] = scores.At(0, top[j]);
  }
  slot.ready = true;
}

std::vector<int> Checker::UnbatchedTopK(int bundle, int row, int k) const {
  const Expected& expected = ExpectedFor(bundle, row);
  return std::vector<int>(expected.drugs, expected.drugs + std::min(k, 6));
}

const Checker::Expected& Checker::ExpectedFor(int bundle, int row) const {
  Expect(bundle, row);
  return expected_[static_cast<size_t>(bundle)][static_cast<size_t>(row)];
}

bool Checker::CheckAnswer(uint64_t index, uint64_t version,
                          const std::vector<int>& drugs,
                          const std::vector<float>& scores, int* bundle,
                          std::string* why) const {
  *bundle = bundle_of_(version);
  if (*bundle < 0) {
    *why = "unknown model_version " + std::to_string(version);
    return false;
  }
  const int k = inputs_.KOf(index);
  if (static_cast<int>(drugs.size()) != k || scores.size() != drugs.size()) {
    *why = "expected " + std::to_string(k) + " drugs, got " +
           std::to_string(drugs.size());
    return false;
  }
  const Expected& expected = ExpectedFor(*bundle, inputs_.RowOf(index));
  for (int j = 0; j < k; ++j) {
    if (drugs[static_cast<size_t>(j)] != expected.drugs[j]) {
      *why = "drug " + std::to_string(j) + " is " +
             std::to_string(drugs[static_cast<size_t>(j)]) + ", unbatched answer " +
             std::to_string(expected.drugs[j]);
      return false;
    }
    if (!SameBits(scores[static_cast<size_t>(j)], expected.scores[j])) {
      *why = "score " + std::to_string(j) + " differs from the unbatched answer";
      return false;
    }
    if (j > 0 && !(scores[static_cast<size_t>(j)] <= scores[static_cast<size_t>(j - 1)])) {
      *why = "scores not in non-increasing order";
      return false;
    }
  }
  return true;
}

bool Checker::CheckJson(const std::string& body, uint64_t index, bool explain,
                        Observed* observed, std::string* why) const {
  JsonValue doc;
  std::string error;
  if (!dssddi::net::ParseJson(body, &doc, &error) || !doc.is_object()) {
    *why = "unparseable JSON: " + error;
    return false;
  }
  const JsonValue* patient = doc.Find("patient_id");
  if (patient == nullptr || patient->AsInt(-1) != inputs_.PatientIdOf(index)) {
    *why = "patient_id not echoed";
    return false;
  }
  const JsonValue* version = doc.Find("model_version");
  std::vector<int> drugs;
  const JsonValue* score_array = doc.Find("scores");
  if (version == nullptr || !ReadInts(doc.Find("drugs"), &drugs) ||
      score_array == nullptr || !score_array->is_array()) {
    *why = "missing model_version/drugs/scores";
    return false;
  }
  std::vector<float> scores;
  for (const JsonValue& item : score_array->Items()) {
    scores.push_back(static_cast<float>(item.AsDouble()));
  }
  int bundle = -1;
  if (!CheckAnswer(index, static_cast<uint64_t>(version->AsInt()), drugs,
                   scores, &bundle, why)) {
    return false;
  }
  observed->drugs = drugs;
  const JsonValue* explanation = doc.Find("explanation");
  if (!explain) {
    if (explanation != nullptr) {
      *why = "explanation sent though not asked for";
      return false;
    }
    observed->ok = true;
    return true;
  }
  if (explanation == nullptr || !explanation->is_object()) {
    *why = "explanation missing";
    return false;
  }

  const int n = ddi_.num_vertices();
  std::vector<int> subgraph;
  Pairs syn, ant, out;
  const JsonValue* ss = explanation->Find("suggestion_satisfaction");
  if (!ReadInts(explanation->Find("subgraph_drugs"), &subgraph) ||
      !ReadPairs(explanation->Find("synergies_within"), true, &syn) ||
      !ReadPairs(explanation->Find("antagonisms_within"), true, &ant) ||
      !ReadPairs(explanation->Find("antagonisms_outward"), false, &out) ||
      ss == nullptr || !ss->is_number()) {
    *why = "malformed explanation";
    return false;
  }
  std::vector<char> in_subgraph(static_cast<size_t>(n), 0);
  for (const int v : subgraph) {
    if (v < 0 || v >= n || in_subgraph[static_cast<size_t>(v)]) {
      *why = "subgraph drug out of range or repeated";
      return false;
    }
    in_subgraph[static_cast<size_t>(v)] = 1;
  }
  std::vector<char> suggested(static_cast<size_t>(n), 0);
  for (const int d : drugs) {
    if (d < 0 || d >= n || suggested[static_cast<size_t>(d)]) {
      *why = "suggested drug out of range or repeated";
      return false;
    }
    if (!in_subgraph[static_cast<size_t>(d)]) {
      *why = "subgraph does not contain suggested drug " + std::to_string(d);
      return false;
    }
    suggested[static_cast<size_t>(d)] = 1;
  }

  Pairs want_syn, want_ant, want_out;
  for (size_t a = 0; a < drugs.size(); ++a) {
    for (size_t b = a + 1; b < drugs.size(); ++b) {
      const int u = std::min(drugs[a], drugs[b]);
      const int v = std::max(drugs[a], drugs[b]);
      const EdgeSign sign = ddi_.SignOf(u, v);
      if (sign == EdgeSign::kSynergistic) want_syn.emplace_back(u, v);
      if (sign == EdgeSign::kAntagonistic) want_ant.emplace_back(u, v);
    }
  }
  for (const int u : drugs) {
    for (const int w : subgraph) {
      if (!suggested[static_cast<size_t>(w)] &&
          ddi_.SignOf(u, w) == EdgeSign::kAntagonistic) {
        want_out.emplace_back(u, w);
      }
    }
  }
  std::sort(want_syn.begin(), want_syn.end());
  std::sort(want_ant.begin(), want_ant.end());
  std::sort(want_out.begin(), want_out.end());
  if (syn != want_syn) {
    *why = "synergies_within differ from the DDI graph";
    return false;
  }
  if (ant != want_ant) {
    *why = "antagonisms_within differ from the DDI graph";
    return false;
  }
  if (out != want_out) {
    *why = "antagonisms_outward differ from the DDI graph";
    return false;
  }

  // Eq. 19.
  const double alpha = bundles_[static_cast<size_t>(bundle)]->ms_alpha;
  const double k = static_cast<double>(drugs.size());
  const double n_prime = static_cast<double>(subgraph.size());
  const double first = alpha * 2.0 * (static_cast<double>(syn.size()) + 1.0) /
                       ((static_cast<double>(ant.size()) + 1.0) * (k * (k - 1.0) + 2.0));
  const double second = n_prime > k ? (1.0 - alpha) * static_cast<double>(out.size()) /
                                          (k * (n_prime - k))
                                    : 0.0;
  const double want_ss = first + second;
  if (std::abs(ss->AsDouble() - want_ss) > 1e-12 * std::max(1.0, std::abs(want_ss))) {
    *why = "suggestion_satisfaction " + std::to_string(ss->AsDouble()) +
           " is not Eq. 19 (" + std::to_string(want_ss) + ")";
    return false;
  }
  observed->explained = true;
  observed->ok = true;
  return true;
}

bool Checker::CheckFrame(const std::string& frame, uint64_t index,
                         Observed* observed, std::string* why) const {
  wire::SuggestResponseFrame response;
  std::string error;
  if (!wire::DecodeSuggestResponse(frame, &response, &error)) {
    *why = "undecodable response frame: " + error;
    return false;
  }
  if (response.request_id != index + 1) {
    *why = "request_id not echoed";
    return false;
  }
  const std::vector<int> drugs(response.drugs.begin(), response.drugs.end());
  int bundle = -1;
  if (!CheckAnswer(index, response.model_version, drugs, response.scores,
                   &bundle, why)) {
    return false;
  }
  observed->drugs = drugs;
  observed->ok = true;
  return true;
}

uint64_t Checker::CheckAll(const Record* records, uint64_t first, uint64_t end,
                           int threads, std::vector<Observed>* observed,
                           std::vector<std::string>* errors) {
  // Expected answers for every (bundle, row) the run touched.
  std::vector<char> used(static_cast<size_t>(inputs_.rows()), 0);
  for (uint64_t i = first; i < end; ++i) {
    if (records[i].status == 200) used[static_cast<size_t>(inputs_.RowOf(i))] = 1;
  }
  std::vector<std::pair<int, int>> work;
  for (size_t b = 0; b < bundles_.size(); ++b) {
    for (int r = 0; r < inputs_.rows(); ++r) {
      if (used[static_cast<size_t>(r)]) work.emplace_back(static_cast<int>(b), r);
    }
  }
  auto parallel = [threads](size_t count, const std::function<void(size_t)>& fn) {
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) fn(i);
      });
    }
    for (std::thread& thread : pool) thread.join();
  };
  parallel(work.size(), [&](size_t i) { Expect(work[i].first, work[i].second); });

  observed->assign(end - first, Observed{});
  std::atomic<uint64_t> failures{0};
  std::mutex errors_mutex;
  const bool json = inputs_.spec().codec == Codec::kJson;
  parallel(end - first, [&](size_t offset) {
    const uint64_t index = first + offset;
    const Record& record = records[index];
    if (record.status != 200) return;  // counted as failed, not checked
    const std::string response(record.response, record.response_size);
    std::string why;
    Observed& seen = (*observed)[offset];
    const bool ok = json ? CheckJson(response, index, inputs_.spec().explain, &seen, &why)
                         : CheckFrame(response, index, &seen, &why);
    if (!ok) {
      failures.fetch_add(1);
      std::lock_guard<std::mutex> lock(errors_mutex);
      if (errors->size() < 5) {
        errors->push_back("request " + std::to_string(index) + ": " + why);
      }
    }
  });
  return failures.load();
}

bool Checker::SelfTest(const std::string& json_body, uint64_t json_index,
                       const std::string& frame, uint64_t frame_index,
                       std::string* report) const {
  Observed seen;
  std::string why;
  if (!CheckJson(json_body, json_index, true, &seen, &why)) {
    *report = "self-test input rejected: " + why;
    return false;
  }
  const int drug = seen.drugs.front();
  const int other = (drug + 1) % ddi_.num_vertices();
  std::string bad_drug = json_body;
  ReplaceNumberAfter(&bad_drug, "\"drugs\":[", std::to_string(other));
  std::string bad_ss = json_body;
  const double ss = std::strtod(
      NumberAfter(json_body, "\"suggestion_satisfaction\":").c_str(), nullptr);
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", ss + 0.25);
  ReplaceNumberAfter(&bad_ss, "\"suggestion_satisfaction\":", buffer);

  std::string drug_why, ss_why, frame_why = "no frame given";
  const bool drug_caught = !CheckJson(bad_drug, json_index, true, &seen, &drug_why);
  const bool ss_caught = !CheckJson(bad_ss, json_index, true, &seen, &ss_why);
  bool frame_caught = true;
  if (!frame.empty()) {
    wire::SuggestResponseFrame response;
    std::string error;
    frame_caught = wire::DecodeSuggestResponse(frame, &response, &error) &&
                   CheckFrame(frame, frame_index, &seen, &frame_why);
    if (!frame_caught) {
      *report = "self-test frame rejected before corruption: " + frame_why;
      return false;
    }
    response.drugs[0] = (response.drugs[0] + 1) % ddi_.num_vertices();
    frame_caught = !CheckFrame(wire::EncodeSuggestResponse(response),
                               frame_index, &seen, &frame_why);
  }
  *report = std::string("drug id ") + (drug_caught ? "rejected (" + drug_why + ")" : "ACCEPTED") +
            "; SS " + (ss_caught ? "rejected (" + ss_why + ")" : "ACCEPTED") +
            "; frame drug id " + (frame_caught ? "rejected (" + frame_why + ")" : "ACCEPTED");
  return drug_caught && ss_caught && frame_caught;
}

}  // namespace servebench
