#include "layers.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "algo/truss.h"
#include "io/bundle_v4.h"
#include "net/http_client.h"
#include "net/json.h"
#include "net/router.h"
#include "net/wire.h"
#include "obs/trace.h"

namespace servebench {
namespace {

namespace net = dssddi::net;
namespace wire = dssddi::net::wire;
using dssddi::obs::HistogramSnapshot;

constexpr int kCallSamples = 400;
constexpr int kFileSamples = 15;
constexpr int kHopSamples = 200;
constexpr int kReloadSamples = 5;

HistogramSnapshot StageSnapshot(Stack& stack, dssddi::obs::Stage stage) {
  HistogramSnapshot merged;
  for (const auto& replica : stack.replicas) {
    merged.Merge(replica->service()
                     .registry()
                     ->GetHistogram("dssddi_stage_latency_ms", "",
                                    {{"stage", dssddi::obs::StageName(stage)}})
                     ->Snapshot());
  }
  return merged;
}

double StageMeanMs(Stack& stack, dssddi::obs::Stage stage) {
  const HistogramSnapshot snapshot = StageSnapshot(stack, stage);
  return snapshot.count == 0 ? 0.0 : snapshot.sum / static_cast<double>(snapshot.count);
}

/// Median of `samples` timings of `fn(i)` in the given unit (1e3 = ms,
/// 1e6 = us), each recorded as a span under `parent`.
template <typename Fn>
double MedianOf(int samples, double per_second, SpanLog& spans, const char* name,
                uint64_t parent, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const int64_t start = NowNs();
    fn(i);
    const int64_t end = NowNs();
    spans.Add(name, start, end, parent);
    times.push_back(NsToS(end - start) * per_second);
  }
  return Median(times);
}

}  // namespace

std::vector<Metric> MeasureLayers(const LayerInputs& in, SpanLog& spans) {
  const WorkloadSpec& spec = *in.spec;
  Inputs& inputs = *in.inputs;
  Stack& stack = *in.stack;
  const std::vector<Observed>& observed = *in.observed;
  std::vector<Metric> out;

  // Counters and stage histograms first, before any replay adds to them.
  uint64_t batches = 0;
  double batched_rows = 0.0;
  for (const auto& replica : stack.replicas) {
    const dssddi::serve::ServiceStats stats = replica->service().Stats();
    batches += stats.batches;
    batched_rows += stats.mean_batch_size * static_cast<double>(stats.batches);
  }
  const double mean_batch = batches > 0 ? batched_rows / static_cast<double>(batches) : 0.0;
  const double queue_wait = StageMeanMs(stack, dssddi::obs::Stage::kQueueWait);
  const double gemm = StageMeanMs(stack, dssddi::obs::Stage::kGemm);
  const double epilogue = StageMeanMs(stack, dssddi::obs::Stage::kEpilogue);
  const double http_parse = StageMeanMs(stack, dssddi::obs::Stage::kHttpParse);
  const double serialize = StageMeanMs(stack, dssddi::obs::Stage::kSerialize);

  uint64_t explained = 0;
  std::set<std::vector<int>> distinct;
  std::vector<std::vector<int>> sets;  // answers' drug sets in request order
  for (const Observed& seen : observed) {
    if (!seen.ok) continue;
    if (sets.size() < static_cast<size_t>(kCallSamples)) sets.push_back(seen.drugs);
    if (!seen.explained) continue;
    ++explained;
    std::vector<int> sorted = seen.drugs;
    std::sort(sorted.begin(), sorted.end());
    distinct.insert(sorted);
  }

  const std::shared_ptr<const dssddi::serve::ModelSnapshot> snapshot =
      stack.replicas[0]->service().snapshot();
  const dssddi::io::InferenceBundle& bundle = snapshot->bundle;
  const uint64_t root = spans.Add("replay", NowNs(), NowNs());

  // core / io.
  out.push_back({"core.fit_s", Median(in.fit_s), "s"});
  const std::string replay_path = in.scratch_dir + "/replay.dssb";
  out.push_back({"io.save_ms",
                 MedianOf(kFileSamples, 1e3, spans, "io.save", root,
                          [&](int) { dssddi::io::SaveInferenceBundleV4(replay_path, bundle); }),
                 "ms"});
  out.push_back({"io.load_ms",
                 MedianOf(kFileSamples, 1e3, spans, "io.load", root,
                          [&](int) {
                            dssddi::io::InferenceBundle loaded;
                            dssddi::io::LoadInferenceBundle(replay_path, &loaded);
                          }),
                 "ms"});

  // serve: reloads. Routed runs report the reloads made under load;
  // the others reload their own bundle a few times on an idle server.
  std::vector<double> reloads = in.reload_ms;
  if (reloads.empty()) {
    net::HttpClient client;
    if (client.Connect("127.0.0.1", stack.replicas[0]->port()).ok) {
      for (int i = 0; i < kReloadSamples; ++i) {
        double ms = 0.0;
        uint64_t version = 0;
        std::string error;
        const int64_t start = NowNs();
        if (ReloadReplica(client, in.bundle_path, &ms, &version, &error)) {
          reloads.push_back(ms);
          spans.Add("serve.reload", start, NowNs(), root);
        }
      }
    }
  }
  out.push_back({"serve.reload_ms", Median(reloads), "ms"});

  // kernels: PredictScores on the run's rows, alone and at the mean batch.
  const int width = inputs.width();
  out.push_back({"kernels.row_ms_b1",
                 MedianOf(kCallSamples, 1e3, spans, "kernels.predict_b1", root,
                          [&](int i) {
                            dssddi::tensor::Matrix x(1, width);
                            const float* row = inputs.Row(inputs.RowOf(static_cast<uint64_t>(i)));
                            std::copy(row, row + width, x.RowPtr(0));
                            bundle.PredictScores(x);
                          }),
                 "ms"});
  const int batch = std::max(1, static_cast<int>(std::lround(mean_batch)));
  out.push_back({"kernels.row_ms_bmean",
                 MedianOf(kCallSamples / 2, 1e3, spans, "kernels.predict_bmean", root,
                          [&](int i) {
                            dssddi::tensor::Matrix x(batch, width);
                            for (int r = 0; r < batch; ++r) {
                              const float* row = inputs.Row(
                                  inputs.RowOf(static_cast<uint64_t>(i * batch + r)));
                              std::copy(row, row + width, x.RowPtr(r));
                            }
                            bundle.PredictScores(x);
                          }) /
                     batch,
                 "ms"});

  // ms: the explainer on the run's own suggested sets, and the global
  // truss decomposition CTC runs per query.
  out.push_back({"ms.explain_ms",
                 MedianOf(static_cast<int>(sets.size()), 1e3, spans, "ms.explain", root,
                          [&](int i) { snapshot->ms.Explain(sets[static_cast<size_t>(i)]); }),
                 "ms"});
  const dssddi::graph::Graph skeleton = bundle.Skeleton();
  out.push_back({"ms.truss_ms",
                 MedianOf(kCallSamples / 4, 1e3, spans, "ms.truss", root,
                          [&](int) { dssddi::algo::TrussDecomposition(skeleton); }),
                 "ms"});
  out.push_back({"ms.explain_calls", static_cast<double>(explained), "count"});
  out.push_back({"ms.distinct_sets", static_cast<double>(distinct.size()), "count"});

  // serve: batcher and stages.
  out.push_back({"serve.mean_batch", mean_batch, "count"});
  out.push_back({"serve.queue_wait_ms", queue_wait, "ms"});
  out.push_back({"serve.gemm_ms", gemm, "ms"});
  out.push_back({"serve.epilogue_ms", epilogue, "ms"});

  // net: both codecs on the run's requests, and the traffic's sizes.
  std::vector<std::string> bodies, frames;
  for (int i = 0; i < kCallSamples; ++i) {
    const uint64_t index = static_cast<uint64_t>(i);
    bodies.push_back(inputs.JsonBody(inputs.RowOf(index), inputs.PatientIdOf(index),
                                     inputs.KOf(index), spec.explain));
    frames.push_back(inputs.FrameBytes(inputs.RowOf(index), inputs.PatientIdOf(index),
                                       inputs.KOf(index), spec.explain, index + 1));
  }
  out.push_back({"net.json_parse_us",
                 MedianOf(kCallSamples, 1e6, spans, "net.json_parse", root,
                          [&](int i) {
                            net::JsonValue doc;
                            std::string error;
                            net::ParseJson(bodies[static_cast<size_t>(i)], &doc, &error);
                          }),
                 "us"});
  std::vector<wire::SuggestRequestFrame> decoded(frames.size());
  out.push_back({"net.wire_decode_us",
                 MedianOf(kCallSamples, 1e6, spans, "net.wire_decode", root,
                          [&](int i) {
                            std::string error;
                            wire::DecodeSuggestRequest(frames[static_cast<size_t>(i)],
                                                       &decoded[static_cast<size_t>(i)], &error);
                          }),
                 "us"});
  out.push_back({"net.wire_encode_us",
                 MedianOf(kCallSamples, 1e6, spans, "net.wire_encode", root,
                          [&](int i) {
                            wire::EncodeSuggestRequest(decoded[static_cast<size_t>(i)]);
                          }),
                 "us"});
  uint64_t requests = 0, request_bytes = 0, response_bytes = 0, answered = 0;
  for (const PhaseStats* phase : {in.closed, in.open}) {
    requests += phase->attempted;
    request_bytes += phase->request_bytes;
    answered += phase->attempted - phase->failed;
    response_bytes += phase->response_bytes;
  }
  out.push_back({"net.request_bytes",
                 requests > 0 ? static_cast<double>(request_bytes) / static_cast<double>(requests) : 0.0,
                 "bytes"});
  out.push_back({"net.response_bytes",
                 answered > 0 ? static_cast<double>(response_bytes) / static_cast<double>(answered) : 0.0,
                 "bytes"});
  out.push_back({"net.http_parse_ms", http_parse, "ms"});
  out.push_back({"net.serialize_ms", serialize, "ms"});

  // router: the hop is Router::Exchange minus a direct exchange with a
  // replica, on the same JSON bodies under fresh patient ids (no cache
  // hits on either side), paired and alternated.
  std::unique_ptr<RouterTier> replay_router;
  net::Router* router = nullptr;
  if (stack.router != nullptr) {
    router = &stack.router->router();
  } else {
    replay_router = std::make_unique<RouterTier>(std::vector<int>{stack.replicas[0]->port()});
    router = &replay_router->router();
  }
  std::vector<std::unique_ptr<net::HttpClient>> direct;
  for (const auto& replica : stack.replicas) {
    direct.push_back(std::make_unique<net::HttpClient>());
    direct.back()->Connect("127.0.0.1", replica->port());
  }
  std::vector<double> hops;
  for (int j = 0; j < kHopSamples; ++j) {
    const uint64_t index = static_cast<uint64_t>(j);
    const int row = inputs.RowOf(index);
    const int64_t id = kPatientIdBase + static_cast<int64_t>(in.next_index) + 2 * j;
    const std::string direct_body = inputs.JsonBody(row, id, inputs.KOf(index), spec.explain);
    const std::string routed_body = inputs.JsonBody(row, id + 1, inputs.KOf(index), spec.explain);
    double direct_ms = 0.0, routed_ms = 0.0;
    auto run_direct = [&] {
      net::ClientResponse response;
      const int64_t start = NowNs();
      direct[static_cast<size_t>(j) % direct.size()]->Request("POST", "/v1/suggest",
                                                              direct_body, &response);
      const int64_t end = NowNs();
      spans.Add("router.direct_exchange", start, end, root);
      direct_ms = NsToMs(end - start);
    };
    auto run_routed = [&] {
      net::RouterResult result;
      const int64_t start = NowNs();
      router->Exchange("/v1/suggest", routed_body, "application/json", 1000, &result);
      const int64_t end = NowNs();
      spans.Add("router.exchange", start, end, root);
      routed_ms = NsToMs(end - start);
    };
    if (j % 2 == 0) {
      run_direct();
      run_routed();
    } else {
      run_routed();
      run_direct();
    }
    hops.push_back(routed_ms - direct_ms);
  }
  out.push_back({"router.hop_ms", Median(hops), "ms"});

  // The run itself under tracing, and the generator's own lateness.
  out.push_back({"trace.rps", in.closed_rps, "1/s"});
  out.push_back({"gen.late_p99_ms", in.open->late_p99_ms, "ms"});
  spans.SetEnd(root, NowNs());
  return out;
}

}  // namespace servebench
