#include "stack.h"

#include "core/dssddi_system.h"
#include "data/dataset.h"
#include "io/bundle_v4.h"
#include "net/http_client.h"
#include "net/json.h"

namespace servebench {
namespace {

namespace net = dssddi::net;

constexpr uint64_t kDdiSeed = 42;  // DdiModuleConfig / MdModuleConfig defaults
constexpr uint64_t kMdSeed = 13;

dssddi::data::SuggestionDataset TrainingDataset() {
  dssddi::data::ChronicDatasetOptions options;
  options.cohort.num_males = 300;
  options.cohort.num_females = 200;
  return dssddi::data::BuildChronicDataset(options);
}

bool Train(const dssddi::data::SuggestionDataset& dataset, const std::string& path,
           uint64_t ddi_seed, uint64_t md_seed, double* fit_s,
           SpanLog& spans, uint64_t parent, std::string* error) {
  dssddi::core::DssddiConfig config;
  config.ddi.epochs = 120;
  config.md.epochs = 120;
  config.ddi.seed = ddi_seed;
  config.md.seed = md_seed;
  dssddi::core::DssddiSystem system(config);
  *fit_s = TimedMs(spans, "core.fit", parent, [&] { system.Fit(dataset); }) / 1e3;
  const dssddi::io::InferenceBundle bundle =
      dssddi::io::ExtractInferenceBundle(system, dataset);
  dssddi::io::Status saved;
  TimedMs(spans, "io.save", parent,
          [&] { saved = dssddi::io::SaveInferenceBundleV4(path, bundle); });
  if (!saved.ok) *error = "save " + path + ": " + saved.message;
  return saved.ok;
}

}  // namespace

bool TrainAndFreeze(const std::string& path, uint64_t ddi_seed, uint64_t md_seed,
                    double* fit_s, std::string* error) {
  SpanLog none;
  return Train(TrainingDataset(), path, ddi_seed, md_seed, fit_s, none, 0, error);
}

Replica::Replica(dssddi::io::InferenceBundle bundle, uint32_t trace_sample_every) {
  dssddi::serve::ServiceOptions service_options;
  service_options.num_threads = kServiceThreads;
  service_ = std::make_unique<dssddi::serve::SuggestionService>(std::move(bundle),
                                                                service_options);
  net::SuggestFrontendOptions frontend_options;
  frontend_options.trace_sample_every = trace_sample_every;
  frontend_ = std::make_unique<net::SuggestFrontend>(service_.get(), frontend_options);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  server_options.recorder = service_->flight_recorder();
  server_ = std::make_unique<net::HttpServer>(server_options, frontend_->AsHandler());
  const dssddi::io::Status started = server_->Start();
  if (!started.ok) throw std::runtime_error("replica start: " + started.message);
  frontend_->AttachServer(server_.get());
}

Replica::~Replica() {
  server_->Stop();
  server_.reset();
  frontend_.reset();
  service_.reset();
}

RouterTier::RouterTier(const std::vector<int>& replica_ports)
    : registry_(std::make_shared<dssddi::obs::Registry>()),
      recorder_(std::make_shared<dssddi::obs::FlightRecorder>()) {
  std::vector<net::ReplicaClientOptions> endpoints;
  for (const int port : replica_ports) {
    net::ReplicaClientOptions endpoint;
    endpoint.port = port;
    endpoints.push_back(endpoint);
  }
  router_ = std::make_unique<net::Router>(endpoints, net::RouterOptions{},
                                          registry_, recorder_);
  frontend_ = std::make_unique<net::RouterFrontend>(router_.get());
  net::HttpServerOptions server_options;
  server_options.port = 0;
  server_options.recorder = recorder_;
  server_ = std::make_unique<net::HttpServer>(server_options, frontend_->AsHandler());
  const dssddi::io::Status started = server_->Start();
  if (!started.ok) throw std::runtime_error("router start: " + started.message);
  frontend_->AttachServer(server_.get());
}

RouterTier::~RouterTier() {
  server_->Stop();
  server_.reset();
  frontend_.reset();
  router_.reset();
}

std::unique_ptr<Stack> SetUp(const WorkloadSpec& spec,
                             const std::string& bundle_path,
                             uint32_t trace_sample_every, int64_t start_ns,
                             SpanLog& spans, SetupTimings* timings,
                             std::string* error) {
  const uint64_t root = spans.Add("setup", start_ns, start_ns);
  const dssddi::data::SuggestionDataset dataset = TrainingDataset();
  if (!Train(dataset, bundle_path, kDdiSeed, kMdSeed, &timings->fit_s, spans, root,
             error)) {
    return nullptr;
  }

  auto stack = std::make_unique<Stack>();
  const int replicas = spec.routed ? 2 : 1;
  for (int r = 0; r < replicas; ++r) {
    dssddi::io::InferenceBundle bundle;
    dssddi::io::Status loaded;
    TimedMs(spans, "io.load", root,
            [&] { loaded = dssddi::io::LoadInferenceBundle(bundle_path, &bundle); });
    if (!loaded.ok) {
      *error = "load " + bundle_path + ": " + loaded.message;
      return nullptr;
    }
    stack->feature_width = bundle.cluster_centroids.cols();
    const int64_t started = NowNs();
    stack->replicas.push_back(std::make_unique<Replica>(std::move(bundle),
                                                        trace_sample_every));
    spans.Add("serve.start", started, NowNs(), root);
  }
  stack->entry_port = stack->replicas[0]->port();
  if (spec.routed) {
    const int64_t started = NowNs();
    stack->router = std::make_unique<RouterTier>(
        std::vector<int>{stack->replicas[0]->port(), stack->replicas[1]->port()});
    stack->entry_port = stack->router->port();
    spans.Add("router.start", started, NowNs(), root);
  }

  // The first answered request closes the set-up.
  net::JsonWriter json;
  json.BeginObject().Key("patient_id").Int(1).Key("features").BeginArray();
  for (int j = 0; j < dataset.patient_features.cols(); ++j) {
    json.Float(dataset.patient_features.At(0, j));
  }
  json.EndArray().Key("k").Int(3).Key("explain").Bool(true).EndObject();
  const int64_t probe_start = NowNs();
  net::HttpClient client;
  net::ClientResponse response;
  dssddi::io::Status status = client.Connect("127.0.0.1", stack->entry_port);
  if (status.ok) status = client.Request("POST", "/v1/suggest", json.str(), &response);
  if (!status.ok || response.status != 200) {
    *error = "first request failed: " +
             (status.ok ? "HTTP " + std::to_string(response.status) : status.message);
    return nullptr;
  }
  const int64_t end = NowNs();
  spans.Add("first_request", probe_start, end, root);
  spans.SetEnd(root, end);
  timings->total_s = NsToS(end - start_ns);
  return stack;
}

bool ReloadReplica(dssddi::net::HttpClient& client, const std::string& bundle_path,
                   double* ms, uint64_t* version, std::string* error) {
  net::JsonWriter body;
  body.BeginObject().Key("path").String(bundle_path).EndObject();
  net::ClientResponse response;
  const int64_t start = NowNs();
  const dssddi::io::Status status =
      client.Request("POST", "/admin/reload", body.str(), &response);
  *ms = NsToMs(NowNs() - start);
  if (!status.ok || response.status != 200) {
    *error = "reload failed: " +
             (status.ok ? "HTTP " + std::to_string(response.status) + " " + response.body
                        : status.message);
    return false;
  }
  net::JsonValue doc;
  std::string parse_error;
  if (!net::ParseJson(response.body, &doc, &parse_error) || doc.Find("model_version") == nullptr) {
    *error = "reload answer unreadable: " + parse_error;
    return false;
  }
  *version = static_cast<uint64_t>(doc.Find("model_version")->AsInt());
  return true;
}

}  // namespace servebench
