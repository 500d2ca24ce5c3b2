#ifndef SERVEBENCH_STACK_H_
#define SERVEBENCH_STACK_H_

// The system under test, assembled in process from the library's public
// pieces: model training and freezing, replica servers (HttpServer +
// SuggestFrontend + SuggestionService) and, for routed traffic, a
// RouterFrontend over a Router. Shipped defaults throughout; only the
// thread counts are set here.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "io/inference_bundle.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/router.h"
#include "net/suggest_frontend.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "workload.h"

namespace servebench {

/// Scoring workers per replica service (the one thread-count setting).
inline constexpr int kServiceThreads = 1;

/// Trains the chronic-cohort model at the example bundle's scale (500
/// patients, 120 DDI and MD epochs) with the given module seeds, freezes
/// it and writes it as a v4 bundle to `path`; `fit_s` gets the Fit time.
bool TrainAndFreeze(const std::string& path, uint64_t ddi_seed, uint64_t md_seed,
                    double* fit_s, std::string* error);

class Replica {
 public:
  Replica(dssddi::io::InferenceBundle bundle, uint32_t trace_sample_every);
  ~Replica();
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  int port() const { return server_->port(); }
  dssddi::serve::SuggestionService& service() { return *service_; }

 private:
  std::unique_ptr<dssddi::serve::SuggestionService> service_;
  std::unique_ptr<dssddi::net::SuggestFrontend> frontend_;
  std::unique_ptr<dssddi::net::HttpServer> server_;
};

class RouterTier {
 public:
  explicit RouterTier(const std::vector<int>& replica_ports);
  ~RouterTier();
  RouterTier(const RouterTier&) = delete;
  RouterTier& operator=(const RouterTier&) = delete;

  int port() const { return server_->port(); }
  dssddi::net::Router& router() { return *router_; }
  dssddi::obs::Registry& registry() { return *registry_; }

 private:
  std::shared_ptr<dssddi::obs::Registry> registry_;
  std::shared_ptr<dssddi::obs::FlightRecorder> recorder_;
  std::unique_ptr<dssddi::net::Router> router_;
  std::unique_ptr<dssddi::net::RouterFrontend> frontend_;
  std::unique_ptr<dssddi::net::HttpServer> server_;
};

struct Stack {
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<RouterTier> router;  // routed workloads only
  int entry_port = 0;
  int feature_width = 0;

  ~Stack() {
    router.reset();  // stop the front door before its replicas
    replicas.clear();
  }
};

struct SetupTimings {
  double total_s = 0.0;  // start to the first answered request
  double fit_s = 0.0;
};

/// One set-up: trains and freezes the model to `bundle_path`, loads it
/// into each replica, starts the servers (and router), and sends one
/// request through the entry port; `timings.total_s` runs from
/// `start_ns` to that request's answer. Null on failure.
std::unique_ptr<Stack> SetUp(const WorkloadSpec& spec,
                             const std::string& bundle_path,
                             uint32_t trace_sample_every, int64_t start_ns,
                             SpanLog& spans, SetupTimings* timings,
                             std::string* error);

/// POSTs /admin/reload of `bundle_path` on a connected replica client;
/// returns the round-trip milliseconds and the installed model version.
bool ReloadReplica(dssddi::net::HttpClient& client, const std::string& bundle_path,
                   double* ms, uint64_t* version, std::string* error);

}  // namespace servebench

#endif  // SERVEBENCH_STACK_H_
