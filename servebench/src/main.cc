// servebench: the DSSDDI serving benchmark.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--workdir DIR]
//
// One run: set up the serving stack three times (training, freezing,
// loading, server start, first answer; setup_s is the median), warm up
// for a second, then a closed-loop phase (40% of S, gives rps: the median
// of its one-second completion rates) and an open-loop phase at the
// workload's fixed rate (60% of S, gives p50_ms: the median of its
// one-second windows' median latencies, each timed from the request's
// intended send time). Every answer
// is checked afterwards. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// (plus a spans file under DIR/spans) under --trace 1. Progress and the
// per-phase attempted/failed counts go to stderr.

#include <malloc.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "common.h"
#include "layers.h"
#include "loadgen.h"
#include "stack.h"
#include "workload.h"

namespace servebench {
namespace {

constexpr int kSetups = 3;
constexpr double kWarmupSeconds = 1.0;
constexpr double kClosedShare = 0.4;
constexpr int kCheckThreads = 4;
constexpr int kHeapSampleMs = 100;
/// rps and p50_ms are medians over windows of this length, so a host
/// stall that covers a few windows of a phase moves them little.
constexpr double kWindowSeconds = 1.0;
/// Module seeds of the second model routed replicas reload to.
constexpr uint64_t kAltDdiSeed = 4242;
constexpr uint64_t kAltMdSeed = 1313;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string workdir = ".bench_build/servebench";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') args->seconds = 0.0;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") == 0 ? 0 : std::strcmp(value, "1") == 0 ? 1 : -1;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0.0 && args->trace >= 0 &&
         !args->workload.empty();
}

/// CPUs the benchmark confines itself to (see PinToFirstCpus).
constexpr int kCpus = 1;

/// Restricts this process to the first kCpus CPUs it may run on, before
/// any thread starts, so that every thread of the program and of the
/// generator inherits the set. On a virtual machine each hand-off between
/// threads on different vCPUs waits for the target vCPU to be scheduled
/// by the host; when neighbours load the host, that wait swings from run
/// to run far more than the program's own work does (unpinned, six
/// interleaved explain_json runs gave 850-1037 rps and a p50 of 2.0 ms
/// where pinned runs gave 1142-1215 rps and 1.2-1.3 ms). On one CPU the
/// figures are the program's cost on one core, the generator's included,
/// and a host stall slows every thread alike instead of stretching each
/// hand-off. Returns the CPUs kept (0: left as it was).
int PinToFirstCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  int kept = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && kept < kCpus; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++kept;
    }
  }
  if (kept < kCpus || ::sched_setaffinity(0, sizeof(chosen), &chosen) != 0) return 0;
  return kept;
}

/// Live heap bytes (malloc'd and not freed, mmapped chunks included).
double LiveHeapMb() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

/// Samples the live heap every kHeapSampleMs on a thread of its own while
/// the timed phases run and keeps the largest value, so memory held only
/// while requests are in flight is seen. The sampler adds nothing to the
/// allocation path, but mallinfo2 walks each malloc arena under that
/// arena's lock, so a sample can hold up an allocation on that arena for
/// as long as the walk takes; the call times are reported to stderr.
class HeapSampler {
 public:
  ~HeapSampler() { Stop(); }

  void Start() {
    running_ = true;
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      running_ = false;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  double peak_mb() const { return peak_mb_; }
  uint64_t samples() const { return samples_; }
  double mean_call_ms() const { return samples_ ? call_ms_sum_ / samples_ : 0.0; }
  double max_call_ms() const { return call_ms_max_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (running_) {
      lock.unlock();
      const int64_t start = NowNs();
      const double mb = LiveHeapMb();
      const double ms = NsToMs(NowNs() - start);
      peak_mb_ = std::max(peak_mb_, mb);
      call_ms_sum_ += ms;
      call_ms_max_ = std::max(call_ms_max_, ms);
      ++samples_;
      lock.lock();
      wake_.wait_for(lock, std::chrono::milliseconds(kHeapSampleMs),
                     [this] { return !running_; });
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  bool running_ = false;
  double peak_mb_ = 0.0;
  uint64_t samples_ = 0;
  double call_ms_sum_ = 0.0;
  double call_ms_max_ = 0.0;
  std::thread thread_;
};

/// Hot-reloads the routed replicas: each Kick (the generator kicks every
/// kReloadEveryRequests closed-loop sends) makes the next replica in turn flip
/// between bundle A and B. Counting requests rather than seconds keeps
/// the cache's flush-and-refill cycle the same however fast the run
/// goes, so a slow stretch cannot lower the hit rate and feed on itself.
class Reloader {
 public:
  Reloader(std::vector<int> ports, std::vector<std::string> paths)
      : ports_(std::move(ports)), paths_(std::move(paths)) {}
  ~Reloader() { Stop(); }

  /// Non-blocking; safe from the generator thread.
  void Kick() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++kicks_;
    }
    wake_.notify_one();
  }

  void Start() {
    running_ = true;
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      running_ = false;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& times_ms() const { return times_ms_; }
  uint64_t failures() const { return failures_; }
  const std::string& error() const { return error_; }

 private:
  void Loop() {
    std::vector<std::unique_ptr<dssddi::net::HttpClient>> clients;
    std::vector<int> reloads(ports_.size(), 0);
    for (const int port : ports_) {
      clients.push_back(std::make_unique<dssddi::net::HttpClient>());
      if (!clients.back()->Connect("127.0.0.1", port).ok) ++failures_;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    for (int step = 1;; ++step) {
      wake_.wait(lock, [this] { return !running_ || kicks_ > 0; });
      if (!running_) return;
      --kicks_;
      const size_t replica = static_cast<size_t>(step - 1) % ports_.size();
      const int count = ++reloads[replica];
      const std::string& path = paths_[static_cast<size_t>(count % 2)];
      double ms = 0.0;
      uint64_t version = 0;
      std::string why;
      lock.unlock();  // Kick must never wait behind a reload
      const bool ok = ReloadReplica(*clients[replica], path, &ms, &version, &why) &&
                      version == static_cast<uint64_t>(count + 1);
      lock.lock();
      if (!ok) {
        ++failures_;
        if (error_.empty()) error_ = why.empty() ? "unexpected model_version" : why;
        continue;
      }
      times_ms_.push_back(ms);
    }
  }

  std::vector<int> ports_;
  std::vector<std::string> paths_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool running_ = false;
  uint64_t kicks_ = 0;
  std::vector<double> times_ms_;
  uint64_t failures_ = 0;
  std::string error_;
  std::thread thread_;
};

void PrintPhase(const PhaseStats& phase) {
  std::fprintf(stderr,
               "servebench: phase %-7s attempted=%llu failed=%llu in_window=%llu "
               "rate=%.1f/s late_ms p50=%.3f p99=%.3f max=%.3f\n",
               phase.name.c_str(), static_cast<unsigned long long>(phase.attempted),
               static_cast<unsigned long long>(phase.failed),
               static_cast<unsigned long long>(phase.completed_in_window), phase.Rate(),
               phase.late_p50_ms, phase.late_p99_ms, phase.late_max_ms);
  for (const auto& [status, count] : phase.failed_by_status) {
    std::fprintf(stderr, "servebench:   %llu failed with status %d\n",
                 static_cast<unsigned long long>(count), status);
  }
}

/// The closed phase's throughput: the median over whole kWindowSeconds
/// windows of the answers (200) completed in each.
double WindowedRate(const Record* records, const PhaseStats& phase) {
  const int64_t window_ns = static_cast<int64_t>(kWindowSeconds * 1e9);
  const size_t windows = static_cast<size_t>((phase.end_ns - phase.start_ns) / window_ns);
  if (windows == 0) return phase.Rate();
  std::vector<double> counts(windows, 0.0);
  for (uint64_t i = phase.first; i < phase.end; ++i) {
    const Record& r = records[i];
    if (r.status != 200 || r.done_ns < phase.start_ns) continue;
    const size_t w = static_cast<size_t>((r.done_ns - phase.start_ns) / window_ns);
    if (w < windows) counts[w] += 1.0;
  }
  for (double& count : counts) count /= kWindowSeconds;
  return Median(counts);
}

/// The open phase's latencies (200 answers, from the intended send time)
/// grouped into kWindowSeconds windows of intended send time.
std::vector<std::vector<double>> OpenLatencyWindows(const Record* records,
                                                    const PhaseStats& phase) {
  const int64_t window_ns = static_cast<int64_t>(kWindowSeconds * 1e9);
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>((phase.end_ns - phase.start_ns) / window_ns));
  std::vector<std::vector<double>> out(windows);
  for (uint64_t i = phase.first; i < phase.end; ++i) {
    const Record& r = records[i];
    if (r.status != 200) continue;
    const size_t w = std::min(
        windows - 1, static_cast<size_t>(std::max<int64_t>(0, r.intended_ns - phase.start_ns) /
                                         window_ns));
    out[w].push_back(NsToMs(r.done_ns - r.intended_ns));
  }
  return out;
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Run(const Args& args, int64_t process_start_ns) {
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  const std::string run_dir = args.workdir + "/run-" + std::to_string(::getpid());
  ::mkdir(args.workdir.c_str(), 0755);
  if (::mkdir(run_dir.c_str(), 0755) != 0) {
    std::fprintf(stderr, "servebench: cannot create %s\n", run_dir.c_str());
    return 1;
  }
  const std::string bundle_a = run_dir + "/model_a.dssb";
  const std::string bundle_b = run_dir + "/model_b.dssb";
  std::vector<std::string> files = {bundle_a};
  struct Cleanup {
    const std::string& dir;
    std::vector<std::string>& files;
    ~Cleanup() {
      for (const std::string& file : files) std::remove(file.c_str());
      ::rmdir(dir.c_str());
    }
  } cleanup{run_dir, files};

  SpanLog spans;
  if (traced) spans.Enable(1 << 20);
  const uint32_t trace_every = traced ? 1 : 64;  // 64 = the shipped default

  // 1. Set-up, kSetups times; the first stack serves the run.
  std::string error;
  std::vector<SetupTimings> setups(kSetups);
  std::unique_ptr<Stack> stack =
      SetUp(spec, bundle_a, trace_every, process_start_ns, spans, &setups[0], &error);
  if (stack == nullptr) {
    std::fprintf(stderr, "servebench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  for (int rep = 1; rep < kSetups; ++rep) {
    const std::string path = run_dir + "/setup_" + std::to_string(rep) + ".dssb";
    files.push_back(path);
    std::unique_ptr<Stack> extra =
        SetUp(spec, path, trace_every, NowNs(), spans, &setups[rep], &error);
    if (extra == nullptr) {
      std::fprintf(stderr, "servebench: set-up failed: %s\n", error.c_str());
      return 1;
    }
  }
  std::vector<double> setup_s, fit_s;
  for (const SetupTimings& s : setups) {
    setup_s.push_back(s.total_s);
    fit_s.push_back(s.fit_s);
  }
  std::fprintf(stderr, "servebench: %s set-up %.3f %.3f %.3f s (fit %.3f s)\n",
               spec.name.c_str(), setup_s[0], setup_s[1], setup_s[2], fit_s[0]);

  // The second model for routed reloads: trained after the first answer,
  // so it is input preparation, not set-up.
  if (spec.routed) {
    files.push_back(bundle_b);
    double alt_fit_s = 0.0;
    if (!TrainAndFreeze(bundle_b, kAltDdiSeed, kAltMdSeed, &alt_fit_s, &error)) {
      std::fprintf(stderr, "servebench: %s\n", error.c_str());
      return 1;
    }
    fit_s.push_back(alt_fit_s);
  }

  // 2. Inputs, held in arenas outside the malloc heap.
  Arena input_arena(size_t{1} << 30);
  Arena response_arena(size_t{8} << 30);
  const size_t capacity = size_t{1} << 22;
  Arena record_arena(capacity * sizeof(Record));
  Record* records = record_arena.AllocateArray<Record>(capacity);
  const int64_t inputs_start = NowNs();
  Inputs inputs(spec, args.seed, stack->feature_width, input_arena);
  std::fprintf(stderr, "servebench: %d held-out patients generated in %.2f s\n",
               inputs.rows(), NsToS(NowNs() - inputs_start));
  LoadGenerator generator(stack->entry_port, &inputs, &response_arena, records, capacity);

  // 3. Warm-up, closed loop, open loop.
  const double closed_s = args.seconds * kClosedShare;
  const double open_s = args.seconds - closed_s;
  std::vector<PhaseStats> phases;
  phases.push_back(
      generator.RunClosed("warmup", spec.connections, spec.closed_depth, kWarmupSeconds));
  std::unique_ptr<Reloader> reloader;
  if (spec.routed) {
    std::vector<int> ports;
    for (const auto& replica : stack->replicas) ports.push_back(replica->port());
    reloader = std::make_unique<Reloader>(ports, std::vector<std::string>{bundle_a, bundle_b});
    reloader->Start();
    generator.OnEvery(kReloadEveryRequests, [&reloader] { reloader->Kick(); });
  }
  HeapSampler heap;
  heap.Start();
  phases.push_back(generator.RunClosed("closed", spec.connections, spec.closed_depth, closed_s));
  // Reloads run in the closed loop only. At the open loop's rate one
  // would land in the phase on some runs and not others, and a flushed
  // replica moves the hit rate, and with it p50_ms, between hits and misses.
  if (reloader != nullptr) {
    generator.OnEvery(0, nullptr);
    reloader->Stop();
  }
  auto cache_totals = [&stack] {
    std::pair<uint64_t, uint64_t> hits_misses{0, 0};
    for (const auto& replica : stack->replicas) {
      const dssddi::serve::ServiceStats stats = replica->service().Stats();
      hits_misses.first += stats.cache_hits;
      hits_misses.second += stats.cache_misses;
    }
    return hits_misses;
  };
  const auto cache_before_open = cache_totals();
  phases.push_back(generator.RunOpen("open", spec.connections, spec.open_rate, open_s));
  heap.Stop();
  if (spec.routed) {
    const auto cache_after_open = cache_totals();
    const uint64_t hits = cache_after_open.first - cache_before_open.first;
    const uint64_t misses = cache_after_open.second - cache_before_open.second;
    std::fprintf(stderr, "servebench: open-loop cache hit rate %.3f (%llu hits, %llu misses)\n",
                 hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0,
                 static_cast<unsigned long long>(hits), static_cast<unsigned long long>(misses));
  }
  std::fprintf(stderr,
               "servebench: live heap peak %.3f MB over %llu samples (mallinfo2 call "
               "mean %.3f ms, max %.3f ms)\n",
               heap.peak_mb(), static_cast<unsigned long long>(heap.samples()),
               heap.mean_call_ms(), heap.max_call_ms());
  for (const PhaseStats& phase : phases) PrintPhase(phase);
  for (const auto& replica : stack->replicas) {
    const dssddi::serve::ServiceStats stats = replica->service().Stats();
    std::fprintf(stderr,
                 "servebench: replica cache hits=%llu misses=%llu coalesced=%llu "
                 "mean batch %.2f\n",
                 static_cast<unsigned long long>(stats.cache_hits),
                 static_cast<unsigned long long>(stats.cache_misses),
                 static_cast<unsigned long long>(stats.coalesced), stats.mean_batch_size);
  }
  if (stack->router != nullptr) {
    dssddi::obs::Registry& registry = stack->router->registry();
    auto count = [&](const char* name, dssddi::obs::Labels labels) {
      return static_cast<unsigned long long>(registry.GetCounter(name, "", labels)->Value());
    };
    std::fprintf(stderr,
                 "servebench: router ok=%llu stale=%llu error=%llu retries=%llu "
                 "hedges won=%llu lost=%llu\n",
                 count("dssddi_router_requests_total", {{"outcome", "ok"}}),
                 count("dssddi_router_requests_total", {{"outcome", "stale"}}),
                 count("dssddi_router_requests_total", {{"outcome", "error"}}),
                 count("dssddi_router_retries_total", {}),
                 count("dssddi_router_hedges_total", {{"result", "won"}}),
                 count("dssddi_router_hedges_total", {{"result", "lost"}}));
  }

  // 4. Check every answer. A routed replica serves bundle A at odd model
  // versions and B at even ones (the reloader verified each step).
  std::vector<std::unique_ptr<dssddi::io::InferenceBundle>> reference;
  for (const std::string& path : spec.routed ? std::vector<std::string>{bundle_a, bundle_b}
                                             : std::vector<std::string>{bundle_a}) {
    reference.push_back(std::make_unique<dssddi::io::InferenceBundle>());
    const dssddi::io::Status loaded = dssddi::io::LoadInferenceBundle(path, reference.back().get());
    if (!loaded.ok) {
      std::fprintf(stderr, "servebench: reference load: %s\n", loaded.message.c_str());
      return 1;
    }
  }
  std::vector<const dssddi::io::InferenceBundle*> reference_ptrs;
  for (const auto& bundle : reference) reference_ptrs.push_back(bundle.get());
  const bool routed = spec.routed;
  Checker checker(reference_ptrs,
                  [routed](uint64_t version) -> int {
                    if (version == 0) return -1;
                    return routed ? static_cast<int>((version - 1) % 2) : 0;
                  },
                  inputs);
  std::vector<Observed> observed;
  std::vector<std::string> check_errors;
  const uint64_t end_index = generator.next_index();
  const uint64_t check_failures =
      checker.CheckAll(records, 0, end_index, kCheckThreads, &observed, &check_errors);
  for (const std::string& why : check_errors) {
    std::fprintf(stderr, "servebench: check failed: %s\n", why.c_str());
  }
  if (traced) {
    // How much the run's patients share: distinct suggested sets per k
    // over the rows the run visited (on bundle A), and the hot-set share.
    std::vector<char> visited(static_cast<size_t>(inputs.rows()), 0);
    std::vector<int> rows;
    for (uint64_t i = 0; i < end_index; ++i) {
      const int row = inputs.RowOf(i);
      if (records[i].status == 200 && !visited[static_cast<size_t>(row)]) {
        visited[static_cast<size_t>(row)] = 1;
        rows.push_back(row);
      }
    }
    std::fprintf(stderr, "servebench: inputs held-out seed %llu, %zu rows visited; distinct top-k sets:",
                 static_cast<unsigned long long>(inputs.heldout_seed()), rows.size());
    for (int k = 2; k <= 6; ++k) {
      std::set<std::vector<int>> sets;
      for (const int row : rows) {
        std::vector<int> top = checker.UnbatchedTopK(0, row, k);
        std::sort(top.begin(), top.end());
        sets.insert(top);
      }
      std::fprintf(stderr, " k=%d %zu (%.1f%%)", k, sets.size(),
                   100.0 * static_cast<double>(sets.size()) / static_cast<double>(rows.size()));
    }
    if (spec.routed) {
      std::fprintf(stderr,
                   "; top 1%% of patients get %.1f%% of visits, the %zu most visited %.1f%%",
                   100.0 * inputs.TopShare(static_cast<size_t>(inputs.rows()) / 100),
                   dssddi::serve::ServiceOptions().cache_capacity,
                   100.0 * inputs.TopShare(dssddi::serve::ServiceOptions().cache_capacity));
    }
    std::fprintf(stderr, "\n");
  }

  uint64_t attempted = 0, failed = 0;
  for (const PhaseStats& phase : phases) {
    attempted += phase.attempted;
    failed += phase.failed;
  }
  bool correct = check_failures == 0;
  if (failed > 0) {
    std::fprintf(stderr, "servebench: %llu of %llu requests failed\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
    correct = false;
  }
  if (!spec.routed && end_index > static_cast<uint64_t>(inputs.rows())) {
    std::fprintf(stderr,
                 "servebench: %llu requests outran the %d fresh held-out patients; "
                 "raise its pool_rows\n",
                 static_cast<unsigned long long>(end_index), inputs.rows());
    correct = false;
  }
  if (reloader != nullptr && reloader->failures() > 0) {
    std::fprintf(stderr, "servebench: %llu reloads failed: %s\n",
                 static_cast<unsigned long long>(reloader->failures()),
                 reloader->error().c_str());
    correct = false;
  }

  // 5. Layer replays (traced run), before the self-test probe touches the
  // servers again.
  std::vector<Metric> metrics;
  uint64_t next_index = end_index;
  if (traced) {
    LayerInputs layer;
    layer.spec = &spec;
    layer.inputs = &inputs;
    layer.stack = stack.get();
    layer.observed = &observed;
    layer.closed = &phases[1];
    layer.open = &phases[2];
    layer.closed_rps = WindowedRate(records, phases[1]);
    layer.fit_s = fit_s;
    if (reloader != nullptr) layer.reload_ms = reloader->times_ms();
    layer.bundle_path = bundle_a;
    layer.scratch_dir = run_dir;
    layer.next_index = next_index;
    files.push_back(run_dir + "/replay.dssb");
    metrics = MeasureLayers(layer, spans);
    next_index += 1 << 20;
  }

  // 6. Checker self-test: one explained JSON answer (fresh request) and,
  // for frame traffic, the first frame answer; each corruption must fail.
  {
    const uint64_t probe = next_index;
    const int row = inputs.RowOf(probe);
    const std::string body =
        inputs.JsonBody(row, inputs.PatientIdOf(probe), inputs.KOf(probe), true);
    dssddi::net::HttpClient client;
    dssddi::net::ClientResponse response;
    dssddi::io::Status status = client.Connect("127.0.0.1", stack->entry_port);
    if (status.ok) status = client.Request("POST", "/v1/suggest", body, &response);
    std::string frame;
    uint64_t frame_index = 0;
    if (spec.codec == Codec::kFrame) {
      for (uint64_t i = 0; i < end_index; ++i) {
        if (records[i].status == 200) {
          frame.assign(records[i].response, records[i].response_size);
          frame_index = i;
          break;
        }
      }
    }
    std::string report;
    const bool caught = status.ok && response.status == 200 &&
                        checker.SelfTest(response.body, probe, frame, frame_index, &report);
    std::fprintf(stderr, "servebench: checker self-test %s: %s\n", caught ? "passed" : "FAILED",
                 report.c_str());
    if (!caught) correct = false;
  }

  if (!traced) {
    std::vector<double> latencies, window_p50;
    for (std::vector<double>& window : OpenLatencyWindows(records, phases[2])) {
      latencies.insert(latencies.end(), window.begin(), window.end());
      if (!window.empty()) window_p50.push_back(Quantile(window, 0.50));
    }
    const double rps = WindowedRate(records, phases[1]);
    std::fprintf(stderr,
                 "servebench: rps %.1f (whole phase %.1f); p50_ms %.4f (all open-loop "
                 "samples %.4f)\n",
                 rps, phases[1].Rate(), Median(window_p50), Quantile(latencies, 0.50));
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    metrics.push_back({"rps", rps, "1/s"});
    metrics.push_back({"p50_ms", Median(window_p50), "ms"});
    metrics.push_back({"peak_heap_mb", heap.peak_mb(), "MB"});
    // The tail is reported, not bounded: on a shared 4-vCPU host it moves
    // with host stalls far more than with the program (see README).
    std::fprintf(stderr, "servebench: open-loop samples %zu: p90 %.3f ms, p99 %.3f ms\n",
                 latencies.size(), Quantile(latencies, 0.90), Quantile(latencies, 0.99));
  } else {
    const std::string spans_dir = args.workdir + "/spans";
    ::mkdir(spans_dir.c_str(), 0755);
    const std::string path =
        spans_dir + "/" + spec.name + "-seed" + std::to_string(args.seed) + ".jsonl";
    // Request spans, built from the records after the fact so the timed
    // phases carry no tracing work of the benchmark's own.
    for (uint64_t i = 0; i < end_index; ++i) {
      const Record& r = records[i];
      const uint64_t root = spans.Add("request", r.intended_ns, r.done_ns, 0, i + 1);
      if (r.sent_ns > r.intended_ns) spans.Add("send_wait", r.intended_ns, r.sent_ns, root, i + 1);
      spans.Add("exchange", r.sent_ns, r.done_ns, root, i + 1);
    }
    if (!spans.Write(path, process_start_ns)) {
      std::fprintf(stderr, "servebench: cannot write %s\n", path.c_str());
      correct = false;
    } else {
      std::fprintf(stderr, "servebench: %zu spans written to %s\n", spans.size(), path.c_str());
    }
  }

  stack.reset();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  const int64_t start = servebench::NowNs();
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR]\n",
                 argv[0]);
    return 2;
  }
  if (servebench::PinToFirstCpus() == 0) {
    std::fprintf(stderr, "servebench: running unpinned (fewer than %d CPUs allowed)\n",
                 servebench::kCpus);
  }
  try {
    return servebench::Run(args, start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
