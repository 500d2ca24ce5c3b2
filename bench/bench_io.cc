// Bundle load-path benchmark for the flat mmap format (io/bundle_v4.h).
//
// Two gates, both measured in one run on synthetic bundles with 768
// drugs:
//   * size independence — a bundle with hidden_dim 1024 (about 18x the
//     bytes of the hidden_dim 128 one) loads within 2x the small one's
//     time (min over warm-cache loads): the loader validates the header,
//     section table and descriptors and builds views, so its cost must
//     not follow the tensor bytes the way a parse-every-byte loader's
//     does;
//   * residency — a forked child that loads the already-resident large
//     file grows its Private_Dirty by under 1024 KB: the weights stay
//     clean, shared page-cache pages instead of a private heap copy.
//
//   ./bench/bench_io [--iters N] [--quick]
//
// --quick takes fewer load samples (10 instead of 30); the bundles and
// both gates are the same. Machine-readable results land in
// BENCH_io.json.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "graph/signed_graph.h"
#include "io/bundle_v4.h"
#include "io/inference_bundle.h"
#include "net/json.h"
#include "tensor/nn.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace dssddi;

/// A hand-assembled bundle with production-sized tensors. Load cost is a
/// function of tensor bytes, not model quality, so random weights in a
/// consistent shape measure exactly what a trained model would without
/// minutes of Fit() up front.
io::InferenceBundle MakeSyntheticBundle(int d1, int hidden, int drugs,
                                        int clusters) {
  util::Rng rng(7);
  const auto mat = [&rng](int rows, int cols) {
    tensor::Matrix m(rows, cols);
    for (float& v : m.data()) v = static_cast<float>(rng.Normal(0.0, 0.05));
    return m;
  };
  const int relu = static_cast<int>(tensor::Activation::kRelu);
  const int none = static_cast<int>(tensor::Activation::kNone);

  io::InferenceBundle bundle;
  bundle.display_name = "bench-io synthetic";
  bundle.hidden_dim = hidden;
  bundle.mlp_decoder = true;
  bundle.use_treatment_feature = true;
  bundle.patient_fc.layers = {
      {mat(d1, hidden), mat(1, hidden), relu},
      {mat(hidden, hidden), mat(1, hidden), relu},
  };
  bundle.decoder.layers = {
      {mat(hidden + 1, hidden), mat(1, hidden), relu},
      {mat(hidden, 1), mat(1, 1), none},
  };
  bundle.final_drug_reps = mat(drugs, hidden);
  bundle.cluster_centroids = mat(clusters, d1);
  bundle.cluster_treatment = mat(clusters, drugs);
  std::vector<graph::SignedEdge> edges;
  for (int v = 0; v + 1 < drugs; ++v) {
    edges.push_back({v, v + 1,
                     v % 7 == 0 ? graph::EdgeSign::kAntagonistic
                                : graph::EdgeSign::kSynergistic});
  }
  bundle.ddi = graph::SignedGraph(drugs, edges);
  bundle.drug_names.reserve(drugs);
  for (int v = 0; v < drugs; ++v) {
    bundle.drug_names.push_back("D" + std::to_string(v));
  }
  bundle.EnsureQuantized();
  return bundle;
}

/// Reads one numeric field in kilobytes from a /proc status-style file
/// (0 if unreadable). Used for VmRSS from /proc/self/status and
/// Private_Dirty from /proc/self/smaps_rollup.
long ReadProcKb(const char* proc_path, const char* key) {
  std::FILE* file = std::fopen(proc_path, "r");
  if (file == nullptr) return 0;
  const size_t key_len = std::strlen(key);
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      kb = std::strtol(line + key_len, nullptr, 10);
      break;
    }
  }
  std::fclose(file);
  return kb;
}

/// One load with a warm page cache, in ms: what is measured is the CPU
/// cost of turning bytes into a servable bundle (header, table and
/// descriptor validation plus view construction). The unmap happens
/// after the clock stops.
double TimedLoadMs(const std::string& path) {
  io::InferenceBundle bundle;
  util::Stopwatch timer;
  if (!io::LoadInferenceBundle(path, &bundle).ok) {
    std::fprintf(stderr, "load failed for %s\n", path.c_str());
    std::exit(1);
  }
  return timer.ElapsedMillis();
}

/// Total Private_Dirty of this process in KB, from smaps_rollup (falls
/// back to summing per-vma smaps lines on kernels without the rollup).
long ReadPrivateDirtyKb() {
  const long rollup = ReadProcKb("/proc/self/smaps_rollup", "Private_Dirty:");
  if (rollup > 0) return rollup;
  std::FILE* file = std::fopen("/proc/self/smaps", "r");
  if (file == nullptr) return rollup;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, "Private_Dirty:", 14) == 0) {
      kb += std::strtol(line + 14, nullptr, 10);
    }
  }
  std::fclose(file);
  return kb;
}

struct ChildDelta {
  long rss_kb = -1;      // VmRSS growth: includes shared mapped file pages
  long private_kb = -1;  // Private_Dirty growth: pages only this child owns
};

/// Forks a child that loads `path` once and reports its memory growth
/// over the load (KB) through a pipe. The parent has already loaded the
/// same file, so every page is warm in the shared page cache. The
/// Private_Dirty delta is the sharing gate: right after fork every page
/// the child can see is CoW-shared with the parent, so any growth counts
/// exactly the private copies the load itself creates. The load dirties
/// only bookkeeping — the weights stay clean file-backed pages in the
/// page cache, shared with the parent and any other process mapping the
/// file. The RSS delta is reported alongside but is kernel-sensitive:
/// fault-around and large folios can map untouched (still shared,
/// evictable) file pages into the child, which inflates RSS without any
/// private copy — which is why it is not the gate.
ChildDelta ChildLoadDeltaKb(const std::string& path) {
  ChildDelta result;
  int fds[2];
  if (pipe(fds) != 0) return result;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return result;
  }
  if (pid == 0) {
    close(fds[0]);
    const long rss_before = ReadProcKb("/proc/self/status", "VmRSS:");
    const long dirty_before = ReadPrivateDirtyKb();
    io::InferenceBundle bundle;
    const bool ok = io::LoadInferenceBundle(path, &bundle).ok;
    long deltas[2] = {-1, -1};
    if (ok) {
      deltas[0] = ReadProcKb("/proc/self/status", "VmRSS:") - rss_before;
      deltas[1] = ReadPrivateDirtyKb() - dirty_before;
    }
    const ssize_t written = write(fds[1], deltas, sizeof(deltas));
    close(fds[1]);
    _exit(written == sizeof(deltas) && ok ? 0 : 1);
  }
  close(fds[1]);
  long deltas[2] = {-1, -1};
  if (read(fds[0], deltas, sizeof(deltas)) != sizeof(deltas)) {
    deltas[0] = deltas[1] = -1;
  }
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) return result;
  result.rss_kb = deltas[0];
  result.private_kb = deltas[1];
  return result;
}

std::string TempDirPath() {
  const char* tmp = std::getenv("TMPDIR");
  return (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
}

struct SizedBundle {
  int hidden_dim = 0;
  std::string path;
  /// Held mapped for the whole run, the way a serving process keeps its
  /// model. Without it the residency child would be the only process
  /// mapping the just-written (still dirty) page-cache pages, and smaps
  /// counts those as its Private_Dirty although nothing was copied.
  io::InferenceBundle loaded;
  std::vector<double> load_ms;

  double min_ms() const {
    return *std::min_element(load_ms.begin(), load_ms.end());
  }
  double mean_ms() const {
    double sum = 0.0;
    for (const double ms : load_ms) sum += ms;
    return sum / static_cast<double>(load_ms.size());
  }
};

}  // namespace

int main(int argc, char** argv) {
  int iters = 0;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--iters" && i + 1 < argc) {
      iters = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--quick") {
      quick = true;
    }
  }
  if (iters == 0) iters = quick ? 10 : 30;

  bench::PrintHeader("Bundle load path: flat mmap v4",
                     "gates: load time independent of bundle size, "
                     "page-cache-shared weights across processes");

  constexpr int kDrugs = 768;
  SizedBundle sizes[2];
  sizes[0].hidden_dim = 128;
  sizes[1].hidden_dim = 1024;
  for (SizedBundle& sized : sizes) {
    const io::InferenceBundle bundle = MakeSyntheticBundle(
        /*d1=*/256, sized.hidden_dim, kDrugs, /*clusters=*/8);
    sized.path = TempDirPath() + "/dssddi_bench_io_h" +
                 std::to_string(sized.hidden_dim) + ".dssb";
    if (!io::SaveInferenceBundleV4(sized.path, bundle).ok ||
        !io::LoadInferenceBundle(sized.path, &sized.loaded).ok) {
      std::fprintf(stderr, "cannot write or load %s\n", sized.path.c_str());
      return 1;
    }
  }
  // Interleaved, so host drift during the run hits both sizes alike.
  for (int i = 0; i < iters; ++i) {
    for (SizedBundle& sized : sizes) {
      sized.load_ms.push_back(TimedLoadMs(sized.path));
    }
  }
  const SizedBundle& small = sizes[0];
  const SizedBundle& large = sizes[1];

  std::printf("%d drugs, min/mean over %d warm-cache loads:\n", kDrugs, iters);
  std::printf("%10s %14s %12s %12s\n", "hidden_dim", "bytes mapped", "min ms",
              "mean ms");
  for (const SizedBundle& sized : sizes) {
    std::printf("%10d %14zu %12.3f %12.3f\n", sized.hidden_dim,
                sized.loaded.bytes_mapped(), sized.min_ms(), sized.mean_ms());
  }
  const double size_ratio = static_cast<double>(large.loaded.bytes_mapped()) /
                            static_cast<double>(small.loaded.bytes_mapped());
  const double load_ratio = large.min_ms() / small.min_ms();
  const bool size_pass = load_ratio <= 2.0;
  std::printf("\n%.1fx the bytes load in %.2fx the time %s\n", size_ratio,
              load_ratio,
              size_pass ? "(PASS: <= 2x)" : "(size-independence gate not met)");

  // Residency: the large file is warm (the parent just loaded it); a
  // forked child re-loading it allocates ~no private memory of its own.
  // What it still dirties is bookkeeping (graph rebuild, metadata,
  // allocator state), well under a megabyte.
  const ChildDelta child = ChildLoadDeltaKb(large.path);
  std::printf("\nchild-process memory growth from loading the warm "
              "hidden_dim %d file:\n  private %ld KB, rss %ld KB\n",
              large.hidden_dim, child.private_kb, child.rss_kb);
  const bool residency_pass = child.private_kb >= 0 && child.private_kb < 1024;
  std::printf("  %s\n",
              residency_pass
                  ? "(PASS: private delta < 1024 KB; weights stay in the "
                    "shared page cache)"
                  : "(residency gate not met)");

  net::JsonWriter json;
  json.BeginObject()
      .Key("bench").String("io")
      .Key("iters").Int(iters)
      .Key("num_drugs").Int(kDrugs)
      .Key("small_hidden_dim").Int(small.hidden_dim)
      .Key("large_hidden_dim").Int(large.hidden_dim)
      .Key("small_bytes_mapped").UInt(small.loaded.bytes_mapped())
      .Key("large_bytes_mapped").UInt(large.loaded.bytes_mapped())
      .Key("small_load_min_ms").Double(small.min_ms())
      .Key("small_load_mean_ms").Double(small.mean_ms())
      .Key("large_load_min_ms").Double(large.min_ms())
      .Key("large_load_mean_ms").Double(large.mean_ms())
      .Key("size_ratio").Double(size_ratio)
      .Key("load_ratio").Double(load_ratio)
      .Key("child_private_delta_kb").Int(child.private_kb)
      .Key("child_rss_delta_kb").Int(child.rss_kb)
      .Key("size_independence_pass").Bool(size_pass)
      .Key("residency_pass").Bool(residency_pass)
      .Key("pass").Bool(size_pass && residency_pass)
      .EndObject();
  bench::WriteBenchJson("io", json.str());

  for (const SizedBundle& sized : sizes) std::remove(sized.path.c_str());
  return (size_pass && residency_pass) ? 0 : 1;
}
