#ifndef SERVEBENCH_COMMON_H_
#define SERVEBENCH_COMMON_H_

// Small shared pieces of the serving benchmark: the clock, an mmap-backed
// arena that keeps the benchmark's own inputs and records out of the
// malloc heap (so peak_heap_mb sees the program, not the harness), order
// statistics, and the span log of the traced run.

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Bump allocator over one private anonymous mapping reserved up front
/// (MAP_NORESERVE: only touched pages cost memory). Nothing is freed
/// until the arena goes; allocations never touch malloc.
class Arena {
 public:
  explicit Arena(size_t capacity) : capacity_(capacity) {
    void* base = ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED) throw std::runtime_error("arena mmap failed");
    base_ = static_cast<char*>(base);
  }
  ~Arena() { ::munmap(base_, capacity_); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  char* Allocate(size_t bytes) {
    const size_t aligned = (used_ + 15) & ~size_t{15};
    if (aligned + bytes > capacity_) throw std::runtime_error("arena full");
    used_ = aligned + bytes;
    return base_ + aligned;
  }
  template <typename T>
  T* AllocateArray(size_t count) {
    return reinterpret_cast<T*>(Allocate(count * sizeof(T)));
  }
  /// Copies `bytes` in and returns the stored copy.
  const char* Store(const char* bytes, size_t size) {
    char* out = Allocate(size);
    std::memcpy(out, bytes, size);
    return out;
  }

 private:
  char* base_ = nullptr;
  size_t capacity_ = 0;
  size_t used_ = 0;
};

/// q-quantile by linear interpolation between order statistics (the
/// "type 7" rule); sorts `values` in place. 0 for an empty sample.
inline double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(values, 0.5);
}

/// One traced interval. `parent` is 0 for a root span; spans of one
/// request share `request_id` (0 for work that serves no request).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request_id = 0;
};

/// Spans kept in memory during the run and written as JSON lines at the
/// end. Disabled logs record nothing.
class SpanLog {
 public:
  void Enable(size_t reserve) {
    enabled_ = true;
    spans_.reserve(reserve);
  }

  uint64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint64_t parent = 0, uint64_t request_id = 0) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t id = spans_.size() + 1;
    spans_.push_back({name, start_ns, end_ns, id, parent, request_id});
    return id;
  }

  /// Closes a span opened with end_ns = start_ns once its end is known.
  void SetEnd(uint64_t id, int64_t end_ns) {
    if (!enabled_ || id == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_ns = end_ns;
  }

  /// Writes every span, times relative to `origin_ns`. False on I/O error.
  bool Write(const std::string& path, int64_t origin_ns) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& span : spans_) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                   "\"id\":%llu,\"parent\":%llu,\"request_id\":%llu}\n",
                   span.name, (span.start_ns - origin_ns) / 1e3,
                   (span.end_ns - origin_ns) / 1e3,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.request_id));
    }
    return std::fclose(out) == 0;
  }
  size_t size() const { return spans_.size(); }

 private:
  bool enabled_ = false;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Times `fn` and records it as a span when the log is enabled.
template <typename Fn>
double TimedMs(SpanLog& spans, const char* name, uint64_t parent, Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  spans.Add(name, start, end, parent);
  return NsToMs(end - start);
}

}  // namespace servebench

#endif  // SERVEBENCH_COMMON_H_
