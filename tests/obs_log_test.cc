// Tests for the flight recorder: record/snapshot ordering, ring wrap
// (newest events overwrite oldest), the /logz NDJSON render and its
// severity/trace/route filters, stage-duration capture from a sampled
// trace, zero allocations on Record (this file is its own test binary,
// so the operator-new counting hook below sees only this file's code),
// and torn-entry detection under concurrent writers at ring capacities
// that force writers to lap onto each other.

#include <cstdint>
#include <cstdlib>
#include <new>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/json.h"
#include "obs/log.h"
#include "obs/trace.h"

// ---------------------------------------------------------------------
// Allocation-counting global operator new/delete (same discipline as
// obs_metrics_test: the aligned variants matter or an aligned allocation
// would slip past the counter).
// ---------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dssddi {
namespace {

using obs::FlightRecorder;
using obs::FlightRecorderOptions;
using obs::LogEvent;
using obs::LogReason;
using obs::LogSeverity;

/// Splits an NDJSON payload into parsed lines, failing the test on any
/// line that is not a standalone JSON object.
std::vector<net::JsonValue> ParseNdjson(const std::string& body) {
  std::vector<net::JsonValue> lines;
  size_t pos = 0;
  while (pos < body.size()) {
    const size_t eol = body.find('\n', pos);
    EXPECT_NE(eol, std::string::npos) << "NDJSON must end with a newline";
    if (eol == std::string::npos) break;
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    net::JsonValue value;
    std::string error;
    EXPECT_TRUE(net::ParseJson(line, &value, &error)) << error << ": " << line;
    lines.push_back(std::move(value));
  }
  return lines;
}

TEST(FlightRecorderTest, SnapshotReturnsEventsOldestFirstWithAllFields) {
  FlightRecorder recorder;
  recorder.Record(LogSeverity::kInfo, LogReason::kNone, "/v1/suggest", 200,
                  7, 1.25);
  recorder.Record(LogSeverity::kWarning, LogReason::kShedLoad, "/v1/suggest",
                  429, 8, 0.0, nullptr, "queue full");
  recorder.Record(LogSeverity::kError, LogReason::kScoringError, "service",
                  500, 9, 3.5, nullptr, "batch threw");

  EXPECT_EQ(recorder.recorded(), 3u);
  const std::vector<LogEvent> events = recorder.SnapshotForTest();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].trace_id, 7u);
  EXPECT_EQ(events[1].trace_id, 8u);
  EXPECT_EQ(events[2].trace_id, 9u);

  EXPECT_EQ(events[0].severity, LogSeverity::kInfo);
  EXPECT_EQ(events[0].reason, LogReason::kNone);
  EXPECT_STREQ(events[0].route, "/v1/suggest");
  EXPECT_EQ(events[0].status, 200);
  EXPECT_DOUBLE_EQ(events[0].total_ms, 1.25);
  EXPECT_GT(events[0].unix_seconds, 0.0);

  EXPECT_EQ(events[1].severity, LogSeverity::kWarning);
  EXPECT_EQ(events[1].reason, LogReason::kShedLoad);
  EXPECT_EQ(events[1].status, 429);
  EXPECT_STREQ(events[1].detail, "queue full");

  EXPECT_EQ(events[2].severity, LogSeverity::kError);
  EXPECT_EQ(events[2].reason, LogReason::kScoringError);
  EXPECT_STREQ(events[2].route, "service");
}

TEST(FlightRecorderTest, CapacityRoundsUpToAPowerOfTwo) {
  FlightRecorderOptions options;
  options.capacity = 5;
  FlightRecorder recorder(options);
  EXPECT_EQ(recorder.capacity(), 8u);
  options.capacity = 0;
  FlightRecorder tiny(options);
  EXPECT_EQ(tiny.capacity(), 1u);
}

TEST(FlightRecorderTest, RingWrapKeepsTheNewestEvents) {
  FlightRecorderOptions options;
  options.capacity = 4;
  FlightRecorder recorder(options);
  for (uint64_t i = 1; i <= 10; ++i) {
    recorder.Record(LogSeverity::kInfo, LogReason::kNone, "/v1/suggest",
                    200, i, static_cast<double>(i));
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  const std::vector<LogEvent> events = recorder.SnapshotForTest();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first view of the surviving tail: 7, 8, 9, 10.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].trace_id, 7u + i);
  }
}

TEST(FlightRecorderTest, LogzRenderAppliesSeverityTraceAndRouteFilters) {
  FlightRecorder recorder;
  recorder.Record(LogSeverity::kInfo, LogReason::kNone, "/v1/suggest", 200,
                  1, 1.0);
  recorder.Record(LogSeverity::kWarning, LogReason::kShedDeadline,
                  "/v1/suggest", 504, 2, 0.5, nullptr, "budget infeasible");
  recorder.Record(LogSeverity::kError, LogReason::kParseError, "http", 400,
                  0, 0.0, nullptr, "bad request line");
  recorder.Record(LogSeverity::kInfo, LogReason::kNone, "/v1/suggest", 200,
                  3, 2.0);

  // Unfiltered: all four, oldest first.
  std::vector<net::JsonValue> all = ParseNdjson(recorder.RenderLogzJson());
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].Find("trace_id")->AsInt(), 1);
  EXPECT_EQ(all[0].Find("severity")->AsString(), "info");
  EXPECT_EQ(all[1].Find("reason")->AsString(), "shed_deadline");
  EXPECT_EQ(all[1].Find("detail")->AsString(), "budget infeasible");
  EXPECT_EQ(all[2].Find("route")->AsString(), "http");
  EXPECT_EQ(all[3].Find("trace_id")->AsInt(), 3);

  // Minimum severity drops the info completions.
  std::vector<net::JsonValue> warnings =
      ParseNdjson(recorder.RenderLogzJson(LogSeverity::kWarning));
  ASSERT_EQ(warnings.size(), 2u);
  EXPECT_EQ(warnings[0].Find("status")->AsInt(), 504);
  EXPECT_EQ(warnings[1].Find("severity")->AsString(), "error");

  // Trace filter keeps exactly one request's events.
  std::vector<net::JsonValue> one =
      ParseNdjson(recorder.RenderLogzJson(LogSeverity::kInfo, 2));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].Find("trace_id")->AsInt(), 2);

  // Route filter is an exact match.
  std::vector<net::JsonValue> http =
      ParseNdjson(recorder.RenderLogzJson(LogSeverity::kInfo, 0, "http"));
  ASSERT_EQ(http.size(), 1u);
  EXPECT_EQ(http[0].Find("reason")->AsString(), "parse_error");
  EXPECT_TRUE(
      ParseNdjson(recorder.RenderLogzJson(LogSeverity::kInfo, 0, "/nope"))
          .empty());
}

TEST(FlightRecorderTest, SampledTraceStageDurationsLandInTheEvent) {
  FlightRecorder recorder;
  obs::Trace trace;
  trace.AddStageNs(obs::Stage::kGemm, 2'000'000);       // 2 ms
  trace.AddStageNs(obs::Stage::kSerialize, 500'000);    // 0.5 ms
  recorder.Record(LogSeverity::kInfo, LogReason::kNone, "/v1/suggest", 200,
                  11, 3.0, &trace);
  recorder.Record(LogSeverity::kInfo, LogReason::kNone, "/v1/suggest", 200,
                  12, 3.0);  // unsampled: no stages

  const std::vector<LogEvent> events = recorder.SnapshotForTest();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].stage_ns[static_cast<size_t>(obs::Stage::kGemm)],
            2'000'000u);
  EXPECT_EQ(events[0].stage_ns[static_cast<size_t>(obs::Stage::kSerialize)],
            500'000u);
  EXPECT_EQ(events[0].stage_ns[static_cast<size_t>(obs::Stage::kQueueWait)],
            0u);
  for (int s = 0; s < obs::kNumStages; ++s) {
    EXPECT_EQ(events[1].stage_ns[static_cast<size_t>(s)], 0u);
  }

  // The render exposes stamped stages in milliseconds and omits the
  // stages_ms object entirely for unsampled events.
  std::vector<net::JsonValue> lines = ParseNdjson(recorder.RenderLogzJson());
  ASSERT_EQ(lines.size(), 2u);
  const net::JsonValue* stages = lines[0].Find("stages_ms");
  ASSERT_NE(stages, nullptr);
  EXPECT_DOUBLE_EQ(stages->Find("gemm")->AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(stages->Find("serialize")->AsDouble(), 0.5);
  EXPECT_EQ(stages->Find("queue_wait"), nullptr);
  EXPECT_EQ(lines[1].Find("stages_ms"), nullptr);
}

TEST(FlightRecorderTest, SeverityParserAcceptsExactNamesOnly) {
  LogSeverity severity;
  EXPECT_TRUE(obs::ParseLogSeverity("info", &severity));
  EXPECT_EQ(severity, LogSeverity::kInfo);
  EXPECT_TRUE(obs::ParseLogSeverity("warning", &severity));
  EXPECT_EQ(severity, LogSeverity::kWarning);
  EXPECT_TRUE(obs::ParseLogSeverity("error", &severity));
  EXPECT_EQ(severity, LogSeverity::kError);
  EXPECT_FALSE(obs::ParseLogSeverity("", &severity));
  EXPECT_FALSE(obs::ParseLogSeverity("Error", &severity));
  EXPECT_FALSE(obs::ParseLogSeverity("warn", &severity));
}

// The serving contract: recording a wide event on a request completion
// path allocates nothing, sampled or not.
TEST(FlightRecorderTest, RecordAllocatesNothing) {
  FlightRecorder recorder;
  obs::Trace trace;
  trace.AddStageNs(obs::Stage::kGemm, 1'000'000);
  recorder.Record(LogSeverity::kInfo, LogReason::kNone, "/v1/suggest", 200,
                  1, 1.0, &trace);  // warm everything once

  const uint64_t before = AllocationCount();
  for (uint64_t i = 0; i < 1000; ++i) {
    recorder.Record(LogSeverity::kInfo, LogReason::kNone, "/v1/suggest", 200,
                    i, 1.0, &trace);
    recorder.Record(LogSeverity::kWarning, LogReason::kShedLoad,
                    "/v1/suggest", 429, i, 0.0, nullptr, "queue full");
  }
  EXPECT_EQ(AllocationCount() - before, 0u)
      << "FlightRecorder::Record allocated on the completion path";
}

// Writers racing a snapshotting reader: every event the reader observes
// must be internally consistent (the seqlock turns slots mid-update into
// skipped entries, never into mixed fields). Capacities 1 and 2 make
// writers lap onto a slot another writer still holds on nearly every
// record; 64 laps less often.
TEST(FlightRecorderTest, ConcurrentWritersNeverYieldTornEvents) {
  for (const size_t capacity : {size_t{1}, size_t{2}, size_t{64}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    FlightRecorderOptions options;
    options.capacity = capacity;
    FlightRecorder recorder(options);

    constexpr int kWriters = 4;
    constexpr uint64_t kPerWriter = 20000;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> inconsistent{0};

    std::thread reader([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (const LogEvent& event : recorder.SnapshotForTest()) {
          // Each writer stamps status = trace_id % 1000 and
          // total_ms = trace_id % 97; a torn slot breaks the coupling.
          if (event.status != static_cast<int>(event.trace_id % 1000) ||
              event.total_ms != static_cast<double>(event.trace_id % 97)) {
            inconsistent.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });

    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&recorder, t] {
        for (uint64_t i = 0; i < kPerWriter; ++i) {
          const uint64_t id = static_cast<uint64_t>(t) * kPerWriter + i + 1;
          recorder.Record(LogSeverity::kInfo, LogReason::kNone, "/v1/suggest",
                          static_cast<int>(id % 1000), id,
                          static_cast<double>(id % 97));
        }
      });
    }
    for (std::thread& w : writers) w.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(inconsistent.load(), 0u);
    EXPECT_EQ(recorder.recorded(), kWriters * kPerWriter);
    // Quiescent ring: a final snapshot sees a full, consistent window.
    const std::vector<LogEvent> events = recorder.SnapshotForTest();
    EXPECT_EQ(events.size(), recorder.capacity());
    for (const LogEvent& event : events) {
      EXPECT_EQ(event.status, static_cast<int>(event.trace_id % 1000));
      EXPECT_EQ(event.total_ms, static_cast<double>(event.trace_id % 97));
    }
  }
}

}  // namespace
}  // namespace dssddi
