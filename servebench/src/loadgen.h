#ifndef SERVEBENCH_LOADGEN_H_
#define SERVEBENCH_LOADGEN_H_

// The load generator: one thread, non-blocking sockets, epoll. A closed
// phase keeps a fixed number of requests in flight per connection and
// sleeps in epoll_wait between replies, so it holds no core while the
// server is busy. An open phase sends on a fixed-rate schedule, writing
// each request the moment it is due whatever replies are outstanding
// (JSON requests pipeline on the least-loaded HTTP/1.1 connection,
// frames multiplex), so latency is timed from the intended send time and
// a slow reply never delays a later send. It spins on a zero-timeout
// epoll_wait and the clock instead of sleeping: a sleeping generator adds
// its own wake-up latency, which swings with host load, to every send
// and reply it times, and at the open loop's low rates the server leaves
// the spare core. Response bytes are copied into an arena and checked
// after the timed phases.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "workload.h"

namespace servebench {

/// One request of the run; records are indexed by request index.
struct Record {
  int64_t intended_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  const char* response = nullptr;  // HTTP body or whole wire frame
  uint32_t response_size = 0;
  /// Bytes the reply took on the wire (HTTP head included).
  uint32_t wire_size = 0;
  /// HTTP status (frames: 200 for a response frame, the error frame's
  /// status otherwise); -1 when the transport failed.
  int16_t status = 0;
  uint8_t phase = 0;
  uint8_t connection = 0;
};

struct PhaseStats {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t first = 0;  // request index range [first, end)
  uint64_t end = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed requests by status (-1 = transport failure), for the report.
  std::map<int, uint64_t> failed_by_status;
  /// Answered with 200 before the phase's end (the closed-loop rate).
  uint64_t completed_in_window = 0;
  uint64_t response_bytes = 0;
  uint64_t request_bytes = 0;
  /// Open loop: how late sends left against their schedule.
  double late_p50_ms = 0.0;
  double late_p99_ms = 0.0;
  double late_max_ms = 0.0;

  double Rate() const {
    return static_cast<double>(completed_in_window) / NsToS(end_ns - start_ns);
  }
};

class LoadGenerator {
 public:
  LoadGenerator(int port, Inputs* inputs, Arena* responses, Record* records,
                size_t capacity);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  PhaseStats RunClosed(const std::string& name, int connections, int depth,
                       double seconds);
  PhaseStats RunOpen(const std::string& name, int connections, double rate,
                     double seconds);

  /// Calls `fn` (on the generator thread, so it must not block) each
  /// time a request index that is a positive multiple of `every` is sent.
  void OnEvery(uint64_t every, std::function<void()> fn) {
    every_ = every;
    on_every_ = std::move(fn);
  }

  uint64_t next_index() const { return next_index_; }
  const Record& record(uint64_t index) const { return records_[index]; }

 private:
  struct Conn;

  void Connect(int count);
  void CloseAll();
  void Send(Conn& conn, uint64_t index, int64_t intended_ns);
  void Flush(Conn& conn);
  /// Handles ready socket events, waiting up to `timeout_ms` for one.
  void Poll(int timeout_ms);
  void ReadReplies(Conn& conn);
  void Complete(Conn& conn, uint64_t index, int status, const char* body,
                size_t size, size_t wire_size);
  void FailConnection(Conn& conn);
  Conn& LeastLoaded();
  /// Drains outstanding replies; unanswered ones fail after `timeout_ms`.
  void Drain(int timeout_ms);
  PhaseStats Summarize(const std::string& name, uint64_t first,
                       int64_t start_ns, int64_t end_ns, bool open) const;

  int port_;
  Inputs* inputs_;
  Arena* responses_;
  Record* records_;
  size_t capacity_;
  int epoll_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  size_t rr_ = 0;
  uint64_t next_index_ = 0;
  uint64_t outstanding_ = 0;
  uint8_t phase_ = 0;
  /// Closed loop: refill a connection on completion until this time.
  bool closed_ = false;
  int64_t closed_until_ns_ = 0;
  uint64_t every_ = 0;
  std::function<void()> on_every_;
};

}  // namespace servebench

#endif  // SERVEBENCH_LOADGEN_H_
