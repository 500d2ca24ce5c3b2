#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "net/wire.h"

namespace servebench {
namespace {

namespace wire = dssddi::net::wire;

constexpr size_t kFifoSlots = 1 << 14;
constexpr int kDrainTimeoutMs = 15000;

bool HeaderIs(const char* line, size_t size, const char* name) {
  const size_t n = std::strlen(name);
  if (size < n) return false;
  for (size_t i = 0; i < n; ++i) {
    const char c = line[i];
    const char lower = (c >= 'A' && c <= 'Z') ? static_cast<char>(c + 32) : c;
    if (lower != name[i]) return false;
  }
  return true;
}

}  // namespace

struct LoadGenerator::Conn {
  int fd = -1;
  uint8_t id = 0;
  bool dead = false;
  bool want_write = false;
  uint64_t outstanding = 0;
  std::string in;
  size_t in_pos = 0;
  std::string out_pending;
  /// HTTP replies arrive in request order: the request indices waiting.
  std::vector<uint64_t> fifo = std::vector<uint64_t>(kFifoSlots);
  size_t fifo_head = 0;
  size_t fifo_size = 0;
};

LoadGenerator::LoadGenerator(int port, Inputs* inputs, Arena* responses,
                             Record* records, size_t capacity)
    : port_(port),
      inputs_(inputs),
      responses_(responses),
      records_(records),
      capacity_(capacity) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("loadgen: epoll setup failed");
}

LoadGenerator::~LoadGenerator() {
  CloseAll();
  ::close(epoll_fd_);
}

void LoadGenerator::Connect(int count) {
  CloseAll();
  for (int i = 0; i < count; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->id = static_cast<uint8_t>(i);
    conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (conn->fd < 0 ||
        ::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("loadgen: connect failed: " +
                               std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = static_cast<uint64_t>(i);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &event);
    conns_.push_back(std::move(conn));
  }
  rr_ = 0;
}

void LoadGenerator::CloseAll() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);  // close also leaves the epoll set
  }
  conns_.clear();
}

void LoadGenerator::Send(Conn& conn, uint64_t index, int64_t intended_ns) {
  if (index >= capacity_) throw std::runtime_error("loadgen: record capacity");
  Record& record = records_[index];
  record = Record{};
  record.intended_ns = intended_ns;
  record.phase = phase_;
  record.connection = conn.id;
  if (every_ > 0 && index > 0 && index % every_ == 0) on_every_();
  const Inputs::Request request = inputs_->Prepare(index);
  record.sent_ns = NowNs();
  if (conn.dead) {
    record.status = -1;
    record.done_ns = record.sent_ns;
    return;
  }
  if (inputs_->spec().codec == Codec::kJson) {
    if (conn.fifo_size == kFifoSlots) {
      throw std::runtime_error("loadgen: pipeline ring full");
    }
    conn.fifo[(conn.fifo_head + conn.fifo_size) % kFifoSlots] = index;
    ++conn.fifo_size;
  }
  ++conn.outstanding;
  ++outstanding_;
  size_t written = 0;
  if (conn.out_pending.empty()) {
    const ssize_t n =
        ::send(conn.fd, request.bytes, request.size, MSG_NOSIGNAL);
    if (n > 0) written = static_cast<size_t>(n);
  }
  if (written < request.size) {
    conn.out_pending.append(request.bytes + written, request.size - written);
    if (!conn.want_write) {
      conn.want_write = true;
      epoll_event event{};
      event.events = EPOLLIN | EPOLLOUT;
      event.data.u64 = conn.id;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
    }
  }
}

void LoadGenerator::Flush(Conn& conn) {
  while (!conn.out_pending.empty()) {
    const ssize_t n = ::send(conn.fd, conn.out_pending.data(),
                             conn.out_pending.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) return;
      FailConnection(conn);
      return;
    }
    conn.out_pending.erase(0, static_cast<size_t>(n));
  }
  conn.want_write = false;
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
}

void LoadGenerator::Poll(int timeout_ms) {
  epoll_event events[64];
  const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  for (int i = 0; i < n; ++i) {
    const size_t slot = static_cast<size_t>(events[i].data.u64);
    if (slot >= conns_.size()) continue;
    Conn& conn = *conns_[slot];
    if (conn.dead) continue;
    if (events[i].events & EPOLLOUT) Flush(conn);
    if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) ReadReplies(conn);
  }
}

void LoadGenerator::ReadReplies(Conn& conn) {
  char buffer[65536];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn.in.append(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n == 0 || (errno != EAGAIN && errno != EINTR)) eof = true;
    if (n < 0 && errno == EINTR) continue;
    break;
  }

  const bool json = inputs_->spec().codec == Codec::kJson;
  for (;;) {
    const char* data = conn.in.data() + conn.in_pos;
    const size_t avail = conn.in.size() - conn.in_pos;
    if (avail == 0) break;
    if (json) {
      const void* end = ::memmem(data, avail, "\r\n\r\n", 4);
      if (end == nullptr) break;
      const size_t header_size =
          static_cast<size_t>(static_cast<const char*>(end) - data) + 4;
      if (avail < 12 || std::memcmp(data, "HTTP/1.1 ", 9) != 0) {
        FailConnection(conn);
        return;
      }
      const int status = std::atoi(data + 9);
      size_t content_length = 0;
      const char* line = static_cast<const char*>(std::memchr(data, '\n', header_size));
      while (line != nullptr && line + 1 < data + header_size) {
        const char* start = line + 1;
        const char* next = static_cast<const char*>(
            std::memchr(start, '\n', static_cast<size_t>(data + header_size - start)));
        const size_t size = next ? static_cast<size_t>(next - start) : 0;
        if (HeaderIs(start, size, "content-length:")) {
          content_length = std::strtoull(start + 15, nullptr, 10);
        }
        line = next;
      }
      if (avail < header_size + content_length) break;
      if (conn.fifo_size == 0) {
        FailConnection(conn);
        return;
      }
      const uint64_t index = conn.fifo[conn.fifo_head];
      conn.fifo_head = (conn.fifo_head + 1) % kFifoSlots;
      --conn.fifo_size;
      conn.in_pos += header_size + content_length;
      Complete(conn, index, status, data + header_size, content_length,
               header_size + content_length);
    } else {
      wire::FrameView view;
      std::string error;
      const wire::ExtractResult result =
          wire::ExtractFrame(data, avail, 1 << 20, &view, &error);
      if (result == wire::ExtractResult::kNeedMore) break;
      const uint64_t index = view.request_id - 1;
      if (result == wire::ExtractResult::kError || view.request_id == 0 ||
          index >= next_index_ || records_[index].done_ns != 0 ||
          records_[index].connection != conn.id) {
        FailConnection(conn);
        return;
      }
      int status = 200;
      if (view.type != wire::FrameType::kSuggestResponse) {
        wire::ErrorFrame frame;
        status = wire::DecodeError(std::string(data, view.frame_bytes), &frame,
                                   &error)
                     ? static_cast<int>(frame.status)
                     : 500;
      }
      conn.in_pos += view.frame_bytes;
      Complete(conn, index, status, data, view.frame_bytes, view.frame_bytes);
    }
  }
  if (conn.in_pos == conn.in.size()) {
    conn.in.clear();
    conn.in_pos = 0;
  } else if (conn.in_pos > (1 << 16)) {
    conn.in.erase(0, conn.in_pos);
    conn.in_pos = 0;
  }
  if (eof) FailConnection(conn);
}

void LoadGenerator::Complete(Conn& conn, uint64_t index, int status,
                             const char* body, size_t size, size_t wire_size) {
  Record& record = records_[index];
  record.done_ns = NowNs();
  record.status = static_cast<int16_t>(status);
  record.response = responses_->Store(body, size);
  record.response_size = static_cast<uint32_t>(size);
  record.wire_size = static_cast<uint32_t>(wire_size);
  --conn.outstanding;
  --outstanding_;
  if (closed_ && record.done_ns < closed_until_ns_) {
    Send(conn, next_index_++, NowNs());
  }
}

void LoadGenerator::FailConnection(Conn& conn) {
  if (conn.dead) return;
  conn.dead = true;
  const int64_t now = NowNs();
  for (uint64_t i = 0; i < next_index_; ++i) {
    Record& record = records_[i];
    if (record.phase == phase_ && record.connection == conn.id &&
        record.done_ns == 0) {
      record.done_ns = now;
      record.status = -1;
      --outstanding_;
    }
  }
  conn.outstanding = 0;
  conn.fifo_size = 0;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
}

LoadGenerator::Conn& LoadGenerator::LeastLoaded() {
  Conn* best = nullptr;
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& conn = *conns_[(rr_ + i) % conns_.size()];
    if (conn.dead) continue;
    if (best == nullptr || conn.outstanding < best->outstanding) best = &conn;
  }
  rr_ = (rr_ + 1) % conns_.size();
  return best != nullptr ? *best : *conns_[0];
}

void LoadGenerator::Drain(int timeout_ms) {
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
  while (outstanding_ > 0 && NowNs() < deadline) Poll(20);
  if (outstanding_ == 0) return;
  const int64_t now = NowNs();
  for (uint64_t i = 0; i < next_index_; ++i) {
    Record& record = records_[i];
    if (record.phase == phase_ && record.done_ns == 0) {
      record.done_ns = now;
      record.status = -1;
    }
  }
  outstanding_ = 0;
}

PhaseStats LoadGenerator::RunClosed(const std::string& name, int connections,
                                    int depth, double seconds) {
  ++phase_;
  Connect(connections);
  const uint64_t first = next_index_;
  const int64_t start = NowNs();
  closed_ = true;
  closed_until_ns_ = start + static_cast<int64_t>(seconds * 1e9);
  for (auto& conn : conns_) {
    for (int d = 0; d < depth; ++d) Send(*conn, next_index_++, NowNs());
  }
  for (int64_t now = NowNs(); now < closed_until_ns_; now = NowNs()) {
    const int64_t left_ms = (closed_until_ns_ - now) / 1000000;
    Poll(static_cast<int>(std::min<int64_t>(left_ms + 1, 50)));
  }
  closed_ = false;
  Drain(kDrainTimeoutMs);
  CloseAll();
  return Summarize(name, first, start, closed_until_ns_, false);
}

PhaseStats LoadGenerator::RunOpen(const std::string& name, int connections,
                                  double rate, double seconds) {
  ++phase_;
  Connect(connections);
  const uint64_t first = next_index_;
  const uint64_t total = static_cast<uint64_t>(std::llround(rate * seconds));
  const double interval_ns = 1e9 / rate;
  const int64_t start = NowNs() + 2000000;
  auto due = [&](uint64_t i) {
    return start + static_cast<int64_t>(std::llround(static_cast<double>(i) * interval_ns));
  };
  uint64_t sent = 0;
  while (sent < total) {
    Poll(0);
    for (int64_t now = NowNs(); sent < total && due(sent) <= now; now = NowNs()) {
      Send(LeastLoaded(), next_index_++, due(sent));
      ++sent;
    }
  }
  const int64_t end = due(total);
  Drain(kDrainTimeoutMs);
  CloseAll();
  return Summarize(name, first, start, end, true);
}

PhaseStats LoadGenerator::Summarize(const std::string& name, uint64_t first,
                                    int64_t start_ns, int64_t end_ns,
                                    bool open) const {
  PhaseStats stats;
  stats.name = name;
  stats.start_ns = start_ns;
  stats.end_ns = end_ns;
  stats.first = first;
  stats.end = next_index_;
  std::vector<double> late;
  for (uint64_t i = first; i < next_index_; ++i) {
    const Record& record = records_[i];
    ++stats.attempted;
    stats.request_bytes += inputs_->SizeOf(i);
    if (record.status != 200) {
      ++stats.failed;
      ++stats.failed_by_status[record.status];
      continue;
    }
    stats.response_bytes += record.wire_size;
    if (record.done_ns < end_ns) ++stats.completed_in_window;
    if (open) late.push_back(NsToMs(record.sent_ns - record.intended_ns));
  }
  if (open && !late.empty()) {
    stats.late_p50_ms = Quantile(late, 0.5);
    stats.late_p99_ms = Quantile(late, 0.99);
    stats.late_max_ms = late.back();
  }
  return stats;
}

}  // namespace servebench
