#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/log.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "util/logging.h"

namespace msv::serve {

namespace {

/// Per-connection staged-output ceiling; a reader this far behind is
/// dropped rather than buffered without bound.
constexpr size_t kMaxOutputBytes = size_t{4} << 20;

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t NowMs() { return NowUs() / 1000; }

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

/// Per-connection state. The I/O thread owns fd readiness and the
/// decoder; workers only touch the staged-output buffer (under out_mu)
/// and the flags. The fd is closed by the destructor, i.e. only once the
/// last reference (worker or connection table) is gone, so a late
/// StageResponse can never hit a recycled descriptor.
struct Server::Conn {
  Conn(uint64_t id_in, int fd_in) : id(id_in), fd(fd_in) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  const uint64_t id;
  const int fd;
  FrameDecoder decoder;          ///< I/O thread only
  uint64_t last_progress_ms = 0; ///< I/O thread only (stall sweep)

  /// Set by the I/O thread when the connection is dropped: workers stop
  /// staging into it.
  std::atomic<bool> dead{false};
  /// Set by StageResponse when the output buffer exceeds its ceiling;
  /// the I/O thread drops the connection at the next loop turn.
  std::atomic<bool> kill{false};

  Mutex out_mu;
  std::string out MSV_GUARDED_BY(out_mu);

  /// Reads the staged-output size (for poll interest).
  size_t pending() {
    MutexLock lock(out_mu);
    return out.size();
  }
};

Server::Server(query::Executor* executor, ServerOptions options)
    : executor_(executor), options_(std::move(options)) {
  auto& reg = obs::MetricRegistry::Global();
  accepted_ = reg.GetCounter("serve.connections_accepted");
  requests_ = reg.GetCounter("serve.requests");
  responses_ = reg.GetCounter("serve.responses");
  rejected_overload_ = reg.GetCounter("serve.rejected_overload");
  errors_parse_ = reg.GetCounter("serve.errors_parse");
  errors_exec_ = reg.GetCounter("serve.errors_exec");
  errors_protocol_ = reg.GetCounter("serve.errors_protocol");
  dropped_conns_ = reg.GetCounter("serve.connections_dropped");
  partial_results_ = reg.GetCounter("serve.partial_results");
  bytes_in_ = reg.GetCounter("serve.bytes_in");
  bytes_out_ = reg.GetCounter("serve.bytes_out");
  active_conns_ = reg.GetGauge("serve.connections_active");
  queue_depth_ = reg.GetGauge("serve.queue_depth");
  request_us_ = reg.GetHistogram("serve.request_us");
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load()) return Status::InvalidArgument("server already running");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind " + options_.host + ":" +
                 std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 1024) < 0) return Errno("listen");
  MSV_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  if (::pipe(wake_fds_) < 0) return Errno("pipe");
  MSV_RETURN_IF_ERROR(SetNonBlocking(wake_fds_[0]));
  MSV_RETURN_IF_ERROR(SetNonBlocking(wake_fds_[1]));

  running_.store(true);
  io_thread_ = std::thread([this] { IoLoop(); });
  const int workers = options_.workers > 0 ? options_.workers : 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  MSV_LOG(Info) << "msv_serve listening on " << options_.host << ":" << port_
                << " (" << workers << " workers, queue "
                << options_.max_queue << ")";
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false)) return;
  WakeIo();
  {
    MutexLock lock(queue_mu_);
  }
  queue_cv_.SignalAll();
  if (io_thread_.joinable()) io_thread_.join();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    // Discard requests that never started.
    MutexLock lock(queue_mu_);
    queue_.clear();
  }
  conns_.clear();
  active_conns_->Set(0);
  queue_depth_->Set(0);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void Server::WakeIo() {
  const char byte = 'w';
  // Best effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

void Server::IoLoop() {
  obs::SetThreadLabel("serve-io");
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Conn>> polled;
  while (running_.load(std::memory_order_relaxed)) {
    pfds.clear();
    polled.clear();
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    pfds.push_back({listen_fd_, POLLIN, 0});
    for (auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (conn->pending() > 0) events |= POLLOUT;
      pfds.push_back({conn->fd, events, 0});
      polled.push_back(conn);
    }

    const int rc = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/100);
    if (!running_.load(std::memory_order_relaxed)) break;
    if (rc < 0) {
      if (errno == EINTR) continue;
      MSV_LOG(Error) << "serve poll: " << std::strerror(errno);
      break;
    }

    if (pfds[0].revents & POLLIN) {
      char buf[256];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (pfds[1].revents & POLLIN) AcceptNew();

    for (size_t i = 0; i < polled.size(); ++i) {
      const auto& conn = polled[i];
      const short revents = pfds[i + 2].revents;
      if (conn->kill.load(std::memory_order_relaxed)) {
        DropConn(conn->id);
        continue;
      }
      if (revents & POLLOUT) {
        if (!FlushConn(conn)) {
          DropConn(conn->id);
          continue;
        }
      }
      if (revents & (POLLIN | POLLHUP | POLLERR)) ReadConn(conn);
    }
    // Staged output may have raced past the poll — flush opportunistically
    // so responses are not delayed by a full poll interval.
    for (const auto& conn : polled) {
      if (!conn->dead.load(std::memory_order_relaxed) && conn->pending() > 0) {
        if (!FlushConn(conn)) DropConn(conn->id);
      }
    }
    if (options_.stall_timeout_ms > 0) SweepStalled(NowMs());
  }
  // Shutdown: drop every connection (sends FIN once refs drain).
  while (!conns_.empty()) DropConn(conns_.begin()->first);
}

void Server::AcceptNew() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      // EMFILE/ENFILE under churn: log (rate-limited) and carry on.
      MSV_LOG(Warn) << "serve accept: " << std::strerror(errno);
      return;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_shared<Conn>(id, fd);
    conn->last_progress_ms = NowMs();
    conns_.emplace(id, std::move(conn));
    accepted_->Add();
    active_conns_->Set(static_cast<double>(conns_.size()));
  }
}

void Server::ReadConn(const std::shared_ptr<Conn>& conn) {
  char buf[64 << 10];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      bytes_in_->Add(static_cast<uint64_t>(n));
      conn->decoder.Feed(buf, static_cast<size_t>(n));
      conn->last_progress_ms = NowMs();
      std::string payload;
      for (;;) {
        const auto outcome = conn->decoder.Next(&payload);
        if (outcome == FrameDecoder::Outcome::kNeedMore) break;
        if (outcome == FrameDecoder::Outcome::kTooLarge) {
          errors_protocol_->Add();
          StageResponse(conn,
                        EncodeErrorResponse(Request{}, ErrorKind::kProtocol,
                                            "frame exceeds " +
                                                std::to_string(kMaxFrameBytes) +
                                                " bytes"));
          FlushConn(conn);
          DropConn(conn->id);
          return;
        }
        requests_->Add();
        auto request = ParseRequest(payload);
        if (!request.ok()) {
          errors_protocol_->Add();
          StageResponse(conn,
                        EncodeErrorResponse(Request{}, ErrorKind::kProtocol,
                                            std::string(request.status().message())));
          continue;
        }
        bool admitted = false;
        {
          MutexLock lock(queue_mu_);
          if (queue_.size() < options_.max_queue) {
            queue_.push_back(Work{conn, std::move(*request)});
            queue_depth_->Set(static_cast<double>(queue_.size()));
            admitted = true;
          }
        }
        if (admitted) {
          queue_cv_.Signal();
        } else {
          rejected_overload_->Add();
          StageResponse(conn,
                        EncodeErrorResponse(*request, ErrorKind::kOverload,
                                            "admission queue full; retry"));
        }
      }
      continue;
    }
    if (n == 0) {  // EOF: client closed (possibly mid-frame)
      DropConn(conn->id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    DropConn(conn->id);
    return;
  }
}

bool Server::FlushConn(const std::shared_ptr<Conn>& conn) {
  MutexLock lock(conn->out_mu);
  while (!conn->out.empty()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data(), conn->out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes_out_->Add(static_cast<uint64_t>(n));
      conn->out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;  // EPIPE/ECONNRESET: reader gone
  }
  return true;
}

void Server::DropConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  it->second->dead.store(true, std::memory_order_relaxed);
  // Send FIN now; the fd itself is closed when the last reference drops,
  // so in-flight worker responses land on a dead-but-unrecycled socket.
  ::shutdown(it->second->fd, SHUT_RDWR);
  conns_.erase(it);
  dropped_conns_->Add();
  active_conns_->Set(static_cast<double>(conns_.size()));
}

void Server::SweepStalled(uint64_t now_ms) {
  std::vector<uint64_t> stalled;
  for (const auto& [id, conn] : conns_) {
    if (conn->decoder.mid_frame() &&
        now_ms - conn->last_progress_ms > options_.stall_timeout_ms) {
      stalled.push_back(id);
    }
  }
  for (uint64_t id : stalled) {
    MSV_LOG(Warn) << "serve: dropping stalled connection " << id
                  << " (mid-frame for > " << options_.stall_timeout_ms
                  << " ms)";
    DropConn(id);
  }
}

void Server::WorkerLoop(int index) {
  obs::SetThreadLabel("serve-worker-" + std::to_string(index));
  for (;;) {
    Work work;
    {
      MutexLock lock(queue_mu_);
      while (running_.load(std::memory_order_relaxed) && queue_.empty()) {
        queue_cv_.Wait(queue_mu_);
      }
      if (!running_.load(std::memory_order_relaxed)) return;
      work = std::move(queue_.front());
      queue_.erase(queue_.begin());
      queue_depth_->Set(static_cast<double>(queue_.size()));
    }
    if (work.conn->dead.load(std::memory_order_relaxed)) continue;
    obs::SetThreadLabel("serve-conn-" + std::to_string(work.conn->id));
    const std::string payload = Process(work.request);
    obs::SetThreadLabel("serve-worker-" + std::to_string(index));
    StageResponse(work.conn, payload);
  }
}

std::string Server::Process(const Request& request) {
  const uint64_t start_us = NowUs();
  auto statements = query::Parse(request.statement);
  if (!statements.ok()) {
    errors_parse_->Add();
    return EncodeErrorResponse(request, ErrorKind::kParse,
                               std::string(statements.status().message()));
  }
  std::string output;
  obs::StatementLedger result_ledger;
  for (const auto& statement : *statements) {
    auto result = executor_->Execute(statement);
    if (!result.ok()) {
      errors_exec_->Add();
      return EncodeErrorResponse(request, ErrorKind::kExec,
                                 std::string(result.status().message()));
    }
    output += *result;
    const obs::StatementLedger& ledger = obs::ThreadStatementLedger();
    if (ledger.has_estimate) result_ledger = ledger;
  }
  if (result_ledger.is_partial) partial_results_->Add();
  const uint64_t elapsed_us = NowUs() - start_us;
  request_us_->Record(elapsed_us);
  responses_->Add();
  return EncodeResultResponse(request, output, result_ledger, elapsed_us);
}

void Server::StageResponse(const std::shared_ptr<Conn>& conn,
                           const std::string& payload) {
  {
    MutexLock lock(conn->out_mu);
    if (conn->dead.load(std::memory_order_relaxed)) return;
    conn->out += EncodeFrame(payload);
    if (conn->out.size() > kMaxOutputBytes) {
      conn->kill.store(true, std::memory_order_relaxed);
    }
  }
  WakeIo();
}

}  // namespace msv::serve
