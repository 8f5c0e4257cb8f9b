// TCP front end over the MSVQL executor.
//
// Thread model — single-writer event loop plus a worker pool:
//
//   * One I/O thread owns every socket: it accepts, reads nonblocking
//     bytes into per-connection frame decoders, parses complete frames
//     into requests, and performs every write (responses are staged into
//     per-connection output buffers and flushed under POLLOUT). Because
//     only this thread touches fds, there is no close/reuse race and no
//     worker ever blocks on a slow client.
//
//   * N worker threads pop admitted requests from a bounded queue and run
//     them against the shared query::Executor (whose reader/writer
//     statement lock provides the actual query concurrency), then stage
//     the response and wake the I/O thread through its self-pipe.
//
// Admission control: the queue is bounded (ServerOptions::max_queue).
// When it is full the I/O thread answers immediately with a typed
// "overload" error instead of queueing — clients see backpressure as a
// distinct, retryable failure rather than as latency. Malformed JSON is
// a "protocol" error, MSVQL that does not parse is a "parse" error, and
// a statement failing mid-script is an "exec" error; all four are
// counted separately under serve.*.
//
// Robustness: oversized frames and ballooning output buffers drop the
// connection; connections parked mid-frame (slow loris) are swept after
// stall_timeout_ms. A dropped connection's in-flight responses are
// discarded harmlessly — the fd stays open (refcounted) until the last
// worker reference drains, so the kernel cannot recycle the descriptor
// under a concurrent stage.

#ifndef MSV_SERVE_SERVER_H_
#define MSV_SERVE_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "query/executor.h"
#include "serve/protocol.h"
#include "util/result.h"
#include "util/sync.h"

namespace msv::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; read the bound port from port()
  int workers = 4;
  size_t max_queue = 128;  ///< admitted-but-unserved request bound
  /// Connections holding a partial frame with no progress for this long
  /// are closed (slow-loris sweep). 0 disables.
  uint64_t stall_timeout_ms = 10000;
};

class Server {
 public:
  /// `executor` must outlive the server; the server adds no locking of
  /// its own around it (Execute is thread-safe).
  Server(query::Executor* executor, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the I/O + worker threads.
  Status Start();

  /// Stops accepting, closes every connection, joins all threads.
  /// Queued-but-unstarted requests are discarded. Idempotent.
  void Stop();

  /// The bound port (valid after Start(); useful with port 0).
  int port() const { return port_; }

 private:
  struct Conn;
  struct Work {
    std::shared_ptr<Conn> conn;
    Request request;
  };

  void IoLoop();
  void WorkerLoop(int index);

  /// Runs one request against the executor; returns the response payload.
  std::string Process(const Request& request);

  /// Stages `payload` as a frame on `conn` and wakes the I/O thread.
  void StageResponse(const std::shared_ptr<Conn>& conn,
                     const std::string& payload);

  /// I/O-thread helpers.
  void AcceptNew();
  void ReadConn(const std::shared_ptr<Conn>& conn);
  bool FlushConn(const std::shared_ptr<Conn>& conn);
  void DropConn(uint64_t conn_id);
  void SweepStalled(uint64_t now_ms);
  void WakeIo();

  query::Executor* executor_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: [0] polled, [1] written

  std::atomic<bool> running_{false};
  std::thread io_thread_;
  std::vector<std::thread> workers_;

  /// Connection table — I/O thread only (no lock needed): fd lifetime is
  /// managed by shared_ptr so workers finishing late write into an open,
  /// if dead, socket instead of a recycled descriptor.
  std::map<uint64_t, std::shared_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;

  Mutex queue_mu_;
  CondVar queue_cv_;
  std::vector<Work> queue_ MSV_GUARDED_BY(queue_mu_);

  /// serve.* metrics, resolved once at construction.
  obs::Counter* accepted_;
  obs::Counter* requests_;
  obs::Counter* responses_;
  obs::Counter* rejected_overload_;
  obs::Counter* errors_parse_;
  obs::Counter* errors_exec_;
  obs::Counter* errors_protocol_;
  obs::Counter* dropped_conns_;
  obs::Counter* partial_results_;
  obs::Counter* bytes_in_;
  obs::Counter* bytes_out_;
  obs::Gauge* active_conns_;
  obs::Gauge* queue_depth_;
  obs::LogHistogram* request_us_;
};

}  // namespace msv::serve

#endif  // MSV_SERVE_SERVER_H_
