// serve_mix: a closed loop of TCP connections against an in-process
// serve::Server over MemEnv.
//
// Per-request overheads dominate here: protocol, parse, planning and the
// first leaf. Every statement is fixed work on a 10%-wide day range, so a
// full drain is never reached. One connection per worker keeps both
// workers busy without a queue. In trials, more connections added only
// queue wait: with 6, the run-to-run range of read_p50_ms was three times
// as wide as with 2. Threads: the client thread (both connections on one
// poll loop), the server's I/O thread and its 2 workers make 4; the view's
// compactor thread exists but never has work, as nothing writes.

#include <poll.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workload.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kRows = 200000;
constexpr int kConnections = 2;
constexpr int kWorkers = 2;

std::vector<MixEntry> Mix() {
  const double width = kDayDomain / 10;
  return {{ReadKind::kEstimate256, width},
          {ReadKind::kEstimateWithin, width},
          {ReadKind::kSample100, width}};
}

struct Conn {
  std::unique_ptr<msv::serve::Client> client;
  bool busy = false;
  ReadStmt stmt;
  uint64_t id = 0;
  Clock::time_point sent;
  int64_t sent_ns = 0;
};

/// Drives `kConnections` pipelined connections for `seconds`; each sends
/// its next statement only after the previous answer arrived.
msv::Result<LoopStats> RunServeLoop(int port, ReadMix* mix,
                                    const Oracle& oracle, double seconds,
                                    SpanLog* log, Report* report) {
  std::vector<Conn> conns(kConnections);
  for (Conn& c : conns) {
    MSV_ASSIGN_OR_RETURN(c.client,
                         msv::serve::Client::Connect("127.0.0.1", port));
  }
  LoopStats stats;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  Clock::time_point last_answer = start;
  for (;;) {
    const bool sending = Clock::now() < deadline;
    std::vector<pollfd> fds;
    std::vector<Conn*> waiting;
    for (Conn& c : conns) {
      if (!c.busy && sending) {
        c.stmt = mix->Next();
        c.id = NextStatementId();
        c.sent = Clock::now();
        c.sent_ns = log != nullptr ? log->NowNs() : 0;
        ++stats.outcomes.attempted;
        if (!c.client->Send(c.id, c.stmt.text).ok()) {
          ++stats.outcomes.lost_connections;
          MSV_ASSIGN_OR_RETURN(c.client,
                               msv::serve::Client::Connect("127.0.0.1", port));
          continue;
        }
        c.busy = true;
      }
      if (c.busy) {
        fds.push_back(pollfd{c.client->fd(), POLLIN, 0});
        waiting.push_back(&c);
      }
    }
    if (waiting.empty()) break;
    if (::poll(fds.data(), fds.size(), 1000) < 0) {
      return msv::Status::IOError("poll failed");
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Conn& c = *waiting[i];
      c.busy = false;
      msv::Result<msv::obs::Json> doc = c.client->Read();
      const auto now = Clock::now();
      if (!doc.ok()) {
        ++stats.outcomes.lost_connections;
        MSV_ASSIGN_OR_RETURN(c.client,
                             msv::serve::Client::Connect("127.0.0.1", port));
        continue;
      }
      if (log != nullptr) {
        log->Record("stmt.read", c.id, 0, c.sent_ns, log->NowNs());
      }
      const msv::obs::Json* ok = doc->Find("ok");
      if (ok == nullptr || !ok->AsBool()) {
        const msv::obs::Json* error = doc->Find("error");
        const msv::obs::Json* kind =
            error != nullptr ? error->Find("kind") : nullptr;
        if (kind != nullptr && kind->AsString() == "overload") {
          ++stats.outcomes.overloads;
        } else {
          ++stats.outcomes.errors;
          report->CheckFailed(c.stmt.text + " -> " + doc->Dump());
        }
        continue;
      }
      last_answer = now;
      stats.read_ms.push_back(
          std::chrono::duration<double, std::milli>(now - c.sent).count());
      const msv::obs::Json* output = doc->Find("output");
      msv::Result<uint64_t> rows =
          output != nullptr
              ? CheckAnswer(c.stmt, output->AsString(), oracle, false)
              : msv::Result<uint64_t>(
                    msv::Status::Corruption("answer without output"));
      if (!rows.ok()) {
        report->CheckFailed(c.stmt.text + " -> " + rows.status().ToString());
        continue;
      }
      stats.rows += *rows;
      if (log != nullptr) stats.traced_reads.emplace_back(c.id, c.stmt);
    }
  }
  stats.elapsed_s = std::chrono::duration<double>(last_answer - start).count();
  return stats;
}

}  // namespace

msv::Status RunServeMix(const RunConfig& config, Report* report) {
  MSV_ASSIGN_OR_RETURN(
      std::unique_ptr<Database> db,
      SetUpDatabase([] { return msv::io::NewMemEnv(); }, kRows, config.seed,
                    ReadMix(config.seed ^ kWarmupSeed, Mix()).Take(30),
                    report));
  MSV_ASSIGN_OR_RETURN(Oracle oracle, Oracle::Scan(db->env.get(), kTableFile));

  msv::serve::ServerOptions options;
  options.workers = kWorkers;
  msv::serve::Server server(db->executor.get(), options);
  MSV_RETURN_IF_ERROR(server.Start());

  // The in-process warm-up does not touch the server's threads and
  // sockets; one untimed second over TCP does.
  ReadMix warm(config.seed ^ kWarmupSeed, Mix());
  MSV_RETURN_IF_ERROR(
      RunServeLoop(server.port(), &warm, oracle, 1.0, nullptr, report)
          .status());

  ReadMix mix(config.seed, Mix());
  SpanLog log;
  MSV_ASSIGN_OR_RETURN(
      LoopStats stats,
      RunMeasured(config, db->env.get(), &log,
                  [&](double seconds, SpanLog* span_log) {
                    return RunServeLoop(server.port(), &mix, oracle, seconds,
                                        span_log, report);
                  },
                  report));
  if (config.trace) {
    MSV_ASSIGN_OR_RETURN(auto view, OpenProbeView(db->env.get()));
    MSV_ASSIGN_OR_RETURN(auto client, msv::serve::Client::Connect(
                                          "127.0.0.1", server.port()));
    const ProbeTarget target{db->executor.get(), db->env.get(), &log,
                             view.get(), client.get()};
    MSV_RETURN_IF_ERROR(ProbeReads(target, stats.traced_reads,
                                   config.seconds / 2, 30, report));
    MSV_RETURN_IF_ERROR(
        log.WriteJson(config.workdir + "/trace-serve_mix.json"));
  }
  server.Stop();

  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  // Table rows plus view rows: every record the Env's files hold.
  MSV_ASSIGN_OR_RETURN(double amp, SpaceAmp(db->base.get(), 2 * kRows));
  report->Metric("space_amp", amp, "ratio");
  return msv::Status::OK();
}

}  // namespace perfbench
