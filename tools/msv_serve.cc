// msv_serve: the MSVQL network server, and a one-shot client for it.
//
// Server mode (default):
//
//   msv_serve --dir=/var/lib/msv --port=7437 --workers=8
//   msv_serve --mem --rows=1000000 --port=0         # demo: in-memory data
//
// opens the catalog in --dir (or generates --rows of SALE data in a
// private in-memory env with --mem), binds --host:--port and serves the
// length-prefixed JSON protocol (see src/serve/protocol.h) until SIGINT /
// SIGTERM. --metrics-file=PATH starts the metrics poller exporting
// JSON-lines snapshots — the file msv_top tails, and that `msv_top PATH
// --prom` renders as Prometheus text exposition.
//
// Client mode:
//
//   msv_serve --connect=127.0.0.1:7437 --query="ESTIMATE AVG(amount)
//       FROM sv WHERE day BETWEEN 1 AND 30000 WITHIN 2%;"
//
// sends one request and pretty-prints the response JSON.
//
// Environment defaults (flags win): MSV_SERVE_PORT, MSV_SERVE_WORKERS,
// MSV_SERVE_QUEUE, MSV_SLOW_QUERY_US (arms the slow-query log inside the
// executor).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "io/env.h"
#include "obs/log.h"
#include "obs/timeseries.h"
#include "query/executor.h"
#include "serve/client.h"
#include "serve/server.h"

namespace msv {
namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: msv_serve [--dir=PATH | --mem] [--host=ADDR] [--port=N]\n"
      "                 [--workers=N] [--queue=N] [--rows=N] [--seed=N]\n"
      "                 [--metrics-file=PATH]\n"
      "       msv_serve --connect=HOST:PORT --query=STATEMENT\n");
  return 2;
}

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

int RunClient(const std::string& target, const std::string& query) {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "msv_serve: --connect needs HOST:PORT\n");
    return 2;
  }
  const std::string host = target.substr(0, colon);
  const int port = std::atoi(target.c_str() + colon + 1);
  auto client = serve::Client::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "msv_serve: %s\n",
                 std::string(client.status().message()).c_str());
    return 1;
  }
  auto response = (*client)->Call(query);
  if (!response.ok()) {
    std::fprintf(stderr, "msv_serve: %s\n",
                 std::string(response.status().message()).c_str());
    return 1;
  }
  std::printf("%s\n", response->Dump(2).c_str());
  return 0;
}

int RunServer(const std::map<std::string, std::string>& flags) {
  auto flag = [&flags](const std::string& key,
                       const std::string& fallback) -> std::string {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  };

  std::unique_ptr<io::Env> env;
  const std::string dir = flag("dir", "");
  const bool mem = flags.count("mem") != 0;
  if (mem == !dir.empty()) {
    std::fprintf(stderr, "msv_serve: pass exactly one of --dir, --mem\n");
    return 2;
  }
  env = mem ? io::NewMemEnv() : io::NewPosixEnv(dir);

  auto executor = query::Executor::Open(env.get());
  if (!executor.ok()) {
    std::fprintf(stderr, "msv_serve: open: %s\n",
                 std::string(executor.status().message()).c_str());
    return 1;
  }

  if (mem) {  // demo data so a fresh server answers queries immediately
    const std::string rows = flag("rows", "1000000");
    const std::string seed = flag("seed", "42");
    auto bootstrap = (*executor)->Run(
        "GENERATE TABLE sale ROWS " + rows + " SEED " + seed +
        "; CREATE MATERIALIZED SAMPLE VIEW sv AS SELECT * FROM sale INDEX "
        "ON day;");
    if (!bootstrap.ok()) {
      std::fprintf(stderr, "msv_serve: bootstrap: %s\n",
                   std::string(bootstrap.status().message()).c_str());
      return 1;
    }
    std::printf("bootstrapped in-memory demo: %s rows, view sv ON day\n",
                rows.c_str());
  }

  serve::ServerOptions options;
  options.host = flag("host", "127.0.0.1");
  options.port = static_cast<int>(
      std::strtoul(flag("port", std::to_string(EnvOr("MSV_SERVE_PORT", 7437)))
                       .c_str(),
                   nullptr, 10));
  options.workers = static_cast<int>(std::strtoul(
      flag("workers", std::to_string(EnvOr("MSV_SERVE_WORKERS", 4))).c_str(),
      nullptr, 10));
  options.max_queue = std::strtoul(
      flag("queue", std::to_string(EnvOr("MSV_SERVE_QUEUE", 128))).c_str(),
      nullptr, 10);

  serve::Server server(executor->get(), options);
  Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "msv_serve: %s\n",
                 std::string(status.message()).c_str());
    return 1;
  }
  std::printf("msv_serve: listening on %s:%d (%d workers, queue %zu)\n",
              options.host.c_str(), server.port(), options.workers,
              options.max_queue);
  std::fflush(stdout);

  std::unique_ptr<obs::MetricsPoller> poller;
  const std::string metrics_file = flag("metrics-file", "");
  if (!metrics_file.empty()) {
    obs::MetricsPollerOptions poller_options;
    poller_options.export_path = metrics_file;
    poller = std::make_unique<obs::MetricsPoller>(poller_options);
    std::printf("msv_serve: exporting metrics to %s\n", metrics_file.c_str());
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) {
    struct timespec ts{0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  std::printf("msv_serve: shutting down\n");
  poller.reset();
  server.Stop();
  return 0;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return Usage();
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg] = "";
    } else {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  if (flags.count("help")) return Usage();
  if (flags.count("connect") || flags.count("query")) {
    if (!flags.count("connect") || !flags.count("query")) {
      std::fprintf(stderr,
                   "msv_serve: client mode needs both --connect and --query\n");
      return 2;
    }
    return RunClient(flags["connect"], flags["query"]);
  }
  return RunServer(flags);
}

}  // namespace
}  // namespace msv

int main(int argc, char** argv) { return msv::Main(argc, argv); }
