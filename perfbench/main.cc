// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload serve_mix|drain_posix|ingest_mixed --seed N
//             --seconds S --trace 0|1 --workdir DIR
//
// Prints one line per metric and, last, the result as one JSON line. With
// --trace 0 the loop runs untraced for S seconds; with --trace 1 it runs
// S/2 untraced and S/2 traced, then replays the traced statements layer
// by layer (see probes.h) and writes the spans to DIR/trace-<workload>.json.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "workload.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_mix|drain_posix|ingest_mixed --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::string(value) == "1";
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  if (config.workdir.empty()) return Usage("--workdir is required");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(config.workdir, ec);
  if (ec) return Usage("cannot create --workdir");

  perfbench::Report report;
  msv::Status status;
  if (config.workload == "serve_mix") {
    status = perfbench::RunServeMix(config, &report);
  } else if (config.workload == "drain_posix") {
    status = perfbench::RunDrainPosix(config, &report);
  } else if (config.workload == "ingest_mixed") {
    status = perfbench::RunIngestMixed(config, &report);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  report.Print(config);
  return 0;
}
