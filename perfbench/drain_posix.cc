// drain_posix: one in-process client draining ESTIMATEs to completion
// over a 1M-row view on PosixEnv, served from the page cache.
//
// The leaf path dominates here: read, CRC32C verify, decode, filter
// kernel, combine, the ViewSampler copy and aggregation; serve and parse
// are negligible. Threads: the client thread, plus the view's compactor,
// which never has work as nothing writes.

#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "probes.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr uint64_t kRows = 1000000;

/// Two 25% drains to one 2% drain: read latency is close to bimodal, and
/// an even split would put the median between the two modes.
std::vector<MixEntry> Mix() {
  return {{ReadKind::kDrain, kDayDomain / 4},
          {ReadKind::kDrain, kDayDomain / 50},
          {ReadKind::kDrain, kDayDomain / 4}};
}

msv::Status ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ec) return msv::Status::IOError("cannot remove " + dir);
  std::filesystem::create_directories(dir, ec);
  if (ec) return msv::Status::IOError("cannot create " + dir);
  return msv::Status::OK();
}

}  // namespace

msv::Status RunDrainPosix(const RunConfig& config, Report* report) {
  const std::string dir = config.workdir + "/drain_posix";
  auto new_env = [&]() -> msv::Result<std::unique_ptr<msv::io::Env>> {
    MSV_RETURN_IF_ERROR(ResetDir(dir));
    return msv::io::NewPosixEnv(dir);
  };
  MSV_ASSIGN_OR_RETURN(
      std::unique_ptr<Database> db,
      SetUpDatabase(new_env, kRows, config.seed,
                    ReadMix(config.seed ^ kWarmupSeed, Mix()).Take(2),
                    report));
  MSV_ASSIGN_OR_RETURN(Oracle oracle, Oracle::Scan(db->env.get(), kTableFile));

  ReadMix mix(config.seed, Mix());
  SpanLog log;
  MSV_ASSIGN_OR_RETURN(
      LoopStats stats,
      RunMeasured(config, db->env.get(), &log,
                  [&](double seconds, SpanLog* span_log) {
                    return RunReadLoop(db->executor.get(), &mix, oracle, false,
                                       seconds, span_log, report);
                  },
                  report));
  if (config.trace) {
    MSV_ASSIGN_OR_RETURN(auto view, OpenProbeView(db->env.get()));
    const ProbeTarget target{db->executor.get(), db->env.get(), &log,
                             view.get(), nullptr};
    // At least one drain of each selectivity.
    MSV_RETURN_IF_ERROR(ProbeReads(target, stats.traced_reads,
                                   config.seconds / 2, 2, report));
    MSV_RETURN_IF_ERROR(
        log.WriteJson(config.workdir + "/trace-drain_posix.json"));
  }

  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  MSV_ASSIGN_OR_RETURN(double amp, SpaceAmp(db->base.get(), 2 * kRows));
  report->Metric("space_amp", amp, "ratio");
  db.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // 200 MB of table and view
  return msv::Status::OK();
}

}  // namespace perfbench
