// Simulated rotating-disk cost model.
//
// The paper's evaluation ran on 15,000 RPM SCSI disks and reports elapsed
// time normalized to the time required to scan the whole relation. To
// reproduce those curve shapes on arbitrary hardware, every file access in
// a benchmark is routed through a DiskDevice that charges modeled time:
//
//   * a discontiguous access pays average seek + rotational latency, then
//     transfer time proportional to length;
//   * an access starting exactly where the previous one ended pays transfer
//     time only (sequential I/O).
//
// Through a SimEnv, every Read, Write and Append that moves bytes is one
// access; a File::ReadBatch of k requests is k accesses, each judged
// against the head position the previous one left. Nothing coalesces
// requests below the caller.
//
// Time accumulates on a SimClock owned by the device; benchmark harnesses
// read it between sampling steps. Accesses to *different* files on the same
// device also interfere (the head moves), which is what penalizes the
// one-record-per-random-I/O behaviour of ranked B+-Tree sampling.
//
// Concurrency: a DiskDevice models ONE disk arm, so concurrent accesses
// are serialized under an internal mutex — exactly the physical model.
// Each request observes the head position left by whichever request the
// arm served last (any thread), pays seek/rotation accordingly, and
// advances the shared clock. The clock itself is lock-free so samplers
// and harness threads can poll NowMs() without touching the arm lock.

#ifndef MSV_IO_DISK_MODEL_H_
#define MSV_IO_DISK_MODEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "io/env.h"
#include "obs/metrics.h"
#include "util/sync.h"

namespace msv::io {

/// Tunable physical parameters. Defaults approximate the paper's 15k-RPM
/// SCSI drives.
struct DiskModelOptions {
  /// Average head-seek time for a discontiguous access, in milliseconds.
  double seek_ms = 3.5;
  /// Average rotational latency in milliseconds (half a revolution;
  /// 15,000 RPM -> 4 ms/rev -> 2 ms average).
  double rotational_ms = 2.0;
  /// Effective sustained scan rate in MB/s. The paper reports 15 s as
  /// "approximately 4%" of the 20 GB relation scan, implying ~53 MB/s
  /// through the query engine; 50 MB/s is also a typical 2005-era rate.
  double transfer_mb_per_s = 50.0;
  /// Fixed per-request overhead (controller/command), in milliseconds.
  double request_overhead_ms = 0.1;

  Status Validate() const;
};

/// Monotone simulated clock, in milliseconds. Thread-safe: AdvanceMs() is
/// a CAS loop (callers may advance concurrently with the device arm) and
/// NowMs() is a relaxed load, so progress polling never blocks I/O.
class SimClock {
 public:
  double NowMs() const { return now_ms_.load(std::memory_order_relaxed); }
  void AdvanceMs(double ms) {
    double cur = now_ms_.load(std::memory_order_relaxed);
    while (!now_ms_.compare_exchange_weak(cur, cur + ms,
                                          std::memory_order_relaxed)) {
    }
  }
  void Reset() { now_ms_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> now_ms_{0.0};
};

/// Aggregate I/O counters for a device, totals since construction;
/// operator- turns two snapshots into the window between them.
struct DiskStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_bytes = 0;
  uint64_t written_bytes = 0;
  uint64_t seeks = 0;           ///< discontiguous accesses (paid seek+rot)
  uint64_t sequential_ios = 0;  ///< contiguous accesses (transfer only)
  /// Total modeled device-busy time in integer microseconds. Accumulated
  /// per access with the same rounding as the io.disk.busy_us registry
  /// counter, so struct totals and traced span deltas compare exactly.
  uint64_t busy_us = 0;

  DiskStats operator-(const DiskStats& b) const {
    return DiskStats{reads - b.reads,
                     writes - b.writes,
                     read_bytes - b.read_bytes,
                     written_bytes - b.written_bytes,
                     seeks - b.seeks,
                     sequential_ios - b.sequential_ios,
                     busy_us - b.busy_us};
  }
};

/// One simulated disk: a clock, a head position, and stats. Every file
/// opened through a SimEnv bound to this device charges time here.
///
/// Every access is also published to the process-wide metric registry
/// (io.disk.* counters, io.disk.access_us histogram), which is what the
/// tracer and the exporters read.
///
/// Thread-safe: Access() serializes on the arm mutex (see file comment),
/// and the stats accessors snapshot under the same mutex.
class DiskDevice {
 public:
  explicit DiskDevice(DiskModelOptions options = {});

  /// Charges the model cost of an access of `len` bytes at absolute device
  /// position `pos` and advances the head. Safe from any thread; requests
  /// racing for the arm are served in lock-acquisition order.
  void Access(uint64_t pos, uint64_t len, bool is_write);

  /// Model time to read `bytes` sequentially from a cold start; the
  /// normalization denominator for all paper figures.
  double SequentialScanMs(uint64_t bytes) const;

  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }
  /// Counters since device construction; never reset. A caller that
  /// wants one window subtracts two snapshots (`after - before`).
  /// Consistent snapshot under the arm lock.
  DiskStats stats() const;
  const DiskModelOptions& options() const { return options_; }

 private:
  DiskModelOptions options_;
  SimClock clock_;

  /// The arm lock: serializes Access() and guards head/stat state below.
  mutable Mutex mu_;
  DiskStats totals_ MSV_GUARDED_BY(mu_);
  uint64_t head_pos_ MSV_GUARDED_BY(mu_) = 0;
  bool head_valid_ MSV_GUARDED_BY(mu_) = false;

  // Registry series shared by every DiskDevice (process-wide totals).
  obs::Counter* c_reads_;
  obs::Counter* c_writes_;
  obs::Counter* c_read_bytes_;
  obs::Counter* c_written_bytes_;
  obs::Counter* c_seeks_;
  obs::Counter* c_sequential_;
  obs::Counter* c_busy_us_;
  obs::LogHistogram* h_access_us_;
  obs::Gauge* g_clock_ms_;
};

/// Modeled disk-busy microseconds charged by accesses issued from the
/// CALLING thread, across all DiskDevices, since thread start. Every
/// access is attributed to exactly one thread, so per-query deltas taken
/// around a thread's own I/O sum exactly to the devices' busy_us even
/// when other threads are hammering the same arm — the race-free
/// replacement for delta-ing the global io.disk.busy_us counter.
uint64_t ThreadDiskBusyUs();

/// An Env decorator: files opened through it behave exactly like the inner
/// Env's files but charge time on the given device. Each distinct file is
/// assigned a disjoint region of the simulated platter so that interleaved
/// access to two files produces seeks, as on a real disk.
std::unique_ptr<Env> NewSimEnv(Env* inner, std::shared_ptr<DiskDevice> device);

}  // namespace msv::io

#endif  // MSV_IO_DISK_MODEL_H_
