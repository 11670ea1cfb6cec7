#ifndef BOS_PERFBENCH_WORKLOADS_H_
#define BOS_PERFBENCH_WORKLOADS_H_

// One bosd instance under one workload: set-up (start, preload, flush,
// warm-up), the timed window, and the final check of everything bosd
// acknowledged against the reference model.

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "server_process.h"

namespace perfbench {

/// What the timed window measured, from the client side.
struct WindowResult {
  double seconds = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< errors, refusals and wrong answers
  uint64_t ops = 0;     ///< completed requests counted by ops_per_s
  uint64_t all_ops = 0;  ///< every completed request, writer included
  uint64_t points_written = 0;
  uint64_t points_returned = 0;
  std::vector<double> op_ms;  ///< latency of the ops counted in `ops`
  std::vector<double> op_ms_traced;
  std::vector<double> op_ms_untraced;
  std::vector<double> write_ms;  ///< every append, from its due time
  std::vector<double> late_ms;   ///< how late the generators sent
  std::vector<double> slice_ops;  ///< `ops` completed in each second
};

class Session {
 public:
  /// Starts bosd on the fresh directory `dir` and runs the workload's
  /// set-up; the returned session is ready for RunWindow.
  static bos::Result<std::unique_ptr<Session>> Open(const Workload& workload,
                                                    const Dataset& dataset,
                                                    const std::string& bosd,
                                                    const std::string& dir,
                                                    uint64_t seed);
  ~Session();

  /// Runs the workload for `seconds`. With `trace`, every other request
  /// of each connection records a client span, so the traced and
  /// untraced latencies come from interleaved requests of one window.
  WindowResult RunWindow(double seconds, bool trace);

  /// Queries every series in full and compares it with the model of
  /// acknowledged points; returns the number of mismatching series.
  bos::Result<uint64_t> Verify();

  bos::Result<std::string> StatsJson() { return clients_[0].StatsJson(); }
  bos::Status StopServer() { return server_->Stop(); }
  pid_t server_pid() const { return server_->pid(); }

  /// Points bosd acknowledged, warm-up included.
  uint64_t points_stored() const;
  const std::vector<size_t>& acked() const { return acked_; }

 private:
  Session(const Workload& workload, const Dataset& dataset, uint64_t seed)
      : workload_(workload), dataset_(dataset), seed_(seed) {}

  bos::Status Preload();
  bos::Status Warm();

  const Workload& workload_;
  const Dataset& dataset_;
  uint64_t seed_;
  std::unique_ptr<ServerProcess> server_;
  std::vector<bos::net::BosClient> clients_;
  /// Model of acknowledged points: series s holds dataset.At(s, k) for
  /// every k < acked_[s].
  std::vector<size_t> acked_;
  uint64_t window_index_ = 0;
};

/// One query of the read workloads: `count` consecutive points of a
/// series starting at base index `first`.
struct QueryOp {
  size_t series = 0;
  size_t first = 0;
  size_t count = 0;
};

/// The model's answer to `op` (brute-force filter of the series).
std::vector<DataPoint> ExpectedAnswer(const Dataset& dataset,
                                      const Workload& workload,
                                      const QueryOp& op);

/// Sum of the sizes of every file under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // BOS_PERFBENCH_WORKLOADS_H_
