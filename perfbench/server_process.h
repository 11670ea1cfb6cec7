#ifndef BOS_PERFBENCH_SERVER_PROCESS_H_
#define BOS_PERFBENCH_SERVER_PROCESS_H_

// bosd as a child process, observed from outside: its port comes from its
// own "listening on" line, and its CPU, IO and memory from /proc/<pid>.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace perfbench {

class ServerProcess {
 public:
  /// Starts `bosd` with `flags` (plus --port=0) and waits until it listens.
  static bos::Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& bosd, const std::vector<std::string>& flags);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// SIGTERM (bosd flushes every shard and exits), then waits for the
  /// process. Errors unless it exits 0. Idempotent.
  bos::Status Stop();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  ServerProcess(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}

  pid_t pid_;
  int out_fd_;
  uint16_t port_ = 0;
};

/// Counters of one process read from /proc/<pid>/{stat,io,status}.
struct ProcSnapshot {
  double user_s = 0;
  double sys_s = 0;
  uint64_t syscw = 0;        ///< write-family syscalls
  uint64_t write_bytes = 0;  ///< bytes sent to the storage layer
  double hwm_mb = 0;         ///< peak resident set (VmHWM)
};

bos::Result<ProcSnapshot> ReadProc(pid_t pid);

}  // namespace perfbench

#endif  // BOS_PERFBENCH_SERVER_PROCESS_H_
