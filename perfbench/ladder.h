#ifndef BOS_PERFBENCH_LADDER_H_
#define BOS_PERFBENCH_LADDER_H_

// The layer ladder: times calls into each module's public functions, from
// bitpack up through core, codecs, storage and net, on the workload's own
// inputs, so the traced client latency can be split into per-layer self
// times. Each rung runs inside a BOS_TRACE_SPAN.

#include <string>
#include <vector>

#include "common.h"
#include "util/status.h"

namespace perfbench {

struct LadderInput {
  const Workload* workload = nullptr;
  const Dataset* dataset = nullptr;
  uint64_t seed = 0;
  /// Copy of bosd's shard-0 directory, taken after bosd shut down.
  std::string shard_dir;
  /// Private directory for the WAL and store write rungs.
  std::string scratch_dir;
  /// Points of each series bosd acknowledged (the model's lengths).
  std::vector<size_t> acked;
  /// Client p50 of the workload's ops in the traced slices.
  double traced_p50_ms = 0;
};

/// Appends the ladder's per-layer metrics to `out` and prints the ledger
/// (rung times and self times) to stderr.
bos::Status RunLadder(const LadderInput& in, std::vector<Metric>* out);

}  // namespace perfbench

#endif  // BOS_PERFBENCH_LADDER_H_
