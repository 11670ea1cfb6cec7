#ifndef BOS_PERFBENCH_COMMON_H_
#define BOS_PERFBENCH_COMMON_H_

// Shared definitions of the service benchmark: the workload table, the
// seeded dataset every workload draws from, and small statistics helpers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "codecs/timeseries.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using bos::codecs::DataPoint;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// bosd topology, fixed for every workload so runs stay comparable.
inline constexpr size_t kShards = 4;
inline constexpr size_t kServerThreads = 4;
inline constexpr size_t kConnections = 4;  // nproc on the reference box
inline constexpr size_t kSeries = 64;      // 16 per shard
inline constexpr size_t kPointsPerSeries = 131072;
inline constexpr size_t kPagePoints = 1024;  // StoreOptions::page_size
inline constexpr size_t kAppendBatch = 1024;
inline constexpr size_t kPreloadBatch = 8192;

// "Above the normal band" of the CS-Sensors profile: its level wanders
// around 2000 and its upper spikes add 1000..4000.
inline constexpr int64_t kOutlierMin = 3000;
inline constexpr int64_t kOutlierMax = int64_t{1} << 40;

/// One traffic mix. Every workload uses kConnections client connections
/// against `bosd --shards=4 --threads=4`.
struct Workload {
  const char* name;
  size_t cache_mb;          ///< bosd --cache-mb (per shard)
  bool preload;             ///< load, flush and warm the dataset in set-up
  size_t closed_loop;       ///< closed-loop connections
  bool closed_loop_append;  ///< they append (else they query)
  size_t window_pages;      ///< query window width in pages
  bool value_filter;        ///< QueryValueRange outlier queries
  double writer_rate;       ///< open-loop writer batches/s (0 = none)
  size_t writer_batch;      ///< points per open-loop batch

  /// Whether the workload's queries return `p` (the model's filter).
  bool Keeps(const DataPoint& p) const {
    return !value_filter || (p.value >= kOutlierMin && p.value <= kOutlierMax);
  }
};

const Workload* FindWorkload(const std::string& name);

/// The seeded input: kSeries CS-Sensors series with jittered timestamps,
/// named so that exactly 16 land on each bosd shard (series j lives on
/// shard j % kShards). Point k of a series is defined for every k: past
/// kPointsPerSeries the base values repeat with shifted timestamps, so
/// ingest can run for as long as it is timed.
struct Dataset {
  std::vector<std::string> names;
  std::vector<std::vector<DataPoint>> base;
  int64_t wrap_shift = 0;  ///< timestamp shift per pass over `base`

  DataPoint At(size_t series, size_t k) const {
    const std::vector<DataPoint>& b = base[series];
    DataPoint p = b[k % b.size()];
    p.timestamp += static_cast<int64_t>(k / b.size()) * wrap_shift;
    return p;
  }

  /// Points [first, first + n) of `series`, as one append batch.
  std::vector<DataPoint> Points(size_t series, size_t first, size_t n) const {
    std::vector<DataPoint> points(n);
    for (size_t i = 0; i < n; ++i) points[i] = At(series, first + i);
    return points;
  }
};

Dataset MakeDataset(uint64_t seed);

/// splitmix64: every seed, including 0, gives a full-period stream.
inline uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// One reported metric; the JSON result maps `name` to value and unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
inline double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const size_t rank = std::min(
      v->size() - 1, static_cast<size_t>(q * static_cast<double>(v->size())));
  return (*v)[rank];
}

inline double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace perfbench

#endif  // BOS_PERFBENCH_COMMON_H_
