#include "workloads.h"

#include <array>
#include <filesystem>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "bitpack/varint.h"
#include "data/dataset.h"
#include "net/wire.h"
#include "telemetry/trace.h"
#include "util/macros.h"

namespace perfbench {

namespace {

using bos::net::BosClient;
using bos::telemetry::trace::TraceSpan;

// Set-up warm-up: long enough for bosd's pool, caches and the host CPU to
// reach the state the timed window sees.
constexpr double kWarmSeconds = 1.0;

const Workload kWorkloads[] = {
    // name, cache_mb, preload, closed_loop, closed_loop_append,
    // window_pages, value_filter, writer_rate, writer_batch
    {"ingest", 16, false, kConnections, true, 0, false, 0, 0},
    // The open-loop writers send 100 batches/s so that write_p95_ms of one
    // session rests on more than ten samples beyond it.
    {"scan_hot", 16, true, kConnections - 1, false, 4, false, 100, 64},
    {"mixed_cold", 1, true, kConnections - 1, false, 32, true, 100, 512},
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Appends `points` and returns the count bosd acknowledged in kAppendOk.
bos::Result<uint64_t> AppendChecked(BosClient& client, const std::string& series,
                                    std::vector<DataPoint> points) {
  bos::net::AppendRequest req;
  req.series = series;
  req.points = std::move(points);
  bos::Bytes payload;
  bos::net::EncodeAppendRequest(req, &payload);
  BOS_ASSIGN_OR_RETURN(bos::net::OwnedFrame resp,
                       client.RoundTrip(bos::net::FrameType::kAppend, payload));
  const auto type = static_cast<bos::net::FrameType>(resp.type);
  if (type == bos::net::FrameType::kError) {
    BOS_ASSIGN_OR_RETURN(bos::net::ErrorBody body,
                         bos::net::ParseError(resp.payload));
    return bos::net::ErrorBodyToStatus(body);
  }
  if (type != bos::net::FrameType::kAppendOk) {
    return bos::Status::Corruption("unexpected append response");
  }
  size_t pos = 0;
  uint64_t count = 0;
  BOS_RETURN_NOT_OK(bos::bitpack::GetVarint(resp.payload, &pos, &count));
  return count;
}

QueryOp DrawQuery(const Workload& workload, uint64_t* rng) {
  QueryOp op;
  op.count = workload.window_pages * kPagePoints;
  op.series = NextRandom(rng) % kSeries;
  op.first = NextRandom(rng) % (kPointsPerSeries - op.count + 1);
  return op;
}

/// Whether `got` is the model's answer to `op`, without building it.
bool MatchesModel(const Dataset& dataset, const Workload& workload,
                  const QueryOp& op, const std::vector<DataPoint>& got) {
  const std::vector<DataPoint>& base = dataset.base[op.series];
  size_t matched = 0;
  for (size_t i = op.first; i < op.first + op.count; ++i) {
    const DataPoint& p = base[i];
    if (!workload.Keeps(p)) continue;
    if (matched >= got.size() || !(got[matched] == p)) return false;
    ++matched;
  }
  return matched == got.size();
}

/// One thread's share of a window, merged into WindowResult at the end.
struct Tally {
  WindowResult r;
  void MergeInto(WindowResult* out) const {
    out->attempted += r.attempted;
    out->failed += r.failed;
    out->ops += r.ops;
    out->all_ops += r.all_ops;
    out->points_written += r.points_written;
    out->points_returned += r.points_returned;
    auto append = [](std::vector<double>* dst, const std::vector<double>& src) {
      dst->insert(dst->end(), src.begin(), src.end());
    };
    append(&out->op_ms, r.op_ms);
    append(&out->op_ms_traced, r.op_ms_traced);
    append(&out->op_ms_untraced, r.op_ms_untraced);
    append(&out->write_ms, r.write_ms);
    append(&out->late_ms, r.late_ms);
    out->slice_ops.resize(std::max(out->slice_ops.size(), r.slice_ops.size()));
    for (size_t i = 0; i < r.slice_ops.size(); ++i) out->slice_ops[i] += r.slice_ops[i];
  }
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Dataset MakeDataset(uint64_t seed) {
  Dataset ds;
  // Names are fixed (not seeded): the first 16 per shard in name order.
  std::array<std::vector<std::string>, kShards> by_shard;
  for (size_t k = 0; ds.names.size() < kSeries; ++k) {
    const std::string name = "sensor." + std::to_string(k);
    auto& bucket = by_shard[bos::net::SeriesHash(name) % kShards];
    if (bucket.size() < kSeries / kShards) bucket.push_back(name);
    size_t total = 0;
    for (const auto& b : by_shard) total += b.size();
    if (total == kSeries) {
      for (size_t j = 0; j < kSeries; ++j) {
        ds.names.push_back(by_shard[j % kShards][j / kShards]);
      }
    }
  }

  const bos::data::DatasetInfo profile = bos::data::FindDataset("CS").value();
  int64_t longest = 0;
  for (size_t j = 0; j < kSeries; ++j) {
    uint64_t state = seed * 0x100000001B3ULL + j;
    const uint64_t series_seed = NextRandom(&state);
    const std::vector<int64_t> values =
        bos::data::GenerateInteger(profile, kPointsPerSeries, series_seed);
    const std::vector<int64_t> times = bos::data::GenerateTimestamps(
        kPointsPerSeries, 1700000000000, 1000, series_seed);
    std::vector<DataPoint> points(kPointsPerSeries);
    for (size_t i = 0; i < kPointsPerSeries; ++i) points[i] = {times[i], values[i]};
    longest = std::max(longest, times.back() - times.front());
    ds.base.push_back(std::move(points));
  }
  ds.wrap_shift = longest + 1000;
  return ds;
}

std::vector<DataPoint> ExpectedAnswer(const Dataset& dataset,
                                      const Workload& workload,
                                      const QueryOp& op) {
  std::vector<DataPoint> out;
  const std::vector<DataPoint>& base = dataset.base[op.series];
  for (size_t i = op.first; i < op.first + op.count; ++i) {
    if (workload.Keeps(base[i])) out.push_back(base[i]);
  }
  return out;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

bos::Result<std::unique_ptr<Session>> Session::Open(const Workload& workload,
                                                    const Dataset& dataset,
                                                    const std::string& bosd,
                                                    const std::string& dir,
                                                    uint64_t seed) {
  std::unique_ptr<Session> s(new Session(workload, dataset, seed));
  s->acked_.assign(kSeries, 0);
  BOS_ASSIGN_OR_RETURN(
      s->server_,
      ServerProcess::Start(bosd, {"--shards=" + std::to_string(kShards),
                                  "--threads=" + std::to_string(kServerThreads),
                                  "--cache-mb=" + std::to_string(workload.cache_mb),
                                  "--dir=" + dir}));
  for (size_t c = 0; c < kConnections; ++c) {
    BOS_ASSIGN_OR_RETURN(BosClient client,
                         BosClient::Connect("127.0.0.1", s->server_->port()));
    s->clients_.push_back(std::move(client));
  }
  if (workload.preload) BOS_RETURN_NOT_OK(s->Preload());
  BOS_RETURN_NOT_OK(s->Warm());
  return s;
}

Session::~Session() {
  if (server_ != nullptr) (void)server_->Stop();
}

uint64_t Session::points_stored() const {
  uint64_t total = 0;
  for (size_t n : acked_) total += n;
  return total;
}

bos::Status Session::Preload() {
  // Connection c loads series [16c, 16c + 16), four on each shard, in
  // round-robin batches so every flushed file holds a time slice of all
  // of a shard's series.
  std::vector<bos::Status> status(kConnections);
  std::vector<std::thread> threads;
  constexpr size_t kPerConn = kSeries / kConnections;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      for (size_t first = 0; first < kPointsPerSeries; first += kPreloadBatch) {
        for (size_t s = c * kPerConn; s < (c + 1) * kPerConn; ++s) {
          auto n = AppendChecked(clients_[c], dataset_.names[s],
                                 dataset_.Points(s, first, kPreloadBatch));
          if (!n.ok()) {
            status[c] = n.status();
            return;
          }
          if (*n != kPreloadBatch) {
            status[c] = bos::Status::Corruption("short preload append ack");
            return;
          }
          acked_[s] = first + kPreloadBatch;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const bos::Status& st : status) BOS_RETURN_NOT_OK(st);
  return clients_[0].Flush();
}

bos::Status Session::Warm() {
  if (workload_.preload) {
    // Read everything once: checks the preload and fills the page cache.
    BOS_ASSIGN_OR_RETURN(const uint64_t bad, Verify());
    if (bad != 0) return bos::Status::Corruption("preloaded data mismatch");
  }
  const WindowResult warm = RunWindow(kWarmSeconds, /*trace=*/false);
  if (warm.failed != 0) return bos::Status::Corruption("warm-up ops failed");
  // Ingest measures from an empty memtable and WAL.
  if (!workload_.preload) return clients_[0].Flush();
  return bos::Status::OK();
}

bos::Result<uint64_t> Session::Verify() {
  std::vector<uint64_t> bad(kConnections, 0);
  std::vector<bos::Status> status(kConnections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      std::vector<DataPoint> got;
      for (size_t s = c; s < kSeries; s += kConnections) {
        got.clear();
        const bos::Status st = clients_[c].QueryRange(
            dataset_.names[s], std::numeric_limits<int64_t>::min(),
            std::numeric_limits<int64_t>::max(), &got);
        if (!st.ok()) {
          status[c] = st;
          return;
        }
        bool same = got.size() == acked_[s];
        for (size_t k = 0; same && k < got.size(); ++k) {
          same = got[k] == dataset_.At(s, k);
        }
        if (!same) ++bad[c];
      }
    });
  }
  for (auto& t : threads) t.join();
  uint64_t total = 0;
  for (size_t c = 0; c < kConnections; ++c) {
    BOS_RETURN_NOT_OK(status[c]);
    total += bad[c];
  }
  return total;
}

WindowResult Session::RunWindow(double seconds, bool trace) {
  WindowResult result;
  result.seconds = seconds;
  std::mutex mu;
  const uint64_t window = window_index_++;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const bool open_loop_writer = workload_.writer_rate > 0;

  auto closed_loop = [&](size_t c) {
    Tally t;
    uint64_t rng = seed_ ^ (window << 32) ^ (c + 1) * 0x9E3779B97F4A7C15ULL;
    constexpr size_t kPerConn = kSeries / kConnections;
    size_t turn = 0;
    std::vector<DataPoint> got;
    Clock::time_point prev_reply = start;
    while (Clock::now() < deadline) {
      const bool traced = trace && t.r.attempted % 2 == 1;
      bos::Status st;
      size_t points = 0;
      size_t series = 0;
      QueryOp op;
      std::vector<DataPoint> batch;
      if (workload_.closed_loop_append) {
        series = c * kPerConn + turn++ % kPerConn;
        batch = dataset_.Points(series, acked_[series], kAppendBatch);
      } else {
        op = DrawQuery(workload_, &rng);
      }
      const Clock::time_point send = Clock::now();
      if (!open_loop_writer) t.r.late_ms.push_back(Ms(send - prev_reply));
      {
        std::optional<TraceSpan> span;
        if (workload_.closed_loop_append) {
          if (traced) span.emplace("perfbench.append");
          auto n = AppendChecked(clients_[c], dataset_.names[series], std::move(batch));
          st = !n.ok() ? n.status()
               : *n != kAppendBatch ? bos::Status::Corruption("short append ack")
                                    : bos::Status::OK();
          if (st.ok()) acked_[series] += kAppendBatch;
          points = kAppendBatch;
        } else {
          if (traced) span.emplace("perfbench.query");
          const std::vector<DataPoint>& base = dataset_.base[op.series];
          const int64_t t_min = base[op.first].timestamp;
          const int64_t t_max = base[op.first + op.count - 1].timestamp;
          got.clear();
          st = workload_.value_filter
                   ? clients_[c].QueryValueRange(dataset_.names[op.series], t_min,
                                                 t_max, kOutlierMin, kOutlierMax, &got)
                   : clients_[c].QueryRange(dataset_.names[op.series], t_min,
                                            t_max, &got);
          points = got.size();
        }
      }
      const Clock::time_point done = Clock::now();
      prev_reply = done;
      ++t.r.attempted;
      if (st.ok() && !workload_.closed_loop_append &&
          !MatchesModel(dataset_, workload_, op, got)) {
        st = bos::Status::Corruption("answer differs from the model");
      }
      if (!st.ok()) {
        ++t.r.failed;
        continue;
      }
      if (done > deadline) continue;
      const double ms = Ms(done - send);
      ++t.r.ops;
      ++t.r.all_ops;
      t.r.op_ms.push_back(ms);
      const auto slice = static_cast<size_t>(std::chrono::duration<double>(done - start).count());
      if (t.r.slice_ops.size() <= slice) t.r.slice_ops.resize(slice + 1);
      ++t.r.slice_ops[slice];
      (traced ? t.r.op_ms_traced : t.r.op_ms_untraced).push_back(ms);
      if (workload_.closed_loop_append) {
        t.r.points_written += points;
        t.r.write_ms.push_back(ms);
      } else {
        t.r.points_returned += points;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    t.MergeInto(&result);
  };

  // Open loop: batch k is due at start + k / rate whether or not earlier
  // ones have returned, and its latency counts from that due time.
  auto writer = [&](size_t c) {
    Tally t;
    const double period = 1.0 / workload_.writer_rate;
    for (uint64_t k = 0;; ++k) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(period * static_cast<double>(k)));
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      const size_t series = (window * 17 + k) % kSeries;
      std::vector<DataPoint> batch =
          dataset_.Points(series, acked_[series], workload_.writer_batch);
      const bool traced = trace && k % 2 == 1;
      const Clock::time_point send = Clock::now();
      t.r.late_ms.push_back(Ms(send - due));
      const bos::Result<uint64_t> n = [&] {
        std::optional<TraceSpan> span;
        if (traced) span.emplace("perfbench.writer_append");
        return AppendChecked(clients_[c], dataset_.names[series], std::move(batch));
      }();
      const Clock::time_point done = Clock::now();
      ++t.r.attempted;
      if (!n.ok() || *n != workload_.writer_batch) {
        ++t.r.failed;
        continue;
      }
      acked_[series] += workload_.writer_batch;
      if (done > deadline) continue;
      ++t.r.all_ops;
      t.r.points_written += workload_.writer_batch;
      t.r.write_ms.push_back(Ms(done - due));
    }
    std::lock_guard<std::mutex> lock(mu);
    t.MergeInto(&result);
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < workload_.closed_loop; ++c) threads.emplace_back(closed_loop, c);
  if (open_loop_writer) threads.emplace_back(writer, workload_.closed_loop);
  for (auto& th : threads) th.join();
  return result;
}

}  // namespace perfbench
