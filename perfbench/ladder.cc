#include "ladder.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench_common.h"
#include "bitpack/unpack_kernels.h"
#include "bitpack/varint.h"
#include "codecs/timeseries.h"
#include "codecs/ts2diff.h"
#include "core/bos_codec.h"
#include "core/separation.h"
#include "net/server.h"
#include "net/wire.h"
#include "storage/page_cache.h"
#include "storage/store.h"
#include "storage/tsfile.h"
#include "storage/wal.h"
#include "telemetry/trace.h"
#include "util/macros.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using bos::Bytes;
using bos::Status;
using bos::bench::DoNotOptimize;

constexpr int kReps = 5;
constexpr size_t kReadOps = 128;
constexpr size_t kAppendOps = 32;

/// Median wall seconds of `reps` calls of `fn`, each inside a trace span.
template <typename Fn>
double MedianSeconds(const char* span_name, int reps, Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    BOS_TRACE_SPAN(span_name);
    const Clock::time_point start = Clock::now();
    fn();
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

/// The store options bosd gives each shard (net/server.cc), with the
/// workload's cache budget.
bos::storage::StoreOptions ShardStoreOptions(const Workload& w,
                                             const std::string& dir) {
  const bos::net::ServerOptions server;
  bos::storage::StoreOptions so;
  so.dir = dir;
  so.memtable_points = server.memtable_points;
  so.spec = server.spec;
  so.cache_mb = w.cache_mb;
  so.threads = 0;
  so.wal_sync_every_n = 0;
  return so;
}

struct ReadOp {
  std::string series;
  int64_t t_min = 0;
  int64_t t_max = 0;
  std::vector<DataPoint> expected;
};

/// Queries of the workload's shape on shard-0 series. Ingest has no
/// queries of its own, so its read rungs use scan_hot's window.
const Workload& ReadShape(const LadderInput& in) {
  return in.workload->closed_loop_append ? *FindWorkload("scan_hot") : *in.workload;
}

std::vector<ReadOp> ShardZeroReads(const LadderInput& in) {
  const Workload& shape = ReadShape(in);
  uint64_t rng = in.seed ^ 0x1add3;
  std::vector<ReadOp> ops;
  for (size_t attempt = 0; ops.size() < kReadOps && attempt < 64 * kReadOps;
       ++attempt) {
    QueryOp q;
    q.series = kShards * (NextRandom(&rng) % (kSeries / kShards));
    const size_t avail = std::min(in.acked[q.series], kPointsPerSeries);
    if (avail == 0) continue;
    q.count = std::min(shape.window_pages * kPagePoints, avail);
    q.first = NextRandom(&rng) % (avail - q.count + 1);
    const std::vector<DataPoint>& base = in.dataset->base[q.series];
    ops.push_back({in.dataset->names[q.series], base[q.first].timestamp,
                   base[q.first + q.count - 1].timestamp,
                   ExpectedAnswer(*in.dataset, shape, q)});
  }
  return ops;
}

/// bosd's value filter, applied to a time-range answer.
void ApplyFilter(const Workload& shape, std::vector<DataPoint>* points) {
  std::erase_if(*points, [&](const DataPoint& p) { return !shape.Keeps(p); });
}

struct WireTimes {
  double encode_s = 0;
  double parse_s = 0;
};

/// Client request encode + server response encode, and server request
/// parse + client response parse, per op.
Status TimeWire(const LadderInput& in, const std::vector<ReadOp>& reads,
                WireTimes* out) {
  using namespace bos::net;
  std::vector<Bytes> requests, responses;
  Status st;
  auto note = [&](const Status& s) {
    if (!s.ok()) st = s;
  };
  if (in.workload->closed_loop_append) {
    std::vector<AppendRequest> appends;
    for (size_t i = 0; i < kAppendOps; ++i) {
      const size_t s = kShards * (i % (kSeries / kShards));
      appends.push_back({in.dataset->names[s], in.dataset->Points(s, i * kAppendBatch,
                                                                  kAppendBatch)});
    }
    auto encode = [&] {
      requests.clear();
      responses.clear();
      for (const AppendRequest& req : appends) {
        Bytes payload, frame, body, resp;
        EncodeAppendRequest(req, &payload);
        EncodeFrame(static_cast<uint8_t>(FrameType::kAppend), payload, &frame);
        bos::bitpack::PutVarint(&body, req.points.size());
        EncodeFrame(static_cast<uint8_t>(FrameType::kAppendOk), body, &resp);
        requests.push_back(std::move(frame));
        responses.push_back(std::move(resp));
      }
    };
    out->encode_s = MedianSeconds("ladder.net.wire_encode", kReps, encode) / kAppendOps;
    out->parse_s = MedianSeconds("ladder.net.wire_parse", kReps, [&] {
                     for (size_t i = 0; i < requests.size(); ++i) {
                       FrameView view;
                       size_t used = 0;
                       note(DecodeFrame(requests[i], &view, &used));
                       auto req = ParseAppendRequest(view.payload);
                       note(req.status());
                       note(DecodeFrame(responses[i], &view, &used));
                       size_t pos = 0;
                       uint64_t n = 0;
                       note(bos::bitpack::GetVarint(view.payload, &pos, &n));
                       DoNotOptimize(n);
                     }
                   }) /
                   kAppendOps;
    return st;
  }
  auto encode = [&] {
    requests.clear();
    responses.clear();
    for (const ReadOp& op : reads) {
      QueryRangeRequest req;
      req.series = op.series;
      req.t_min = op.t_min;
      req.t_max = op.t_max;
      req.has_value_filter = ReadShape(in).value_filter;
      req.v_min = kOutlierMin;
      req.v_max = kOutlierMax;
      Bytes payload, frame, body, resp;
      EncodeQueryRangeRequest(req, &payload);
      EncodeFrame(static_cast<uint8_t>(FrameType::kQueryRange), payload, &frame);
      EncodePoints(op.expected, &body);
      EncodeFrame(static_cast<uint8_t>(FrameType::kPoints), body, &resp);
      requests.push_back(std::move(frame));
      responses.push_back(std::move(resp));
    }
  };
  const double n = static_cast<double>(reads.size());
  out->encode_s = MedianSeconds("ladder.net.wire_encode", kReps, encode) / n;
  out->parse_s = MedianSeconds("ladder.net.wire_parse", kReps, [&] {
                   for (size_t i = 0; i < requests.size(); ++i) {
                     FrameView view;
                     size_t used = 0;
                     note(DecodeFrame(requests[i], &view, &used));
                     note(ParseQueryRangeRequest(view.payload).status());
                     note(DecodeFrame(responses[i], &view, &used));
                     auto points = ParsePoints(view.payload);
                     if (!points.ok() || *points != reads[i].expected) {
                       st = Status::Corruption("wire round trip differs");
                     }
                   }
                 }) /
                 n;
  return st;
}

struct WriteTimes {
  double wal_append_s_per_point = 0;
  double wal_sync_s = 0;
  double wal_batch_s = 0;  ///< one append batch plus its Sync
  double write_batch_s = 0;
  double flush_s = 0;
};

/// WalWriter::Append/Sync, TsStore::WriteBatch+SyncWal and a full
/// memtable Flush, in a private directory with bosd's shard options.
Status TimeWrites(const LadderInput& in, WriteTimes* out) {
  const Dataset& ds = *in.dataset;
  Status st;
  {
    fs::create_directories(in.scratch_dir + "/wal");
    bos::storage::WalWriter wal(in.scratch_dir + "/wal/wal");
    BOS_RETURN_NOT_OK(wal.Open());
    std::vector<double> append_s, sync_s, batch_s;
    for (int r = 0; r < 4 * kReps; ++r) {
      const std::vector<DataPoint> batch =
          ds.Points(0, static_cast<size_t>(r) * kAppendBatch, kAppendBatch);
      BOS_TRACE_SPAN("ladder.wal.append_batch");
      Clock::time_point start = Clock::now();
      for (const DataPoint& p : batch) {
        Status a = wal.Append(ds.names[0], p);
        if (!a.ok()) st = a;
      }
      append_s.push_back(SecondsSince(start));
      BOS_TRACE_SPAN("ladder.wal.sync");
      start = Clock::now();
      Status s = wal.Sync();
      if (!s.ok()) st = s;
      sync_s.push_back(SecondsSince(start));
      batch_s.push_back(append_s.back() + sync_s.back());
    }
    BOS_RETURN_NOT_OK(st);
    out->wal_append_s_per_point = Median(append_s) / kAppendBatch;
    out->wal_sync_s = Median(sync_s);
    out->wal_batch_s = Median(batch_s);
  }

  const bos::storage::StoreOptions so =
      ShardStoreOptions(*in.workload, in.scratch_dir + "/store");
  BOS_ASSIGN_OR_RETURN(auto store, bos::storage::TsStore::Open(so));
  std::vector<size_t> next(kSeries, 0);
  auto write = [&](size_t s, size_t n) {
    Status w = store->WriteBatch(ds.names[s], ds.Points(s, next[s], n));
    next[s] += n;
    return w;
  };
  std::vector<double> batch_s;
  for (int r = 0; r < 4 * kReps; ++r) {
    const size_t s = kShards * (static_cast<size_t>(r) % (kSeries / kShards));
    BOS_TRACE_SPAN("ladder.store.write_batch");
    const Clock::time_point start = Clock::now();
    Status w = write(s, kAppendBatch);
    if (w.ok()) w = store->SyncWal();
    batch_s.push_back(SecondsSince(start));
    BOS_RETURN_NOT_OK(w);
  }
  out->write_batch_s = Median(batch_s);

  // Fill the memtable to one point short of bosd's flush threshold over
  // the 16 series of shard 0, then time the flush it is about to trigger.
  std::vector<double> flush_s;
  for (int r = 0; r < 3; ++r) {
    const size_t room = so.memtable_points - 1 - store->memtable_points();
    const size_t per_series = room / (kSeries / kShards);
    for (size_t i = 0; i < kSeries / kShards; ++i) {
      const size_t n = per_series + (i == 0 ? room % (kSeries / kShards) : 0);
      BOS_RETURN_NOT_OK(write(kShards * i, n));
    }
    BOS_TRACE_SPAN("ladder.store.flush");
    const Clock::time_point start = Clock::now();
    BOS_RETURN_NOT_OK(store->Flush());
    flush_s.push_back(SecondsSince(start));
  }
  out->flush_s = Median(flush_s);
  return Status::OK();
}

struct ReadTimes {
  double store_s = 0;   ///< TsStore::Query (+ bosd's value filter) per op
  double tsfile_s = 0;  ///< ReadTimeRange over every file, per op
  bos::storage::ScanStats cold;  ///< first pass over a cold page cache
  uint64_t returned = 0;         ///< points the ops return
};

Status TimeReads(const LadderInput& in, const std::vector<ReadOp>& reads,
                 ReadTimes* out) {
  const Workload& shape = ReadShape(in);
  const double n = static_cast<double>(reads.size());
  Status st;
  {
    BOS_ASSIGN_OR_RETURN(auto store, bos::storage::TsStore::Open(ShardStoreOptions(
                                         *in.workload, in.shard_dir)));
    auto pass = [&] {
      std::vector<DataPoint> got;
      for (const ReadOp& op : reads) {
        got.clear();
        Status q = store->Query(op.series, op.t_min, op.t_max, &got);
        ApplyFilter(shape, &got);
        if (!q.ok()) st = q;
        else if (got != op.expected) st = Status::Corruption("store answer differs");
      }
    };
    pass();  // the cache state bosd had: warm for scan_hot, churning for mixed_cold
    BOS_RETURN_NOT_OK(st);
    out->store_s = MedianSeconds("ladder.store.query", kReps, pass) / n;
    BOS_RETURN_NOT_OK(st);
  }

  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(in.shard_dir)) {
    if (entry.path().extension() == ".tsfile") paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  bos::storage::PageCache cache(in.workload->cache_mb << 20);
  std::vector<std::unique_ptr<bos::storage::TsFileReader>> readers;
  for (const std::string& path : paths) {
    auto reader = std::make_unique<bos::storage::TsFileReader>();
    BOS_RETURN_NOT_OK(reader->Open(path, {.use_mmap = false, .cache = &cache}));
    readers.push_back(std::move(reader));
  }
  auto pass = [&](bos::storage::ScanStats* stats) {
    std::vector<DataPoint> got;
    for (const ReadOp& op : reads) {
      got.clear();
      for (auto& reader : readers) {
        if (!reader->FindSeries(op.series).ok()) continue;
        Status r = reader->ReadTimeRange(op.series, op.t_min, op.t_max, &got, stats);
        if (!r.ok()) st = r;
      }
      ApplyFilter(shape, &got);
      if (stats != nullptr) out->returned += got.size();
    }
  };
  {
    BOS_TRACE_SPAN("ladder.tsfile.cold_pass");
    pass(&out->cold);
  }
  out->tsfile_s = MedianSeconds("ladder.tsfile.read_time_range", kReps,
                                [&] { pass(nullptr); }) /
                  n;
  return st;
}

struct CodecRates {
  double codec_encode_mb_s = 0;
  double codec_decode_mb_s = 0;
  double bos_encode_mb_s = 0;
  double bos_decode_mb_s = 0;
  double unpack_gbps = 0;
};

/// Codec, BOS operator and unpack-kernel throughput on one shard-0 series.
Status TimeCodecs(const LadderInput& in, CodecRates* out) {
  const std::vector<DataPoint> points =
      in.dataset->Points(0, 0, std::min(in.acked[0], kPointsPerSeries));
  if (points.empty()) return Status::InvalidArgument("shard 0 holds no points");
  const std::string spec = bos::net::ServerOptions{}.spec;
  const double mb = static_cast<double>(points.size()) * 16 / 1e6;
  Status st;

  bos::storage::EncodedSeries encoded;
  const double enc_s = MedianSeconds("ladder.codec.encode", 3, [&] {
    auto e = bos::storage::EncodeTimeSeriesPages(in.dataset->names[0], spec, points,
                                                  kPagePoints);
    if (!e.ok()) st = e.status();
    else encoded = std::move(e).value();
  });
  BOS_RETURN_NOT_OK(st);
  out->codec_encode_mb_s = mb / enc_s;
  BOS_ASSIGN_OR_RETURN(auto codec, bos::codecs::MakeTimeSeriesCodec(spec, kPagePoints));
  std::vector<DataPoint> decoded;
  const double dec_s = MedianSeconds("ladder.codec.decode", 3, [&] {
    decoded.clear();
    for (const bos::storage::EncodedPage& page : encoded.pages) {
      if (page.fixed_interval) continue;
      Status d = codec->Decompress(page.payload, &decoded);
      if (!d.ok()) st = d;
    }
  });
  BOS_RETURN_NOT_OK(st);
  out->codec_decode_mb_s = static_cast<double>(decoded.size()) * 16 / 1e6 / dec_s;

  // TS2DIFF residuals of both columns, one block per page, as the codec
  // hands them to the BOS-B operator.
  std::vector<std::vector<int64_t>> blocks;
  size_t values = 0;
  for (size_t start = 0; start < points.size(); start += kPagePoints) {
    const size_t len = std::min(kPagePoints, points.size() - start);
    std::vector<int64_t> times(len), vals(len);
    for (size_t i = 0; i < len; ++i) {
      times[i] = points[start + i].timestamp;
      vals[i] = points[start + i].value;
    }
    for (const auto* column : {&times, &vals}) {
      std::vector<int64_t> residuals = bos::codecs::DeltaTransform(*column);
      residuals.erase(residuals.begin());
      values += residuals.size();
      blocks.push_back(std::move(residuals));
    }
  }
  const bos::core::BosOperator bos_b(bos::core::SeparationStrategy::kBitWidth);
  Bytes packed;
  const double bos_enc_s = MedianSeconds("ladder.bos.encode", 3, [&] {
    packed.clear();
    for (const auto& block : blocks) {
      Status e = bos_b.Encode(block, &packed);
      if (!e.ok()) st = e;
    }
  });
  std::vector<int64_t> unpacked;
  const double bos_dec_s = MedianSeconds("ladder.bos.decode", 3, [&] {
    unpacked.clear();
    size_t offset = 0;
    for (size_t b = 0; b < blocks.size(); ++b) {
      Status d = bos_b.Decode(packed, &offset, &unpacked);
      if (!d.ok()) st = d;
    }
  });
  BOS_RETURN_NOT_OK(st);
  const double value_mb = static_cast<double>(values) * 8 / 1e6;
  out->bos_encode_mb_s = value_mb / bos_enc_s;
  out->bos_decode_mb_s = value_mb / bos_dec_s;

  // Unpack kernels at the center width BOS-B picked for each block.
  bos::Rng rng(in.seed);
  std::vector<std::pair<int, Bytes>> lanes;
  for (const auto& block : blocks) {
    const bos::core::Separation sep = bos::core::SeparateBitWidth(block);
    const auto [lo, hi] = std::minmax_element(block.begin(), block.end());
    const uint64_t range =
        sep.separated ? static_cast<uint64_t>(sep.partition.max_xc) -
                            static_cast<uint64_t>(sep.partition.min_xc)
                      : static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo);
    const int width = std::bit_width(range);
    std::vector<uint64_t> raw(block.size());
    for (uint64_t& v : raw) v = width == 0 ? 0 : rng.Next() >> (64 - width);
    Bytes lane((raw.size() * static_cast<size_t>(width) + 7) / 8 + 64, 0);
    bos::bitpack::PackBlocks(raw.data(), raw.size(), width, lane.data(), lane.size());
    lanes.emplace_back(width, std::move(lane));
  }
  constexpr int kUnpackLoops = 200;
  std::vector<uint64_t> scratch(kPagePoints);
  const double unpack_s = MedianSeconds("ladder.bitpack.unpack", 3, [&] {
    for (int loop = 0; loop < kUnpackLoops; ++loop) {
      for (size_t b = 0; b < lanes.size(); ++b) {
        bos::bitpack::UnpackBlocks(lanes[b].second.data(), lanes[b].second.size(),
                                   lanes[b].first, blocks[b].size(), scratch.data());
        DoNotOptimize(scratch[0]);
      }
    }
  });
  out->unpack_gbps = static_cast<double>(values) * 8 * kUnpackLoops / 1e9 / unpack_s;
  return Status::OK();
}

}  // namespace

Status RunLadder(const LadderInput& in, std::vector<Metric>* out) {
  BOS_TRACE_SPAN("ladder");
  const std::vector<ReadOp> reads = ShardZeroReads(in);
  if (reads.empty()) return Status::InvalidArgument("no shard-0 data to read");

  WireTimes wire;
  WriteTimes writes;
  ReadTimes read;
  CodecRates rates;
  BOS_RETURN_NOT_OK(TimeWire(in, reads, &wire));
  BOS_RETURN_NOT_OK(TimeWrites(in, &writes));
  BOS_RETURN_NOT_OK(TimeReads(in, reads, &read));
  BOS_RETURN_NOT_OK(TimeCodecs(in, &rates));

  const double ops = static_cast<double>(reads.size());
  const double wire_us = (wire.encode_s + wire.parse_s) * 1e6;
  // Per-op cost of the lower rungs on the values one op decodes.
  const double scanned_per_op = static_cast<double>(read.cold.values_scanned) / ops;
  const double codec_us = scanned_per_op * 16 / rates.codec_decode_mb_s;
  const double bos_us = scanned_per_op * 16 / rates.bos_decode_mb_s;
  const double bitpack_us = scanned_per_op * 16 / (rates.unpack_gbps * 1e3);
  const double wal_us = writes.wal_batch_s * 1e6;
  const bool append_ops = in.workload->closed_loop_append;
  const double top_us = append_ops ? writes.write_batch_s * 1e6 : read.store_s * 1e6;
  const double p50_us = in.traced_p50_ms * 1e3;

  std::fprintf(stderr, "perfbench: ladder for one %s op (us; self = rung - rung below)\n",
               in.workload->name);
  auto row = [](const char* rung, double us, double self) {
    std::fprintf(stderr, "  %-34s %10.2f  self %10.2f\n", rung, us, self);
  };
  row("client op p50 (traced)", p50_us, p50_us - top_us - wire_us);
  row("net wire encode+parse", wire_us, wire_us);
  if (append_ops) {
    row("store WriteBatch+SyncWal", top_us, top_us - wal_us);
    row("wal Append x batch + Sync", wal_us, wal_us);
  } else {
    const double tsfile_us = read.tsfile_s * 1e6;
    row("store Query (+filter)", top_us, top_us - tsfile_us);
    row("tsfile ReadTimeRange", tsfile_us, tsfile_us - codec_us);
    row("codec decode", codec_us, codec_us - bos_us);
    row("bos decode", bos_us, bos_us - bitpack_us);
    row("bitpack unpack", bitpack_us, bitpack_us);
  }

  auto add = [&](const char* name, double value, const char* unit) {
    out->push_back({name, value, unit});
  };
  add("net.wire.encode_us_per_op", wire.encode_s * 1e6, "us");
  add("net.wire.parse_us_per_op", wire.parse_s * 1e6, "us");
  add("net.residual_us_per_op", p50_us - top_us - wire_us, "us");
  add("wal.append_ns_per_point", writes.wal_append_s_per_point * 1e9, "ns");
  add("wal.sync_us", writes.wal_sync_s * 1e6, "us");
  add("store.write_batch_us", writes.write_batch_s * 1e6, "us");
  add("store.flush_ms", writes.flush_s * 1e3, "ms");
  add("store.query_us", read.store_s * 1e6, "us");
  add("tsfile.io_us_per_op", read.cold.io_seconds * 1e6 / ops, "us");
  add("tsfile.decode_us_per_op", read.cold.decode_seconds * 1e6 / ops, "us");
  add("tsfile.values_scanned_per_returned",
      Ratio(static_cast<double>(read.cold.values_scanned),
            static_cast<double>(read.returned)),
      "ratio");
  add("codec.encode_mb_s", rates.codec_encode_mb_s, "MB/s");
  add("codec.decode_mb_s", rates.codec_decode_mb_s, "MB/s");
  add("bos.encode_mb_s", rates.bos_encode_mb_s, "MB/s");
  add("bos.decode_mb_s", rates.bos_decode_mb_s, "MB/s");
  add("bitpack.unpack_gbps", rates.unpack_gbps, "GB/s");
  add("ladder.attributed_share", Ratio(top_us + wire_us, p50_us), "ratio");
  return Status::OK();
}

}  // namespace perfbench
