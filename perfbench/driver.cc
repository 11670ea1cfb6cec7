// perfbench_driver: one run of the service benchmark against a child bosd.
//
// Usage:
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --bosd=PATH --work-dir=DIR [--trace-out=FILE]
//
// Prints the run's result as the last line of stdout:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics, or with --trace=1 the per-layer ones.
// Exits 1 without a result when bosd cannot be started or driven.

#include <signal.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common.h"
#include "ladder.h"
#include "server_process.h"
#include "telemetry/trace.h"
#include "util/macros.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Each run starts this many fresh bosd instances, sets each up, measures
// each for an equal share of --seconds, and reports the median over them:
// thread placement and similar per-process luck then moves no metric.
constexpr int kSessions = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string bosd;
  std::string work_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "--workload") args->workload = value;
    else if (key == "--seed") args->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args->seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") args->trace = value == "1";
    else if (key == "--bosd") args->bosd = value;
    else if (key == "--work-dir") args->work_dir = value;
    else if (key == "--trace-out") args->trace_out = value;
    else return false;
  }
  return !args->workload.empty() && !args->bosd.empty() &&
         !args->work_dir.empty() && args->seconds > 0;
}

int Fail(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  return 1;
}

/// A counter of the telemetry snapshot inside bosd's stats frame.
double Counter(const std::string& stats, const char* name) {
  const std::string key = std::string("\"") + name + "\":";
  const size_t at = stats.find(key);
  if (at == std::string::npos) return 0;
  return std::strtod(stats.c_str() + at + key.size(), nullptr);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ',';
    out += "\"" + metrics[i].name + "\":{\"value\":" + value + ",\"unit\":\"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// What one bosd instance contributed: its set-up, one window and the
/// checks after it.
struct SessionOutcome {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = false;
  double traced_p50_ms = 0;
  std::vector<size_t> acked;
};

bos::Result<SessionOutcome> MeasureSession(const Args& args, const Workload& workload,
                                           const Dataset& dataset,
                                           const std::string& data_dir,
                                           double seconds) {
  fs::remove_all(data_dir);
  fs::create_directories(data_dir);
  const Clock::time_point start = Clock::now();
  BOS_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                       Session::Open(workload, dataset, args.bosd, data_dir, args.seed));
  const double setup_s = SecondsSince(start);

  BOS_ASSIGN_OR_RETURN(const std::string stats0, session->StatsJson());
  BOS_ASSIGN_OR_RETURN(const ProcSnapshot p0, ReadProc(session->server_pid()));
  WindowResult r = session->RunWindow(seconds, args.trace);
  BOS_ASSIGN_OR_RETURN(const ProcSnapshot p1, ReadProc(session->server_pid()));
  BOS_ASSIGN_OR_RETURN(const std::string stats1, session->StatsJson());
  BOS_ASSIGN_OR_RETURN(const uint64_t bad_series, session->Verify());
  BOS_RETURN_NOT_OK(session->StopServer());

  std::string slices;
  for (double n : r.slice_ops) {
    slices += ' ';
    slices += std::to_string(static_cast<uint64_t>(n));
  }
  std::fprintf(stderr,
               "perfbench: set-up %.2f s, write p95 %.3f ms of %zu, "
               "ops per second of the window:%s\n",
               setup_s, Quantile(&r.write_ms, 0.95), r.write_ms.size(), slices.c_str());
  if (bad_series != 0) {
    std::fprintf(stderr, "perfbench: %" PRIu64 " series differ from the model\n",
                 bad_series);
  }

  SessionOutcome out;
  out.attempted = r.attempted;
  out.failed = r.failed;
  out.correct = r.failed == 0 && bad_series == 0;
  out.acked = session->acked();
  const double ops = static_cast<double>(r.ops);
  const double all_ops = static_cast<double>(r.all_ops);
  const double written = static_cast<double>(r.points_written);
  const double moved = written + static_cast<double>(r.points_returned);
  const double cpu_s = (p1.user_s + p1.sys_s) - (p0.user_s + p0.sys_s);
  auto delta = [&](const char* name) {
    return Counter(stats1, name) - Counter(stats0, name);
  };

  if (!args.trace) {
    out.metrics = {
        {"setup_s", setup_s, "s"},
        {"ops_per_s", ops / r.seconds, "1/s"},
        {"points_per_s", moved / r.seconds, "1/s"},
        {"op_p50_ms", Quantile(&r.op_ms, 0.50), "ms"},
        {"op_p95_ms", Quantile(&r.op_ms, 0.95), "ms"},
        {"server_cpu_us_per_op", Ratio(cpu_s * 1e6, all_ops), "us"},
        {"server_rss_mb", p1.hwm_mb, "MB"},
        {"disk_bytes_per_point",
         Ratio(static_cast<double>(DirectoryBytes(data_dir)),
               static_cast<double>(session->points_stored())),
         "B"},
        {"write_p95_ms", Quantile(&r.write_ms, 0.95), "ms"},
    };
    return out;
  }
  const double untraced_p50 = Quantile(&r.op_ms_untraced, 0.5);
  out.traced_p50_ms = Quantile(&r.op_ms_traced, 0.5);
  const double hits = delta("bos.storage.cache.hits");
  const double misses = delta("bos.storage.cache.misses");
  out.metrics = {
      {"op_samples", static_cast<double>(r.op_ms.size()), "count"},
      {"op_p99_ms", Quantile(&r.op_ms, 0.99), "ms"},
      {"write_samples", static_cast<double>(r.write_ms.size()), "count"},
      {"trace.overhead_share", Ratio(out.traced_p50_ms - untraced_p50, untraced_p50),
       "ratio"},
      {"loadgen.writer_late_ms_p95", Quantile(&r.late_ms, 0.95), "ms"},
      {"net.bytes_per_point",
       Ratio(delta("bos.net.bytes.rx") + delta("bos.net.bytes.tx"), moved), "B"},
      {"exec.group_commit.batches_per_drain",
       Ratio(delta("bos.net.group_commit.batches"), delta("bos.net.group_commit.drains")),
       "ratio"},
      {"exec.strand.requeues_per_op", Ratio(delta("bos.exec.strand.requeues"), all_ops),
       "ratio"},
      {"wal.write_syscalls_per_point",
       Ratio(static_cast<double>(p1.syscw - p0.syscw), written), "ratio"},
      {"storage.write_bytes_per_point",
       Ratio(static_cast<double>(p1.write_bytes - p0.write_bytes), written), "B"},
      {"server.cpu_sys_share", Ratio(p1.sys_s - p0.sys_s, cpu_s), "ratio"},
      {"page_cache.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"page_cache.misses_per_op", Ratio(misses, all_ops), "ratio"},
      {"page_cache.evictions_per_op", Ratio(delta("bos.storage.cache.evictions"), all_ops),
       "ratio"},
      {"page.read_bytes_per_op", Ratio(delta("bos.storage.page.read_bytes"), all_ops), "B"},
  };
  return out;
}

int Run(const Args& args) {
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) return Fail("unknown workload " + args.workload);
  const bos::bench::CpuInfo& cpu = bos::bench::HostCpu();
  std::fprintf(stderr,
               "perfbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d "
               "nproc=%d avx2=%d bmi2=%d\n",
               workload->name, args.seed, args.seconds, args.trace ? 1 : 0,
               cpu.hardware_threads, cpu.avx2 ? 1 : 0, cpu.bmi2 ? 1 : 0);
  if (args.trace && !bos::telemetry::trace::StartTracing()) {
    return Fail("tracing is compiled out");
  }

  const Dataset dataset = MakeDataset(args.seed);
  std::vector<SessionOutcome> sessions;
  std::string data_dir;
  for (int i = 0; i < kSessions; ++i) {
    if (!data_dir.empty()) fs::remove_all(data_dir);
    data_dir = args.work_dir + "/session-" + std::to_string(i);
    auto outcome =
        MeasureSession(args, *workload, dataset, data_dir, args.seconds / kSessions);
    if (!outcome.ok()) return Fail("session failed: " + outcome.status().ToString());
    sessions.push_back(std::move(outcome).value());
  }

  // Every metric is the median of its per-session values.
  std::vector<Metric> metrics = sessions[0].metrics;
  for (size_t m = 0; m < metrics.size(); ++m) {
    std::vector<double> values;
    for (const SessionOutcome& s : sessions) values.push_back(s.metrics[m].value);
    metrics[m].value = Median(values);
  }
  uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::vector<double> traced_p50;
  for (const SessionOutcome& s : sessions) {
    attempted += s.attempted;
    failed += s.failed;
    correct = correct && s.correct;
    traced_p50.push_back(s.traced_p50_ms);
  }

  if (args.trace) {
    LadderInput ladder;
    ladder.workload = workload;
    ladder.dataset = &dataset;
    ladder.seed = args.seed;
    ladder.shard_dir = args.work_dir + "/ladder/shard-0";
    ladder.scratch_dir = args.work_dir + "/ladder/scratch";
    ladder.acked = sessions.back().acked;
    ladder.traced_p50_ms = Median(traced_p50);
    fs::create_directories(ladder.scratch_dir);
    fs::copy(data_dir + "/shard-0", ladder.shard_dir, fs::copy_options::recursive);
    const bos::Status st = RunLadder(ladder, &metrics);
    if (!st.ok()) return Fail("ladder failed: " + st.ToString());
    bos::telemetry::trace::StopTracing();
    if (!args.trace_out.empty()) {
      std::ofstream(args.trace_out) << bos::telemetry::trace::ExportChromeTraceJson();
      std::fprintf(stderr, "perfbench: Perfetto trace in %s\n", args.trace_out.c_str());
    }
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A dying bosd must surface as a failed request, not kill the client.
  signal(SIGPIPE, SIG_IGN);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return perfbench::Fail(
        "usage: perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1 "
        "--bosd=PATH --work-dir=DIR [--trace-out=FILE]");
  }
  return perfbench::Run(args);
}
